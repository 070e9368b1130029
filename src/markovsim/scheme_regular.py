"""Simulation scheme with equal blocks and a block-end predictor.

The rounds are cut into n/m consecutive blocks of m.  Within one block, the
latest stuck function on either side decides: the closing B bit is its output
XOR every later offset on both sides.  With x = (code - 1) & 1, a round's
offset or stuck output, that is one suffix parity of x per side, each over a
range whose only possible stuck round is its first, the deciding one.  Three
short coded rounds per block (Bob's last-stuck index, Alice's, Bob's parity)
let Alice predict every block's closing B bit before any block content is
exchanged.  Those predictions make the blocks independent rows, and the
content then runs as a vertical column exchange.

Each block maps its entering B bit to its closing one as a constant (a stuck
function on either side) or as an XOR with a known offset, so the block ends
are the binary pointer-jumping chain over blocks, which one
``_kernels.markov_chain`` call evaluates.  summarize_block_*, parity_bob and
predict_last are the per-block reference of predictor_exchange's array code.

Message sizes depend only on (n, m, code), so a batch of protocols of one
length runs as one: every array below may carry a leading trial axis.

Budget: with field width w = ceil(log2(m+1)) the predictor spends
(n/m)(2w+1) info bits.  The parity round absorbs Bob's stuck value v_b: when
the deciding stuck is his, his range starts at it.
"""

from __future__ import annotations

import enum

import numpy as np

from . import _kernels, _seeds
from .bits import bits_to_ints, delayed, ints_to_bits, xor_reduce
from .channel import ChannelPair, Direction, UsageLedger
from .coding import CodeSpec, coded_length
from .protocol import Protocol, Transcript, lone_or_batch
from .report import SimulationReport
from .scheme_random import _pad_fns, ceil_isqrt
from .vertical import exchange_layout, finish_report, new_ledger, run_vertical_exchange, send


def summarize_block_bob(g_slice) -> tuple[int, int]:
    """(s_b, v_b): 1-based index of Bob's last stuck function in the block
    and its stuck output; (0, 0) when the block has none."""
    g_slice = np.asarray(g_slice, dtype=np.uint8)
    stuck = np.flatnonzero(g_slice >= 3)
    if stuck.size == 0:
        return 0, 0
    s = int(stuck[-1]) + 1
    return s, int(g_slice[s - 1]) - 3


def summarize_block_alice(f_slice) -> int:
    """1-based index of Alice's last stuck function in the block, 0 if none."""
    f_slice = np.asarray(f_slice, dtype=np.uint8)
    stuck = np.flatnonzero(f_slice >= 3)
    return 0 if stuck.size == 0 else int(stuck[-1]) + 1


class ParityBranch(enum.Enum):
    AT_ALICE = "at_alice"
    AT_BOB_OR_NONE = "at_bob_or_none"


def parity_bob(g_slice, s: int, branch: ParityBranch) -> int:
    """XOR of Bob's additive offsets over the branch's index range.

    AT_ALICE covers s..m (the round at s included, since Bob's g_s then maps
    Alice's stuck bit additively); AT_BOB_OR_NONE covers s+1..m.  Ranges are
    clipped, so an s beyond the block is an empty parity, not an error.  A
    stuck g inside the range is a caller bug.
    """
    g_slice = np.asarray(g_slice, dtype=np.uint8)
    lo = s - 1 if branch is ParityBranch.AT_ALICE else s
    lo = max(lo, 0)
    window = g_slice[lo:]
    assert not np.any(window >= 3), "parity range crosses a stuck g"
    return xor_reduce(window - 1)


def predict_last(
    prev_b: int, f_slice, s_a: int, s_b: int, v_b: int, p_b: int
) -> int:
    """Closing B bit of a block from its summaries and Bob's parity.

    prev_b is the B bit entering the block (used only when s_a = s_b = 0).
    f_slice must be Alice's true functions with no stuck one past s_a; s_b,
    v_b, p_b may come from decoded (possibly wrong) messages and only steer
    the value, never the validity.
    """
    f_slice = np.asarray(f_slice, dtype=np.uint8)
    m = f_slice.size
    if not 0 <= s_a <= m:
        raise ValueError("s_a must lie in 0..m")
    assert not np.any(f_slice[s_a:] >= 3), "f has a stuck function past s_a"
    a_off = np.where(f_slice <= 2, f_slice - 1, 0).astype(np.uint8)
    s = max(s_a, s_b)
    if s == 0:
        return prev_b ^ p_b ^ xor_reduce(a_off)
    if s_a > s_b:
        a_s = int(f_slice[s_a - 1]) - 3
        return a_s ^ p_b ^ xor_reduce(a_off[s_a:])
    return v_b ^ p_b ^ xor_reduce(a_off[min(s, m):])


def _last_stuck(rows: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """1-based index of the last stuck function in each row, 0 if none;
    rounds is 1..m in the smallest dtype that holds m."""
    stuck_at = ((rows >= 3) * rounds).reshape(-1)
    last = np.maximum.reduceat(stuck_at, np.arange(0, stuck_at.size, rounds.size))
    return last.reshape(rows.shape[:-1]).astype(np.int64)


def _parity_from(rows: np.ndarray, j: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """XOR of x = (code - 1) & 1 over rounds j+1..m of each row.  For an
    additive code x is its offset; for a stuck one, its stuck output."""
    x = ((rows - 1) & (rounds > j[..., None].astype(rounds.dtype))).reshape(-1)
    return np.bitwise_xor.reduceat(x, np.arange(0, x.size, rounds.size)).reshape(j.shape)


def predictor_exchange(
    p: Protocol, m: int, code: CodeSpec, ch: ChannelPair, ledger: UsageLedger
) -> np.ndarray:
    """Run the three predictor rounds for all n/m blocks of ``p`` at once.

    Returns Alice's predicted closing B bit of every block (per row of a
    batched ``p``).  Requires m to divide the protocol length.  Decoded
    values are used as received; corrupt fields shift predictions and
    surface later as transcript mismatch.

    Each side takes one suffix parity of x = (code - 1) & 1 per block, over
    a range whose only possible stuck function is its first round.  Bob's σ
    covers rounds ŝ_a..m if ŝ_a > s_b, all past his last stuck, else s_b..m,
    so it carries v_b.  Alice's covers s_a..m if s_a > ŝ_b, else ŝ_b+1..m,
    all past hers.  With neither side stuck both cover the whole block,
    whose map XORs the entering B bit with their parity.
    """
    n = p.n
    (m,) = _seeds.integers((m,), "block length m", 1)
    if n % m:
        raise ValueError("block length must divide the protocol length")
    width = m.bit_length()
    f_rows = p.f.reshape(p.f.shape[:-1] + (n // m, m))
    g_rows = p.g.reshape(f_rows.shape)
    rounds = np.arange(1, m + 1, dtype=np.min_scalar_type(m))

    s_bob = _last_stuck(g_rows, rounds)
    got = send(ch, code, ledger, ints_to_bits(s_bob, width), Direction.B_TO_A, "predictor_s_bob")
    s_bob_hat = bits_to_ints(got, width)

    s_alice = _last_stuck(f_rows, rounds)
    got = send(ch, code, ledger, ints_to_bits(s_alice, width), Direction.A_TO_B,
               "predictor_s_alice")
    s_alice_hat = bits_to_ints(got, width)

    # a decoded index past m fits the dtype of rounds, as m's field width
    # does, and leaves an empty range
    j_bob = np.where(s_alice_hat > s_bob, s_alice_hat - 1, np.maximum(s_bob - 1, 0))
    sigma = _parity_from(g_rows, j_bob, rounds)
    sigma_hat = send(ch, code, ledger, sigma, Direction.B_TO_A, "predictor_parity")

    # each block's map: stuck at x (code 3 + x) if either side is stuck in
    # it, else XOR with x (code 1 + x); chained, g = identity
    j_alice = np.where(s_alice > s_bob_hat, s_alice - 1, s_bob_hat)
    x = _parity_from(f_rows, j_alice, rounds) ^ sigma_hat
    codes = np.where(np.maximum(s_alice, s_bob_hat) > 0, 3 + x, 1 + x)
    _, ends = _kernels.markov_chain(codes, np.ones_like(codes), 0)
    return ends


@lone_or_batch
def run_scheme2(
    p: Protocol, ch: ChannelPair, code: CodeSpec, m: int | None = None
) -> SimulationReport:
    """Simulate ``p`` over ``ch`` with the equal-block predictor scheme.

    m defaults to ceil(sqrt(n)); the protocol is padded with stuck rounds to
    a multiple of m and the padding is stripped from the reported views.
    A batched ``p`` gives one batch report.
    """
    n = p.n
    (m,) = _seeds.integers((ceil_isqrt(n) if m is None else m,), "block length m", 1)
    n_pad = m * (-(-n // m))
    padded = Protocol(_pad_fns(p.f, n_pad), _pad_fns(p.g, n_pad))
    trials = len(p.f)

    blocks = n_pad // m
    # each direction's flips in one draw: its predictor fields, then its
    # message of the exchange
    _, _, a_len, b_len = exchange_layout(code, blocks, m)
    fields = coded_length(code, blocks * m.bit_length())
    ch.draw_ahead(Direction.A_TO_B, fields + coded_length(code, a_len))
    ch.draw_ahead(Direction.B_TO_A,
                  fields + coded_length(code, blocks) + coded_length(code, b_len))

    ledger = new_ledger(trials)
    ends = predictor_exchange(padded, m, code, ch, ledger)
    rows = (trials, blocks, m)
    res = run_vertical_exchange(
        padded.f.reshape(rows), padded.g.reshape(rows), delayed(ends), code, ch, ledger
    )

    def view(a, b):
        return Transcript(a.reshape(trials, -1)[:, :n], b.reshape(trials, -1)[:, :n])

    return finish_report(
        "scheme2", p, view(res.alice_a, res.alice_b), view(res.bob_a, res.bob_b), ledger
    )

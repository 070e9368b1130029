"""Simulation scheme with equal blocks and a block-end predictor.

The rounds are cut into n/m consecutive blocks of m.  Within one block, look
at the latest stuck function on each side: everything after it is additive,
so the block's final B bit collapses to a closed form, a handful of XORs of
known offsets plus one parity only the other side knows.  Three short coded
rounds per block (Bob's last-stuck index, Alice's last-stuck index, one
parity bit) therefore let Alice predict every block's closing B bit before
any block content is exchanged.  Those predictions make the blocks
independent rows, and the content itself then runs as a vertical column
exchange.

Each block maps its entering B bit to its closing one as a constant (a stuck
function on either side) or as an XOR with a known offset, so the block ends
are the binary pointer-jumping chain over blocks, which one
``_kernels.markov_chain`` call evaluates.  summarize_block_*, parity_bob and
predict_last are the per-block reference of predictor_exchange's array code.

Message sizes depend only on (n, m, code), so a batch of protocols of one
length runs as one: every array below may carry a leading trial axis.

Budget: with field width w = ceil(log2(m+1)) the predictor spends
(n/m)(2w+1) info bits.  The parity round absorbs Bob's stuck value: he sends
p_b XOR v_b when the deciding stuck is his, plain p_b when it is Alice's, so
v_b never needs its own bit.
"""

from __future__ import annotations

import enum

import numpy as np

from . import _kernels
from .bits import bits_to_ints, delayed, ints_to_bits, xor_reduce
from .channel import ChannelPair, Direction, UsageLedger
from .coding import CodeSpec
from .protocol import Protocol, Transcript
from .report import SimulationReport
from .scheme_random import _pad_fns, ceil_isqrt
from .vertical import finish_report, new_ledger, run_vertical_exchange, send


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


def _last_stuck(rows: np.ndarray) -> np.ndarray:
    """1-based index of the last stuck function in each row, 0 if none."""
    rev = rows[..., ::-1] >= 3
    return np.where(rev.any(axis=-1), rows.shape[-1] - rev.argmax(axis=-1), 0)


def _suffix_xor(rows: np.ndarray) -> np.ndarray:
    """(..., blocks, m+1) array whose column j is the XOR of the additive
    offsets of rounds j+1..m of each row; stuck rounds contribute 0."""
    off = np.where(rows <= 2, rows - 1, 0).astype(np.uint8)
    suf = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,), np.uint8)
    suf[..., :-1] = np.bitwise_xor.accumulate(off[..., ::-1], axis=-1)[..., ::-1]
    return suf


def _at(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """rows[..., r, index[..., r]]: one entry of each row."""
    return np.take_along_axis(rows, index[..., None], axis=-1)[..., 0]


def predictor_exchange(
    p: Protocol, m: int, code: CodeSpec, ch: ChannelPair, ledger: UsageLedger
) -> np.ndarray:
    """Run the three predictor rounds for all n/m blocks of ``p`` at once.

    Returns Alice's predicted closing B bit of every block (per row of a
    batched ``p``).  Requires m to divide the protocol length.  Decoded
    values are used as received; corrupt fields shift predictions and
    surface later as transcript mismatch.
    """
    n = p.n
    if n % m:
        raise ValueError("block length must divide the protocol length")
    width = m.bit_length()
    f_rows = p.f.reshape(p.f.shape[:-1] + (n // m, m))
    g_rows = p.g.reshape(f_rows.shape)

    s_bob = _last_stuck(g_rows)
    v_bob = np.where(s_bob > 0, _at(g_rows, s_bob - 1) - 3, 0).astype(np.uint8)
    round1 = ints_to_bits(s_bob, width)
    got = send(ch, code, ledger, round1, Direction.B_TO_A, "predictor_s_bob")
    s_bob_hat = bits_to_ints(got, width)

    s_alice = _last_stuck(f_rows)
    round2 = ints_to_bits(s_alice, width)
    got = send(ch, code, ledger, round2, Direction.A_TO_B, "predictor_s_alice")
    s_alice_hat = bits_to_ints(got, width)

    # decoded indices past m leave an empty, clipped parity range
    g_suf = _suffix_xor(g_rows)
    parity_at_alice = _at(g_suf, np.clip(s_alice_hat - 1, 0, m))
    sigma = np.where(s_alice_hat > s_bob, parity_at_alice, v_bob ^ _at(g_suf, s_bob))
    sigma_hat = send(ch, code, ledger, sigma, Direction.B_TO_A, "predictor_parity")

    # each block's map: stuck at `const` if either side is stuck in it, else
    # XOR with `offset` (sigma carries v_b where needed); chained, g = identity
    f_suf = _suffix_xor(f_rows)
    alice_last = _at(f_rows, s_alice - 1) - 3  # read only where s_alice > 0
    const = np.where(
        s_alice > s_bob_hat,
        alice_last ^ _at(f_suf, s_alice),
        _at(f_suf, np.minimum(s_bob_hat, m)),
    ) ^ sigma_hat
    offset = f_suf[..., 0] ^ sigma_hat
    codes = np.where(np.maximum(s_alice, s_bob_hat) > 0, 3 + const, 1 + offset)
    _, ends = _kernels.markov_chain(codes, np.ones_like(codes), 0)
    return ends


def run_scheme2(
    p: Protocol, ch: ChannelPair, code: CodeSpec, m: int | None = None
) -> SimulationReport | list[SimulationReport]:
    """Simulate ``p`` over ``ch`` with the equal-block predictor scheme.

    m defaults to ceil(sqrt(n)); the protocol is padded with stuck rounds to
    a multiple of m and the padding is stripped from the reported views.
    A batched ``p`` gives one report per row.
    """
    if p.f.ndim == 1:
        return run_scheme2(Protocol(p.f[None], p.g[None]), ch, code, m)[0]
    n = p.n
    if m is None:
        m = ceil_isqrt(n)
    if m < 1:
        raise ValueError("block length must be positive")
    n_pad = m * (-(-n // m))
    padded = Protocol(_pad_fns(p.f, n_pad), _pad_fns(p.g, n_pad))
    trials = len(p.f)

    ledger = new_ledger(trials)
    ends = predictor_exchange(padded, m, code, ch, ledger)
    rows = (trials, n_pad // m, m)
    res = run_vertical_exchange(
        padded.f.reshape(rows), padded.g.reshape(rows), delayed(ends), code, ch, ledger
    )

    def view(a, b):
        return Transcript(a.reshape(trials, -1)[:, :n], b.reshape(trials, -1)[:, :n])

    return finish_report(
        "scheme2", p, view(res.alice_a, res.alice_b), view(res.bob_a, res.bob_b), ledger
    )

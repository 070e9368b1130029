"""Column-wise coded exchange of independent protocol rows.

A region of the protocol is laid out as a matrix: each row is a stretch of
consecutive rounds that can be evaluated independently of the other rows
(because each row after the first starts at a stuck function, or its starting
input is known).  Columns are then exchanged alternately: Alice codes and
sends column t of her A bits, Bob decodes it, computes his B column, codes it
back.  Each column is one coded block over all rows, which is where the
error-exponent gain over bit-by-bit coding comes from.  The columns do not
cross one by one: one message of zero words per direction shows what the
channel does to every column, and one chain per row then gives the views.

Also home to ``send``, the one path every coded message of every scheme
takes; the transmission-function descriptions (the 2-bit encoding of
arbitrary functions and the 1-bit encoding of additive ones); the offline
chain evaluator; and the non-interactive baseline scheme built from them.

Everything here takes an optional leading trial axis.  A batch of T trials
runs as one: each message is a ``(T, L)`` array that crosses the channel in
one ``send``, row t coded with trial t's code and hit by trial t's noise.
The last message in each direction may be ragged, one length per row, sent
padded to the longest.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .bits import delayed
from .channel import ChannelPair, DecodeEvent, Direction, UsageLedger
from .coding import (CodeSpec, coded_length, decode_payload, decode_with_ties, encode_payload,
                     payload_blocks, redecode_tied)
from .protocol import Protocol, Transcript, eval_fn_array, lone_or_batch
from .report import SimulationReport


class FnDescMode(enum.Enum):
    TWO_BIT = "two_bit"
    ONE_BIT_ADDITIVE = "one_bit_additive"


def describe_functions(fns, mode: FnDescMode) -> np.ndarray:
    """Binary description of a function sequence.

    TWO_BIT spends two bits per function (00, 01, 10, 11 for the four codes
    in order), high bit first: each function's pair is packed as one
    little-endian uint16 and viewed as its two bytes.
    ONE_BIT_ADDITIVE spends one bit, the XOR offset, and rejects every code
    but the additive 1 and 2.
    """
    fns = np.asarray(fns, dtype=np.uint8)
    if mode is FnDescMode.TWO_BIT:
        codes = (fns - 1).astype(np.uint16)
        if (codes > 3).any():
            raise ValueError("function codes must lie in 1..4")
        return ((codes >> 1) | (codes & 1) << 8).astype("<u2", copy=False).view(np.uint8)
    offsets = fns - 1  # uint8: code 0 wraps to 255
    if np.any(offsets > 1):
        raise ValueError("one-bit descriptions exist only for additive functions, codes 1..2")
    return offsets


def functions_from_bits(bits, mode: FnDescMode) -> np.ndarray:
    """Inverse of describe_functions; total on any bit pattern."""
    bits = np.asarray(bits, dtype=np.uint8)
    if mode is FnDescMode.TWO_BIT:
        v = bits.view("<u2")  # each function's pair, high bit in the low byte
        return (((v & 1) << 1 | v >> 8) + 1).astype(np.uint8)
    return (bits + 1).astype(np.uint8)


def offline_simulate(f, g, b0: int) -> Transcript:
    """Evaluate a chain segment locally (no channel) from input bit b0."""
    a, b = _kernels.markov_chain(f, g, b0)
    return Transcript(a, b)


def new_ledger(trials: int) -> UsageLedger:
    """An empty ledger for a batch, with one row per trial."""
    return UsageLedger(np.zeros(trials, np.int64), np.zeros(trials, np.int64),
                       defaultdict(lambda: np.zeros(trials, np.int64)),
                       [[] for _ in range(trials)])


def send(
    ch: ChannelPair,
    code: CodeSpec,
    ledger: UsageLedger,
    payload: np.ndarray,
    direction: Direction,
    stage: str,
    lengths: Optional[np.ndarray] = None,
    decode: bool = True,
) -> np.ndarray:
    """Carry one message: encode, transmit, decode at the far end.

    payload is one message with a lone ledger, or a ``(T, L)`` batch with one
    row per trial and a ledger from new_ledger.  The channel charges each
    row's uses; its blocks are counted, and if some row's decode differs
    from its payload, _book logs one DecodeEvent(stage, 1, direction) for
    every such row: every message of a stage is sent once.
    Returns what the receiver decoded; wrong bits are not fixed.

    lengths, one per row, makes the message ragged: row t is its first
    lengths[t] bits, zero-padded to L.  Noise is keyed by position and a
    ragged send is the last in its direction, so each row crosses exactly as
    it would alone, and the zeros pad its last partial block as
    encode_payload pads it.  Each row is charged its own uses and blocks,
    and only a miss inside its length is logged.

    With decode=False the payload must be zeros, which every (linear) code
    maps to zero words, sent without encoding.  Only the uses are booked,
    and the received words come back undecoded for the caller to decode,
    count and log (run_vertical_exchange).
    """
    uses = inside = None
    if lengths is not None:
        inside = np.arange(payload.shape[-1]) < np.asarray(lengths)[..., None]
        payload = payload * inside
        uses = coded_length(code, lengths)
    words = (encode_payload(code, payload) if decode else
             np.zeros(payload.shape[:-1] + (coded_length(code, payload.shape[-1]),), np.uint8))
    sent = ch.transmit(direction, words, ledger, uses)
    if not decode:
        return sent
    got = decode_payload(code, sent, payload.shape[-1])
    wrong = got != payload
    if inside is not None:
        wrong &= inside
    _count_blocks(ledger, code, payload.shape[-1] if lengths is None else np.asarray(lengths))
    if (missed := wrong.any(-1)).any():
        _book(ledger, [(DecodeEvent(stage, 1, direction), missed)])
    return got


@dataclass
class VerticalResult:
    """Each party's belief about the region, as (..., rows, width) A and B
    bits."""

    alice_a: np.ndarray
    alice_b: np.ndarray
    bob_a: np.ndarray
    bob_b: np.ndarray
    bob_tail: Optional[np.ndarray] = None


def _count_blocks(ledger: UsageLedger, code: CodeSpec, lengths, times: int = 1) -> None:
    """Add ``times`` messages of lengths bits to the ledger's block counts,
    one update per block size.  lengths is one length, or one per row of a
    ragged message, whose identity or repetition rows each make one block of
    their own size."""
    size, count = payload_blocks(code, lengths)
    for s in set(np.ravel(size).tolist()):
        blocks = count * (size == s) * times
        if np.any(blocks):
            ledger.block_counts[s] += blocks


def _book(ledger: UsageLedger, misses) -> None:
    """Append each (DecodeEvent, missed) of misses, in order, to the log of
    every row the row mask missed selects: one event per missed message or
    column, shared by the rows that missed it.  A lone ledger is row 0; this
    is the one place that tells a lone ledger from a batch's."""
    logs = [ledger.decode_log] if np.ndim(ledger.uses_ab) == 0 else ledger.decode_log
    for event, missed in misses:
        for t in missed.ravel().nonzero()[0].tolist():
            logs[t].append(event)


def run_vertical_exchange(
    f_rows: np.ndarray,
    g_rows: np.ndarray,
    start_bits: np.ndarray,
    code: CodeSpec,
    ch: ChannelPair,
    ledger: UsageLedger,
    alice_tail: Optional[np.ndarray] = None,
    tail_lengths: Optional[np.ndarray] = None,
) -> VerticalResult:
    """Interactively evaluate all rows, one coded column at a time.

    f_rows, g_rows: (rows, width) function codes, or (T, rows, width) for a
    batch.  start_bits: the input bit of each row's first Alice function;
    rows that begin at a stuck function ignore it.  Column t of A bits is
    computed from the previously decoded B column (start_bits for t = 1),
    coded, transmitted; Bob answers with his B column the same way.  Decode
    failures are logged and the wrong bits propagate; nothing aborts.

    alice_tail, if given, rides along as extra payload inside Alice's final
    column block; Bob's decode of it is returned as bob_tail.  With
    tail_lengths, each row's tail is its first tail_lengths[row] bits and
    the final column is sent ragged (see send).

    Noise is keyed by position, so each direction sends all its columns, each
    padded to whole blocks, as zero words in one send; the ledger ends as
    column-by-column sends leave it.  So with C = coded_length, each
    direction's one send costs exactly the sum of its columns, the identity
    the schemes' draw_ahead spans count on: (width - 1) * C(rows) +
    C(rows + tail) uses from Alice, each trial with its own tail, and
    width * C(rows) from Bob.  Over a BSC a linear code decodes as
    decode(encode(x) ^ e) = x ^ decode(e), so the flips e of every column
    enter the codes as c' = ((c - 1) ^ e) + 1, and one chain per row gives
    Bob's A and Alice's B bits, each other view one XOR away.  ML ties, which
    go to the lowest info word, break that identity where a sub-block ties,
    and ties are translation invariant: so for a random linear code only the
    sub-blocks that tied in the first decode are decoded again, as the
    columns would have carried them from the chain's x, until the flips stop
    changing.  Each pass makes each row's earliest wrong column exact: at
    most 2 * width passes, and one chain when nothing ties.
    """
    f_rows = np.asarray(f_rows, dtype=np.uint8)
    g_rows = np.asarray(g_rows, dtype=np.uint8)
    start_bits = np.asarray(start_bits, dtype=np.uint8)
    if f_rows.ndim < 2 or g_rows.shape != f_rows.shape or 0 in f_rows.shape:
        raise ValueError("function matrices must share one non-empty (rows, width) shape")
    rows, width = f_rows.shape[-2:]
    if start_bits.shape != f_rows.shape[:-1]:
        raise ValueError("start_bits must hold one bit per row")

    lead = f_rows.shape[:-2]
    tail = np.asarray(np.zeros(lead + (0,)) if alice_tail is None else alice_tail, np.uint8)
    sizes = np.broadcast_to(tail.shape[-1] if tail_lengths is None else tail_lengths, lead)
    inside = np.arange(tail.shape[-1]) < sizes[..., None]
    tail = tail * inside
    # a column padded to whole blocks takes step bits; Alice's tail starts at
    # bit at, after her last column, and both messages pad to whole blocks
    step = math.prod(payload_blocks(code, rows))
    at = (width - 1) * step + rows
    a_len, b_len = math.prod(payload_blocks(code, at + tail.shape[-1])), width * step
    got_a = send(ch, code, ledger, np.zeros(lead + (at + tail.shape[-1],), np.uint8),
                 Direction.A_TO_B, "vertical_a",
                 lengths=None if tail_lengths is None else at + sizes, decode=False)
    got_b = send(ch, code, ledger, np.zeros(lead + (b_len,), np.uint8), Direction.B_TO_A,
                 "vertical_b", decode=False)

    def columns(words):  # (..., rows, width) view of the columns laid out in words
        return words[..., : width * step].reshape(lead + (width, step))[..., :rows].mT

    (flips_a, tied_a), (flips_b, tied_b) = (decode_with_ties(code, got_a, a_len),
                                            decode_with_ties(code, got_b, b_len))
    while True:
        fa, fb = columns(flips_a), columns(flips_b)
        bob_a, alice_b = _kernels.markov_chain(
            ((f_rows - 1) ^ fa) + 1, ((g_rows - 1) ^ fb) + 1, start_bits
        )
        if tied_a is None or not (tied_a.any() or tied_b.any()):
            break
        # decode the tied sub-blocks again as the columns would have sent them
        x_a, x_b = np.zeros(lead + (a_len,), np.uint8), np.zeros(lead + (b_len,), np.uint8)
        columns(x_a)[...], columns(x_b)[...] = bob_a ^ fa, alice_b ^ fb
        x_a[..., at : at + tail.shape[-1]] = tail
        new_a = redecode_tied(code, got_a, x_a, flips_a, tied_a)
        new_b = redecode_tied(code, got_b, x_b, flips_b, tied_b)
        if np.array_equal(new_a, flips_a) and np.array_equal(new_b, flips_b):
            break
        flips_a, flips_b = new_a, new_b

    flips_tail = flips_a[..., at : at + tail.shape[-1]]
    wrong = np.zeros(lead + (width, 2), bool)
    if flips_a.any() or flips_b.any():  # the per-column reductions cost more
        wrong[..., 0], wrong[..., 1] = fa.any(-2), fb.any(-2)
        wrong[..., -1, 0] |= (flips_tail & inside).any(-1)
    # each column is coded on its own, and Alice's last carries the tail
    _count_blocks(ledger, code, rows, 2 * width - 1)
    _count_blocks(ledger, code, rows + (tail.shape[-1] if tail_lengths is None else sizes))
    # one event per missed (column, direction), as column-by-column sends log them
    _book(ledger, [(DecodeEvent(("vertical_a", "vertical_b")[d], c + 1, Direction(d)),
                    wrong[..., c, d])
                   for c, d in np.argwhere(wrong.reshape(-1, width, 2).any(0)).tolist()])
    bob_tail = None if alice_tail is None else tail ^ flips_tail
    return VerticalResult(bob_a ^ fa, alice_b, bob_a, alice_b ^ fb, bob_tail)


def finish_report(
    scheme: str,
    p: Protocol,
    alice_view: Transcript,
    bob_view: Transcript,
    ledger: UsageLedger,
) -> SimulationReport:
    """Check both views of a batch round by round, A_i = f_i(B_{i-1}) from
    B_0 = 0 and B_i = g_i(A_i), and wrap up the batch's one SimulationReport,
    with ``(T,)`` ok flags.  A view passes every round exactly when it is
    the noiseless reference (by induction; eval_fn_array gives only 0, 1)."""
    alice_ok, bob_ok = (((v.a == eval_fn_array(p.f, delayed(v.b)))
                         & (v.b == eval_fn_array(p.g, v.a))).all(-1)
                        for v in (alice_view, bob_view))
    return SimulationReport(scheme, p.n, alice_view, bob_view, alice_ok, bob_ok, ledger)


@lone_or_batch
def run_baseline(p: Protocol, ch: ChannelPair, code: CodeSpec) -> SimulationReport:
    """Non-interactive simulation: Alice ships all her functions, Bob runs
    the whole chain alone and ships back his half of the transcript.

    Costs 2n + n coded info bits, hence rate 2/3 with the identity code.
    A batched ``p`` gives one batch report.
    """
    ledger = new_ledger(len(p.f))
    desc = describe_functions(p.f, FnDescMode.TWO_BIT)
    got = send(ch, code, ledger, desc, Direction.A_TO_B, "descriptions")
    f_hat = functions_from_bits(got, FnDescMode.TWO_BIT)

    bob_view = offline_simulate(f_hat, p.g, 0)
    b_hat = send(ch, code, ledger, bob_view.b, Direction.B_TO_A, "transcript_b")

    alice_view = Transcript(eval_fn_array(p.f, delayed(b_hat)), b_hat)
    return finish_report("baseline", p, alice_view, bob_view, ledger)

"""Column-wise coded exchange of independent protocol rows.

A region of the protocol is laid out as a matrix: each row is a stretch of
consecutive rounds that can be evaluated independently of the other rows
(because each row after the first starts at a stuck function, or its starting
input is known).  Columns are then exchanged alternately: Alice codes and
sends column t of her A bits, Bob decodes it, computes his B column, codes it
back.  Each column is one coded block over all rows, which is where the
error-exponent gain over bit-by-bit coding comes from.  Under identity and
repetition codes, one message of zero words per direction shows what the
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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .bits import delayed, ints_to_bits
from .channel import ChannelPair, DecodeEvent, Direction, UsageLedger, rate_of
from .coding import (CodeSpec, RandomLinear, coded_length, decode_payload, encode_payload,
                     payload_blocks)
from .protocol import Protocol, Transcript, eval_fn_array, simulate_reference
from .report import SimulationReport


class FnDescMode(enum.Enum):
    TWO_BIT = "two_bit"
    ONE_BIT_ADDITIVE = "one_bit_additive"


def describe_functions(fns, mode: FnDescMode) -> np.ndarray:
    """Binary description of a function sequence.

    TWO_BIT spends two bits per function (00, 01, 10, 11 for the four codes
    in order).  ONE_BIT_ADDITIVE spends one bit, the XOR offset, and rejects
    stuck functions.
    """
    fns = np.asarray(fns, dtype=np.uint8)
    if mode is FnDescMode.TWO_BIT:
        return ints_to_bits(fns - 1, 2)
    if np.any(fns >= 3):
        raise ValueError("one-bit descriptions exist only for additive functions")
    return (fns - 1).astype(np.uint8)


def functions_from_bits(bits, mode: FnDescMode) -> np.ndarray:
    """Inverse of describe_functions; total on any bit pattern."""
    bits = np.asarray(bits, dtype=np.uint8)
    if mode is FnDescMode.TWO_BIT:
        return ((bits[..., 0::2] << 1) | bits[..., 1::2]) + 1
    return (bits + 1).astype(np.uint8)


def offline_simulate(f, g, b0: int) -> Transcript:
    """Evaluate a chain segment locally (no channel) from input bit b0."""
    a, b = _kernels.markov_chain(f, g, b0)
    return Transcript(a, b)


def new_ledger(trials: int) -> UsageLedger:
    """An empty ledger for a batch, with one row per trial."""
    return UsageLedger(np.zeros(trials, np.int64), np.zeros(trials, np.int64),
                       [[] for _ in range(trials)], [[] for _ in range(trials)])


def send(
    ch: ChannelPair,
    code: CodeSpec,
    ledger: UsageLedger,
    payload: np.ndarray,
    direction: Direction,
    stage: str,
    index: int = 1,
    lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Carry one message, or several end to end: encode, transmit, decode at
    the far end.

    payload is one message, or a ``(T, L)`` batch with one row per trial and
    a ledger from new_ledger.  An axis before L, ``(W, L)`` alone or ``(T, W,
    L)`` in a batch, holds W messages per row, numbered index, index + 1, ...,
    that cross in one transmit; it needs a code that codes bit by bit.  The
    ledger records each row's channel uses and coded blocks, and a
    DecodeEvent(stage, index + w, direction) for each row and message whose
    decode differs from its payload.  Returns what the receiver decoded;
    wrong bits are not fixed.

    lengths, one per row and message, makes the messages ragged: message w
    of row t is its first lengths[t, w] bits, and row t's messages cross
    packed end to end, zero-padded to the longest row and to L.  Noise is
    keyed by position and a ragged send is the last in its direction, so
    each row crosses exactly as it would alone, and the zeros pad its last
    partial block as encode_payload pads it.  Each row is charged its own
    uses and blocks, and only a miss inside its messages is logged.
    """
    lone = np.ndim(ledger.uses_ab) == 0
    length = payload.shape[-1]
    count = payload.shape[-2] if payload.ndim == 3 - lone else 1
    if count > 1 and isinstance(code, RandomLinear):
        raise ValueError("several messages in one send need a code that codes bit by bit")
    msgs = payload.reshape(1 if lone else len(payload), count, length)
    profiles = [ledger.block_profile] if lone else ledger.block_profile
    uses = None
    if lengths is None:
        blocks = payload_blocks(code, length) * count
        for row in profiles:
            row += blocks
        wire = msgs.reshape(len(msgs), -1)
    else:
        sizes = np.reshape(lengths, msgs.shape[:2])
        blocks = {s: payload_blocks(code, s) for s in set(sizes.ravel().tolist())}
        for row, size in zip(profiles, sizes.tolist()):
            row += [b for s in size for b in blocks[s]]
        inside = np.arange(length) < sizes[..., None]
        total = sizes.sum(-1)
        packed = np.arange(max(length, total.max())) < total[:, None]
        wire = np.zeros(packed.shape, np.uint8)
        wire[packed] = msgs[inside]
        uses = coded_length(code, int(total[0]) if lone else total)
    sent = ch.transmit(direction, encode_payload(code, wire[0] if lone else wire), ledger, uses)
    got = decode_payload(code, sent, wire.shape[-1]).reshape(len(msgs), -1)
    if lengths is not None and count > 1:  # unpack; one message a row is in place
        got, packed_got = np.zeros(msgs.shape, np.uint8), got
        got[inside] = packed_got[packed]
    wrong = got.reshape(msgs.shape) != msgs
    if lengths is not None:
        wrong &= inside
    if wrong.any():
        logs = [ledger.decode_log] if lone else ledger.decode_log
        for row, w in zip(*np.nonzero(wrong.any(axis=-1))):
            logs[row].append(DecodeEvent(stage, index + int(w), direction))
    return got.reshape(payload.shape)


@dataclass
class VerticalResult:
    """Each party's belief about the region, as (..., rows, width) A and B
    bits."""

    alice_a: np.ndarray
    alice_b: np.ndarray
    bob_a: np.ndarray
    bob_b: np.ndarray
    bob_tail: Optional[np.ndarray] = None


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

    Identity and repetition codes decode bit by bit, decode(encode(x) ^ e) =
    x ^ decode(e), and noise is keyed by position, so the flips e of every
    column are known up front: each direction sends its columns as zero
    words in one send, the flips enter the codes as c' = ((c - 1) ^ e) + 1,
    and one chain per row gives Bob's A and Alice's B bits, each other view
    one XOR away.  The ledger ends as the loop leaves it, which random linear
    codes still run: an ML tie does not decode bit by bit.
    """
    f_rows = np.asarray(f_rows, dtype=np.uint8)
    g_rows = np.asarray(g_rows, dtype=np.uint8)
    start_bits = np.asarray(start_bits, dtype=np.uint8)
    if f_rows.ndim < 2 or g_rows.shape != f_rows.shape or 0 in f_rows.shape:
        raise ValueError("function matrices must share one non-empty (rows, width) shape")
    rows, width = f_rows.shape[-2:]
    if start_bits.shape != f_rows.shape[:-1]:
        raise ValueError("start_bits must hold one bit per row")

    if not isinstance(code, RandomLinear):
        lead = f_rows.shape[:-2]
        tail = np.asarray(np.zeros(lead + (0,)) if alice_tail is None else alice_tail, np.uint8)
        a_words = np.zeros(lead + (width, rows + tail.shape[-1]), np.uint8)
        a_words[..., -1, rows:] = tail
        lengths = None if alice_tail is None else np.full(lead + (width,), rows)
        if alice_tail is not None:
            lengths[..., -1] += tail.shape[-1] if tail_lengths is None else tail_lengths
        logs = ledger.decode_log if lead else [ledger.decode_log]
        marks = [len(log) for log in logs]
        got = send(ch, code, ledger, a_words, Direction.A_TO_B, "vertical_a", 1, lengths)
        b_words = np.zeros(lead + (width, rows), np.uint8)
        flips_b = send(ch, code, ledger, b_words, Direction.B_TO_A, "vertical_b").swapaxes(-1, -2)
        # one block per column and direction; the loop books them by column, A first
        for prof, log, mark in zip(ledger.block_profile if lead else [ledger.block_profile],
                                   logs, marks):
            a_blocks, b_blocks = prof[-2 * width : -width], prof[-width:]
            prof[-2 * width :: 2], prof[1 - 2 * width :: 2] = a_blocks, b_blocks
            log[mark:] = sorted(log[mark:], key=lambda event: event.index)
        flips_a = got[..., :rows].swapaxes(-1, -2)
        bob_a, alice_b = _kernels.markov_chain(
            ((f_rows - 1) ^ flips_a) + 1, ((g_rows - 1) ^ flips_b) + 1, start_bits
        )
        bob_tail = None if alice_tail is None else got[..., -1, rows:]
        return VerticalResult(bob_a ^ flips_a, alice_b, bob_a, alice_b ^ flips_b, bob_tail)

    res = VerticalResult(*(np.empty(f_rows.shape, np.uint8) for _ in range(4)))
    prev_b_alice = start_bits
    for t in range(width):
        a_col = eval_fn_array(f_rows[..., t], prev_b_alice)
        res.alice_a[..., t] = a_col
        payload, lengths = a_col, None
        if alice_tail is not None and t == width - 1:
            payload = np.concatenate([a_col, np.asarray(alice_tail, np.uint8)], -1)
            if tail_lengths is not None:
                lengths = rows + tail_lengths
        got = send(
            ch, code, ledger, payload, Direction.A_TO_B, "vertical_a", t + 1, lengths
        )
        res.bob_a[..., t] = got[..., :rows]
        if alice_tail is not None and t == width - 1:
            res.bob_tail = got[..., rows:]

        b_col = eval_fn_array(g_rows[..., t], res.bob_a[..., t])
        res.bob_b[..., t] = b_col
        res.alice_b[..., t] = send(
            ch, code, ledger, b_col, Direction.B_TO_A, "vertical_b", t + 1
        )
        prev_b_alice = res.alice_b[..., t]

    return res


def finish_report(
    scheme: str,
    p: Protocol,
    alice_view: Transcript,
    bob_view: Transcript,
    ledger: UsageLedger,
) -> list[SimulationReport]:
    """Compare both views of a batch against the noiseless reference and wrap
    up: one SimulationReport per row, each with its own row of the ledger."""
    ref = simulate_reference(p)
    alice_ok = ((alice_view.a == ref.a) & (alice_view.b == ref.b)).all(axis=-1)
    bob_ok = ((bob_view.a == ref.a) & (bob_view.b == ref.b)).all(axis=-1)
    rows = [ledger.row(t) for t in range(len(p.f))]
    return [
        SimulationReport(
            scheme,
            p.n,
            Transcript(alice_view.a[t], alice_view.b[t]),
            Transcript(bob_view.a[t], bob_view.b[t]),
            bool(alice_ok[t]),
            bool(bob_ok[t]),
            row,
            rate_of(row, p.n),
        )
        for t, row in enumerate(rows)
    ]


def run_baseline(
    p: Protocol, ch: ChannelPair, code: CodeSpec
) -> SimulationReport | list[SimulationReport]:
    """Non-interactive simulation: Alice ships all her functions, Bob runs
    the whole chain alone and ships back his half of the transcript.

    Costs 2n + n coded info bits, hence rate 2/3 with the identity code.
    A batched ``p`` gives one report per row.
    """
    if p.f.ndim == 1:
        return run_baseline(Protocol(p.f[None], p.g[None]), ch, code)[0]
    ledger = new_ledger(len(p.f))
    desc = describe_functions(p.f, FnDescMode.TWO_BIT)
    got = send(ch, code, ledger, desc, Direction.A_TO_B, "descriptions")
    f_hat = functions_from_bits(got, FnDescMode.TWO_BIT)

    bob_view = offline_simulate(f_hat, p.g, 0)
    b_hat = send(ch, code, ledger, bob_view.b, Direction.B_TO_A, "transcript_b")

    alice_view = Transcript(eval_fn_array(p.f, delayed(b_hat)), b_hat)
    return finish_report("baseline", p, alice_view, bob_view, ledger)

"""Simulation scheme built on a greedy partition at Alice's stuck functions.

The round range 1..n is cut into blocks: each block after the first begins at
the first index at least ceil(sqrt(n)) past the previous block's start where
Alice's function is stuck.  A block's first ceil(sqrt(n)) rounds form Part A;
the rest is Part B and provably contains no stuck function of Alice's.

Because every block after the first opens at a stuck function, the blocks are
independent rows and Part A can be run as a vertical column exchange.  Part B
is additive for Alice, so one bit per function describes it; Bob then runs
Part B offline seeded by his last Part A column and ships his half back.  When
the partition has too few blocks for vertical coding to pay
(p <= ceil(n**0.25)), the whole protocol is instead simulated
non-interactively from function descriptions: two bits per Part A function,
one per Part B function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import bits_to_ints, delayed, ints_to_bits
from .channel import ChannelPair, Direction
from .coding import CodeSpec
from .protocol import Protocol, Transcript, TransmitFn, eval_fn_array
from .vertical import (
    FnDescMode,
    describe_functions,
    finish_report,
    functions_from_bits,
    new_ledger,
    offline_simulate,
    run_vertical_exchange,
    send,
)


def ceil_isqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _ceil_root4(n: int) -> int:
    r = math.isqrt(math.isqrt(n))
    return r if r ** 4 >= n else r + 1


@dataclass(frozen=True)
class Partition:
    """Block start indices (1-based, strictly increasing, starts[0] = 1) and
    the Part A width ceil(sqrt(n)).  starts is ``(p,)``, or ``(T, p)`` for a
    batch of partitions with one block count."""

    starts: np.ndarray
    part_a_width: int

    @property
    def p(self) -> int:
        return self.starts.shape[-1]


def find_partition(f, n: int | None = None) -> Partition | list[Partition]:
    """Greedy partition of 1..n driven by the stuck positions of ``f``.

    f is one protocol's functions, or a ``(T, n)`` batch, which gives one
    Partition per row.  Every row takes its greedy hops together: nxt maps a
    round to the first stuck round at or after it."""
    f = np.asarray(f, dtype=np.uint8)
    if n is None:
        n = f.shape[-1]
    if n != f.shape[-1] or n < 1:
        raise ValueError("n must equal the number of functions and be positive")
    w = ceil_isqrt(n)
    rows = f.reshape(-1, n)
    nxt = np.full((len(rows), n + w + 2), n + 1, np.int32)
    nxt[:, 1 : n + 1] = np.where(rows >= 3, np.arange(1, n + 1, dtype=np.int32), n + 1)
    nxt = np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1]
    each = np.arange(len(rows))
    hops = [np.ones(len(rows), np.int32)]
    while (hops[-1] <= n).any():  # a row past n has ended and stays there
        hops.append(nxt[each, hops[-1] + w])
    starts = np.stack(hops, axis=1)
    parts = [Partition(row[row <= n].astype(np.int64), w) for row in starts]
    return parts if f.ndim > 1 else parts[0]


def _field_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


def encode_partition(part: Partition, n: int) -> np.ndarray:
    """Fixed-width binary message: the block count, then each start - 1
    (one message per row of a batched partition)."""
    w = _field_width(n)
    if part.p >= (1 << w) or part.starts[..., -1].max() > n:
        raise ValueError("partition does not fit the field width for this n")
    count = np.full(part.starts.shape[:-1] + (1,), part.p)
    return ints_to_bits(np.concatenate([count, part.starts - 1], -1), w)


def decode_partition(bits, n: int) -> Partition:
    """Inverse of encode_partition.  Rejects malformed content (ValueError)."""
    bits = np.asarray(bits, dtype=np.uint8)
    w = _field_width(n)
    if bits.size < w or bits.size % w:
        raise ValueError("partition message has a broken length")
    fields = bits_to_ints(bits, w)
    p = int(fields[0])
    if p < 1 or p != fields.size - 1:
        raise ValueError("partition block count is out of range")
    starts = fields[1:] + 1
    gap = ceil_isqrt(n)
    if starts[0] != 1 or starts.max() > n or np.any(np.diff(starts) < gap):
        raise ValueError("partition starts are out of range or closer than sqrt(n)")
    return Partition(starts.astype(np.int64), gap)


def _bob_partition(bits, n: int, p: int, n_pad: int) -> Partition:
    """Bob's block layout from his decode of the partition message.  He reads
    p and n_pad off the sizes of later messages (p-bit columns and an
    (n_pad - p*w)-bit tail, or p*w + n_pad description bits with n_pad - n <
    w); a decode that is rejected or disagrees falls back to even starts."""
    w = ceil_isqrt(n)
    try:
        part = decode_partition(bits, n)
        if part.p == p and _padded_len(part, n) == n_pad:
            return part
    except ValueError:
        pass
    return Partition(1 + w * np.arange(p), w)


def _runs(lo: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges lo[i], lo[i] + 1, ..., lo[i] + lengths[i] - 1."""
    shift = np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
    return np.arange(shift.size, dtype=np.int64) + shift


def split_parts(part: Partition, n: int):
    """1-based index arrays (part_a, part_b), one row each per row of a
    batched partition; blocks shorter than the Part A width contribute all
    their indices to Part A.  In a batch every row's Part A must be equally
    long, as it is when no block is short."""
    starts = part.starts
    ends = np.full(starts.shape[:-1] + (1,), n + 1)
    lengths = np.diff(starts, axis=-1, append=ends)
    a_len = np.minimum(lengths, part.part_a_width)
    lead = starts.shape[:-1] + (-1,)
    a_idx = _runs(starts.ravel(), a_len.ravel()).reshape(lead)
    return a_idx, _runs((starts + a_len).ravel(), (lengths - a_len).ravel()).reshape(lead)


def _padded_len(part: Partition, n: int):
    """Rounds after padding the last block to full Part A width (per row)."""
    return np.maximum(n, part.starts[..., -1] + part.part_a_width - 1)


def _pad_fns(fns: np.ndarray, n_pad: int) -> np.ndarray:
    """Each row of ``fns`` padded with stuck rounds to n_pad rounds."""
    if fns.shape[-1] == n_pad:
        return fns
    pad = np.full(fns.shape[:-1] + (n_pad - fns.shape[-1],), int(TransmitFn.MU3), np.uint8)
    return np.concatenate([fns, pad], axis=-1)


def run_scheme1(p: Protocol, ch: ChannelPair, code: CodeSpec):
    """Simulate ``p`` over ``ch`` using the stuck-partition scheme.

    The protocol is padded with stuck rounds so the last block reaches full
    Part A width; the padding is simulated and transmitted like everything
    else and stripped from the reported transcripts.  Decode failures are
    logged and their wrong bits propagate, so a misdecoded partition shows
    up as a wrong transcript on Bob's side.

    A batched ``p`` gives one report per row.  Its rows must share one block
    count p, which sets the size of every message but the last in each
    direction; those depend on each row's padded length and are sent ragged.
    """
    if p.f.ndim == 1:
        return run_scheme1(Protocol(p.f[None], p.g[None]), ch, code)[0]
    n = p.n
    w = ceil_isqrt(n)
    ledger = new_ledger(len(p.f))

    parts = find_partition(p.f, n)
    if len({q.p for q in parts}) != 1:
        raise ValueError("the protocols of a batch must share one block count")
    part = Partition(np.stack([q.starts for q in parts]), w)
    n_pad = _padded_len(part, n)
    # every row is laid out over the batch's longest padded length: its last
    # Part B runs on past its own n_pad, into padding that no message carries
    width = int(n_pad.max())
    pf = _pad_fns(p.f, width)
    pg = _pad_fns(p.g, width)

    got = send(ch, code, ledger, encode_partition(part, n), Direction.A_TO_B, "partition")
    part_bob = Partition(
        np.stack([_bob_partition(bits, n, part.p, size).starts for bits, size in zip(got, n_pad)]),
        w,
    )

    a_idx, b_idx = split_parts(part, width)
    a_idx_bob, b_idx_bob = split_parts(part_bob, width)
    row = np.arange(len(n_pad))[:, None]
    b_len = n_pad - part.p * w  # each row's own Part B
    # Alice's Part B functions; past a row's b_len lies stuck padding, which
    # has no one-bit description, so MU1 stands in there (send zeroes it)
    pf_b = np.where(
        np.arange(b_idx.shape[1]) < b_len[:, None], pf[row, b_idx - 1], int(TransmitFn.MU1)
    )

    f_bob = np.empty(pf.shape, np.uint8)  # Bob's estimate of Alice's functions
    alice_b = np.empty(pf.shape, np.uint8)

    if part.p > _ceil_root4(n):
        # vertical Part A, appended one-bit descriptions for Part B
        res = run_vertical_exchange(
            pf[row, a_idx - 1].reshape(-1, part.p, w),
            pg[row, a_idx_bob - 1].reshape(-1, part.p, w),
            np.zeros((len(row), part.p), np.uint8),
            code,
            ch,
            ledger,
            alice_tail=describe_functions(pf_b, FnDescMode.ONE_BIT_ADDITIVE),
            tail_lengths=b_len,
        )
        # stuck codes replay the Part A bits Bob decoded, so his one chain
        # below enters each Part B stretch from his last vertical column
        f_bob[row, a_idx_bob - 1] = int(TransmitFn.MU3) + res.bob_a.reshape(len(row), -1)
        f_bob[row, b_idx_bob - 1] = functions_from_bits(
            res.bob_tail, FnDescMode.ONE_BIT_ADDITIVE
        )
        alice_b[row, a_idx - 1] = res.alice_b.reshape(len(row), -1)
        reply_bob, reply_alice, reply_len, stage = b_idx_bob - 1, b_idx - 1, b_len, "part_b"
    else:
        # too few blocks: ship all function descriptions and simulate offline
        desc = np.concatenate(
            [
                describe_functions(pf[row, a_idx - 1], FnDescMode.TWO_BIT),
                describe_functions(pf_b, FnDescMode.ONE_BIT_ADDITIVE),
            ],
            -1,
        )
        a_bits = 2 * a_idx.shape[1]
        got = send(
            ch, code, ledger, desc, Direction.A_TO_B, "descriptions", lengths=a_bits + b_len
        )
        f_bob[row, a_idx_bob - 1] = functions_from_bits(got[:, :a_bits], FnDescMode.TWO_BIT)
        f_bob[row, b_idx_bob - 1] = functions_from_bits(
            got[:, a_bits:], FnDescMode.ONE_BIT_ADDITIVE
        )
        reply_bob = reply_alice = np.arange(width)
        reply_len, stage = n_pad, "transcript_b"

    bob = offline_simulate(f_bob, pg, 0)
    alice_b[row, reply_alice] = send(
        ch, code, ledger, bob.b[row, reply_bob], Direction.B_TO_A, stage, lengths=reply_len
    )
    alice_a = eval_fn_array(pf, delayed(alice_b))

    return finish_report(
        "scheme1",
        p,
        Transcript(alice_a[:, :n], alice_b[:, :n]),
        Transcript(bob.a[:, :n], bob.b[:, :n]),
        ledger,
    )

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
from .channel import ChannelPair, Direction, UsageLedger
from .coding import CodeSpec
from .protocol import Protocol, Transcript, TransmitFn, eval_fn_array
from .vertical import (
    FnDescMode,
    describe_functions,
    finish_report,
    functions_from_bits,
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
    the Part A width ceil(sqrt(n))."""

    starts: np.ndarray
    part_a_width: int

    @property
    def p(self) -> int:
        return self.starts.size


def find_partition(f, n: int | None = None) -> Partition:
    """Greedy partition of 1..n driven by the stuck positions of ``f``."""
    f = np.asarray(f, dtype=np.uint8)
    if n is None:
        n = f.size
    if n != f.size or n < 1:
        raise ValueError("n must equal the number of functions and be positive")
    w = ceil_isqrt(n)
    stuck = np.flatnonzero(f >= 3) + 1
    starts = [1]
    while True:
        i = np.searchsorted(stuck, starts[-1] + w)
        if i == stuck.size:
            break
        starts.append(int(stuck[i]))
    return Partition(np.array(starts, np.int64), w)


def _field_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


def encode_partition(part: Partition, n: int) -> np.ndarray:
    """Fixed-width binary message: the block count, then each start - 1."""
    w = _field_width(n)
    if part.p >= (1 << w) or part.starts[-1] > n:
        raise ValueError("partition does not fit the field width for this n")
    return np.concatenate(
        [ints_to_bits([part.p], w), ints_to_bits(part.starts - 1, w)]
    )


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
    """1-based index arrays (part_a, part_b); blocks shorter than the Part A
    width contribute all their indices to Part A."""
    lengths = np.diff(part.starts, append=n + 1)
    a_len = np.minimum(lengths, part.part_a_width)
    return _runs(part.starts, a_len), _runs(part.starts + a_len, lengths - a_len)


def _padded_len(part: Partition, n: int) -> int:
    return max(n, int(part.starts[-1]) + part.part_a_width - 1)


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
    """
    n = p.n
    w = ceil_isqrt(n)
    ledger = UsageLedger()

    part = find_partition(p.f, n)
    n_pad = _padded_len(part, n)
    pf = _pad_fns(p.f, n_pad)
    pg = _pad_fns(p.g, n_pad)

    enc = encode_partition(part, n)
    got = send(ch, code, ledger, enc, Direction.A_TO_B, "partition")
    part_bob = _bob_partition(got, n, part.p, n_pad)

    a_idx, b_idx = split_parts(part, n_pad)
    a_idx_bob, b_idx_bob = split_parts(part_bob, n_pad)

    f_bob = np.empty(n_pad, np.uint8)  # Bob's estimate of Alice's functions
    alice_b = np.empty(n_pad, np.uint8)

    if part.p > _ceil_root4(n):
        # vertical Part A, appended one-bit descriptions for Part B
        tail = describe_functions(pf[b_idx - 1], FnDescMode.ONE_BIT_ADDITIVE)
        res = run_vertical_exchange(
            pf[a_idx - 1].reshape(part.p, w),
            pg[a_idx_bob - 1].reshape(part.p, w),
            np.zeros(part.p, np.uint8),
            code,
            ch,
            ledger,
            alice_tail=tail,
        )
        # stuck codes replay the Part A bits Bob decoded, so his one chain
        # below enters each Part B stretch from his last vertical column
        f_bob[a_idx_bob - 1] = int(TransmitFn.MU3) + res.bob_a.ravel()
        f_bob[b_idx_bob - 1] = functions_from_bits(
            res.bob_tail, FnDescMode.ONE_BIT_ADDITIVE
        )
        alice_b[a_idx - 1] = res.alice_b.ravel()
        reply_bob, reply_alice, stage = b_idx_bob - 1, b_idx - 1, "part_b"
    else:
        # too few blocks: ship all function descriptions and simulate offline
        desc = np.concatenate(
            [
                describe_functions(pf[a_idx - 1], FnDescMode.TWO_BIT),
                describe_functions(pf[b_idx - 1], FnDescMode.ONE_BIT_ADDITIVE),
            ]
        )
        got = send(ch, code, ledger, desc, Direction.A_TO_B, "descriptions")
        f_bob[a_idx_bob - 1] = functions_from_bits(
            got[: 2 * a_idx_bob.size], FnDescMode.TWO_BIT
        )
        f_bob[b_idx_bob - 1] = functions_from_bits(
            got[2 * a_idx_bob.size :], FnDescMode.ONE_BIT_ADDITIVE
        )
        reply_bob, reply_alice, stage = slice(None), slice(None), "transcript_b"

    bob = offline_simulate(f_bob, pg, 0)
    alice_b[reply_alice] = send(
        ch, code, ledger, bob.b[reply_bob], Direction.B_TO_A, stage
    )
    alice_a = eval_fn_array(pf, delayed(alice_b))

    return finish_report(
        "scheme1",
        p,
        Transcript(alice_a[:n], alice_b[:n]),
        Transcript(bob.a[:n], bob.b[:n]),
        ledger,
    )

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

from .bits import bits_to_ints, ints_to_bits
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

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=np.int64).copy()
        starts.flags.writeable = False
        object.__setattr__(self, "starts", starts)

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
    if starts[0] != 1 or starts.max() > n or np.any(np.diff(starts) <= 0):
        raise ValueError("partition starts are out of range")
    return Partition(starts.astype(np.int64), ceil_isqrt(n))


def split_parts(part: Partition, n: int):
    """1-based index arrays (part_a, part_b); blocks shorter than the Part A
    width contribute all their indices to Part A."""
    w = part.part_a_width
    ends = np.append(part.starts[1:], n + 1)
    a_idx = []
    b_idx = []
    for s, e in zip(part.starts, ends):
        cut = min(s + w, e)
        a_idx.append(np.arange(s, cut, dtype=np.int64))
        b_idx.append(np.arange(cut, e, dtype=np.int64))
    return np.concatenate(a_idx), np.concatenate(b_idx)


def _padded_len(part: Partition, n: int) -> int:
    return max(n, int(part.starts[-1]) + part.part_a_width - 1)


def _pad_fns(fns: np.ndarray, n_pad: int) -> np.ndarray:
    if fns.size == n_pad:
        return fns
    pad = np.full(n_pad - fns.size, int(TransmitFn.MU3), np.uint8)
    return np.concatenate([fns, pad])


def _rows_of(fns: np.ndarray, part: Partition, w: int) -> np.ndarray:
    out = np.empty((part.p, w), np.uint8)
    for r, s in enumerate(part.starts):
        out[r] = fns[s - 1 : s - 1 + w]
    return out


def run_scheme1(p: Protocol, ch: ChannelPair, code: CodeSpec):
    """Simulate ``p`` over ``ch`` using the stuck-partition scheme.

    The protocol is padded with stuck rounds so the last block reaches full
    Part A width; the padding is simulated and transmitted like everything
    else and stripped from the reported transcripts.  Decode failures are
    logged and their wrong bits propagate; a partition-control decode whose
    shape disagrees with the wire layout forces the run to report failure.
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
    aligned = True
    if not np.array_equal(got, enc):
        try:
            part_bob = decode_partition(got, n)
        except ValueError:
            part_bob = None
        aligned = (
            part_bob is not None
            and part_bob.p == part.p
            and _padded_len(part_bob, n) == n_pad
        )
        if not aligned:
            part_bob = part
    else:
        part_bob = part

    a_idx, b_idx = split_parts(part, n_pad)
    a_idx_bob, b_idx_bob = split_parts(part_bob, n_pad)

    alice_a = np.empty(n_pad, np.uint8)
    alice_b = np.empty(n_pad, np.uint8)
    bob_a = np.empty(n_pad, np.uint8)
    bob_b = np.empty(n_pad, np.uint8)

    if part.p > _ceil_root4(n):
        # vertical Part A, appended one-bit descriptions for Part B
        tail = describe_functions(pf[b_idx - 1], FnDescMode.ONE_BIT_ADDITIVE)
        res = run_vertical_exchange(
            _rows_of(pf, part, w),
            _rows_of(pg, part_bob, w),
            np.zeros(part.p, np.uint8),
            code,
            ch,
            ledger,
            alice_tail=tail,
        )

        # Bob: run every Part B stretch offline from his final vertical column
        f_tail_bob = functions_from_bits(res.bob_tail, FnDescMode.ONE_BIT_ADDITIVE)
        bob_ends = np.append(part_bob.starts[1:], n_pad + 1)
        bob_pb_a = np.empty(b_idx_bob.size, np.uint8)
        bob_pb_b = np.empty(b_idx_bob.size, np.uint8)
        done = 0
        for r, (s, e) in enumerate(zip(part_bob.starts, bob_ends)):
            seg = np.arange(s + w, e)
            if seg.size == 0:
                continue
            tr = offline_simulate(
                f_tail_bob[done : done + seg.size],
                pg[seg - 1],
                int(res.bob_b[r, w - 1]),
            )
            bob_pb_a[done : done + seg.size] = tr.a
            bob_pb_b[done : done + seg.size] = tr.b
            done += seg.size

        got = send(ch, code, ledger, bob_pb_b, Direction.B_TO_A, "part_b")

        # Alice: rebuild her Part B view from her own functions and the reply
        alice_pb_a = np.empty(b_idx.size, np.uint8)
        ends = np.append(part.starts[1:], n_pad + 1)
        done = 0
        for r, (s, e) in enumerate(zip(part.starts, ends)):
            seg = np.arange(s + w, e)
            if seg.size == 0:
                continue
            chunk = got[done : done + seg.size]
            prev = np.concatenate(
                [[res.alice_b[r, w - 1]], chunk[:-1]]
            )
            alice_pb_a[done : done + seg.size] = eval_fn_array(pf[seg - 1], prev)
            done += seg.size

        for r, s in enumerate(part.starts):
            cols = np.arange(s - 1, s - 1 + w)
            alice_a[cols] = res.alice_a[r]
            alice_b[cols] = res.alice_b[r]
        alice_a[b_idx - 1] = alice_pb_a
        alice_b[b_idx - 1] = got
        for r, s in enumerate(part_bob.starts):
            cols = np.arange(s - 1, s - 1 + w)
            bob_a[cols] = res.bob_a[r]
            bob_b[cols] = res.bob_b[r]
        bob_a[b_idx_bob - 1] = bob_pb_a
        bob_b[b_idx_bob - 1] = bob_pb_b
    else:
        # too few blocks: ship all function descriptions and simulate offline
        desc = np.concatenate(
            [
                describe_functions(pf[a_idx - 1], FnDescMode.TWO_BIT),
                describe_functions(pf[b_idx - 1], FnDescMode.ONE_BIT_ADDITIVE),
            ]
        )
        got = send(ch, code, ledger, desc, Direction.A_TO_B, "descriptions")
        f_hat = np.empty(n_pad, np.uint8)
        f_hat[a_idx_bob - 1] = functions_from_bits(
            got[: 2 * a_idx_bob.size], FnDescMode.TWO_BIT
        )
        f_hat[b_idx_bob - 1] = functions_from_bits(
            got[2 * a_idx_bob.size :], FnDescMode.ONE_BIT_ADDITIVE
        )

        bob_tr = offline_simulate(f_hat, pg, 0)
        bob_a[:] = bob_tr.a
        bob_b[:] = bob_tr.b

        b_hat = send(ch, code, ledger, bob_b, Direction.B_TO_A, "transcript_b")
        alice_b[:] = b_hat
        prev_b = np.concatenate([[np.uint8(0)], b_hat[:-1]])
        alice_a[:] = eval_fn_array(pf, prev_b)

    report = finish_report(
        "scheme1",
        p,
        Transcript(alice_a[:n], alice_b[:n]),
        Transcript(bob_a[:n], bob_b[:n]),
        ledger,
    )
    if not aligned:
        report.bob_ok = False
    return report

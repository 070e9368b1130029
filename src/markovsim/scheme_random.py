"""Simulation scheme built on a greedy partition at Alice's stuck functions.

The round range 1..n is cut into blocks: each block after the first begins at
the first index at least ceil(sqrt(n)) past the previous block's start where
Alice's function is stuck.  A block's first ceil(sqrt(n)) rounds form Part A;
the rest is Part B and provably contains no stuck function of Alice's.  The
layout is one boolean Part A mask per party over the padded rounds; read in
row-major order, which is ascending round order, it gives every row its
p * ceil(sqrt(n)) Part A rounds and its complement the Part B rounds.

Because every block after the first opens at a stuck function, the blocks are
independent rows and Part A can be run as a vertical column exchange.  Part B
is additive for Alice, so one bit per function describes it; Bob then runs
Part B offline seeded by his last Part A column and ships his half back.
Bob keeps each row of his decode of the block starts that is a well-formed
partition fitting later message sizes; any other row gets even starts 1,
1 + w, ... (w = ceil(sqrt(n))).  When the partition has too few blocks for
vertical coding to pay (p <= ceil(n**0.25)), the whole protocol is instead
simulated non-interactively from function descriptions: two bits per Part A
function, one per Part B function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import bits_to_ints, delayed, ints_to_bits
from .channel import ChannelPair, Direction
from .coding import CodeSpec, coded_length
from .protocol import Protocol, Transcript, TransmitFn, eval_fn_array, lone_or_batch
from .vertical import (FnDescMode, describe_functions, exchange_layout, finish_report,
                       functions_from_bits, new_ledger, offline_simulate,
                       run_vertical_exchange, send)


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


def find_partition(f, n: int | None = None):
    """Greedy partition of 1..n driven by the stuck positions of ``f``.

    f is one protocol's functions, which gives its Partition, or a ``(T, n)``
    batch, which gives the ``(T, p_max)`` starts of every row and each row's
    block count p; a row's starts past its p are n + 1.  The rows lie end to
    end, each as its rounds 1..n and a stuck sentinel for round n + 1, and
    take their greedy hops together: one binary search of the flat stuck
    positions for the first at or after each start + w, clamped to the row's
    sentinel, where a row that has ended stays.  A hop moves
    w = ceil(sqrt(n)) rounds or more, so (n - 1) // w hops find every start."""
    f = np.asarray(f, dtype=np.uint8)
    if n is None:
        n = f.shape[-1]
    if n != f.shape[-1] or n < 1:
        raise ValueError("n must equal the number of functions and be positive")
    w = ceil_isqrt(n)
    rows = f.reshape(-1, n)
    stuck = np.ones((len(rows), n + 1), bool)  # column n: the sentinels
    stuck[:, :n] = rows >= 3
    pos = np.flatnonzero(stuck)
    sentinel = np.arange(n, stuck.size, n + 1)
    hops = [sentinel - n]
    for _ in range((n - 1) // w):
        hops.append(pos[pos.searchsorted(np.minimum(hops[-1] + w, sentinel))])
    starts = np.stack(hops, axis=1) - (sentinel - n - 1)[:, None]
    counts = (starts <= n).sum(axis=1)
    if f.ndim > 1:
        return starts[:, : counts.max()], counts
    return Partition(starts[0, : counts[0]], w)


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


def decode_partition(bits, n: int, n_pad) -> Partition:
    """Bob's block starts from each partition message (one per row of a
    batch), with p the message's field count less one.  A row's decode is
    kept when its count is p and its starts begin at 1, stay within n, lie
    w = ceil(sqrt(n)) or more apart and pad to n_pad, which Bob reads off the
    length of Alice's Part B tail or descriptions; any other row gets even
    starts 1, 1 + w, ....  A message of broken length raises ValueError."""
    fields = bits_to_ints(bits, _field_width(n))  # whole fields only
    p, w = fields.shape[-1] - 1, ceil_isqrt(n)
    if p < 1:
        raise ValueError("partition message holds no block start")
    got = Partition(fields[..., 1:] + 1, w)
    ok = ((fields[..., 0] == p) & (got.starts[..., 0] == 1) & (got.starts <= n).all(-1)
          & (np.diff(got.starts, axis=-1) >= w).all(-1) & (_padded_len(got, n) == n_pad))
    return Partition(np.where(ok[..., None], got.starts, 1 + w * np.arange(p)), w)


def _part_a_mask(part: Partition, width: int) -> np.ndarray:
    """Boolean ``(..., width)`` mask of rounds 1..width: each block opens with
    min(its length, the Part A width) Part A rounds; the rest is Part B."""
    ends = np.full(part.starts.shape[:-1] + (1,), width + 1)
    lengths = np.diff(part.starts, axis=-1, append=ends)
    a_len = np.minimum(lengths, part.part_a_width)
    runs = np.stack([a_len, lengths - a_len], axis=-1).ravel()
    return np.repeat(np.tile([True, False], a_len.size), runs).reshape(ends.shape[:-1] + (width,))


def split_parts(part: Partition, n: int):
    """1-based rounds (part_a, part_b) of 1..n read off the Part A mask in
    row-major, so ascending, order, one row each per row of a batched
    partition.  A block shorter than the Part A width lies wholly in Part A;
    a batch needs none, so that every row holds p * ceil(sqrt(n)) of them."""
    a = _part_a_mask(part, n)
    rounds = np.broadcast_to(np.arange(1, n + 1), a.shape)
    lead = a.shape[:-1] + (-1,)
    return rounds[a].reshape(lead), rounds[~a].reshape(lead)


def _padded_len(part: Partition, n: int):
    """Rounds after padding the last block to full Part A width (per row)."""
    return np.maximum(n, part.starts[..., -1] + part.part_a_width - 1)


def _pad_fns(fns: np.ndarray, n_pad: int) -> np.ndarray:
    """Each row of ``fns`` padded with stuck rounds to n_pad rounds."""
    if fns.shape[-1] == n_pad:
        return fns
    pad = np.full(fns.shape[:-1] + (n_pad - fns.shape[-1],), int(TransmitFn.MU3), np.uint8)
    return np.concatenate([fns, pad], axis=-1)


@lone_or_batch
def run_scheme1(p: Protocol, ch: ChannelPair, code: CodeSpec, starts: np.ndarray | None = None):
    """Simulate ``p`` over ``ch`` using the stuck-partition scheme.

    The protocol is padded with stuck rounds so the last block reaches full
    Part A width; the padding is simulated and transmitted like everything
    else and stripped from the reported transcripts.  Decode failures are
    logged and their wrong bits propagate, so a misdecoded partition shows
    up as a wrong transcript on Bob's side.

    A batched ``p`` gives one batch report.  Its rows must share one block
    count p, which sets the size of every message but the last in each
    direction; those depend on each row's padded length and are sent ragged.
    ``starts`` are the batch's ``(T, p)`` block starts, found here if not given.
    """
    n = p.n
    w = ceil_isqrt(n)
    ledger = new_ledger(len(p.f))

    if starts is None:
        starts, counts = find_partition(p.f)
        if (counts != counts[0]).any():
            raise ValueError("the protocols of a batch must share one block count")
        starts = starts[:, : counts[0]]
    elif starts.shape[:-1] != p.f.shape[:-1]:
        raise ValueError(f"partition starts {starts.shape} do not fit protocols {p.f.shape}")
    part = Partition(starts, w)
    n_pad = _padded_len(part, n)
    # every row is laid out over the batch's longest padded length: its last
    # Part B runs on past its own n_pad, into padding that no message carries
    width = int(n_pad.max())
    pf = _pad_fns(p.f, width)
    pg = _pad_fns(p.g, width)

    # each direction's flips in one draw, over the partition and the messages
    # of the branch below; a ragged message spans its longest row
    vertical = part.p > _ceil_root4(n)
    head = coded_length(code, (part.p + 1) * _field_width(n))
    tail = width - part.p * w
    if vertical:
        _, _, alice_len, bob_len = exchange_layout(code, part.p, w, tail)
        ch.draw_ahead(Direction.A_TO_B, head + coded_length(code, alice_len))
        ch.draw_ahead(Direction.B_TO_A, coded_length(code, bob_len) + coded_length(code, tail))
    else:  # two bits per Part A function, one per Part B; Bob's one reply needs no span
        ch.draw_ahead(Direction.A_TO_B, head + coded_length(code, part.p * w + width))

    got = send(ch, code, ledger, encode_partition(part, n), Direction.A_TO_B, "partition")
    part_bob = decode_partition(got, n, n_pad)

    # each party's layout: p * w Part A rounds in every row, the rest Part B
    a, a_bob = _part_a_mask(part, width), _part_a_mask(part_bob, width)
    T = len(n_pad)
    b_len = n_pad - part.p * w  # each row's own Part B
    # Alice's Part B functions; past a row's b_len lies stuck padding, which
    # has no one-bit description, so MU1 stands in there (neither path sends it)
    pf_b = np.where(np.arange(tail) < b_len[:, None], pf[~a].reshape(T, -1),
                    int(TransmitFn.MU1))

    f_bob = np.empty(pf.shape, np.uint8)  # Bob's estimate of Alice's functions
    alice_b = np.empty(pf.shape, np.uint8)

    if vertical:
        # vertical Part A, appended one-bit descriptions for Part B
        res = run_vertical_exchange(
            pf[a].reshape(T, part.p, w),
            pg[a_bob].reshape(T, part.p, w),
            np.zeros((T, part.p), np.uint8),
            code,
            ch,
            ledger,
            alice_tail=describe_functions(pf_b, FnDescMode.ONE_BIT_ADDITIVE),
            tail_lengths=b_len,
        )
        # stuck codes replay the Part A bits Bob decoded, so his one chain
        # below enters each Part B stretch from his last vertical column
        f_bob[a_bob] = int(TransmitFn.MU3) + res.bob_a.ravel()
        f_bob[~a_bob] = functions_from_bits(res.bob_tail, FnDescMode.ONE_BIT_ADDITIVE).ravel()
        alice_b[a] = res.alice_b.ravel()
        reply_bob, reply_alice, reply_len, stage = ~a_bob, ~a, b_len, "part_b"
    else:
        # too few blocks: ship all function descriptions and simulate offline
        desc = np.concatenate(
            [
                describe_functions(pf[a].reshape(T, -1), FnDescMode.TWO_BIT),
                describe_functions(pf_b, FnDescMode.ONE_BIT_ADDITIVE),
            ],
            -1,
        )
        a_bits = 2 * part.p * w
        got = send(
            ch, code, ledger, desc, Direction.A_TO_B, "descriptions", lengths=a_bits + b_len
        )
        f_bob[a_bob] = functions_from_bits(got[:, :a_bits], FnDescMode.TWO_BIT).ravel()
        f_bob[~a_bob] = functions_from_bits(got[:, a_bits:], FnDescMode.ONE_BIT_ADDITIVE).ravel()
        reply_bob = reply_alice = np.ones(pf.shape, bool)
        reply_len, stage = n_pad, "transcript_b"

    bob = offline_simulate(f_bob, pg, 0)
    got = send(ch, code, ledger, bob.b[reply_bob].reshape(T, -1), Direction.B_TO_A, stage,
               lengths=reply_len)
    alice_b[reply_alice] = got.ravel()
    alice_a = eval_fn_array(pf, delayed(alice_b))

    return finish_report(
        "scheme1",
        p,
        Transcript(alice_a[:, :n], alice_b[:, :n]),
        Transcript(bob.a[:, :n], bob.b[:, :n]),
        ledger,
    )

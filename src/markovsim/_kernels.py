"""The hot loops, in numpy: chain evaluation, packed ML search, and the
certified shortcut in front of that search.

``markov_chain`` computes every view that is a whole chain: Bob's view in
the baseline and in scheme1 (whose Part A rounds enter as stuck codes that
replay the bits he decoded), scheme2's block ends, and the folded vertical
exchange (codes with each column's channel flips XORed in).  Views read off
received bits, such as Alice's, need no chain, and nor do the reports' checks:
each bit is one ``eval_fn_array`` of the bit before it, round by round.

All take a leading trial axis: ``markov_chain`` runs one chain per row of a
``(T, n)`` batch, or of any leading shape such as the folded exchange's
``(T, rows, width)``, as one segmented XOR scan over a packed bit stream of
n + 1 rounds per row, whose stuck round 0 carries the row's entering bit.
Both decode kernels check each received sub-block against its own trial's
tables, ``(T, …)`` per trial, so a message costs one call whatever its
length and however many trials carry it.  A code shared by all trials is
viewed once per trial by the caller, ``coding._rlc_books``.

``ml_decode_index`` is the one exhaustive search.  ``certified_index`` is
not a search: it tries one candidate per information set of each code and
certifies a sub-block when a candidate lies within t = ⌊(d_min − 1)/2⌋ of
it.  ``coding.decode_with_ties`` runs it on every sub-block of each trial
of a random-linear message, and sends the search the list of sub-blocks it
cannot certify, each with its trial.  The search also reports a tie,
another codeword at the same least distance; a certified sub-block never
ties.  Only the search works in chunks, one trial at a time, as only its
scratch grows as sub-blocks × 2^k; the certified pass runs in one step.

Per-layer timings of ``markov_chain`` and ``ml_decode_index`` are reported
by the benchmark in ``perfbench/`` as ``kernels.markov_chain.*`` and
``kernels.ml_decode_index.*``; the certified pass is not traced on its own,
so its time shows as self time of its traced caller, ``coding.decode_payload``
or ``vertical.run_vertical_exchange``.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# chain evaluation
#
# Transmission functions are stored as uint8 codes 1..4:
#   1 -> y, 2 -> y^1, 3 -> 0, 4 -> 1.
# Every code c carries one bit x = (c-1) & 1: the XOR offset when c <= 2, the
# output when c >= 3.  So c applied to y is x ^ (y & (c <= 2)).

_SHIFTS = tuple(np.uint64(1 << k) for k in range(6))  # a word's segmented scan
_TOP = np.uint64(63)


def markov_chain(f: np.ndarray, g: np.ndarray, b0=0):
    """Run the two-party recursion A_i = f_i(B_{i-1}), B_i = g_i(A_i).

    f, g: uint8 function codes of shape (..., n), one chain per row; b0:
    Bob's bit entering round 1, a scalar or one bit per row.  Returns (a, b)
    uint8 arrays of the same shape.

    Round i composes into one map B_{i-1} -> B_i that is stuck when f_i or g_i
    is, and whose bit h_i is x_g ^ (x_f & (g <= 2)).  Counting b0 as a stuck
    round 0, B_i is a prefix XOR of h that restarts at every stuck round: a
    segmented scan.  Every row's n + 1 rounds are laid end to end in one bit
    stream, so each row starts at its own stuck round 0 and no carry crosses
    from one row into the next.  h and the stuck flags are packed into
    little-endian uint64 words, and six shift steps scan each word.  A word's
    last bit, given a zero carry, and whether it holds a stuck round, follow
    the same recursion over words: one prefix XOR and one running maximum
    over stuck words, each tagged 2w + (prefix XOR before w), give every
    word's entering bit.  That bit is XORed into the bits before the word's
    first stuck round, and every A bit then follows from its B_{i-1}.
    """
    f = np.asarray(f, dtype=np.uint8)
    g = np.asarray(g, dtype=np.uint8)
    lead, n = f.shape[:-1], f.shape[-1]
    size = math.prod(lead) * (n + 1)
    words = -(-size // 64)
    stream = np.zeros((2, 64 * words), np.uint8)
    h, stuck = stream[:, :size].reshape((2,) + lead + (n + 1,))
    xf = (f - 1) & 1
    h[..., 0], stuck[..., 0] = b0, 1
    np.bitwise_xor((g - 1) & 1, xf & (g <= 2), out=h[..., 1:])
    np.bitwise_or(f >= 3, g >= 3, out=stuck[..., 1:])
    v, s = pack_bits(stream)
    for d in _SHIFTS:  # bit i takes the XOR back to the word's latest stuck round
        v ^= (v << d) & ~s
        s |= s << d
    last = v >> _TOP
    pref = np.bitwise_xor.accumulate(last)
    tag = np.arange(0, 2 * words, 2, dtype=np.uint64)
    tag |= pref ^ last
    tag *= s >> _TOP
    carry = np.zeros(words, np.uint64)  # the bit entering each word
    carry[1:] = pref[:-1] ^ (np.maximum.accumulate(tag[:-1]) & 1)
    v ^= ~s * carry
    # b[..., i] is B_i, with b[..., 0] = b0
    b = np.unpackbits(v.view(np.uint8), bitorder="little", count=size).reshape(h.shape)
    return xf ^ (b[..., :-1] & (f <= 2)), b[..., 1:]


# ---------------------------------------------------------------------------
# packed maximum-likelihood search


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a 0/1 array into little-endian uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-bits.shape[-1]) % 64
    if pad:
        bits = np.concatenate([bits, np.zeros(bits.shape[:-1] + (pad,), np.uint8)], axis=-1)
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


# Sub-blocks per chunk of the exhaustive search, within one trial, read by
# ml_decode_index alone: only its scratch grows with 2^k.  A chunk's
# distance matrix holds about this many codebook entries, and at least one
# sub-block: at k = 12, 16 sub-blocks and about 0.6 MB.  Wider chunks buy no
# speed and raise the process's peak memory.
_CHUNK_ENTRIES = 1 << 16


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed rows along the last axis, broadcast."""
    d = np.bitwise_count(a[..., 0] ^ b[..., 0])
    if a.shape[-1] > 1:  # one word's distance, at most 64, fits the uint8
        d = d.astype(np.uint32)
        for w in range(1, a.shape[-1]):
            d += np.bitwise_count(a[..., w] ^ b[..., w])
    return d


def ml_decode_index(codebook: np.ndarray, trial, received: np.ndarray) -> tuple:
    """Index of the packed codebook row nearest in Hamming distance to each
    received sub-block, ties to the lowest index, and whether another row
    ties it.  codebook is ``(T, rows, words)`` and received ``(N, words)``:
    sub-block i is searched in trial trial[i]'s codebook, trials ascending.
    Returns int64 index and bool tied, each ``(N,)``."""
    index, tied = np.zeros(len(received), np.int64), np.zeros(len(received), bool)
    step = max(1, _CHUNK_ENTRIES // codebook.shape[1])
    ends = np.searchsorted(trial, np.arange(len(codebook) + 1)).tolist()
    for t, (start, end) in enumerate(zip(ends, ends[1:])):
        for b in range(start, end, step):
            d = _distance(received[b : min(b + step, end), None], codebook[t])
            i, at = d.argmin(axis=-1), np.arange(len(d))
            least = d[at, i]
            d[at, i] = np.iinfo(d.dtype).max  # any row left at the least ties
            index[b : b + len(d)], tied[b : b + len(d)] = i, d.min(axis=-1) == least
    return index, tied


def certified_index(codebook, bits, received, positions, rows, radius):
    """Bounded-distance decoding from information sets, where it is provably
    ML: the candidate index of each received sub-block, and whether it is
    certified.

    Everything is per trial.  codebook is ``(T, 2**k, words)``, received is
    packed ``(T, blocks, words)`` and bits is received unpacked, ``(T,
    blocks, nc)``.  positions and rows are ``(T, k, sets)``: set s of a
    trial's code holds k columns I and the rows of G_I⁻¹ as info indices.
    radius is t = ⌊(d_min − 1)/2⌋ per trial.  A candidate is
    x = y_I · G_I⁻¹, and it is certified when d(y, xG) ≤ t: then xG is the
    unique nearest codeword, so x is exactly what ``ml_decode_index``
    returns.  Returns (index, bool certified), each ``(T, blocks)``, the
    index in rows' dtype; an index that is not certified is meaningless.
    Unlike the search it needs no chunks: its scratch, k·sets gathered bits
    and sets codewords per sub-block, is a few times the received message.
    """
    trials, k, sets = positions.shape
    pos = positions.reshape(trials, k * sets)
    # one gather per trial: a shared index is numpy's fast path
    y = np.stack([b[:, i] for b, i in zip(bits, pos)])
    y = y.reshape(y.shape[:-1] + (k, sets))
    x = np.zeros(y.shape[:-2] + (sets,), rows.dtype)
    for r in range(k):
        x ^= y[..., r, :] * rows[:, None, r, :]
    d = _distance(codebook[np.arange(trials)[:, None, None], x], received[:, :, None])
    ok = d <= radius[:, None, None]
    # every certified set found the same x, and the rest count as 0
    return (x * ok).max(-1), ok.any(-1)

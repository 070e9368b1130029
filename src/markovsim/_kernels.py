"""The hot loops, in numpy: chain evaluation, packed ML search, and the
certified shortcut in front of that search.

``markov_chain`` computes every view that is a whole chain: the noiseless
reference, Bob's view in the baseline and in scheme1 (whose Part A rounds
enter as stuck codes that replay the bits he decoded), and scheme2's block
ends.  Views that are read off received bits, such as Alice's, need no chain:
each A bit is one ``eval_fn_array`` of the B bit before it.

All take a leading trial axis: ``markov_chain`` runs one chain per row of a
``(T, n)`` batch, and the ML search takes every received sub-block of a
message, for every trial of a batch, against each trial's own codebook.  It
works through them in chunks of bounded size, so a message costs one call
whatever its length and however many trials carry it.

``ml_decode_index`` is the one exhaustive search.  ``certified_index`` is
not a search: it tries one candidate per information set of each code and
certifies a sub-block when a candidate lies within t = ⌊(d_min − 1)/2⌋ of
it.  ``coding.decode_payload`` sends the sub-blocks it cannot certify to
the search.

Per-layer timings of ``markov_chain`` and ``ml_decode_index`` are reported
by the benchmark in ``perfbench/`` as ``kernels.markov_chain.*`` and
``kernels.ml_decode_index.*``; the certified pass is not traced on its own,
so its time shows as ``coding.decode_payload`` self time.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# chain evaluation
#
# Transmission functions are stored as uint8 codes 1..4:
#   1 -> y, 2 -> y^1, 3 -> 0, 4 -> 1.
# Every code c carries one bit x = (c-1) & 1: the XOR offset when c <= 2, the
# output when c >= 3.  So c applied to y is x ^ (y & (c <= 2)).


def markov_chain(f: np.ndarray, g: np.ndarray, b0=0):
    """Run the two-party recursion A_i = f_i(B_{i-1}), B_i = g_i(A_i).

    f, g: uint8 function codes of shape (..., n), one chain per row; b0:
    Bob's bit entering round 1, a scalar or one bit per row.  Returns (a, b)
    uint8 arrays of the same shape.

    Round i composes into one map B_{i-1} -> B_i that is stuck when f_i or g_i
    is, and whose bit is x_g ^ (x_f & (g <= 2)).  Counting b0 as a stuck round
    0, B_i is the bit of the latest stuck round XOR the bits of the additive
    rounds after it, that is the prefix XOR up to i XOR the prefix XOR before
    that stuck round.  One prefix XOR and one running maximum over stuck
    rounds, each tagged 2j + (prefix XOR before j), give every B bit, and
    every A bit then follows from its B_{i-1}.
    """
    f = np.asarray(f, dtype=np.uint8)
    g = np.asarray(g, dtype=np.uint8)
    n = f.shape[-1]
    xf = (f - 1) & 1
    h = np.empty(f.shape[:-1] + (n + 1,), np.uint8)
    h[..., 0] = b0
    h[..., 1:] = ((g - 1) & 1) ^ (xf & (g <= 2))
    stuck = np.ones(h.shape, bool)
    stuck[..., 1:] = (f >= 3) | (g >= 3)
    pref = np.bitwise_xor.accumulate(h, axis=-1)
    tag = np.arange(0, 2 * n + 2, 2, dtype=np.int32) | (pref ^ h)
    tag *= stuck
    # b[..., i] is B_i, with b[..., 0] = b0
    b = pref ^ (np.maximum.accumulate(tag, axis=-1).astype(np.uint8) & 1)
    return xf ^ (b[..., :-1] & (f <= 2)), b[..., 1:]


# ---------------------------------------------------------------------------
# packed maximum-likelihood search


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack each row of a 2-d 0/1 batch into little-endian uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    rows, n = bits.shape
    pad = (-n) % 64
    if pad:
        bits = np.concatenate([bits, np.zeros((rows, pad), np.uint8)], axis=1)
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


# Sub-blocks searched per chunk, over all trials of a batch: enough that one
# chunk's distance matrix holds about this many codebook entries, and at least
# one.  At k = 12 that is 16 sub-blocks and about 0.6 MB of scratch; wider
# chunks buy no speed and raise the process's peak memory.
_CHUNK_ENTRIES = 1 << 16


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed rows along the last axis, broadcast."""
    d = np.bitwise_count(a[..., 0] ^ b[..., 0])
    if a.shape[-1] > 1:  # one word's distance, at most 64, fits the uint8
        d = d.astype(np.uint32)
        for w in range(1, a.shape[-1]):
            d += np.bitwise_count(a[..., w] ^ b[..., w])
    return d


def ml_decode_index(codebook: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Index of the packed codebook row nearest in Hamming distance to each
    received sub-block.  Ties go to the lowest index.

    received: ``(blocks, words)``, or ``(T, blocks, words)`` with trial t
    searched in its own codebook.  codebook: ``(rows, words)`` or a
    ``(1, rows, words)`` stack, shared by all trials, or a ``(T, rows,
    words)`` stack with one per trial.  Returns one int64 index per
    sub-block, shaped like ``received`` without its last axis.
    """
    rx = received if received.ndim == 3 else received[None]
    trials, blocks = rx.shape[:2]
    rows = codebook.shape[-2]
    shape = (trials,) + codebook.shape[-2:]
    # np.broadcast_to costs µs a call, so only a shared codebook takes it
    books = codebook if codebook.shape == shape else np.broadcast_to(codebook, shape)
    out = np.empty((trials, blocks), np.int64)
    # a chunk is up to tstep trials x bstep sub-blocks of each
    bstep = max(1, min(blocks, _CHUNK_ENTRIES // rows))
    tstep = max(1, _CHUNK_ENTRIES // (rows * bstep))
    for t in range(0, trials, tstep):
        cb = books[t : t + tstep, None]
        for b in range(0, blocks, bstep):
            d = _distance(rx[t : t + tstep, b : b + bstep, None], cb)
            out[t : t + tstep, b : b + bstep] = d.argmin(axis=-1)
    return out.reshape(received.shape[:-1])


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
    returns.  Returns (int64 index, bool certified), each ``(T, blocks)``;
    an index that is not certified is meaningless.
    """
    trials, blocks = received.shape[:2]
    k, sets = positions.shape[1:]
    out = np.empty((trials, blocks), np.int64)
    hit = np.empty((trials, blocks), bool)
    # a chunk gathers up to _CHUNK_ENTRIES received bits
    bstep = max(1, min(blocks, _CHUNK_ENTRIES // (k * sets)))
    tstep = max(1, _CHUNK_ENTRIES // (k * sets * bstep))
    pos = positions.reshape(trials, k * sets)
    for t in range(0, trials, tstep):
        c = slice(t, t + tstep)
        inv = rows[c, None]
        cb = np.arange(t, t + len(inv))[:, None, None]
        for b in range(0, blocks, bstep):
            # one gather per trial: a shared index is numpy's fast path
            y = np.stack([bits[i, b : b + bstep][:, pos[i]]
                          for i in range(t, min(t + tstep, trials))])
            y = y.reshape(y.shape[:-1] + (k, sets))
            x = np.zeros(y.shape[:-2] + (sets,), rows.dtype)
            for r in range(k):
                x ^= y[..., r, :] * inv[..., r, :]
            d = _distance(codebook[cb, x], received[t : t + tstep, b : b + bstep, None])
            ok = d <= radius[c, None, None]
            hit[t : t + tstep, b : b + bstep] = ok.any(axis=-1)
            # every certified set found the same x, and the rest count as 0
            out[t : t + tstep, b : b + bstep] = (x * ok).max(axis=-1)
    return out, hit

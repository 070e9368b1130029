"""The two hot loops, in numpy: chain evaluation and packed ML search.

``markov_chain`` computes every view that is a whole chain: the noiseless
reference, Bob's view in the baseline and in scheme1 (whose Part A rounds
enter as stuck codes that replay the bits he decoded), and scheme2's block
ends.  Views that are read off received bits, such as Alice's, need no chain:
each A bit is one ``eval_fn_array`` of the B bit before it.

Both take a leading trial axis: ``markov_chain`` runs one chain per row of a
``(T, n)`` batch, and the ML search takes every received sub-block of a
message, for every trial of a batch, against each trial's own codebook.  It
works through them in chunks of bounded size, so a message costs one call
whatever its length and however many trials carry it.

Per-layer timings of both kernels are reported by the benchmark in
``perfbench/`` as ``kernels.markov_chain.*`` and ``kernels.ml_decode_index.*``.
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


def ml_decode_index(codebook: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Index of the packed codebook row nearest in Hamming distance to each
    received sub-block.  Ties go to the lowest index.

    codebook: ``(rows, words)``, or a ``(T, rows, words)`` stack with one
    codebook per trial (a stack of one is shared by all trials).  received:
    ``(blocks, words)``, or ``(T, blocks, words)`` with trial t searched in
    its own codebook.  Returns one int64 index per sub-block, shaped like
    ``received`` without its last axis.
    """
    books = codebook if codebook.ndim == 3 else codebook[None]
    rx = received if received.ndim == 3 else received[None]
    trials, blocks, words = rx.shape
    rows = books.shape[1]
    out = np.empty((trials, blocks), np.int64)
    # a chunk is up to tstep trials x bstep sub-blocks of each
    bstep = max(1, min(blocks, _CHUNK_ENTRIES // rows))
    tstep = max(1, _CHUNK_ENTRIES // (rows * bstep))
    for t in range(0, trials, tstep):
        cb = books[t : t + tstep, None] if len(books) > 1 else books[:, None]
        for b in range(0, blocks, bstep):
            blk = rx[t : t + tstep, b : b + bstep, None]
            d = np.bitwise_count(blk[..., 0] ^ cb[..., 0])
            if words > 1:  # one word's distance, at most 64, fits the uint8
                d = d.astype(np.uint32)
                for w in range(1, words):
                    d += np.bitwise_count(blk[..., w] ^ cb[..., w])
            out[t : t + tstep, b : b + bstep] = d.argmin(axis=-1)
    return out.reshape(received.shape[:-1])

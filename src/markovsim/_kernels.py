"""The two hot loops, in numpy: chain evaluation and packed ML search.

``markov_chain`` computes every view that is a whole chain: the noiseless
reference, Bob's view in the baseline and in scheme1 (whose Part A rounds
enter as stuck codes that replay the bits he decoded), and scheme2's block
ends.  Views that are read off received bits, such as Alice's, need no chain:
each A bit is one ``eval_fn_array`` of the B bit before it.

The ML search takes every received sub-block of a message at once and works
through them in chunks of bounded size, so a message costs one call whatever
its length.

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


def markov_chain(f: np.ndarray, g: np.ndarray, b0: int = 0):
    """Run the two-party recursion A_i = f_i(B_{i-1}), B_i = g_i(A_i).

    f, g: uint8 function codes, b0: Bob's bit entering round 1.
    Returns (a, b) uint8 arrays of the same length.

    Round i composes into one map B_{i-1} -> B_i that is stuck when f_i or g_i
    is, and whose bit is x_g ^ (x_f & (g <= 2)).  Counting b0 as a stuck round
    0, B_i is the bit of the latest stuck round XOR the bits of the additive
    rounds after it: one prefix XOR and one running maximum give every B bit,
    and every A bit then follows from its B_{i-1}.
    """
    f = np.asarray(f, dtype=np.uint8)
    g = np.asarray(g, dtype=np.uint8)
    n = f.size
    xf = (f - 1) & 1
    h = np.empty(n + 1, np.uint8)
    h[0] = b0
    h[1:] = ((g - 1) & 1) ^ (xf & (g <= 2))
    stuck = np.concatenate(([True], (f >= 3) | (g >= 3)))
    last = np.maximum.accumulate(np.arange(n + 1) * stuck)
    pref = np.bitwise_xor.accumulate(h)
    b = pref ^ pref[last] ^ h[last]  # b[i] is B_i, with b[0] = b0
    return xf ^ (b[:-1] & (f <= 2)), b[1:]


# ---------------------------------------------------------------------------
# packed maximum-likelihood search


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array (or a 2-d batch of rows) into little-endian uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    squeeze = bits.ndim == 1
    if squeeze:
        bits = bits[None, :]
    rows, n = bits.shape
    pad = (-n) % 64
    if pad:
        bits = np.concatenate([bits, np.zeros((rows, pad), np.uint8)], axis=1)
    words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    return words[0] if squeeze else words


# Sub-blocks searched per chunk: enough that one chunk's distance matrix holds
# about this many codebook entries, and at least one.  At k = 12 that is 16
# sub-blocks and about 0.6 MB of scratch; wider chunks buy no speed and raise
# the process's peak memory.
_CHUNK_ENTRIES = 1 << 16


def ml_decode_index(codebook: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Index of the packed codebook row nearest in Hamming distance to each
    row of ``received``, a ``(blocks, words)`` batch.  Ties go to the lowest
    index.  Returns one int64 index per block."""
    rows, words = codebook.shape
    out = np.empty(received.shape[0], np.int64)
    step = max(1, _CHUNK_ENTRIES // rows)
    for lo in range(0, received.shape[0], step):
        blk = received[lo : lo + step]
        d = np.bitwise_count(blk[:, None, 0] ^ codebook[None, :, 0])
        if words > 1:  # one word's distance, at most 64, fits the uint8
            d = d.astype(np.uint32)
            for w in range(1, words):
                d += np.bitwise_count(blk[:, None, w] ^ codebook[None, :, w])
        out[lo : lo + step] = d.argmin(axis=1)
    return out

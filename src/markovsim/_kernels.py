"""The two hot loops, in numpy: chain evaluation and packed ML search.

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
# A code c applied to bit y is (y ^ (c-1)) for c<=2 and (c-3) otherwise.


def markov_chain(f: np.ndarray, g: np.ndarray, b0: int = 0):
    """Run the two-party recursion A_i = f_i(B_{i-1}), B_i = g_i(A_i).

    f, g: uint8 function codes, b0: Bob's bit entering round 1.
    Returns (a, b) uint8 arrays of the same length.

    Each round composes into a single map on Bob's previous bit: stuck if
    either half is stuck, additive otherwise.  Downstream of the latest stuck
    round the chain is an XOR of additive offsets, so a prefix XOR plus the
    index of the last stuck round gives every B bit at once.
    """
    f = np.asarray(f, dtype=np.uint8)
    g = np.asarray(g, dtype=np.uint8)
    n = f.size
    a = np.empty(n, np.uint8)
    b = np.empty(n, np.uint8)
    if n == 0:
        return a, b
    f_stuck = f >= 3
    g_stuck = g >= 3
    f_add = np.where(f_stuck, 0, f - 1).astype(np.uint8)
    f_val = np.where(f_stuck, f - 3, 0).astype(np.uint8)
    g_add = np.where(g_stuck, 0, g - 1).astype(np.uint8)
    g_val = np.where(g_stuck, g - 3, 0).astype(np.uint8)
    h_stuck = f_stuck | g_stuck
    h_val = np.where(g_stuck, g_val, f_val ^ g_add)
    h_add = np.where(h_stuck, 0, f_add ^ g_add)
    pref = np.bitwise_xor.accumulate(h_add)
    last = np.maximum.accumulate(np.where(h_stuck, np.arange(1, n + 1), 0))
    li = np.maximum(last - 1, 0)
    pl = np.where(last > 0, pref[li], 0).astype(np.uint8)
    sv = np.where(last > 0, h_val[li], np.uint8(b0)).astype(np.uint8)
    b[:] = sv ^ pref ^ pl
    b_prev = np.concatenate(([np.uint8(b0)], b[:-1]))
    a[:] = np.where(f_stuck, f_val, b_prev ^ f_add)
    return a, b


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

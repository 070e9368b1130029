"""Small helpers for bit arrays and fixed-width binary fields.

Bits live in numpy uint8 arrays holding 0/1.  Multi-bit integer fields are
always most-significant-bit first.  A field array may carry leading axes (one
row per trial of a batch); the fields run along the last axis.
"""

from __future__ import annotations

import numpy as np


def ints_to_bits(values, width: int) -> np.ndarray:
    """Concatenated fixed-width fields for each row of nonnegative ints."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or int(values.max()) >> width):
        raise ValueError(f"values do not fit in {width} bits")
    # the temporaries keep the dtype of values: uint8 codes stay small
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint8)
    bits = (values[..., None] >> shifts).astype(np.uint8) & 1
    return bits.reshape(values.shape[:-1] + (-1,))


def bits_to_ints(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of ints_to_bits; bit length must be a multiple of width."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % width:
        raise ValueError("bit length is not a multiple of the field width")
    fields = bits.reshape(bits.shape[:-1] + (-1, width)).astype(np.int64)
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return fields @ weights


def delayed(bits: np.ndarray) -> np.ndarray:
    """Each row's bits one step later, after a 0: 0, bits[..., 0], ...,
    bits[..., -2].  A round's input is the bit before it, with B_0 = 0."""
    out = np.empty_like(bits)
    out[..., 0] = 0
    out[..., 1:] = bits[..., :-1]
    return out


def xor_reduce(bits) -> int:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size == 0:
        return 0
    return int(np.bitwise_xor.reduce(arr))

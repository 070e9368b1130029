"""Small helpers for bit arrays and fixed-width binary fields.

Bits live in numpy uint8 arrays holding 0/1.  Multi-bit integer fields are
always most-significant-bit first.
"""

from __future__ import annotations

import numpy as np


def ints_to_bits(values, width: int) -> np.ndarray:
    """Concatenated fixed-width fields for a vector of nonnegative ints."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or (width < 63 and values.max() >> width)):
        raise ValueError(f"values do not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def bits_to_ints(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of ints_to_bits; bit length must be a multiple of width."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % width:
        raise ValueError("bit length is not a multiple of the field width")
    fields = bits.reshape(-1, width).astype(np.int64)
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return fields @ weights


def xor_reduce(bits) -> int:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size == 0:
        return 0
    return int(np.bitwise_xor.reduce(arr))

"""numpy's ``SeedSequence`` hash, run on many entropies at once, and the one
rule for every integer a caller passes.

Every random stream of the package is keyed the way numpy keys it: the
harness's per-trial seeds are ``SeedSequence((seed, cell, trial))``, a
protocol's generator is ``default_rng(seed)`` and a direction's channel noise
is keyed by ``SeedSequence((seed, direction)).generate_state(1,
np.uint64)[0]``, the key of its SplitMix64 stream (see ``channel``).  A
``SeedSequence`` object runs its hash in a loop of its own for every key, so
``seed_states`` runs the same hash over a whole batch of entropies in uint32
array arithmetic, bit for bit.

The hash mixes an entropy's uint32 words into a pool of 4 words, then reads
its output off the pool.  Its multipliers step through fixed sequences that
do not depend on the data, so they are tabled here.  An entropy shorter than
the pool reads as if padded with zeros; each word past the pool is mixed into
every pool word in turn.

Every integer a caller passes goes through ``integers``, one rule with one
message: bools are no integers, and numpy integers come out as Python ints.
The public callers apply it once; the hash helpers take its checked ints.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFF
_POOL = 4
_XSHIFT = 16
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1,) uint32: init and its count successive products by mult."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK)
    return np.array(out, np.uint32)[:, None]


# the mixing steps: 4 words in, then 12 cross-mixes inside the pool
_MULT_A = 0x931E8875
_A = _constants(0x43B0D7E5, _MULT_A, _POOL * _POOL)
# the output steps, two per uint64 word; 8 cover every state the package reads
_B = _constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """numpy's hashmix, at steps const[:-1] (each step multiplies by the next)."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> _XSHIFT)


def integers(values, what: str, low: int = 0, high: float = np.inf) -> tuple[int, ...]:
    """One integer, or a non-empty sequence of them, in low..high as Python
    ints; else a ``ValueError`` that names what and the first bad value."""
    if not isinstance(values, (list, tuple, range)) and np.ndim(values) == 0:
        values = (values,)
    # each type is tested once; a bool is no int here, and np.bool_ no np.integer
    kinds = set(map(type, values))
    integral = {t for t in kinds if t is not bool and issubclass(t, (int, np.integer))}
    if len(values) and kinds == integral and low <= min(values) and max(values) <= high:
        return tuple(map(int, values))
    bad = next((v for v in values if type(v) not in integral or not low <= v <= high), values)
    span = f"of at least {low}" if high == np.inf else f"in {low}..{high}"
    raise ValueError(f"{what} must be an integer {span}, got {bad!r}")


def entropy_words(values) -> tuple[np.ndarray, np.ndarray]:
    """Each seed of values as SeedSequence reads it: its uint32
    words, least significant first, with 0 as one word.  Returns ``(R, W)``
    words, zero-padded, and each row's word count.  values are non-negative
    Python ints of any size, as ``integers`` returns them."""
    values = np.array(values, dtype=object)
    width = max(1, -(-max(values).bit_length() // 32))
    words = (values[:, None] >> np.arange(0, 32 * width, 32).astype(object) & _MASK)
    words = words.astype(np.uint32)
    # a row's count runs to its last nonzero word
    return words, np.maximum((words != 0) * np.arange(1, width + 1), 1).max(axis=1)


def seed_states(words: np.ndarray, lengths, k: int) -> np.ndarray:
    """``(R, k)`` uint64: row r is
    ``SeedSequence(entropy=<first lengths[r] of words[r]>).generate_state(k,
    np.uint64)``.  words is ``(R, W)`` uint32, zero-padded past each row's
    length; lengths may be None when every row holds all W words."""
    if not 1 <= k <= len(_B) // 2:
        raise ValueError(f"k must lie in 1..{len(_B) // 2}")
    words = np.asarray(words, np.uint32)
    pool = np.zeros((_POOL, len(words)), np.uint32)
    pool[: words.shape[1]] = words[:, :_POOL].T
    pool = _hashmix(pool, _A[: _POOL + 1])
    step = _POOL
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], _A[step : step + _POOL]))
        step += _POOL - 1
    const = int(_A[-1, 0])
    for j in range(_POOL, words.shape[1]):
        steps = _constants(const, _MULT_A, _POOL)  # word j meets every pool word in turn
        const = int(steps[-1, 0])
        mixed = _mix(pool, _hashmix(words[:, j], steps))
        pool = mixed if lengths is None else np.where(np.asarray(lengths) > j, mixed, pool)
    out = _hashmix(pool[np.arange(2 * k) % _POOL], _B[: 2 * k + 1]).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T

"""A pair of independent binary symmetric channels, one per direction.

Noise is deterministic given (noise_seed, direction, stream position): the
flip stream of each direction is generated block-wise from a counter-based
Philox generator keyed by seed, direction and block index.  Chunking the same
bits into different transmit() calls therefore cannot change the noise, which
keeps whole runs bit-reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_BLOCK = 4096


class Direction(enum.IntEnum):
    A_TO_B = 0
    B_TO_A = 1


@dataclass(frozen=True)
class DecodeEvent:
    """One block decode that did not return what was sent.

    stage: which message of the scheme it happened in, index: position of the
    message within that stage (column number, round number, ...).
    """

    stage: str
    index: int
    direction: Direction


@dataclass
class UsageLedger:
    """A run's wire record.  Channel uses per direction, which the rate is
    computed from; the info-bit size of every coded block sent, which the
    union-bound accounting consumes; and every decode that missed."""

    uses_ab: int = 0
    uses_ba: int = 0
    block_profile: list[int] = field(default_factory=list)
    decode_log: list[DecodeEvent] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.uses_ab + self.uses_ba


def binary_entropy(q):
    """Entropy of a Bernoulli(q) bit, in bits.  Accepts scalars or arrays."""
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("entropy argument must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(q > 0, q * np.log2(np.where(q > 0, q, 1)), 0.0) - np.where(
            q < 1, (1 - q) * np.log2(np.where(q < 1, 1 - q, 1)), 0.0
        )
    return float(h) if h.ndim == 0 else h


def shannon_capacity(eps):
    """1 - h(eps), the information limit per use of a BSC(eps)."""
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps < 0) or np.any(eps > 0.5):
        raise ValueError("crossover probability must lie in [0, 0.5]")
    c = 1.0 - binary_entropy(eps)
    return float(c) if np.ndim(c) == 0 else c


def rate_of(ledger: UsageLedger, n: int) -> Fraction:
    """Simulation rate 2n / (total channel uses), as an exact rational."""
    if ledger.total == 0:
        raise ValueError("no channel uses recorded")
    return Fraction(2 * n, ledger.total)


class ChannelPair:
    """Two BSC(epsilon) links with independent noise streams.

    transmit() flips each bit independently with probability epsilon and
    charges the use count to the ledger.  Positions advance per direction;
    the noise consumed depends only on the cumulative position.
    """

    def __init__(self, epsilon: float, noise_seed: int):
        if not 0 <= epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5)")
        self.epsilon = float(epsilon)
        self.noise_seed = int(noise_seed)
        self._pos = [0, 0]
        self._cached_block = [-1, -1]
        self._cached_flips = [None, None]

    def _flip_block(self, direction: int, block: int) -> np.ndarray:
        if self._cached_block[direction] != block:
            ss = np.random.SeedSequence(
                entropy=(self.noise_seed, int(direction), block)
            )
            rng = np.random.Generator(np.random.Philox(ss))
            self._cached_flips[direction] = (
                rng.random(_BLOCK) < self.epsilon
            ).astype(np.uint8)
            self._cached_block[direction] = block
        return self._cached_flips[direction]

    def _noise(self, direction: int, count: int) -> np.ndarray:
        start = self._pos[direction]
        self._pos[direction] = start + count
        out = np.empty(count, np.uint8)
        filled = 0
        while filled < count:
            pos = start + filled
            block, off = divmod(pos, _BLOCK)
            take = min(_BLOCK - off, count - filled)
            out[filled : filled + take] = self._flip_block(direction, block)[
                off : off + take
            ]
            filled += take
        return out

    def transmit(
        self, direction: Direction, bits: np.ndarray, ledger: UsageLedger
    ) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        count = bits.size
        if direction == Direction.A_TO_B:
            ledger.uses_ab += count
        else:
            ledger.uses_ba += count
        if self.epsilon == 0.0:
            self._pos[int(direction)] += count
            return bits.copy()
        return bits ^ self._noise(int(direction), count)

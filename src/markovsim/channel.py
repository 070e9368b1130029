"""A pair of independent binary symmetric channels, one per direction.

Noise is deterministic given (noise_seed, direction, stream position): the
flip stream of each direction is generated block-wise from a counter-based
Philox generator keyed by seed, direction and block index.  Chunking the same
bits into different transmit() calls therefore cannot change the noise, which
keeps whole runs bit-reproducible.

A channel pair may carry a batch of trials at once: it then holds one noise
seed per row, and each transmit() sends a ``(T, L)`` array whose row t sees
exactly the noise that a lone pair seeded with seed t would add.  All rows
advance together; a message charges each row L uses, and a ragged message,
which is the last a batch sends in its direction, each row its own count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_BLOCK = 4096  # flips per generator, keyed by (seed, direction, block)
_DRAW = 1024  # flips drawn from a block's generators at a time


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
    union-bound accounting consumes; and every decode that missed.

    A lone ledger holds int counts and one flat profile and decode_log.  A
    batch's ledger (``vertical.new_ledger``) holds one row per trial: int64
    arrays of counts, and one profile list and one decode_log list per row.
    row(t) reads trial t's own record.  ``vertical._book`` is the one writer
    of profiles and logs, and the one reader of which shape a ledger has."""

    uses_ab: int = 0
    uses_ba: int = 0
    block_profile: list[int] = field(default_factory=list)
    decode_log: list[DecodeEvent] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.uses_ab + self.uses_ba

    def row(self, t: int) -> UsageLedger:
        """Trial t's own ledger, with plain int counts."""
        return UsageLedger(
            int(self.uses_ab[t]), int(self.uses_ba[t]), self.block_profile[t], self.decode_log[t]
        )


def binary_entropy(q):
    """Entropy of a Bernoulli(q) bit, in bits.  Accepts scalars or arrays."""
    q = np.asarray(q, dtype=np.float64)
    if not np.all((q >= 0) & (q <= 1)):
        raise ValueError("entropy argument must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(q > 0, q * np.log2(np.where(q > 0, q, 1)), 0.0) - np.where(
            q < 1, (1 - q) * np.log2(np.where(q < 1, 1 - q, 1)), 0.0
        )
    return float(h) if h.ndim == 0 else h


def shannon_capacity(eps):
    """1 - h(eps), the information limit per use of a BSC(eps)."""
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all((eps >= 0) & (eps <= 0.5)):
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
    the noise consumed depends only on the cumulative position.  noise_seed
    is one seed, or a sequence of seeds with one per row of a batch.
    """

    def __init__(self, epsilon: float, noise_seed):
        if not 0 <= epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5)")
        self.epsilon = float(epsilon)
        noise_seed = (noise_seed,) if np.ndim(noise_seed) == 0 else noise_seed
        for seed in noise_seed:
            if not isinstance(seed, (int, np.integer)) or seed < 0:
                raise ValueError(f"noise seed must be a non-negative integer, got {seed}")
        self.noise_seeds = tuple(int(s) for s in noise_seed)
        # per direction: the position, the block being read, its generators
        # (one per row) and the flips drawn from them so far
        self._pos = [0, 0]
        self._block = [-1, -1]
        self._streams = [None, None]
        self._flips = [None, None]

    def _flips_upto(self, direction: int, block: int, end: int) -> np.ndarray:
        """(rows, >= end) flips from the start of one block of the direction's
        stream.  A block's generators give its flips in order, so flips are
        drawn a _DRAW at a time, as far as the messages reach."""
        if self._block[direction] != block:
            self._block[direction] = block
            self._streams[direction] = [
                np.random.Generator(
                    np.random.Philox(np.random.SeedSequence(entropy=(seed, direction, block)))
                )
                for seed in self.noise_seeds
            ]
            self._flips[direction] = np.empty((len(self.noise_seeds), 0), np.uint8)
        flips = self._flips[direction]
        have = flips.shape[1]
        if have < end:
            flips = np.empty((len(flips), min(_BLOCK, max(end, have + _DRAW))), np.uint8)
            flips[:, :have] = self._flips[direction]
            for row, rng in zip(flips, self._streams[direction]):
                row[have:] = rng.random(len(row) - have) < self.epsilon
            self._flips[direction] = flips
        return flips

    def _noise(self, direction: int, count: int) -> np.ndarray:
        """(rows, count) flips for the next count positions."""
        pos = self._pos[direction]
        self._pos[direction] = pos + count
        pieces = []
        while count:
            block, off = divmod(pos, _BLOCK)
            take = min(_BLOCK - off, count)
            pieces.append(self._flips_upto(direction, block, off + take)[:, off : off + take])
            pos += take
            count -= take
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)

    def transmit(
        self, direction: Direction, bits: np.ndarray, ledger: UsageLedger, uses=None
    ) -> np.ndarray:
        """Carry ``bits``, one message of L bits or a ``(T, L)`` batch with
        one row per noise seed, and charge L uses, or ``uses``: one count per
        row of a ragged message whose rows end before L."""
        bits = np.asarray(bits, dtype=np.uint8)
        count = bits.shape[-1]
        if direction == Direction.A_TO_B:
            ledger.uses_ab += count if uses is None else uses
        else:
            ledger.uses_ba += count if uses is None else uses
        if self.epsilon == 0.0 or count == 0:
            self._pos[int(direction)] += count
            return bits.copy()
        return bits ^ self._noise(int(direction), count).reshape(bits.shape)

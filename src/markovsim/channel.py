"""A pair of independent binary symmetric channels, one per direction.

Noise is a pure function of (noise_seed, direction, stream position).  Each
direction's flip stream is ``Generator(Philox(SeedSequence((seed,
direction)))).random(L) < epsilon``.  Philox is counter-based, so the flips
at any position are drawn by setting one reused Philox to the direction's
key and the position's counter; no generator is built per message.  Chunking
the same bits into different transmit() calls therefore cannot change the
noise, which keeps whole runs bit-reproducible.

Each message's flips cost one pass over the rows, so a scheme that knows how
many uses a batch will spend in a direction draws them all at once with
draw_ahead() and every transmit() inside that span slices the kept draw.
The span is only a cost hint: noise stays keyed by position, so a transmit
outside it draws its own flips, and no span can change an output.

A channel pair may carry a batch of trials at once: it then holds one noise
seed per row, and each transmit() sends a ``(T, L)`` array whose row t sees
exactly the noise that a lone pair seeded with seed t would add.  All rows
advance together; a message charges each row L uses, and a ragged message,
which is the last a batch sends in its direction, each row its own count.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _seeds

_PIECE = 1 << 16  # positions of a message drawn per row at once


class Direction(enum.IntEnum):
    A_TO_B = 0
    B_TO_A = 1


@dataclass(frozen=True)
class DecodeEvent:
    """One block decode that did not return what was sent.

    stage: which message of the scheme it happened in, index: the column
    number in the vertical exchange, and 1 for every other message, as each
    other stage is one message.
    """

    stage: str
    index: int
    direction: Direction


@dataclass
class UsageLedger:
    """A run's wire record.  Channel uses per direction, which the rate is
    computed from; how many coded blocks of each info-bit size were sent,
    which the union-bound accounting consumes; and every decode that missed.

    A lone ledger holds ints: its uses and a {size: count} dict.  A batch's
    ledger (``vertical.new_ledger``) holds one row per trial: int64 arrays
    of uses and of each size's count, and one decode_log list per row.
    row(t) reads trial t's own record.  ``vertical._book`` is the one writer
    of decode logs, and the one reader of which shape a ledger has."""

    uses_ab: int = 0
    uses_ba: int = 0
    block_counts: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    decode_log: list[DecodeEvent] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.uses_ab + self.uses_ba

    def row(self, t: int) -> UsageLedger:
        """Trial t's own ledger, with plain int uses and its nonzero counts."""
        counts = {size: n for size, c in self.block_counts.items() if (n := c.item(t))}
        return UsageLedger(self.uses_ab.item(t), self.uses_ba.item(t), counts, self.decode_log[t])


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

    It keeps epsilon, the two positions, one reused Philox, one key per
    row and direction, all derived at construction in one
    ``_seeds.seed_states`` call, and per direction the flips of its last
    draw_ahead() with their first position.
    """

    def __init__(self, epsilon: float, noise_seed):
        if isinstance(epsilon, (bool, np.bool_)) or not 0 <= epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5)")
        self.epsilon = float(epsilon)
        self.noise_seeds = _seeds.integers(noise_seed, "noise seed")
        self._pos = [0, 0]
        self._ahead = [(0, np.empty((len(self.noise_seeds), 0), bool))] * 2
        if self.epsilon:
            # (2, rows) keys, SeedSequence((seed, direction)) of each direction and row;
            # direction 0's word is the zero the padding left
            seeds, lengths = _seeds.entropy_words(self.noise_seeds)
            rows, width = seeds.shape
            words = np.zeros((2, rows, width + 1), np.uint32)
            words[..., :width] = seeds
            words[1, np.arange(rows), lengths] = 1
            keys = _seeds.seed_states(words.reshape(2 * rows, -1), np.tile(lengths + 1, 2), 2)
            self._keys = keys.reshape(2, rows, 2).tolist()
            self._philox = np.random.Philox(key=0)
            # random() < epsilon as a bound on the raw draw: random() is (raw >> 11) * 2**-53
            self._below = math.ceil(self.epsilon * 2.0**53) << 11

    def _noise(self, direction: int, start: int, count: int) -> np.ndarray:
        """(rows, count) flips at positions [start, start + count) of the
        direction's stream, a pure function of the seeds, direction, start
        and count.  A row's stream is what ``Generator(Philox(SeedSequence((seed,
        direction)))).random(L) < epsilon`` gives.  Philox is counter-based:
        each counter step gives 4 draws, so position p is reached by setting
        the counter to p // 4 and dropping p % 4 draws.  A long message is
        drawn _PIECE positions at a time, which bounds the raw draws held."""
        philox = self._philox
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        keys = self._keys[direction]
        flips = np.empty((len(keys), count), bool)
        for done in range(0, count, _PIECE):
            take = min(_PIECE, count - done)
            skip = (start + done) % 4
            state["state"]["counter"][0] = (start + done) // 4
            for row, key in zip(flips[:, done : done + take], keys):
                state["state"]["key"] = key
                philox.state = state
                np.less(philox.random_raw(skip + take)[skip:], self._below, out=row)
        return flips

    def draw_ahead(self, direction: Direction, uses: int) -> None:
        """Draw every row's flips at the direction's next ``uses`` positions
        now, in one _noise pass, and keep them, replacing any earlier draw of
        that direction: a later transmit() whose positions all lie inside
        slices them.  Nothing is drawn without noise or uses."""
        d = int(direction)
        if self.epsilon and uses:
            self._ahead[d] = (self._pos[d], self._noise(d, self._pos[d], uses))

    def transmit(
        self, direction: Direction, bits: np.ndarray, ledger: UsageLedger, uses=None
    ) -> np.ndarray:
        """Carry ``bits``, one message of L bits or a ``(T, L)`` batch with
        one row per noise seed, and charge L uses, or ``uses``: one count per
        row of a ragged message whose rows end before L."""
        bits = np.asarray(bits, dtype=np.uint8)
        if (rows := math.prod(bits.shape[:-1])) != len(self.noise_seeds):
            raise ValueError(f"{rows} message rows for {len(self.noise_seeds)} noise seeds")
        count = bits.shape[-1]
        if direction == Direction.A_TO_B:
            ledger.uses_ab += count if uses is None else uses
        else:
            ledger.uses_ba += count if uses is None else uses
        d = int(direction)
        start = self._pos[d]
        self._pos[d] = start + count
        if self.epsilon == 0.0 or count == 0:
            return bits.copy()
        lo, kept = self._ahead[d]
        if lo <= start and start + count <= lo + kept.shape[1]:
            flips = kept[:, start - lo : start - lo + count]
        else:
            flips = self._noise(d, start, count)
        return bits ^ flips.reshape(bits.shape)

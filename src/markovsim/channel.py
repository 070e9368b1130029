"""A pair of independent binary symmetric channels, one per direction.

Noise is a pure function of (noise_seed, direction, stream position).  Each
row and direction has one 64-bit key, ``SeedSequence((seed,
direction)).generate_state(1, np.uint64)[0]``, and ``draw(c)`` is the
SplitMix64 mix (shifts 30, 27 and 31, multipliers ``0xBF58476D1CE4E5B9`` and
``0x94D049BB133111EB``) of ``key + (c + 1) * 0x9E3779B97F4A7C15 mod 2**64``.
Use p flips when its 53-bit uniform U_p is below ``e = ceil(epsilon *
2**53)``, which is exactly the chance that ``random() < epsilon``.  With
w = p // 64 and j = p % 64, U_p's top 8 bits, most significant first, are
bit j of ``draw(8w + i)`` for i = 0..7.  Its low 45 bits are ``draw(2**63 +
p) >> 19``, read only when the top 8 bits equal e's (1 use in 256).  Any
word of the stream is one hash of its counter, so every row's flips at any
positions come out of one array pass, and chunking the same bits into
different transmit() calls cannot change the noise, which keeps whole runs
bit-reproducible.

Each message's flips cost one pass with a fixed overhead, so a scheme that
knows how many uses a batch will spend in a direction draws them all at once
with draw_ahead() and every transmit() inside that span slices the kept draw.
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

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its counter step, the golden
# ratio times 2**64, and its two multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_WORD = 64  # uses per hash word
_PLANES = 8  # hash words per 64 uses: each use's top 8 bits
_TAIL_BITS = 45  # each use's low bits, read only on a tie of its top 8
_TAIL = 1 << 63  # use p's low bits are draw(_TAIL + p)


def _draw(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """SplitMix64's word for each key at each counter c, broadcast: the mix of
    ``key + (c + 1) * _GAMMA`` mod 2**64."""
    z = keys + (counters + 1) * _GAMMA
    shifted = np.empty_like(z)  # reused: a fresh temporary per shift costs more than the shift
    z ^= np.right_shift(z, 30, out=shifted)
    z *= _MIX1
    z ^= np.right_shift(z, 27, out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, 31, out=shifted)
    return z


def _bits(words: np.ndarray) -> np.ndarray:
    """The bits of uint64 words, bit j of word w at w * 64 + j, as bools."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little").view(bool)


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
    """Two BSC(epsilon) links, one per direction, with the noise the module
    docstring states.  It keeps epsilon, e, its noise seeds (one, or one per
    row of a batch), each direction's position, the keys of every row and
    direction, all derived at construction in one ``_seeds.seed_states``
    call, and per direction the flips of its last draw_ahead() with their
    first position."""

    def __init__(self, epsilon: float, noise_seed):
        if isinstance(epsilon, (bool, np.bool_)) or not 0 <= epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5)")
        self.epsilon = float(epsilon)
        self.noise_seeds = _seeds.integers(noise_seed, "noise seed")
        self._pos = [0, 0]
        self._ahead = [(0, np.empty((len(self.noise_seeds), 0), bool))] * 2
        if self.epsilon:
            # (2, rows, 1) keys, SeedSequence((seed, direction)) of each direction and
            # row; direction 0's word is the zero the padding left
            seeds, lengths = _seeds.entropy_words(self.noise_seeds)
            rows, width = seeds.shape
            words = np.zeros((2, rows, width + 1), np.uint32)
            words[..., :width] = seeds
            words[1, np.arange(rows), lengths] = 1
            keys = _seeds.seed_states(words.reshape(2 * rows, -1), np.tile(lengths + 1, 2), 1)
            self._keys = keys.reshape(2, rows, 1)
            # a use flips when its 53-bit uniform is below this, as random() < epsilon
            # does with random() = (53 bits) * 2**-53
            self._below = math.ceil(self.epsilon * 2.0**53)

    def _noise(self, direction: int, start: int, count: int) -> np.ndarray:
        """(rows, count) flips at positions [start, start + count) of the
        direction's stream, as the module docstring states them.  One array
        pass settles every row's 64-use words: their 8 hash planes, compared
        with e's top bits most significant bit first (Knuth & Yao, 1976),
        leave a flip mask and a tie mask; then one hash per tied use, and one
        unpacking of the flip mask."""
        keys = self._keys[direction]
        lo, hi = start // _WORD, -(-(start + count) // _WORD)
        counters = np.arange(lo, hi, dtype=np.uint64) * _PLANES
        planes = _draw(keys, counters + np.arange(_PLANES, dtype=np.uint64)[:, None, None])
        top = self._below >> _TAIL_BITS
        below = np.zeros(planes.shape[1:], np.uint64)
        tie = ~below
        for i, zeros in enumerate(np.invert(planes, out=planes)):
            if top >> (_PLANES - 1 - i) & 1:  # a tied use whose bit is 0 falls below e
                below |= (drop := tie & zeros)
                tie ^= drop
            else:
                tie &= zeros
        flips = _bits(below)
        # the tied uses, as flat indices of flips (1-d searches: 2-d ones cost 8x)
        words = np.flatnonzero(tie)
        tied = np.flatnonzero(_bits(tie.reshape(-1)[words, None]))
        tied += (words[tied // _WORD] - tied // _WORD) * _WORD
        rows, at = np.divmod(tied, flips.shape[1])
        tail = _draw(keys[rows, 0], (at + _WORD * lo).astype(np.uint64) + _TAIL) >> 19
        flips.reshape(-1)[tied] = tail < self._below & (1 << _TAIL_BITS) - 1
        return flips[:, start - _WORD * lo : start - _WORD * lo + count]

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

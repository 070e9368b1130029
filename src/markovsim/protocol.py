"""Two-party protocols where each message is a one-bit function of the bit
last received.

Alice sends A_i = f_i(B_{i-1}) and Bob answers B_i = g_i(A_i), starting from
the convention B_0 = 0.  Every f_i and g_i is one of four functions of a bit:
identity, negation, constant 0, constant 1.  The two constant functions are
"stuck": their output ignores the input, which is what the simulation schemes
exploit.  The other two are "additive", output = input XOR offset.

Protocols and transcripts may carry a leading axis: ``(T, n)`` arrays hold a
batch of T protocols of one length, which the schemes run side by side.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels, _seeds


class TransmitFn(enum.IntEnum):
    """Function codes; the integer value doubles as the wire digit."""

    MU1 = 1  # y -> y
    MU2 = 2  # y -> y ^ 1
    MU3 = 3  # y -> 0
    MU4 = 4  # y -> 1


def eval_fn(fn: int, bit: int) -> int:
    """Apply one transmission function to one bit."""
    fn = int(fn)
    if fn <= 2:
        return (bit ^ (fn - 1)) & 1
    return fn - 3


def eval_fn_array(codes: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Vectorized eval_fn over parallel arrays of codes and input bits.

    Each code carries one bit, (code - 1) & 1: the XOR offset of an additive
    function and the output of a stuck one.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    inputs = np.asarray(inputs, dtype=np.uint8)
    return ((codes - 1) & 1) ^ (inputs & (codes <= 2))


def _as_fn_codes(seq) -> np.ndarray:
    arr = np.asarray(seq)
    if arr.ndim not in (1, 2):
        raise ValueError("function sequence must be one row or a batch of rows")
    if arr.size == 0:
        raise ValueError("protocol length must be at least 1")
    # only integers are codes: a float, string or bool is never cast into one
    if arr.dtype.kind not in "iu" or arr.min() < 1 or arr.max() > 4:
        raise ValueError("function codes must lie in 1..4")
    arr = arr.astype(np.uint8)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Protocol:
    """Alice's functions ``f`` and Bob's functions ``g``, one pair per round.

    Arrays are uint8 codes 1..4, of shape (n,), or (T, n) for a batch, and
    are frozen after construction, so a Protocol can be shared across trials
    and threads.
    """

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _as_fn_codes(self.f))
        object.__setattr__(self, "g", _as_fn_codes(self.g))
        if self.f.shape != self.g.shape:
            raise ValueError("f and g must have the same length")

    @property
    def n(self) -> int:
        return self.f.shape[-1]


def lone_or_batch(scheme):
    """Let a scheme of (T, n) batches run a lone protocol as its batch's row 0."""

    @functools.wraps(scheme)
    def run(p: Protocol, *args, **kwargs):
        if p.f.ndim == 1:
            return scheme(Protocol(p.f[None], p.g[None]), *args, **kwargs).row(0)
        return scheme(p, *args, **kwargs)

    return run


@dataclass(frozen=True)
class Transcript:
    """The 2n exchanged bits, split into Alice's messages and Bob's (per
    row of a batch).

    ``a`` and ``b`` are the uint8 arrays the schemes computed, held as they
    are, not copied; a batch report's rows hold row views of its arrays.
    """

    a: np.ndarray
    b: np.ndarray


def simulate_reference(p: Protocol) -> Transcript:
    """Noiseless transcript of ``p`` (of each protocol of a batch) from B_0 = 0.

    This is the ground truth of every scheme run.  The reports check each
    view round by round (vertical.finish_report), which is equivalent.
    """
    a, b = _kernels.markov_chain(p.f, p.g, 0)
    return Transcript(a, b)


# PCG64's 128-bit LCG multiplier
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_PCG_MASK = (1 << 128) - 1


def gen_uniform_protocol(n: int, seed) -> Protocol:
    """Protocol with all 2n functions drawn iid uniform over the four codes,
    as ``rng = default_rng(seed)`` draws f, then g, with ``rng.integers(1, 5,
    n, np.uint8)``.  seed is one seed, or a sequence of seeds for a ``(T, n)``
    batch with row t drawn from seed t.

    The seeds' PCG64 states come from one ``_seeds.seed_states`` call, and
    one PCG64 is reused for every row.  numpy draws a uint8 in 1..4 as 1 plus
    the top two bits of the next byte of its 32-bit stream (Lemire's method
    never rejects for a range of 4), so f takes the bytes of the first
    ⌈n/4⌉ 32-bit words and g those of the next ⌈n/4⌉: ⌈n/4⌉ raw 64-bit
    draws per row."""
    (n,) = _seeds.integers((n,), "n", 1)
    seeds = _seeds.integers(seed, "protocol seed")
    states = _seeds.seed_states(*_seeds.entropy_words(seeds), 4).tolist()
    words = -(-n // 4)
    pcg = np.random.PCG64(0)
    raw = np.empty((len(states), words), np.uint64)
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(raw, states):
        # PCG64's seeding step: state 0, step, add the initial state, step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _PCG_MASK
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _PCG_MASK
        pcg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
        row[:] = pcg.random_raw(words)
    codes = raw.astype("<u8", copy=False).view(np.uint8)  # the bytes in stream order
    codes >>= 6
    codes += 1
    f, g = codes[:, :n], codes[:, 4 * words : 4 * words + n]
    return Protocol(f[0], g[0]) if np.ndim(seed) == 0 else Protocol(f, g)


def serialize_protocol(p: Protocol) -> str:
    """One-line text form, e.g. ``f=13 g=24``."""
    return "f={} g={}".format(
        "".join(str(int(v)) for v in p.f), "".join(str(int(v)) for v in p.g)
    )


def parse_protocol(line: str) -> Protocol:
    """Inverse of serialize_protocol.  Raises ValueError on malformed input."""
    tokens = line.split()
    if len(tokens) != 2 or not tokens[0].startswith("f=") or not tokens[1].startswith("g="):
        raise ValueError(f"expected 'f=<digits> g=<digits>', got {line!r}")
    digits_f, digits_g = tokens[0][2:], tokens[1][2:]
    for name, digits in (("f", digits_f), ("g", digits_g)):
        if not digits or any(c not in "1234" for c in digits):
            raise ValueError(f"{name} digits must be a nonempty string over 1..4")
    if len(digits_f) != len(digits_g):
        raise ValueError("f and g must have the same length")
    f = np.frombuffer(digits_f.encode(), dtype=np.uint8) - ord("0")
    g = np.frombuffer(digits_g.encode(), dtype=np.uint8) - ord("0")
    return Protocol(f, g)

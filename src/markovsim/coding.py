"""Block codes for the noisy links plus random-coding error exponents.

Three code families share one encoder, encode_payload, and one decoder,
decode_payload: identity (no protection), odd-length repetition with majority
decoding, and seeded random linear codes with exact maximum-likelihood
decoding.  Exact ML rests on an exhaustive search of the codebook, so
random-linear info blocks are capped at ML_SEARCH_CAP bits; longer payloads
are split into consecutive sub-blocks, and the union-bound accounting treats
the sub-blocks as additional independent blocks.

A random-linear code is held as its packed codebook, every codeword in
info-word order, built once per code object.  A spec whose seed is a tuple
holds one drawn code per trial of a batch, as one stacked codebook.  Payloads
carry a leading trial axis, ``(T, L)``, and row t is coded with code t.
Encoding looks the sub-blocks' codewords up in the codebooks; decoding
searches them for all sub-blocks of a message, over all trials, in one
batched kernel call.  A message of more sub-blocks per trial than one search
chunk holds first goes through a certified shortcut: each of a few
information sets of the code gives one candidate codeword, which is the ML
answer for certain when it lies within ⌊(d_min − 1)/2⌋ of the received
sub-block.  The sub-blocks that no candidate certifies go through the
exhaustive search in one call, so every answer, ties included, is the
search's.  Smaller messages, such as the schemes' per-column ones, skip the
shortcut: its set-up and pass cost more than their search.

Exponent conventions: rates and gallager_e0 / gallager_exponent values are in
bits.  The block-error bound for l independently coded blocks of b info bits
each at rate R is min(1, l * exp(-(b/R) * Er_nats)) with Er_nats = Er * ln 2,
which is computed here as l * 2**(-(b/R) * Er).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import _kernels
from .bits import bits_to_ints, ints_to_bits

ML_SEARCH_CAP = 20

# information sets per random linear code for the certified shortcut
_INFO_SETS = 4


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Repetition:
    r: int

    def __post_init__(self):
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError("repetition factor must be odd and positive")


@dataclass(frozen=True)
class RandomLinear:
    """Rate-``rate`` code over info blocks of ``k`` bits.

    The generator matrix is Bernoulli(1/2), drawn from ``code_seed``; a seed
    of None marks a spec whose matrix is to be drawn per run, and a tuple of
    seeds holds one matrix per trial of a batch.  Decoding is exact ML with
    ties broken toward the lexicographically smallest info word.
    """

    k: int
    rate: Fraction
    code_seed: Union[None, int, tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "rate", Fraction(self.rate))
        if not 1 <= self.k <= ML_SEARCH_CAP:
            raise ValueError(f"info block length must lie in 1..{ML_SEARCH_CAP}")
        if not 0 < self.rate <= 1:
            raise ValueError("code rate must lie in (0, 1]")
        for seed in self.code_seed if isinstance(self.code_seed, tuple) else (self.code_seed,):
            if seed is not None and seed < 0:
                raise ValueError(f"code seed must be non-negative, got {seed}")

    @functools.cached_property
    def nc(self) -> int:
        return -(-self.k * self.rate.denominator // self.rate.numerator)

    @functools.cached_property
    def codebooks(self) -> np.ndarray:
        """``(codes, 2**k, words)`` packed codebooks, one per seed.  Row i of a
        codebook is the codeword of the info word i read MSB-first.  Built on
        first use and kept with this spec."""
        if self.code_seed is None:
            raise ValueError("random linear code needs a concrete seed before use")
        seeds = self.code_seed
        if not isinstance(seeds, tuple):
            seeds = (seeds,)
        gp = np.stack([_kernels.pack_bits(_rlc_matrix(self.k, self.nc, s)) for s in seeds])
        # built by doubling from the least significant index bit upward
        cb = np.zeros((len(seeds), 1, gp.shape[2]), dtype=np.uint64)
        for s in range(self.k):
            cb = np.concatenate([cb, cb ^ gp[:, self.k - 1 - s, None]], axis=1)
        cb.flags.writeable = False
        return cb

    @functools.cached_property
    def info_sets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per code, _INFO_SETS information sets and the radius within which
        a codeword is the unique nearest one, for ``_kernels.certified_index``.

        Returns (positions, rows, radius).  positions and rows are
        ``(codes, k, sets)``: entry [c, r, s] is the column of set s that
        pivots on row r, and that row of G_I⁻¹ as an info index, so that
        y_I · G_I⁻¹ is the XOR of the rows at y's ones on I.  radius is
        t = ⌊(d_min − 1)/2⌋ per code, with d_min the least weight of a
        codeword of a nonzero info word.  A singular G has d_min = 0 and
        t = −1, so nothing is certified, and its rows are never read.

        Set s takes the first k independent columns from column s·nc/sets
        on, cyclically.  Gauss-Jordan runs on all codes and sets at once:
        rows of G_I⁻¹ start as the identity, and each column is reduced by
        them before it is taken as a pivot or skipped as dependent.
        """
        k, nc = self.k, self.nc
        books = self.codebooks
        dtype = np.uint16 if k <= 16 else np.uint32
        unit = (1 << np.arange(k - 1, -1, -1)).astype(dtype)
        # G's rows are the codewords of the unit info words
        g = np.unpackbits(books[:, unit].view(np.uint8), axis=-1, count=nc,
                          bitorder="little")
        columns = (g.astype(dtype) * unit[:, None]).sum(axis=1, dtype=dtype)
        order = (np.arange(_INFO_SETS)[:, None] * nc // _INFO_SETS + np.arange(nc)) % nc
        columns = columns[:, None, order]  # (codes, 1, sets, nc): each set's order
        shape = (len(books), k, _INFO_SETS)
        rows = np.broadcast_to(unit[:, None], shape).copy()
        positions = np.zeros(shape, np.intp)
        free = np.ones(shape, bool)
        for j in range(nc):
            # the column reduced by the rows so far, one bit per row
            v = (np.bitwise_count(rows & columns[..., j]) & 1).astype(bool)
            # the first free row the column reaches, if any; none leaves the
            # rows as they are
            reach = v & free
            pivot = (np.arange(k)[:, None] == reach.argmax(axis=1)[:, None]) & reach
            rows ^= (v ^ pivot) * (rows * pivot).max(axis=1, keepdims=True)
            positions = np.where(pivot, order[:, j], positions)
            free ^= pivot
            if not free.any():
                break
        # d_min over as many codebooks at a time as one search chunk holds
        step = max(1, _kernels._CHUNK_ENTRIES >> k)
        d_min = np.concatenate([
            np.bitwise_count(books[c : c + step, 1:])
            .sum(axis=-1, dtype=np.min_scalar_type(nc)).min(axis=1)
            for c in range(0, len(books), step)
        ])
        return positions, rows, (d_min.astype(np.int64) - 1) // 2


CodeSpec = Union[Identity, Repetition, RandomLinear]


def nominal_rate(code: CodeSpec) -> Fraction:
    if isinstance(code, Identity):
        return Fraction(1)
    if isinstance(code, Repetition):
        return Fraction(1, code.r)
    return code.rate


def _rlc_matrix(k: int, nc: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(k, nc), dtype=np.uint8)


def _rlc_books(code: RandomLinear, payload: np.ndarray) -> np.ndarray:
    """The code's codebook stack, checked against a payload: one codebook
    per row of a batch, or one shared by all rows."""
    books = code.codebooks
    if len(books) not in (1, len(payload) if payload.ndim > 1 else 1):
        raise ValueError(f"{len(books)} codes for a payload of shape {payload.shape}")
    return books


def payload_blocks(code: CodeSpec, info_len: int) -> list[int]:
    """Info-bit sizes of the coded blocks a payload of info_len bits becomes."""
    if info_len == 0:
        return []
    if isinstance(code, RandomLinear):
        return [code.k] * (-(-info_len // code.k))
    return [info_len]


def coded_length(code: CodeSpec, info_len):
    """Channel uses of a payload of info_len bits, or of each of an array of
    lengths."""
    if isinstance(code, Identity):
        return info_len
    if isinstance(code, Repetition):
        return info_len * code.r
    return -(-info_len // code.k) * code.nc


def encode_payload(code: CodeSpec, bits) -> np.ndarray:
    """The one encoder: encode an arbitrary-length payload, or each row of a
    ``(T, L)`` batch, splitting and zero-padding RandomLinear info blocks as
    needed."""
    bits = np.asarray(bits, dtype=np.uint8)
    if isinstance(code, Identity):
        return bits.copy()
    if isinstance(code, Repetition):
        return np.repeat(bits, code.r, axis=-1)
    length = bits.shape[-1]
    if length == 0:
        return bits.copy()
    pad = (-length) % code.k
    if pad:
        bits = np.concatenate([bits, np.zeros(bits.shape[:-1] + (pad,), np.uint8)], -1)
    books = _rlc_books(code, bits)
    # row t looks up its info words in book t, or all rows in one shared book
    words = books[np.arange(len(books))[:, None], bits_to_ints(bits, code.k)]
    coded = np.unpackbits(words.view(np.uint8), axis=-1, count=code.nc, bitorder="little")
    return coded.reshape(bits.shape[:-1] + (-1,))


def decode_payload(code: CodeSpec, received, info_len: int) -> np.ndarray:
    """The one decoder: decode a payload produced by encode_payload back to
    info_len bits (per row of a batch)."""
    received = np.asarray(received, dtype=np.uint8)
    if received.shape[-1] != coded_length(code, info_len):
        raise ValueError("received length does not match the payload layout")
    if isinstance(code, Identity):
        return received.copy()
    if isinstance(code, Repetition):
        votes = received.reshape(received.shape[:-1] + (-1, code.r))
        votes = votes.sum(axis=-1, dtype=np.min_scalar_type(code.r))
        return (votes > code.r // 2).astype(np.uint8)
    if info_len == 0:
        return np.empty(received.shape[:-1] + (0,), np.uint8)
    books = _rlc_books(code, received)
    bits = received.reshape(-1, received.shape[-1] // code.nc, code.nc)
    packed = _kernels.pack_bits(bits.reshape(-1, code.nc))
    packed = packed.reshape(bits.shape[:-1] + packed.shape[-1:])
    # the shortcut pays once a message outgrows one search chunk per trial
    if bits.shape[1] <= _kernels._CHUNK_ENTRIES >> code.k:
        info = _kernels.ml_decode_index(books, packed)
    else:
        tables = books, *code.info_sets
        if len(books) != len(bits):  # a shared code's tables, viewed once per trial
            tables = [np.broadcast_to(a, (len(bits),) + a.shape[1:]) for a in tables]
        info, hit = _kernels.certified_index(tables[0], bits, packed, *tables[1:])
        # each row's uncertified sub-blocks, moved to the front and padded
        rows, cols = np.nonzero(~hit)
        if rows.size:
            slot = (np.cumsum(~hit, axis=1) - 1)[rows, cols]
            misses = np.zeros((len(hit), slot.max() + 1, packed.shape[-1]), np.uint64)
            misses[rows, slot] = packed[rows, cols]
            info[rows, cols] = _kernels.ml_decode_index(books, misses)[rows, slot]
    info = info.reshape(received.shape[:-1] + info.shape[-1:])
    return ints_to_bits(info, code.k)[..., :info_len]


# ---------------------------------------------------------------------------
# error exponents


@dataclass(frozen=True)
class ExponentQuery:
    rate: float
    epsilon: float

    def __post_init__(self):
        if not 0 <= self.rate < 1:
            raise ValueError("rate must lie in [0, 1)")
        if not 0 <= self.epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5)")


def gallager_e0(rho, eps: float):
    """E0(rho) for the BSC with a uniform input, in bits; rho may be an array."""
    r = np.asarray(rho)
    if not np.all((r >= 0) & (r <= 1)):
        raise ValueError("rho must lie in [0, 1]")
    inner = eps ** (1.0 / (1.0 + rho)) + (1.0 - eps) ** (1.0 / (1.0 + rho))
    return rho - (1.0 + rho) * np.log2(inner)


@functools.lru_cache(maxsize=4096)
def _exponent(rate: float, eps: float) -> float:
    if eps == 0.0:
        # E0(rho) = rho, so the maximum of rho(1 - R) sits at rho = 1
        return 1.0 - rate
    lo, hi = 0.0, 1.0
    best = 0.0
    for npts in (513, 65, 65, 65):
        rho = np.linspace(lo, hi, npts)
        vals = gallager_e0(rho, eps) - rho * rate
        i = int(np.argmax(vals))
        best = float(vals[i])
        step = (hi - lo) / (npts - 1)
        lo = max(0.0, rho[i] - step)
        hi = min(1.0, rho[i] + step)
    return max(0.0, best)


def gallager_exponent(q: ExponentQuery) -> float:
    """Random-coding exponent max over rho in [0,1] of E0(rho) - rho*rate.

    Strictly positive below capacity, zero at and above it.  Units: bits.
    """
    return _exponent(float(q.rate), float(q.epsilon))


def lemma1_bound(l: int, b: int, rate, eps: float) -> float:
    """Union bound on the probability that any of ``l`` independently coded
    blocks of ``b`` info bits decodes wrongly at code rate ``rate``.

    Returns min(1, l * 2**(-(b/rate) * Er)).  At eps = 0 decoding is always
    exact and the bound is reported as 0.  Rates at or above channel capacity
    are rejected since the exponent premise fails there.
    """
    if l < 1 or b < 1:
        raise ValueError("need at least one block of at least one bit")
    rate = float(rate)
    if not 0 < rate <= 1:
        raise ValueError("rate must lie in (0, 1]")
    if eps == 0:
        return 0.0
    cap = 1.0 - (-eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps))
    if rate >= cap:
        raise ValueError(
            f"rate {rate} is not below the channel limit 1 - h(eps) = {cap:.6f}"
        )
    er = _exponent(rate, float(eps))
    return min(1.0, l * 2.0 ** (-(b / rate) * er))


def union_bound_profile(blocks, rate, eps: float) -> float:
    """lemma1_bound generalized to a mixed profile of block sizes."""
    blocks = list(blocks)
    if not blocks or eps == 0:
        return 0.0
    rate = float(rate)
    er = _exponent(rate, float(eps))
    total = sum(2.0 ** (-(b / rate) * er) for b in blocks)
    return min(1.0, total)


# ---------------------------------------------------------------------------
# spec strings


def parse_code_spec(text: str) -> CodeSpec:
    """Parse 'identity', 'repR' (odd R) or 'rlc:k=K,rate=R[,seed=S]'."""
    text = text.strip()
    if text == "identity":
        return Identity()
    if text.startswith("rep"):
        try:
            r = int(text[3:])
        except ValueError:
            raise ValueError(f"bad repetition spec {text!r}") from None
        return Repetition(r)
    if text.startswith("rlc:"):
        fields = {}
        for part in text[4:].split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ValueError(f"bad random linear field {part!r}")
            fields[key.strip()] = value.strip()
        unknown = set(fields) - {"k", "rate", "seed"}
        if unknown or "k" not in fields or "rate" not in fields:
            raise ValueError(f"random linear spec needs k= and rate=, got {text!r}")
        seed = int(fields["seed"]) if "seed" in fields else None
        return RandomLinear(int(fields["k"]), Fraction(fields["rate"]), seed)
    raise ValueError(f"unknown code spec {text!r}")

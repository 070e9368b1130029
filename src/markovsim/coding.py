"""Block codes for the noisy links plus random-coding error exponents.

Three code families share one encoder, encode_payload, and one decoder,
decode_with_ties (decode_payload returns its bits): identity (no protection),
odd-length repetition with majority decoding, and seeded random linear codes
with exact maximum-likelihood decoding.  Exact ML rests on an exhaustive search of the codebook, so
random-linear info blocks are capped at ML_SEARCH_CAP bits; longer payloads
are split into consecutive sub-blocks, and the union-bound accounting treats
the sub-blocks as additional independent blocks.

A random-linear code is held as its packed codebook, every codeword in
info-word order, built once per code object.  A spec whose seed is a tuple
holds one drawn code per trial of a batch, as one stacked codebook.  Payloads
carry a leading trial axis, ``(T, L)``, and row t is coded with code t;
only ``_rlc_books`` views a code shared by all rows once per row.
Encoding looks the sub-blocks' codewords up in the codebooks.  Decoding
takes all sub-blocks of a message, over all trials, through at most two
batched kernel calls.  Every message first goes through a certified
shortcut: each of a few information sets of the code gives one candidate
codeword, which is the ML answer for certain when it lies within
⌊(d_min − 1)/2⌋ of the received sub-block.  The sub-blocks that no
candidate certifies go through the exhaustive search in one call, so every
answer, ties included, is the search's.  The search also reports which
tied, and redecode_tied searches only those to decode encode(x) ^ received.

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

from . import _kernels, _seeds
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
        object.__setattr__(self, "r", _seeds.integers((self.r,), "repetition factor", 1)[0])
        if self.r % 2 == 0:
            raise ValueError(f"repetition factor must be odd, got {self.r}")


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
        try:  # Fraction(True) is a rate-1 code, and Fraction(np.True_) a TypeError
            rate = 0 if isinstance(self.rate, bool) else Fraction(self.rate)
            if isinstance(self.rate, float):
                # 1/3 is no float: read the fraction of denominator at most 2**26 that
                # rounds to it; two such lie further apart than a float's rounding
                # interval in (0, 1], so at most one does
                near = rate.limit_denominator(1 << 26)
                rate = near if float(near) == self.rate else rate
        except (TypeError, ValueError, OverflowError):
            rate = 0
        if not 0 < rate <= 1:
            raise ValueError("code rate must lie in (0, 1]")
        object.__setattr__(self, "rate", rate)
        (k,) = _seeds.integers((self.k,), "info block length k", 1, ML_SEARCH_CAP)
        object.__setattr__(self, "k", k)
        if self.code_seed is not None:
            stack = isinstance(self.code_seed, tuple)
            seeds = _seeds.integers(self.code_seed if stack else (self.code_seed,), "code seed")
            object.__setattr__(self, "code_seed", seeds if stack else seeds[0])

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
        seeds = self.code_seed if isinstance(self.code_seed, tuple) else (self.code_seed,)
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
        # d_min in one pass: its weights take 1/8 of the codebooks' memory
        weight = np.bitwise_count(books[:, 1:]).sum(axis=-1, dtype=np.min_scalar_type(nc))
        return positions, rows, (weight.min(axis=1).astype(np.int64) - 1) // 2


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


def _rlc_books(code: RandomLinear, payload: np.ndarray, *tables) -> tuple:
    """The code's codebooks and the other per-code tables passed in, one per
    payload row: the one place where a code meets a batch.  Only a shared
    code is viewed per row, as np.broadcast_to costs µs a call."""
    tables = code.codebooks, *tables
    rows = len(payload) if payload.ndim > 1 else 1
    if len(tables[0]) not in (1, rows):
        raise ValueError(f"{len(tables[0])} codes for {rows} payload rows")
    if len(tables[0]) != rows:
        tables = tuple(np.broadcast_to(a, (rows,) + a.shape[1:]) for a in tables)
    return tables


def payload_blocks(code: CodeSpec, info_len):
    """(size, count): a payload of info_len bits, or each of an array of
    lengths, becomes count coded blocks of size info bits."""
    if isinstance(code, RandomLinear):
        return code.k, -(-info_len // code.k)
    return info_len, (info_len > 0) * 1


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
    needed.  Identity returns its uint8 input itself; the channel copies."""
    bits = np.asarray(bits, dtype=np.uint8)
    if isinstance(code, Identity):
        return bits
    if isinstance(code, Repetition):
        return np.repeat(bits, code.r, axis=-1)
    pad = (-bits.shape[-1]) % code.k
    if pad:
        bits = np.concatenate([bits, np.zeros(bits.shape[:-1] + (pad,), np.uint8)], -1)
    (books,) = _rlc_books(code, bits)
    # row t looks up its info words in book t
    words = books[np.arange(len(books))[:, None], bits_to_ints(bits, code.k)]
    coded = np.unpackbits(words.view(np.uint8), axis=-1, count=code.nc, bitorder="little")
    return coded.reshape(bits.shape[:-1] + (-1,))


def decode_payload(code: CodeSpec, received, info_len: int) -> np.ndarray:
    """The one decoder's bits: decode a payload produced by encode_payload
    back to info_len bits (per row of a batch).  Identity returns
    ``received`` itself, the channel's copy."""
    return decode_with_ties(code, received, info_len)[0]


def decode_with_ties(code: CodeSpec, received, info_len: int) -> tuple:
    """The one decoder: (bits, tied).  tied marks each sub-block of a random
    linear code whose nearest codeword is not unique, so that the tie rule
    chose; certified sub-blocks never tie.  It is None for identity and
    repetition codes, which decode bit by bit and never tie."""
    received = np.asarray(received, dtype=np.uint8)
    if received.shape[-1] != coded_length(code, info_len):
        raise ValueError("received length does not match the payload layout")
    if isinstance(code, Identity):
        return received, None
    if isinstance(code, Repetition):
        # strided adds: a sum over a last axis of length r runs group by group
        votes = received[..., 0 :: code.r].astype(np.min_scalar_type(code.r))
        for i in range(1, code.r):
            votes += received[..., i :: code.r]
        return (votes > code.r // 2).astype(np.uint8), None
    if info_len == 0:
        return received, received.astype(bool)
    bits = received.reshape(-1, received.shape[-1] // code.nc, code.nc)
    packed = _kernels.pack_bits(bits)
    books, *sets = _rlc_books(code, bits, *code.info_sets)
    info, hit = _kernels.certified_index(books, bits, packed, *sets)
    miss, tied = ~hit, np.zeros(hit.shape, bool)
    if miss.any():
        info[miss], tied[miss] = _kernels.ml_decode_index(books, np.nonzero(miss)[0], packed[miss])
    info = ints_to_bits(info, code.k).reshape(received.shape[:-1] + (-1,))
    return info[..., :info_len], tied.reshape(received.shape[:-1] + (-1,))


def redecode_tied(code: RandomLinear, received, sent, bits, tied) -> np.ndarray:
    """decode_payload(code, encode_payload(code, sent) ^ received, …) ^ sent
    for a sent of whole blocks, from (bits, tied) = decode_with_ties(code,
    received, …).  Ties and certificates are translation invariant, so only
    the tied sub-blocks are searched again, as codebook[t, x] ^ received."""
    tied = tied.reshape(-1, tied.shape[-1])
    t, j = np.nonzero(tied)
    if not t.size:
        return bits
    (books,) = _rlc_books(code, tied)
    x = bits_to_ints(np.reshape(sent, tied.shape + (code.k,))[t, j], code.k)  # (n, 1)
    words = _kernels.pack_bits(np.reshape(received, tied.shape + (code.nc,))[t, j])
    index = _kernels.ml_decode_index(books, t, words ^ books[t, x[:, 0]])[0]
    out = bits.copy()
    out.reshape(tied.shape + (code.k,))[t, j] = ints_to_bits(index[:, None] ^ x, code.k)
    return out


# ---------------------------------------------------------------------------
# error exponents


@dataclass(frozen=True)
class ExponentQuery:
    rate: float
    epsilon: float

    def __post_init__(self):
        if isinstance(self.rate, (bool, np.bool_)) or not 0 <= self.rate < 1:
            raise ValueError("rate must lie in [0, 1)")
        if isinstance(self.epsilon, (bool, np.bool_)) or not 0 <= self.epsilon < 0.5:
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


def union_bound_profile(counts, code: CodeSpec, eps: float) -> float:
    """Union bound on any block of a run decoding wrongly: min(1, the sum of
    count * term(size) over ``counts``, a {size: count} mapping), rounded
    correctly by math.fsum whatever the order of the counts or the Python.
    A random linear block of b info bits at rate R takes the ensemble term
    2**(-(b/R) * Er); a repetition block (identity is r = 1) fails with
    exactly 1 - (1 - p_r)**b, for p_r = P(Binomial(r, eps) > r/2)."""
    if eps == 0:
        return 0.0
    if isinstance(code, RandomLinear):
        rate = float(code.rate)
        er = _exponent(rate, float(eps))
        terms = [c * 2.0 ** (-(b / rate) * er) for b, c in counts.items()]
    else:
        log_ok = _log_bit_ok(getattr(code, "r", 1), float(eps))
        terms = [-c * math.expm1(b * log_ok) for b, c in counts.items()]
    return min(1.0, math.fsum(terms))


@functools.lru_cache(maxsize=64)
def _log_bit_ok(r: int, eps: float) -> float:
    """log(1 - p_r), for p_r = P(Binomial(r, eps) > r/2), a majority vote's bit error."""
    return math.log1p(-math.fsum(math.comb(r, j) * eps**j * (1 - eps) ** (r - j)
                                 for j in range(r // 2 + 1, r + 1)))


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
            key, _, value = (s.strip() for s in part.partition("="))
            if not value:
                raise ValueError(f"bad random linear field {part!r}")
            if key in fields:
                raise ValueError(f"random linear field {key!r} given twice in {text!r}")
            fields[key] = value
        unknown = set(fields) - {"k", "rate", "seed"}
        if unknown or "k" not in fields or "rate" not in fields:
            raise ValueError(f"random linear spec needs k= and rate=, got {text!r}")
        args = {}
        for key, value in fields.items():
            try:
                args[key] = (Fraction if key == "rate" else int)(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot read random linear field {key}={value!r} "
                                 f"in {text!r}") from None
        return RandomLinear(args["k"], args["rate"], args.get("seed"))
    raise ValueError(f"unknown code spec {text!r}")

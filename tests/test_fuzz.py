"""Seeded noisy fuzz over every scheme and code family.

Each case draws a scheme, a code (identity, rep1, rep3 or a random linear
code with k <= 8), eps from {0.01, 0.05, 0.1}, n from 1..400 and, for
scheme2, a random block length.  identity and rep1 run above capacity on
purpose: a run may fail there, but it may never raise.  Every run must

- return a report without raising;
- hold each party's transcript halves as uint8 arrays of shape (n,);
- be ok whenever its decode log is empty;
- spend exactly the channel uses its message layout sets, per direction.

The layout budgets below are written out from the message sizes, not read
from the schemes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import markovsim as ms
from markovsim import scheme_random as sr
from markovsim.coding import coded_length

CASES = 900
EPS = (0.01, 0.05, 0.1)


def layout_uses(scheme: str, p: ms.Protocol, code, m: int | None) -> tuple[int, int]:
    """(uses A->B, uses B->A) of one run, from the scheme's message sizes."""
    C = lambda bits: coded_length(code, bits)  # noqa: E731
    n = p.n
    if scheme == "baseline":
        return C(2 * n), C(n)
    if scheme == "scheme2":
        m = m or sr.ceil_isqrt(n)
        blocks, width = -(-n // m), m.bit_length()
        column = m * C(blocks)
        return C(blocks * width) + column, C(blocks * width) + C(blocks) + column
    w = sr.ceil_isqrt(n)
    starts = sr.find_partition(p.f).starts
    q = starts.size
    field = max(1, (n - 1).bit_length())
    n_pad = max(n, int(starts[-1]) + w - 1)
    part_b = n_pad - q * w
    r4 = next(r for r in range(1, n + 2) if r**4 >= n)
    if q > r4:  # vertical Part A with the Part B tail in the last column
        return (C((q + 1) * field) + (w - 1) * C(q) + C(q + part_b),
                w * C(q) + C(part_b))
    return C((q + 1) * field) + C(2 * q * w + part_b), C(n_pad)


def draw_case(rng):
    scheme = ("baseline", "scheme1", "scheme2")[int(rng.integers(3))]
    family = ("identity", "rep1", "rep3", "rlc")[int(rng.integers(4))]
    if family == "rlc":
        rate = Fraction(1, int(rng.integers(2, 5)))
        code = ms.RandomLinear(int(rng.integers(1, 9)), rate, int(rng.integers(1 << 30)))
    else:
        code = ms.parse_code_spec(family)
    eps = EPS[int(rng.integers(len(EPS)))]
    n = int(rng.integers(1, 401))
    m = int(rng.integers(1, n + 1)) if scheme == "scheme2" and rng.random() < 0.7 else None
    return scheme, family, code, eps, n, m


def test_noisy_fuzz_every_scheme_and_code():
    rng = np.random.default_rng(20180601)
    seen = set()
    decode_failures = 0
    for case in range(CASES):
        scheme, family, code, eps, n, m = draw_case(rng)
        p = ms.gen_uniform_protocol(n, int(rng.integers(1 << 30)))
        where = (case, scheme, code, eps, n, m)
        rep = ms.run_trial(scheme, p, eps, code, int(rng.integers(1 << 30)), m)
        for half in (rep.alice.a, rep.alice.b, rep.bob.a, rep.bob.b):
            assert half.dtype == np.uint8 and half.shape == (n,), where
        if not rep.decode_log:
            assert rep.ok, where
        decode_failures += bool(rep.decode_log)
        got = (rep.ledger.uses_ab, rep.ledger.uses_ba)
        assert got == layout_uses(scheme, p, code, m), where
        assert rep.rate == Fraction(2 * n, sum(got)), where
        seen.add((scheme, family, eps))
    assert len(seen) == 3 * 4 * len(EPS)
    # the fuzz reaches the failure paths, not only clean runs
    assert decode_failures > CASES // 10

"""Checks on harness output, computed apart from markovsim.

Nothing here imports the package.  Every expected value is recomputed from
the documented message layouts, the harness's documented seed derivation and
textbook formulas, so a fault in the program cannot also hide in its check.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

WILSON_Z = 1.96
REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# inputs, regenerated the way the harness documents them


def trial_seeds(master: int, cell: int, trial: int) -> tuple[int, int, int]:
    """(protocol, noise, code) seeds of one trial, from (seed, cell, trial)."""
    ss = np.random.SeedSequence(entropy=(master, cell, trial))
    return tuple(int(x) for x in ss.generate_state(3, np.uint64))


def uniform_protocol(n: int, p_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2n function codes iid uniform over 1..4: f first, then g."""
    rng = np.random.default_rng(p_seed)
    return rng.integers(1, 5, n, dtype=np.uint8), rng.integers(1, 5, n, dtype=np.uint8)


# ---------------------------------------------------------------------------
# channel-use budget of each scheme's message layout


def parse_code(text: str) -> tuple:
    """('identity',), ('rep', r) or ('rlc', k, nc) from a harness code spec."""
    if text == "identity":
        return ("identity",)
    if text.startswith("rep"):
        return ("rep", int(text[3:]))
    fields = dict(part.split("=") for part in text[len("rlc:"):].split(","))
    k, rate = int(fields["k"]), Fraction(fields["rate"])
    return ("rlc", k, math.ceil(k / rate))


def coded_length(code: tuple, bits: int) -> int:
    """Channel uses of one payload of ``bits`` info bits."""
    if code[0] == "identity":
        return bits
    if code[0] == "rep":
        return bits * code[1]
    _, k, nc = code
    return -(-bits // k) * nc


def ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1


def ceil_root4(n: int) -> int:
    r = 1
    while r**4 < n:
        r += 1
    return r


def greedy_starts(f: np.ndarray) -> list[int]:
    """1-based block starts: each next start is the first round at least
    ceil(sqrt(n)) past the last start where Alice's function is stuck."""
    w = ceil_sqrt(f.size)
    starts = [1]
    for pos in np.flatnonzero(f >= 3) + 1:
        if pos >= starts[-1] + w:
            starts.append(int(pos))
    return starts


def channel_uses(scheme: str, n: int, code: tuple, f: np.ndarray | None = None) -> int:
    """Total channel uses of one run, from the scheme's message layout.

    baseline: C(2n) + C(n).
    scheme2:  2 C(B w) + C(B) + 2 m C(B), with m = ceil(sqrt n) rounds per
              block, B = ceil(n/m) blocks and w = ceil(log2(m+1)) bits.
    scheme1:  the partition message, then either a vertical Part A (the
              Part B descriptions riding in Alice's last column) plus the
              Part B reply, or, with too few blocks, all descriptions plus
              Bob's whole transcript.  Needs Alice's functions ``f``.
    """
    C = lambda bits: coded_length(code, bits)  # noqa: E731
    if scheme == "baseline":
        return C(2 * n) + C(n)
    if scheme == "scheme2":
        m = ceil_sqrt(n)
        blocks = -(-n // m)
        w = m.bit_length()
        return 2 * C(blocks * w) + C(blocks) + 2 * m * C(blocks)
    w = ceil_sqrt(n)
    starts = greedy_starts(f)
    p = len(starts)
    field = max(1, (n - 1).bit_length())
    n_pad = max(n, starts[-1] + w - 1)
    part_a = p * w
    part_b = n_pad - part_a
    uses = C((p + 1) * field)
    if p > ceil_root4(n):
        return uses + (w - 1) * C(p) + C(p + part_b) + w * C(p) + C(part_b)
    return uses + C(2 * part_a + part_b) + C(n_pad)


# ---------------------------------------------------------------------------
# the harness's summary row


def wilson(failures: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    ph = failures / trials
    centre = ph + z * z / (2 * trials)
    spread = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials))
    denom = 1 + z * z / trials
    return max(0.0, (centre - spread) / denom), min(1.0, (centre + spread) / denom)


def capacity(eps: float) -> float:
    """1 - h(eps) of a binary symmetric channel."""
    if eps == 0:
        return 1.0
    return 1.0 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def check_row(row, n: int, eps: float, scheme: str, code: str, trials: int,
              uses: list[int]) -> list[str]:
    """Check one harness row against the cell it was asked for and the
    channel-use budget ``uses`` (one entry per trial)."""
    bad = []
    echo = {"n": n, "epsilon": eps, "scheme": scheme, "code": code, "trials": trials}
    for key, want in echo.items():
        if getattr(row, key) != want:
            bad.append(f"{key} is {getattr(row, key)!r}, asked for {want!r}")
    if not 0 <= row.failures <= trials:
        bad.append(f"failures {row.failures} out of 0..{trials}")
        return bad
    if eps == 0 and row.failures:
        bad.append(f"{row.failures} failures on a noiseless channel")
    if not _close(row.p_hat, row.failures / trials):
        bad.append(f"p_hat {row.p_hat} != {row.failures}/{trials}")
    lo, hi = wilson(row.failures, trials)
    if not (_close(row.wilson_lo, lo) and _close(row.wilson_hi, hi)):
        bad.append(f"Wilson interval ({row.wilson_lo}, {row.wilson_hi}) != ({lo}, {hi})")
    if not _close(row.capacity, capacity(eps)):
        bad.append(f"capacity {row.capacity} != 1 - h({eps}) = {capacity(eps)}")
    want_rate = math.fsum(float(Fraction(2 * n, u)) for u in uses) / trials
    if row.mean_rate != want_rate:
        bad.append(f"mean_rate {row.mean_rate!r} != 2n/uses over the layout {want_rate!r}")
    return bad


# ---------------------------------------------------------------------------
# one replayed trial


def reference(f: np.ndarray, g: np.ndarray) -> tuple[list[int], list[int]]:
    """A_i = f_i(B_{i-1}), B_i = g_i(A_i) from B_0 = 0, one round at a time.

    Codes: 1 -> y, 2 -> not y, 3 -> 0, 4 -> 1.
    """
    apply = {1: lambda y: y, 2: lambda y: y ^ 1, 3: lambda y: 0, 4: lambda y: 1}
    a, b = [], []
    prev = 0
    for fi, gi in zip(f.tolist(), g.tolist()):
        a.append(apply[fi](prev))
        prev = apply[gi](a[-1])
        b.append(prev)
    return a, b


def check_replay(report, f: np.ndarray, g: np.ndarray, uses: int) -> list[str]:
    """Check one SimulationReport against the pure-Python reference of its
    protocol and the channel-use budget of its layout."""
    bad = []
    ref_a, ref_b = reference(f, g)
    views = {"alice": report.alice, "bob": report.bob}
    match = {}
    for who, view in views.items():
        match[who] = view.a.tolist() == ref_a and view.b.tolist() == ref_b
        if getattr(report, f"{who}_ok") != match[who]:
            bad.append(f"{who}_ok is {getattr(report, f'{who}_ok')} but the "
                       f"transcript {'matches' if match[who] else 'differs'}")
    if report.ok != (match["alice"] and match["bob"]):
        bad.append(f"ok is {report.ok} against the transcript comparison")
    if not report.decode_log and not report.ok:
        bad.append("no decode failure logged, yet the run is not ok")
    if report.ledger.total != uses:
        bad.append(f"{report.ledger.total} channel uses, the layout needs {uses}")
    if report.rate != Fraction(2 * f.size, uses):
        bad.append(f"rate {report.rate} != 2n/{uses}")
    return bad

"""Monte Carlo harness: estimate scheme failure rates over a config grid.

One cell per (n, epsilon) pair.  Every trial derives its protocol seed,
noise seed and code-matrix seed from (master seed, cell index, trial index),
so any cell of any run can be reproduced bit-exactly in isolation, and the
whole result table is a pure function of the config.

A cell's trials run in batches of up to ``_BATCH_ROUNDS`` rounds: each
message of a batch carries every trial's payload at once, with each trial's
own noise and code, so a trial gets exactly the result ``run_trial`` gives it
alone (a batch of one).  scheme1's message sizes depend on each protocol's
block count p, so its window of trials runs as one batch per p.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .channel import ChannelPair, shannon_capacity
from .coding import (
    CodeSpec,
    RandomLinear,
    nominal_rate,
    parse_code_spec,
    union_bound_profile,
)
from .protocol import Protocol, gen_uniform_protocol
from .report import SimulationReport
from .scheme_random import find_partition, run_scheme1
from .scheme_regular import run_scheme2
from .vertical import run_baseline

SCHEMES = ("baseline", "scheme1", "scheme2")

# A batch holds at most this many rounds (trials x protocol length) and, with
# a drawn random linear code, at most this many codebook rows.  That bounds
# the memory a batch takes to about 1.5 MB: 8 trials at n = 4096 or with a
# drawn k = 12 code, 128 at n = 256.
_BATCH_ROUNDS = 1 << 15


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= failures <= trials:
        raise ValueError("need 0 <= failures <= trials, trials >= 1")
    ph = failures / trials
    denom = 1 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    eps_values: tuple[float, ...]
    scheme: str
    code: str
    trials: int
    seed: int = 0
    m_override: Optional[int] = None
    protocols: Optional[tuple[Protocol, ...]] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"master seed must be non-negative, got {self.seed}")
        if not self.n_values or not self.eps_values:
            raise ValueError("need at least one n and one epsilon")
        if self.protocols is not None:
            lengths = {q.n for q in self.protocols}
            if len(lengths) != 1:
                raise ValueError("fixed protocols must all share one length")
            object.__setattr__(self, "n_values", (lengths.pop(),))
        if min(self.n_values) < 1:
            raise ValueError("protocol lengths must be at least 1")
        _check_m_override(self.scheme, self.m_override)


def _check_m_override(scheme: str, m_override: Optional[int]) -> None:
    if m_override is not None and scheme != "scheme2":
        raise ValueError(f"--m-override sets scheme2's block length; {scheme} has none")


@dataclass(frozen=True)
class ErrorEstimate:
    n: int
    epsilon: float
    scheme: str
    code: str
    trials: int
    failures: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float
    mean_rate: float
    capacity: float
    lemma1_bound: float


CSV_COLUMNS = tuple(f.name for f in fields(ErrorEstimate))


def validate_config(cfg: ExperimentConfig) -> CodeSpec:
    """Check the target information rate against the channel limit.

    At any epsilon > 0 a code rate at or above 1 - h(epsilon) cannot yield a
    vanishing error probability, so such configs are rejected outright.
    Noiseless runs are exempt: every decode is exact at epsilon = 0.
    """
    code = parse_code_spec(cfg.code)
    rb = nominal_rate(code)
    for eps in cfg.eps_values:
        if eps == 0:
            continue
        cap = shannon_capacity(eps)
        if float(rb) >= cap:
            raise ValueError(
                f"code rate {rb} is not below 1 - h({eps}) = {cap:.6f}; "
                "pick a lower-rate code or a smaller epsilon"
            )
    return code


def run_batch(
    scheme: str,
    protocols: Sequence[Protocol],
    eps: float,
    code: CodeSpec,
    noise_seeds: Sequence[int],
    m_override: Optional[int] = None,
) -> list[SimulationReport]:
    """Run trials of one length together: trial t on protocols[t] with noise
    seed noise_seeds[t], and with code t when the code's seed is a tuple.
    Returns one report per trial.  scheme1's protocols must share one block
    count, and only scheme2 takes m_override."""
    _check_m_override(scheme, m_override)
    p = Protocol(np.stack([q.f for q in protocols]), np.stack([q.g for q in protocols]))
    ch = ChannelPair(eps, noise_seeds)
    if scheme == "baseline":
        return run_baseline(p, ch, code)
    if scheme == "scheme1":
        return run_scheme1(p, ch, code)
    return run_scheme2(p, ch, code, m=m_override)


def run_trial(
    scheme: str,
    protocol: Protocol,
    eps: float,
    code: CodeSpec,
    noise_seed: int,
    m_override: Optional[int] = None,
) -> SimulationReport:
    """One trial, run as a batch of one."""
    return run_batch(scheme, [protocol], eps, code, [noise_seed], m_override)[0]


def cell_reports(
    cfg: ExperimentConfig, code: CodeSpec, n: int, eps: float, cell: int
) -> Iterator[SimulationReport]:
    """The reports of one cell's trials, in trial order, run in batches:
    one per window of trials, or for scheme1 one per block count in it."""
    drawn = isinstance(code, RandomLinear) and code.code_seed is None
    rows = max(n, 1 << code.k if drawn else 0)
    size = max(1, _BATCH_ROUNDS // rows)
    for lo in range(0, cfg.trials, size):
        trials = range(lo, min(lo + size, cfg.trials))
        seeds = [
            [int(x) for x in np.random.SeedSequence(entropy=(cfg.seed, cell, t))
             .generate_state(3, np.uint64)]
            for t in trials
        ]
        if cfg.protocols is not None:
            protocols = [cfg.protocols[t % len(cfg.protocols)] for t in trials]
        else:
            protocols = [gen_uniform_protocol(n, p_seed) for p_seed, _, _ in seeds]
        keys = [0] * len(protocols)
        if cfg.scheme == "scheme1":
            keys = [q.p for q in find_partition(np.stack([q.f for q in protocols]))]
        reports = [None] * len(protocols)
        for key in dict.fromkeys(keys):
            group = [i for i, k in enumerate(keys) if k == key]
            batch_code = code
            if drawn:
                batch_code = replace(code, code_seed=tuple(seeds[i][2] for i in group))
            batch = run_batch(cfg.scheme, [protocols[i] for i in group], eps, batch_code,
                              [seeds[i][1] for i in group], cfg.m_override)
            for i, report in zip(group, batch):
                reports[i] = report
        yield from reports


def run_experiment(cfg: ExperimentConfig) -> list[ErrorEstimate]:
    code = validate_config(cfg)
    rb = nominal_rate(code)
    rows = []
    cell = 0
    for n in cfg.n_values:
        for eps in cfg.eps_values:
            failures = 0
            rates = []
            bounds = []
            profile = None
            for report in cell_reports(cfg, code, n, eps, cell):
                failures += not report.ok
                rates.append(float(report.rate))
                # consecutive trials often hold equal profiles: bound one when it changes
                if report.block_profile != profile:
                    profile = report.block_profile
                    bound = union_bound_profile(profile, rb, eps)
                bounds.append(bound)
            lo, hi = wilson_interval(failures, cfg.trials)
            rows.append(
                ErrorEstimate(
                    n=n,
                    epsilon=eps,
                    scheme=cfg.scheme,
                    code=cfg.code,
                    trials=cfg.trials,
                    failures=failures,
                    p_hat=failures / cfg.trials,
                    wilson_lo=lo,
                    wilson_hi=hi,
                    mean_rate=math.fsum(rates) / cfg.trials,
                    capacity=shannon_capacity(eps),
                    lemma1_bound=math.fsum(bounds) / cfg.trials,
                )
            )
            cell += 1
    return rows


def emit(rows: Sequence[ErrorEstimate], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    if fmt != "csv":
        raise ValueError("format must be csv or json")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(astuple(r) for r in rows)
    return buf.getvalue()

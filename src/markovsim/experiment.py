"""Monte Carlo harness: estimate scheme failure rates over a config grid.

One cell per (n, epsilon) pair.  Every trial derives its protocol seed,
noise seed and code-matrix seed from (master seed, cell index, trial index),
as ``SeedSequence((seed, cell, trial)).generate_state(3, np.uint64)``, so any
cell of any run can be reproduced bit-exactly in isolation, and the whole
result table is a pure function of the config.  A window's seeds come from
one vectorised hash (``_seeds.seed_states``) and its protocols from one
``gen_uniform_protocol`` call; the streams are those numpy gives trial by
trial.

A cell's trials run in batches of up to ``_BATCH_ROUNDS`` rounds, a window
of trials: each message of a batch carries every trial's payload at once,
with each trial's own noise and code, so a trial gets exactly the result
``run_trial`` gives it alone (a batch of one).  A batch gives one report,
whose arrays the harness reduces.  Every scheme draws
``_LOOKAHEAD_WINDOWS`` windows of trials at once, a look-ahead, so one hash
and one protocol draw serve them all.  baseline and scheme2 run a
look-ahead's windows in trial order.  scheme1's message sizes depend on each
protocol's block count p, so it partitions a look-ahead's trials in one
call, each trial once, and runs each p's trials in full batches.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .channel import ChannelPair, shannon_capacity
from .coding import CodeSpec, RandomLinear, nominal_rate, parse_code_spec, union_bound_profile
from ._seeds import entropy_words, integers, seed_states
from .protocol import Protocol, gen_uniform_protocol
from .report import SimulationReport
from .scheme_random import find_partition, run_scheme1
from .scheme_regular import run_scheme2
from .vertical import run_baseline

SCHEMES = ("baseline", "scheme1", "scheme2")

# A batch holds at most this many rounds (trials x protocol length) and, with
# a drawn random linear code, at most this many codebook rows.  That bounds
# the memory a batch takes to about 1.5 MB: 8 trials at n = 4096 or with a
# drawn k = 12 code, 128 at n = 256.  The protocols of a look-ahead's
# windows are held beside it, 2 bytes a round: at most 256 KB.
_BATCH_ROUNDS = 1 << 15
# Windows drawn at once: one seed hash and one protocol draw serve them all,
# and scheme1 fills its batches per block count from them.
_LOOKAHEAD_WINDOWS = 4


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
        n_values = integers(self.n_values, "n_values", 1)
        if not self.eps_values or not all(isinstance(eps, numbers.Real)
                                          and not isinstance(eps, bool) for eps in self.eps_values):
            raise ValueError(f"eps_values must be real numbers, got {self.eps_values!r}")
        if self.protocols is not None:
            lengths = {q.n for q in self.protocols}
            if len(lengths) != 1:
                raise ValueError("fixed protocols must all share one length")
            n_values = (lengths.pop(),)
        # stored as Python numbers, which the CSV and JSON rows print; + 0.0
        # turns -0.0 into 0.0
        for name, value in (
            ("n_values", n_values), ("eps_values", tuple(float(e) + 0.0 for e in self.eps_values)),
            ("trials", integers((self.trials,), "trials", 1)[0]),
            ("seed", integers((self.seed,), "master seed")[0]),
            ("m_override", _check_m_override(self.scheme, self.m_override)),
        ):
            object.__setattr__(self, name, value)


def _check_m_override(scheme: str, m: Optional[int]) -> Optional[int]:
    if m is not None and scheme != "scheme2":
        raise ValueError(f"--m-override sets scheme2's block length; {scheme} has none")
    return m if m is None else integers((m,), "m_override", 1)[0]


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
    block_union_bound: float


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
    protocols: Protocol,
    eps: float,
    code: CodeSpec,
    noise_seeds: Sequence[int],
    m_override: Optional[int] = None,
    starts: Optional[np.ndarray] = None,
) -> SimulationReport:
    """Run a ``(T, n)`` batch of protocols together: trial t on row t with
    noise seed noise_seeds[t], and with code t when the code's seed is a
    tuple.  Returns one batch report.  scheme1's protocols share one
    block count (starts, if given, are their ``(T, p)`` block starts); only
    scheme2 takes m_override."""
    m_override = _check_m_override(scheme, m_override)
    if starts is not None and scheme != "scheme1":
        raise ValueError(f"partition starts are scheme1's input; {scheme} takes none")
    if protocols.f.ndim != 2:
        raise ValueError("run_batch takes a (T, n) batch of protocols")
    ch = ChannelPair(eps, noise_seeds)
    if scheme == "baseline":
        return run_baseline(protocols, ch, code)
    if scheme == "scheme1":
        return run_scheme1(protocols, ch, code, starts)
    return run_scheme2(protocols, ch, code, m=m_override)


def run_trial(
    scheme: str,
    protocol: Protocol,
    eps: float,
    code: CodeSpec,
    noise_seed: int,
    m_override: Optional[int] = None,
) -> SimulationReport:
    """One trial, run as a batch of one."""
    batch = Protocol(protocol.f[None], protocol.g[None])
    return run_batch(scheme, batch, eps, code, [noise_seed], m_override).row(0)


def cell_reports(
    cfg: ExperimentConfig, code: CodeSpec, n: int, eps: float, cell: int
) -> Iterator[tuple[np.ndarray, SimulationReport]]:
    """(trial indices, report) of each batch of a window of one cell's
    trials, as soon as it has run.  A look-ahead, ``_LOOKAHEAD_WINDOWS``
    windows, takes its seeds from one hash and its protocols from one draw.
    baseline and scheme2 run its windows in trial order; scheme1 partitions
    it in one call and runs each block count's trials in full windows but
    its last, in the order of their first trials."""
    drawn = isinstance(code, RandomLinear) and code.code_seed is None
    rows = max(n, 1 << code.k if drawn else 0)
    size = max(1, _BATCH_ROUNDS // rows)
    span = size * _LOOKAHEAD_WINDOWS
    # trial t's entropy is (cfg.seed, cell, t): the first two are fixed for
    # the cell, and a trial index is one word
    words, lengths = entropy_words([cfg.seed, cell])
    prefix = np.concatenate([w[:k] for w, k in zip(words, lengths)])
    if cfg.protocols is not None:
        fixed = Protocol(np.stack([q.f for q in cfg.protocols]),
                         np.stack([q.g for q in cfg.protocols]))
    for lo in range(0, cfg.trials, span):
        trials = np.arange(lo, min(lo + span, cfg.trials))
        entropy = np.empty((len(trials), len(prefix) + 1), np.uint32)
        entropy[:, :-1], entropy[:, -1] = prefix, trials
        p_seeds, noise_seeds, code_seeds = seed_states(entropy, None, 3).T.tolist()
        if cfg.protocols is None:
            window = gen_uniform_protocol(n, p_seeds)
        else:
            window = Protocol(fixed.f[trials % len(fixed.f)], fixed.g[trials % len(fixed.f)])
        keys = [0] * len(trials)
        if cfg.scheme == "scheme1":
            starts, counts = find_partition(window.f)
            keys = counts.tolist()
        groups = [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]
        for batch in sorted(g[j : j + size] for g in groups for j in range(0, len(g), size)):
            batch_code = code
            if drawn:
                batch_code = replace(code, code_seed=tuple(code_seeds[i] for i in batch))
            yield trials[batch], run_batch(
                cfg.scheme, Protocol(window.f[batch], window.g[batch]), eps, batch_code,
                [noise_seeds[i] for i in batch], cfg.m_override,
                starts[batch, : keys[batch[0]]] if cfg.scheme == "scheme1" else None,
            )


def run_experiment(cfg: ExperimentConfig) -> list[ErrorEstimate]:
    code = validate_config(cfg)
    rows = []
    for cell, (n, eps) in enumerate(itertools.product(cfg.n_values, cfg.eps_values)):
        failures, rates, bounds = 0, [], []
        for _, report in cell_reports(cfg, code, n, eps, cell):
            failures += int((~report.ok).sum())
            rates += (2 * n / report.ledger.total).tolist()  # correctly rounded: float(rate)
            counts = report.block_counts
            per_trial = list(zip(*(c.tolist() for c in counts.values())))
            once = {row: union_bound_profile({s: c for s, c in zip(counts, row) if c}, code, eps)
                    for row in set(per_trial)}
            bounds += [once[row] for row in per_trial]
        lo, hi = wilson_interval(failures, cfg.trials)
        rows.append(ErrorEstimate(
            n=n, epsilon=eps, scheme=cfg.scheme, code=cfg.code, trials=cfg.trials,
            failures=failures, p_hat=failures / cfg.trials, wilson_lo=lo, wilson_hi=hi,
            mean_rate=math.fsum(rates) / cfg.trials, capacity=shannon_capacity(eps),
            block_union_bound=math.fsum(bounds) / cfg.trials,
        ))
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

"""Closed-loop benchmark of markovsim's Monte Carlo harness.

Run from the repository root:

    python3 perfbench/run.py --workload noisy_rlc_n4096 --seed 1 --seconds 20 --trace 0

One process with one thread calls ``markovsim.experiment.run_experiment``
on one cell at a time (one scheme, n, eps, code, trial count and seed), each
call starting after the previous one returns.  A round is one cell of each
scheme; a run measures whole rounds for ``--seconds``.  A fixed load is
timed before and after each cell, and cell times are scaled by its speed to
the reference speed ``CAL_REF_S`` (see README.md): on a shared host the raw
wall time of a cell swings by tens of percent from one minute to the next,
while the ratio between cells stays within a few percent.  Every cell's output
is then checked by ``checks.py`` against values computed apart from the
package.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``tracing.py`` with
``--trace 1``.  The package is imported from ``src/`` of the checkout the
script sits in; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import tracing
from tracing import SCHEMES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
FIXED_SEED = 0
CAL_LOOPS = 50_000
_cal_rng = np.random.default_rng(0)
CAL_FNS = _cal_rng.integers(1, 5, (64, 64), dtype=np.uint8)
CAL_BOOK = _cal_rng.integers(0, 2**63, (1024, 1), dtype=np.uint64)
CAL_REF_S = 0.016  # two calibrate() calls on the reference machine


@dataclass(frozen=True)
class Workload:
    n: int
    eps: float
    code: str
    trials: dict  # trials per cell, by scheme
    fixed: tuple = ()  # schemes whose cell does not depend on --seed


WORKLOADS = {
    "noiseless_identity_n4096": Workload(
        4096, 0.0, "identity", {"baseline": 128, "scheme1": 32, "scheme2": 32}
    ),
    "noisy_rlc_n4096": Workload(
        4096, 0.05, "rlc:k=12,rate=1/4",
        {"baseline": 8, "scheme1": 8, "scheme2": 8}, fixed=("scheme1",),
    ),
    "noisy_rep3_n256": Workload(
        256, 0.05, "rep3",
        {"baseline": 512, "scheme1": 64, "scheme2": 128}, fixed=("scheme1",),
    ),
}


@dataclass
class Cell:
    scheme: str
    seed: int
    trials: int
    rnd: int
    traced: bool
    seconds: float = 0.0
    cal: float = CAL_REF_S  # calibration seconds before plus after the cell
    row: object = None
    error: str = ""
    completed: int = 0  # trials the harness finished
    rate: float = math.nan  # mean rate of those trials
    problems: list = field(default_factory=list)


def cell_seed(master: int, rnd: int, scheme: str, wl: Workload) -> int:
    if scheme in wl.fixed:
        return FIXED_SEED
    ss = np.random.SeedSequence((master, rnd, SCHEMES.index(scheme)))
    return int(ss.generate_state(1, np.uint32)[0])


def config(wl: Workload, scheme: str, trials: int, seed: int):
    from markovsim.experiment import ExperimentConfig

    return ExperimentConfig((wl.n,), (wl.eps,), scheme, wl.code, trials, seed=seed)


def calibrate() -> float:
    """Seconds a fixed load takes now: a pure-Python loop, then a loop of
    small numpy calls like those of a trial.  markovsim plays no part."""
    t0 = time.perf_counter()
    acc = 0
    for j in range(CAL_LOOPS):
        acc = (acc * 31 + j) & 0xFFFF
    for _ in range(3):
        prev = np.zeros(64, np.uint8)
        for codes in CAL_FNS:
            a = np.where(codes <= 2, prev ^ (codes - 1), codes - 3).astype(np.uint8) & 1
            words = np.packbits(a, bitorder="little").view(np.uint64)
            dist = np.bitwise_count(CAL_BOOK ^ words[0]).sum(axis=1)
            prev = a ^ np.uint8(int(np.argmin(dist)) & 1)
    return time.perf_counter() - t0


def warm_up(wl: Workload) -> None:
    """One single-trial cell per scheme: imports, caches and first calls."""
    from markovsim import experiment

    for scheme in SCHEMES:
        experiment.run_experiment(config(wl, scheme, 1, FIXED_SEED))


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter importing markovsim and
    finishing the warm-up.  Each probe then times the calibration load twice
    and prints the total; that is taken off its wall time, which is then
    scaled by it to the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload],
            check=True, timeout=120, capture_output=True, text=True,
        )
        cal = float(out.stdout.split()[-1])
        times.append((time.perf_counter() - t0 - cal) * CAL_REF_S / cal)
    return statistics.median(times)


def run_cells(wl: Workload, master: int, seconds: float, tracer) -> list[Cell]:
    """Closed loop over whole rounds; with a tracer, odd rounds are traced."""
    from markovsim import experiment

    cells = []
    start = time.perf_counter()
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.keep_spans = rnd == 1
            tracer.install()
        for scheme in SCHEMES:
            cell = Cell(scheme, cell_seed(master, rnd, scheme, wl),
                        wl.trials[scheme], rnd, traced)
            cfg = config(wl, scheme, cell.trials, cell.seed)
            if traced:
                tracer.scheme, tracer.cell = scheme, len(cells)
            before = calibrate()
            t0 = time.perf_counter()
            try:
                cell.row = experiment.run_experiment(cfg)
            except Exception:  # one failed operation; the loop goes on
                cell.error = traceback.format_exc()
            cell.seconds = time.perf_counter() - t0
            cell.cal = before + calibrate()
            cells.append(cell)
        if traced:
            tracer.uninstall()
        rnd += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or rnd % 2 == 0):
            return cells


def replay(wl: Workload, cell: Cell, trial: int):
    """(report, f, g, expected uses) of one trial, run alone via run_trial."""
    from markovsim.coding import RandomLinear, parse_code_spec
    from markovsim.experiment import run_trial
    from markovsim.protocol import Protocol

    p_seed, noise_seed, code_seed = checks.trial_seeds(cell.seed, 0, trial)
    f, g = checks.uniform_protocol(wl.n, p_seed)
    code = parse_code_spec(wl.code)
    if isinstance(code, RandomLinear) and code.code_seed is None:
        code = replace(code, code_seed=code_seed)
    report = run_trial(cell.scheme, Protocol(f, g), wl.eps, code, noise_seed)
    uses = checks.channel_uses(cell.scheme, wl.n, checks.parse_code(wl.code), f)
    return report, f, g, uses


def check_cell(wl: Workload, cell: Cell) -> None:
    """Fill in completed trials and rate, and list the cell's problems."""
    if cell.error:
        # the harness raised: find how far it got by replaying the trials
        rates = []
        for t in range(cell.trials):
            try:
                report, *_ = replay(wl, cell, t)
            except Exception:  # the trial the harness stopped at
                break
            rates.append(float(report.rate))
        cell.completed = len(rates)
        cell.rate = math.fsum(rates) / len(rates) if rates else math.nan
        return
    code = checks.parse_code(wl.code)
    uses = []
    for t in range(cell.trials):
        f = None
        if cell.scheme == "scheme1":
            f, _ = checks.uniform_protocol(wl.n, checks.trial_seeds(cell.seed, 0, t)[0])
        uses.append(checks.channel_uses(cell.scheme, wl.n, code, f))
    if len(cell.row) != 1:
        cell.problems.append(f"{len(cell.row)} rows for one cell")
        return
    row = cell.row[0]
    cell.problems += checks.check_row(row, wl.n, wl.eps, cell.scheme, wl.code,
                                      cell.trials, uses)
    report, f, g, want = replay(wl, cell, cell.rnd % cell.trials)
    cell.problems += checks.check_replay(report, f, g, want)
    if row.failures in (0, cell.trials) and report.ok != (row.failures == 0):
        cell.problems.append(f"replayed trial ok={report.ok} but the row has "
                             f"{row.failures}/{cell.trials} failures")
    cell.completed = cell.trials
    cell.rate = row.mean_rate


def seconds_per_trial(cells: list[Cell], scaled: bool = True) -> float:
    """Total cell time over total trials completed, each cell's time scaled
    to the reference speed unless ``scaled`` is false."""
    total = math.fsum(c.seconds * (CAL_REF_S / c.cal if scaled else 1) for c in cells)
    return total / sum(c.completed for c in cells)


def end_to_end(cells: list[Cell], setup_s: float) -> dict:
    metrics = {}
    for s in SCHEMES:
        mine = [c for c in cells if c.scheme == s and c.completed]
        if not mine:
            continue
        print(f"raw trials_per_s.{s}: {1 / seconds_per_trial(mine, False):.6g}")
        metrics[f"trials_per_s.{s}"] = (1 / seconds_per_trial(mine), "1/s")
        metrics[f"rate.{s}"] = (statistics.fmean(c.rate for c in mine), "bit/use")
    metrics["setup_s"] = (setup_s, "s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return metrics


def per_layer(cells: list[Cell], tracer) -> dict:
    units = dict(tracing.per_layer_metrics())
    traced = {s: sum(c.completed for c in cells if c.traced and c.scheme == s)
              for s in SCHEMES}
    values = tracer.per_trial({s: max(t, 1) for s, t in traced.items()})
    for s in SCHEMES:
        ms = {}
        for flag in (True, False):
            mine = [c for c in cells if c.scheme == s and c.traced == flag and c.completed]
            ms[flag] = 1e3 * seconds_per_trial(mine)
        values[f"trace.overhead_ms.{s}"] = ms[True] - ms[False]
    return {name: (value, units[name]) for name, value in values.items()}


def write_spans(tracer, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "fields": ["cell", "id", "parent", "name", "scheme", "start", "end"],
        "spans": tracer.spans,
        "skipped": tracer.skipped,
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="only import and warm up (used to time set-up)")
    args = ap.parse_args(argv)

    if not (SRC / "markovsim" / "__init__.py").is_file():
        print(f"markovsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    warm_up(wl)
    if args.probe:
        print(calibrate() + calibrate())
        return 0

    tracer = tracing.Tracer() if args.trace else None
    setup_s = None if tracer else measure_setup(args.workload)
    cells = run_cells(wl, args.seed, args.seconds, tracer)
    for cell in cells:
        check_cell(wl, cell)

    failed = 0
    correct = True
    for i, cell in enumerate(cells):
        if cell.error or cell.problems:
            failed += 1
            detail = cell.error.strip().splitlines()[-1] if cell.error else "; ".join(cell.problems)
            print(f"cell {i} ({cell.scheme}, seed {cell.seed}) failed: {detail}",
                  file=sys.stderr)
        correct &= not cell.problems

    if tracer is None:
        metrics = end_to_end(cells, setup_s)
    else:
        metrics = per_layer(cells, tracer)
        write_spans(tracer, args.workload, args.seed)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

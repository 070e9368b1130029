"""Tests of the benchmark's own checks and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

Each check must pass on correct harness output for every scheme and code,
and must reject a deliberately wrong input.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from markovsim import experiment, protocol  # noqa: E402
from markovsim.coding import RandomLinear, parse_code_spec  # noqa: E402
from markovsim.scheme_random import find_partition  # noqa: E402

SCHEMES = ("baseline", "scheme1", "scheme2")
CODES = ("identity", "rep3", "rlc:k=6,rate=1/3", "rlc:k=6,rate=1/3,seed=5")
# noisy cells: identity is refused below capacity, and noisy scheme1 with rep3
# hits a known crash in run_scheme1
NOISY = [(s, c) for s in SCHEMES for c in CODES[1:] if (s, c) != ("scheme1", "rep3")]


def run_cell(scheme, code, n, eps, trials=4, seed=3):
    cfg = experiment.ExperimentConfig((n,), (eps,), scheme, code, trials, seed=seed)
    (row,) = experiment.run_experiment(cfg)
    parsed = checks.parse_code(code)
    uses = []
    for t in range(trials):
        f, _ = checks.uniform_protocol(n, checks.trial_seeds(seed, 0, t)[0])
        uses.append(checks.channel_uses(scheme, n, parsed, f))
    return row, uses


def replay(scheme, code, n, eps, trial=0, seed=3):
    p_seed, noise_seed, code_seed = checks.trial_seeds(seed, 0, trial)
    f, g = checks.uniform_protocol(n, p_seed)
    spec = parse_code_spec(code)
    if isinstance(spec, RandomLinear) and spec.code_seed is None:
        spec = dataclasses.replace(spec, code_seed=code_seed)
    report = experiment.run_trial(scheme, protocol.Protocol(f, g), eps, spec, noise_seed)
    return report, f, g, checks.channel_uses(scheme, n, checks.parse_code(code), f)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("n", [1, 70, 256])
def test_noiseless_output_passes(scheme, code, n):
    row, uses = run_cell(scheme, code, n, 0.0)
    assert checks.check_row(row, n, 0.0, scheme, code, 4, uses) == []
    assert checks.check_replay(*replay(scheme, code, n, 0.0)) == []


@pytest.mark.parametrize("scheme,code", NOISY)
def test_noisy_output_passes(scheme, code):
    row, uses = run_cell(scheme, code, 100, 0.02)
    assert checks.check_row(row, 100, 0.02, scheme, code, 4, uses) == []
    for trial in range(4):
        assert checks.check_replay(*replay(scheme, code, 100, 0.02, trial)) == []


def test_layout_without_vertical_part_a():
    # no stuck function of Alice's: one block, so scheme1 ships descriptions
    f = np.full(300, 2, np.uint8)
    g = np.random.default_rng(0).integers(1, 5, 300, dtype=np.uint8)
    assert checks.greedy_starts(f) == [1]
    for code in ("identity", "rep3", "rlc:k=6,rate=1/3,seed=5"):
        spec = parse_code_spec(code)
        report = experiment.run_trial("scheme1", protocol.Protocol(f, g), 0.0, spec, 1)
        uses = checks.channel_uses("scheme1", 300, checks.parse_code(code), f)
        assert checks.check_replay(report, f, g, uses) == []


@pytest.mark.parametrize("seed", range(20))
def test_greedy_partition_matches_program(seed):
    n = int(np.random.default_rng(seed).integers(1, 3000))
    f, _ = checks.uniform_protocol(n, seed)
    assert checks.greedy_starts(f) == find_partition(f, n).starts.tolist()


def test_reference_matches_program():
    f, g = checks.uniform_protocol(500, 9)
    ref = protocol.simulate_reference(protocol.Protocol(f, g))
    assert checks.reference(f, g) == (ref.a.tolist(), ref.b.tolist())


def flip(view, half, i=0):
    arrays = {"a": view.a.copy(), "b": view.b.copy()}
    arrays[half][i] ^= 1
    return protocol.Transcript(arrays["a"], arrays["b"])


@pytest.mark.parametrize("who", ["alice", "bob"])
@pytest.mark.parametrize("half", ["a", "b"])
def test_flipped_transcript_bit_is_rejected(who, half):
    report, f, g, uses = replay("scheme2", "identity", 64, 0.0)
    bad = dataclasses.replace(report, **{who: flip(getattr(report, who), half, 17)})
    assert checks.check_replay(bad, f, g, uses)


def test_ok_without_logged_decode_failure_is_rejected():
    report, f, g, uses = replay("baseline", "identity", 64, 0.0)
    bad = dataclasses.replace(report, bob=flip(report.bob, "b"), bob_ok=False)
    problems = checks.check_replay(bad, f, g, uses)
    assert any("no decode failure" in p for p in problems)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_channel_use_count_off_by_one_is_rejected(scheme):
    report, f, g, uses = replay(scheme, "rep3", 64, 0.0)
    assert checks.check_replay(report, f, g, uses + 1)
    assert checks.check_replay(report, f, g, uses - 1)
    row, per_trial = run_cell(scheme, "rep3", 64, 0.0)
    per_trial[2] += 1
    assert checks.check_row(row, 64, 0.0, scheme, "rep3", 4, per_trial)


@pytest.mark.parametrize(
    "field,delta",
    [("p_hat", 0.25), ("failures", 1), ("wilson_lo", 1e-6), ("wilson_hi", -1e-6),
     ("capacity", 1e-9), ("mean_rate", 1e-12)],
)
def test_row_disagreeing_with_itself_is_rejected(field, delta):
    row, uses = run_cell("baseline", "rep3", 64, 0.05)
    assert checks.check_row(row, 64, 0.05, "baseline", "rep3", 4, uses) == []
    bad = dataclasses.replace(row, **{field: getattr(row, field) + delta})
    assert checks.check_row(bad, 64, 0.05, "baseline", "rep3", 4, uses)


def test_noiseless_failure_is_rejected():
    row, uses = run_cell("scheme2", "identity", 64, 0.0)
    bad = dataclasses.replace(row, failures=1, p_hat=0.25)
    lo, hi = checks.wilson(1, 4)
    bad = dataclasses.replace(bad, wilson_lo=lo, wilson_hi=hi)
    problems = checks.check_row(bad, 64, 0.0, "scheme2", "identity", 4, uses)
    assert problems == ["1 failures on a noiseless channel"]


def test_wilson_and_capacity_formulas():
    assert checks.wilson(0, 10)[0] == 0.0
    lo, hi = checks.wilson(5, 10)
    assert lo == pytest.approx(0.2366, abs=1e-4) and hi == pytest.approx(0.7634, abs=1e-4)
    assert checks.capacity(0.11) == pytest.approx(0.5, abs=1e-3)


def test_tracer_counts_calls_and_restores_originals():
    from markovsim import coding, vertical

    original = coding.decode_payload
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vertical.decode_payload is not original
        assert vertical.decode_payload is coding.decode_payload
        tracer.scheme = "scheme2"
        row, _ = run_cell("scheme2", "identity", 64, 0.0, trials=2)
    finally:
        tracer.uninstall()
    assert coding.decode_payload is original and vertical.decode_payload is original
    figures = tracer.per_trial({s: 2 for s in SCHEMES})
    m = 8  # ceil(sqrt(64)) columns, plus three predictor rounds, per trial
    assert figures["coding.decode_payload.calls.scheme2"] == 2 * m + 3
    assert figures["channel.ChannelPair.transmit.uses.scheme2"] == checks.channel_uses(
        "scheme2", 64, ("identity",))
    assert figures["experiment.run_experiment.self_ms.scheme2"] > 0
    assert tracer.skipped == []


def test_benchmark_file_names_match_the_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {f"{k}.{s}" for k in ("trials_per_s", "rate") for s in SCHEMES} | {
        "setup_s", "peak_rss_mb"}

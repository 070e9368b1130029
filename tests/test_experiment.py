import csv
import io
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import markovsim as ms
from markovsim import cli, experiment
from markovsim.experiment import (
    CSV_COLUMNS,
    ErrorEstimate,
    ExperimentConfig,
    emit,
    run_batch,
    run_experiment,
    run_trial,
    validate_config,
    wilson_interval,
)
from markovsim.scheme_random import find_partition


def test_wilson_interval_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi == pytest.approx(0.0369948075, abs=1e-9)
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.2365895936, abs=1e-9)
    assert hi == pytest.approx(0.7634104064, abs=1e-9)
    assert lo + hi == pytest.approx(1.0)  # symmetric at p_hat = 1/2
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and lo == pytest.approx(0.9630051925, abs=1e-9)


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(-1, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig((16,), (0.0,), "schemeX", "identity", 10)
    with pytest.raises(ValueError):
        ExperimentConfig((16,), (0.0,), "baseline", "identity", 0)
    with pytest.raises(ValueError):
        ExperimentConfig((), (0.0,), "baseline", "identity", 1)
    with pytest.raises(ValueError):
        ExperimentConfig((16,), (), "baseline", "identity", 1)


def test_config_fixed_protocols_pin_length():
    protos = tuple(ms.gen_uniform_protocol(12, s) for s in range(3))
    cfg = ExperimentConfig((999,), (0.0,), "baseline", "identity", 2, protocols=protos)
    assert cfg.n_values == (12,)
    mixed = protos + (ms.gen_uniform_protocol(8, 9),)
    with pytest.raises(ValueError):
        ExperimentConfig((999,), (0.0,), "baseline", "identity", 2, protocols=mixed)


def test_rate_rejection_messages():
    cfg = ExperimentConfig((16,), (0.4,), "baseline", "rep3", 1)
    with pytest.raises(ValueError, match="0.029049"):
        validate_config(cfg)
    cfg = ExperimentConfig((16,), (0.05,), "baseline", "identity", 1)
    with pytest.raises(ValueError, match="1 - h"):
        validate_config(cfg)
    # noiseless runs are exempt from the capacity check
    validate_config(ExperimentConfig((16,), (0.0,), "baseline", "identity", 1))


def test_noiseless_experiment_rows():
    cfg = ExperimentConfig((16, 32), (0.0,), "baseline", "identity", 4, seed=1)
    rows = run_experiment(cfg)
    assert [r.n for r in rows] == [16, 32]
    for r in rows:
        assert r.failures == 0 and r.p_hat == 0.0
        assert r.lemma1_bound == 0.0 and r.capacity == 1.0
        assert r.mean_rate == pytest.approx(2 / 3)
        assert r.wilson_lo == 0.0 and r.wilson_hi < 1.0


def test_scheme2_mean_rate_with_m_override():
    cfg = ExperimentConfig(
        (16,), (0.0,), "scheme2", "identity", 5, seed=2, m_override=4
    )
    rows = run_experiment(cfg)
    assert rows[0].mean_rate == pytest.approx(32 / 60)


def test_experiment_is_reproducible():
    cfg = ExperimentConfig((16,), (0.1,), "scheme2", "rep3", 30, seed=3)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a == b
    assert emit(a, "csv") == emit(b, "csv")


def test_noisy_cell_is_coherent():
    cfg = ExperimentConfig((16,), (0.1,), "baseline", "rep3", 50, seed=4)
    row = run_experiment(cfg)[0]
    assert 0 < row.failures <= 50
    assert row.wilson_lo <= row.p_hat <= row.wilson_hi
    assert row.capacity == pytest.approx(ms.shannon_capacity(0.1))
    assert row.lemma1_bound > 0


def test_csv_emit_shape():
    rows = run_experiment(ExperimentConfig((8,), (0.0,), "scheme1", "identity", 2))
    text = emit(rows, "csv")
    assert text.startswith(
        "n,epsilon,scheme,code,trials,failures,p_hat,wilson_lo,wilson_hi,"
        "mean_rate,capacity,lemma1_bound\n"
    )
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 1
    assert parsed[0]["scheme"] == "scheme1" and parsed[0]["n"] == "8"


def test_json_emit_round_trip():
    rows = run_experiment(ExperimentConfig((8,), (0.0,), "scheme2", "identity", 2))
    data = json.loads(emit(rows, "json"))
    assert len(data) == 1 and set(data[0]) == set(CSV_COLUMNS)
    assert data[0]["p_hat"] == 0.0
    with pytest.raises(ValueError):
        emit(rows, "yaml")


def test_rlc_without_seed_draws_fresh_codes():
    cfg = ExperimentConfig(
        (16,), (0.0,), "baseline", "rlc:k=4,rate=1/2", 3, seed=5
    )
    rows = run_experiment(cfg)
    assert rows[0].failures == 0  # noiseless: any drawn code decodes exactly


# ---------------------------------------------------------------------------
# command line


def run_cli(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_csv_to_stdout(capsys):
    rc, out, err = run_cli(
        ["--n", "8", "--eps", "0", "--scheme", "baseline", "--trials", "2"], capsys
    )
    assert rc == 0 and err == ""
    assert out.startswith("n,epsilon,")
    assert out.count("\n") == 2


def test_cli_multi_cell_grid(capsys):
    rc, out, _ = run_cli(
        ["--n", "8,16", "--eps", "0.0,0.1", "--code", "rep3", "--trials", "2"],
        capsys,
    )
    assert rc == 0
    assert out.count("\n") == 5  # header + 2x2 cells


def test_cli_json_to_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    rc, out, _ = run_cli(
        ["--n", "8", "--trials", "2", "--format", "json", "--out", str(target)],
        capsys,
    )
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())[0]["n"] == 8


def test_cli_rejects_bad_code(capsys):
    rc, _, err = run_cli(["--code", "rep2"], capsys)
    assert rc == 2 and err.startswith("markovsim:")


def test_cli_rejects_rate_above_capacity(capsys):
    rc, _, err = run_cli(["--eps", "0.4", "--code", "rep3", "--trials", "1"], capsys)
    assert rc == 2 and "0.029049" in err


def test_cli_rejects_nan_epsilon_before_any_cell(monkeypatch, capsys):
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    rc, out, err = run_cli(["--eps", "nan", "--code", "rep3", "--trials", "1"], capsys)
    assert rc == 2 and out == ""
    assert "crossover probability must lie in [0, 0.5]" in err
    assert cells == []


@pytest.mark.parametrize("n", ["0", "4,0", "-3"])
def test_cli_rejects_short_protocols_before_any_cell(monkeypatch, capsys, n):
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    rc, out, err = run_cli(["--n", n, "--scheme", "scheme2", "--code", "rep3"], capsys)
    assert rc == 2 and out == ""
    assert "protocol lengths must be at least 1" in err
    assert cells == []


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1", "--n", "8"], "master seed must be non-negative, got -1"),
    (["--code", "rlc:k=12,rate=1/4,seed=-3"], "code seed must be non-negative, got -3"),
])
def test_cli_rejects_negative_seeds_before_any_cell(monkeypatch, capsys, args, message):
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    rc, out, err = run_cli(args, capsys)
    assert rc == 2 and out == ""
    assert message in err
    assert cells == []
    # every seed of a code stack is checked
    with pytest.raises(ValueError, match="code seed must be non-negative, got -2"):
        ms.RandomLinear(4, Fraction(1, 2), (1, -2, 3))


def test_cli_missing_protocol_file(capsys):
    rc, _, err = run_cli(["--protocol-file", "/nonexistent/xyz"], capsys)
    assert rc == 2


def test_cli_empty_protocol_file(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("\n  \n")
    rc, out, err = run_cli(["--protocol-file", str(src)], capsys)
    assert rc == 2 and out == ""
    assert "protocol file is empty" in err


def test_cli_unwritable_out_path(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "rows.csv"
    rc, out, err = run_cli(["--n", "8", "--trials", "1", "--out", str(target)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("markovsim:")
    assert not target.exists()


def test_cli_protocol_file(tmp_path, capsys):
    lines = []
    for seed in range(3):
        p = ms.gen_uniform_protocol(12, seed)
        lines.append(ms.serialize_protocol(p))
    src = tmp_path / "protos.txt"
    src.write_text("\n".join(lines) + "\n")
    rc, out, _ = run_cli(
        ["--protocol-file", str(src), "--n", "999", "--scheme", "scheme2",
         "--trials", "6"],
        capsys,
    )
    assert rc == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["n"] == "12" and row["failures"] == "0"


@pytest.mark.parametrize("scheme", ["baseline", "scheme1"])
def test_cli_rejects_m_override_outside_scheme2(monkeypatch, capsys, scheme):
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    rc, out, err = run_cli(["--n", "16", "--scheme", scheme, "--m-override", "3"], capsys)
    assert rc == 2 and out == ""
    assert f"--m-override sets scheme2's block length; {scheme} has none" in err
    assert cells == []
    with pytest.raises(ValueError, match="m-override"):
        ExperimentConfig((16,), (0.0,), scheme, "identity", 1, m_override=3)


@pytest.mark.parametrize("scheme", ["baseline", "scheme1"])
def test_run_trial_rejects_m_override_outside_scheme2(scheme):
    protocol = ms.gen_uniform_protocol(16, 1)
    message = f"--m-override sets scheme2's block length; {scheme} has none"
    with pytest.raises(ValueError, match=message):
        run_trial(scheme, protocol, 0.0, ms.Identity(), 0, m_override=3)
    assert run_trial(scheme, protocol, 0.0, ms.Identity(), 0).ok
    assert run_trial("scheme2", protocol, 0.0, ms.Identity(), 0, m_override=3).ok


def test_cli_m_override(capsys):
    rc, out, _ = run_cli(
        ["--n", "16", "--scheme", "scheme2", "--m-override", "4", "--trials", "3"],
        capsys,
    )
    assert rc == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["mean_rate"]) == pytest.approx(32 / 60)


# ---------------------------------------------------------------------------
# batches


def _record(rep):
    return (
        [v.tolist() for v in (rep.alice.a, rep.alice.b, rep.bob.a, rep.bob.b)],
        (rep.alice_ok, rep.bob_ok, rep.ok),
        (rep.ledger.uses_ab, rep.ledger.uses_ba),
        list(rep.block_profile),
        list(rep.decode_log),
        rep.rate,
    )


def lone_reports(scheme, code, n, eps, trials, seed):
    """(protocols, reports) of a cell's trials, each run alone by run_trial
    and seeded as the harness seeds it."""
    protocols, reports = [], []
    for t in range(trials):
        ss = np.random.SeedSequence(entropy=(seed, 0, t))
        p_seed, noise_seed, code_seed = (int(x) for x in ss.generate_state(3, np.uint64))
        spec = code
        if isinstance(code, ms.RandomLinear) and code.code_seed is None:
            spec = replace(code, code_seed=code_seed)
        protocols.append(ms.gen_uniform_protocol(n, p_seed))
        reports.append(run_trial(scheme, protocols[-1], eps, spec, noise_seed))
    return protocols, reports


def recorded_batches(monkeypatch):
    """Make experiment.run_batch note (scheme, protocols, code) of each call."""
    calls = []

    def recording_batch(scheme, protocols, eps, code, *args):
        calls.append((scheme, protocols, code))
        return run_batch(scheme, protocols, eps, code, *args)

    monkeypatch.setattr(experiment, "run_batch", recording_batch)
    return calls


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
@pytest.mark.parametrize("code_text", ["rep3", "rlc:k=4,rate=1/4"])
def test_batched_cell_equals_lone_trials(monkeypatch, scheme, code_text):
    # a window holds 3 trials here, so 8 trials run in windows of 3, 3 and 2;
    # a window is one batch, but for scheme1 one batch per block count p in
    # it, since p sets its message sizes.  Every record must equal the one
    # run_trial gives the trial alone, seeded as the harness seeds it
    n, eps, trials, seed = 40, 0.05, 8, 17
    code = ms.parse_code_spec(code_text)
    rows = max(n, 1 << code.k if isinstance(code, ms.RandomLinear) else 0)
    monkeypatch.setattr(experiment, "_BATCH_ROUNDS", 3 * rows + 2)
    calls = recorded_batches(monkeypatch)
    cfg = ExperimentConfig((n,), (eps,), scheme, code_text, trials, seed=seed)
    batched = list(experiment.cell_reports(cfg, code, n, eps, 0))
    row = run_experiment(cfg)[0]
    seen = [len(protocols) for _, protocols, _ in calls]
    protocols, lone = lone_reports(scheme, code, n, eps, trials, seed)

    sizes = [3, 3, 2]
    if scheme == "scheme1":
        p_of = [find_partition(q.f).p for q in protocols]
        windows = [p_of[0:3], p_of[3:6], p_of[6:8]]
        sizes = [w.count(p) for w in windows for p in dict.fromkeys(w)]
        assert len(sizes) > 3  # some window mixes block counts
    # both cell_reports and run_experiment ran the cell
    assert seen == sizes * 2
    assert [_record(r) for r in batched] == [_record(r) for r in lone]
    assert any(r.decode_log for r in lone)  # the noise did reach the decodes

    rb = ms.nominal_rate(code)
    assert row.failures == sum(not r.ok for r in lone)
    assert row.mean_rate == math.fsum(float(r.rate) for r in lone) / trials
    bounds = [ms.union_bound_profile(r.block_profile, rb, eps) for r in lone]
    assert row.lemma1_bound == math.fsum(bounds) / trials


@pytest.mark.parametrize("code_text", ["rep3", "rlc:k=4,rate=1/4"])
def test_scheme1_cell_mixes_both_branches(code_text):
    # n = 9: w = 3 and the few-block threshold ceil(9**0.25) = 2, so p = 1, 2
    # ship descriptions and p = 3 runs the vertical exchange, in one window
    n, eps, trials, seed = 9, 0.1, 60, 23
    code = ms.parse_code_spec(code_text)
    cfg = ExperimentConfig((n,), (eps,), "scheme1", code_text, trials, seed=seed)
    batched = list(experiment.cell_reports(cfg, code, n, eps, 0))
    protocols, lone = lone_reports("scheme1", code, n, eps, trials, seed)
    assert {find_partition(q.f).p for q in protocols} == {1, 2, 3}
    assert [_record(r) for r in batched] == [_record(r) for r in lone]
    stages = {e.stage for r in lone for e in r.decode_log}
    assert {"descriptions", "vertical_a"} <= stages


def test_scheme1_batch_with_misdecoded_partitions():
    # uncoded at eps 0.25 the partition message rarely arrives whole; a batch
    # of one block count, whose rows pad to different lengths, must still
    # give each row what it gets alone
    n, eps = 64, 0.25
    protocols = [q for q in (ms.gen_uniform_protocol(n, s) for s in range(60))
                 if find_partition(q.f).p == 8]
    n_pad = {max(n, int(find_partition(q.f).starts[-1]) + 7) for q in protocols}
    assert len(protocols) > 10 and len(n_pad) > 1
    seeds = list(range(100, 100 + len(protocols)))
    batch = run_batch("scheme1", protocols, eps, ms.Identity(), seeds)
    lone = [run_trial("scheme1", q, eps, ms.Identity(), s) for q, s in zip(protocols, seeds)]
    assert [_record(r) for r in batch] == [_record(r) for r in lone]
    assert sum(any(e.stage == "partition" for e in r.decode_log) for r in lone) > 3


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
def test_batch_reports_share_no_mutable_state(scheme):
    # three protocols of one block count, so scheme1 runs them as one batch
    protocols = [q for q in (ms.gen_uniform_protocol(64, s) for s in range(40))
                 if find_partition(q.f).p == 8][:3]
    reports = run_batch(scheme, protocols, 0.0, ms.Identity(), [1, 2, 3])
    before = [(list(r.block_profile), list(r.decode_log)) for r in reports]
    reports[0].block_profile.append(99)
    reports[0].decode_log.append(ms.DecodeEvent("probe", 1, ms.Direction.A_TO_B))
    assert [(list(r.block_profile), list(r.decode_log)) for r in reports[1:]] == before[1:]
    for r in reports:
        assert all(type(v) is int for v in (r.ledger.uses_ab, r.ledger.uses_ba, r.ledger.total))


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
@pytest.mark.parametrize("code_text, n", [("rep3", 5000), ("rlc:k=12,rate=1/4", 8)])
def test_cell_batches_stay_within_the_round_cap(monkeypatch, scheme, code_text, n):
    # a batch holds at most _BATCH_ROUNDS rounds and, with a drawn code, at
    # most _BATCH_ROUNDS codebook rows: at n = 5000 that is 6 trials, with a
    # drawn k = 12 code 8 trials
    calls = recorded_batches(monkeypatch)
    cfg = ExperimentConfig((n,), (0.05,), scheme, code_text, 13, seed=3)
    run_experiment(cfg)
    cap = experiment._BATCH_ROUNDS
    assert sum(len(protocols) for _, protocols, _ in calls) == 13
    for _, protocols, code in calls:
        assert len(protocols) * n <= cap
        if isinstance(code, ms.RandomLinear):
            assert len(code.code_seed) == len(protocols)
            assert len(protocols) << code.k <= cap
    assert max(len(protocols) for _, protocols, _ in calls) > 1

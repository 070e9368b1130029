import csv
import io
import json
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import markovsim as ms
from markovsim import cli, experiment
from markovsim import scheme_random as sr
from markovsim import scheme_regular as sg
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
    # named up front, not by a TypeError inside ChannelPair
    with pytest.raises(ValueError, match="eps_values must be real numbers"):
        ExperimentConfig((8,), ("0.1",), "baseline", "rep3", 2)
    # a bool is a real to Python, and the CSV printed epsilon as False
    with pytest.raises(ValueError, match="eps_values must be real numbers"):
        ExperimentConfig((8,), (False,), "baseline", "identity", 2)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("trials", 2.5), ("n_values", (8.5,)), ("n_values", (8, np.float64(16))),
    # a bool is an int to Python, and the CSV printed trials as True
    ("trials", True), ("seed", False), ("n_values", (8, True)),
])
def test_config_rejects_non_integer_fields(field, value):
    # named up front, not by numpy's TypeError inside run_experiment
    kwargs = dict(n_values=(8,), eps_values=(0.0,), scheme="baseline", code="identity", trials=2)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ExperimentConfig(**kwargs)
    # numpy integers pass, as they do for noise seeds
    kwargs[field] = (np.int64(8),) if field == "n_values" else np.int64(3)
    ExperimentConfig(**kwargs)


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
        assert r.block_union_bound == 0.0 and r.capacity == 1.0
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
    assert row.block_union_bound > 0


def test_csv_emit_shape():
    rows = run_experiment(ExperimentConfig((8,), (0.0,), "scheme1", "identity", 2))
    text = emit(rows, "csv")
    assert text.startswith(
        "n,epsilon,scheme,code,trials,failures,p_hat,wilson_lo,wilson_hi,"
        "mean_rate,capacity,block_union_bound\n"
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
    assert "n_values must be an integer of at least 1, got " in err
    assert cells == []


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1", "--n", "8"], "master seed must be an integer of at least 0, got -1"),
    (["--code", "rlc:k=12,rate=1/4,seed=-3"], "code seed must be an integer of at least 0, got -3"),
], ids=["master seed", "code seed"])
def test_cli_rejects_negative_seeds_before_any_cell(monkeypatch, capsys, args, message):
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    rc, out, err = run_cli(args, capsys)
    assert rc == 2 and out == ""
    assert message in err
    assert cells == []
    # every seed of a code stack is checked
    with pytest.raises(ValueError, match="code seed must be an integer of at least 0, got -2"):
        ms.RandomLinear(4, Fraction(1, 2), (1, -2, 3))


@pytest.mark.parametrize("field", ["seed", "k"])
def test_cli_rejects_repeated_code_field(monkeypatch, capsys, field):
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    spec = f"rlc:k=12,rate=1/4,seed=1,{field}=2"
    rc, out, err = run_cli(["--code", spec, "--n", "8", "--trials", "1"], capsys)
    assert rc == 2 and out == ""
    assert f"random linear field '{field}' given twice" in err
    assert cells == []


def test_cli_rejects_zero_rate_denominator(monkeypatch, capsys):
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    spec = "rlc:k=4,rate=1/0"
    rc, out, err = run_cli(["--code", spec, "--n", "64", "--trials", "2"], capsys)
    assert rc == 2 and out == ""
    assert "cannot read random linear field rate='1/0' in 'rlc:k=4,rate=1/0'" in err
    assert cells == []


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


@pytest.mark.parametrize("m", [2.5, 0, -3, np.float64(4), True])
def test_config_rejects_bad_m_override(m):
    # named up front: 2.5 once failed with numpy's TypeError and 0 with
    # "block length must be positive", both inside run_experiment
    with pytest.raises(ValueError, match="m_override must be an integer of at least 1"):
        ExperimentConfig((16,), (0.0,), "scheme2", "identity", 1, m_override=m)
    with pytest.raises(ValueError, match="m_override"):
        run_trial("scheme2", ms.gen_uniform_protocol(16, 1), 0.0, ms.Identity(), 0,
                  m_override=m)
    assert ExperimentConfig((16,), (0.0,), "scheme2", "identity", 1,
                            m_override=np.int64(4)).m_override == 4


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
        dict(rep.block_counts),
        list(rep.decode_log),
        rep.rate,
    )


def trial_reports(cell):
    """Each trial's lone report, in trial order, from the (trial indices,
    report) batches of cell_reports; every trial must come exactly once."""
    rows = {}
    for trials, report in cell:
        for i, t in enumerate(trials.tolist()):
            assert t not in rows
            rows[t] = report.row(i)
    assert sorted(rows) == list(range(len(rows)))
    return [rows[t] for t in range(len(rows))]


def batch_rows(report):
    """The lone reports of a batch report's rows, in row order."""
    return [report.row(t) for t in range(len(report.ok))]


def trial_seeds(seed, t):
    """(protocol, noise, code) seeds of trial t of cell 0, as the harness
    derives them."""
    ss = np.random.SeedSequence(entropy=(seed, 0, t))
    return tuple(int(x) for x in ss.generate_state(3, np.uint64))


def lone_reports(scheme, code, n, eps, trials, seed, fixed=()):
    """(protocols, reports) of a cell's trials, each run alone by run_trial
    and seeded as the harness seeds it; fixed protocols, if given, cycle."""
    protocols, reports = [], []
    for t in range(trials):
        p_seed, noise_seed, code_seed = trial_seeds(seed, t)
        spec = code
        if isinstance(code, ms.RandomLinear) and code.code_seed is None:
            spec = replace(code, code_seed=code_seed)
        protocols.append(fixed[t % len(fixed)] if fixed else ms.gen_uniform_protocol(n, p_seed))
        reports.append(run_trial(scheme, protocols[-1], eps, spec, noise_seed))
    return protocols, reports


def stacked(protocols):
    """One (T, n) Protocol of a list of lone ones, as run_batch takes them."""
    return ms.Protocol(np.stack([q.f for q in protocols]), np.stack([q.g for q in protocols]))


def recorded_batches(monkeypatch):
    """Make experiment.run_batch note (scheme, protocols, code) of each call;
    protocols is the batch's stacked Protocol."""
    calls = []

    def recording_batch(scheme, protocols, eps, code, *args):
        calls.append((scheme, protocols, code))
        return run_batch(scheme, protocols, eps, code, *args)

    monkeypatch.setattr(experiment, "run_batch", recording_batch)
    return calls


def lookahead_batches(keys, size, span):
    """Trial indices of each batch when every look-ahead of span trials runs
    each key's trials in windows of size, in the order of their first trials."""
    batches = []
    for lo in range(0, len(keys), span):
        by_key = {}
        for t in range(lo, min(lo + span, len(keys))):
            by_key.setdefault(keys[t], []).append(t)
        batches += sorted(ts[j : j + size] for ts in by_key.values()
                          for j in range(0, len(ts), size))
    return batches


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
@pytest.mark.parametrize("code_text", ["rep3", "rlc:k=4,rate=1/4"])
def test_batched_cell_equals_lone_trials(monkeypatch, scheme, code_text):
    # a window holds 3 trials here, and all 8 trials fall in one look-ahead
    # of _LOOKAHEAD_WINDOWS windows: baseline and scheme2 run them in windows
    # of 3, 3 and 2, and scheme1 runs each block count p's trials in windows
    # of 3, since p sets its message sizes.  Every record must equal the one
    # run_trial gives the trial alone, seeded as the harness seeds it
    n, eps, trials, seed = 40, 0.05, 8, 17
    code = ms.parse_code_spec(code_text)
    rows = max(n, 1 << code.k if isinstance(code, ms.RandomLinear) else 0)
    monkeypatch.setattr(experiment, "_BATCH_ROUNDS", 3 * rows + 2)
    calls = recorded_batches(monkeypatch)
    cfg = ExperimentConfig((n,), (eps,), scheme, code_text, trials, seed=seed)
    batched = trial_reports(experiment.cell_reports(cfg, code, n, eps, 0))
    row = run_experiment(cfg)[0]
    seen = [len(protocols.f) for _, protocols, _ in calls]
    protocols, lone = lone_reports(scheme, code, n, eps, trials, seed)

    sizes = [3, 3, 2]
    if scheme == "scheme1":
        p_of = [find_partition(q.f).p for q in protocols]
        span = 3 * experiment._LOOKAHEAD_WINDOWS
        sizes = [len(b) for b in lookahead_batches(p_of, 3, span)]
        assert len(sizes) > 3  # the cell mixes block counts
    # both cell_reports and run_experiment ran the cell
    assert seen == sizes * 2
    assert [_record(r) for r in batched] == [_record(r) for r in lone]
    assert any(r.decode_log for r in lone)  # the noise did reach the decodes

    assert row.failures == sum(not r.ok for r in lone)
    assert row.mean_rate == math.fsum(float(r.rate) for r in lone) / trials
    bounds = [ms.union_bound_profile(r.block_counts, code, eps) for r in lone]
    assert row.block_union_bound == math.fsum(bounds) / trials


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
@pytest.mark.parametrize("code_text", ["rep3", "rep5", "rlc:k=12,rate=1/4,seed=7"])
def test_bound_column_is_each_codes_block_error(scheme, code_text):
    # repetition blocks of b bits fail with exactly 1 - (1 - p_r)**b, p_r the
    # chance that a majority of r copies flips; random linear ones take the
    # ensemble term 2**(-(b/R) * Er)
    n, eps, trials, seed = 40, 0.05, 6, 8
    code = ms.parse_code_spec(code_text)
    row = run_experiment(ExperimentConfig((n,), (eps,), scheme, code_text, trials, seed=seed))[0]
    _, lone = lone_reports(scheme, code, n, eps, trials, seed)
    if isinstance(code, ms.RandomLinear):
        er = ms.gallager_exponent(ms.ExponentQuery(float(code.rate), eps))

        def term(b):
            return 2.0 ** (-(b / float(code.rate)) * er)
    else:
        p_r = stats.binom.sf(code.r // 2, code.r, eps)

        def term(b):
            return 1 - (1 - p_r) ** b
    bounds = [min(1.0, sum(c * term(b) for b, c in r.block_counts.items())) for r in lone]
    assert row.block_union_bound == pytest.approx(sum(bounds) / trials, rel=1e-12)
    if scheme == "baseline":
        assert 0 < row.block_union_bound < 1


def test_bound_column_covers_the_rep3_error_it_once_missed():
    # the ensemble bound reported 1.5e-34 for this cell against a p_hat of
    # 0.99 (0.97 under the SplitMix64 noise)
    row = run_experiment(ExperimentConfig((256,), (0.05,), "baseline", "rep3", 100, seed=3))[0]
    assert row.p_hat == 0.97
    assert row.block_union_bound == 1.0


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
@pytest.mark.parametrize("code_text", ["rep3", "rlc:k=4,rate=1/4"])
def test_big_master_seed_gives_the_lone_records(scheme, code_text):
    # (2**64 + 3, cell, trial) is 5 entropy words, more than SeedSequence's
    # pool of 4: the cell's seeds must still be the ones trial_seeds gets
    n, eps, trials, seed = 40, 0.05, 6, 2**64 + 3
    code = ms.parse_code_spec(code_text)
    cfg = ExperimentConfig((n,), (eps,), scheme, code_text, trials, seed=seed)
    batched = trial_reports(experiment.cell_reports(cfg, code, n, eps, 0))
    _, lone = lone_reports(scheme, code, n, eps, trials, seed)
    assert [_record(r) for r in batched] == [_record(r) for r in lone]
    row = run_experiment(cfg)[0]
    assert row.failures == sum(not r.ok for r in lone)
    assert row.mean_rate == math.fsum(float(r.rate) for r in lone) / trials


@pytest.mark.parametrize("code_text", ["rep3", "rlc:k=4,rate=1/4"])
def test_scheme1_cell_mixes_both_branches(code_text):
    # n = 9: w = 3 and the few-block threshold ceil(9**0.25) = 2, so p = 1, 2
    # ship descriptions and p = 3 runs the vertical exchange, in one window
    n, eps, trials, seed = 9, 0.1, 60, 23
    code = ms.parse_code_spec(code_text)
    cfg = ExperimentConfig((n,), (eps,), "scheme1", code_text, trials, seed=seed)
    batched = trial_reports(experiment.cell_reports(cfg, code, n, eps, 0))
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
    batch = run_batch("scheme1", stacked(protocols), eps, ms.Identity(), seeds)
    lone = [run_trial("scheme1", q, eps, ms.Identity(), s) for q, s in zip(protocols, seeds)]
    assert [_record(r) for r in batch_rows(batch)] == [_record(r) for r in lone]
    assert sum(any(e.stage == "partition" for e in r.decode_log) for r in lone) > 3


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
def test_batch_reports_share_no_mutable_state(scheme):
    # three protocols of one block count, so scheme1 runs them as one batch
    protocols = [q for q in (ms.gen_uniform_protocol(64, s) for s in range(40))
                 if find_partition(q.f).p == 8][:3]
    reports = batch_rows(run_batch(scheme, stacked(protocols), 0.0, ms.Identity(), [1, 2, 3]))
    before = [(dict(r.block_counts), list(r.decode_log)) for r in reports]
    reports[0].block_counts[99] = 1
    reports[0].decode_log.append(ms.DecodeEvent("probe", 1, ms.Direction.A_TO_B))
    assert [(dict(r.block_counts), list(r.decode_log)) for r in reports[1:]] == before[1:]
    for r in reports:
        assert all(type(v) is int for v in (r.ledger.uses_ab, r.ledger.uses_ba, r.ledger.total))
        assert all(type(c) is int for c in r.block_counts.values())
        assert type(r.rate) is Fraction and type(r.ok) is bool
    views = [v for r in reports for v in (r.alice.a, r.alice.b, r.bob.a, r.bob.b)]
    assert not any(np.shares_memory(u, v) for i, u in enumerate(views) for v in views[i + 1:])
    # the rate is derived from the ledger, not stored beside it
    assert "rate" not in {f.name for f in fields(ms.SimulationReport)}


@pytest.mark.parametrize("trials", [1, 3])
def test_batch_report_rate_points_to_the_row_rate(trials):
    # a batch report has one rate per trial, so asking the batch for one
    # rate is an error that names the row's, at T = 1 too; a row keeps its
    # exact Fraction
    protocols = stacked([ms.gen_uniform_protocol(16, s) for s in range(trials)])
    report = run_batch("baseline", protocols, 0.0, ms.Identity(), list(range(trials)))
    with pytest.raises(ValueError, match=r"row\(t\)\.rate"):
        report.rate
    rates = [report.row(t).rate for t in range(trials)]
    assert rates == [Fraction(2, 3)] * trials and all(type(r) is Fraction for r in rates)


def test_bound_is_taken_once_per_distinct_block_counts(monkeypatch):
    # every trial of a rep3 baseline batch sends the same blocks, so a cell
    # of 3 batches takes 3 bounds, not 11, and its column is still the mean
    # of one bound per trial
    calls = recorded_batches(monkeypatch)
    monkeypatch.setattr(experiment, "_BATCH_ROUNDS", 4 * 40)
    bound, taken = experiment.union_bound_profile, []

    def spy(*args):
        taken.append(args)
        return bound(*args)

    monkeypatch.setattr(experiment, "union_bound_profile", spy)
    code, trials, seed = ms.parse_code_spec("rep3"), 11, 4
    (row,) = run_experiment(ExperimentConfig((40,), (0.05,), "baseline", "rep3", trials, seed))
    assert len(calls) == 3 and len(taken) == 3
    _, lone = lone_reports("baseline", code, 40, 0.05, trials, seed)
    each = [bound(r.block_counts, code, 0.05) for r in lone]
    assert row.block_union_bound == math.fsum(each) / trials


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
def test_harness_reduces_batches_without_rows(monkeypatch, scheme):
    # a cell of several batches is reduced as arrays: no lone report and no
    # ledger row is built for any trial
    calls = recorded_batches(monkeypatch)
    monkeypatch.setattr(experiment, "_BATCH_ROUNDS", 3 * 40)
    made = []
    for cls in (ms.SimulationReport, ms.UsageLedger):
        monkeypatch.setattr(cls, "row", lambda self, t, cls=cls: made.append(cls))
    run_experiment(ExperimentConfig((40,), (0.05,), scheme, "rep3", 11, seed=4))
    assert len(calls) > 3 and made == []


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
    assert sum(len(protocols.f) for _, protocols, _ in calls) == 13
    for _, protocols, code in calls:
        assert len(protocols.f) * n <= cap
        if isinstance(code, ms.RandomLinear):
            assert len(code.code_seed) == len(protocols.f)
            assert len(protocols.f) << code.k <= cap
    assert max(len(protocols.f) for _, protocols, _ in calls) > 1


# ---------------------------------------------------------------------------
# the look-ahead: _LOOKAHEAD_WINDOWS windows drawn at once, for every scheme


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
def test_each_lookahead_draws_its_seeds_and_protocols_once(monkeypatch, scheme):
    # windows of 3 trials and look-aheads of 12: 29 trials span three
    # look-aheads, the last one short.  Each takes one seed hash and one
    # protocol draw, and its first report still comes right after its first
    # batch
    n, eps, seed, size, trials = 40, 0.05, 29, 3, 29
    code = ms.parse_code_spec("rep3")
    monkeypatch.setattr(experiment, "_BATCH_ROUNDS", size * n)
    span = size * experiment._LOOKAHEAD_WINDOWS
    protocols, lone = lone_reports(scheme, code, n, eps, trials, seed)
    hashed, drawn, noted = [], [], []
    real_hash, real_draw = experiment.seed_states, experiment.gen_uniform_protocol

    def hashing(entropy, *args):
        hashed.append(len(entropy))
        return real_hash(entropy, *args)

    def drawing(n, seeds):
        drawn.append(len(seeds))
        return real_draw(n, seeds)

    def noting_batch(scheme, protocols, eps, code, noise_seeds, *args):
        noted.append(list(noise_seeds))
        return run_batch(scheme, protocols, eps, code, noise_seeds, *args)

    monkeypatch.setattr(experiment, "seed_states", hashing)
    monkeypatch.setattr(experiment, "gen_uniform_protocol", drawing)
    monkeypatch.setattr(experiment, "run_batch", noting_batch)
    cfg = ExperimentConfig((n,), (eps,), scheme, "rep3", trials, seed=seed)
    cell = experiment.cell_reports(cfg, code, n, eps, 0)
    first = next(cell)
    assert hashed == drawn == [span] and len(noted) == 1
    batches = [first, *cell]
    assert hashed == drawn == [span, span, trials - 2 * span]
    assert [_record(r) for r in trial_reports(batches)] == [_record(r) for r in lone]

    trial_of = {trial_seeds(seed, t)[1]: t for t in range(trials)}
    keys = [0] * trials  # baseline and scheme2 run each look-ahead in trial order
    if scheme == "scheme1":
        keys = [find_partition(q.f).p for q in protocols]
    ran = [[trial_of[s] for s in b] for b in noted]
    assert ran == lookahead_batches(keys, size, span)
    assert [ts.tolist() for ts, _ in batches] == ran  # each batch as it ran


def spied_partitions(monkeypatch):
    """Make find_partition, in the harness and in run_scheme1, note how many
    protocols each call partitions."""
    rows = []

    def spy(f, *args):
        rows.append(len(np.asarray(f).reshape(-1, np.shape(f)[-1])))
        return find_partition(f, *args)

    for module in (experiment, sr):
        monkeypatch.setattr(module, "find_partition", spy)
    return rows


@pytest.mark.parametrize("code_text, trials", [("rep3", 29), ("rlc:k=4,rate=1/4", 8)])
def test_scheme1_partitions_each_trial_once(monkeypatch, code_text, trials):
    # windows of 3 trials and look-aheads of 12: one stacked call per
    # look-ahead, and run_scheme1 uses the partitions it is given
    n = 40
    code = ms.parse_code_spec(code_text)
    rows = max(n, 1 << code.k if isinstance(code, ms.RandomLinear) else 0)
    monkeypatch.setattr(experiment, "_BATCH_ROUNDS", 3 * rows)
    seen = spied_partitions(monkeypatch)
    run_experiment(ExperimentConfig((n,), (0.05,), "scheme1", code_text, trials, seed=5))
    assert sum(seen) == trials
    assert len(seen) == -(-trials // (3 * experiment._LOOKAHEAD_WINDOWS))
    # a lone run still partitions for itself
    seen.clear()
    run_trial("scheme1", ms.gen_uniform_protocol(n, 1), 0.0, ms.Identity(), 1)
    assert seen == [1]


@pytest.mark.parametrize("code_text", ["rep3", "rlc:k=4,rate=1/4"])
@pytest.mark.parametrize("trials, fixed", [(29, 0), (13, 5)])
def test_scheme1_lookahead_runs_full_batches_in_trial_order(monkeypatch, code_text, trials, fixed):
    # windows of 3 trials and look-aheads of 12: 29 trials span three
    # look-aheads, the last one short, and neither count is a multiple of 3;
    # 5 fixed protocols cycle through 13 trials
    n, eps, seed, size = 40, 0.05, 29, 3
    code = ms.parse_code_spec(code_text)
    rows = max(n, 1 << code.k if isinstance(code, ms.RandomLinear) else 0)
    monkeypatch.setattr(experiment, "_BATCH_ROUNDS", size * rows)
    span = size * experiment._LOOKAHEAD_WINDOWS
    fixed = tuple(ms.gen_uniform_protocol(n, s) for s in range(fixed))
    cfg = ExperimentConfig((n,), (eps,), "scheme1", code_text, trials, seed=seed,
                           protocols=fixed or None)
    protocols, lone = lone_reports("scheme1", code, n, eps, trials, seed, fixed)
    noted = []

    def noting_batch(scheme, protocols, eps, code, noise_seeds, *args):
        noted.append(list(noise_seeds))
        return run_batch(scheme, protocols, eps, code, noise_seeds, *args)

    monkeypatch.setattr(experiment, "run_batch", noting_batch)
    cell = experiment.cell_reports(cfg, code, n, eps, 0)
    first = next(cell)
    # trial 0's report comes as soon as its batch ran
    assert len(noted) == 1 and first[0][0] == 0
    batched = [first, *cell]
    assert [_record(r) for r in trial_reports(batched)] == [_record(r) for r in lone]

    # every batch holds one look-ahead's trials of one block count, and is
    # full unless it is the last of its block count in its look-ahead
    trial_of = {trial_seeds(seed, t)[1]: t for t in range(trials)}
    batches = [[trial_of[s] for s in b] for b in noted]
    assert [ts.tolist() for ts, _ in batched] == batches
    p_of = [find_partition(q.f).p for q in protocols]
    assert sorted(t for b in batches for t in b) == list(range(trials))
    last = {}
    for i, b in enumerate(batches):
        assert len({p_of[t] for t in b}) == 1 and len({t // span for t in b}) == 1
        assert b == sorted(b)
        last[p_of[b[0]], b[0] // span] = i
    assert all(len(b) == size for i, b in enumerate(batches) if i not in last.values())
    assert batches == lookahead_batches(p_of, size, span)
    assert len(set(p_of)) > 1 and max(map(len, batches)) == size


def test_run_batch_takes_a_partition_for_scheme1_only():
    # the partition is given as the batch's (T, p) block starts
    q = ms.gen_uniform_protocol(16, 3)
    starts, counts = find_partition(q.f[None])
    starts = starts[:, : counts[0]]
    got = run_batch("scheme1", stacked([q]), 0.0, ms.Identity(), [1], None, starts)
    assert _record(got.row(0)) == _record(run_trial("scheme1", q, 0.0, ms.Identity(), 1))
    with pytest.raises(ValueError, match="partition"):
        run_batch("baseline", stacked([q]), 0.0, ms.Identity(), [1], None, starts)


def test_run_batch_takes_a_stacked_batch_only():
    q = ms.gen_uniform_protocol(16, 3)
    with pytest.raises(ValueError, match="batch of protocols"):
        run_batch("baseline", q, 0.0, ms.Identity(), [1])


@pytest.mark.parametrize("code_text", ["rep3", "rlc:k=5,rate=1/3"])
@pytest.mark.parametrize("scheme, n, branch", [
    ("baseline", 64, None),
    ("scheme2", 64, None),
    ("scheme2", 257, None),  # padded to 17 blocks of 16
    ("scheme1", 64, "vertical"),  # p = 8 > 3
    ("scheme1", 10, "descriptions"),  # p = 2 <= 2
])
def test_each_direction_draws_its_noise_once_per_batch(monkeypatch, scheme, n, branch,
                                                       code_text):
    # a scheme's draw-ahead spans cover each direction's messages exactly: one
    # _noise pass over the rows per direction, from position 0 to its last
    # use.  A wrong span costs time and changes no output, so only this shows
    # it; the outputs must equal those of a pair that draws per message
    protocols = ms.gen_uniform_protocol(n, list(range(100, 160)))
    starts = None
    if scheme == "scheme1":
        found, counts = find_partition(protocols.f)
        few = counts <= sr._ceil_root4(n)
        p = np.bincount(counts[few == (branch == "descriptions")]).argmax()
        keep = counts == p
        protocols = ms.Protocol(protocols.f[keep], protocols.g[keep])
        starts = found[keep, :p]
        assert len(set(sr._padded_len(sr.Partition(starts, sr.ceil_isqrt(n)), n))) > 1
    trials = len(protocols.f)
    code = ms.parse_code_spec(code_text)
    if isinstance(code, ms.RandomLinear):
        code = replace(code, code_seed=tuple(range(7, 7 + trials)))
    calls = []
    real = ms.ChannelPair._noise

    def counted(ch, direction, start, count):
        calls.append((ch, direction, start, count))
        return real(ch, direction, start, count)

    monkeypatch.setattr(ms.ChannelPair, "_noise", counted)
    for eps in (0.0, 0.05):
        got = run_batch(scheme, protocols, eps, code, list(range(trials)), starts=starts)
        if eps == 0.0:
            assert calls == []
    ch = calls[0][0]
    assert [c[1:] for c in calls] == [(0, 0, ch._pos[0]), (1, 0, ch._pos[1])]
    monkeypatch.setattr(ms.ChannelPair, "draw_ahead", lambda *args: None)
    want = run_batch(scheme, protocols, 0.05, code, list(range(trials)), starts=starts)
    assert [_record(r) for r in batch_rows(got)] == [_record(r) for r in batch_rows(want)]
    # drawn per message: the baseline sends one per direction, the others more
    per_message = len(calls) - 2
    assert per_message == 2 if scheme == "baseline" else per_message > 2


def _same_report(got, want):
    for side in ("alice", "bob"):
        for bits in ("a", "b"):
            assert np.array_equal(getattr(getattr(got, side), bits),
                                  getattr(getattr(want, side), bits))
    assert np.array_equal(got.ok, want.ok) and got.ledger.total == want.ledger.total


def test_numpy_integer_block_length_gives_the_python_int_result():
    # m = np.int64(8) once died on 'numpy.int64' object has no attribute 'bit_length'
    p, code = ms.gen_uniform_protocol(64, 5), ms.Repetition(3)
    for m in (np.int64(8), np.uint8(8)):
        _same_report(run_trial("scheme2", p, 0.05, code, 3, m),
                     run_trial("scheme2", p, 0.05, code, 3, 8))
        _same_report(sg.run_scheme2(p, ms.ChannelPair(0.05, 3), code, m),
                     sg.run_scheme2(p, ms.ChannelPair(0.05, 3), code, 8))
        ends = [sg.predictor_exchange(p, block, code, ms.ChannelPair(0.05, 3), ms.UsageLedger())
                for block in (m, 8)]
        assert np.array_equal(*ends)
        cfg = ExperimentConfig((64,), (0.05,), "scheme2", "rep3", 4, m_override=m)
        assert type(cfg.m_override) is int
        want = replace(cfg, m_override=8)
        for fmt in ("csv", "json"):
            assert emit(run_experiment(cfg), fmt) == emit(run_experiment(want), fmt)


def test_numpy_config_values_emit_the_python_rows():
    # np.int64 n and trials once made emit(rows, "json") raise a TypeError
    plain = ExperimentConfig((16, 24), (0.0, 0.05), "scheme1", "rep3", 3, seed=7)
    numpy = ExperimentConfig((np.int64(16), np.uint16(24)), (np.float64(0.0), np.float64(0.05)),
                             "scheme1", "rep3", np.int64(3), seed=np.uint8(7))
    assert numpy == plain
    for fmt in ("csv", "json"):
        assert emit(run_experiment(numpy), fmt) == emit(run_experiment(plain), fmt)
    # an np.float32 or Fraction epsilon once made the JSON raise, and the
    # Fraction printed as 1/20 in the CSV
    for eps in (np.float32(0.05), Fraction(1, 20)):
        cfg = ExperimentConfig((16,), (eps,), "baseline", "rep3", 2)
        assert cfg.eps_values == (float(eps),)
        assert json.loads(emit(run_experiment(cfg), "json"))[0]["epsilon"] == float(eps)
    row = next(csv.DictReader(io.StringIO(emit(run_experiment(cfg), "csv"))))
    assert row["epsilon"] == "0.05"


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_empty_seed_sequences_are_rejected(eps):
    # ChannelPair(0.05, []) once failed in a numpy reshape while eps 0 built
    with pytest.raises(ValueError, match=r"noise seed must be an integer of at least 0, got \[\]"):
        ms.ChannelPair(eps, [])
    with pytest.raises(ValueError, match=r"noise seed must be an integer of at least 0, got \(\)"):
        run_batch("baseline", ms.gen_uniform_protocol(8, [1]), eps, ms.Identity(), ())
    # once "protocol length must be at least 1"
    with pytest.raises(ValueError,
                       match=r"protocol seed must be an integer of at least 0, got \[\]"):
        ms.gen_uniform_protocol(8, [])


@pytest.mark.parametrize("field, spec", [
    ("k='x'", "rlc:k=x,rate=1/4"), ("rate='abc'", "rlc:k=4,rate=abc"),
    ("seed='1e3'", "rlc:k=4,rate=1/4,seed=1e3"),
])
def test_cli_names_the_code_field_it_cannot_read(monkeypatch, capsys, field, spec):
    # once "invalid literal for int() with base 10: 'x'" and
    # "Invalid literal for Fraction: 'abc'", naming neither field nor spec
    cells = []
    monkeypatch.setattr(experiment, "cell_reports", lambda *args: cells.append(args))
    rc, out, err = run_cli(["--code", spec, "--n", "8", "--trials", "1"], capsys)
    assert rc == 2 and out == ""
    assert f"cannot read random linear field {field} in {spec!r}" in err
    assert cells == []

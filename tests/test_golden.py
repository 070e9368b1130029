"""Golden lock: the output of a small seeded grid must not change by a byte.

Two records are pinned for every cell of the grid (scheme x code x eps x n):

- the CLI's CSV and JSON output, one invocation per cell, so that a cell
  that raises cannot hide the others;
- a SHA-256 over every ``run_trial`` record of the cell: both views, the ok
  flags, the ledger, the rate, the decode log and the block counts.  A trial
  that raises is recorded by its exception type.

One ``--protocol-file`` run is pinned as well.  To rewrite the files under
``tests/golden/`` after a change that is meant to alter the output, run this
module as a script:

    PYTHONPATH=src python tests/test_golden.py

With ``--check`` it writes nothing: it recomputes every record, prints the
id of each cell whose records differ from the files (with which of them
differ), and exits with status 1 if any do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from markovsim import cli
from markovsim.coding import RandomLinear, parse_code_spec
from markovsim.experiment import run_trial
from markovsim.protocol import gen_uniform_protocol, serialize_protocol

GOLDEN = Path(__file__).with_name("golden")
CLI_FILE = GOLDEN / "cli.json"
TRIALS_FILE = GOLDEN / "trials.json"
PROTOCOL_FILE = GOLDEN / "protocols.txt"

SEED = 2018
CLI_TRIALS = 8
DIGEST_TRIALS = 24
CODES = {
    "identity": "identity",
    "rep3": "rep3",
    "rlc-fixed": "rlc:k=12,rate=1/4,seed=7",
    "rlc-drawn": "rlc:k=12,rate=1/4",
}
# identity has no margin below capacity, so the harness rejects it at eps > 0
CELLS = [
    (scheme, code, eps, n)
    for scheme in ("baseline", "scheme1", "scheme2")
    for code in CODES
    for eps in (0.0, 0.05)
    for n in (1, 64, 257)
    if not (code == "identity" and eps > 0)
]
PROTOCOL_RUN = ["--scheme", "scheme2", "--code", "rep3", "--eps", "0,0.05",
                "--m-override", "5", "--trials", "6", "--seed", str(SEED)]


def cell_id(cell) -> str:
    scheme, code, eps, n = cell
    return f"{scheme}-{code}-eps{eps}-n{n}"


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return {"exit": status, "stdout": out.getvalue()}


def cli_record(cell) -> dict:
    scheme, code, eps, n = cell
    argv = ["--scheme", scheme, "--code", CODES[code], "--eps", str(eps),
            "--n", str(n), "--trials", str(CLI_TRIALS), "--seed", str(SEED)]
    return {fmt: run_cli(argv + ["--format", fmt]) for fmt in ("csv", "json")}


def protocol_file_record() -> dict:
    argv = PROTOCOL_RUN + ["--protocol-file", str(PROTOCOL_FILE)]
    return {fmt: run_cli(argv + ["--format", fmt]) for fmt in ("csv", "json")}


def trial_record(cell, t: int) -> dict:
    """Record of trial t, seeded exactly as the harness seeds it."""
    scheme, code, eps, n = cell
    ss = np.random.SeedSequence(entropy=(SEED, 0, t))
    p_seed, noise_seed, code_seed = (int(x) for x in ss.generate_state(3, np.uint64))
    spec = parse_code_spec(CODES[code])
    if isinstance(spec, RandomLinear) and spec.code_seed is None:
        spec = replace(spec, code_seed=code_seed)
    try:
        rep = run_trial(scheme, gen_uniform_protocol(n, p_seed), eps, spec, noise_seed)
    except Exception as exc:  # recorded, so a change of behaviour shows
        return {"raised": type(exc).__name__}
    return {
        "scheme": rep.scheme,
        "n": rep.n,
        "alice": [rep.alice.a.tobytes().hex(), rep.alice.b.tobytes().hex()],
        "bob": [rep.bob.a.tobytes().hex(), rep.bob.b.tobytes().hex()],
        "ok": [bool(rep.alice_ok), bool(rep.bob_ok)],
        "ledger": [rep.ledger.uses_ab, rep.ledger.uses_ba],
        "rate": str(rep.rate),
        "decode_log": [[e.stage, e.index, int(e.direction)] for e in rep.decode_log],
        "block_counts": sorted([int(s), int(c)] for s, c in rep.block_counts.items()),
    }


def trials_record(cell) -> dict:
    records = [trial_record(cell, t) for t in range(DIGEST_TRIALS)]
    text = "\n".join(json.dumps(r) for r in records)
    raised = {str(t): r["raised"] for t, r in enumerate(records) if "raised" in r}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "raised": raised}


@pytest.fixture(scope="module")
def golden_cli() -> dict:
    return json.loads(CLI_FILE.read_text())


@pytest.fixture(scope="module")
def golden_trials() -> dict:
    return json.loads(TRIALS_FILE.read_text())


def test_golden_files_cover_the_grid(golden_cli, golden_trials):
    keys = [cell_id(c) for c in CELLS]
    assert sorted(golden_cli) == sorted(keys + ["protocol-file"])
    assert sorted(golden_trials) == sorted(keys)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cli_output_matches_golden(cell, golden_cli):
    assert cli_record(cell) == golden_cli[cell_id(cell)]


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_trial_records_match_golden(cell, golden_trials):
    assert trials_record(cell) == golden_trials[cell_id(cell)]


def test_protocol_file_run_matches_golden(golden_cli):
    assert protocol_file_record() == golden_cli["protocol-file"]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    PROTOCOL_FILE.write_text(
        "".join(serialize_protocol(gen_uniform_protocol(50, s)) + "\n" for s in (1, 2, 3))
    )
    cli_out = {cell_id(c): cli_record(c) for c in CELLS}
    cli_out["protocol-file"] = protocol_file_record()
    CLI_FILE.write_text(json.dumps(cli_out, indent=1, sort_keys=True) + "\n")
    trials = {cell_id(c): trials_record(c) for c in CELLS}
    TRIALS_FILE.write_text(json.dumps(trials, indent=1, sort_keys=True) + "\n")


def check() -> int:
    got = {CLI_FILE: {"protocol-file": protocol_file_record()}, TRIALS_FILE: {}}
    for c in CELLS:
        got[CLI_FILE][cell_id(c)] = cli_record(c)
        got[TRIALS_FILE][cell_id(c)] = trials_record(c)
    differ = {}
    for path, records in got.items():
        want = json.loads(path.read_text())
        for key, record in records.items():
            if record != want.get(key):
                differ.setdefault(key, []).append(path.stem)
    for key, files in differ.items():
        print(f"{key}: {' '.join(files)}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: test_golden.py [--check]")
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    regenerate()

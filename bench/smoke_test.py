"""Smoke test of the benchmark itself, at reduced case sizes.

    python3 -m pytest bench/smoke_test.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, group):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[group]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules; modswap is imported afresh after the test."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracer
    import workloads

    yield run, tracer, workloads
    run.import_program()


def _wrong_value(env: dict) -> dict:
    env["results"]["total_measured"] = 1.0
    return env


def _same_value_other_bytes(env: dict) -> dict:
    env["results"]["note"] = "rerun"
    return env


@pytest.mark.parametrize("corrupt", [_wrong_value, _same_value_other_bytes])
def test_corrupted_envelope_counts_as_failed(tmp_path, monkeypatch, bench, corrupt):
    run, _, workloads = bench
    cli, inputs, _ = run.setup("evolve-channel", 3, tmp_path, small=True)
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    cases = workloads.build_cases("evolve-channel", 3, inputs, outputs, small=True)
    runner = run.Runner(cli, cases)
    runner.run_pass()
    assert runner.failures == []

    target, real_main = cases[0], cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv == target.argv:
            env = corrupt(json.loads(target.out.read_text()))
            target.out.write_text(json.dumps(env, sort_keys=True, indent=2) + "\n")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    runner.run_pass()
    assert runner.attempted == 2 * len(cases)
    assert len(runner.failures) == 1 and runner.failures[0].startswith(target.label)


def test_spans_cover_functions_imported_by_name(tmp_path, bench):
    run, tracing, workloads = bench
    cli = run.import_program()
    tracer = tracing.Tracer()
    tracer.install()
    matrix, state = tmp_path / "a.json", tmp_path / "psi.json"
    workloads.write_matrix(matrix, workloads.PAULI_X)
    workloads.write_matrix(state, [1, 0])
    assert cli.main(["qpe", "--matrix", str(matrix), "--state", str(state),
                     "--bits", "2", "--out", str(tmp_path / "out.json")]) == 0
    names = [span[0] for span in tracer.spans]
    parents = {names[i]: names[span[3]] for i, span in enumerate(tracer.spans)
               if span[3] is not None}
    assert names[0] == "cli.main"
    # read_hermitian and joint_from_eig reach qpe through "from .x import y"
    assert parents["oracle.read_hermitian"] == "qpe.qpe"
    assert parents["qpe.joint_from_eig"] == "qpe.qpe"
    assert parents["matio.load_matrix"] in ("cli.main", "matio.load_state")

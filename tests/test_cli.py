import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modswap.cli as cli
from modswap import FORMAT_VERSION, __version__
from modswap.channel import EvolutionConfig
from modswap.cli import build_parser, main
from modswap.oracle import MatrixOracle
from modswap.matio import load_matrix, save_matrix, save_state
from modswap.linalg import random_low_rank, require_hermitian
from modswap.qpe import default_base_time


def _gen(tmp_path, name="a.json", n=4, rank=2, seed=7):
    path = tmp_path / name
    assert main(["gen-matrix", "--n", str(n), "--rank", str(rank),
                 "--seed", str(seed), "--out", str(path)]) == 0
    return path


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "modswap 0.1.0" in capsys.readouterr().out


def test_gen_matrix_round_trips(tmp_path):
    path = _gen(tmp_path, n=8, rank=2, seed=7)
    a = load_matrix(path)
    assert a.shape == (8, 8)
    w = np.abs(np.linalg.eigvalsh(a))
    assert np.sum(w > 1e-10) == 2


def test_gen_matrix_matches_library_generator(tmp_path):
    path = _gen(tmp_path, n=6, rank=3, seed=11)
    lib = random_low_rank(6, 3, 1.0, np.random.default_rng(11))
    assert np.array_equal(load_matrix(path), lib)


def test_gen_matrix_seeded_determinism(tmp_path):
    p1 = _gen(tmp_path, "a1.json", seed=3)
    p2 = _gen(tmp_path, "a2.json", seed=3)
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_matrix_rectangular_emits_embedding(tmp_path):
    out = tmp_path / "r.json"
    assert main(["gen-matrix", "--m", "4", "--n", "6", "--rank", "2",
                 "--seed", "5", "--out", str(out)]) == 0
    a = load_matrix(out)
    assert a.shape == (4, 6)
    ext = load_matrix(tmp_path / "r.extended.json")
    assert ext.shape == (10, 10)
    np.testing.assert_allclose(ext[:4, 4:], a, atol=1e-15)


def test_error_sweep_deterministic_csv(tmp_path):
    matrix = _gen(tmp_path)
    c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["error-sweep", "--matrix", str(matrix), "--dts", "0.1,0.05,0.025"]
    assert main(args + ["--out", str(c1)]) == 0
    assert main(args + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    header = c1.read_text().splitlines()[0]
    assert header == "delta_t,measured_error,bound,ratio"


def test_evolve_envelope_meets_budget(tmp_path):
    matrix = _gen(tmp_path)
    out = tmp_path / "evolve.json"
    assert main(["evolve", "--matrix", str(matrix), "--time", "0.2",
                 "--epsilon", "0.05", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert env["command"] == "evolve"
    assert env["results"]["total_measured"] <= 0.05
    assert env["config"]["epsilon"] == 0.05
    assert env["wall_ms"] is None
    assert env["oracle_calls"] > 0


def test_evolve_envelope_byte_identical_rerun(tmp_path):
    matrix = _gen(tmp_path)
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    args = ["evolve", "--matrix", str(matrix), "--time", "0.2",
            "--epsilon", "0.05"]
    assert main(args + ["--out", str(e1)]) == 0
    assert main(args + ["--out", str(e2)]) == 0
    assert e1.read_bytes() == e2.read_bytes()


def test_evolve_timing_flag_populates_wall_ms(tmp_path):
    matrix = _gen(tmp_path)
    out = tmp_path / "evolve.json"
    assert main(["evolve", "--matrix", str(matrix), "--time", "0.1",
                 "--epsilon", "0.1", "--timing", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["wall_ms"] > 0


def test_qpe_envelope(tmp_path):
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    matrix = tmp_path / "x.json"
    save_matrix(matrix, a)
    state = tmp_path / "psi.json"
    save_state(state, np.array([1, 0], dtype=complex))
    out = tmp_path / "qpe.json"
    assert main(["qpe", "--matrix", str(matrix), "--state", str(state),
                 "--bits", "3", "--t0", str(np.pi), "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    dist = env["results"]["distribution"]
    assert dist[2] == pytest.approx(0.5, abs=1e-10)
    assert dist[6] == pytest.approx(0.5, abs=1e-10)
    values = sorted(e["value"] for e in env["results"]["estimates"])
    assert values == [pytest.approx(-0.5), pytest.approx(0.5)]
    assert env["oracle_calls"] == 3  # one counted upper-triangle read


def test_qpe_generator_source(tmp_path):
    out = tmp_path / "qpe.json"
    assert main(["qpe", "--generator", "random-lowrank:n=4,r=2,seed=9",
                 "--bits", "6", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert len(env["results"]["distribution"]) == 64


def test_svd_envelope(tmp_path):
    out_m = tmp_path / "m.json"
    assert main(["gen-matrix", "--m", "3", "--n", "4", "--rank", "2",
                 "--seed", "2", "--out", str(out_m)]) == 0
    out = tmp_path / "svd.json"
    assert main(["svd", "--matrix", str(out_m), "--bits", "10",
                 "--threshold", "0.02", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert env["results"]["rank"] == 2
    assert env["results"]["reconstruction_residual"] <= 1e-8
    for pair in env["results"]["subvector_norms"]:
        np.testing.assert_allclose(pair, 1 / np.sqrt(2), atol=1e-9)
    assert env["results"]["unresolved"] == 0
    assert env["results"]["degenerate"] == [False, False]


def test_svd_envelope_reports_unresolved_below_grid(tmp_path, capsys):
    # diag(1, 2, 3, 4) at bits 4: a grid step of 4 in sigma units leaves the
    # sigma = 2 eigenvector with 0.496 of its mass in the window
    matrix, out = tmp_path / "d.json", tmp_path / "svd.json"
    save_matrix(matrix, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert main(["svd", "--matrix", str(matrix), "--bits", "4",
                 "--threshold", "0.01", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert results["rank"] == 2
    assert results["unresolved"] == 1
    assert results["grid_step"] == pytest.approx(4.0, rel=1e-8)
    assert "1 unresolved" in capsys.readouterr().out


def test_svd_rejects_trotter_backend(tmp_path):
    matrix = _gen(tmp_path)
    out = tmp_path / "svd.json"
    with pytest.raises(SystemExit) as exc:
        main(["svd", "--matrix", str(matrix), "--bits", "8",
              "--threshold", "0.05", "--backend", "trotter",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["procrustes", "--bits", "8", "--threshold", "0.05", "--backend", "exact"],
    ["error-sweep", "--dts", "0.1", "--timing"],
    ["evolve", "--time", "0.2", "--epsilon", "0.05", "--seed", "1"],
    ["error-sweep", "--dts", "0.1", "--seed", "1"],
    ["qpe", "--bits", "3", "--seed", "1"],
    ["svd", "--bits", "8", "--threshold", "0.05", "--seed", "1"],
])
def test_flags_without_effect_are_usage_errors(tmp_path, argv):
    # procrustes runs on the exact backend only, error-sweep writes no
    # envelope to time, and evolve, error-sweep, qpe and svd draw no random
    # numbers: none of these flags exists
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--matrix", str(_gen(tmp_path)), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_procrustes_envelope(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    matrix = tmp_path / "m.json"
    save_matrix(matrix, 2.0 * np.outer(u, v.conj()))
    state = tmp_path / "v.json"
    save_state(state, v)
    out = tmp_path / "proc.json"
    assert main(["procrustes", "--matrix", str(matrix), "--state", str(state),
                 "--bits", "9", "--threshold", "0.05", "--shots", "200",
                 "--seed", "1", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert env["results"]["success_probability"] == pytest.approx(0.5, abs=0.02)
    assert env["results"]["fidelity_vs_oracle"] >= 1 - 1e-6
    assert env["results"]["sampled_success_probability"] is not None


def test_demo_phase_ambiguity_envelope(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    matrix = tmp_path / "m.json"
    save_matrix(matrix, a)
    out = tmp_path / "demo.json"
    assert main(["demo-phase-ambiguity", "--matrix", str(matrix),
                 "--seed", "4", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert env["results"]["gram_deviation"] <= 1e-10
    assert env["results"]["distance"] >= 0.1 * np.linalg.norm(a)


def test_missing_matrix_file_exits_2(tmp_path):
    out = tmp_path / "x.json"
    assert main(["qpe", "--matrix", str(tmp_path / "nope.json"),
                 "--bits", "3", "--out", str(out)]) == 2


@pytest.mark.parametrize("name,text,message", [
    ("string-entry.json", '{"rows": 1, "cols": 2, "data": [["a", 0], [1, 0]]}',
     "data entry 0 is ['a', 0]"),
    ("non-pair.json", '{"rows": 1, "cols": 2, "data": [[1, 0], 1]}', "data entry 1 is 1"),
    ("top-level-list.json", '[[1, 0], [0, 1]]', "not a list"),
    ("null-rows.json", '{"rows": null, "cols": 1, "data": [[1, 0]]}',
     "rows and cols must be integers"),
    ("three-part-cell.csv", '"1,0","1,2,3"\n', "row 1, cell 1 is '1,2,3'"),
    ("fractional-rows.json", '{"rows": 2.7, "cols": 1, "data": [[1, 0], [2, 0]]}',
     "rows and cols must be integers, got 2.7 and 1"),
    ("boolean-cols.json", '{"rows": 1, "cols": true, "data": [[1, 0]]}',
     "rows and cols must be integers, got 1 and True"),
    ("one-number-cell.csv", '"1,0",1\n', "row 1, cell 1 is '1'"),
    ("boolean-entry.json", '{"rows": 1, "cols": 2, "data": [[1, 0], [true, false]]}',
     "data entry 1 is [True, False], not a number pair (re, im)"),
    ("nan-entry.json", '{"rows": 1, "cols": 2, "data": [[1, 0], [NaN, 0]]}',
     "nan-entry.json: matrix contains NaN or infinity"),
    ("infinite-cell.csv", '"1,0","0,inf"\n', "infinite-cell.csv: matrix contains NaN"),
])
def test_malformed_matrix_file_exits_2(tmp_path, capsys, name, text, message):
    matrix = tmp_path / name
    matrix.write_text(text)
    out = tmp_path / "o.json"
    assert main(["demo-phase-ambiguity", "--matrix", str(matrix), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "runtime failure" not in err
    assert not out.exists()


def test_missing_source_exits_2(tmp_path):
    assert main(["evolve", "--time", "1", "--epsilon", "0.1",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--bogus", "1"])
    assert exc.value.code == 2


def test_aliasing_config_exits_2(tmp_path):
    matrix = _gen(tmp_path)
    assert main(["qpe", "--matrix", str(matrix), "--bits", "3",
                 "--t0", "100.0", "--out", str(tmp_path / "q.json")]) == 2


def _non_hermitian(tmp_path):
    a = np.array([[0.5, 1.0, 0.0], [0.2, -0.3, 0.4], [0.0, 0.9, 0.1]], dtype=complex)
    path = tmp_path / "nonherm.json"
    save_matrix(path, a)
    return path


def test_evolve_rejects_non_hermitian_exits_2(tmp_path):
    out = tmp_path / "e.json"
    assert main(["evolve", "--matrix", str(_non_hermitian(tmp_path)), "--time", "0.2",
                 "--epsilon", "0.05", "--out", str(out)]) == 2
    assert not out.exists()


def test_error_sweep_rejects_non_hermitian_exits_2(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["error-sweep", "--matrix", str(_non_hermitian(tmp_path)),
                 "--dts", "0.1,0.05", "--out", str(out)]) == 2
    assert not out.exists()


def test_error_sweep_rejects_zero_matrix_exits_2(tmp_path):
    # a zero matrix makes every bound 2 * max_norm^2 * dt^2 zero
    matrix = tmp_path / "zero.json"
    save_matrix(matrix, np.zeros((3, 3)))
    out = tmp_path / "s.csv"
    assert main(["error-sweep", "--matrix", str(matrix), "--dts", "0.1,0.05",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("dts", ["0.1,nan", "inf,0.1", "0.1,-inf"])
def test_error_sweep_rejects_non_finite_dts_exits_2(tmp_path, monkeypatch, capsys, dts):
    import modswap.cli as cli

    oracles = []
    resolve = cli._resolve_oracle

    def recording(args):
        oracles.append(resolve(args))
        return oracles[-1]

    monkeypatch.setattr(cli, "_resolve_oracle", recording)
    out = tmp_path / "s.csv"
    assert main(["error-sweep", "--matrix", str(_gen(tmp_path)), "--dts", dts,
                 "--out", str(out)]) == 2
    assert "delta_t values must be finite" in capsys.readouterr().err
    assert not out.exists()
    assert [o.report_calls() for o in oracles] == [0]


def test_qpe_rejects_non_hermitian_exits_2(tmp_path):
    out = tmp_path / "q.json"
    assert main(["qpe", "--matrix", str(_non_hermitian(tmp_path)), "--bits", "3",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_qpe_rejects_bad_t0_and_epsilon_exits_2(tmp_path):
    matrix = _gen(tmp_path)
    for value in ("nan", "inf", "0", "-100"):
        out = tmp_path / "q.json"
        assert main(["qpe", "--matrix", str(matrix), "--bits", "3", "--t0", value,
                     "--out", str(out)]) == 2
        assert not out.exists()
    assert main(["qpe", "--matrix", str(matrix), "--bits", "3", "--backend", "trotter",
                 "--trotter-epsilon", "nan", "--out", str(out)]) == 2
    assert not out.exists()


def test_evolve_rejects_non_finite_options_exits_2(tmp_path):
    matrix = _gen(tmp_path)
    out = tmp_path / "e.json"
    for time_, eps in (("inf", "0.05"), ("nan", "0.05"), ("0.2", "nan"), ("0.2", "inf")):
        assert main(["evolve", "--matrix", str(matrix), "--time", time_,
                     "--epsilon", eps, "--out", str(out)]) == 2
        assert not out.exists()
    assert main(["evolve", "--matrix", str(matrix), "--time", "inf", "--epsilon", "0.05",
                 "--steps", "3", "--out", str(out)]) == 2
    assert not out.exists()


def test_qpe_register_kernel_guard_exits_2(tmp_path):
    out = tmp_path / "q.json"
    assert main(["qpe", "--matrix", str(_gen(tmp_path)), "--bits", "40",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["qpe", "svd", "procrustes"])
def test_exact_memory_guard_boundary_exits_2_before_any_query(tmp_path, monkeypatch,
                                                               command):
    # the cap charges the 2^bits x d float64 mass matrix of the d-dimensional
    # (embedded) matrix: a cap of exactly that many bytes runs, one byte less
    # exits 2 before the source is read
    matrix, state = _rank_one_procrustes_inputs(tmp_path)
    d, bits = 6, 9
    if command == "qpe":
        matrix, d = _gen(tmp_path), 4
    argv = [command, "--matrix", str(matrix), "--bits", str(bits)]
    if command != "qpe":
        argv += ["--threshold", "0.05"]
    if command == "procrustes":
        argv += ["--state", str(state)]
    reads = []

    def counting(method):
        def counted(self, *args):
            reads.append(args)
            return method(self, *args)
        return counted

    for name in ("query", "read_upper_triangle", "read_all"):
        monkeypatch.setattr(MatrixOracle, name, counting(getattr(MatrixOracle, name)))
    qpe_module = importlib.import_module("modswap.qpe")
    needed = 8 * (1 << bits) * d
    out = tmp_path / "o.json"

    monkeypatch.setattr(qpe_module, "MAX_BYTES", needed)
    assert main([*argv, "--out", str(out)]) == 0
    assert out.exists() and reads
    out.unlink()
    reads.clear()
    monkeypatch.setattr(qpe_module, "MAX_BYTES", needed - 1)
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists() and not reads


def test_evolve_materializes_once(tmp_path, monkeypatch):
    matrix = _gen(tmp_path)
    calls = []
    materialize = MatrixOracle.materialize

    def counted(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(MatrixOracle, "materialize", counted)
    assert main(["evolve", "--matrix", str(matrix), "--time", "0.3",
                 "--epsilon", "0.05", "--out", str(tmp_path / "e.json")]) == 0
    assert len(calls) == 1


def test_evolve_gates_the_matrix_once(tmp_path, monkeypatch, capsys):
    matrix = _gen(tmp_path)
    gated = []

    def counted(a, *args):
        gated.append(a)
        return require_hermitian(a, *args)

    for module in ("modswap.cli", "modswap.channel"):
        monkeypatch.setattr(f"{module}.require_hermitian", counted)
    argv = ["evolve", "--time", "0.3", "--epsilon", "0.05"]
    assert main([*argv, "--matrix", str(matrix), "--out", str(tmp_path / "e.json")]) == 0
    assert len(gated) == 1

    bad = tmp_path / "bad.json"
    save_matrix(bad, np.array([[1.0, 0.5], [0.2, -1.0]]))
    out = tmp_path / "bad-out.json"
    assert main([*argv, "--matrix", str(bad), "--out", str(out)]) == 2
    assert "not Hermitian" in capsys.readouterr().err
    assert not out.exists()


def test_config_echo_reproduces_numerics(tmp_path):
    matrix = _gen(tmp_path)
    out1 = tmp_path / "r1.json"
    assert main(["evolve", "--matrix", str(matrix), "--time", "0.3",
                 "--epsilon", "0.04", "--out", str(out1)]) == 0
    env = json.loads(out1.read_text())
    out2 = tmp_path / "r2.json"
    assert main(["evolve", "--matrix", env["config"]["matrix"],
                 "--time", str(env["config"]["time"]),
                 "--epsilon", str(env["config"]["epsilon"]),
                 "--out", str(out2)]) == 0
    env2 = json.loads(out2.read_text())
    assert env["results"]["total_measured"] == env2["results"]["total_measured"]


def test_gen_matrix_csv_extension(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["gen-matrix", "--n", "3", "--rank", "1", "--seed", "2",
                 "--out", str(out)]) == 0
    a = load_matrix(out)
    assert a.shape == (3, 3)
    lib = random_low_rank(3, 1, 1.0, np.random.default_rng(2))
    assert np.array_equal(a, lib)


def _rank_one_procrustes_inputs(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    matrix, state = tmp_path / "m.json", tmp_path / "v.json"
    save_matrix(matrix, np.outer(u, v.conj()) * (2.0 / np.linalg.norm(u)))
    save_state(state, v)
    return matrix, state


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_options_do_not_leak_between_calls(tmp_path, monkeypatch):
    """One process, one parser: each call sees only its own options.

    Every envelope is also one line that parses back to exactly what was
    handed to ``_write_envelope``.
    """
    written = []
    write = cli._write_envelope

    def spy(path, command, config, results, oracle_calls, wall_ms):
        written.append((path, {
            "artifact_version": __version__, "format_version": FORMAT_VERSION,
            "command": command, "config": config, "results": results,
            "oracle_calls": oracle_calls, "wall_ms": wall_ms}))
        write(path, command, config, results, oracle_calls, wall_ms)

    monkeypatch.setattr(cli, "_write_envelope", spy)

    def run(*argv):
        out = tmp_path / f"out{len(written)}.json"
        assert main([*argv, "--out", str(out)]) == 0
        path, expected = written[-1]
        assert path == str(out)
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == expected
        return expected["config"], expected["results"], expected["wall_ms"]

    pauli = tmp_path / "x.json"
    save_matrix(pauli, np.array([[0, 1], [1, 0]], dtype=complex))
    herm = _gen(tmp_path)
    proc_matrix, proc_state = _rank_one_procrustes_inputs(tmp_path)

    config, _, wall = run("qpe", "--matrix", str(pauli), "--bits", "3", "--t0", "0.5",
                          "--backend", "trotter", "--trotter-epsilon", "0.1", "--timing")
    assert (config["backend"], config["t0"], config["trotter_epsilon"]) == ("trotter", 0.5, 0.1)
    assert wall > 0
    config, _, wall = run("qpe", "--matrix", str(pauli), "--bits", "3")
    assert config["backend"] == "exact"
    assert config["t0"] == default_base_time(1.0)
    assert config["trotter_epsilon"] == 0.01
    assert wall is None

    config, _, wall = run("evolve", "--matrix", str(herm), "--time", "0.2",
                          "--epsilon", "0.05", "--steps", "3", "--timing")
    assert config["steps"] == 3 and wall > 0
    config, _, wall = run("evolve", "--matrix", str(herm), "--time", "0.2",
                          "--epsilon", "0.05")
    a_max = float(np.max(np.abs(load_matrix(herm))))
    assert config["steps"] == EvolutionConfig.plan(a_max, 0.2, 0.05).n != 3
    assert wall is None

    proc = ("procrustes", "--matrix", str(proc_matrix), "--state", str(proc_state),
            "--bits", "9", "--threshold", "0.05")
    config, results, _ = run(*proc, "--shots", "50", "--seed", "1")
    assert config["shots"] == 50 and config["seed"] == 1
    assert results["sampled_success_probability"] is not None
    config, results, _ = run(*proc)
    assert config["shots"] is None and config["seed"] == 0
    assert results["sampled_success_probability"] is None

    config, _, _ = run("svd", "--matrix", str(proc_matrix), "--bits", "9",
                       "--threshold", "0.05")
    assert config["state"] is None
    assert "seed" not in config


@pytest.mark.parametrize("command", ["svd", "procrustes"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_exits_2(tmp_path, capsys, command, threshold):
    matrix, state = _rank_one_procrustes_inputs(tmp_path)
    out = tmp_path / "o.json"
    argv = [command, "--matrix", str(matrix), "--bits", "6", f"--threshold={threshold}",
            "--out", str(out)]
    if command == "procrustes":
        argv += ["--state", str(state)]
    assert main(argv) == 2
    assert "threshold must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["qpe", "--bits", "3"],
    ["evolve", "--time", "0.2", "--epsilon", "0.05"],
    ["error-sweep", "--dts", "0.1,0.05"],
])
def test_non_square_matrix_exits_2(tmp_path, capsys, argv):
    matrix = tmp_path / "rect.json"
    save_matrix(matrix, np.arange(24, dtype=complex).reshape(6, 4))
    out = tmp_path / "o.json"
    assert main([*argv, "--matrix", str(matrix), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not square" in err and "broadcast" not in err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["qpe", "--bits", "3"],
    ["evolve", "--time", "0.2", "--epsilon", "0.05"],
    ["error-sweep", "--dts", "0.1,0.05"],
    ["svd", "--bits", "3", "--threshold", "0.1"],
    ["procrustes", "--bits", "3", "--threshold", "0.1"],
])
def test_generator_size_below_one_exits_2(tmp_path, capsys, argv, n):
    out = tmp_path / "o.json"
    assert main([*argv, "--generator", f"all-ones:n={n}", "--out", str(out)]) == 2
    assert f"generator size n={n} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("random-lowrank:n=4", "generator 'random-lowrank' needs parameter 'r'"),
    ("all-ones", "generator 'all-ones' needs parameter 'n'"),
    ("random-lowrank:n=2.5,r=1",
     "generator 'random-lowrank' parameter 'n' is malformed: '2.5'"),
    ("diagonal:values=1;;2", "generator 'diagonal' parameter 'values' is malformed: '1;;2'"),
    ("random-lowrank:n=8,r=2,sed=7", "generator 'random-lowrank' takes no parameter 'sed'"),
    ("random-lowrank:n=8,r=2,seed=-1",
     "generator 'random-lowrank' parameter 'seed' is malformed: '-1'"),
])
def test_bad_generator_spec_names_generator_and_parameter(tmp_path, capsys, spec, message):
    out = tmp_path / "o.json"
    assert main(["svd", "--bits", "3", "--threshold", "0.1", "--generator", spec,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_import_loads_no_dataclasses():
    # every CLI run pays the import; building dataclasses costs milliseconds
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, modswap.cli; print('dataclasses' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("argv", [
    ["qpe", "--bits", "3"],
    ["qpe", "--bits", "3", "--backend", "trotter"],
    ["procrustes", "--bits", "6", "--threshold", "0.05"],
])
def test_non_finite_state_file_exits_2(tmp_path, capsys, argv, value):
    if argv[0] == "qpe":
        matrix = _gen(tmp_path, n=3)
    else:
        matrix, _ = _rank_one_procrustes_inputs(tmp_path)
    state = tmp_path / "psi.json"
    state.write_text('{"rows": 3, "cols": 1, "data": [[1, 0], [%s, 0], [0, 1]]}' % value)
    out = tmp_path / "o.json"
    assert main([*argv, "--matrix", str(matrix), "--state", str(state),
                 "--out", str(out)]) == 2
    assert "matrix contains NaN or infinity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["0", "-1", "nan"])
@pytest.mark.parametrize("shape", [["--n", "4"], ["--m", "4", "--n", "6"]])
def test_gen_matrix_rejects_bad_scale_for_both_shapes(tmp_path, capsys, shape, scale):
    out = tmp_path / "a.json"
    assert main(["gen-matrix", *shape, "--rank", "2", f"--scale={scale}",
                 "--out", str(out)]) == 2
    assert "scale must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_procrustes_rejects_shots_below_one_before_any_query(tmp_path, monkeypatch):
    matrix, state = _rank_one_procrustes_inputs(tmp_path)
    reads = []
    monkeypatch.setattr(MatrixOracle, "read_upper_triangle",
                        lambda self, *args: reads.append(args))
    out = tmp_path / "o.json"
    assert main(["procrustes", "--matrix", str(matrix), "--state", str(state),
                 "--bits", "6", "--threshold", "0.05", "--shots", "0",
                 "--out", str(out)]) == 2
    assert not out.exists() and not reads


def _readme_commands():
    """The argv of every ``modswap`` line in README's Command line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("modswap ")]


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "gen-matrix", "evolve", "error-sweep", "qpe", "svd", "demo-phase-ambiguity",
        "procrustes"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv

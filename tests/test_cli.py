import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

import modswap.cli as cli
import modswap.svdx as svdx
from modswap import FORMAT_VERSION, __version__
from modswap.channel import plan_steps, pure_density
from modswap.cli import build_parser, main
from modswap.oracle import MatrixOracle
from modswap.matio import load_matrix, load_state, save_matrix
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
    lib = random_low_rank(6, 3, np.random.default_rng(11))
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
    save_matrix(state, np.array([[1], [0]], dtype=complex))
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
    save_matrix(state, np.reshape(v, (-1, 1)))
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
    ("huge-int-entry.json", '{"cols": 1, "data": [[1%s, 0]], "rows": 1}' % ("0" * 400),
     "data entry 0 is [1%s, 0], not a number pair (re, im)" % ("0" * 400)),
    ("infinite-cell.csv", '"1,0","0,inf"\n', "infinite-cell.csv: matrix contains NaN"),
    ("short-row.csv", '"1,0","0,0"\n"0,0"\n', "short-row.csv: row 2 has 1 cells, row 1 has 2"),
    ("long-row.csv", '"1,0"\n"0,0","1,0"\n', "long-row.csv: row 2 has 2 cells, row 1 has 1"),
    ("blank-last-line.csv", '"1,0"\n\n', "blank-last-line.csv: row 2 has 0 cells, row 1 has 1"),
    ("blank-lines.csv", "\n\n", "empty matrix file"),
    ("missing-rows.json", '{"cols": 1, "data": [[1, 0]]}', "error: matrix JSON is missing rows"),
    # the stdlib parser's errors, after the file's path
    ("empty.json", "", "empty.json: Expecting value: line 1 column 1 (char 0)"),
    ("truncated.json", '{"rows": 1, "cols": 2, "data": [[1, 0], [0,', "truncated.json: Expecting"),
    # past the csv module's field limit, which raises csv.Error, not ValueError
    pytest.param("huge-cell.csv", '"1%s,0"\n' % ("0" * 140000),
                 "huge-cell.csv: row 1: field larger than field limit (131072)",
                 id="huge-cell.csv"),
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


# each source command with the arguments it requires besides its source
_SOURCE_COMMANDS = {
    "evolve": ["--time", "0.1", "--epsilon", "0.1"],
    "error-sweep": ["--dts", "0.1,0.05"],
    "qpe": ["--bits", "3"],
    "svd": ["--bits", "4", "--threshold", "0.1"],
    "procrustes": ["--bits", "4", "--threshold", "0.1"],
}


@pytest.mark.parametrize("command", sorted(_SOURCE_COMMANDS))
def test_matrix_and_generator_together_is_a_usage_error(tmp_path, capsys, command):
    matrix = _gen(tmp_path)
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *_SOURCE_COMMANDS[command], "--matrix", str(matrix),
              "--generator", "all-ones:n=4", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument --matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["svd", "procrustes"])
def test_svd_and_procrustes_take_no_t0(tmp_path, capsys, command):
    # the base time they run at is always the default, just inside aliasing
    matrix = _gen(tmp_path)
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *_SOURCE_COMMANDS[command], "--matrix", str(matrix),
              "--t0", "0.2", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t0" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["evolve", "--time", "0.2", "--epsilon", "0.05"],
    ["error-sweep", "--dts", "0.1,0.05"],
])
def test_zero_state_vector_exits_2(tmp_path, capsys, argv):
    # read by load_state's rule, before a division by its zero norm
    state = tmp_path / "zero_psi.json"
    save_matrix(state, np.zeros((4, 1)))
    out = tmp_path / "o.out"
    assert main([*argv, "--matrix", str(_gen(tmp_path)), "--state", str(state),
                 "--out", str(out)]) == 2
    assert "error: state file holds the zero vector" in capsys.readouterr().err
    assert not out.exists()


def test_demo_phase_ambiguity_rejects_zero_matrix_exits_2(tmp_path, capsys):
    matrix = tmp_path / "zero.json"
    save_matrix(matrix, np.zeros((3, 4)))
    out = tmp_path / "d.json"
    assert main(["demo-phase-ambiguity", "--matrix", str(matrix), "--out", str(out)]) == 2
    assert "error: zero matrix has no singular pairs to twist" in capsys.readouterr().err
    assert not out.exists()


def test_demo_phase_ambiguity_refuses_an_overflowing_input_by_name(tmp_path, capsys):
    # 1 x 1 sources of modulus U(0.5, 1) sqrt(float max): the Gram matrix fits,
    # but the twist's distance and pairing residual square past the float range
    rng = np.random.default_rng(0)
    matrix, out = tmp_path / "big.json", tmp_path / "d.json"
    codes = []
    for seed in range(40):
        modulus = rng.uniform(0.5, 1.0) * np.sqrt(np.finfo(float).max)
        save_matrix(matrix, np.array([[modulus * np.exp(2j * np.pi * rng.uniform())]]))
        code = main(["demo-phase-ambiguity", "--matrix", str(matrix), "--seed", str(seed),
                     "--out", str(out)])
        err = capsys.readouterr().err
        if code == 2:
            assert err == "error: A is too large: its twist overflows the float range\n"
            assert not out.exists()
        else:
            assert code == 0 and err == ""
            out.unlink()
        codes.append(code)
    assert set(codes) == {0, 2}


def test_demo_phase_ambiguity_takes_one_svd_of_its_input(tmp_path, monkeypatch):
    # one SVD of the input, one of the twisted matrix; the rank comes from the first
    matrix = tmp_path / "r.json"
    assert main(["gen-matrix", "--m", "5", "--n", "4", "--rank", "2", "--seed", "3",
                 "--out", str(matrix)]) == 0
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    out = tmp_path / "d.json"
    assert main(["demo-phase-ambiguity", "--matrix", str(matrix), "--seed", "6",
                 "--out", str(out)]) == 0
    assert calls == [(5, 4), (5, 4)]
    # min(m, n) = 4 phases drawn, the 2 applied to the rank-2 pairs written
    thetas = json.loads(out.read_text())["results"]["thetas"]
    assert thetas == np.random.default_rng(6).uniform(0.0, 2.0 * np.pi, size=2).tolist()


def test_stray_key_error_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    # exit 2 is for refused input; a KeyError is a fault in the program
    def broken(args):
        raise KeyError("n")

    monkeypatch.setattr(cli, "_resolve_oracle", broken)
    out = tmp_path / "q.json"
    assert main(["qpe", "--generator", "all-ones:n=2", "--bits", "2", "--out", str(out)]) == 1
    assert "runtime failure: 'n'" in capsys.readouterr().err
    assert not out.exists()


def test_svd_envelope_vectors_are_the_result_columns(tmp_path, monkeypatch):
    # row j of left_vectors / right_vectors is column j of the SVDResult, bit for bit
    matrix = tmp_path / "r.json"
    assert main(["gen-matrix", "--m", "6", "--n", "4", "--rank", "3", "--seed", "5",
                 "--out", str(matrix)]) == 0
    results = []
    quantum_svd = svdx.quantum_svd

    def recording(*args, **kwargs):
        results.append(quantum_svd(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(svdx, "quantum_svd", recording)
    out = tmp_path / "s.json"
    assert main(["svd", "--matrix", str(matrix), "--bits", "10", "--threshold", "0.02",
                 "--out", str(out)]) == 0
    (result,) = results
    env = json.loads(out.read_text())["results"]
    assert result.rank == env["rank"] == 3
    assert env["singular_values"] == result.singular_values.tolist()
    for key, vectors in (("left_vectors", result.left_vectors),
                         ("right_vectors", result.right_vectors)):
        assert len(env[key]) == 3
        for j, pairs in enumerate(env[key]):
            assert pairs == [[z.real, z.imag] for z in vectors[:, j].tolist()], (key, j)
    # column norms in one call round apart from one norm per column
    per_column = [[np.linalg.norm(result.left_vectors[:, j]) / np.sqrt(2.0),
                   np.linalg.norm(result.right_vectors[:, j]) / np.sqrt(2.0)] for j in range(3)]
    np.testing.assert_allclose(env["subvector_norms"], per_column, rtol=1e-15, atol=0)


def _record_oracles(monkeypatch):
    """The list of every oracle the CLI resolves, in order."""
    oracles = []
    resolve = cli._resolve_oracle

    def recording(args):
        oracles.append(resolve(args))
        return oracles[-1]

    monkeypatch.setattr(cli, "_resolve_oracle", recording)
    return oracles


@pytest.mark.parametrize("dts, message", [
    pytest.param(dts, "delta_t values must be finite", id=dts)
    for dts in ("0.1,nan", "inf,0.1", "0.1,-inf")
] + [
    # finite, but the bound 2 * max_norm^2 * dt^2 is past the float range
    pytest.param("1e200,1e100", "overflows at dt = 1e+200", id="1e200,1e100"),
])
def test_error_sweep_rejects_non_finite_dts_exits_2(tmp_path, monkeypatch, capsys, dts,
                                                    message):
    oracles = _record_oracles(monkeypatch)
    out = tmp_path / "s.csv"
    assert main(["error-sweep", "--matrix", str(_gen(tmp_path)), "--dts", dts,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("plan", [
    # about 1e21, 1.9e22 and 1.9e301 steps: refused before the loop, not run for ever
    (["--steps", "1000000000000000000000"], "1e+21 steps exceed MAX_STEPS"),
    (["--time", "1e6", "--epsilon", "1e-9"], "exceed MAX_STEPS"),
    # a step count or per-step bound past the float range
    (["--time", "1e200"], "step count overflows a float at t = 1e+200"),
    (["--time", "1e200", "--steps", "3"], "per-step bound 2 * max_norm^2 * dt^2 overflows"),
    (["--time", "1e150", "--epsilon", "1e-100"], "overflows a float at t = 1e+150"),
    (["--epsilon", "1e-300"], "1.93e+301 steps exceed MAX_STEPS"),
])
def test_evolve_work_guard_exits_2(tmp_path, monkeypatch, capsys, plan):
    flags, message = plan
    oracles = _record_oracles(monkeypatch)
    argv = ["evolve", "--matrix", str(_gen(tmp_path, rank=2, seed=1)),
            "--time", "1", "--epsilon", "0.1", *flags, "--out", str(tmp_path / "e.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert not re.search(r"\d{20}", err)  # counts print as %.3g, not in full
    assert not (tmp_path / "e.json").exists()
    assert [o.report_calls() for o in oracles] == [0]


@pytest.mark.parametrize("epsilon", ["1e-310", "1e-306"])
def test_trotter_plan_overflow_exits_2_after_one_read(tmp_path, monkeypatch, capsys,
                                                      epsilon):
    # every stage is planned before any runs: only the read that gives
    # max_norm is charged, also at 1e-306, where only the last stage overflows
    oracles = _record_oracles(monkeypatch)
    out = tmp_path / "q.json"
    assert main(["qpe", "--matrix", str(_gen(tmp_path)), "--backend", "trotter",
                 "--bits", "3", "--trotter-epsilon", epsilon, "--out", str(out)]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()
    assert [o.report_calls() for o in oracles] == [4 * 5 // 2]


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


@pytest.mark.parametrize("backend", ["exact", "trotter"])
def test_qpe_never_copies_the_source(tmp_path, monkeypatch, backend):
    # qpe's gate checks the oracle's own array, so no uncounted copy is made
    matrix = _gen(tmp_path)
    calls = []
    materialize = MatrixOracle.materialize

    def counted(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(MatrixOracle, "materialize", counted)
    assert main(["qpe", "--matrix", str(matrix), "--bits", "3", "--backend", backend,
                 "--out", str(tmp_path / "q.json")]) == 0
    assert calls == []


def test_evolve_gates_the_matrix_once(tmp_path, monkeypatch, capsys):
    matrix = _gen(tmp_path)
    gated = []

    def counted(a, *args):
        gated.append(a)
        return require_hermitian(a, *args)

    monkeypatch.setattr("modswap.channel.require_hermitian", counted)
    argv = ["evolve", "--time", "0.3", "--epsilon", "0.05"]
    assert main([*argv, "--matrix", str(matrix), "--out", str(tmp_path / "e.json")]) == 0
    assert len(gated) == 1

    bad = tmp_path / "bad.json"
    save_matrix(bad, np.array([[1.0, 0.5], [0.2, -1.0]]))
    out = tmp_path / "bad-out.json"
    assert main([*argv, "--matrix", str(bad), "--out", str(out)]) == 2
    assert "not Hermitian" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_decomposes_the_matrix_once(tmp_path, monkeypatch):
    # one eigh gives the baseline unitaries and the effective rank
    matrix = _gen(tmp_path)
    gated = require_hermitian(load_matrix(matrix))
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            if np.shape(a) == gated.shape and np.array_equal(a, gated):
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["evolve", "--matrix", str(matrix), "--time", "0.3",
                 "--epsilon", "0.05", "--out", str(tmp_path / "e.json")]) == 0
    assert calls == ["eigh"]


@pytest.mark.parametrize("argv, shape, rank, decompositions", [
    # psi's Krylov space has dimension at most rank + 1 = 4, within N // 8 = 8 steps
    (["qpe"], ["--n", "64"], 3, 0),
    # full rank: the 8 Lanczos steps run out, and eigh of the read takes over
    (["qpe"], ["--n", "64"], 64, 1),
    # their readouts use eigenvectors: one eigh of the 20 x 20 embedding
    (["svd", "--threshold", "0.02"], ["--m", "12", "--n", "8"], 3, 1),
    (["procrustes", "--threshold", "0.02"], ["--m", "12", "--n", "8"], 3, 1),
])
def test_exact_pipelines_decompose_the_matrix(tmp_path, monkeypatch, argv, shape, rank,
                                              decompositions):
    matrix = tmp_path / "a.json"
    assert main(["gen-matrix", *shape, "--rank", str(rank), "--seed", "5",
                 "--out", str(matrix)]) == 0
    dim = sum(int(v) for v in shape[1::2])
    calls = []

    def counted(a, *args, _original=np.linalg.eigh, **kwargs):
        if np.shape(a) == (dim, dim):
            calls.append(dim)
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main([*argv, "--matrix", str(matrix), "--bits", "10",
                 "--out", str(tmp_path / "o.json")]) == 0
    assert len(calls) == decompositions


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
    lib = random_low_rank(3, 1, np.random.default_rng(2))
    assert np.array_equal(a, lib)


def _rank_one_procrustes_inputs(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    matrix, state = tmp_path / "m.json", tmp_path / "v.json"
    save_matrix(matrix, np.outer(u, v.conj()) * (2.0 / np.linalg.norm(u)))
    save_matrix(state, np.reshape(v, (-1, 1)))
    return matrix, state


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _plain(value):
    """value as the writer encodes it: each record an object, each numpy array
    its nested list, with a complex entry as its [re, im] pair."""
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, np.ndarray) and np.iscomplexobj(value):
        value = np.stack([value.real, value.imag], axis=-1)
    return value.tolist() if isinstance(value, np.ndarray) else value


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

    # a key added to or dropped from any envelope (a record field that comes
    # through ``_asdict()`` included) fails here, so format_version is decided
    source = {"matrix", "generator", "state"}
    keys = {
        "evolve": (source | {"time", "epsilon", "steps"},
                   {"final_state", "delta_t", "per_step_bound", "measured_step_error",
                    "total_measured", "total_bound", "effective_rank"}),
        "qpe": (source | {"bits", "backend", "t0", "trotter_epsilon"},
                {"distribution", "estimates", "trotter_error_bound"}),
        "svd": (source | {"bits", "threshold"},
                {"rank", "singular_values", "left_vectors", "right_vectors", "degenerate",
                 "unresolved", "grid_step", "reconstruction_residual", "subvector_norms"}),
        "demo-phase-ambiguity": ({"matrix", "seed"},
                                 {"thetas", "distance", "gram_deviation", "pairing_residual",
                                  "singular_values_original", "singular_values_modified"}),
        "procrustes": (source | {"bits", "threshold", "shots", "seed"},
                       {"output_state", "success_probability", "sampled_success_probability",
                        "fidelity_vs_oracle", "retained_pairs", "uncompute_leakage"}),
    }

    def run(*argv):
        out = tmp_path / f"out{len(written)}.json"
        assert main([*argv, "--out", str(out)]) == 0
        path, expected = written[-1]
        expected = _plain(expected)
        assert path == str(out)
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        envelope = json.loads(text)
        assert envelope == expected
        assert set(envelope) == {"artifact_version", "format_version", "command", "config",
                                 "results", "oracle_calls", "wall_ms"}
        assert envelope["format_version"] == 4
        assert (set(envelope["config"]), set(envelope["results"])) == keys[argv[0]]
        for estimate in envelope["results"].get("estimates", []):
            assert set(estimate) == {"register_value", "value", "weight", "sign"}
        return expected["config"], expected["results"], expected["wall_ms"]

    pauli = tmp_path / "x.json"
    save_matrix(pauli, np.array([[0, 1], [1, 0]], dtype=complex))
    herm = _gen(tmp_path)
    proc_matrix, proc_state = _rank_one_procrustes_inputs(tmp_path)

    config, _, wall = run("qpe", "--matrix", str(pauli), "--bits", "3", "--t0", "0.5",
                          "--backend", "trotter", "--trotter-epsilon", "0.1", "--timing")
    assert (config["backend"], config["t0"], config["trotter_epsilon"]) == ("trotter", 0.5, 0.1)
    assert wall > 0
    config, results, wall = run("qpe", "--matrix", str(pauli), "--bits", "3")
    assert results["estimates"]
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
    assert config["steps"] == plan_steps(a_max, 0.2, 0.05)[0] != 3
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

    config, results, _ = run("demo-phase-ambiguity", "--matrix", str(proc_matrix),
                             "--seed", "2")
    assert config["seed"] == 2 and len(results["thetas"]) == 1


@pytest.mark.parametrize("results, key", [
    ({"total_measured": float("nan")}, "results.total_measured"),
    ({"final_state": {"cols": 1, "rows": 2, "data": np.array([[1.0, 0.0], [np.inf, 0.0]])}},
     "results.final_state.data"),
    ({"left_vectors": [np.zeros((2, 2)), np.array([[0.0, -np.inf]])]}, "results.left_vectors"),
])
def test_envelope_refuses_non_finite_numbers(tmp_path, results, key):
    # json.dumps would write a bare NaN or Infinity, and orjson a null
    out = tmp_path / "o.json"
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} holds NaN or infinity"):
        cli._write_envelope(out, "evolve", {"time": 1.0}, results, 0, None)
    assert not out.exists()


@pytest.mark.parametrize("calls, written", [
    (2**64 - 1, True), (-(2**63), True), (2**64, False), (-(2**63) - 1, False)])
def test_envelope_refuses_integers_past_64_bits(tmp_path, calls, written):
    out = tmp_path / "o.json"
    if written:
        cli._write_envelope(out, "qpe", {}, {}, calls, None)
        assert orjson.loads(out.read_bytes())["oracle_calls"] == calls
        return
    with pytest.raises(ValueError, match=rf"^oracle_calls holds {calls}, outside"):
        cli._write_envelope(out, "qpe", {}, {}, calls, None)
    assert not out.exists()


def test_trotter_call_count_past_64_bits_exits_2(tmp_path, capsys):
    # 4.1e20 modelled calls: the whole run works, and the count cannot be written
    matrix, out = _gen(tmp_path, seed=1), tmp_path / "q.json"
    argv = ["qpe", "--matrix", str(matrix), "--bits", "3", "--backend", "trotter",
            "--out", str(out), "--trotter-epsilon"]
    assert main([*argv, "1e-17"]) == 2
    assert re.fullmatch(r"error: oracle_calls holds 4\d{20}, outside the 64-bit integer range\n",
                        capsys.readouterr().err)
    assert not out.exists()
    assert main([*argv, "1e-15"]) == 0
    assert 4e18 < orjson.loads(out.read_bytes())["oracle_calls"] < 2**63


def test_every_json_output_reads_the_same_through_json_and_orjson(tmp_path):
    matrix, rect, state = _gen(tmp_path), tmp_path / "r.json", tmp_path / "psi.json"
    assert main(["gen-matrix", "--m", "3", "--n", "4", "--rank", "2", "--seed", "8",
                 "--out", str(rect)]) == 0
    save_matrix(state, np.array([[1], [1e-05], [-0.0], [1e16]]))
    runs = {
        "evolve": ["evolve", "--matrix", str(matrix), "--time", "0.5", "--epsilon", "0.05"],
        "qpe": ["qpe", "--matrix", str(matrix), "--state", str(state), "--bits", "6"],
        "trotter": ["qpe", "--matrix", str(matrix), "--state", str(state), "--bits", "3",
                    "--backend", "trotter", "--trotter-epsilon", "0.1"],
        "svd": ["svd", "--matrix", str(rect), "--bits", "10", "--threshold", "0.02"],
        "demo": ["demo-phase-ambiguity", "--matrix", str(matrix), "--seed", "5"],
        "procrustes": ["procrustes", "--matrix", str(rect), "--state", str(state),
                       "--bits", "8", "--threshold", "0.02", "--shots", "100"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / f"{name}.out.json")]) == 0
    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) == 3 + 1 + len(runs)  # with the embedding of r.json
    for path in paths:
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1 and b" " not in raw
        # repr tells -0.0 from 0.0 and is the shortest round-trip spelling
        assert repr(json.loads(raw)) == repr(orjson.loads(raw))


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
    # one fault, one message: the dimension and the gate name it alike
    assert capsys.readouterr().err == "error: matrix is not square (6x4)\n"
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


def _evolve_and_sweep(tmp_path, matrix, state, tag):
    """(evolve envelope without config.state, error-sweep CSV) for one --state file."""
    envelope, csv = tmp_path / f"evolve-{tag}.json", tmp_path / f"sweep-{tag}.csv"
    source = ["--matrix", str(matrix), "--state", str(state)]
    assert main(["evolve", *source, "--time", "0.2", "--epsilon", "0.05",
                 "--out", str(envelope)]) == 0
    assert main(["error-sweep", *source, "--dts", "0.1,0.05,0.025", "--out", str(csv)]) == 0
    env = json.loads(envelope.read_text())
    assert env["config"].pop("state") == str(state)
    return env, csv.read_text()


def test_density_state_file_runs_as_its_pure_state(tmp_path):
    # --state also takes an N x N density: the density of a vector file gives
    # that vector file's envelope and CSV
    matrix, vector, density = _gen(tmp_path, n=6), tmp_path / "v.json", tmp_path / "rho.json"
    rng = np.random.default_rng(81)
    save_matrix(vector, (rng.standard_normal(6) + 1j * rng.standard_normal(6)).reshape(-1, 1))
    save_matrix(density, pure_density(load_state(vector)))
    assert (_evolve_and_sweep(tmp_path, matrix, density, "rho")
            == _evolve_and_sweep(tmp_path, matrix, vector, "v"))


@pytest.mark.parametrize("argv", [
    ["evolve", "--time", "0.2", "--epsilon", "0.05"],
    ["error-sweep", "--dts", "0.1,0.05"],
])
def test_density_state_file_with_negative_eigenvalue_exits_2(tmp_path, capsys, argv):
    state = tmp_path / "rho.json"
    save_matrix(state, np.diag([0.5, 0.3, 0.1, 0.1, 0.1, -0.1]))
    out = tmp_path / "o.out"
    assert main([*argv, "--matrix", str(_gen(tmp_path, n=6)), "--state", str(state),
                 "--out", str(out)]) == 2
    assert "density matrix has negative eigenvalue -1.000e-01" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("random-lowrank:n=4", "generator 'random-lowrank' needs parameter 'r'"),
    ("all-ones", "generator 'all-ones' needs parameter 'n'"),
    ("random-lowrank:n=2.5,r=1",
     "generator 'random-lowrank' parameter 'n' is malformed: '2.5'"),
    ("diagonal:values=1;;2", "generator 'diagonal' parameter 'values' is malformed: '1;;2'"),
    ("random-lowrank:n=8,r=2,sed=7", "generator 'random-lowrank' takes no parameter 'sed'"),
    ("random-lowrank:n=4,r=2,scale=2",
     "generator 'random-lowrank' takes no parameter 'scale'"),
    ("random-lowrank:n=8,r=2,seed=-1",
     "generator 'random-lowrank' parameter 'seed' is malformed: '-1'"),
    ("random-lowrank:n=4,r=2,r=3,seed=1", "generator 'random-lowrank' repeats parameter 'r'"),
    ("random-lowrank:n=4,r=2,seed=1,seed=5",
     "generator 'random-lowrank' repeats parameter 'seed'"),
    ("random-lowrank:n=4,r", "malformed generator parameter 'r'"),
])
def test_bad_generator_spec_names_generator_and_parameter(tmp_path, capsys, spec, message):
    out = tmp_path / "o.json"
    assert main(["svd", "--bits", "3", "--threshold", "0.1", "--generator", spec,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["qpe", "--bits", "3"],
    ["qpe", "--bits", "3", "--backend", "trotter"],
    ["evolve", "--time", "0.2", "--epsilon", "0.05"],
    ["error-sweep", "--dts", "0.1,0.05"],
])
def test_diagonal_outside_hermitian_tolerance_exits_2(tmp_path, capsys, argv):
    matrix = tmp_path / "a.json"
    save_matrix(matrix, np.diag([1 + 1e-11j, -1.0]) + 0.25)
    out = tmp_path / "o.out"
    assert main([*argv, "--matrix", str(matrix), "--out", str(out)]) == 2
    assert "not Hermitian" in capsys.readouterr().err
    assert not out.exists()


def _fresh_run(*argv: str) -> tuple[int, set[str]]:
    """``import modswap.cli`` in a fresh interpreter, then ``main(argv)`` if argv
    is given: the exit code (0 for the import alone) and sys.modules after."""
    src = Path(cli.__file__).parents[1]
    script = ("import sys, modswap.cli; "
              "print(modswap.cli.main(sys.argv[1:]) if sys.argv[1:] else 0, *sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60)
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def _package_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.partition(".")[0] == "modswap"}


CLI_MODULES = {"modswap", "modswap.cli", "modswap.linalg", "modswap.matio"}


def test_import_loads_no_dataclasses():
    # every CLI run pays the import; building dataclasses costs milliseconds
    assert "dataclasses" not in _fresh_run()[1]


def test_import_loads_no_orjson():
    # only the JSON matrix loader needs orjson; gen-matrix and --version
    # should not pay its import
    assert "orjson" not in _fresh_run()[1]


def test_import_loads_no_pipeline_and_no_csv():
    # each command imports its own pipeline; only the CSV branches need csv
    _, modules = _fresh_run()
    assert _package_modules(modules) == CLI_MODULES
    assert "csv" not in modules


def test_gen_matrix_loads_no_pipeline(tmp_path):
    out = tmp_path / "r.json"
    code, modules = _fresh_run("gen-matrix", "--m", "6", "--n", "4", "--rank", "2",
                               "--out", str(out))
    assert code == 0
    assert _package_modules(modules) == CLI_MODULES
    assert out.with_name("r.extended.json").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--time", "0.2", "--epsilon", "0.05"],
    ["error-sweep", "--dts", "0.1,0.05"],
    ["qpe", "--bits", "4"],
    ["qpe", "--bits", "4", "--backend", "trotter"],
    ["svd", "--bits", "10", "--threshold", "0.02"],
    ["procrustes", "--bits", "9", "--threshold", "0.05"],
    ["demo-phase-ambiguity"],
], ids=["evolve", "error-sweep", "qpe-exact", "qpe-trotter", "svd", "procrustes",
        "demo-phase-ambiguity"])
def test_command_runs_first_in_a_fresh_interpreter(tmp_path, argv):
    # in-process tests run with every module already loaded, so only a fresh
    # interpreter shows a command that misses an import of its own
    if argv[0] in ("svd", "procrustes", "demo-phase-ambiguity"):
        matrix, state = _rank_one_procrustes_inputs(tmp_path)
    else:
        matrix, state = _gen(tmp_path), None
    if argv[0] == "procrustes":
        argv = [*argv, "--state", str(state)]
    out = tmp_path / "o.out"
    assert _fresh_run(*argv, "--matrix", str(matrix), "--out", str(out))[0] == 0
    assert out.exists()


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


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "1"])
@pytest.mark.parametrize("shape", [["--n", "4"], ["--m", "4", "--n", "6"]])
def test_gen_matrix_rejects_bad_scale_for_both_shapes(tmp_path, capsys, shape, scale):
    # the ensembles have eigenvalues Theta(N) and no scale: any --scale is a usage error
    out = tmp_path / "a.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen-matrix", *shape, "--rank", "2", f"--scale={scale}", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --scale" in capsys.readouterr().err
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


@pytest.mark.parametrize("seed", [9, 3])
def test_benchmark_cases_pass_their_own_checks(tmp_path, bench_workloads, seed):
    # the reduced case lists of bench/workloads.py, pinned oracle counts included
    for workload in bench_workloads.WORKLOADS:
        inputs, outputs = tmp_path / workload / "inputs", tmp_path / workload / "outputs"
        inputs.mkdir(parents=True)
        outputs.mkdir()
        bench_workloads.make_inputs(workload, seed, inputs, main, small=True)
        cases = bench_workloads.build_cases(workload, seed, inputs, outputs, small=True)
        assert cases, workload
        for case in cases:
            assert main(case.argv) == 0, case.label
            assert case.check(case.out.read_bytes()) is None, case.label

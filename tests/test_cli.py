import json

import numpy as np
import pytest

from modswap.cli import main
from modswap.oracle import MatrixOracle
from modswap.matio import load_matrix, save_matrix, save_state
from modswap.linalg import random_low_rank


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
            "--epsilon", "0.05", "--seed", "3"]
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


def test_svd_rejects_trotter_backend(tmp_path):
    matrix = _gen(tmp_path)
    out = tmp_path / "svd.json"
    assert main(["svd", "--matrix", str(matrix), "--bits", "8",
                 "--threshold", "0.05", "--backend", "trotter",
                 "--out", str(out)]) == 2


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

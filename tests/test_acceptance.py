"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest

from modswap.channel import channel_step, error_sweep, evolve
from modswap.cli import main as cli_main
from modswap.linalg import random_low_rank, random_low_rank_rect
from modswap.matio import save_matrix
from modswap.oracle import MatrixOracle
from modswap.procrustes import classical_nearest_isometry, quantum_procrustes_apply
from modswap.qpe import QPEConfig, backend_agreement, qpe, query_scaling
from modswap.svdx import extended_spectrum_check, phase_ambiguity_demo, quantum_svd
from modswap.swapop import ModifiedSwapOperator

from dense_refs import dense_swap, first_order_generator, random_density, random_state


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_second_order_step_bound():
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        a = random_low_rank(8, 2, rng)
        a_max = np.max(np.abs(a))
        sigma = random_density(8, rng)
        dts = [f / a_max for f in (0.1, 0.05, 0.025, 0.0125)]
        for row in error_sweep(MatrixOracle(a), sigma, dts).rows:
            worst = max(worst, row.measured_error / row.bound)
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1.0 and elapsed < 10.0,
            f"single-step error <= 2*max_norm^2*dt^2 on 20 seeds x 4 dts "
            f"(worst ratio {worst:.3f}, {elapsed:.1f}s)")


def test_criterion_02_quadratic_order_slope():
    slopes = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        a = random_low_rank(8, 2, rng)
        a_max = np.max(np.abs(a))
        sigma = random_density(8, rng)
        dts = [f / a_max for f in (0.1, 0.05, 0.025, 0.0125)]
        slopes.append(error_sweep(MatrixOracle(a), sigma, dts).slope)
    lo, hi = min(slopes), max(slopes)
    _report(2, abs(lo - 2.0) <= 0.1 and abs(hi - 2.0) <= 0.1,
            f"log-log step-error slopes within 2.0 +- 0.1 (range [{lo:.3f}, {hi:.3f}])")


def test_criterion_03_total_error_budget():
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    a = random_low_rank(4, 2, rng)
    a = a / np.max(np.abs(a))
    sigma = random_density(4, rng)
    _, report = evolve(MatrixOracle(a), sigma, 1.0, 0.05)
    elapsed = time.perf_counter() - start
    _report(3, report.steps == 40 and report.total_measured <= 0.05 and elapsed < 30.0,
            f"n={report.steps} steps, total nuclear error "
            f"{report.total_measured:.4f} <= 0.05 ({elapsed:.1f}s)")


def test_criterion_04_channel_generator_richardson():
    rng = np.random.default_rng(42)
    a = random_low_rank(4, 2, rng)
    a = a / np.max(np.abs(a))
    sigma = random_density(4, rng)
    oracle = MatrixOracle(a)

    def derivative(dt):
        return (channel_step(oracle, sigma, dt) - sigma) / dt

    extrapolated = 2.0 * derivative(5e-4) - derivative(1e-3)
    gen = first_order_generator(oracle, sigma)
    commutator = -1j * (gen - gen.conj().T)
    dev = float(np.max(np.abs(extrapolated - commutator)))
    _report(4, dev <= 1e-6,
            f"Richardson channel derivative matches -i[A/N, sigma] "
            f"elementwise (max dev {dev:.2e})")


def test_criterion_05_swap_spectrum_vs_dense():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        rng = np.random.default_rng(500 + n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2
        implicit = ModifiedSwapOperator(MatrixOracle(a)).spectrum()
        dense = np.sort(np.linalg.eigvalsh(dense_swap(a)))
        worst = max(worst, float(np.max(np.abs(implicit - dense))))
    _report(5, worst <= 1e-10,
            f"implicit spectrum (diagonal plus +-|off-diagonal|) matches dense "
            f"eigensolver for N <= 6 (max dev {worst:.2e})")


def test_criterion_06_qpe_two_complement_case():
    start = time.perf_counter()
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    exact = qpe(MatrixOracle(a), psi, QPEConfig(bits=3, base_time=np.pi))
    dist = exact.distribution
    peaks_ok = (abs(dist[2] - 0.5) <= 1e-10 and abs(dist[6] - 0.5) <= 1e-10
                and np.all(np.abs(np.delete(dist, [2, 6])) <= 1e-10))
    agree = backend_agreement(
        MatrixOracle(a), psi,
        QPEConfig(bits=3, base_time=np.pi, trotter_epsilon=0.01))
    elapsed = time.perf_counter() - start
    _report(6, peaks_ok and agree.tv_distance <= 0.05 and elapsed < 60.0,
            f"register peaks at m=2,6 with weight 0.5 +- 1e-10; trotter TV "
            f"{agree.tv_distance:.4f} <= 0.05 ({elapsed:.1f}s)")


def test_criterion_07_query_scaling_cubed():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    result = query_scaling(MatrixOracle(a), psi,
                           [0.04, 0.02, 0.01], base_time=np.pi)
    _report(7, abs(result.slope - 3.0) <= 0.5,
            f"trotter oracle calls vs 1/eps slope {result.slope:.3f} within 3 +- 0.5 "
            f"(calls {[r.oracle_calls for r in result.rows]})")


def test_query_law_n2_down_to_eps_6e_4():
    # criterion 07's input and schedule, four halvings further
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    result = query_scaling(MatrixOracle(a), psi, [0.04 * 2.0 ** -k for k in range(7)],
                           base_time=np.pi)
    assert [r.oracle_calls for r in result.rows] == [
        7407, 62184, 503355, 4038651, 32332830, 258709977, 2069774487]
    assert abs(result.slope - 3.0) <= 0.05


def test_criterion_08_extended_eigenstructure():
    worst_eig, worst_sub = 0.0, 0.0
    cases = [(4, 6, 2), (3, 5, 2), (8, 8, 3), (5, 4, 2), (7, 3, 3),
             (6, 6, 1), (8, 5, 4), (2, 2, 1), (5, 8, 2), (6, 7, 3)]
    for i, (m, n, r) in enumerate(cases):
        rng = np.random.default_rng(800 + i)
        a = random_low_rank_rect(m, n, r, rng)
        report = extended_spectrum_check(a)
        worst_eig = max(worst_eig, report.max_eigenvalue_deviation)
        worst_sub = max(worst_sub, report.max_subvector_norm_deviation)
        assert report.nonzero_count == 2 * r
    _report(8, worst_eig <= 1e-10 and worst_sub <= 1e-10,
            f"10 cases: spectrum = {{+-sigma_j}} U {{0}} (dev {worst_eig:.2e}), "
            f"subvector norms 1/sqrt(2) (dev {worst_sub:.2e})")


def test_criterion_09_phase_ambiguity_and_svd_reconstruction():
    rng = np.random.default_rng(90)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=3)
    demo = phase_ambiguity_demo(a, thetas)
    gram_ok = demo.gram_deviation <= 1e-10
    dist_ok = demo.distance >= 0.1 * np.linalg.norm(a)
    svd = quantum_svd(MatrixOracle(a), QPEConfig(bits=12), threshold=0.01)
    residual = svd.residual(a)
    recon_ok = residual <= 1e-6 * np.linalg.norm(a)
    _report(9, gram_ok and dist_ok and recon_ok,
            f"Gram preserved (dev {demo.gram_deviation:.2e}) while "
            f"|A - twisted|_F = {demo.distance:.3f} >= 0.1|A|_F; pipeline "
            f"reconstruction residual {residual:.2e} <= 1e-6*|A|_F")


def test_criterion_10_procrustes_protocol():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    a = random_low_rank_rect(4, 4, 2, rng)
    _, _, vh = np.linalg.svd(a)
    coeff = random_state(2, rng)
    psi = vh[:2].conj().T @ coeff
    result = quantum_procrustes_apply(MatrixOracle(a), psi,
                                      QPEConfig(bits=10), threshold=0.02)
    elapsed = time.perf_counter() - start
    _report(10, abs(result.success_probability - 0.5) <= 0.02
            and result.fidelity_vs_oracle >= 0.99 and elapsed < 60.0,
            f"success probability {result.success_probability:.4f} within "
            f"0.5 +- 0.02, fidelity {result.fidelity_vs_oracle:.4f} >= 0.99 "
            f"({elapsed:.1f}s)")


def test_criterion_11_partial_isometry():
    worst_proj, worst_act = 0.0, 0.0
    cases = [(6, 4, 2), (4, 3, 2), (8, 8, 3), (5, 5, 1), (7, 4, 3),
             (4, 6, 2), (8, 6, 4), (3, 3, 2), (6, 8, 3), (5, 7, 2)]
    for i, (m, n, r) in enumerate(cases):
        rng = np.random.default_rng(1100 + i)
        a = random_low_rank_rect(m, n, r, rng)
        w = classical_nearest_isometry(a).matrix
        _, _, vh = np.linalg.svd(a)
        proj = vh[:r].conj().T @ vh[:r]
        worst_proj = max(worst_proj,
                         float(np.linalg.norm(w.conj().T @ w - proj)))
        x = random_state(n, rng)
        worst_act = max(worst_act,
                        float(np.linalg.norm(w.conj().T @ (w @ x) - proj @ x)))
    _report(11, worst_proj <= 1e-10 and worst_act <= 1e-10,
            f"W†W equals the col(V) projector (dev {worst_proj:.2e}) and "
            f"filters random vectors to their parallel part (dev {worst_act:.2e})")


def test_criterion_12_determinism_byte_identical(tmp_path):
    matrix = tmp_path / "a.json"
    rect = tmp_path / "r.json"
    state = tmp_path / "psi.json"

    def run_all(tag: str) -> dict[str, bytes]:
        out = {}
        gen = ["gen-matrix", "--n", "4", "--rank", "2", "--seed", "7",
               "--out", str(matrix)]
        assert cli_main(gen) == 0
        out["gen"] = matrix.read_bytes()
        genr = ["gen-matrix", "--m", "3", "--n", "4", "--rank", "2",
                "--seed", "8", "--out", str(rect)]
        assert cli_main(genr) == 0
        out["gen_rect"] = rect.read_bytes()
        save_matrix(state, np.array([[1], [0], [0], [0]], dtype=complex))

        runs = {
            "evolve": ["evolve", "--matrix", str(matrix), "--time", "0.5",
                       "--epsilon", "0.05"],
            "sweep": ["error-sweep", "--matrix", str(matrix),
                      "--dts", "0.05,0.025,0.0125"],
            "qpe": ["qpe", "--matrix", str(matrix), "--state", str(state),
                    "--bits", "6"],
            "svd": ["svd", "--matrix", str(rect), "--bits", "10",
                    "--threshold", "0.02"],
            "demo": ["demo-phase-ambiguity", "--matrix", str(matrix),
                     "--seed", "5"],
            "procrustes": ["procrustes", "--matrix", str(rect),
                           "--state", str(state), "--bits", "8",
                           "--threshold", "0.02", "--shots", "100",
                           "--seed", "2"],
        }
        for name, args in runs.items():
            path = tmp_path / f"{name}-{tag}.out"
            assert cli_main(args + ["--out", str(path)]) == 0
            out[name] = path.read_bytes()
        return out

    first = run_all("a")
    second = run_all("b")
    same = {k for k in first if first[k] == second[k]}
    _report(12, same == set(first),
            f"byte-identical envelopes on rerun for {sorted(first)}")


def test_acceptance_runtime_summary():
    # not a criterion; prints the versions under test for the record
    import modswap
    print(f"ACCEPTANCE     artifact {modswap.__version__} format {modswap.FORMAT_VERSION}")

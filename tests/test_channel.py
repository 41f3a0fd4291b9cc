import numpy as np
import pytest

from modswap.channel import (
    EvolutionConfig,
    channel_step,
    effective_rank,
    error_sweep,
    evolve,
    first_order_generator,
    pure_density,
    uniform_density,
)
from modswap.linalg import (
    exact_evolution,
    hermitize,
    nuclear_norm,
    random_low_rank,
)
from modswap.oracle import MatrixOracle

from dense_refs import (
    RecordingOracle,
    dense_channel_step,
    evolve_by_steps,
    random_density,
    random_hermitian,
    sweep_by_steps,
    trace_norm,
)


def _oracle(a):
    return MatrixOracle(a)


def test_first_order_generator_zero():
    sigma = random_density(3, np.random.default_rng(0))
    out = first_order_generator(_oracle(np.zeros((3, 3))), sigma)
    np.testing.assert_allclose(out, 0, atol=1e-15)


def test_first_order_generator_scaled_identity():
    sigma = random_density(4, np.random.default_rng(1))
    out = first_order_generator(_oracle(4.0 * np.eye(4)), sigma)
    np.testing.assert_allclose(out, sigma, atol=1e-14)


def test_first_order_generator_matches_direct_product():
    rng = np.random.default_rng(2)
    a = random_hermitian(4, rng)
    sigma = random_density(4, rng)
    out = first_order_generator(_oracle(a), sigma)
    np.testing.assert_allclose(out, (a / 4) @ sigma, atol=1e-12)


def test_channel_step_zero_time():
    rng = np.random.default_rng(3)
    sigma = random_density(3, rng)
    out = channel_step(_oracle(random_hermitian(3, rng)), sigma, 0.0)
    np.testing.assert_allclose(out, sigma, atol=1e-14)


def test_channel_step_zero_matrix():
    rng = np.random.default_rng(4)
    sigma = random_density(3, rng)
    out = channel_step(_oracle(np.zeros((3, 3))), sigma, 0.8)
    np.testing.assert_allclose(out, sigma, atol=1e-13)


def test_channel_step_matches_dense_and_bound():
    a = np.array([[1, 1], [1, 1]], dtype=complex)
    sigma = np.array([[1, 0], [0, 0]], dtype=complex)
    dt = 0.1
    got = channel_step(_oracle(a), sigma, dt)
    np.testing.assert_allclose(got, dense_channel_step(a, sigma, dt), atol=1e-12)
    err = nuclear_norm(got - exact_evolution(a, dt, sigma))
    assert err <= 2.0 * 1.0 * dt**2  # max element is 1


def test_channel_step_output_is_density():
    rng = np.random.default_rng(5)
    a = random_hermitian(5, rng)
    sigma = random_density(5, rng)
    out = channel_step(_oracle(a), sigma, 0.2)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) == 0.0  # hermitized output
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_channel_step_commuting_diagonal_exact():
    a = np.diag([2.0, -1.0, 0.5]).astype(complex)
    sigma = np.diag([0.2, 0.5, 0.3]).astype(complex)
    out = channel_step(_oracle(a), sigma, 0.7)
    np.testing.assert_allclose(out, sigma, atol=1e-13)


def test_channel_step_counts_one_sweep():
    rng = np.random.default_rng(6)
    oracle = _oracle(random_hermitian(4, rng))
    channel_step(oracle, random_density(4, rng), 0.1)
    assert oracle.report_calls() == 4 * 5 // 2


def test_channel_step_large_n_one_sweep_within_bound():
    # N = 80 would need a 6400 x 6400 joint state; the closed form needs N x N
    rng = np.random.default_rng(7)
    a = random_hermitian(80, rng)
    sigma = random_density(80, rng)
    oracle = _oracle(a)
    dt = 0.1 / np.max(np.abs(a))
    out = channel_step(oracle, sigma, dt)
    assert oracle.report_calls() == 80 * 81 // 2
    err = nuclear_norm(out - exact_evolution(a, dt, sigma))
    assert err <= 2.0 * np.max(np.abs(a)) ** 2 * dt**2


def test_channel_step_time_reversal_composes_to_identity():
    rng = np.random.default_rng(8)
    a = random_hermitian(3, rng)
    sigma = random_density(3, rng)
    small = 1e-3
    back = channel_step(_oracle(a), channel_step(_oracle(a), sigma, small), -small)
    # reversal is exact only to O(dt^2) because each step consumes its ancilla
    assert nuclear_norm(back - sigma) <= 4.0 * np.max(np.abs(a)) ** 2 * small**2


def test_evolution_config_step_formula():
    config = EvolutionConfig.plan(max_norm=1.0, t=1.0, epsilon=0.05)
    assert config.n == 40
    assert config.delta_t == pytest.approx(0.025)


def test_evolution_config_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        EvolutionConfig.plan(1.0, 1.0, 0.0)


@pytest.mark.parametrize("t, epsilon", [(np.inf, 0.1), (-np.inf, 0.1), (np.nan, 0.1),
                                        (1.0, np.nan), (1.0, np.inf)])
def test_evolution_config_rejects_non_finite(t, epsilon):
    with pytest.raises(ValueError, match="finite"):
        EvolutionConfig.plan(1.0, t, epsilon)
    with pytest.raises(ValueError, match="finite"):
        EvolutionConfig.plan(1.0, t, epsilon, steps=3)
    with pytest.raises(ValueError, match="finite"):
        EvolutionConfig(t=t, epsilon=epsilon, n=3)
    with pytest.raises(ValueError, match="finite"):
        EvolutionConfig(t=1.0, epsilon=0.1, n=3)._replace(t=t, epsilon=epsilon)


def test_channel_step_rejects_non_finite_oracle():
    a = np.full((2, 2), 0.25, dtype=complex)
    oracle = MatrixOracle(a)
    a[0, 1] = np.nan  # the oracle holds the array itself: the read must catch it
    with pytest.raises(ValueError, match="NaN or infinity"):
        channel_step(oracle, uniform_density(2), 0.1)
    assert oracle.report_calls() == 3


def test_evolve_uses_given_baseline_without_materializing():
    rng = np.random.default_rng(12)
    a = random_hermitian(3, rng)
    sigma = random_density(3, rng)
    config = EvolutionConfig.plan(float(np.max(np.abs(a))), 0.5, 0.05)

    def unreadable():
        raise AssertionError("materialize called")

    oracle = _oracle(a)
    oracle.materialize = unreadable
    got, got_report = evolve(oracle, sigma, config, baseline=a)
    want, want_report = evolve(_oracle(a), sigma, config)
    np.testing.assert_array_equal(got, want)
    assert got_report == want_report


def test_evolve_zero_time():
    rng = np.random.default_rng(9)
    a = random_hermitian(3, rng)
    sigma = random_density(3, rng)
    out, report = evolve(_oracle(a), sigma, EvolutionConfig(t=0.0, epsilon=0.1, n=1))
    np.testing.assert_allclose(out, sigma, atol=1e-13)
    assert report.total_measured <= 1e-12


def test_evolve_meets_budget():
    rng = np.random.default_rng(10)
    a = random_hermitian(4, rng)
    a = a / np.max(np.abs(a))  # max element exactly 1
    sigma = random_density(4, rng)
    config = EvolutionConfig.plan(1.0, t=1.0, epsilon=0.05)
    assert config.n == 40
    out, report = evolve(_oracle(a), sigma, config)
    assert report.total_measured <= 0.05
    assert report.measured_step_error <= report.per_step_bound
    assert abs(np.trace(out) - 1.0) <= 1e-11


def test_evolve_counts_queries_per_step():
    rng = np.random.default_rng(11)
    a = random_hermitian(3, rng)
    oracle = _oracle(a)
    config = EvolutionConfig(t=0.5, epsilon=0.1, n=7)
    evolve(oracle, random_density(3, rng), config)
    assert oracle.report_calls() == 7 * (3 * 4 // 2)


def test_evolve_linear_error_accumulation():
    rng = np.random.default_rng(12)
    a = random_hermitian(3, rng)
    a = a / np.max(np.abs(a))
    sigma = random_density(3, rng)
    config = EvolutionConfig(t=1.0, epsilon=1.0, n=100)
    _, report = evolve(_oracle(a), sigma, config)
    assert report.total_measured <= 100 * report.measured_step_error + 1e-12


def test_error_sweep_slope_and_bound():
    rng = np.random.default_rng(13)
    a = random_low_rank(8, 2, 1.0, rng)
    a_max = np.max(np.abs(a))
    sigma = random_density(8, rng)
    dts = [f / a_max for f in (0.1, 0.05, 0.025, 0.0125)]
    result = error_sweep(_oracle(a), sigma, dts)
    assert result.slope == pytest.approx(2.0, abs=0.1)
    for row in result.rows:
        assert row.measured_error <= row.bound


def test_error_sweep_all_ones_qpca_case():
    # uniform matrix: the step coincides with density-matrix exponentiation
    # of the ancilla state itself and the bound is 2 dt^2
    n = 4
    a = np.ones((n, n), dtype=complex)
    sigma = pure_density(np.eye(n, dtype=complex)[0])
    result = error_sweep(_oracle(a), sigma, [0.1, 0.05])
    for row in result.rows:
        assert row.measured_error <= 2.0 * row.delta_t**2


def test_error_sweep_rejects_unordered():
    rng = np.random.default_rng(14)
    oracle = _oracle(random_hermitian(3, rng))
    with pytest.raises(ValueError):
        error_sweep(oracle, random_density(3, rng), [0.05, 0.1])


def test_first_order_consistency_richardson():
    rng = np.random.default_rng(15)
    a = random_hermitian(4, rng)
    a = a / np.max(np.abs(a))
    sigma = random_density(4, rng)
    oracle = _oracle(a)

    def derivative(dt):
        return (channel_step(oracle, sigma, dt) - sigma) / dt

    extrapolated = 2.0 * derivative(5e-4) - derivative(1e-3)
    gen = first_order_generator(oracle, sigma)
    commutator = -1j * (gen - gen.conj().T)
    assert np.max(np.abs(extrapolated - commutator)) <= 1e-6


def test_effective_rank_reporting():
    rng = np.random.default_rng(16)
    a = random_low_rank(8, 2, 1.0, rng)
    # nonzero eigenvalues have |lambda|/N >= 0.5, so t = 10 sees exactly rank 2
    assert effective_rank(a, 10.0) == 2
    assert effective_rank(a, 0.0) == 0


def test_uniform_density_purity():
    rho = uniform_density(5)
    np.testing.assert_allclose(np.trace(rho @ rho), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-14)


def test_dense_reference_trace_norm_agrees():
    rng = np.random.default_rng(18)
    x = random_hermitian(4, rng)
    np.testing.assert_allclose(nuclear_norm(x), trace_norm(x), rtol=1e-10)


def test_channel_step_dimension_mismatch():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError, match="dim"):
        channel_step(_oracle(random_hermitian(3, rng)), random_density(4, rng), 0.1)


def test_first_order_generator_dimension_mismatch():
    rng = np.random.default_rng(20)
    with pytest.raises(ValueError, match="dim"):
        first_order_generator(_oracle(random_hermitian(3, rng)), random_density(2, rng))


def _run_matrix(kind, n, rng):
    if kind == "random":
        return random_hermitian(n, rng)
    if kind == "low-rank":
        return random_low_rank(n, min(2, n), 1.0, rng)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(n)).astype(complex)
    return np.zeros((n, n), dtype=complex)


@pytest.mark.parametrize("kind", ["random", "low-rank", "diagonal", "zero"])
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("t, steps", [(0.7, None), (-0.4, None), (0.3, 3)])
def test_evolve_equals_per_step_loop(kind, n, t, steps):
    rng = np.random.default_rng(100 + n)
    a = _run_matrix(kind, n, rng)
    sigma = random_density(n, rng)
    config = EvolutionConfig.plan(float(np.max(np.abs(a))), t, 0.05, steps=steps)
    fast, ref = _oracle(a), _oracle(a)
    got, got_report = evolve(fast, sigma, config)
    want, want_report = evolve_by_steps(ref, sigma, config)
    np.testing.assert_array_equal(got, want)
    assert got_report == want_report
    assert fast.report_calls() == ref.report_calls() == config.n * n * (n + 1) // 2


@pytest.mark.parametrize("kind", ["random", "low-rank", "diagonal"])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_error_sweep_equals_per_step_loop(kind, n):
    rng = np.random.default_rng(200 + n)
    a = _run_matrix(kind, n, rng)
    sigma = random_density(n, rng)
    dts = [f / np.max(np.abs(a)) for f in (0.2, 0.1, 0.05, 0.025)]
    fast, ref = _oracle(a), _oracle(a)
    got = error_sweep(fast, sigma, dts)
    want = sweep_by_steps(ref, sigma, dts)
    assert got.rows == want.rows
    assert got.slope == want.slope
    assert fast.report_calls() == ref.report_calls() == len(dts) * n * (n + 1) // 2


def test_evolve_reads_source_once_and_charges_every_step():
    rng = np.random.default_rng(21)
    n = 4
    a = random_hermitian(n, rng)
    sigma = random_density(n, rng)
    config = EvolutionConfig(t=0.6, epsilon=0.1, n=9)
    fast, ref = RecordingOracle(a), RecordingOracle(a)
    got, got_report = evolve(fast, sigma, config, baseline=a)
    want, want_report = evolve_by_steps(ref, sigma, config, baseline=a)
    np.testing.assert_array_equal(got, want)
    assert got_report == want_report
    sweep = n * (n + 1) // 2
    assert fast.reads == ["sweep"]
    assert ref.reads == 9 * ["sweep"]
    assert fast.report_calls() == ref.report_calls() == 9 * sweep


def test_error_sweep_reads_source_once_and_charges_every_dt():
    rng = np.random.default_rng(22)
    n = 3
    a = random_hermitian(n, rng)
    sigma = random_density(n, rng)
    dts = [0.1, 0.05, 0.02]
    fast, ref = RecordingOracle(a), RecordingOracle(a)
    got = error_sweep(fast, sigma, dts)
    want = sweep_by_steps(ref, sigma, dts)
    assert got.rows == want.rows and got.slope == want.slope
    sweep = n * (n + 1) // 2
    # both materialize the baseline once, uncounted
    assert sorted(fast.reads) == ["materialize", "sweep"]
    assert sorted(ref.reads) == ["materialize"] + len(dts) * ["sweep"]
    assert fast.report_calls() == ref.report_calls() == len(dts) * sweep


@pytest.mark.parametrize("dts", [[0.1, np.nan], [np.inf, 0.1], [0.1, -np.inf], [np.nan]])
def test_error_sweep_rejects_non_finite_dt_before_reading(dts):
    rng = np.random.default_rng(23)
    oracle = _oracle(random_hermitian(3, rng))
    with pytest.raises(ValueError, match="finite"):
        error_sweep(oracle, random_density(3, rng), dts)
    assert oracle.report_calls() == 0


def test_evolve_and_error_sweep_reject_state_shape_before_reading():
    rng = np.random.default_rng(24)
    oracle = _oracle(random_hermitian(3, rng))
    sigma = random_density(4, rng)
    with pytest.raises(ValueError, match="dim"):
        evolve(oracle, sigma, EvolutionConfig(t=0.5, epsilon=0.1, n=5))
    with pytest.raises(ValueError, match="dim"):
        error_sweep(oracle, sigma, [0.1, 0.05])
    assert oracle.report_calls() == 0


def test_evolve_non_finite_oracle_fails_after_one_sweep():
    a = np.full((3, 3), 0.25, dtype=complex)
    source = a.copy()
    oracle = MatrixOracle(source)
    source[0, 1] = np.nan  # the oracle holds the array itself: the read must catch it
    with pytest.raises(ValueError, match="NaN or infinity"):
        evolve(oracle, uniform_density(3), EvolutionConfig(t=0.5, epsilon=0.1, n=7),
               baseline=a)
    assert oracle.report_calls() == 3 * 4 // 2

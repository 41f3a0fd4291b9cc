import pickle
import tracemalloc

import numpy as np
import pytest

import modswap.channel as channel
from modswap.channel import (
    channel_step,
    error_sweep,
    evolve,
    plan_steps,
    pure_density,
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
    first_order_generator,
    random_density,
    random_hermitian,
    sweep_by_steps,
    trace_norm,
    uniform_density,
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
    n, dt, bound = plan_steps(max_norm=1.0, t=1.0, epsilon=0.05)
    assert n == 40
    assert dt == pytest.approx(0.025)
    assert bound == 2.0 * dt**2


def test_evolution_config_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        plan_steps(1.0, 1.0, 0.0)


@pytest.mark.parametrize("steps, message", [
    (True, "an integer"), (False, "an integer"), (2.0, "an integer"), (2.5, "an integer"),
    (np.float64(3), "an integer"), (0, ">= 1"), (np.int64(-1), ">= 1")])
def test_step_count_must_be_a_positive_integer(steps, message):
    with pytest.raises(ValueError, match=f"^step count must be {message}"):
        plan_steps(1.0, 1.0, 0.1, steps=steps)
    oracle = _oracle(np.eye(2))
    with pytest.raises(ValueError, match=f"^step count must be {message}"):
        evolve(oracle, uniform_density(2), 1.0, 0.1, steps=steps)
    assert oracle.report_calls() == 0
    assert plan_steps(1.0, 1.0, 0.1, steps=np.int64(4))[0] == 4  # numpy integers count


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.int64])
def test_numpy_step_counts_act_as_python_ints(dtype):
    # the charged calls (steps - 1) * 136 wrap in int8 or int16 arithmetic
    steps = min(300, np.iinfo(dtype).max)
    plan = plan_steps(1.0, 1.0, 0.1, steps=dtype(steps))
    assert plan == plan_steps(1.0, 1.0, 0.1, steps=steps) and type(plan[0]) is int
    a = random_low_rank(16, 2, np.random.default_rng(1))
    runs = []
    for count in (dtype(steps), steps):
        oracle = _oracle(a)
        runs.append((evolve(oracle, uniform_density(16), 0.5, 0.1, steps=count),
                     oracle.report_calls()))
    assert pickle.dumps(runs[0]) == pickle.dumps(runs[1])
    assert runs[0][1] == steps * 136 and type(runs[0][0][1].steps) is int


@pytest.mark.parametrize("t, epsilon", [(np.inf, 0.1), (-np.inf, 0.1), (np.nan, 0.1),
                                        (1.0, np.nan), (1.0, np.inf)])
def test_evolution_config_rejects_non_finite(t, epsilon):
    with pytest.raises(ValueError, match="finite"):
        plan_steps(1.0, t, epsilon)
    with pytest.raises(ValueError, match="finite"):
        plan_steps(1.0, t, epsilon, steps=3)
    oracle = _oracle(np.eye(2))
    for steps in (None, 3):
        with pytest.raises(ValueError, match="finite"):
            evolve(oracle, uniform_density(2), t, epsilon, steps=steps)
    assert oracle.report_calls() == 0


def test_channel_step_rejects_non_finite_oracle():
    a = np.full((2, 2), 0.25, dtype=complex)
    a[0, 1] = np.nan  # refused when the oracle is built, before the step is reached
    with pytest.raises(ValueError, match="^matrix contains NaN or infinity$"):
        channel_step(MatrixOracle(a), uniform_density(2), 0.1)


def test_evolve_zero_time():
    rng = np.random.default_rng(9)
    a = random_hermitian(3, rng)
    sigma = random_density(3, rng)
    out, report = evolve(_oracle(a), sigma, 0.0, 0.1, steps=1)
    np.testing.assert_allclose(out, sigma, atol=1e-13)
    assert report.total_measured <= 1e-12


def test_evolve_meets_budget():
    rng = np.random.default_rng(10)
    a = random_hermitian(4, rng)
    a = a / np.max(np.abs(a))  # max element exactly 1
    sigma = random_density(4, rng)
    out, report = evolve(_oracle(a), sigma, 1.0, 0.05)
    assert report.steps == 40
    assert report.total_measured <= 0.05
    assert report.measured_step_error <= report.per_step_bound
    assert abs(np.trace(out) - 1.0) <= 1e-11


def test_evolve_counts_queries_per_step():
    rng = np.random.default_rng(11)
    a = random_hermitian(3, rng)
    oracle = _oracle(a)
    evolve(oracle, random_density(3, rng), 0.5, 0.1, steps=7)
    assert oracle.report_calls() == 7 * (3 * 4 // 2)


def test_evolve_baseline_decomposes_the_plan_matrix(monkeypatch):
    # a source within HERMITIAN_TOL of Hermitian, off it in both triangles and
    # on the diagonal: the baseline's eigh gets the counted plan's bits
    rng = np.random.default_rng(11)
    n = 6
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = random_hermitian(n, rng) + 1e-14 * noise
    plans, decomposed = [], []
    build_plan = channel.ModifiedSwapOperator.build_plan
    monkeypatch.setattr(channel.ModifiedSwapOperator, "build_plan",
                        lambda self: plans.append(build_plan(self)) or plans[-1])
    eigh = np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        decomposed.append(np.array(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    evolve(_oracle(a), random_density(n, rng), 0.3, 0.05)
    assert len(plans) == 1 and len(decomposed) == 1
    assert np.array_equal(decomposed[0], plans[0].a)
    assert not np.array_equal(plans[0].a, hermitize(a))


def test_evolve_linear_error_accumulation():
    rng = np.random.default_rng(12)
    a = random_hermitian(3, rng)
    a = a / np.max(np.abs(a))
    sigma = random_density(3, rng)
    _, report = evolve(_oracle(a), sigma, 1.0, 1.0, steps=100)
    assert report.total_measured <= 100 * report.measured_step_error + 1e-12


def test_error_sweep_slope_and_bound():
    rng = np.random.default_rng(13)
    a = random_low_rank(8, 2, rng)
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


def test_pure_density_rejects_the_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        pure_density(np.zeros(3, dtype=complex))


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
    a = random_low_rank(8, 2, rng)
    sigma = random_density(8, rng)
    # nonzero eigenvalues have |lambda|/N >= 0.5, so t = 10 sees exactly rank 2
    assert evolve(_oracle(a), sigma, 10.0, 0.1, steps=1)[1].effective_rank == 2
    # a time-reversed run evolves the same modes
    assert evolve(_oracle(a), sigma, -10.0, 0.1, steps=1)[1].effective_rank == 2
    assert evolve(_oracle(a), sigma, 0.0, 0.1, steps=1)[1].effective_rank == 0


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
        return random_low_rank(n, min(2, n), rng)
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
    fast, ref = _oracle(a), _oracle(a)
    got, got_report = evolve(fast, sigma, t, 0.05, steps=steps)
    want, want_report = evolve_by_steps(ref, sigma, t, 0.05, steps=steps)
    np.testing.assert_array_equal(got, want)
    assert got_report == want_report
    assert fast.report_calls() == ref.report_calls() == got_report.steps * n * (n + 1) // 2


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


def test_error_buffer_holds_64_kb_of_states():
    assert [channel._chunk(n) for n in (1, 16, 24, 32, 64, 256)] == [4096, 16, 7, 4, 1, 1]


def _chunk_boundary_steps(n):
    c = channel._chunk(n)
    return sorted({1, max(1, c - 1), c, c + 1, 2 * c + 1})


@pytest.mark.parametrize("kind", ["random", "low-rank"])
@pytest.mark.parametrize("n, steps", [(n, s) for n in (16, 24, 64)
                                      for s in _chunk_boundary_steps(n)])
def test_evolve_equals_per_step_loop_across_chunk_boundaries(kind, n, steps):
    rng = np.random.default_rng(300 + n)
    a = _run_matrix(kind, n, rng)
    sigma = random_density(n, rng)
    fast, ref = _oracle(a), _oracle(a)
    got, got_report = evolve(fast, sigma, 0.9, 0.05, steps=steps)
    want, want_report = evolve_by_steps(ref, sigma, 0.9, 0.05, steps=steps)
    np.testing.assert_array_equal(got, want)
    assert got_report == want_report
    assert fast.report_calls() == ref.report_calls() == steps * n * (n + 1) // 2


@pytest.mark.parametrize("n", [16, 24, 32, 64])
def test_error_sweep_equals_per_step_loop_across_chunk_boundaries(n):
    # 7 dts, measured one at a time, against one nuclear_norm call per dt
    rng = np.random.default_rng(400 + n)
    a = random_low_rank(n, 2, rng)
    sigma = random_density(n, rng)
    dts = [0.4 / 2**i / np.max(np.abs(a)) for i in range(7)]
    fast, ref = _oracle(a), _oracle(a)
    got = error_sweep(fast, sigma, dts)
    want = sweep_by_steps(ref, sigma, dts)
    assert got.rows == want.rows
    assert got.slope == want.slope
    assert fast.report_calls() == ref.report_calls() == len(dts) * n * (n + 1) // 2


@pytest.mark.parametrize("n", [32, 64])
def test_evolve_peak_memory_does_not_grow_with_steps(n):
    rng = np.random.default_rng(500 + n)
    a = random_low_rank(n, 2, rng)
    sigma = random_density(n, rng)
    peaks = []
    for steps in (21, 400):
        oracle = _oracle(a)
        tracemalloc.start()
        try:
            evolve(oracle, sigma, 0.9, 0.05, steps=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 4096, peaks


def test_evolve_reads_source_once_and_charges_every_step():
    rng = np.random.default_rng(21)
    n = 4
    a = random_hermitian(n, rng)
    sigma = random_density(n, rng)
    fast, ref = RecordingOracle(a), RecordingOracle(a)
    got, got_report = evolve(fast, sigma, 0.6, 0.1, steps=9)
    want, want_report = evolve_by_steps(ref, sigma, 0.6, 0.1, steps=9)
    np.testing.assert_array_equal(got, want)
    assert got_report == want_report
    sweep = n * (n + 1) // 2
    # both materialize the baseline once, uncounted, before the counted sweeps
    assert fast.reads == ["materialize", "sweep"]
    assert ref.reads == ["materialize"] + 9 * ["sweep"]
    assert fast.report_calls() == ref.report_calls() == 9 * sweep


def test_evolve_step_cap_boundary(monkeypatch):
    # the cap is a count of loop iterations: cap steps run, one more is
    # refused before any query (after the uncounted gate, which gives the
    # plan its max_norm)
    rng = np.random.default_rng(23)
    a = random_hermitian(3, rng)
    sigma = random_density(3, rng)
    monkeypatch.setattr(channel, "MAX_STEPS", 5)
    oracle = RecordingOracle(a)
    evolve(oracle, sigma, 0.5, 0.1, steps=5)
    assert oracle.report_calls() == 5 * (3 * 4 // 2)
    oracle = RecordingOracle(a)
    with pytest.raises(ValueError, match="6 steps exceed MAX_STEPS = 5"):
        evolve(oracle, sigma, 0.5, 0.1, steps=6)
    assert oracle.report_calls() == 0 and oracle.reads == ["materialize"]


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


@pytest.mark.parametrize("dts", [[], [0.1, 0.0], [-0.1]], ids=["empty", "zero", "negative"])
def test_error_sweep_rejects_empty_or_non_positive_dts_before_reading(dts):
    rng = np.random.default_rng(23)
    oracle = _oracle(random_hermitian(3, rng))
    with pytest.raises(ValueError, match="^delta_t values must be positive$"):
        error_sweep(oracle, random_density(3, rng), dts)
    assert oracle.report_calls() == 0


def test_evolve_and_error_sweep_reject_state_shape_before_reading():
    rng = np.random.default_rng(24)
    oracle = _oracle(random_hermitian(3, rng))
    sigma = random_density(4, rng)
    with pytest.raises(ValueError, match="dim"):
        evolve(oracle, sigma, 0.5, 0.1, steps=5)
    with pytest.raises(ValueError, match="dim"):
        error_sweep(oracle, sigma, [0.1, 0.05])
    assert oracle.report_calls() == 0


def test_evolve_off_hermitian_oracle_fails_before_any_sweep():
    a = np.full((3, 3), 0.25, dtype=complex)

    class CleanBaseline(MatrixOracle):
        # the uncounted gate sees a clean copy, so the counted read must catch it
        def materialize(self):
            return a.copy()

    source = a.copy()
    source[2, 0] = 0.5
    oracle = CleanBaseline(source)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(residual 2.500e-01\)$"):
        evolve(oracle, uniform_density(3), 0.5, 0.1, steps=7)
    assert oracle.report_calls() == 0

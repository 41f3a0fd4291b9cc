import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from modswap.channel import channel_step
from modswap.oracle import MatrixOracle
from modswap.swapop import ModifiedSwapOperator

from dense_refs import (
    RecordingOracle,
    apply_by_pairs,
    channel_via_joint,
    dense_exp_swap,
    dense_swap,
    kraus_factors_by_pairs,
    plan_by_queries,
    random_density,
    random_hermitian,
    random_state,
)


def _op(a):
    return ModifiedSwapOperator(MatrixOracle(a))


def test_all_ones_reduces_to_swap_with_phase():
    # exp(-i op t) at t = pi/2 sends |j,k> to -i |k,j> for j != k
    op = _op(np.ones((2, 2)))
    psi = np.zeros(4, dtype=complex)
    psi[0 * 2 + 1] = 1.0  # |0,1>
    out = op.apply_exp(np.pi / 2, psi)
    expected = np.zeros(4, dtype=complex)
    expected[1 * 2 + 0] = -1j
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_zero_matrix_is_identity():
    op = _op(np.zeros((3, 3)))
    psi = random_state(9, np.random.default_rng(0))
    np.testing.assert_allclose(op.apply_exp(1.7, psi), psi, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_exp_matches_dense_exponential(n):
    rng = np.random.default_rng(100 + n)
    a = random_hermitian(n, rng)
    op = _op(a)
    psi = random_state(n * n, rng)
    got = op.apply_exp(0.7, psi)
    want = dense_exp_swap(a, 0.7) @ psi
    assert np.max(np.abs(got - want)) <= 1e-10


def test_norm_preservation():
    rng = np.random.default_rng(12)
    a = random_hermitian(4, rng)
    op = _op(a)
    for t in (0.1, 1.0, -3.7, 12.0):
        psi = random_state(16, rng)
        assert abs(np.linalg.norm(op.apply_exp(t, psi)) - 1.0) <= 1e-12


def test_group_property():
    rng = np.random.default_rng(13)
    a = random_hermitian(3, rng)
    op = _op(a)
    psi = random_state(9, rng)
    once = op.apply_exp(0.9, op.apply_exp(0.4, psi))
    combined = op.apply_exp(1.3, psi)
    assert np.max(np.abs(once - combined)) <= 1e-10


def test_inverse_property():
    rng = np.random.default_rng(14)
    a = random_hermitian(4, rng)
    op = _op(a)
    psi = random_state(16, rng)
    back = op.apply_exp(-2.2, op.apply_exp(2.2, psi))
    assert np.max(np.abs(back - psi)) <= 1e-12


def test_apply_exp_rejects_unnormalized():
    op = _op(np.eye(2))
    with pytest.raises(ValueError, match="state norm 1.414213562 != 1"):
        op.apply_exp(0.1, np.array([1.0, 0, 0, 1.0], dtype=complex))
    assert op.oracle.report_calls() == 0


def test_apply_exp_rejects_wrong_dim():
    op = _op(np.eye(2))
    with pytest.raises(ValueError):
        op.apply_exp(0.1, np.zeros(5, dtype=complex))


def test_controlled_apply_exp_control_zero():
    rng = np.random.default_rng(15)
    a = random_hermitian(2, rng)
    op = _op(a)
    psi = np.zeros(8, dtype=complex)
    psi[:4] = random_state(4, rng)  # control |0>
    np.testing.assert_allclose(op.controlled_apply_exp(0.8, psi), psi, atol=1e-14)


def test_controlled_apply_exp_control_one():
    rng = np.random.default_rng(16)
    a = random_hermitian(2, rng)
    op = _op(a)
    inner = random_state(4, rng)
    psi = np.zeros(8, dtype=complex)
    psi[4:] = inner
    out = op.controlled_apply_exp(0.8, psi)
    np.testing.assert_allclose(out[4:], op.apply_exp(0.8, inner), atol=1e-14)
    np.testing.assert_allclose(out[:4], 0, atol=1e-15)


def test_controlled_apply_exp_superposed_control_matches_dense():
    rng = np.random.default_rng(17)
    a = random_hermitian(2, rng)
    op = _op(a)
    psi = random_state(8, rng)
    got = op.controlled_apply_exp(0.6, psi)
    proj1 = np.diag([0.0, 1.0])
    gen = np.kron(proj1, dense_swap(a))
    want = expm(-1j * gen * 0.6) @ psi
    assert np.max(np.abs(got - want)) <= 1e-10


def test_spectrum_diagonal_matrix():
    spec = _op(np.diag([2.0, -3.0])).spectrum()
    np.testing.assert_allclose(spec, [-3.0, 0.0, 0.0, 2.0])


def test_spectrum_all_ones():
    spec = _op(np.ones((2, 2))).spectrum()
    np.testing.assert_allclose(spec, [-1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spectrum_matches_dense_eigensolver(n):
    rng = np.random.default_rng(200 + n)
    a = random_hermitian(n, rng)
    implicit = _op(a).spectrum()
    dense = np.sort(np.linalg.eigvalsh(dense_swap(a)))
    assert np.max(np.abs(implicit - dense)) <= 1e-10


def test_spectrum_max_abs_equals_max_norm():
    rng = np.random.default_rng(21)
    a = random_hermitian(5, rng)
    assert np.max(np.abs(_op(a).spectrum())) == np.max(np.abs(a))


def test_plan_queries_upper_triangle_once():
    oracle = MatrixOracle(random_hermitian(5, np.random.default_rng(25)))
    op = ModifiedSwapOperator(oracle)
    op.build_plan()
    assert oracle.report_calls() == 5 * 6 // 2


def test_plan_rejects_non_hermitian_diagonal():
    a = np.eye(2, dtype=complex)
    a[0, 0] = 1 + 1j
    with pytest.raises(ValueError):
        _op(a).build_plan()


def _source(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A Hermitian test matrix: random, diagonal, zero or partly zero."""
    a = random_hermitian(n, rng)
    if kind == "diagonal":
        a = np.diag(np.diag(a))
    elif kind == "zero":
        a = np.zeros((n, n), dtype=complex)
    elif kind == "partly-zero":
        a[0, :] = a[:, 0] = 0.0
    return a


@pytest.mark.parametrize("kind", ["random", "diagonal", "zero", "partly-zero"])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_plan_matches_per_element_query_loop(kind, n):
    a = _source(kind, n, np.random.default_rng(100 + n))
    fast, slow = MatrixOracle(a), MatrixOracle(a)
    plan = ModifiedSwapOperator(fast).build_plan()
    want = plan_by_queries(slow)
    np.testing.assert_array_equal(plan.a, want)
    assert plan.a.dtype == want.dtype
    assert plan.dim == n
    assert fast.report_calls() == slow.report_calls() == n * (n + 1) // 2


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), kind=st.sampled_from(["random", "diagonal", "zero", "partly-zero"]),
       seed=st.integers(0, 2**32 - 1), t=st.floats(-2.0, 2.0))
def test_kraus_factors_equal_pair_layout(n, kind, seed, t):
    # exact equality, no tolerance: each nonzero entry is the same
    # floating-point expression in both layouts (a zero may differ in sign)
    a = _source(kind, n, np.random.default_rng(seed))
    c, s = ModifiedSwapOperator(MatrixOracle(a)).build_plan().kraus_factors(t)
    c_ref, s_ref = kraus_factors_by_pairs(a, t)
    np.testing.assert_array_equal(c, c_ref)
    np.testing.assert_array_equal(s, s_ref)
    assert c.dtype == s.dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_plan_rejects_non_finite_source(bad):
    a = np.full((3, 3), 0.5, dtype=complex)
    a[0, 0] = bad  # refused when the oracle is built, before the plan is reached
    with pytest.raises(ValueError, match="^matrix contains NaN or infinity$"):
        ModifiedSwapOperator(MatrixOracle(a)).build_plan()


_TIMED_ENTRIES = {
    "channel_step": lambda o, t: channel_step(o, np.eye(3) / 3, t),
    "apply_exp": lambda o, t: ModifiedSwapOperator(o).apply_exp(t, np.eye(9)[0]),
    "controlled_apply_exp": lambda o, t: ModifiedSwapOperator(o).controlled_apply_exp(
        t, np.eye(18)[0]),
}


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_TIMED_ENTRIES))
def test_non_finite_time_is_refused_before_the_sweep(name, t):
    oracle = RecordingOracle(random_hermitian(3, np.random.default_rng(8)))
    with pytest.raises(ValueError, match=f"^evolution time must be finite, not {t}$"):
        _TIMED_ENTRIES[name](oracle, t)
    assert oracle.report_calls() == 0 and oracle.reads == []


def test_kraus_matches_row_sums():
    rng = np.random.default_rng(26)
    a = random_hermitian(3, rng)
    plan = _op(a).build_plan()
    dt = 0.41
    u = plan.apply(np.eye(9, dtype=complex), dt)
    want = u.reshape(3, 3, 3, 3).sum(axis=2) / np.sqrt(3)
    np.testing.assert_allclose(plan.kraus(dt), want, atol=1e-14)


def test_plan_apply_rejects_wrong_axis_length():
    plan = _op(random_hermitian(3, np.random.default_rng(26))).build_plan()
    with pytest.raises(ValueError, match="^axis 0 has length 8, expected 9$"):
        plan.apply(np.ones((8, 2), dtype=complex), 0.4)


def test_plan_conjugate_matches_dense():
    rng = np.random.default_rng(27)
    a = random_hermitian(3, rng)
    plan = _op(a).build_plan()
    x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    u = dense_exp_swap(a, 0.3)
    np.testing.assert_allclose(plan.conjugate(x, 0.3), u @ x @ u.conj().T, atol=1e-10)


def test_kraus_sum_is_trace_preserving():
    # sum_a K_a† K_a = I certifies the step channel is trace preserving
    rng = np.random.default_rng(28)
    a = random_hermitian(4, rng)
    k = _op(a).build_plan().kraus(0.37)
    total = sum(km.conj().T @ km for km in k)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def _channel_case(kind: str, seed: int):
    """(A, dt) for the closed-form channel differential tests."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_hermitian(5, rng), 0.37
    if kind == "diagonal":  # every off-diagonal zero: the mag == 0 branch
        return np.diag(rng.standard_normal(4)).astype(complex), 0.8
    if kind == "n1":
        return np.array([[rng.standard_normal()]], dtype=complex), 0.5
    if kind == "sparse":  # some zero pairs among nonzero ones
        a = random_hermitian(6, rng)
        a[0, 3] = a[3, 0] = a[2, 5] = a[5, 2] = 0.0
        return a, 1.3
    return random_hermitian(4, rng), -0.61  # negative dt: time reversal


# batch shapes after the N^2-axis: two batch axes, and none (one vector, as
# ``apply_exp`` passes)
_APPLY_TAILS = [(2, 4), ()]


@pytest.mark.parametrize("tail", range(len(_APPLY_TAILS)))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["random", "diagonal", "n1", "sparse", "negative-dt"])
def test_apply_matches_pair_layout_and_dense(kind, seed, tail):
    a, dt = _channel_case(kind, seed)
    n = a.shape[0]
    plan = _op(a).build_plan()
    rng = np.random.default_rng(seed + 70)
    shape = (n * n,) + _APPLY_TAILS[tail]
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = plan.apply(x, dt)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, apply_by_pairs(a, x, dt), rtol=0, atol=1e-15)
    want = np.tensordot(dense_exp_swap(a, dt), x, axes=([1], [0]))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["random", "diagonal", "n1", "sparse", "negative-dt"])
def test_channel_matches_joint_state_and_kraus_sum(kind, seed):
    a, dt = _channel_case(kind, seed)
    n = a.shape[0]
    plan = _op(a).build_plan()
    rng = np.random.default_rng(seed + 50)
    sigma = random_density(n, rng)
    got = plan.channel_map(dt)(sigma)
    np.testing.assert_allclose(got, channel_via_joint(plan, sigma, dt), atol=1e-13)
    k = plan.kraus(dt)
    np.testing.assert_allclose(got, sum(km @ sigma @ km.conj().T for km in k), atol=1e-13)
    # leading axes are batch axes; the map is linear, so any matrices will do
    x = rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
    want = np.einsum("ast,bctu,avu->bcsv", k, x, k.conj())
    np.testing.assert_allclose(plan.channel_map(dt)(x), want, atol=1e-13)

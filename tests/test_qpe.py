import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modswap.linalg import haar_unitary, random_low_rank, random_state
from modswap.oracle import MatrixOracle
from modswap.procrustes import quantum_procrustes_apply
from modswap.qpe import (
    MAX_BYTES,
    QPEConfig,
    backend_agreement,
    decode_register,
    default_base_time,
    extract_estimates,
    invert_joint,
    joint_from_eig,
    qpe,
    query_scaling,
)
from modswap.svdx import quantum_svd
from modswap.swapop import ModifiedSwapOperator

from dense_refs import (
    controlled_kraus_step,
    decode_register_scalar,
    extract_estimates_by_loop,
    hadamard,
    random_hermitian,
)


def _encode(value, bits, t0):
    """Inverse of decode_register on the representable grid."""
    size = 1 << bits
    return int(round(value * t0 / (2 * np.pi) * size)) % size


def test_decode_zero():
    assert decode_register(0, 3, np.pi) == 0.0


def test_decode_two_complement_cases():
    # b=3, t0=pi: m=6 wraps to phase -1/4 and decodes to -1/2
    assert decode_register(6, 3, np.pi) == pytest.approx(-0.5)
    assert decode_register(2, 3, np.pi) == pytest.approx(0.5)


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_register(8, 3, np.pi)


def test_decode_encode_round_trip_on_grid():
    bits, t0 = 5, 0.7
    size = 1 << bits
    for m in range(size):
        lam = decode_register(m, bits, t0)
        assert _encode(lam, bits, t0) == m


def test_config_validation():
    with pytest.raises(ValueError):
        QPEConfig(bits=0)
    with pytest.raises(ValueError):
        QPEConfig(bits=3, backend="nonsense")
    with pytest.raises(ValueError):
        QPEConfig(bits=3, trotter_epsilon=0.0)


@pytest.mark.parametrize("kwargs", [{"base_time": np.nan}, {"base_time": np.inf},
                                    {"base_time": -np.inf}, {"trotter_epsilon": np.nan},
                                    {"trotter_epsilon": np.inf}])
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        QPEConfig(bits=3, **kwargs)


@pytest.mark.parametrize("t0", [0.0, -1.0, -100.0])
def test_config_rejects_non_positive_base_time(t0):
    # t0 = 0 made decoding divide by zero; a negative t0 slipped past the
    # aliasing check t0 * max_norm <= pi at any magnitude
    with pytest.raises(ValueError, match="positive"):
        QPEConfig(bits=3, base_time=t0)


def test_zero_matrix_peaks_at_zero():
    oracle = MatrixOracle.from_matrix(np.zeros((3, 3)))
    psi = random_state(3, np.random.default_rng(0))
    result = qpe(oracle, psi, QPEConfig(bits=4))
    assert result.distribution[0] == pytest.approx(1.0, abs=1e-12)
    assert result.estimates[0].register_value == 0


def test_signed_half_eigenvalues_exact_peaks():
    # lam/N = +-1/2 at t0 = pi puts all weight on m = 2 and m = 6
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    result = qpe(MatrixOracle.from_matrix(a), psi, QPEConfig(bits=3, base_time=np.pi))
    np.testing.assert_allclose(result.distribution[[2, 6]], [0.5, 0.5], atol=1e-10)
    np.testing.assert_allclose(np.delete(result.distribution, [2, 6]), 0, atol=1e-10)
    values = sorted(e.value for e in result.estimates)
    assert values == [pytest.approx(-0.5), pytest.approx(0.5)]
    signs = {e.register_value: e.sign for e in result.estimates}
    assert signs == {2: 1, 6: -1}


def test_exactly_representable_phases_peak_sharply():
    # diagonal matrix whose eigenphases sit exactly on the register grid
    c = 2.0
    a = np.diag([c, -c, 0.0, 0.0]).astype(complex)
    t0 = np.pi / c
    weights = np.array([0.5, 0.3, 0.2, 0.0])
    psi = np.sqrt(weights).astype(complex)
    result = qpe(MatrixOracle.from_matrix(a), psi, QPEConfig(bits=3, base_time=t0))
    # lam/N = +-c/4 -> phases +-1/8 -> m = 1 and 7; zero eigenvalue at m = 0
    assert result.distribution[1] == pytest.approx(0.5, abs=1e-6)
    assert result.distribution[7] == pytest.approx(0.3, abs=1e-6)
    assert result.distribution[0] == pytest.approx(0.2, abs=1e-6)


def test_single_eigenvector_peak_probability_one():
    c = 2.0
    a = np.diag([c, -c]).astype(complex)
    psi = np.array([1, 0], dtype=complex)
    result = qpe(MatrixOracle.from_matrix(a), psi,
                 QPEConfig(bits=4, base_time=np.pi / c))
    peak = int(np.argmax(result.distribution))
    assert result.distribution[peak] == pytest.approx(1.0, abs=1e-10)


def test_register_distribution_sums_to_one():
    rng = np.random.default_rng(1)
    a = random_hermitian(4, rng)
    result = qpe(MatrixOracle.from_matrix(a), random_state(4, rng), QPEConfig(bits=6))
    assert np.sum(result.distribution) == pytest.approx(1.0, abs=1e-12)


def test_peaks_within_one_register_unit_of_truth():
    rng = np.random.default_rng(2)
    a = random_low_rank(4, 2, 1.0, rng)
    psi = random_state(4, rng)
    bits = 8
    result = qpe(MatrixOracle.from_matrix(a), psi, QPEConfig(bits=bits))
    t0 = result.base_time
    size = 1 << bits
    w, v = np.linalg.eigh(a)
    beta2 = np.abs(v.conj().T @ psi) ** 2
    grid = 2 * np.pi / (size * t0)
    for lam, weight in zip(w / 4, beta2):
        if weight < 0.01 or abs(lam) < grid:
            continue
        best = min(abs(e.value - lam) for e in result.estimates)
        assert best <= grid * (1 + 1e-9)


def test_aliasing_rejected():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="aliasing"):
        qpe(MatrixOracle.from_matrix(a), np.array([1, 0], dtype=complex),
            QPEConfig(bits=3, base_time=4.0))


def test_default_base_time_is_aliasing_safe():
    assert default_base_time(2.0) * 2.0 <= np.pi


def test_qpe_rejects_bad_state():
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        qpe(MatrixOracle.from_matrix(a), np.array([1.0, 1.0], dtype=complex),
            QPEConfig(bits=2))


def test_invert_joint_inverts_forward_map():
    rng = np.random.default_rng(3)
    a = random_hermitian(3, rng)
    w, v = np.linalg.eigh(a)
    psi = random_state(3, rng)
    t0 = default_base_time(np.max(np.abs(a)))
    for bits in (1, 2, 4, 11):
        joint = joint_from_eig(w / 3, v, psi, bits, t0)
        back = invert_joint(joint, w / 3, v, bits, t0)
        # register returns exactly to 0 and the system state is psi
        np.testing.assert_allclose(back[0], psi, atol=1e-10)
        np.testing.assert_allclose(back[1:], 0, atol=1e-10)


@pytest.mark.parametrize("bits", [1, 2, 4, 9])
def test_invert_joint_register_layer_is_hadamard(bits):
    # with zero eigenvalues and the identity basis only the register layers
    # act: the Fourier kernel, then H^(x)bits / sqrt(M)
    rng = np.random.default_rng(30 + bits)
    size, d = 1 << bits, 3
    joint = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
    got = invert_joint(joint, np.zeros(d), np.eye(d), bits, 0.7)
    want = hadamard(bits) @ np.fft.fft(joint, axis=0) / size
    np.testing.assert_allclose(got, want, atol=1e-12 * np.max(np.abs(want)))


def _spectral_case(kind: str, seed: int):
    """(Hermitian A, base time t0) for the register-kernel differential tests."""
    rng = np.random.default_rng(seed)
    n = 5
    if kind == "random":
        a = random_hermitian(n, rng)
        return a, default_base_time(np.max(np.abs(a)))
    if kind == "degenerate":
        u = haar_unitary(n, rng)
        a = (u * np.array([1.5, 1.5, -1.5, 0.0, 0.0])) @ u.conj().T
        return a, default_base_time(np.max(np.abs(a)))
    # unimodular rank one: lambda / N = max_norm, so the top phase sits at the
    # register's wrap point when t0 * max_norm = pi (1 - 1e-9)
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    a = np.outer(u, u.conj())
    return a, np.pi * (1 - 1e-9) / np.max(np.abs(a))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["random", "degenerate", "near-aliasing"])
def test_joint_from_eig_matches_controlled_power_definition(kind, seed):
    a, t0 = _spectral_case(kind, seed)
    n = a.shape[0]
    w, v = np.linalg.eigh(a)
    psi = random_state(n, np.random.default_rng(seed + 100))
    for bits in (1, 5, 8):
        # controlled powers of exp(-i A t0 / N) on psi, then the register ifft
        powers = np.exp(-1j * np.outer(np.arange(1 << bits), w / n) * t0)
        want = np.fft.ifft((powers * (v.conj().T @ psi)) @ v.T, axis=0)
        got = joint_from_eig(w / n, v, psi, bits, t0)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_qpe_rejects_non_finite_oracle():
    oracle = MatrixOracle.from_function(lambda j, k: np.nan if j == k == 1 else 0.0,
                                        (2, 2))
    with pytest.raises(ValueError, match="NaN or infinity"):
        qpe(oracle, np.array([1, 0], dtype=complex), QPEConfig(bits=3))


def test_trotter_qpe_rejects_non_finite_oracle():
    oracle = MatrixOracle.from_function(lambda j, k: np.nan if (j, k) == (0, 1) else 0.5,
                                        (2, 2))
    with pytest.raises(ValueError, match="NaN or infinity"):
        qpe(oracle, np.array([1, 0], dtype=complex),
            QPEConfig(bits=2, base_time=1.0, backend="trotter-channel"))


@pytest.mark.parametrize("pipeline", ["qpe", "svd", "procrustes"])
def test_exact_register_kernel_guard(pipeline):
    # a 2^40 x N register kernel is refused before any query or allocation
    cfg = QPEConfig(bits=40)
    assert 16 * cfg.size * 2 > MAX_BYTES
    oracle = MatrixOracle.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="register kernel"):
        if pipeline == "qpe":
            qpe(oracle, np.array([1, 0], dtype=complex), cfg)
        elif pipeline == "svd":
            quantum_svd(oracle, cfg, 0.01)
        else:
            quantum_procrustes_apply(oracle, np.array([1, 0], dtype=complex), cfg, 0.01)
    assert oracle.report_calls() == 0


def test_backend_agreement_zero_matrix():
    oracle = MatrixOracle.from_matrix(np.zeros((2, 2)))
    psi = np.array([1, 0], dtype=complex)
    report = backend_agreement(oracle, psi, QPEConfig(bits=2))
    assert report.tv_distance <= 1e-12


def test_backend_agreement_small_case():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    report = backend_agreement(
        MatrixOracle.from_matrix(a), psi,
        QPEConfig(bits=2, base_time=np.pi, trotter_epsilon=0.05))
    assert report.tv_distance <= 0.05
    assert report.trotter_calls > 0


def test_backend_agreement_guards_size():
    rng = np.random.default_rng(4)
    a = random_hermitian(5, rng)
    with pytest.raises(ValueError):
        backend_agreement(MatrixOracle.from_matrix(a), random_state(5, rng),
                          QPEConfig(bits=2))


def test_trotter_distribution_close_to_exact_n3():
    rng = np.random.default_rng(5)
    a = random_hermitian(3, rng)
    psi = random_state(3, rng)
    report = backend_agreement(MatrixOracle.from_matrix(a), psi,
                               QPEConfig(bits=3, trotter_epsilon=0.02))
    assert report.tv_distance <= 0.06  # ~ b * budget


def test_threshold_filters_estimates_not_state():
    c = 2.0
    a = np.diag([c, -c, 0.0, 0.0]).astype(complex)
    psi = np.sqrt([0.4, 0.3, 0.3, 0.0]).astype(complex)
    cfg = QPEConfig(bits=4, base_time=np.pi / c)
    plain = qpe(MatrixOracle.from_matrix(a), psi, cfg)
    cut = qpe(MatrixOracle.from_matrix(a), psi, cfg, threshold=0.1)
    np.testing.assert_allclose(plain.distribution, cut.distribution, atol=0)
    assert len(cut.estimates) == 2          # zero eigenvalue filtered from the list
    assert len(cut.all_peaks) == 3          # but still visible among raw peaks
    assert all(abs(e.value) >= 0.1 for e in cut.estimates)


def test_trotter_memory_guard():
    # 2^13 * 2 = 16384-dimensional density: 4 GiB, refused before any query
    oracle = MatrixOracle.from_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match="trotter backend"):
        qpe(oracle, np.array([1, 0], dtype=complex),
            QPEConfig(bits=13, base_time=np.pi, backend="trotter-channel"))
    assert oracle.report_calls() == 0


def _trotter_by_kraus_steps(a, psi, bits, epsilon):
    """Register x system density from one dense Kraus-stack step at a time."""
    n, size = a.shape[0], 1 << bits
    plan = ModifiedSwapOperator(MatrixOracle.from_matrix(a)).build_plan()
    a_max = np.max(np.abs(a))
    t0 = default_base_time(a_max)
    x = np.kron(np.full(size, 1 / np.sqrt(size)), psi)
    dens4 = np.outer(x, x.conj()).reshape(size, n, size, n)
    for k in range(bits):
        tau = (1 << k) * t0
        steps = max(1, int(np.ceil(2 * a_max**2 * tau**2 / epsilon)))
        on = (np.arange(size) >> k) & 1 == 1
        for _ in range(steps):
            dens4 = controlled_kraus_step(plan, dens4, on, tau / steps)
    f = np.kron(np.fft.ifft(np.eye(size), axis=0) * np.sqrt(size), np.eye(n))
    return f @ dens4.reshape(size * n, size * n) @ f.conj().T


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("bits", [1, 2, 3])
def test_trotter_joint_matches_kraus_step_reference(bits, n):
    rng = np.random.default_rng(10 * bits + n)
    a = random_hermitian(n, rng)
    psi = random_state(n, rng)
    result = qpe(MatrixOracle.from_matrix(a), psi,
                 QPEConfig(bits=bits, backend="trotter-channel", trotter_epsilon=0.2))
    want = _trotter_by_kraus_steps(a, psi, bits, 0.2)
    np.testing.assert_allclose(result.joint, want, atol=1e-11)
    np.testing.assert_allclose(result.distribution,
                               np.real(np.diagonal(want)).reshape(-1, n).sum(axis=1),
                               atol=1e-11)


def test_query_scaling_exact_counts():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    result = query_scaling(MatrixOracle.from_matrix(a), np.array([1, 0], dtype=complex),
                           [0.04, 0.02, 0.01], base_bits=2, base_time=np.pi)
    assert [r.oracle_calls for r in result.rows] == [7407, 62184, 503355]


def test_trotter_reads_source_once_per_stage_and_charges_every_step():
    rng = np.random.default_rng(31)
    n, bits, epsilon = 3, 3, 0.05
    a = random_hermitian(n, rng)
    reads = []

    def source(j, k):
        reads.append((j, k))
        return a[j, k]

    oracle = MatrixOracle.from_function(source, (n, n))
    result = qpe(oracle, random_state(n, rng),
                 QPEConfig(bits=bits, backend="trotter-channel", trotter_epsilon=epsilon))
    sweep = n * (n + 1) // 2
    a_max = np.max(np.abs(a))
    t0 = default_base_time(a_max)
    steps = [max(1, int(np.ceil(2 * a_max**2 * ((1 << k) * t0) ** 2 / epsilon)))
             for k in range(bits)]
    assert sum(steps) > 3 * bits  # the stages really model many sweeps
    assert len(reads) == (1 + bits) * sweep  # the spectrum read plus one per stage
    assert result.oracle_calls == (1 + sum(steps)) * sweep


def test_trotter_error_bound_reported():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    result = qpe(MatrixOracle.from_matrix(a), psi,
                 QPEConfig(bits=2, base_time=np.pi, backend="trotter-channel",
                           trotter_epsilon=0.05))
    assert result.trotter_error_bound is not None
    assert result.trotter_error_bound <= 2 * 0.05 * (1 + 1e-9)


def _estimate_bits(peaks):
    """Peaks as exactly comparable tuples: float bits, Python types and order."""
    return [(type(e.register_value), e.register_value, type(e.value), e.value.hex(),
             type(e.weight), e.weight.hex(), e.sign) for e in peaks]


@pytest.mark.parametrize("bits", [1, 2, 5, 11])
@pytest.mark.parametrize("t0", [np.pi, 0.37, 2.0])
def test_decode_register_table_equals_scalar_loop(bits, t0):
    table = decode_register(np.arange(1 << bits), bits, t0)
    want = np.array([decode_register_scalar(y, bits, t0) for y in range(1 << bits)])
    assert table.tobytes() == want.tobytes()
    assert decode_register(3 % (1 << bits), bits, t0) == decode_register_scalar(
        3 % (1 << bits), bits, t0)


def test_decode_register_array_rejects_out_of_range():
    with pytest.raises(ValueError, match="register value 9"):
        decode_register(np.array([1, 9, -1]), 3, np.pi)


# Few distinct levels, so plateaus and exact weight ties are common.
_levels = st.sampled_from([0.0, 0.004, 0.01, 0.01, 0.2, 0.2, 0.35, 0.5])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bits=st.integers(1, 5),
       t0=st.sampled_from([np.pi, 0.37, 5.0]),
       min_weight=st.sampled_from([0.0, 0.01, 0.2]),
       threshold=st.sampled_from([0.0, 0.3, 1.0, 4.0]))
def test_extract_estimates_equals_per_register_loop(data, bits, t0, min_weight, threshold):
    size = 1 << bits
    p = np.array(data.draw(st.lists(_levels, min_size=size, max_size=size)))
    got = extract_estimates(p, bits, t0, min_weight=min_weight, threshold=threshold)
    want = extract_estimates_by_loop(p, bits, t0, min_weight, threshold)
    assert _estimate_bits(got) == _estimate_bits(want)


@pytest.mark.parametrize("p", [
    [0.5, 0.5],                                 # bits = 1: both neighbours are one cell
    [0.7, 0.3],
    [0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4],   # peak at the last cell wraps to 0
    [0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4],   # tie across the wrap
    [0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2],   # flat: every cell is a peak
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],   # nothing above min_weight
])
@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_extract_estimates_wrap_and_plateau_cases(p, threshold):
    bits = len(p).bit_length() - 1
    got = extract_estimates(p, bits, np.pi, threshold=threshold)
    want = extract_estimates_by_loop(p, bits, np.pi, 0.01, threshold)
    assert _estimate_bits(got) == _estimate_bits(want)

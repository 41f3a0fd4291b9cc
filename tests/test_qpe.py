import importlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modswap.linalg import (
    HERMITIAN_TOL,
    haar_unitary,
    hermitian_from_upper,
    hermitize,
    random_low_rank,
)
from modswap.oracle import MatrixOracle, read_hermitian
from modswap.procrustes import quantum_procrustes_apply
from modswap.qpe import (
    MAX_BYTES,
    MEASURE_TOL,
    PEAK_MIN_WEIGHT,
    QPEConfig,
    _register_kernel,
    _register_mass,
    _spectral_measure,
    _trotter_backend,
    backend_agreement,
    decode_register,
    default_base_time,
    extract_estimates,
    invert_joint,
    joint_from_eig,
    qpe,
    query_scaling,
)
from modswap.svdx import embedding, quantum_svd
from modswap.swapop import BlockPlan, ModifiedSwapOperator

from dense_refs import (
    RecordingOracle,
    controlled_kraus_step,
    decode_register_scalar,
    exact_distribution_by_eigh,
    extract_estimates_by_loop,
    hadamard,
    random_hermitian,
    random_state,
    trotter_by_blocks,
)

QPE_MODULE = importlib.import_module("modswap.qpe")


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
    for kwargs in ({"bits": 0}, {"backend": "nonsense"}, {"trotter_epsilon": 0.0},
                   {"bits": 2.0}, {"bits": 2.5}, {"bits": True}, {"bits": np.float64(2)}):
        with pytest.raises(ValueError):
            QPEConfig(**{"bits": 3, **kwargs})
        with pytest.raises(ValueError):
            QPEConfig(bits=3)._replace(**kwargs)
    assert QPEConfig(bits=np.int64(3)).size == 8  # numpy integers are counts too


def test_config_refuses_a_register_wider_than_an_index():
    # 2^70 bits made ``1 << bits`` raise OverflowError, an exit 1 on the command line
    assert QPEConfig(bits=62).size == 1 << 62
    for bits in (63, 2**70):
        with pytest.raises(ValueError, match=f"^a {bits}-bit register has more values"):
            QPEConfig(bits=bits)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.int64])
def test_numpy_bit_counts_act_as_python_ints(dtype):
    # 1 << np.int8(10) wraps to 0 in int8 arithmetic; a count is stored as an int
    config = QPEConfig(bits=dtype(10))
    assert config == QPEConfig(bits=10) and type(config.bits) is int and config.size == 1024
    assert type(QPEConfig(bits=3)._replace(bits=dtype(8)).bits) is int
    assert decode_register(5, dtype(10), 1.0) == decode_register(5, 10, 1.0)
    np.testing.assert_array_equal(decode_register(np.arange(1024), dtype(10), 1.0),
                                  decode_register(np.arange(1024), 10, 1.0))
    a = np.array([[0.5, 0.25], [0.25, -0.5]], dtype=complex)
    for bits, backend in ((10, "exact-unitary"), (8, "trotter-channel")):
        runs = [qpe(MatrixOracle(a), _E0, QPEConfig(bits=b, backend=backend, trotter_epsilon=0.5))
                for b in (dtype(bits), bits)]
        assert pickle.dumps(runs[0]) == pickle.dumps(runs[1])
        assert type(runs[0].bits) is int and type(runs[0].oracle_calls) is int


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_E0 = np.array([1, 0], dtype=complex)


@pytest.mark.parametrize("make, field", [
    (lambda o: qpe(o, _E0, QPEConfig(bits=3)), "oracle_calls"),
    (lambda o: quantum_svd(o, QPEConfig(bits=6), threshold=0.05), "rank"),
    (lambda o: quantum_procrustes_apply(o, _E0, QPEConfig(bits=6), threshold=0.05),
     "success_probability"),
    (lambda o: ModifiedSwapOperator(o).build_plan(), "a"),
], ids=["QPEResult", "SVDResult", "ProcrustesResult", "BlockPlan"])
def test_records_are_immutable(make, field):
    record = make(MatrixOracle(_PAULI_X))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("kwargs", [{"base_time": np.nan}, {"base_time": np.inf},
                                    {"base_time": -np.inf}, {"trotter_epsilon": np.nan},
                                    {"trotter_epsilon": np.inf}])
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        QPEConfig(bits=3, **kwargs)
    with pytest.raises(ValueError, match="finite"):
        QPEConfig(bits=3)._replace(**kwargs)


@pytest.mark.parametrize("t0", [0.0, -1.0, -100.0])
def test_config_rejects_non_positive_base_time(t0):
    # t0 = 0 made decoding divide by zero; a negative t0 slipped past the
    # aliasing check t0 * max_norm <= pi at any magnitude
    with pytest.raises(ValueError, match="positive"):
        QPEConfig(bits=3, base_time=t0)
    with pytest.raises(ValueError, match="positive"):
        QPEConfig(bits=3)._replace(base_time=t0)


def test_zero_matrix_peaks_at_zero():
    oracle = MatrixOracle(np.zeros((3, 3)))
    psi = random_state(3, np.random.default_rng(0))
    result = qpe(oracle, psi, QPEConfig(bits=4))
    assert result.distribution[0] == pytest.approx(1.0, abs=1e-12)
    assert result.estimates[0].register_value == 0


def test_signed_half_eigenvalues_exact_peaks():
    # lam/N = +-1/2 at t0 = pi puts all weight on m = 2 and m = 6
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    result = qpe(MatrixOracle(a), psi, QPEConfig(bits=3, base_time=np.pi))
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
    result = qpe(MatrixOracle(a), psi, QPEConfig(bits=3, base_time=t0))
    # lam/N = +-c/4 -> phases +-1/8 -> m = 1 and 7; zero eigenvalue at m = 0
    assert result.distribution[1] == pytest.approx(0.5, abs=1e-6)
    assert result.distribution[7] == pytest.approx(0.3, abs=1e-6)
    assert result.distribution[0] == pytest.approx(0.2, abs=1e-6)


def test_single_eigenvector_peak_probability_one():
    c = 2.0
    a = np.diag([c, -c]).astype(complex)
    psi = np.array([1, 0], dtype=complex)
    result = qpe(MatrixOracle(a), psi,
                 QPEConfig(bits=4, base_time=np.pi / c))
    peak = int(np.argmax(result.distribution))
    assert result.distribution[peak] == pytest.approx(1.0, abs=1e-10)


def test_register_distribution_sums_to_one():
    rng = np.random.default_rng(1)
    a = random_hermitian(4, rng)
    result = qpe(MatrixOracle(a), random_state(4, rng), QPEConfig(bits=6))
    assert np.sum(result.distribution) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("backend", ["exact-unitary", "trotter-channel"])
def test_distribution_is_c_contiguous(backend):
    # the trotter backend's trace is a strided view; the envelope writer
    # encodes the array as is, and only a C-contiguous one
    rng = np.random.default_rng(4)
    result = qpe(MatrixOracle(random_hermitian(3, rng)), random_state(3, rng),
                 QPEConfig(bits=3, backend=backend, trotter_epsilon=0.1))
    assert result.distribution.flags.c_contiguous
    assert result.distribution.dtype == np.float64


def test_peaks_within_one_register_unit_of_truth():
    rng = np.random.default_rng(2)
    a = random_low_rank(4, 2, rng)
    psi = random_state(4, rng)
    bits = 8
    result = qpe(MatrixOracle(a), psi, QPEConfig(bits=bits))
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
        qpe(MatrixOracle(a), np.array([1, 0], dtype=complex),
            QPEConfig(bits=3, base_time=4.0))


def test_default_base_time_is_aliasing_safe():
    assert default_base_time(2.0) * 2.0 <= np.pi


def test_qpe_rejects_bad_state():
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        qpe(MatrixOracle(a), np.array([1.0, 1.0], dtype=complex),
            QPEConfig(bits=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("backend", ["exact-unitary", "trotter-channel"])
def test_qpe_rejects_non_finite_state_before_any_query(backend, bad):
    oracle = MatrixOracle(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="state norm"):
        qpe(oracle, np.array([1.0, bad], dtype=complex), QPEConfig(bits=2, backend=backend))
    assert oracle.report_calls() == 0


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
    """(Hermitian A, base time t0) for the register-kernel differential tests.

    N = 5, except "low-rank": rank 3 at N = 64, where the exact backend's
    Lanczos breaks down within its N // 8 steps.
    """
    rng = np.random.default_rng(seed)
    n = 5
    if kind == "low-rank":
        a = random_low_rank(64, 3, rng)
        return a, default_base_time(np.max(np.abs(a)))
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


@st.composite
def _register_spectra(draw):
    """(lambda / N, bits, t0): spectra on, near and between register grid points.

    Phases theta = lambda t0 cover random values, many zeros, exact grid
    points, grid points offset by 1e-15 to 1e-6 bins, half-bin offsets and
    the aliasing edge theta = +-pi.
    """
    bits = draw(st.integers(1, 12))
    size = 1 << bits
    t0 = draw(st.floats(0.05, 4.0))
    n = draw(st.integers(1, 8))
    bins = st.integers(-(size // 2), size // 2)
    offset = st.floats(-15, -6).map(lambda e: 10.0**e) | st.floats(-15, -6).map(
        lambda e: -(10.0**e))
    phase = st.one_of(
        st.floats(-np.pi, np.pi),
        st.just(0.0),
        bins.map(lambda k: 2 * np.pi * k / size),
        st.tuples(bins, offset).map(lambda kd: 2 * np.pi * (kd[0] + kd[1]) / size),
        st.tuples(bins, st.sampled_from([-0.5, 0.5])).map(
            lambda kd: float(np.clip(2 * np.pi * (kd[0] + kd[1]) / size, -np.pi, np.pi))),
        st.sampled_from([-np.pi, np.pi]),
    )
    zeros = draw(st.integers(0, n))
    theta = np.array([0.0] * zeros + draw(st.lists(phase, min_size=n - zeros,
                                                   max_size=n - zeros)))
    return theta / t0, bits, t0


@settings(max_examples=400, deadline=None)
@given(_register_spectra())
def test_register_mass_equals_squared_fft_kernel(case):
    evals_over_n, bits, t0 = case
    got = _register_mass(evals_over_n, bits, t0)
    want = np.abs(_register_kernel(evals_over_n, bits, t0)) ** 2
    assert got.shape == want.shape == (1 << bits, evals_over_n.size)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bits", range(1, 13))
def test_register_mass_edges_at_every_register_size(bits):
    size, t0 = 1 << bits, 0.9
    theta = np.array([0.0, 0.0, np.pi, -np.pi, 2 * np.pi / size, np.pi / size,
                      -np.pi / size, 2 * np.pi * (1 + 1e-15) / size,
                      2 * np.pi * (3 - 1e-6) / size, 1.234])
    got = _register_mass(theta / t0, bits, t0)
    np.testing.assert_allclose(got, np.abs(_register_kernel(theta / t0, bits, t0)) ** 2,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.sum(axis=0), 1.0, atol=1e-12)
    assert got[0, 0] == 1.0 and not got[1:, 0].any()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["random", "degenerate", "near-aliasing", "low-rank"])
def test_exact_qpe_distribution_equals_joint_row_sums(kind, seed):
    a, t0 = _spectral_case(kind, seed)
    n = a.shape[0]
    w, v = np.linalg.eigh(a)
    psi = random_state(n, np.random.default_rng(seed + 200))
    eigh = np.linalg.eigh
    for bits in (1, 5, 8, 12):
        shapes = []

        def recording(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        with mock.patch.object(np.linalg, "eigh", recording):
            result = qpe(MatrixOracle(a), psi, QPEConfig(bits=bits, base_time=t0))
        if kind == "low-rank":  # the Lanczos measure, not the eigh fallback
            assert shapes and (n, n) not in shapes
        joint = joint_from_eig(w / n, v, psi, bits, t0)
        np.testing.assert_allclose(result.distribution, np.sum(np.abs(joint) ** 2, axis=1),
                                   rtol=0, atol=1e-12)


def test_qpe_rejects_non_finite_oracle():
    a = np.zeros((2, 2), dtype=complex)
    a[1, 1] = np.nan  # refused when the oracle is built, before qpe is reached
    with pytest.raises(ValueError, match="^matrix contains NaN or infinity$"):
        qpe(MatrixOracle(a), np.array([1, 0], dtype=complex), QPEConfig(bits=3))


def test_trotter_qpe_rejects_non_finite_oracle():
    a = np.full((2, 2), 0.5, dtype=complex)
    a[0, 1] = np.nan
    with pytest.raises(ValueError, match="^matrix contains NaN or infinity$"):
        qpe(MatrixOracle(a), np.array([1, 0], dtype=complex),
            QPEConfig(bits=2, base_time=1.0, backend="trotter-channel"))


@pytest.mark.parametrize("pipeline", ["qpe", "svd", "procrustes"])
def test_exact_register_kernel_guard(pipeline):
    # a 2^40 x N register kernel is refused before any query or allocation
    cfg = QPEConfig(bits=40)
    assert 8 * cfg.size * 2 > MAX_BYTES
    oracle = MatrixOracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="register kernel"):
        if pipeline == "qpe":
            qpe(oracle, np.array([1, 0], dtype=complex), cfg)
        elif pipeline == "svd":
            quantum_svd(oracle, cfg, 0.01)
        else:
            quantum_procrustes_apply(oracle, np.array([1, 0], dtype=complex), cfg, 0.01)
    assert oracle.report_calls() == 0


def test_backend_agreement_zero_matrix():
    oracle = MatrixOracle(np.zeros((2, 2)))
    psi = np.array([1, 0], dtype=complex)
    report = backend_agreement(oracle, psi, QPEConfig(bits=2))
    assert report.tv_distance <= 1e-12


def test_backend_agreement_small_case():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    report = backend_agreement(
        MatrixOracle(a), psi,
        QPEConfig(bits=2, base_time=np.pi, trotter_epsilon=0.05))
    assert report.tv_distance <= 0.05
    assert report.trotter_calls > 0


def test_backend_agreement_guards_size():
    # MAX_BYTES is the only size limit: N = 5 runs within the trotter bound,
    # and N = 64, whose six 16 N^4-byte transfer matrices alone pass the cap,
    # is refused before a query
    rng = np.random.default_rng(4)
    a = random_hermitian(5, rng)
    report = backend_agreement(MatrixOracle(a), random_state(5, rng),
                               QPEConfig(bits=2))
    assert report.tv_distance <= report.trotter_error_bound
    oracle = MatrixOracle(random_hermitian(64, rng))
    with pytest.raises(ValueError, match="trotter backend"):
        backend_agreement(oracle, random_state(64, rng), QPEConfig(bits=7))
    assert oracle.report_calls() == 0


@pytest.mark.parametrize("n", [2, 8, 16])
def test_backend_agreement_within_trotter_bound(n):
    rng = np.random.default_rng(40 + n)
    a = random_hermitian(n, rng)
    psi = random_state(n, rng)
    for bits in range(1, 6):
        report = backend_agreement(MatrixOracle(a), psi,
                                   QPEConfig(bits=bits, trotter_epsilon=0.02))
        assert report.tv_distance <= report.trotter_error_bound


@pytest.mark.xfail(strict=True, reason="trotter rounding floor: TV stays near 1e-8 "
                                       "while the bound falls to 3e-10 at epsilon 1e-10")
def test_trotter_agreement_within_bound_at_tight_epsilon():
    # gen-matrix --n 4 --rank 2 --seed 1, psi = A z. The exact backend matches
    # the circuit reference to about 1e-16; the trotter distribution sums to
    # 1 + about 1e-8, so the floor is the trotter backend's rounding
    a = random_low_rank(4, 2, np.random.default_rng(1))
    psi = a @ np.ones(4)
    report = backend_agreement(MatrixOracle(a), psi / np.linalg.norm(psi),
                               QPEConfig(bits=3, trotter_epsilon=1e-10))
    assert report.tv_distance <= report.trotter_error_bound


def test_trotter_distribution_close_to_exact_n3():
    rng = np.random.default_rng(5)
    a = random_hermitian(3, rng)
    psi = random_state(3, rng)
    report = backend_agreement(MatrixOracle(a), psi,
                               QPEConfig(bits=3, trotter_epsilon=0.02))
    assert report.tv_distance <= 0.06  # ~ b * budget


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "tolerance-diagonal", "embedding"]))
def test_exact_backend_decomposes_the_hermitized_read(n, seed, kind):
    """The exact backend takes psi's measure of its read as it is, bit for bit.

    The read is ``hermitian_from_upper`` of the source: exactly Hermitian,
    its lower triangle the conjugate of its upper one and its diagonal real,
    so the backend fixes nothing, and hermitizing the read changes no bit.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    z = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if kind == "embedding" and n > 1:
        oracle = MatrixOracle(embedding(z[: n // 2, n // 2:]))
    else:
        # a source Hermitian only within the gate's tolerance, so the read
        # still differs from it. "random": every entry moves by under
        # HERMITIAN_TOL / 4 of max(1, max |A_jk|); "tolerance-diagonal": only
        # the diagonal, 2 |Im A_ii| < HERMITIAN_TOL |Re A_ii|
        z = hermitize(z)
        if kind == "tolerance-diagonal":
            imag = HERMITIAN_TOL / 2 * rng.uniform(-1, 1, n)
            z[np.diag_indices(n)] = z.diagonal().real * (1 + 1j * imag)
        else:
            tol = HERMITIAN_TOL / 4 * max(1.0, float(np.max(np.abs(z)))) / np.sqrt(2)
            z += tol * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
        oracle = MatrixOracle(z)
    a = read_hermitian(MatrixOracle(oracle.materialize()))
    seen = []

    def recording(matrix, *args):
        seen.append(matrix.copy())
        return _spectral_measure(matrix, *args)

    with mock.patch.object(QPE_MODULE, "_spectral_measure", recording):
        qpe(oracle, random_state(n, rng), QPEConfig(bits=2))
    assert len(seen) == 1 and np.array_equal(seen[0], a)
    assert np.array_equal(a, hermitian_from_upper(oracle.materialize()))
    assert np.array_equal(a, a.conj().T) and np.array_equal(hermitize(a), a)


@pytest.fixture(scope="module")
def spectral_source():
    """The N = 256 rank-3 source of the spectral-exact benchmark at seed 9, a
    state in its range, and exact ``qpe``'s result on them at 10 bits."""
    a = random_low_rank(256, 3, np.random.default_rng(144))
    rng = np.random.default_rng(5)
    psi = a @ (rng.standard_normal(256) + 1j * rng.standard_normal(256))
    psi /= np.linalg.norm(psi)
    return a, psi, qpe(MatrixOracle(a), psi, QPEConfig(bits=10))


@pytest.mark.parametrize("k", [-1000, -600, -550, -1, 1, 511, 512, 1000])
def test_exact_qpe_of_a_source_times_a_power_of_two(spectral_source, k):
    """A times 2^k gives A's distribution bit for bit, and its estimates times 2^k.

    Lanczos runs on A / 2^e, which does not depend on k; without that
    scaling k <= -550 stopped Lanczos at step 1 with one peak, and k >= 511
    overflowed the norm of its residual.
    """
    a, psi, base = spectral_source
    result = qpe(MatrixOracle(a * np.ldexp(1.0, k)), psi, QPEConfig(bits=10))
    assert len(base.estimates) == 3
    assert result.distribution.tobytes() == base.distribution.tobytes()
    assert [e.value for e in result.estimates] == [np.ldexp(e.value, k) for e in base.estimates]
    assert result.base_time == np.ldexp(base.base_time, -k)


@st.composite
def _measure_cases(draw):
    """(A, psi, bits, t0) for the exact backend against its ``eigh`` readout.

    Sizes 1 to 64, so the Lanczos measure, its step cap and the ``eigh``
    fallback all run: random low rank (psi random or in range(A)),
    degenerate (at most five distinct eigenvalues), full rank, psi wholly
    in the null space of a low-rank A (one node, at 0), the zero matrix,
    and a unimodular rank one whose eigenvalue sits on the aliasing edge
    +-pi / t0.
    """
    kind = draw(st.sampled_from(["low-rank", "degenerate", "full-rank", "null-psi",
                                 "zero", "aliasing-edge"]))
    n = draw(st.integers(1, 64))
    bits = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = random_state(n, rng)
    t0 = None
    if kind == "low-rank":
        a = random_low_rank(n, draw(st.integers(1, max(1, n // 8))), rng)
        if draw(st.booleans()):
            psi = a @ psi
    elif kind == "degenerate":
        levels = rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=draw(st.integers(1, 5)))
        u = haar_unitary(n, rng)
        a = (u * rng.choice(levels, size=n)) @ u.conj().T
    elif kind == "full-rank":
        a = random_hermitian(n, rng)
    elif kind == "null-psi" and n > 1:
        a = random_low_rank(n, draw(st.integers(1, n - 1)), rng)
        w, v = np.linalg.eigh(a)
        null = v[:, np.abs(w) <= 1e-9 * np.max(np.abs(w))]
        psi = null @ (rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1]))
    elif kind == "aliasing-edge":
        # lambda / N = sign * c = sign * max_norm, and t0 = pi / c puts it at +-pi / t0
        c = rng.uniform(0.5, 2.0)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        a = draw(st.sampled_from([-1.0, 1.0])) * c * np.outer(u, u.conj())
        t0 = np.pi / c
    else:
        a = np.zeros((n, n), dtype=np.complex128)
    a = read_hermitian(MatrixOracle(a))
    return a, psi / np.linalg.norm(psi), bits, t0 or default_base_time(np.max(np.abs(a)))


@settings(max_examples=300, deadline=None)
@given(_measure_cases())
def test_exact_qpe_equals_eigh_readout(case):
    a, psi, bits, t0 = case
    result = qpe(MatrixOracle(a), psi, QPEConfig(bits=bits, base_time=t0))
    want = exact_distribution_by_eigh(a, psi, bits, t0)
    assert np.max(np.abs(result.distribution - want)) <= 1e-12


@pytest.mark.parametrize("margin", [0.9, 1.1])
def test_lanczos_stop_moves_p_by_at_most_its_stated_bound(margin):
    """A Lanczos run from psi built to reach beta_2 = margin * MEASURE_TOL / ((M / 3) (t0 / N)).

    A = Q T Q^dagger with psi = Q[:, 0] reproduces the tridiagonal T. With
    beta_2 just under the tolerance the run stops at 3 nodes, the measure of
    A - E with ||E|| = beta_2, and no p(y) moves by more than that bound.
    Just over it, the run goes on.
    """
    n, bits, t0 = 64, 6, 1.0
    size = 1 << bits
    rng = np.random.default_rng(11)
    q = haar_unitary(n, rng)
    beta = rng.uniform(0.5, 1.0, n - 1)
    beta[2] = margin * MEASURE_TOL / (size / 3 * t0 / n)
    t = np.diag(rng.uniform(-1, 1, n)) + np.diag(beta, 1) + np.diag(beta, -1)
    a = hermitize(q @ t @ q.conj().T)
    nodes, weights = _spectral_measure(a, q[:, 0], size, t0)
    assert (nodes.size == 3) == (margin < 1)
    got = _register_mass(nodes, bits, t0) @ weights
    want = exact_distribution_by_eigh(a, q[:, 0], bits, t0)
    assert np.max(np.abs(got - want)) <= min(margin, 1.0) * MEASURE_TOL


@pytest.mark.parametrize("n, rank", [(128, 10), (256, 20)])
def test_lanczos_breaks_down_on_low_rank_input(n, rank):
    # rank + 1 steps in exact arithmetic, and at most one more for the
    # rounding spread of the null eigenvalues; with one reorthogonalisation
    # pass in place of two, neither run breaks down within its N // 8 steps
    rng = np.random.default_rng(6)
    a = hermitize(random_low_rank(n, rank, rng))
    psi = random_state(n, rng)
    t0 = default_base_time(np.max(np.abs(a)))
    nodes, weights = _spectral_measure(a, psi, 1 << 10, t0)
    assert nodes.size <= rank + 2
    got = _register_mass(nodes, 10, t0) @ weights
    assert np.max(np.abs(got - exact_distribution_by_eigh(a, psi, 10, t0))) <= 1e-12


def test_lanczos_falls_back_to_eigh_where_no_step_meets_the_bound():
    # rank one at N = 64: Lanczos breaks down at step 2 for a small register,
    # while at 2^40 register values rounding alone keeps the bound past
    # MEASURE_TOL, so the N // 8 steps run out and eigh gives all 64 nodes
    rng = np.random.default_rng(3)
    u = random_state(64, rng)
    a = np.outer(u, u.conj()) * 64
    psi = random_state(64, rng)
    t0 = default_base_time(np.max(np.abs(a)))
    assert _spectral_measure(a, psi, 1 << 10, t0)[0].size == 2
    nodes, weights = _spectral_measure(a, psi, 1 << 40, t0)
    w, v = np.linalg.eigh(a)
    np.testing.assert_array_equal(nodes, w / 64)
    np.testing.assert_array_equal(weights, np.abs(v.conj().T @ psi) ** 2)


def test_trotter_memory_guard():
    # 2^24 register frequencies at N = 2: three 1 GiB operator stacks, refused
    # before any query
    oracle = MatrixOracle(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match="trotter backend"):
        qpe(oracle, np.array([1, 0], dtype=complex),
            QPEConfig(bits=24, base_time=np.pi, backend="trotter-channel"))
    assert oracle.report_calls() == 0


@pytest.mark.parametrize("spare", [0, -1])
def test_trotter_memory_guard_boundary(monkeypatch, spare):
    # the cap is 16 * (3 * 2^bits * N^2 + 2 * 2^bits + 6 * N^4) bytes: a cap of
    # exactly that runs, one byte less is refused before any query
    n, bits = 3, 4
    size = 1 << bits
    monkeypatch.setattr(importlib.import_module("modswap.linalg"), "MAX_BYTES",
                        16 * (3 * size * n * n + 2 * size + 6 * n**4) + spare)
    oracle = MatrixOracle(random_hermitian(n, np.random.default_rng(2)))
    cfg = QPEConfig(bits=bits, backend="trotter-channel", trotter_epsilon=0.1)
    if spare == 0:
        assert qpe(oracle, np.array([1, 0, 0], dtype=complex), cfg).oracle_calls > 0
    else:
        with pytest.raises(ValueError, match="trotter backend"):
            qpe(oracle, np.array([1, 0, 0], dtype=complex), cfg)
        assert oracle.report_calls() == 0


@pytest.mark.parametrize("spare", [0, -1])
def test_backend_agreement_charges_its_oracle_after_the_trotter_guard(monkeypatch, spare):
    # the same cap: backend_agreement's oracle holds the sum of both runs'
    # calls, and one byte less refuses it before its exact run reads the source
    n, bits = 3, 4
    size = 1 << bits
    monkeypatch.setattr(importlib.import_module("modswap.linalg"), "MAX_BYTES",
                        16 * (3 * size * n * n + 2 * size + 6 * n**4) + spare)
    a = random_hermitian(n, np.random.default_rng(2))
    oracle, psi = MatrixOracle(a), np.array([1, 0, 0], dtype=complex)
    cfg = QPEConfig(bits=bits, trotter_epsilon=0.1)
    if spare == 0:
        report = backend_agreement(oracle, psi, cfg)
        exact = qpe(MatrixOracle(a), psi, cfg)
        assert oracle.report_calls() == report.trotter_calls + exact.oracle_calls
    else:
        with pytest.raises(ValueError, match="trotter backend"):
            backend_agreement(oracle, psi, cfg)
        assert oracle.report_calls() == 0


def test_trotter_runs_eleven_bits_at_n4():
    # the (2^11 * 4)^2 register x system density would need 1 GiB; one N x N
    # operator per register frequency needs under 2 MB
    rng = np.random.default_rng(11)
    a = random_hermitian(4, rng)
    report = backend_agreement(MatrixOracle(a), random_state(4, rng),
                               QPEConfig(bits=11))
    dist = report.trotter_distribution
    assert dist.shape == (1 << 11,)
    assert np.all(dist >= 0)
    assert abs(dist.sum() - 1) <= 1e-6
    assert report.tv_distance <= report.trotter_error_bound


def _trotter_by_kraus_steps(a, psi, bits, epsilon):
    """Register x system density from one dense Kraus-stack step at a time."""
    n, size = a.shape[0], 1 << bits
    plan = ModifiedSwapOperator(MatrixOracle(a)).build_plan()
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
    cfg = QPEConfig(bits=bits, backend="trotter-channel", trotter_epsilon=0.2)
    dist, _, _ = _trotter_backend(MatrixOracle(a), psi, cfg)
    want = _trotter_by_kraus_steps(a, psi, bits, 0.2)
    np.testing.assert_allclose(dist, np.real(np.diagonal(want)).reshape(-1, n).sum(axis=1),
                               rtol=0, atol=1e-11)
    # the block reference's whole density matches too, so both references agree
    dens, _, _, _ = trotter_by_blocks(MatrixOracle(a), psi, cfg)
    np.testing.assert_allclose(dens, want, rtol=0, atol=1e-11)


def _trotter_case_matrix(kind, n, rng):
    if kind == "random":
        return random_hermitian(n, rng)
    if kind == "ones":
        return np.ones((n, n), dtype=complex)
    if kind == "diagonal":
        return np.diag(rng.uniform(-2, 2, n)).astype(complex)
    return np.zeros((n, n), dtype=complex)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), bits=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "ones", "diagonal", "zero"]),
       epsilon=st.sampled_from([0.05, 0.2, 1.0]), near_aliasing=st.booleans())
def test_trotter_backend_equals_block_reference(n, bits, seed, kind, epsilon, near_aliasing):
    rng = np.random.default_rng(seed)
    a = _trotter_case_matrix(kind, n, rng)
    psi = random_state(n, rng)
    a_max = np.max(np.abs(a))
    # base_time = pi / a_max puts the extreme phases on the aliasing bound
    t0 = np.pi / a_max if near_aliasing and a_max > 0 else None
    cfg = QPEConfig(bits=bits, base_time=t0, backend="trotter-channel",
                    trotter_epsilon=epsilon)

    got_oracle, want_oracle = MatrixOracle(a), MatrixOracle(a)
    dist, got_t0, bound = _trotter_backend(got_oracle, psi, cfg)
    _, want, want_t0, want_bound = trotter_by_blocks(want_oracle, psi, cfg)
    # the two transfer matrices round apart by a few ulp (closed form against
    # the dense Kraus stack), and a stage's power of s steps carries that
    # difference s times, so the agreement is bounded by the run's step count
    steps = got_oracle.report_calls() // (n * (n + 1) // 2) - 1
    np.testing.assert_allclose(dist, want, rtol=0, atol=1e-12 + 4 * steps * 2.0**-52)
    assert (got_t0, bound) == (want_t0, want_bound)
    assert got_oracle.report_calls() == want_oracle.report_calls()


@pytest.mark.parametrize("epsilons", [[0.1, 0.2], [0.1, 0.1]], ids=["ascending", "repeated"])
def test_query_scaling_rejects_unordered_epsilons_before_any_query(epsilons):
    oracle = MatrixOracle(np.eye(2))
    with pytest.raises(ValueError, match="^epsilons must be strictly descending$"):
        query_scaling(oracle, np.array([1, 0], dtype=complex), epsilons)
    assert oracle.report_calls() == 0


def test_query_scaling_exact_counts():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    result = query_scaling(MatrixOracle(a), np.array([1, 0], dtype=complex),
                           [0.04, 0.02, 0.01], base_time=np.pi)
    assert [r.oracle_calls for r in result.rows] == [7407, 62184, 503355]


def test_query_scaling_exact_counts_rank2_n4():
    # the coupled schedule's eps^-3 law beyond N = 2: one more register bit and
    # twice the steps per application for each halving of eps
    rng = np.random.default_rng(7)
    a = random_low_rank(4, 2, rng)
    result = query_scaling(MatrixOracle(a), random_state(4, rng),
                           [0.04 / 2**i for i in range(6)])
    assert [r.oracle_calls for r in result.rows] == [
        24690, 207280, 1677850, 13462170, 107776100, 862366590]
    assert [r.bits for r in result.rows] == [2, 3, 4, 5, 6, 7]
    assert abs(result.slope - 3) <= 0.05


def test_trotter_steps_per_application_double_when_epsilon_halves():
    # at fixed bits each stage takes ceil(2 a_max^2 tau^2 / eps) steps, so
    # halving eps doubles every stage's count up to its ceiling
    rng = np.random.default_rng(7)
    a = random_low_rank(4, 2, rng)
    psi = random_state(4, rng)
    bits, sweep = 3, 4 * 5 // 2
    epsilons = [0.04 / 2**i for i in range(5)]
    steps = []
    for eps in epsilons:
        result = qpe(MatrixOracle(a), psi,
                     QPEConfig(bits=bits, backend="trotter-channel", trotter_epsilon=eps))
        steps.append(result.oracle_calls // sweep - 1)
    for prev, cur in zip(steps, steps[1:]):
        assert 2 * prev - bits <= cur <= 2 * prev
    slope = np.polyfit(np.log(1 / np.array(epsilons)), np.log(steps), 1)[0]
    assert abs(slope - 1) <= 0.01


def test_trotter_queries_grow_as_base_time_squared():
    # at fixed eps and bits, doubling tau doubles every stage's time, so each
    # stage takes ceil(2 a_max^2 tau^2 / eps) steps: slope 2 in tau
    # (Kimmel et al.'s Theta(t^2 / eps))
    taus = [0.25, 0.5, 1.0, 2.0]
    calls = [qpe(MatrixOracle(_PAULI_X), _E0,
                 QPEConfig(bits=3, base_time=tau, backend="trotter-channel",
                           trotter_epsilon=0.01)).oracle_calls
             for tau in taus]
    assert calls == [792, 3153, 12603, 50403]
    slope = np.polyfit(np.log(taus), np.log(calls), 1)[0]
    assert abs(slope - 2) <= 0.05


def test_register_doubling_alone_quadruples_trotter_queries():
    # fixed eps and default base time on [[0,1],[1,0]]: going from b to b + 1
    # register bits adds stage k = b, which evolves for time 2^k t0 and takes
    # ceil(2 a^2 (2^k t0)^2 / eps) steps of one 3-query sweep, four times the
    # steps of stage k - 1, so the total grows by about 4 per bit
    bits = [2, 3, 4, 5]
    calls = [qpe(MatrixOracle(_PAULI_X), _E0,
                 QPEConfig(bits=b, backend="trotter-channel",
                           trotter_epsilon=0.01)).oracle_calls
             for b in bits]
    assert calls == [29613, 124362, 503355, 2019327]
    t0 = default_base_time(1.0)
    for k, prev, cur in zip(bits, calls, calls[1:]):
        assert cur - prev == 3 * int(np.ceil(2 * ((1 << k) * t0) ** 2 / 0.01))
        assert 4 <= cur / prev <= 4.25


def test_trotter_reads_source_once_per_run_and_charges_every_step():
    rng = np.random.default_rng(31)
    n, bits, epsilon = 3, 3, 0.05
    a = random_hermitian(n, rng)
    oracle = RecordingOracle(a)
    result = qpe(oracle, random_state(n, rng),
                 QPEConfig(bits=bits, backend="trotter-channel", trotter_epsilon=epsilon))
    sweep = n * (n + 1) // 2
    a_max = np.max(np.abs(a))
    t0 = default_base_time(a_max)
    steps = [max(1, int(np.ceil(2 * a_max**2 * ((1 << k) * t0) ** 2 / epsilon)))
             for k in range(bits)]
    assert sum(steps) > 3 * bits  # the stages really model many sweeps
    assert oracle.reads == ["sweep"]  # one real read serves max_norm and every stage
    assert result.oracle_calls == (1 + sum(steps)) * sweep


def test_trotter_factorises_kraus_once_per_stage(monkeypatch):
    calls = []
    kraus_factors = BlockPlan.kraus_factors

    def counted(self, t):
        calls.append(t)
        return kraus_factors(self, t)

    monkeypatch.setattr(BlockPlan, "kraus_factors", counted)
    bits = 3
    a = random_hermitian(3, np.random.default_rng(5))
    qpe(MatrixOracle(a), np.array([1, 0, 0], dtype=complex),
        QPEConfig(bits=bits, backend="trotter-channel", trotter_epsilon=0.05))
    assert len(calls) == bits


def test_trotter_error_bound_reported():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    result = qpe(MatrixOracle(a), psi,
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
       t0=st.sampled_from([np.pi, 0.37, 5.0]))
def test_extract_estimates_equals_per_register_loop(data, bits, t0):
    size = 1 << bits
    p = np.array(data.draw(st.lists(_levels, min_size=size, max_size=size)))
    got = extract_estimates(p, bits, t0)
    want = extract_estimates_by_loop(p, bits, t0, PEAK_MIN_WEIGHT)
    assert _estimate_bits(got) == _estimate_bits(want)


@pytest.mark.parametrize("p", [
    [0.5, 0.5],                                 # bits = 1: both neighbours are one cell
    [0.7, 0.3],
    [0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4],   # peak at the last cell wraps to 0
    [0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4],   # tie across the wrap
    [0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2],   # flat: every cell is a peak
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],   # nothing above the floor
])
@pytest.mark.parametrize("lift", [0.0, 0.5])  # 0.5 puts every cell above the floor
def test_extract_estimates_wrap_and_plateau_cases(p, lift):
    bits = len(p).bit_length() - 1
    p = np.asarray(p) + lift
    got = extract_estimates(p, bits, np.pi)
    want = extract_estimates_by_loop(p, bits, np.pi, 0.01)
    assert _estimate_bits(got) == _estimate_bits(want)

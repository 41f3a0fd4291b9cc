import importlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modswap.linalg import haar_unitary, random_low_rank_rect
from modswap.oracle import MatrixOracle
from modswap.procrustes import quantum_procrustes_apply
from modswap.qpe import (
    QPEConfig,
    decode_register,
    default_base_time,
    joint_from_eig,
    _branch_masses,
    _read_exact,
    _register_kernel,
)
from modswap.svdx import (
    RANK_TOL,
    embedding,
    extended_spectrum_check,
    phase_ambiguity_demo,
    quantum_svd,
)

from dense_refs import embedding_by_queries


def _oracle(a):
    return MatrixOracle(np.asarray(a, dtype=complex))


def test_embed_scalar():
    dense = embedding(np.array([[1.0 + 0j]]))
    np.testing.assert_allclose(dense, [[0, 1], [1, 0]], atol=1e-15)


def test_embed_diagonal_eigenvalues():
    w = np.linalg.eigvalsh(embedding(np.diag([3.0, 2.0]).astype(complex)))
    np.testing.assert_allclose(np.sort(w), [-3, -2, 2, 3], atol=1e-12)


def test_embed_query_routing_and_counting():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    base = _oracle(a)
    dense = embedding(base.read_all())
    # one counted sweep of the base: one call per entry, none for the zero blocks
    assert base.report_calls() == 3 * 5
    assert dense[1, 3 + 2] == complex(a[1, 2])
    assert dense[3 + 2, 1] == complex(np.conj(a[1, 2]))
    assert dense[0, 1] == 0 and dense[3 + 1, 3 + 4] == 0


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 7), n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_embedding_of_read_all_equals_per_query_embedding(m, n, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    a = scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    bulk, single = _oracle(a), _oracle(a)
    got = embedding(bulk.read_all())
    want = embedding_by_queries(single)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert bulk.report_calls() == single.report_calls() == m * n


@pytest.mark.filterwarnings("ignore:matrix is skewed")
@pytest.mark.parametrize("m, n", [(24, 16), (8, 8), (1, 5), (5, 1), (3, 7)])
def test_svd_and_procrustes_charge_one_query_per_entry(m, n):
    rng = np.random.default_rng(m * 10 + n)
    a = random_low_rank_rect(m, n, 1, rng)
    config, threshold = QPEConfig(bits=8), 0.05
    base = _oracle(a)
    assert quantum_svd(base, config, threshold).oracle_calls == m * n
    psi = np.linalg.svd(a)[2][0].conj()
    result = quantum_procrustes_apply(base, psi, config, threshold)
    assert result.oracle_calls == m * n
    assert base.report_calls() == 2 * m * n


def test_svd_and_procrustes_refuse_a_non_exact_backend_before_any_query():
    a = random_low_rank_rect(5, 4, 3, np.random.default_rng(3))
    config, base = QPEConfig(bits=10, backend="trotter-channel"), _oracle(a)
    with pytest.raises(ValueError, match="exact-unitary backend only"):
        quantum_svd(base, config, 0.05)
    with pytest.raises(ValueError, match="exact-unitary backend only"):
        quantum_procrustes_apply(base, np.linalg.svd(a)[2][0].conj(), config, 0.05)
    assert base.report_calls() == 0


def test_embed_matches_blockwise_construction():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    dense = embedding(a)
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-15
    np.testing.assert_allclose(dense[:3, 3:], a, atol=1e-15)
    np.testing.assert_allclose(dense[3:, :3], a.conj().T, atol=1e-15)
    np.testing.assert_allclose(dense[:3, :3], 0, atol=1e-15)
    np.testing.assert_allclose(dense[3:, 3:], 0, atol=1e-15)


def test_extended_spectrum_scalar_eigenpairs():
    report = extended_spectrum_check([[1.0]])
    np.testing.assert_allclose(report.eigenvalues, [-1, 1], atol=1e-14)
    assert report.max_subvector_norm_deviation <= 1e-14


def test_extended_spectrum_wide_row():
    report = extended_spectrum_check([[1.0, 0.0]])
    np.testing.assert_allclose(report.eigenvalues, [-1, 0, 1], atol=1e-12)
    assert report.max_eigenvalue_deviation <= 1e-12


def test_extended_spectrum_random_low_rank():
    rng = np.random.default_rng(2)
    a = random_low_rank_rect(4, 6, 2, rng)
    report = extended_spectrum_check(a)
    assert report.max_eigenvalue_deviation <= 1e-10
    assert report.max_subvector_norm_deviation <= 1e-10
    assert report.nonzero_count == 4  # rank doubling: 2r nonzero eigenvalues


def test_extended_spectrum_has_no_size_cap():
    # M + N = 200: the check builds the same (M+N)^2 embedding quantum_svd does
    a = random_low_rank_rect(120, 80, 5, np.random.default_rng(200))
    report = extended_spectrum_check(a)
    assert report.eigenvalues.shape == (200,)
    assert report.max_eigenvalue_deviation <= 1e-10
    assert report.max_subvector_norm_deviation <= 1e-10
    assert report.nonzero_count == 10


@pytest.mark.parametrize("shape, rank", [((4, 6), 2), ((7, 3), 3), ((5, 5), 1)])
def test_extended_spectrum_subvector_norms_match_per_eigenvector_loop(shape, rank):
    a = random_low_rank_rect(*shape, rank, np.random.default_rng(rank))
    report = extended_spectrum_check(a)
    w, v = np.linalg.eigh(embedding(a))
    m = shape[0]
    kept = [l for l in range(w.size) if abs(w[l]) > RANK_TOL * max(1.0, np.max(np.abs(w)))]
    worst = max(abs(np.linalg.norm(part) - 1.0 / np.sqrt(2.0))
                for l in kept for part in (v[:m, l], v[m:, l]))
    assert report.nonzero_count == len(kept) == 2 * rank
    # column norms in one call round apart from one norm per column
    assert report.max_subvector_norm_deviation == pytest.approx(worst, abs=1e-15)


def test_extended_spectrum_symmetry():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w = extended_spectrum_check(a).eigenvalues
    np.testing.assert_allclose(np.sort(w), np.sort(-w), atol=1e-10)


def test_eigenvector_phase_ambiguity_residual_identity():
    # twisting u_j by e^{i theta} breaks the eigenvector property with
    # residual norm |e^{i theta} - 1| sigma for the normalized eigenvector
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, s, vh = np.linalg.svd(a)
    dense = embedding(a)
    theta = 0.3
    j = 0
    twisted = np.concatenate([np.exp(1j * theta) * u[:, j], vh[j].conj()]) / np.sqrt(2)
    residual = np.linalg.norm(dense @ twisted - s[j] * twisted)
    assert residual == pytest.approx(abs(np.exp(1j * theta) - 1) * s[j], rel=1e-10)
    untwisted = np.concatenate([u[:, j], vh[j].conj()]) / np.sqrt(2)
    assert np.linalg.norm(dense @ untwisted - s[j] * untwisted) <= 1e-12


def test_quantum_svd_scalar():
    result = quantum_svd(_oracle([[0.75]]), QPEConfig(bits=6), threshold=0.05)
    assert result.rank == 1
    np.testing.assert_allclose(result.singular_values, [0.75], atol=1e-10)
    assert abs(abs(result.left_vectors[0, 0]) - 1.0) <= 1e-10
    assert abs(abs(result.right_vectors[0, 0]) - 1.0) <= 1e-10


def test_quantum_svd_two_by_two_real():
    a = np.array([[2.0, 1.0], [0.5, 1.5]])
    result = quantum_svd(_oracle(a), QPEConfig(bits=12), threshold=0.01)
    assert result.rank == 2
    assert result.residual(a) <= 1e-6 * np.linalg.norm(a)
    np.testing.assert_allclose(
        result.singular_values, np.linalg.svd(a, compute_uv=False), rtol=1e-8
    )


def test_quantum_svd_rectangular_random():
    rng = np.random.default_rng(5)
    a = random_low_rank_rect(3, 5, 2, rng)
    result = quantum_svd(_oracle(a), QPEConfig(bits=10), threshold=0.02)
    assert result.rank == 2
    assert result.residual(a) <= 1e-8 * np.linalg.norm(a)
    # triplet invariant: A v_j = sigma_j u_j with the extracted phases
    for j in range(result.rank):
        lhs = a @ result.right_vectors[:, j]
        rhs = result.singular_values[j] * result.left_vectors[:, j]
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * result.singular_values[j]


def test_quantum_svd_subvector_norms():
    rng = np.random.default_rng(6)
    a = random_low_rank_rect(4, 4, 2, rng)
    result = quantum_svd(_oracle(a), QPEConfig(bits=10), threshold=0.02)
    for j in range(result.rank):
        assert np.linalg.norm(result.left_vectors[:, j]) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(result.right_vectors[:, j]) == pytest.approx(1.0, abs=1e-9)


def test_quantum_svd_orthonormal_vectors():
    rng = np.random.default_rng(7)
    a = random_low_rank_rect(5, 5, 3, rng)
    result = quantum_svd(_oracle(a), QPEConfig(bits=11), threshold=0.01)
    gram_u = result.left_vectors.conj().T @ result.left_vectors
    gram_v = result.right_vectors.conj().T @ result.right_vectors
    np.testing.assert_allclose(gram_u, np.eye(result.rank), atol=1e-8)
    np.testing.assert_allclose(gram_v, np.eye(result.rank), atol=1e-8)


def test_quantum_svd_skew_warning():
    rng = np.random.default_rng(8)
    a = random_low_rank_rect(2, 10, 1, rng)
    with pytest.warns(UserWarning, match="skewed") as record:
        quantum_svd(_oracle(a), QPEConfig(bits=8), threshold=0.01)
    assert record[0].filename == __file__  # the warning points at the call


def test_procrustes_skew_warning_points_at_the_call():
    a = random_low_rank_rect(2, 10, 1, np.random.default_rng(8))
    psi = np.linalg.svd(a)[2][0].conj()
    with pytest.warns(UserWarning, match="skewed") as record:
        quantum_procrustes_apply(_oracle(a), psi, QPEConfig(bits=8), threshold=0.01)
    assert record[0].filename == __file__


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, 0.0])
def test_quantum_svd_rejects_bad_threshold_before_any_query(threshold):
    oracle = _oracle(np.diag([3.0, 1.0]))
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        quantum_svd(oracle, QPEConfig(bits=6), threshold=threshold)
    assert oracle.report_calls() == 0


@pytest.mark.parametrize("a, config, threshold, message", [
    # sigma / (M+N) = 0.75 and 0.25, all below the threshold
    pytest.param(np.diag([3.0, 1.0]), QPEConfig(bits=6), 1.0,
                 "no singular values resolved above threshold", id="none-resolved"),
    # at 2 bits the aliasing value, decoded -pi/t0, lies in the negative
    # window only: -sigma's eigenvector has half its mass there, +sigma's not
    pytest.param([[1.0]], QPEConfig(bits=2, base_time=1.6), 0.01,
                 "0 positive and 1 negative branch(es) resolved", id="mismatched-branches"),
])
def test_quantum_svd_refuses_unresolved_spectrum(a, config, threshold, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quantum_svd(_oracle(a), config, threshold=threshold)


def test_quantum_svd_threshold_filters():
    a = np.diag([3.0, 0.05]).astype(complex)
    result = quantum_svd(_oracle(a), QPEConfig(bits=9), threshold=0.2)
    # sigma/(M+N) = 0.75 passes, 0.0125 is filtered
    assert result.rank == 1
    np.testing.assert_allclose(result.singular_values, [3.0], atol=1e-8)


def test_phase_ambiguity_zero_thetas():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    report = phase_ambiguity_demo(a, np.zeros(3))
    assert report.distance <= 1e-12
    assert report.gram_deviation <= 1e-12


def test_phase_ambiguity_sign_flip_rank_one():
    rng = np.random.default_rng(10)
    u = rng.standard_normal(3)
    v = rng.standard_normal(4)
    a = np.outer(u, v)
    report = phase_ambiguity_demo(a, [np.pi])
    np.testing.assert_allclose(report.modified, -a, atol=1e-12)
    assert report.distance == pytest.approx(2 * np.linalg.norm(a), rel=1e-12)


def test_phase_ambiguity_twists_only_the_pairs_above_the_rank_cut():
    # rank 1: the phases past the first are ignored, and the one applied is reported
    rng = np.random.default_rng(10)
    a = np.outer(rng.standard_normal(3), rng.standard_normal(4))
    report = phase_ambiguity_demo(a, [np.pi, 1.0, 2.0])
    assert report.thetas.tolist() == [np.pi]
    np.testing.assert_allclose(report.modified, -a, atol=1e-12)


def test_phase_ambiguity_rejects_zero_matrix():
    with pytest.raises(ValueError, match="zero matrix has no singular pairs to twist"):
        phase_ambiguity_demo(np.zeros((3, 4)), [0.5])


def test_phase_ambiguity_refuses_a_gram_matrix_past_the_float_range():
    # 1e155 squared overflows, and the Gram check would compare inf with inf
    with pytest.raises(ValueError, match="^Gram matrix of A overflows the float range$"):
        phase_ambiguity_demo(np.array([[1e155, 1.0]]), [0.5])


def test_phase_ambiguity_random_about_gram_preservation():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    thetas = rng.uniform(0, 2 * np.pi, size=3)
    report = phase_ambiguity_demo(a, thetas)
    assert report.gram_deviation <= 1e-10
    assert report.distance >= 0.1 * np.linalg.norm(a)
    np.testing.assert_allclose(
        report.singular_values_original, report.singular_values_modified, rtol=1e-10
    )
    assert report.pairing_residual <= 1e-10


def test_phase_ambiguity_warns_on_psd():
    a = np.eye(2, dtype=complex)
    with pytest.warns(UserWarning, match="semidefinite"):
        phase_ambiguity_demo(a, [0.5, 0.2])


def test_quantum_svd_degenerate_singular_values_flagged():
    # Hermitian source with eigenvalues {+2, -2} has a doubly degenerate
    # singular value; the pipeline returns an orthonormal basis of the
    # subspace, flags it, and the reconstruction invariant still holds
    from modswap.linalg import haar_unitary

    u = haar_unitary(2, np.random.default_rng(0))
    a = (u * np.array([2.0, -2.0])) @ u.conj().T
    result = quantum_svd(_oracle(a), QPEConfig(bits=10), threshold=0.1)
    assert result.rank == 2
    np.testing.assert_allclose(result.singular_values, [2.0, 2.0], atol=1e-9)
    assert result.degenerate == [True, True]
    assert result.residual(a) <= 1e-8 * np.linalg.norm(a)


def _embedding_case(kind: str, seed: int):
    """(block embedding of a 3 x 4 matrix, base time t0)."""
    rng = np.random.default_rng(seed)
    if kind == "degenerate":
        u, v = haar_unitary(3, rng), haar_unitary(4, rng)
        a = (u[:, :2] * np.array([1.2, 1.2])) @ v[:, :2].conj().T
    else:
        a = random_low_rank_rect(3, 4, 2, rng)
    dense = embedding(a)
    a_max = np.max(np.abs(dense))
    if kind == "near-aliasing":
        return dense, np.pi * (1 - 1e-9) / a_max
    return dense, default_base_time(a_max)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["random", "degenerate", "near-aliasing"])
def test_kernel_aggregate_and_slices_match_probe_stack(kind, seed):
    # the register kernel against its definition: phase estimation run once
    # per basis probe, stacked; the window masses quantum_svd reads are the
    # register distributions of the eigenvector probes, summed over W
    dense, t0 = _embedding_case(kind, seed)
    d = dense.shape[0]
    w, v = np.linalg.eigh(dense)
    for bits in (5, 9):
        joints = np.stack([joint_from_eig(w / d, v, probe, bits, t0)
                           for probe in np.eye(d, dtype=complex)])
        kernel = _register_kernel(w / d, bits, t0)
        np.testing.assert_allclose(np.sum(np.abs(kernel) ** 2, axis=1),
                                   np.sum(np.abs(joints) ** 2, axis=(0, 2)), atol=1e-12)
        for p in range(1 << bits):
            np.testing.assert_allclose((v.conj() * kernel[p]) @ v.T, joints[:, p, :],
                                       atol=1e-13)
        window = decode_register(np.arange(1 << bits), bits, t0) >= 0.01
        for l in range(d):
            joint = joint_from_eig(w / d, v, v[:, l], bits, t0)
            assert np.sum(np.abs(kernel[window, l]) ** 2) == pytest.approx(
                np.sum(np.abs(joint[window]) ** 2), abs=1e-12)


def _assert_matches_numpy_svd(result, a, tol):
    s = np.linalg.svd(a, compute_uv=False)
    s = s[s > 1e-10 * s[0]]
    assert result.rank == s.size
    np.testing.assert_allclose(result.singular_values, s, rtol=0, atol=tol * s[0])
    assert result.residual(a) <= tol * np.linalg.norm(a)


@pytest.mark.parametrize("seed", [6, 63, 75, 96, 99])
def test_quantum_svd_keeps_singular_values_in_adjacent_bins(seed):
    # two of the three singular values sit within a few register bins;
    # merging adjacent register peaks used to drop one triplet (rank 2)
    a = random_low_rank_rect(24, 16, 3, np.random.default_rng(seed))
    result = quantum_svd(_oracle(a), QPEConfig(bits=12), threshold=0.01)
    _assert_matches_numpy_svd(result, a, 1e-12)
    assert result.unresolved == 0


def test_quantum_svd_repeated_singular_value():
    rng = np.random.default_rng(12)
    u, v = haar_unitary(6, rng), haar_unitary(4, rng)
    a = (u[:, :3] * np.array([5.0, 5.0, 3.0])) @ v[:, :3].conj().T
    result = quantum_svd(_oracle(a), QPEConfig(bits=12), threshold=0.01)
    _assert_matches_numpy_svd(result, a, 1e-12)
    assert result.degenerate == [True, True, False]


@pytest.mark.parametrize("bits, rank, unresolved", [(4, 2, 1), (5, 3, 1), (6, 4, 0)])
def test_quantum_svd_reports_unresolved_below_grid(bits, rank, unresolved):
    # diag(1, 2, 3, 4): grid steps of 4, 2 and 1 in sigma units. Eigenvectors
    # with 0.496 (bits 4) and 0.499 (bits 5) of their mass in the window are
    # on its edge; at bits 6 every triplet is resolved
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    result = quantum_svd(_oracle(a), QPEConfig(bits=bits), threshold=0.01)
    assert result.rank == rank
    assert result.unresolved == unresolved
    assert result.grid_step == pytest.approx(2.0 ** (6 - bits), rel=1e-8)
    if bits == 6:
        _assert_matches_numpy_svd(result, a, 1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(2, 6), n=st.integers(2, 6),
       gap=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)), bits=st.integers(8, 12))
def test_quantum_svd_close_and_degenerate_singular_values(data, m, n, gap, bits):
    rank = data.draw(st.integers(2, min(m, n)))
    sigmas = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=rank - 1,
                                         max_size=rank - 1)))
    sigmas = np.sort(np.append(sigmas, sigmas[0] + gap))[::-1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, v = haar_unitary(m, rng), haar_unitary(n, rng)
    a = (u[:, :rank] * sigmas) @ v[:, :rank].conj().T
    threshold = 0.01
    grid = 2.0 * np.pi / ((1 << bits) * default_base_time(np.max(np.abs(a))))
    assume(sigmas[-1] / (m + n) >= threshold + 2 * grid)
    result = quantum_svd(_oracle(a), QPEConfig(bits=bits), threshold=threshold)
    _assert_matches_numpy_svd(result, a, 1e-10)
    assert result.unresolved == 0


def test_svd_and_procrustes_read_the_same_sign_bit_branch_masses(monkeypatch):
    a = random_low_rank_rect(8, 8, 3, np.random.default_rng(4))
    config, threshold = QPEConfig(bits=11), 0.02
    dense, t0 = _read_exact(lambda: embedding(a), 16, config)
    evals_over_n = np.linalg.eigh(dense)[0] / 16
    m_pos, m_neg = _branch_masses(evals_over_n, config.bits, t0, threshold)
    # the aliasing value 2^(bits-1) decodes to -pi/t0 and holds about 2e-7 of
    # each +-sigma eigenvector's mass; the negative window counts it, the
    # mirror of the positive window would not
    size = config.size
    mass = np.abs(_register_kernel(evals_over_n, config.bits, t0)) ** 2
    window = decode_register(np.arange(size), config.bits, t0) >= threshold
    mirror = np.sum(mass[window[-np.arange(size)]], axis=0)
    assert np.max(mass[size // 2]) > 1e-8
    np.testing.assert_allclose(m_neg - mirror, mass[size // 2], rtol=1e-6, atol=1e-18)

    seen = []

    def recording(*args):
        seen.append(_branch_masses(*args))
        return seen[-1]

    # both pipelines take their masses from the one front end in svdx
    monkeypatch.setattr("modswap.svdx._branch_masses", recording)
    assert quantum_svd(_oracle(a), config, threshold).rank == 3
    psi = np.linalg.svd(a)[2][0].conj()
    quantum_procrustes_apply(_oracle(a), psi, config, threshold)
    assert len(seen) == 2
    for got in seen:
        np.testing.assert_array_equal(got[0], m_pos)
        np.testing.assert_array_equal(got[1], m_neg)


@pytest.mark.parametrize("kind", ["random", "wide", "degenerate", "near-aliasing"])
def test_svd_and_procrustes_match_the_fft_kernel_readout(kind, monkeypatch):
    # the closed-form mass matrix against the squared FFT kernel it replaced,
    # through both readouts end to end
    rng = np.random.default_rng(70)
    if kind == "wide":
        a, bits = random_low_rank_rect(24, 16, 3, rng), 12
    elif kind == "degenerate":
        u, v = haar_unitary(6, rng), haar_unitary(5, rng)
        a, bits = (u[:, :3] * np.array([4.0, 4.0, 2.5])) @ v[:, :3].conj().T, 9
    else:
        a, bits = random_low_rank_rect(8, 8, 3, rng), 11
    base_time = None
    if kind == "near-aliasing":
        base_time = np.pi * (1 - 1e-9) / np.max(np.abs(a))
    config = QPEConfig(bits=bits, base_time=base_time)
    psi = np.linalg.svd(a)[2][:3].conj().T @ np.array([0.6, 0.48j, 0.64])

    def run():
        return (quantum_svd(_oracle(a), config, 0.01),
                quantum_procrustes_apply(_oracle(a), psi, config, 0.02))

    svd, proc = run()
    kernels = []

    def fft_register_mass(evals_over_n, bits, t0):
        kernels.append(bits)
        return np.abs(_register_kernel(evals_over_n, bits, t0)) ** 2

    # the package re-exports the function qpe under the module's name
    monkeypatch.setattr(importlib.import_module("modswap.qpe"), "_register_mass",
                        fft_register_mass)
    svd_ref, proc_ref = run()
    assert kernels == [bits, bits]
    assert (svd.rank, svd.degenerate, svd.unresolved) == \
        (svd_ref.rank, svd_ref.degenerate, svd_ref.unresolved)
    for got, want in ((svd.singular_values, svd_ref.singular_values),
                      (svd.left_vectors, svd_ref.left_vectors),
                      (svd.right_vectors, svd_ref.right_vectors)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert proc.retained_pairs == proc_ref.retained_pairs
    np.testing.assert_allclose(proc.output_state, proc_ref.output_state, rtol=0, atol=1e-12)
    for field in ("success_probability", "fidelity_vs_oracle", "uncompute_leakage"):
        assert getattr(proc, field) == pytest.approx(getattr(proc_ref, field), abs=1e-12)

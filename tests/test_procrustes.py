import numpy as np
import pytest

from modswap.linalg import haar_unitary, random_low_rank_rect
from modswap.oracle import MatrixOracle
from modswap.procrustes import classical_nearest_isometry, quantum_procrustes_apply
from modswap.qpe import QPEConfig, invert_joint, joint_from_eig

from dense_refs import procrustes_by_uncompute, random_state, sign_flip


def _oracle(a):
    return MatrixOracle(np.asarray(a, dtype=complex))


def test_nearest_isometry_of_unitary_is_itself():
    u = haar_unitary(4, np.random.default_rng(0))
    w = classical_nearest_isometry(u)
    np.testing.assert_allclose(w.matrix, u, atol=1e-12)
    assert w.rank == 4


def test_nearest_isometry_strips_scale():
    rng = np.random.default_rng(1)
    q = haar_unitary(5, rng)[:, :3]  # isometry, 5x3
    w = classical_nearest_isometry(2.7 * q)
    np.testing.assert_allclose(w.matrix, q, atol=1e-12)


def test_nearest_isometry_partial_projector():
    rng = np.random.default_rng(2)
    a = random_low_rank_rect(6, 4, 2, rng)
    w = classical_nearest_isometry(a)
    assert w.rank == 2
    _, _, vh = np.linalg.svd(a)
    proj = vh[:2].conj().T @ vh[:2]
    np.testing.assert_allclose(w.matrix.conj().T @ w.matrix, proj, atol=1e-10)
    # isometric on col(V), annihilates the complement
    x_par = vh[0].conj()
    assert np.linalg.norm(w.matrix @ x_par) == pytest.approx(1.0, abs=1e-10)
    x_perp = vh[3].conj()
    assert np.linalg.norm(w.matrix @ x_perp) <= 1e-10


def test_nearest_isometry_rejects_zero():
    with pytest.raises(ValueError):
        classical_nearest_isometry(np.zeros((3, 2)))


def test_nearest_isometry_is_frobenius_minimizer():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w = classical_nearest_isometry(a)
    best = np.linalg.norm(w.matrix - a)
    for _ in range(20):
        other = haar_unitary(4, rng)[:, :3]
        assert np.linalg.norm(other - a) >= best - 1e-9


def test_sign_flip_examples():
    joint = np.arange(8, dtype=complex).reshape(8, 1)
    flipped = sign_flip(joint, 3)
    assert flipped[0, 0] == 0  # register 0 unchanged
    np.testing.assert_allclose(flipped[:4], joint[:4])
    np.testing.assert_allclose(flipped[4:], -joint[4:])


def test_sign_flip_relative_sign_between_branches():
    joint = np.zeros((8, 1), dtype=complex)
    joint[2] = joint[6] = 1 / np.sqrt(2)
    flipped = sign_flip(joint, 3)
    assert flipped[2, 0] * flipped[6, 0] < 0


def test_sign_flip_is_involution():
    rng = np.random.default_rng(4)
    joint = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    np.testing.assert_allclose(sign_flip(sign_flip(joint, 4), 4), joint, atol=0)


def test_rank_one_exact_phase_pipeline():
    # sigma exactly on the register grid: success is exactly 1/2, no leakage
    rng = np.random.default_rng(5)
    u = random_state(2, rng)
    v = random_state(2, rng)
    a = np.outer(u, v.conj())  # sigma = 1, D = 4
    t0 = np.pi / 2  # phase = sigma t0 / (2 pi D) = 1/16 = 2/32 on b=5 grid
    result = quantum_procrustes_apply(_oracle(a), v, QPEConfig(bits=5, base_time=t0),
                                      threshold=0.05)
    assert result.success_probability == pytest.approx(0.5, abs=1e-10)
    assert result.uncompute_leakage <= 1e-10
    assert result.fidelity_vs_oracle >= 1 - 1e-10
    assert result.retained_pairs == 1
    fid = abs(np.vdot(u, result.output_state)) ** 2
    assert fid >= 1 - 1e-10


def test_rank_one_generic_register():
    rng = np.random.default_rng(6)
    u = random_state(3, rng)
    v = random_state(4, rng)
    a = 2.0 * np.outer(u, v.conj())
    result = quantum_procrustes_apply(_oracle(a), v, QPEConfig(bits=10),
                                      threshold=0.05)
    assert result.fidelity_vs_oracle >= 1 - 1e-6
    assert result.success_probability == pytest.approx(0.5, abs=0.02)


def test_scaled_unitary_applies_matrix():
    rng = np.random.default_rng(7)
    q = haar_unitary(3, rng)
    psi = random_state(3, rng)
    result = quantum_procrustes_apply(_oracle(1.7 * q), psi, QPEConfig(bits=9),
                                      threshold=0.01)
    target = q @ psi
    fid = abs(np.vdot(target, result.output_state)) ** 2
    assert fid >= 1 - 1e-6
    assert result.success_probability == pytest.approx(0.5, abs=0.02)


def test_rank_two_state_in_column_space():
    rng = np.random.default_rng(8)
    a = random_low_rank_rect(4, 4, 2, rng)
    _, _, vh = np.linalg.svd(a)
    coeff = random_state(2, rng)
    psi = vh[:2].conj().T @ coeff
    result = quantum_procrustes_apply(_oracle(a), psi, QPEConfig(bits=10),
                                      threshold=0.02)
    assert result.success_probability == pytest.approx(0.5, abs=0.02)
    assert result.fidelity_vs_oracle >= 0.99
    assert result.retained_pairs == 2


def test_branch_algebra_v_block_vanishes():
    # with exactly representable spectra the retained record components
    # carry no weight on the last-N block
    rng = np.random.default_rng(9)
    u = random_state(2, rng)
    v = random_state(2, rng)
    a = np.outer(u, v.conj())
    t0 = np.pi / 2
    from modswap.svdx import embedding

    dense = embedding(a)
    w, vecs = np.linalg.eigh(dense)
    x0 = np.concatenate([np.zeros(2, dtype=complex), v])
    joint = joint_from_eig(w / 4, vecs, x0, 5, t0)
    flipped = sign_flip(joint, 5)
    pos, neg = flipped.copy(), flipped.copy()
    pos[16:] = 0
    neg[:16] = 0
    phi_pos = invert_joint(pos, w / 4, vecs, 5, t0)[0]
    phi_neg = invert_joint(neg, w / 4, vecs, 5, t0)[0]
    # the u-block parts agree (record factors out), the v-blocks cancel
    np.testing.assert_allclose(phi_pos[2:] + phi_neg[2:], 0, atol=1e-12)
    np.testing.assert_allclose(phi_pos[:2], phi_neg[:2], atol=1e-12)
    combined = phi_pos[:2] + phi_neg[:2]
    expected = np.vdot(v, v) * u  # <v|psi> u with psi = v
    np.testing.assert_allclose(
        combined / np.linalg.norm(combined), expected * np.exp(-1j * 0), atol=1e-10
    )


def test_state_outside_column_space_rejected():
    rng = np.random.default_rng(10)
    a = random_low_rank_rect(4, 4, 2, rng)
    _, _, vh = np.linalg.svd(a)
    psi = vh[3].conj()  # entirely outside col(V)
    with pytest.raises(ValueError, match="no retained branches|no register"):
        quantum_procrustes_apply(_oracle(a), psi, QPEConfig(bits=8), threshold=0.05)


def test_state_on_a_branch_far_below_threshold_has_vanishing_output():
    # psi lies on the singular pair sigma = 8e-8, far below the threshold. The
    # pair's register leakage into the two windows, about 2e-12, passes the
    # kept-weight floor of 1e-12, but its +sigma and -sigma branches cancel in
    # the output block to a norm of about 7e-13
    a = np.diag([1.0, 8e-8]).astype(complex)
    with pytest.raises(ValueError, match="^projected output has vanishing norm$"):
        quantum_procrustes_apply(_oracle(a), np.array([0.0, 1.0]), QPEConfig(bits=8),
                                 threshold=0.05)


def test_partial_filtering_of_mixed_state():
    rng = np.random.default_rng(11)
    a = random_low_rank_rect(4, 4, 2, rng)
    _, _, vh = np.linalg.svd(a)
    psi = (vh[0].conj() + vh[3].conj()) / np.sqrt(2)  # half in, half out
    result = quantum_procrustes_apply(_oracle(a), psi, QPEConfig(bits=10),
                                      threshold=0.02)
    # the protocol projects onto col(V) first, then applies W
    w = classical_nearest_isometry(a).matrix
    target = w @ psi
    target = target / np.linalg.norm(target)
    fid = abs(np.vdot(target, result.output_state)) ** 2
    assert fid >= 0.99


def test_rejects_unnormalized_state():
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="norm"):
        quantum_procrustes_apply(_oracle(a), np.array([1.0, 1.0]),
                                 QPEConfig(bits=4), threshold=0.05)


def test_rejects_nonpositive_threshold():
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="threshold"):
        quantum_procrustes_apply(_oracle(a), np.array([1, 0], dtype=complex),
                                 QPEConfig(bits=4), threshold=0.0)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_threshold_before_any_query(threshold):
    oracle = _oracle(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        quantum_procrustes_apply(oracle, np.array([1, 0], dtype=complex),
                                 QPEConfig(bits=4), threshold=threshold)
    assert oracle.report_calls() == 0


@pytest.mark.parametrize("seed", [2, 6, 11, 19])
def test_retained_pairs_counts_close_singular_values(seed):
    # singular values a few register bins apart, each with weight on psi;
    # merging adjacent register peaks used to count them as one pair
    rng = np.random.default_rng(seed)
    r = 1 + seed % 4
    a = random_low_rank_rect(6, 6, r, rng)
    vh = np.linalg.svd(a)[2]
    psi = vh[:r].conj().T @ random_state(r, rng)
    result = quantum_procrustes_apply(_oracle(a), psi, QPEConfig(bits=10),
                                      threshold=0.02)
    assert result.retained_pairs == r


def _procrustes_case(kind: str, seed: int):
    """(5 x 4 rank-3 matrix, base time or None, threshold, psi partly outside col V)."""
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(5, rng), haar_unitary(4, rng)
    sigmas = {"degenerate": [1.3, 1.3, 0.6], "cut": [2.0, 1.0, 0.5]}.get(
        kind, rng.uniform(0.3, 2.0, 3))
    a = (u[:, :3] * np.asarray(sigmas)) @ v[:, :3].conj().T
    psi = 0.9 * (v[:, :3] @ random_state(3, rng)) + np.sqrt(0.19) * v[:, 3]
    base_time = np.pi * (1 - 1e-9) / np.max(np.abs(a)) if kind == "near-aliasing" else None
    # "cut" puts the window edge on the middle singular value and drops the smallest
    threshold = sigmas[1] / 9 if kind == "cut" else 0.01
    return a, base_time, threshold, psi


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["random", "degenerate", "near-aliasing", "cut"])
def test_closed_form_matches_inverse_circuit(kind, seed):
    a, base_time, threshold, psi = _procrustes_case(kind, seed)
    for bits in range(3, 13):
        config = QPEConfig(bits=bits, base_time=base_time)
        result = quantum_procrustes_apply(_oracle(a), psi, config, threshold)
        out, success, leakage = procrustes_by_uncompute(_oracle(a), psi, config, threshold)
        np.testing.assert_allclose(result.output_state, out, atol=1e-12)
        assert result.success_probability == pytest.approx(success, abs=1e-12)
        assert result.uncompute_leakage == pytest.approx(leakage, abs=1e-12)

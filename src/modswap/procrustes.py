"""Nearest-isometry application: classical solution and the simulated protocol.

The Frobenius-nearest (partial) isometry to a rank-r matrix A = U S V† is
W = U V†: it keeps the singular directions and sets every retained singular
value to one, acting as an isometry on the column space of V and
annihilating its orthogonal complement (W†W is the projector onto col V).

The simulated protocol applies W to a state without ever forming it:

1. phase estimation on the scaled block embedding of A, starting from the
   state (0, psi), populates +- branches with amplitudes proportional to
   +-<v_j|psi>/sqrt(2);
2. a sign flip negates every register value that decodes negative (the
   register's most significant bit under two's complement);
3. the eigenvalue register is uncomputed by the inverse circuit, with the
   sign bit kept as a record so the two branches stay distinguishable;
4. projecting onto the first M coordinates succeeds with probability 1/2
   and leaves a state proportional to U V† psi.

The embedding is built from one counted read of A (``base.read_all()``,
M*N queries), as in ``svdx.quantum_svd``.

The simulator evaluates steps 2-3 in closed form. Eigenvector l of the
embedding leaves register state K[:, l] (``qpe.joint_from_eig``), and the
post-selection, flip and uncompute act on each eigenvector separately, so by
Parseval the clean (register back at zero) row of each kept half is
phi± = ±V (beta ∘ m±) / sqrt(kept), with beta = V† (0, psi), m±_l the sum
of |K[y, l]|^2 over the kept register values of that half, and kept the
retained weight. |K[y, l]|^2 itself is the closed-form Fejer-kernel mass
matrix ``qpe._register_mass``, so neither the complex kernel nor a joint
state is built. ``qpe.invert_joint`` runs the inverse circuit itself and
is the reference the closed form is tested against.

Success probability and fidelity are computed exactly from amplitudes; the
command line's ``--shots`` draws a sampled estimate from that probability.
Imperfect uncompute at finite register size shows up as reported leakage
and fidelity loss rather than being assumed away.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import as_matrix
from .oracle import MatrixOracle
from .qpe import QPEConfig, _branch_masses, _read_spectrum, _require_state
from .svdx import embedding, _check_threshold, _warn_if_skewed

RANK_CUT = 1e-10


class PartialIsometry(NamedTuple):
    """W = U V† from a truncated SVD; isometric exactly on col(V)."""

    matrix: np.ndarray
    rank: int


def classical_nearest_isometry(a) -> PartialIsometry:
    """Frobenius-closest (partial) isometry via one dense SVD.

    Singular values below RANK_CUT relative to the largest are treated as
    zero rank; an all-zero matrix is rejected.
    """
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("zero matrix has no nearest isometry")
    keep = s > RANK_CUT * s[0]
    r = int(np.sum(keep))
    return PartialIsometry(matrix=u[:, keep] @ vh[keep, :], rank=r)


class ProcrustesResult(NamedTuple):
    output_state: np.ndarray
    success_probability: float
    fidelity_vs_oracle: float
    retained_pairs: int
    uncompute_leakage: float
    oracle_calls: int


def quantum_procrustes_apply(base: MatrixOracle, psi, config: QPEConfig,
                             threshold: float) -> ProcrustesResult:
    """Apply the nearest partial isometry of A to psi through the pipeline.

    psi lives in C^N and should be in or near col(V); components outside are
    filtered by the protocol (partial-isometry semantics). Branches whose
    sigma/(M+N) falls below threshold are post-selected away; if nothing
    survives, the input had no weight on the retained subspace and an error
    is raised.
    """
    m, n = base.shape
    _warn_if_skewed(m, n)
    psi = _require_state(psi, n)
    _check_threshold(threshold)

    calls_before = base.report_calls()
    _, evals_over_n, v, t0 = _read_spectrum(lambda: embedding(base.read_all()),
                                            m + n, config)
    x0 = np.concatenate([np.zeros(m, dtype=np.complex128), psi])
    beta = v.conj().T @ x0
    weight = np.abs(beta) ** 2

    # post-select the retained branches (|decoded| >= threshold), split by sign
    m_pos, m_neg = _branch_masses(evals_over_n, config.bits, t0, threshold)
    kept_weight = float(weight @ (m_pos + m_neg))
    if kept_weight < 1e-12:
        raise ValueError("no retained branches above threshold; "
                         "input state has no weight on the resolved subspace")
    retained_pairs = int(np.count_nonzero(
        (m_pos >= 0.5) & (weight * m_pos / kept_weight >= 1e-4)))

    # clean rows of the flipped and uncomputed halves, in Parseval closed form
    phi_pos = v @ (beta * m_pos) / np.sqrt(kept_weight)
    phi_neg = -(v @ (beta * m_neg)) / np.sqrt(kept_weight)

    clean_weight = float(np.linalg.norm(phi_pos) ** 2 + np.linalg.norm(phi_neg) ** 2)
    block_weight = float(np.linalg.norm(phi_pos[:m]) ** 2
                         + np.linalg.norm(phi_neg[:m]) ** 2)
    success = block_weight / clean_weight if clean_weight > 0 else 0.0

    out = phi_pos[:m] + phi_neg[:m]
    out_norm = np.linalg.norm(out)
    if out_norm < 1e-12:
        raise ValueError("projected output has vanishing norm")
    output_state = out / out_norm

    target = classical_nearest_isometry(base.materialize()).matrix @ psi
    target_norm = np.linalg.norm(target)
    fidelity = float(abs(np.vdot(target / target_norm, output_state)) ** 2) \
        if target_norm > 0 else 0.0

    return ProcrustesResult(
        output_state=output_state,
        success_probability=success,
        fidelity_vs_oracle=fidelity,
        retained_pairs=retained_pairs,
        uncompute_leakage=1.0 - clean_weight,
        oracle_calls=base.report_calls() - calls_before,
    )

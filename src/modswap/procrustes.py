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

Success probability and fidelity are computed exactly from amplitudes;
``shots`` adds an optional sampled estimate. Imperfect uncompute at finite
register size shows up as reported leakage and fidelity loss rather than
being assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .oracle import MatrixOracle
from .qpe import (
    QPEConfig,
    decode_register,
    extract_estimates,
    invert_joint,
    joint_from_eig,
    _read_spectrum,
    _require_state,
)
from .svdx import embed, _check_threshold, _merge_adjacent_peaks, _warn_if_skewed

RANK_CUT = 1e-10


@dataclass(frozen=True)
class PartialIsometry:
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


def sign_flip(joint, bits: int) -> np.ndarray:
    """Negate amplitudes whose register value decodes negative (MSB set).

    Unitary and involutive: applying it twice is the identity.
    """
    joint = np.asarray(joint, dtype=np.complex128)
    size = 1 << bits
    if joint.shape[0] != size:
        raise ValueError(f"register axis has length {joint.shape[0]}, expected {size}")
    out = joint.copy()
    out[size // 2:] = -out[size // 2:]
    return out


@dataclass
class ProcrustesResult:
    output_state: np.ndarray
    success_probability: float
    fidelity_vs_oracle: float
    retained_pairs: int
    uncompute_leakage: float
    oracle_calls: int
    sampled_success_probability: float | None = None


def quantum_procrustes_apply(base: MatrixOracle, psi, config: QPEConfig,
                             threshold: float, shots: int | None = None,
                             rng: np.random.Generator | None = None) -> ProcrustesResult:
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
    ext = embed(base)
    _, evals_over_n, v, t0 = _read_spectrum(ext.oracle, config)
    size = config.size
    half = size // 2

    x0 = np.concatenate([np.zeros(m, dtype=np.complex128), psi])
    joint = joint_from_eig(evals_over_n, v, x0, config.bits, t0)

    # post-select the retained branches (|decoded| >= threshold)
    keep = np.abs(decode_register(np.arange(size), config.bits, t0)) >= threshold
    filtered = joint * keep[:, None]
    kept_weight = float(np.sum(np.abs(filtered) ** 2))
    if kept_weight < 1e-12:
        raise ValueError("no retained branches above threshold; "
                         "input state has no weight on the resolved subspace")
    filtered = filtered / np.sqrt(kept_weight)

    retained = extract_estimates(
        np.sum(np.abs(filtered) ** 2, axis=1), config.bits, t0,
        min_weight=1e-4, threshold=threshold)
    retained_pairs = len(_merge_adjacent_peaks([e for e in retained if e.sign > 0]))

    flipped = sign_flip(filtered, config.bits)

    # uncompute with the sign bit kept as a record: invert each half separately
    pos_branch = flipped.copy()
    pos_branch[half:] = 0
    neg_branch = flipped.copy()
    neg_branch[:half] = 0
    phi_pos = invert_joint(pos_branch, evals_over_n, v, config.bits, t0)[0]
    phi_neg = invert_joint(neg_branch, evals_over_n, v, config.bits, t0)[0]

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

    sampled = None
    if shots is not None:
        if shots < 1:
            raise ValueError("shots must be >= 1")
        if rng is None:
            rng = np.random.default_rng()
        sampled = float(rng.binomial(shots, min(max(success, 0.0), 1.0)) / shots)

    return ProcrustesResult(
        output_state=output_state,
        success_probability=success,
        fidelity_vs_oracle=fidelity,
        retained_pairs=retained_pairs,
        uncompute_leakage=1.0 - clean_weight,
        oracle_calls=base.report_calls() - calls_before,
        sampled_success_probability=sampled,
    )

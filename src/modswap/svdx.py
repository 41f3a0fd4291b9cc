"""Hermitian block embedding of a rectangular matrix and SVD extraction.

An M x N matrix A embeds into the (M+N)-dimensional Hermitian matrix with A
in the upper-right block, its conjugate transpose lower-left, and zero
diagonal blocks. The embedding's eigenvalues are the singular values of A
with both signs (plus M+N-2r zeros), and the eigenvector for +-sigma_j is
(u_j, +-v_j)/sqrt(2), so both subvectors carry norm 1/sqrt(2) and, crucially,
the relative phase between u_j and v_j is pinned: multiplying u_j by a phase
destroys the eigenvector property. Running phase estimation on the scaled
embedding therefore recovers phase-correct singular triplets, which the
Gram-matrix route (simulating A A† alone) cannot do; ``phase_ambiguity_demo``
exhibits that failure.

The pipeline reads A once: ``base.read_all()`` is one counted sweep of its
M*N entries, and ``linalg.embedding`` places them in the blocks. That is
what one sweep of the paper's per-query embedded oracle costs: an
off-block query of the embedding is one query of A, and a diagonal-block
query is a free zero.

Vector readout from the simulated pipeline: phase estimation leaves
eigenvector l of the embedding in register state K[:, l], the register
kernel of ``qpe.joint_from_eig``, whose outcome distribution |K[y, l]|^2 is
the Fejer kernel centred on its eigenvalue. The readout takes that
distribution in closed form (``qpe._register_mass``: real, with no FFT and
no joint state) and sums it over register windows. The mass of eigenvector
l in the positive window W = {y : decoded(y) >= threshold} decides its
branch: the eigenvectors with at least half their mass in W span the
resolved +sigma branch, whatever the spacing of their eigenvalues, and they
are the Ritz vectors of the embedding on that subspace. Each splits into
(u, v)/sqrt(2); the singular value is the Rayleigh quotient u^H A v, since
raw register decoding is limited to grid resolution. Eigenvectors with
between a quarter and three quarters of their mass in W sit on the window
edge below grid resolution and are reported as unresolved. Reading the
eigenvectors' amplitudes directly is a simulator privilege; the masses
come from the one counted read, so the readout adds no query.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .linalg import RANK_CUT, as_matrix, embedding, hermitize, is_hermitian
from .oracle import MatrixOracle
from .qpe import QPEConfig, _branch_masses, _read_exact

SKEW_RATIO = 4.0
RANK_TOL = 1e-8


class ExtendedSpectrumReport(NamedTuple):
    """Dense verification of the embedding's eigenstructure."""

    eigenvalues: np.ndarray
    expected: np.ndarray
    max_eigenvalue_deviation: float
    max_subvector_norm_deviation: float
    nonzero_count: int


def extended_spectrum_check(a) -> ExtendedSpectrumReport:
    """Check the embedding of the M x N matrix A: spectrum = {+-sigma_j} plus
    zeros, and 1/sqrt(2) subvector norms.

    Classical verifier on the dense embedding; no oracle calls. Eigenvalues
    below RANK_TOL * max(1, max |w|) in magnitude count as zero.
    """
    a = as_matrix(a)
    m, n = a.shape
    dense = embedding(a)
    sig = np.linalg.svd(a, compute_uv=False)
    expected = np.sort(np.concatenate([sig, -sig, np.zeros(m + n - 2 * sig.size)]))
    w, v = np.linalg.eigh(dense)
    dev = float(np.max(np.abs(np.sort(w) - expected)))

    nonzero = np.abs(w) > RANK_TOL * max(1.0, float(np.max(np.abs(w))))
    kept = v[:, nonzero]
    sub_norms = np.stack([np.linalg.norm(kept[:m], axis=0), np.linalg.norm(kept[m:], axis=0)])
    return ExtendedSpectrumReport(
        eigenvalues=np.sort(w),
        expected=expected,
        max_eigenvalue_deviation=dev,
        max_subvector_norm_deviation=float(np.max(np.abs(sub_norms - 1.0 / np.sqrt(2.0)),
                                                  initial=0.0)),
        nonzero_count=int(np.count_nonzero(nonzero)),
    )


class SVDResult(NamedTuple):
    """Phase-consistent singular triplets extracted from the embedding.

    grid_step is the register resolution 2*pi*(M+N) / (2^bits * t0) in
    singular-value units; a triplet is degenerate when another returned
    singular value lies within one grid step. unresolved counts the
    eigenvectors with between 1/4 and 3/4 of their mass in the positive
    window: at this register size they sit on the window edge, in no branch.
    """

    rank: int
    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    degenerate: list[bool]
    oracle_calls: int
    unresolved: int
    grid_step: float

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.conj().T

    def residual(self, a) -> float:
        a = as_matrix(a)
        return float(np.linalg.norm(a - self.reconstruct()))


def _read_branches(base: MatrixOracle, config: QPEConfig, threshold: float):
    """Front end of both embedding pipelines: (A, V, m_pos, m_neg, t0).

    Checks the threshold, warns the pipeline's caller of a skewed shape, reads
    and embeds A once, and sums each eigenvector's branch-window masses.
    """
    if not 0 < threshold < np.inf:  # NaN fails both comparisons
        raise ValueError("threshold must be positive and finite")
    m, n = base.shape
    if max(m, n) > SKEW_RATIO * min(m, n):
        warnings.warn(
            f"matrix is skewed ({m} x {n}); singular values may fall outside "
            "the resolvable regime",
            stacklevel=3,
        )
    dense, t0 = _read_exact(lambda: embedding(base.read_all()), m + n, config)
    w, v = np.linalg.eigh(dense)
    m_pos, m_neg = _branch_masses(w / (m + n), config.bits, t0, threshold)
    return dense[:m, m:], v, m_pos, m_neg, t0


def quantum_svd(base: MatrixOracle, config: QPEConfig, threshold: float) -> SVDResult:
    """Full SVD pipeline through phase estimation on the scaled embedding.

    Keeps the eigenvectors of the embedding with at least half their
    register mass in the window decoded >= threshold and reads one triplet
    from each; the negative window decoded <= -threshold must hold as many
    -sigma eigenvectors, or the spectrum is not an embedding's and an error
    is raised.
    """
    calls_before = base.report_calls()
    a, v, m_pos, m_neg, t0 = _read_branches(base, config, threshold)
    m, n = a.shape
    resolved = m_pos >= 0.5
    if np.count_nonzero(m_neg >= 0.5) != np.count_nonzero(resolved):
        raise ValueError(f"{np.count_nonzero(resolved)} positive and "
                         f"{np.count_nonzero(m_neg >= 0.5)} negative branch(es) resolved")
    if not resolved.any():
        raise ValueError("no singular values resolved above threshold")

    u_part = np.sqrt(2.0) * v[:m, resolved]
    v_part = np.sqrt(2.0) * v[m:, resolved]
    # the largest |u| entry of each triplet made real and positive
    pivot = u_part[np.argmax(np.abs(u_part), axis=0), np.arange(u_part.shape[1])]
    phase = pivot.conj() / np.abs(pivot)
    u_part, v_part = u_part * phase, v_part * phase
    sigmas = np.real(np.sum(u_part.conj() * (a @ v_part), axis=0))

    order = np.argsort(-sigmas, kind="stable")
    sigmas = sigmas[order]
    grid = 2.0 * np.pi * (m + n) / (config.size * t0)
    close = np.abs(sigmas[:, None] - sigmas[None, :]) <= grid
    return SVDResult(
        rank=sigmas.size,
        singular_values=sigmas,
        left_vectors=u_part[:, order],
        right_vectors=v_part[:, order],
        degenerate=(np.sum(close, axis=1) > 1).tolist(),
        oracle_calls=base.report_calls() - calls_before,
        unresolved=int(np.count_nonzero((m_pos > 0.25) & (m_pos < 0.75))),
        grid_step=grid,
    )


class PhaseAmbiguityReport(NamedTuple):
    """Gram-preserving phase twist of the singular pairs and its visibility.

    thetas holds the phases applied, at most one per singular pair above RANK_CUT.
    """

    thetas: np.ndarray
    distance: float
    gram_deviation: float
    pairing_residual: float
    singular_values_original: np.ndarray
    singular_values_modified: np.ndarray
    modified: np.ndarray


def phase_ambiguity_demo(a, thetas) -> PhaseAmbiguityReport:
    """Twist left/right phase relations while preserving the Gram matrix.

    Builds a matrix sharing the Gram matrix A A† (and all singular values)
    with A but with each u_j twisted by exp(i theta_j); reports how far the
    twisted matrix drifts from A in Frobenius norm. Only the r singular
    pairs above RANK_CUT are twisted: phases beyond the first r are ignored,
    and pairs past the phases given are left untwisted. A zero matrix has
    no pair to twist and is refused, as is an A whose Gram matrix overflows
    the float range. For positive semidefinite A the twist collapses, so
    such inputs draw a warning.
    """
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] <= 0:
        raise ValueError("zero matrix has no singular pairs to twist")
    thetas = np.asarray(thetas, dtype=float)[:np.count_nonzero(s > RANK_CUT * s[0])]
    if a.shape[0] == a.shape[1] and is_hermitian(a) \
            and float(np.min(np.linalg.eigvalsh(hermitize(a)))) > -1e-12:
        warnings.warn("input is positive semidefinite; the ambiguity vanishes",
                      stacklevel=2)

    twist = s * np.exp(1j * np.pad(thetas, (0, s.size - thetas.size)))
    modified = (u * twist) @ vh
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        gram = a @ a.conj().T
        gram_dev = float(np.max(np.abs(modified @ modified.conj().T - gram)))
    if not np.isfinite(gram_dev):
        raise ValueError("Gram matrix of A overflows the float range")
    if gram_dev > 1e-10 * max(1.0, float(np.max(np.abs(gram)))):
        raise AssertionError(f"Gram matrix not preserved (deviation {gram_dev:.3e})")
    pairing = np.linalg.norm(modified @ vh.conj().T - u * twist, axis=0).max()

    return PhaseAmbiguityReport(
        thetas=thetas,
        distance=float(np.linalg.norm(a - modified)),
        gram_deviation=gram_dev,
        pairing_residual=float(pairing),
        singular_values_original=s.copy(),
        singular_values_modified=np.linalg.svd(modified, compute_uv=False),
        modified=modified,
    )

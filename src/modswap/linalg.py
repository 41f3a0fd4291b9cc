"""Dense complex matrix kernels: norms, Hermitian eigendecompositions, exact
unitary evolution, and the seeded random low-rank ensemble.

Everything here is a classical baseline: plain numpy on dense arrays, no
oracle accounting. Matrices are numpy complex arrays; vectors are 1-d arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
DECOMP_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains NaN or infinity")
    return a


def hermiticity_residual(a: np.ndarray) -> float:
    """Max elementwise deviation of A from its conjugate transpose."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    return hermiticity_residual(a) <= tol * scale


def require_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = as_matrix(a)
    if not is_hermitian(a, tol):
        raise ValueError(
            f"matrix is not Hermitian (residual {hermiticity_residual(a):.3e})"
        )
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2, the exactly-Hermitian part."""
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class NormReport:
    """Max-element, Frobenius, and nuclear norms of one matrix."""

    max_norm: float
    frobenius: float
    nuclear: float


def norms(a) -> NormReport:
    """All three norms; nuclear is the sum of singular values."""
    a = as_matrix(a)
    return NormReport(
        max_norm=float(np.max(np.abs(a))),
        frobenius=float(np.linalg.norm(a)),
        nuclear=float(np.sum(np.linalg.svd(a, compute_uv=False))),
    )


def nuclear_norm(a) -> float:
    """Sum of singular values. For Hermitian input this is sum |eigenvalues|."""
    a = as_matrix(a)
    if a.shape[0] == a.shape[1] and is_hermitian(a, tol=1e-9):
        return float(np.sum(np.abs(np.linalg.eigvalsh(hermitize(a)))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a Hermitian matrix, descending by |eigenvalue|.

    eigenvectors[:, j] is the unit eigenvector for eigenvalues[j].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def exact_eig(a) -> EigenDecomposition:
    """Classical Hermitian eigendecomposition, sorted descending by |lambda|."""
    a = require_hermitian(a)
    w, v = np.linalg.eigh(hermitize(a))
    order = np.argsort(-np.abs(w), kind="stable")
    return EigenDecomposition(eigenvalues=w[order], eigenvectors=v[:, order])


def unitary_from_eigh(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i (A/N) t) from the eigenpairs (w, v) of an N x N Hermitian A.

    One ``eigh`` serves every time value: (v * e^{-i w t/N}) v†.
    """
    return (v * np.exp(-1j * w * (t / v.shape[0]))) @ v.conj().T


def evolution_unitary(a: np.ndarray, t: float) -> np.ndarray:
    """exp(-i (A/N) t) for Hermitian A of dimension N, via eigendecomposition."""
    a = require_hermitian(a)
    return unitary_from_eigh(*np.linalg.eigh(hermitize(a)), t)


def exact_evolution(a, t: float, sigma) -> np.ndarray:
    """Conjugate sigma by exp(-i (A/N) t): the exact reduced dynamics.

    Trace and Hermiticity of sigma are preserved (unitary conjugation).
    """
    a = require_hermitian(a)
    sigma = as_matrix(sigma)
    if sigma.shape != a.shape:
        raise ValueError(f"state dim {sigma.shape} != matrix dim {a.shape}")
    u = evolution_unitary(a, t)
    return u @ sigma @ u.conj().T


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R diagonal is phase-fixed so the distribution is exactly Haar.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_low_rank(n: int, r: int, scale: float = 1.0,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Random Hermitian rank-r matrix U diag_r(lambda) U† with Haar U.

    The r nonzero eigenvalues have magnitude uniform in [0.5, 1]*scale*n
    with independent random signs, so the matrix is indefinite in general.
    """
    if rng is None:
        rng = np.random.default_rng()
    if r < 1 or r > n:
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= n={n}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    u = haar_unitary(n, rng)
    mags = rng.uniform(0.5, 1.0, size=r) * scale * n
    signs = rng.choice([-1.0, 1.0], size=r)
    lam = np.zeros(n)
    lam[:r] = mags * signs
    return hermitize((u * lam) @ u.conj().T)


def random_low_rank_rect(m: int, n: int, r: int, scale: float = 1.0,
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """Random m x n rank-r matrix with singular values Theta(m + n).

    Built as U_r diag(sigma) V_r† from independent Haar factors; sigma_j is
    uniform in [0.5, 1]*scale*(m+n)/2, the regime in which the extended-matrix
    pipelines resolve all singular values.
    """
    if rng is None:
        rng = np.random.default_rng()
    if r < 1 or r > min(m, n):
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= min({m}, {n})")
    u = haar_unitary(m, rng)[:, :r]
    v = haar_unitary(n, rng)[:, :r]
    sig = np.sort(rng.uniform(0.5, 1.0, size=r))[::-1] * scale * (m + n) / 2
    return (u * sig) @ v.conj().T


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix GG†/tr(GG†) from a Ginibre G."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return hermitize(rho / np.trace(rho).real)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector in C^n."""
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)

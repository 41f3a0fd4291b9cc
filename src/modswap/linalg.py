"""Dense complex matrix kernels: Hermitian and state checks, the nuclear norm,
exact unitary evolution, and the seeded random low-rank ensembles.

Everything here is a classical baseline: plain numpy on dense arrays, no
oracle accounting. Matrices are numpy complex arrays; vectors are 1-d arrays.
``hermitian_from_upper`` is the one definition of the Hermitian matrix a
source stands for: the one its upper triangle defines, lower triangle
conjugated from it and diagonal real. Both Hermitian gates return it:
``require_hermitian``, the gate of the uncounted path, and
``oracle.read_hermitian``, the gate of the counted one, so a baseline and
its counted run see the same bits and no caller fixes either result again.
They share one rule, HERMITIAN_TOL relative to max(1, max |A_jk|) on the
whole matrix, which ``check_hermitian`` applies with nothing built to an
array that has already passed ``as_matrix``: ``require_hermitian`` and
``nuclear_norm`` run it behind ``as_matrix``, and ``read_hermitian`` runs it
on the oracle's source, checked when the oracle was built, before its sweep
charges any query. ``require_state`` is the one gate of every state vector
the library takes; it refuses, never fixes, a norm off 1. ``trace_norms``
is the one trace-norm kernel: ``nuclear_norm`` runs it behind the Hermitian
check, since every error measured here is the trace norm of a difference of
Hermitian matrices, and ``evolve`` runs it ungated on stacks of step
differences, ``error_sweep`` on each dt's difference. The random ensembles
are the paper's test matrices: low rank, with eigenvalues Theta(N).
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
STATE_NORM_TOL = 1e-9
# singular values at or below RANK_CUT times the largest count as zero
RANK_CUT = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite, non-empty 2-d complex array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    if not a.size:
        raise ValueError("empty matrix ({}x{})".format(*a.shape))
    # complex isfinite, not a float64 view: the view refuses Fortran-ordered
    # and column-strided input
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or infinity")
    return a


def hermiticity_residual(a: np.ndarray) -> float:
    """Max elementwise deviation of A from its conjugate transpose.

    A† is first copied out contiguous, which at N = 256 takes a third of
    the time of subtracting the transposed view.
    """
    d = np.conjugate(a.T, out=np.empty(a.shape, dtype=np.complex128))
    return float(np.max(np.abs(np.subtract(a, d, out=d))))


def is_hermitian(a: np.ndarray) -> bool:
    """Whether a square ``as_matrix`` result is within HERMITIAN_TOL of Hermitian."""
    scale = max(1.0, float(np.max(np.abs(a))))
    return hermiticity_residual(a) <= HERMITIAN_TOL * scale


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """A itself, an ``as_matrix`` result, if square and within HERMITIAN_TOL of
    Hermitian; ValueError otherwise."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square ({a.shape[0]}x{a.shape[1]})")
    if not is_hermitian(a):
        raise ValueError(f"matrix is not Hermitian (residual {hermiticity_residual(a):.3e})")
    return a


def hermitian_from_upper(a: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrix that the upper triangle of a square A defines.

    A new C-ordered complex array: the strict upper triangle is A's, the
    strict lower triangle its conjugate transpose, and the diagonal A's real
    part. A's strict lower triangle is never read.
    """
    r = np.arange(a.shape[0])
    h = np.conjugate(a.T, out=np.empty(a.shape, dtype=np.complex128))
    np.copyto(h, a, where=r[:, None] <= r)  # the diagonal and upper triangle
    np.fill_diagonal(h.imag, 0.0)
    return h


def require_hermitian(a) -> np.ndarray:
    """``hermitian_from_upper(A)`` for a square A within HERMITIAN_TOL of Hermitian.

    The check is on the whole matrix: max |A - A†| at most HERMITIAN_TOL *
    max(1, max |A_jk|), else ValueError. ``oracle.read_hermitian`` returns
    the same matrix from a counted sweep of the upper triangle.
    """
    return hermitian_from_upper(check_hermitian(as_matrix(a)))


def require_state(psi, n: int) -> np.ndarray:
    """psi as a length-n complex vector divided by its norm, which must be
    within STATE_NORM_TOL of 1; ValueError otherwise."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape != (n,):
        raise ValueError(f"state has dim {psi.shape[0]}, expected {n}")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("state is the zero vector")
    if not abs(nrm - 1.0) <= STATE_NORM_TOL:  # a NaN norm fails the comparison
        raise ValueError(f"state norm {nrm:.10g} != 1")
    return psi / nrm


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2, the exactly-Hermitian part, over the last two axes.

    A stack of matrices is hermitized matrix by matrix; on a 2-d array the
    result is the same bits as ``(A + A.conj().T) / 2``.
    """
    return (a + a.swapaxes(-1, -2).conj()) / 2


def embedding(a: np.ndarray) -> np.ndarray:
    """The (M+N)-dimensional Hermitian embedding [[0, A], [A^dagger, 0]] of an M x N A.

    Hermitian with a zero diagonal by construction, so it needs no
    Hermitian gate. The pipelines embed the one counted read
    ``base.read_all()``; baselines and verifiers embed the uncounted source.
    """
    m, n = a.shape
    ext = np.zeros((m + n, m + n), dtype=np.complex128)
    ext[:m, m:] = a
    ext[m:, :m] = a.conj().T
    return ext


def trace_norms(d: np.ndarray) -> np.ndarray:
    """Sum of |eigenvalues| of hermitize(D), for each matrix of the last two axes.

    The ungated kernel behind ``nuclear_norm``: no finiteness, shape or
    Hermiticity check, so a caller passes a (stack of) square difference(s)
    of Hermitian matrices. A stack gives each matrix's value bit for bit as
    a call on that matrix alone.
    """
    return np.sum(np.abs(np.linalg.eigvalsh(hermitize(d))), axis=-1)


def nuclear_norm(a) -> float:
    """``trace_norms`` of A, whose gate refuses any A that ``require_hermitian`` refuses.

    The gate only checks: the norm is that of hermitize(A), not of the
    matrix ``require_hermitian`` returns.
    """
    return float(trace_norms(check_hermitian(as_matrix(a))))


def unitary_from_eigh(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i (A/N) t) from the eigenpairs (w, v) of an N x N Hermitian A.

    One ``eigh`` serves every time value: (v * e^{-i w t/N}) v†.
    """
    return (v * np.exp(-1j * w * (t / v.shape[0]))) @ v.conj().T


def exact_evolution(a, t: float, sigma) -> np.ndarray:
    """Conjugate sigma by exp(-i (A/N) t): the exact reduced dynamics.

    The unitary comes from one ``eigh`` of the gated A. Trace and
    Hermiticity of sigma are preserved (unitary conjugation).
    """
    a = require_hermitian(a)
    sigma = as_matrix(sigma)
    if sigma.shape != a.shape:
        raise ValueError(f"state dim {sigma.shape} != matrix dim {a.shape}")
    u = unitary_from_eigh(*np.linalg.eigh(a), t)
    return u @ sigma @ u.conj().T


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R diagonal is phase-fixed so the distribution is exactly Haar.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_low_rank(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian rank-r matrix U diag_r(lambda) U† with Haar U.

    The r nonzero eigenvalues have magnitude uniform in [0.5, 1]*n with
    independent random signs, so the matrix is indefinite in general.
    """
    if r < 1 or r > n:
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= n={n}")
    u = haar_unitary(n, rng)
    mags = rng.uniform(0.5, 1.0, size=r) * n
    signs = rng.choice([-1.0, 1.0], size=r)
    lam = np.zeros(n)
    lam[:r] = mags * signs
    return hermitize((u * lam) @ u.conj().T)


def random_low_rank_rect(m: int, n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random m x n rank-r matrix with singular values Theta(m + n).

    Built as U_r diag(sigma) V_r† from independent Haar factors; sigma_j is
    uniform in [0.5, 1]*(m+n)/2, the regime in which the extended-matrix
    pipelines resolve all singular values.
    """
    if r < 1 or r > min(m, n):
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= min({m}, {n})")
    u = haar_unitary(m, rng)[:, :r]
    v = haar_unitary(n, rng)[:, :r]
    sig = np.sort(rng.uniform(0.5, 1.0, size=r))[::-1] * (m + n) / 2
    return (u * sig) @ v.conj().T


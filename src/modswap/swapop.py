"""Implicit one-sparse operator on the doubled space and its exact exponential.

For an N x N Hermitian source A, the doubled-space operator maps basis vector
|j, k> to A[j, k] |k, j>, so the flattened index p*N + q plays the role of
|p> (x) |q> with the first factor the ancilla register. Columns are
one-sparse, which splits the space into N fixed points (j, j) and N(N-1)/2
two-dimensional invariant blocks {(j, k), (k, j)}. The exponential
exp(-i t op) is therefore exact and costs O(N^2), never materializing the
N^2 x N^2 matrix:

* component (j, j) picks up the phase exp(-i A[j,j] t);
* the pair block with a = A[j, k], j < k, rotates by
  [[cos(|a| t), -i e^{i arg a} sin(|a| t)],
   [-i e^{-i arg a} sin(|a| t), cos(|a| t)]]
  in the ordered basis (|k, j>, |j, k>).

One ``build_plan`` call is one counted ``read_hermitian`` sweep (N(N+1)/2
queries); the plan holds the exactly Hermitian N x N matrix that sweep
returns, lower triangle conjugated from the upper and diagonal real, and can
then be applied to any number of vectors or density-matrix columns at any
time value.

Read elementwise from the matrix, the cosines, rotated sines and phases of
every block at time t form two N x N factors (``kraus_factors``). Viewing a
doubled-space vector as X[p, q], the exponential is C o X + S^T o X^T. The
same factors give the uniform-ancilla channel step in closed form: each
Kraus operator is a diagonal plus one column, so ``channel_map`` builds
those factors once for a fixed time and returns the whole Kraus sum as a
map of a few N x N products, to be applied to many states; it never forms
the N^2 x N^2 joint state. ``conjugate`` and the dense ``kraus`` stack
remain as references. ``build_plan``'s ``read_hermitian`` is the source's
one gate, so a source that is not square, not finite or not Hermitian
raises ``ValueError`` before the plan's sweep; ``apply_exp`` and
``controlled_apply_exp`` check their state with ``linalg.require_state``
before they build the plan.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import require_state
from .oracle import MatrixOracle, read_hermitian


class BlockPlan(NamedTuple):
    """One oracle sweep's worth of matrix data, reusable across time values.

    ``a`` is the N x N Hermitian matrix of one counted sweep; every block of
    the doubled-space exponential is read from it elementwise.
    """

    a: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def apply(self, x, t: float) -> np.ndarray:
        """Apply exp(-i t op) along the first axis of x (length N^2).

        Read as X[p, q] at index p*N + q, that axis maps to C o X + S^T o X^T
        with (C, S) the factors of ``kraus_factors``; further axes are batch axes.
        """
        x = np.asarray(x, dtype=np.complex128)
        n = self.dim
        if x.shape[0] != n * n:
            raise ValueError(f"axis 0 has length {x.shape[0]}, expected {n * n}")
        grid = x.reshape((n, n) + x.shape[1:])
        tail = (1,) * (x.ndim - 1)
        c, s = (f.reshape((n, n) + tail) for f in self.kraus_factors(t))
        out = c * grid + s.swapaxes(0, 1) * grid.swapaxes(0, 1)
        return out.reshape(x.shape)

    def conjugate(self, joint: np.ndarray, t: float) -> np.ndarray:
        """U J U† for the doubled-space density J, reusing this plan's sweep."""
        left = self.apply(joint, t)
        return self.apply(left.conj().T, t).conj().T

    def kraus_factors(self, t: float):
        """(C, S), the N x N factors of the uniform-ancilla channel step at time t.

        Tracing the fresh uniform ancilla out of the conjugation by
        exp(-i t op) leaves X -> sum_a K_a X K_a† with
        K_a[s, t'] = sum_a' U[(a,s), (a',t')] / sqrt(N). The one-sparse rows
        make each K_a a diagonal plus one column,
        K_a = (diag(C[a]) + S[:, a] e_a^T) / sqrt(N): C holds cos(|A[a,s]| t)
        and the bare phase exp(-i A[a,a] t) at (a, a); S holds the rotated
        sines -i (A[s,a] / |A[s,a]|) sin(|A[s,a]| t), with S[a, a] = 0.
        """
        mag = np.abs(self.a)
        unit = np.where(mag > 0, self.a / np.where(mag > 0, mag, 1.0), 1.0)
        c = np.cos(mag * t).astype(np.complex128)
        s = -1j * unit * np.sin(mag * t)
        np.fill_diagonal(c, np.exp(-1j * self.a.diagonal() * t))
        np.fill_diagonal(s, 0.0)
        return c, s

    def kraus(self, t: float) -> np.ndarray:
        """The dense (N, N, N) Kraus stack K_a expanded from ``kraus_factors``."""
        c, s = self.kraus_factors(t)
        rng_n = np.arange(self.dim)
        k = c[:, :, None] * np.eye(self.dim)
        k[rng_n, :, rng_n] += s.T
        return k / np.sqrt(self.dim)

    def channel_map(self, t: float):
        """The channel step at time t as a function x -> sum_a K_a x K_a†.

        One ``kraus_factors`` call; see ``_kraus_map`` for the returned map.
        """
        return _kraus_map(*self.kraus_factors(t))


def _kraus_map(c: np.ndarray, s: np.ndarray):
    """x -> sum_a K_a x K_a† for the factors (C, S) of ``BlockPlan.kraus_factors``.

    The factors' products (C^T, C̄, C^T C̄, S, S^H) are built once here; each
    call of the returned function then expands the diagonal-plus-column
    Kraus operators into four terms,
    ((C^T C̄) o x + (C^T o x) S^H + S (C̄ o x) + S diag(x) S^H) / N,
    over the last two axes of x in O(N^3) per matrix. Leading axes of x are
    batch axes.
    """
    ct, cbar, sh, n = c.T, c.conj(), s.conj().T, c.shape[0]
    ctc = ct @ cbar

    def apply(x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        out = ctc * x + (ct * x) @ sh + s @ (cbar * x)
        out += (s * np.diagonal(x, axis1=-2, axis2=-1)[..., None, :]) @ sh
        return out / n

    return apply


class ModifiedSwapOperator:
    """Doubled-space view of a Hermitian oracle, applied only implicitly."""

    def __init__(self, oracle: MatrixOracle):
        self.oracle = oracle
        self.dim = oracle.dim

    def build_plan(self) -> BlockPlan:
        """One counted ``read_hermitian`` sweep over the diagonal and upper triangle."""
        return BlockPlan(read_hermitian(self.oracle))

    def apply_exp(self, t: float, psi) -> np.ndarray:
        """exp(-i t op) psi on the N^2-dimensional doubled space."""
        psi = require_state(psi, self.dim * self.dim)
        return self.build_plan().apply(psi, t)

    def controlled_apply_exp(self, t: float, psi) -> np.ndarray:
        """exp(-i t |1><1| (x) op) on a control qubit tensor the doubled space.

        The first N^2 amplitudes (control 0) pass through unchanged.
        """
        nn = self.dim * self.dim
        out = require_state(psi, 2 * nn)
        out[nn:] = self.build_plan().apply(out[nn:], t)
        return out

    def spectrum(self) -> np.ndarray:
        """All N^2 eigenvalues, ascending, in closed form.

        They are the diagonal values A[j,j] plus the pairs +-|A[j,k]| for j < k.
        """
        a = self.build_plan().a
        pairs = np.abs(a[np.triu_indices(self.dim, 1)])
        return np.sort(np.concatenate([a.diagonal().real, pairs, -pairs]))

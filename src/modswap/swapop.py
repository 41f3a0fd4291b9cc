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

One ``build_plan`` call performs one counted oracle sweep (N(N+1)/2 queries,
the lower triangle coming from Hermitian symmetry) and can then be applied
to any number of vectors or density-matrix columns at any time value.

The same block data gives the uniform-ancilla channel step in closed form:
each Kraus operator is a diagonal plus one column (``kraus_factors``), so
``channel`` applies the whole Kraus sum with a few N x N products and never
forms the N^2 x N^2 joint state; ``channel_map`` builds those factors once
for a fixed time, to be applied to many states. ``conjugate`` and the dense
``kraus`` stack remain as references.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .oracle import MatrixOracle

DIAG_IMAG_TOL = 1e-10


@dataclass
class BlockPlan:
    """One oracle sweep's worth of block data, reusable across time values."""

    dim: int
    diag_index: np.ndarray
    diag_value: np.ndarray
    row_kj: np.ndarray
    row_jk: np.ndarray
    offdiag: np.ndarray

    def apply(self, x, t: float, axis: int = 0) -> np.ndarray:
        """Apply exp(-i t op) along one axis of x (length N^2)."""
        x = np.asarray(x, dtype=np.complex128)
        nn = self.dim * self.dim
        if x.shape[axis] != nn:
            raise ValueError(
                f"axis {axis} has length {x.shape[axis]}, expected {nn}"
            )
        moved = np.moveaxis(x, axis, 0)
        out = moved.copy()
        tail = (1,) * (moved.ndim - 1)

        phase = np.exp(-1j * self.diag_value * t).reshape((-1,) + tail)
        out[self.diag_index] = moved[self.diag_index] * phase

        if self.offdiag.size:
            mag = np.abs(self.offdiag)
            unit = np.where(mag > 0, self.offdiag / np.where(mag > 0, mag, 1.0), 1.0)
            c = np.cos(mag * t).reshape((-1,) + tail)
            s = np.sin(mag * t).reshape((-1,) + tail)
            u = unit.reshape((-1,) + tail)
            hi = moved[self.row_kj]
            lo = moved[self.row_jk]
            out[self.row_kj] = c * hi - 1j * u * s * lo
            out[self.row_jk] = -1j * np.conj(u) * s * hi + c * lo
        return np.moveaxis(out, 0, axis)

    def conjugate(self, joint: np.ndarray, t: float) -> np.ndarray:
        """U J U† for the doubled-space density J, reusing this plan's sweep."""
        left = self.apply(joint, t, axis=0)
        return self.apply(left.conj().T, t, axis=0).conj().T

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
        n = self.dim
        c = np.diag(np.exp(-1j * self.diag_value * t))
        s = np.zeros((n, n), dtype=np.complex128)
        if self.offdiag.size:
            j_idx = self.row_kj % n
            k_idx = self.row_kj // n
            mag = np.abs(self.offdiag)
            unit = np.where(mag > 0, self.offdiag / np.where(mag > 0, mag, 1.0), 1.0)
            sin = np.sin(mag * t)
            c[j_idx, k_idx] = c[k_idx, j_idx] = np.cos(mag * t)
            s[j_idx, k_idx] = -1j * unit * sin
            s[k_idx, j_idx] = -1j * np.conj(unit) * sin
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

        The factors and their products (C^T, C̄, C^T C̄, S, S^H) are built
        once here; each call of the returned function then expands the
        diagonal-plus-column Kraus operators into four terms,
        ((C^T C̄) o x + (C^T o x) S^H + S (C̄ o x) + S diag(x) S^H) / N,
        over the last two axes of x in O(N^3) per matrix. Leading axes of x
        are batch axes.
        """
        c, s = self.kraus_factors(t)
        ct, cbar, sh, n = c.T, c.conj(), s.conj().T, self.dim
        ctc = ct @ cbar

        def apply(x) -> np.ndarray:
            x = np.asarray(x, dtype=np.complex128)
            out = ctc * x + (ct * x) @ sh + s @ (cbar * x)
            out += (s * np.diagonal(x, axis1=-2, axis2=-1)[..., None, :]) @ sh
            return out / n

        return apply

    def channel(self, x, t: float) -> np.ndarray:
        """sum_a K_a x K_a† over the last two axes of x (see ``channel_map``)."""
        return self.channel_map(t)(x)


@dataclass(frozen=True)
class SwapSpectrum:
    """Doubled-space spectrum: N diagonal values plus +-|A[j,k]| sign pairs."""

    diagonal_values: np.ndarray
    pair_values: np.ndarray

    def multiset(self) -> np.ndarray:
        """All N^2 eigenvalues, ascending."""
        vals = np.concatenate(
            [self.diagonal_values, self.pair_values, -self.pair_values]
        )
        return np.sort(vals)

    @property
    def max_abs(self) -> float:
        """Largest |eigenvalue|; equals the max-element norm of the source."""
        cands = [np.max(np.abs(self.diagonal_values))] if self.diagonal_values.size else []
        if self.pair_values.size:
            cands.append(np.max(self.pair_values))
        return float(max(cands)) if cands else 0.0


class ModifiedSwapOperator:
    """Doubled-space view of a Hermitian oracle, applied only implicitly."""

    def __init__(self, oracle: MatrixOracle):
        self.oracle = oracle
        self.dim = oracle.dim

    def build_plan(self) -> BlockPlan:
        """One counted oracle sweep over the diagonal and upper triangle."""
        n = self.dim
        rows, cols, values = self.oracle.read_upper_triangle()
        on_diag = rows == cols
        diag = values[on_diag]
        bad = np.abs(diag.imag) > DIAG_IMAG_TOL * np.maximum(1.0, np.abs(diag))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"non-Hermitian source: diagonal ({i},{i}) = {complex(diag[i])}")
        off = ~on_diag
        j, k = rows[off], cols[off]
        return BlockPlan(
            dim=n,
            diag_index=np.arange(n) * (n + 1),
            diag_value=diag.real.copy(),
            row_kj=k * n + j,
            row_jk=j * n + k,
            offdiag=values[off],
        )

    def apply_exp(self, t: float, psi) -> np.ndarray:
        """exp(-i t op) psi on the N^2-dimensional doubled space."""
        psi = np.asarray(psi, dtype=np.complex128)
        nn = self.dim * self.dim
        if psi.shape != (nn,):
            raise ValueError(f"state has shape {psi.shape}, expected ({nn},)")
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > 1e-9:
            warnings.warn(f"input state norm {nrm:.6g} != 1; proceeding", stacklevel=2)
        return self.build_plan().apply(psi, t)

    def controlled_apply_exp(self, t: float, psi) -> np.ndarray:
        """exp(-i t |1><1| (x) op) on a control qubit tensor the doubled space.

        The first N^2 amplitudes (control 0) pass through unchanged.
        """
        psi = np.asarray(psi, dtype=np.complex128)
        nn = self.dim * self.dim
        if psi.shape != (2 * nn,):
            raise ValueError(f"state has shape {psi.shape}, expected ({2 * nn},)")
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > 1e-9:
            warnings.warn(f"input state norm {nrm:.6g} != 1; proceeding", stacklevel=2)
        out = psi.copy()
        out[nn:] = self.build_plan().apply(psi[nn:], t)
        return out

    def spectrum(self) -> SwapSpectrum:
        """Closed-form eigenvalues: {A[j,j]} plus +-|A[j,k]| for j < k."""
        plan = self.build_plan()
        return SwapSpectrum(
            diagonal_values=plan.diag_value.copy(),
            pair_values=np.abs(plan.offdiag),
        )

    def square_diagonal(self) -> np.ndarray:
        """Diagonal of the squared operator: |A[j,k]|^2 at index k*N + j."""
        plan = self.build_plan()
        n = self.dim
        d = np.zeros(n * n)
        d[plan.diag_index] = plan.diag_value**2
        mags2 = np.abs(plan.offdiag) ** 2
        d[plan.row_kj] = mags2
        d[plan.row_jk] = mags2
        return d

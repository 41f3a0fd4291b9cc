"""Repeated-ancilla evolution channel and its error accounting.

One step sends sigma to the partial trace (over a fresh uniform-superposition
ancilla) of the doubled-space conjugation by exp(-i op dt). To second order
in dt this reproduces conjugation of sigma by exp(-i (A/N) dt); iterating n
forward-Euler steps of size t/n approximates the full evolution, with the
per-step trace-norm error bounded by 2 * max_norm(A)^2 * dt^2. That bound
fixes the concrete step count n = ceil(2 * max_norm^2 * t^2 / epsilon) for a
total error budget epsilon.

In the modelled protocol each step performs one counted oracle sweep
(N(N+1)/2 queries) and consumes a new ancilla copy; nothing is carried over
between steps. Every step of one run applies the same linear map, so the
simulator reads the source once per run, charges the run's other sweeps as
modelled ones (``MatrixOracle.charge_sweeps``), builds the Kraus factors and
the baseline's eigendecomposition once, and then loops over the state only.
All error metrics are nuclear (trace) norms against the exact unitary
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_matrix,
    hermitize,
    hermiticity_residual,
    nuclear_norm,
    require_hermitian,
    unitary_from_eigh,
)
from .oracle import MatrixOracle, read_hermitian
from .swapop import BlockPlan, ModifiedSwapOperator


def uniform_density(n: int) -> np.ndarray:
    """Projector onto the uniform superposition: every entry 1/n."""
    return np.full((n, n), 1.0 / n, dtype=np.complex128)


def require_density(rho, trace_tol: float = 1e-12, psd_tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density matrix."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    scale = max(1.0, float(np.max(np.abs(rho))))
    if hermiticity_residual(rho) > 1e-12 * scale:
        raise ValueError("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} != 1")
    wmin = float(np.min(np.linalg.eigvalsh(hermitize(rho))))
    if wmin < -psd_tol:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return rho


def pure_density(psi) -> np.ndarray:
    """|psi><psi| for a (normalized) state vector."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def first_order_generator(oracle: MatrixOracle, sigma) -> np.ndarray:
    """(A/N) sigma via the partial-trace contraction with the uniform ancilla.

    The contraction sums A[j,k] <j|rho|k> |j><k| sigma; with the uniform
    ancilla every <j|rho|k> is 1/N, so the result equals (A/N) @ sigma.
    """
    sigma = as_matrix(sigma)
    n = oracle.dim
    if sigma.shape != (n, n):
        raise ValueError(f"state dim {sigma.shape} != oracle dim {n}")
    a = read_hermitian(oracle)
    return (a * uniform_density(n)) @ sigma


def channel_step(oracle: MatrixOracle, sigma, delta_t: float,
                 validate: bool = True) -> np.ndarray:
    """One ancilla-assisted step: trace out register 1 of U (rho (x) sigma) U†.

    The step is applied as the Kraus sum of ``BlockPlan.channel`` (a few
    N x N products, O(N^2) memory); the N^2 x N^2 joint state is never
    formed. delta_t may be negative (time reversal). Output is hermitized to
    remove floating-point asymmetry; trace and positivity are preserved by
    construction.
    """
    sigma = require_density(sigma) if validate else as_matrix(sigma)
    return hermitize(_read_once(oracle, sigma, 1).channel(sigma, delta_t))


def _read_once(oracle: MatrixOracle, sigma: np.ndarray, sweeps: int) -> BlockPlan:
    """Check the state's shape, then read the plan for a run of ``sweeps`` steps.

    Every modelled sweep of the run reads the same matrix, so one counted
    sweep is made and the other ``sweeps - 1`` are charged.
    """
    n = oracle.dim
    if sigma.shape != (n, n):
        raise ValueError(f"state dim {sigma.shape} != oracle dim {n}")
    plan = ModifiedSwapOperator(oracle).build_plan()
    oracle.charge_sweeps(sweeps - 1)
    return plan


def _check_budget(t: float, epsilon: float) -> None:
    if not (math.isfinite(t) and math.isfinite(epsilon)):
        raise ValueError("time and epsilon must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class EvolutionConfig:
    """Step plan for a total time t under a nuclear-norm error budget."""

    t: float
    epsilon: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("step count must be >= 1")
        _check_budget(self.t, self.epsilon)

    @property
    def delta_t(self) -> float:
        return self.t / self.n

    @classmethod
    def plan(cls, max_norm: float, t: float, epsilon: float,
             steps: int | None = None) -> "EvolutionConfig":
        """n = ceil(2 * max_norm^2 * t^2 / epsilon) unless overridden."""
        _check_budget(t, epsilon)
        if steps is None:
            steps = max(1, math.ceil(2.0 * max_norm**2 * t**2 / epsilon))
        return cls(t=float(t), epsilon=float(epsilon), n=int(steps))


@dataclass(frozen=True)
class ErrorReport:
    """Measured vs bounded nuclear-norm errors for one evolution run."""

    per_step_bound: float
    measured_step_error: float
    total_measured: float
    total_bound: float


def evolve(oracle: MatrixOracle, sigma, config: EvolutionConfig, baseline=None):
    """Run n channel steps and compare against the exact unitary baseline.

    Returns (final density matrix, ErrorReport). measured_step_error is the
    largest single-step deviation encountered along the chain. baseline is
    the oracle's uncounted dense matrix when the caller already holds it;
    otherwise it is materialized here. The run makes one counted sweep and
    charges the other n - 1; the step map and the baseline unitaries come
    from one Kraus factorisation and one ``eigh``.
    """
    sigma = require_density(sigma)
    if baseline is None:
        baseline = oracle.materialize()
    a = hermitize(require_hermitian(baseline))
    a_max = float(np.max(np.abs(a)))
    dt = config.delta_t
    per_step_bound = 2.0 * a_max**2 * dt**2

    step = _read_once(oracle, sigma, config.n).channel_map(dt)
    w, v = np.linalg.eigh(hermitize(a))
    u_dt = unitary_from_eigh(w, v, dt)
    u_dt_h = u_dt.conj().T
    cur = sigma
    worst_step = 0.0
    for _ in range(config.n):
        nxt = hermitize(step(cur))
        step_err = nuclear_norm(nxt - u_dt @ cur @ u_dt_h)
        worst_step = max(worst_step, step_err)
        cur = nxt

    u_t = unitary_from_eigh(w, v, config.t)
    total = nuclear_norm(cur - u_t @ sigma @ u_t.conj().T)
    report = ErrorReport(
        per_step_bound=per_step_bound,
        measured_step_error=worst_step,
        total_measured=total,
        total_bound=config.n * per_step_bound,
    )
    return cur, report


@dataclass(frozen=True)
class SweepRow:
    delta_t: float
    measured_error: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.measured_error / self.bound if self.bound else float("nan")


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    slope: float


def error_sweep(oracle: MatrixOracle, sigma, delta_ts) -> SweepResult:
    """Single-step error vs dt, with the log-log convergence slope.

    delta_ts must be finite, positive and strictly descending, and the matrix
    must be nonzero: a zero matrix makes every bound 2 * max_norm^2 * dt^2
    zero. One counted sweep serves every dt; the other sweeps are charged.
    """
    dts = [float(d) for d in delta_ts]
    if not all(math.isfinite(d) for d in dts):
        raise ValueError("delta_t values must be finite")
    if not dts or any(d <= 0 for d in dts):
        raise ValueError("delta_t values must be positive")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("delta_t values must be strictly descending")
    sigma = require_density(sigma)
    a = hermitize(require_hermitian(oracle.materialize()))
    a_max = float(np.max(np.abs(a)))
    if a_max == 0.0:
        raise ValueError("error sweep needs a nonzero matrix; every bound would be 0")

    plan = _read_once(oracle, sigma, len(dts))
    w, v = np.linalg.eigh(hermitize(a))
    rows = []
    for dt in dts:
        u = unitary_from_eigh(w, v, dt)
        measured = nuclear_norm(
            hermitize(plan.channel(sigma, dt)) - u @ sigma @ u.conj().T
        )
        rows.append(SweepRow(delta_t=dt, measured_error=measured,
                             bound=2.0 * a_max**2 * dt**2))
    xs = np.log([r.delta_t for r in rows])
    ys = np.log([max(r.measured_error, 1e-300) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) >= 2 else float("nan")
    return SweepResult(rows=rows, slope=slope)


def effective_rank(a, t: float) -> int:
    """Number of eigenvalues of A/N at least 1/t in magnitude (reported only)."""
    a = as_matrix(a)
    if t <= 0:
        return 0
    w = np.linalg.eigvalsh(hermitize(a)) / a.shape[0]
    return int(np.sum(np.abs(w) >= 1.0 / t))

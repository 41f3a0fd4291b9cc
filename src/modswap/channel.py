"""Repeated-ancilla evolution channel and its error accounting.

One step sends sigma to the partial trace (over a fresh uniform-superposition
ancilla) of the doubled-space conjugation by exp(-i op dt). To second order
in dt this reproduces conjugation of sigma by exp(-i (A/N) dt); iterating n
forward-Euler steps of size t/n approximates the full evolution, with the
per-step trace-norm error bounded by 2 * max_norm(A)^2 * dt^2. That bound
fixes the concrete step count n = ceil(2 * max_norm^2 * t^2 / epsilon) for a
total error budget epsilon. ``plan_steps`` is the one place that computes
that count, for ``evolve`` and for every trotter ``qpe`` stage; a count or
bound past the float range raises ``ValueError`` there, before any query.

In the modelled protocol each step performs one counted oracle sweep
(N(N+1)/2 queries) and consumes a new ancilla copy; nothing is carried over
between steps. Every step of one run applies the same linear map, so an
``evolve`` or ``error_sweep`` run gates the uncounted baseline once, reads
the source once through the gated ``oracle.read_hermitian`` and charges its
other sweeps as modelled ones
(``MatrixOracle.charge_sweeps``), builds the Kraus factors and the
baseline's one eigendecomposition, and then loops over the state only.
All error metrics are nuclear (trace) norms against the exact unitary
baseline. The steps run one after another, but their errors are measured
in batches: ``evolve`` computes each state in place after its predecessor
in one buffer of ``_chunk(N) + 1`` consecutive states (``_chunk(N)`` is
``ERROR_BUFFER_BYTES`` of them, 64 KB, and never less than one), and each
filled buffer gets one stacked baseline product and one ungated
``linalg.trace_norms`` call. ``error_sweep`` stacks its dts the same way.
Memory does not grow with the step count. Every entry checks its density
with ``require_density(sigma, N)`` before any query.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    as_matrix,
    hermitize,
    is_hermitian,
    nuclear_norm,
    require_hermitian,
    require_state,
    trace_norms,
    unitary_from_eigh,
)
from .oracle import MatrixOracle
from .swapop import BlockPlan, ModifiedSwapOperator

TRACE_TOL = 1e-12
PSD_TOL = 1e-10
MAX_STEPS = 10**6  # largest step count evolve loops over, checked before any query
ERROR_BUFFER_BYTES = 2**16  # per buffer of states whose step errors are measured together


def require_density(rho, n: int) -> np.ndarray:
    """The one density check: shape n x n, Hermitian, trace 1 (TRACE_TOL), PSD (PSD_TOL)."""
    rho = as_matrix(rho)
    if rho.shape != (n, n):
        raise ValueError(f"state dim {rho.shape} != oracle dim {n}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} != 1")
    wmin = float(np.min(np.linalg.eigvalsh(hermitize(rho))))
    if wmin < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return rho


def pure_density(psi) -> np.ndarray:
    """|psi><psi| for a psi of any length that passes ``linalg.require_state``."""
    psi = require_state(psi, np.size(psi))
    return np.outer(psi, psi.conj())


def channel_step(oracle: MatrixOracle, sigma, delta_t: float) -> np.ndarray:
    """One ancilla-assisted step: trace out register 1 of U (rho (x) sigma) U†.

    The step is applied as the Kraus sum of ``BlockPlan.channel_map`` (a few
    N x N products, O(N^2) memory); the N^2 x N^2 joint state is never
    formed. delta_t may be negative (time reversal). Output is hermitized to
    remove floating-point asymmetry; trace and positivity are preserved by
    construction. sigma passes ``require_density`` and the source the gate
    of ``oracle.read_hermitian`` before the step's sweep.
    """
    sigma = require_density(sigma, oracle.dim)
    return hermitize(_read_once(oracle, 1).channel_map(delta_t)(sigma))


def _gate(oracle: MatrixOracle, sigma):
    """Check the state, then gate the uncounted baseline: (sigma, A, max_norm)."""
    sigma = require_density(sigma, oracle.dim)
    a = require_hermitian(oracle.materialize())
    return sigma, a, float(np.max(np.abs(a)))


def _read_once(oracle: MatrixOracle, sweeps: int) -> BlockPlan:
    """The plan for a run of ``sweeps`` steps, which all read the same matrix.

    One counted sweep is made and the other ``sweeps - 1`` are charged.
    """
    plan = ModifiedSwapOperator(oracle).build_plan()
    oracle.charge_sweeps(sweeps - 1)
    return plan


def _chunk(n: int) -> int:
    """Matrices per error buffer: ERROR_BUFFER_BYTES of complex N x N, at least one."""
    return max(1, ERROR_BUFFER_BYTES // (16 * n * n))


def _step_bound(max_norm: float, dt: float) -> float:
    """Per-step trace-norm bound 2 * max_norm^2 * dt^2, refused if it overflows."""
    try:
        bound = 2.0 * max_norm**2 * dt**2
    except OverflowError:  # a square past the float range
        bound = math.inf
    if bound == math.inf:
        raise ValueError(f"per-step bound 2 * max_norm^2 * dt^2 overflows at dt = {dt:.3g}")
    return bound


def plan_steps(max_norm: float, t: float, epsilon: float, steps: int | None = None):
    """(n, dt, per-step bound) for time t under a nuclear-norm budget epsilon.

    n = ceil(2 * max_norm^2 * t^2 / epsilon) unless ``steps`` gives it, and
    dt = t / n. A count or bound past the float range raises ``ValueError``.
    """
    if not (math.isfinite(t) and math.isfinite(epsilon)):
        raise ValueError("time and epsilon must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if steps is not None:
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise ValueError(f"step count must be an integer, not {steps!r}")
        if steps < 1:
            raise ValueError("step count must be >= 1")
    try:
        n = steps if steps is not None else max(1, math.ceil(2.0 * max_norm**2 * t**2 / epsilon))
        dt = t / n
    except OverflowError:
        raise ValueError(f"step count overflows a float at t = {t:.3g}, "
                         f"epsilon = {epsilon:.3g}") from None
    return n, dt, _step_bound(max_norm, dt)


class ErrorReport(NamedTuple):
    """Step plan, measured vs bounded nuclear-norm errors and effective rank of one run.

    effective_rank counts the eigenvalues of A/N at least 1/|t| in magnitude
    (0 for t = 0).
    """

    steps: int
    delta_t: float
    per_step_bound: float
    measured_step_error: float
    total_measured: float
    total_bound: float
    effective_rank: int


def evolve(oracle: MatrixOracle, sigma, t: float, epsilon: float, steps: int | None = None):
    """Run the planned channel steps and compare against the exact unitary baseline.

    Returns (final density matrix, ErrorReport). measured_step_error is the
    largest single-step deviation encountered along the chain. The run
    gates the oracle's uncounted dense matrix once (``require_hermitian``),
    plans its steps from that matrix's max_norm (``plan_steps``; ``steps``
    overrides the count), refuses more than ``MAX_STEPS`` of them, since the
    loop runs once per step, and then makes one counted sweep and charges
    the other n - 1. The step map comes from one Kraus factorisation, and
    the baseline unitaries and the effective rank from one ``eigh``. One
    buffer holds ``_chunk(N) + 1`` consecutive states, each computed in
    place from the one before; a filled buffer (or the last, partial one)
    is measured with one stacked product u_dt·buf[:k]·u_dt† against
    buf[1:k+1] and one ``trace_norms`` call, bit for bit the errors of one
    ``nuclear_norm`` call per step, and its last state starts the next one.
    """
    sigma, a, a_max = _gate(oracle, sigma)
    n, dt, per_step_bound = plan_steps(a_max, t, epsilon, steps)
    if n > MAX_STEPS:
        raise ValueError(f"{n:.3g} steps exceed MAX_STEPS = {MAX_STEPS}; "
                         f"raise epsilon or shorten the time")

    step = _read_once(oracle, n).channel_map(dt)
    w, v = np.linalg.eigh(a)
    u_dt = unitary_from_eigh(w, v, dt)
    u_dt_h = u_dt.conj().T
    chunk = min(n, _chunk(a.shape[0]))
    buf = np.empty((chunk + 1, *a.shape), dtype=np.complex128)
    buf[0] = sigma
    worst_step = 0.0
    for done in range(0, n, chunk):
        k = min(chunk, n - done)
        for j in range(k):
            buf[j + 1] = hermitize(step(buf[j]))
        errs = trace_norms(buf[1:k + 1] - u_dt @ buf[:k] @ u_dt_h)
        worst_step = max(worst_step, float(errs.max()))
        buf[0] = buf[k]
    cur = buf[0]

    u_t = unitary_from_eigh(w, v, t)
    total = nuclear_norm(cur - u_t @ sigma @ u_t.conj().T)
    report = ErrorReport(
        steps=n,
        delta_t=dt,
        per_step_bound=per_step_bound,
        measured_step_error=worst_step,
        total_measured=total,
        total_bound=n * per_step_bound,
        effective_rank=int(np.sum(np.abs(w / a.shape[0]) >= 1.0 / abs(t))) if t else 0,
    )
    return cur, report


class SweepRow(NamedTuple):
    delta_t: float
    measured_error: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.measured_error / self.bound if self.bound else float("nan")


class SweepResult(NamedTuple):
    rows: list[SweepRow]
    slope: float


def error_sweep(oracle: MatrixOracle, sigma, delta_ts) -> SweepResult:
    """Single-step error vs dt, with the log-log convergence slope.

    delta_ts must be finite, positive and strictly descending, and the matrix
    must be nonzero: a zero matrix makes every bound 2 * max_norm^2 * dt^2
    zero. One counted sweep serves every dt; the other sweeps are charged.
    The dts are stacked ``_chunk(N)`` at a time: one stacked product
    u·sigma·u† and one ``trace_norms`` call per stack, bit for bit the
    errors of one ``nuclear_norm`` call per dt.
    """
    dts = [float(d) for d in delta_ts]
    if not all(math.isfinite(d) for d in dts):
        raise ValueError("delta_t values must be finite")
    if not dts or any(d <= 0 for d in dts):
        raise ValueError("delta_t values must be positive")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("delta_t values must be strictly descending")
    sigma, a, a_max = _gate(oracle, sigma)
    if a_max == 0.0:
        raise ValueError("error sweep needs a nonzero matrix; every bound would be 0")
    bounds = [_step_bound(a_max, dt) for dt in dts]

    plan = _read_once(oracle, len(dts))
    w, v = np.linalg.eigh(a)
    chunk = _chunk(a.shape[0])
    measured = []
    for done in range(0, len(dts), chunk):
        part = dts[done:done + chunk]
        u = np.stack([unitary_from_eigh(w, v, dt) for dt in part])
        after = np.stack([hermitize(plan.channel_map(dt)(sigma)) for dt in part])
        measured += trace_norms(after - u @ sigma @ u.conj().swapaxes(-1, -2)).tolist()
    rows = [SweepRow(delta_t=dt, measured_error=err, bound=bound)
            for dt, err, bound in zip(dts, measured, bounds)]
    xs = np.log([r.delta_t for r in rows])
    ys = np.log([max(r.measured_error, 1e-300) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) >= 2 else float("nan")
    return SweepResult(rows=rows, slope=slope)


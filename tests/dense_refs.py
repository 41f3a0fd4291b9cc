"""Independent dense reference implementations for the test suite.

These deliberately avoid the package's implicit/blockwise code paths:
operators are materialized entry by entry and exponentiated with scipy, so
they serve as independent oracles for the fast implementations. Dense
doubled-space materialization is restricted to N <= 6.

``channel_via_joint`` and ``controlled_kraus_step`` are the exception: they
are the joint-state channel step and the per-step Kraus-stack trotter step
that the closed-form ``BlockPlan.channel`` replaced, kept as differential
references on top of a ``BlockPlan``. ``plan_by_queries`` is the
per-element ``query`` loop that ``build_plan`` replaced with one counted
triangle read. ``evolve_by_steps`` and ``sweep_by_steps`` are the per-step
loops (one counted sweep, one Kraus factorisation and one ``eigh`` per step)
that ``evolve`` and ``error_sweep`` replaced with one of each per run.
``decode_register_scalar`` and ``extract_estimates_by_loop`` are the
per-register Python loops that the array decode and peak scan replaced.
"""

import math

import numpy as np
from scipy.linalg import expm

from modswap.channel import ErrorReport, SweepResult, SweepRow, channel_step, require_density
from modswap.linalg import exact_evolution, hermitize, nuclear_norm, require_hermitian
from modswap.qpe import EigenEstimate


def dense_swap(a: np.ndarray) -> np.ndarray:
    """Materialize the doubled-space operator: column (j,k) -> row (k,j)."""
    n = a.shape[0]
    assert n <= 6, "dense doubled-space materialization is for small tests only"
    s = np.zeros((n * n, n * n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            s[k * n + j, j * n + k] = a[j, k]
    return s


def dense_exp_swap(a: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * dense_swap(a) * t)


def dense_channel_step(a: np.ndarray, sigma: np.ndarray, dt: float) -> np.ndarray:
    """Full-space conjugation plus partial trace, all dense."""
    n = a.shape[0]
    rho = np.full((n, n), 1.0 / n, dtype=np.complex128)
    u = dense_exp_swap(a, dt)
    joint = u @ np.kron(rho, sigma) @ u.conj().T
    return np.einsum("pqpr->qr", joint.reshape(n, n, n, n))


def plan_by_queries(oracle):
    """BlockPlan fields from one ``query`` call per diagonal and upper entry.

    Returns (diag_index, diag_value, row_kj, row_jk, offdiag).
    """
    n = oracle.dim
    diag_value = np.array([oracle.query(j, j).real for j in range(n)])
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    return (
        np.arange(n) * n + np.arange(n),
        diag_value,
        np.array([k * n + j for j, k in pairs], dtype=np.intp),
        np.array([j * n + k for j, k in pairs], dtype=np.intp),
        np.array([oracle.query(j, k) for j, k in pairs], dtype=np.complex128),
    )


def channel_via_joint(plan, sigma: np.ndarray, t: float) -> np.ndarray:
    """Channel step through the N^2 x N^2 joint state uniform (x) sigma.

    Conjugates by the doubled-space exponential with ``plan.conjugate`` and
    traces out the ancilla (first) factor.
    """
    n = plan.dim
    joint = np.kron(np.full((n, n), 1.0 / n, dtype=np.complex128), sigma)
    return np.einsum("pqpr->qr", plan.conjugate(joint, t).reshape(n, n, n, n))


def controlled_kraus_step(plan, dens4: np.ndarray, on_mask: np.ndarray,
                          dt: float) -> np.ndarray:
    """One control-conditioned channel step on a (2^b, N, 2^b, N) density.

    Control-off register rows see the identity channel, which fits the same
    Kraus sum with K_a replaced by I/sqrt(N); a register-indexed dense Kraus
    stack advances the whole register x system density.
    """
    n = plan.dim
    size = dens4.shape[0]
    kraus = plan.kraus(dt)
    idle = np.eye(n, dtype=np.complex128) / math.sqrt(n)
    stack = np.where(on_mask[None, :, None, None], kraus[:, None], idle[None, None])
    # half[a,m,s,(q,u)] = sum_t stack[a,m,s,t] dens4[m,t,q,u]
    half = stack @ dens4.reshape(size, n, size * n)
    # out[m,s,q,v] = sum_{a,u} half[a,m,s,q,u] conj(stack[a,q,v,u])
    half_t = half.reshape(n, size, n, size, n).transpose(0, 3, 1, 2, 4)
    prod = half_t.reshape(n, size, size * n, n) @ stack.conj().transpose(0, 1, 3, 2)
    return prod.sum(axis=0).reshape(size, size, n, n).transpose(1, 2, 0, 3)


def evolve_by_steps(oracle, sigma, config, baseline=None):
    """``evolve`` as n calls of ``channel_step`` and ``exact_evolution``."""
    sigma = require_density(sigma)
    if baseline is None:
        baseline = oracle.materialize()
    a = hermitize(require_hermitian(baseline))
    a_max = float(np.max(np.abs(a)))
    dt = config.delta_t
    per_step_bound = 2.0 * a_max**2 * dt**2

    cur = sigma
    worst_step = 0.0
    for _ in range(config.n):
        nxt = channel_step(oracle, cur, dt, validate=False)
        step_err = nuclear_norm(nxt - exact_evolution(a, dt, cur))
        worst_step = max(worst_step, step_err)
        cur = nxt

    total = nuclear_norm(cur - exact_evolution(a, config.t, sigma))
    return cur, ErrorReport(
        per_step_bound=per_step_bound,
        measured_step_error=worst_step,
        total_measured=total,
        total_bound=config.n * per_step_bound,
    )


def sweep_by_steps(oracle, sigma, delta_ts):
    """``error_sweep`` as one ``channel_step`` and ``exact_evolution`` per dt.

    Input checks are left to the caller.
    """
    sigma = require_density(sigma)
    a = hermitize(require_hermitian(oracle.materialize()))
    a_max = float(np.max(np.abs(a)))
    rows = []
    for dt in (float(d) for d in delta_ts):
        measured = nuclear_norm(
            channel_step(oracle, sigma, dt, validate=False)
            - exact_evolution(a, dt, sigma)
        )
        rows.append(SweepRow(delta_t=dt, measured_error=measured,
                             bound=2.0 * a_max**2 * dt**2))
    xs = np.log([r.delta_t for r in rows])
    ys = np.log([max(r.measured_error, 1e-300) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) >= 2 else float("nan")
    return SweepResult(rows=rows, slope=slope)


def decode_register_scalar(m: int, bits: int, t0: float) -> float:
    """One register value decoded with Python scalars (two's complement)."""
    size = 1 << bits
    if not 0 <= m < size:
        raise ValueError(f"register value {m} outside [0, {size})")
    phase = m / size
    if phase >= 0.5:
        phase -= 1.0
    return phase * 2.0 * math.pi / t0


def extract_estimates_by_loop(distribution, bits: int, t0: float,
                              min_weight: float, threshold: float):
    """Cyclic local maxima found by one Python test per register value."""
    p = np.asarray(distribution, dtype=float)
    size = p.shape[0]
    half = size // 2
    peaks = []
    for y in range(size):
        if p[y] < min_weight:
            continue
        if p[y] >= p[(y - 1) % size] and p[y] >= p[(y + 1) % size]:
            value = decode_register_scalar(y, bits, t0)
            if abs(value) < threshold:
                continue
            peaks.append(EigenEstimate(
                register_value=y,
                value=value,
                weight=float(p[y]),
                sign=-1 if y >= half else 1,
            ))
    peaks.sort(key=lambda e: (-e.weight, e.register_value))
    return peaks


def hadamard(bits: int) -> np.ndarray:
    """Unnormalized H^(x)bits, the Kronecker power of [[1, 1], [1, -1]]."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return h


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def trace_norm(x: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))

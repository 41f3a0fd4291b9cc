"""Simulated phase estimation over the controlled scaled evolution.

The register convention is two's complement: a b-bit register value m
encodes the phase m / 2^b, values at or above 1/2 wrap to negative, and the
decoded eigenvalue of the scaled generator (eigenvalues of A divided by the
dimension) is wrap(m / 2^b) * 2*pi / t0 for base evolution time t0. The
anti-aliasing requirement t0 * max_norm(A) <= pi keeps every phase inside
(-1/2, 1/2].

Two interchangeable backends:

* ``exact-unitary``: the controlled powers are computed from the classical
  eigendecomposition; exact up to register discretization. Costs one
  counted Hermitian oracle read (``oracle.read_hermitian``, which rejects a
  non-real diagonal); ``eigh`` takes that matrix as read. Eigenvector l
  leaves the register in state K[:, l], whose outcome law |K[y, l]|^2 is the
  Fejer kernel centred on lambda_l * t0; ``_register_mass`` gives that real
  2^bits x N mass matrix in closed form, with no FFT. By Parseval the
  register distribution is that matrix times |V^dagger psi|^2, so no
  register x system state is built. The mass matrix is capped by
  ``MAX_BYTES``.
* ``trotter-channel``: each controlled power is realized by repeated
  ancilla-assisted channel steps (fresh uniform ancilla per step, one
  counted oracle sweep per step). Every step reads the same matrix, so one
  real ``build_plan`` read, which also gives max_norm(A), serves the run,
  and the reported cost charges that sweep and every step
  (``MatrixOracle.charge_sweeps``). A stage is one matrix power of the
  channel's N^2 x N^2 transfer matrix over ``EvolutionConfig.plan``'s steps.
  The uniform register state and the Fourier phase factor over register
  bits, so the backend evolves one N x N operator per register frequency,
  from psi psi^dagger, and p(y) is its trace; no register x system density
  is built. ``MAX_BYTES`` caps 16 * (3 * 2^bits * N^2 + 2 * 2^bits + 6 * N^4)
  bytes: three stacks of those operators, the register phases, and the
  transfer matrix with its power.

``_branch_masses`` sums the same mass matrix over the sign-bit windows
decoded >= threshold and decoded <= -threshold; the svd and Procrustes
readouts both take their branches from it. ``joint_from_eig`` and
``invert_joint`` are the circuit itself, forward and inverse, with the
complex register kernel ``_register_kernel``; no pipeline calls them, and
they are the reference the closed form is tested against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import EvolutionConfig
from .oracle import MatrixOracle, read_hermitian
from .swapop import ModifiedSwapOperator, _kraus_map

PEAK_MIN_WEIGHT = 0.01
MAX_BYTES = 1 << 29  # largest array set either backend allocates, checked before any query


class _QPEConfig(NamedTuple):
    bits: int
    base_time: float | None = None
    backend: str = "exact-unitary"
    trotter_epsilon: float = 0.01


class QPEConfig(_QPEConfig):
    """Register size, base evolution time, backend, and channel budget.

    base_time None means "resolve at run time" to pi / max_norm scaled just
    under the aliasing bound. trotter_epsilon is the nuclear-norm error
    budget for each controlled power application on the trotter backend.
    Validated on construction, so also in ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.bits < 1:
            raise ValueError("register needs at least one bit")
        if self.backend not in ("exact-unitary", "trotter-channel"):
            raise ValueError(f"unknown backend '{self.backend}'")
        if self.base_time is not None and not (math.isfinite(self.base_time)
                                               and self.base_time > 0):
            raise ValueError("base_time must be positive and finite")
        if not math.isfinite(self.trotter_epsilon) or self.trotter_epsilon <= 0:
            raise ValueError("trotter_epsilon must be positive and finite")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def size(self) -> int:
        return 1 << self.bits


class EigenEstimate(NamedTuple):
    """One decoded register peak."""

    register_value: int
    value: float
    weight: float
    sign: int


class QPEResult(NamedTuple):
    distribution: np.ndarray
    estimates: list[EigenEstimate]
    backend: str
    bits: int
    base_time: float
    oracle_calls: int
    trotter_error_bound: float | None


def decode_register(m, bits: int, t0: float):
    """Signed eigenvalue estimate from a register value (two's complement).

    m is one register value (returns a float) or an integer array of them
    (returns a float array of the same shape).
    """
    size = 1 << bits
    ms = np.asarray(m)
    bad = ms[(ms < 0) | (ms >= size)]
    if bad.size:
        raise ValueError(f"register value {bad.flat[0]} outside [0, {size})")
    phase = ms / size
    phase = np.where(phase >= 0.5, phase - 1.0, phase) * 2.0 * math.pi / t0
    return float(phase) if phase.ndim == 0 else phase


def default_base_time(max_norm: float) -> float:
    """Largest aliasing-safe base time, just inside t0 * max_norm = pi."""
    if max_norm <= 0:
        return 1.0
    return math.pi / (max_norm * (1.0 + 1e-9))


def _check_aliasing(t0: float, max_norm: float) -> None:
    if t0 * max_norm > math.pi * (1.0 + 1e-9):
        raise ValueError(
            f"aliasing: t0 * max_norm = {t0 * max_norm:.6g} exceeds pi"
        )


def _base_time(config: QPEConfig, max_norm: float) -> float:
    """The configured base time, or the default one, checked against aliasing."""
    t0 = config.base_time if config.base_time is not None else default_base_time(max_norm)
    _check_aliasing(t0, max_norm)
    return t0


def _require_bytes(needed: int, what: str) -> None:
    if needed > MAX_BYTES:
        raise ValueError(f"{what} needs {needed} bytes (> {MAX_BYTES}); reduce bits or N")


def _read_spectrum(read, dim: int, config: QPEConfig):
    """One counted read of a dim x dim Hermitian matrix and its eigendecomposition.

    ``read`` is a zero-argument callable that makes the read. Returns (A,
    eigenvalues of A / dim, eigenvectors, base time t0). The register mass
    matrix that every exact readout builds, one 2^bits x dim float64 array
    at its peak, is checked against ``MAX_BYTES`` before the read. ``eigh``
    reads one triangle and the real part of the diagonal, so A needs no
    hermitizing.
    """
    _require_bytes(8 * config.size * dim, "exact backend register kernel mass")
    a = read()
    t0 = _base_time(config, float(np.max(np.abs(a))))
    w, v = np.linalg.eigh(a)
    return a, w / dim, v, t0


def _require_state(psi, n: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape != (n,):
        raise ValueError(f"state has dim {psi.shape[0]}, expected {n}")
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails the comparison
        raise ValueError(f"state norm {nrm:.6g} != 1")
    return psi / nrm


def _register_kernel(evals_over_n, bits: int, t0: float) -> np.ndarray:
    """K[y, l] = ifft_m(exp(-i m lambda_l t0)): register amplitude y of eigenvector l.

    The complex kernel of the circuit (``joint_from_eig``, ``invert_joint``);
    the readouts take its squared modulus from ``_register_mass`` instead.
    """
    powers = np.exp(-1j * np.outer(np.arange(1 << bits), np.asarray(evals_over_n)) * t0)
    return np.fft.ifft(powers, axis=0)


def _register_mass(evals_over_n, bits: int, t0: float) -> np.ndarray:
    """P[y, l] = |K[y, l]|^2 of the register kernel, in closed form.

    With M = 2^bits, x_l = M lambda_l t0 / (2 pi) and r_l = x_l - round(x_l),
    P[y, l] = sin^2(pi r_l) / (M sin(pi (y - x_l) / M))^2, the Fejer kernel.
    The denominator's sine comes by angle addition, sin(pi y/M) cos(pi x_l/M)
    - cos(pi y/M) sin(pi x_l/M): two outer products summed as one rank-2
    matrix product, so no entry takes its own sin and the M x n result is
    the only array of that size. On the peak row y = round(x_l) mod M both
    sines vanish together, and P is (sinc(r_l) / sinc(r_l / M))^2 there.
    """
    size = 1 << bits
    theta = np.asarray(evals_over_n, dtype=float) * t0
    x = theta * (size / (2.0 * math.pi))
    nearest = np.round(x)
    r = x - nearest
    ys = np.arange(size) * (math.pi / size)
    mass = np.array([np.sin(ys), -np.cos(ys)]).T @ np.array(
        [np.cos(theta / 2), np.sin(theta / 2)])
    peak = (nearest.astype(np.intp) % size, np.arange(theta.size))
    mass[peak] = 1.0  # any nonzero value: the peak row is overwritten below
    mass *= mass
    np.divide(np.sin(math.pi * r) ** 2 / size**2, mass, out=mass)
    mass[peak] = (np.sinc(r) / np.sinc(r / size)) ** 2
    return mass


def _branch_masses(evals_over_n, bits: int, t0: float, threshold: float):
    """(m_pos, m_neg): each eigenvector's register mass in the two branch windows.

    m_l = sum over y in W of P[y, l] for the register mass matrix P. The
    windows follow the sign bit: decoded >= threshold and decoded <=
    -threshold, so the aliasing value 2^(bits-1), which decodes to -pi/t0,
    belongs to the negative one.
    """
    mass = _register_mass(evals_over_n, bits, t0)
    decoded = decode_register(np.arange(1 << bits), bits, t0)
    return (decoded >= threshold) @ mass, (decoded <= -threshold) @ mass


def joint_from_eig(evals_over_n, evecs, psi, bits: int, t0: float) -> np.ndarray:
    """Post-QPE joint amplitudes J[register, system] from known eigenpairs.

    J = (K * beta) V^T with beta = V^dagger psi and K the register kernel:
    column l of K is the register state that eigenvector l leaves after the
    controlled powers of exp(-i gen t0) and the register Fourier kernel
    exp(2*pi*i*y*m / M) / sqrt(M) (uniform register weights folded in), chosen
    so positive eigenvalues land in the lower register half.
    """
    beta = evecs.conj().T @ psi
    return (_register_kernel(evals_over_n, bits, t0) * beta) @ evecs.T


def invert_joint(joint, evals_over_n, evecs, bits: int, t0: float) -> np.ndarray:
    """Exact inverse of the circuit behind ``joint_from_eig``.

    Returns the register-resolved pre-circuit amplitudes; row 0 is the
    component on which the register uncomputed cleanly back to zero. The
    uniform register layer is undone by H^(x)bits, applied as one butterfly
    pass per register bit: O(2^bits * bits * N) time, no 2^bits x 2^bits
    matrix.
    """
    size = 1 << bits
    x = np.fft.fft(joint, axis=0) / math.sqrt(size)
    beta = x @ evecs.conj()
    powers = np.exp(1j * np.outer(np.arange(size), np.asarray(evals_over_n)) * t0)
    h = ((powers * beta) @ evecs.T).reshape((2,) * bits + (-1,))
    for axis in range(bits):
        lo, hi = np.split(h, 2, axis=axis)
        h = np.concatenate((lo + hi, lo - hi), axis=axis)
    return h.reshape(size, -1) / math.sqrt(size)


def extract_estimates(distribution, bits: int, t0: float) -> list[EigenEstimate]:
    """Cyclic local maxima of the register distribution, decoded and signed.

    Peaks below ``PEAK_MIN_WEIGHT`` are dropped.
    """
    p = np.asarray(distribution, dtype=float)
    half = p.shape[0] // 2
    ys = np.flatnonzero(~(p < PEAK_MIN_WEIGHT) & (p >= np.roll(p, 1)) & (p >= np.roll(p, -1)))
    values = decode_register(ys, bits, t0)
    order = np.lexsort((ys, -p[ys]))
    return [EigenEstimate(register_value=int(y), value=float(v), weight=float(p[y]),
                          sign=-1 if y >= half else 1)
            for y, v in zip(ys[order], values[order])]


def _exact_backend(oracle: MatrixOracle, psi, config: QPEConfig):
    # Parseval: the row sums of |joint_from_eig|^2 without the joint state
    _, evals_over_n, evecs, t0 = _read_spectrum(lambda: read_hermitian(oracle),
                                                oracle.dim, config)
    weight = np.abs(evecs.conj().T @ psi) ** 2
    return _register_mass(evals_over_n, config.bits, t0) @ weight, t0, None


def _trotter_backend(oracle: MatrixOracle, psi, config: QPEConfig):
    n = oracle.dim
    size = config.size
    # three operator stacks, the phases and their conjugates, six N^2 x N^2
    _require_bytes(16 * (3 * size * n * n + 2 * size + 6 * n**4),
                   "trotter backend register-frequency stacks and transfer matrix")
    # Modelled query cost: one counted sweep for a_max, then one per channel
    # step. Every sweep reads the same matrix, so one real read serves the run.
    plan = ModifiedSwapOperator(oracle).build_plan()
    a_max = float(np.max(np.abs(plan.a)))
    t0 = _base_time(config, a_max)

    # x[y] is the N x N operator of register frequency y, p(y) = Re tr x[y];
    # out and tmp are the other two buffers every stage reuses
    omega = np.exp(2j * math.pi / size * np.arange(size))[:, None, None]
    x = np.tile(np.outer(psi, psi.conj()), (size, 1, 1))
    out, tmp = np.empty_like(x), np.empty_like(x)
    error_bound = 0.0
    for k in range(config.bits):
        stage = EvolutionConfig.plan(a_max, (1 << k) * t0, config.trotter_epsilon)
        steps, dt = stage.n, stage.delta_t
        error_bound += steps * 2.0 * a_max**2 * dt**2
        oracle.charge_sweeps(steps)
        # Bit k of register row m and column q selects the channel Phi, M x,
        # x M† or x (M = sum_a K_a / sqrt(N)); weighted by omega^(y 2^k (m - q))
        # the four sum to one map per frequency. One Kraus factorisation
        # serves both M and Phi's transfer matrix.
        c, s = plan.kraus_factors(dt)
        m_pow = np.linalg.matrix_power((np.diag(c.sum(axis=0)) + s) / n, steps)
        transfer = _kraus_map(c, s)(np.eye(n * n).reshape(n * n, n, n)).reshape(n * n, n * n)
        p_pow = np.linalg.matrix_power(transfer, steps)
        np.matmul(x.reshape(size, n * n), p_pow, out=out.reshape(size, n * n))
        out += x
        out += np.multiply(omega, np.matmul(m_pow, x, out=tmp), out=tmp)
        out += np.multiply(omega.conj(), np.matmul(x, m_pow.conj().T, out=tmp), out=tmp)
        out *= 0.25
        x, out = out, x
        omega *= omega  # the next stage's phases: omega^(y 2^(k+1))
    return np.trace(x, axis1=1, axis2=2).real, t0, error_bound


def qpe(oracle: MatrixOracle, psi, config: QPEConfig) -> QPEResult:
    """Run phase estimation and decode register peaks into eigenvalue estimates.

    The exact backend reads the register distribution from the closed-form
    mass matrix; the trotter backend evolves one N x N operator per register
    frequency. Both backends make their one real read through
    ``oracle.read_hermitian``, so a non-real diagonal fails either after one
    charged sweep.
    """
    n = oracle.dim
    psi = _require_state(psi, n)
    calls_before = oracle.report_calls()
    backend = _exact_backend if config.backend == "exact-unitary" else _trotter_backend
    dist, t0, bound = backend(oracle, psi, config)
    return QPEResult(
        distribution=np.asarray(dist, dtype=float),
        estimates=extract_estimates(dist, config.bits, t0),
        backend=config.backend,
        bits=config.bits,
        base_time=t0,
        oracle_calls=oracle.report_calls() - calls_before,
        trotter_error_bound=bound,
    )


class AgreementReport(NamedTuple):
    tv_distance: float
    trotter_error_bound: float
    trotter_calls: int
    exact_distribution: np.ndarray
    trotter_distribution: np.ndarray


def backend_agreement(oracle: MatrixOracle, psi, config: QPEConfig) -> AgreementReport:
    """Total-variation distance between the two backends' register outputs.

    The trotter run goes first, so a configuration over ``MAX_BYTES`` is
    rejected before either backend reads the source.
    """
    trotter = qpe(oracle.fork(), psi, QPEConfig(
        bits=config.bits, base_time=config.base_time,
        backend="trotter-channel", trotter_epsilon=config.trotter_epsilon))
    exact = qpe(oracle.fork(), psi, QPEConfig(
        bits=config.bits, base_time=config.base_time,
        backend="exact-unitary", trotter_epsilon=config.trotter_epsilon))
    tv = 0.5 * float(np.sum(np.abs(exact.distribution - trotter.distribution)))
    return AgreementReport(
        tv_distance=tv,
        trotter_error_bound=trotter.trotter_error_bound,
        trotter_calls=trotter.oracle_calls,
        exact_distribution=exact.distribution,
        trotter_distribution=trotter.distribution,
    )


class ScalingRow(NamedTuple):
    epsilon: float
    bits: int
    trotter_epsilon: float
    oracle_calls: int


class ScalingResult(NamedTuple):
    rows: list[ScalingRow]
    slope: float


def query_scaling(oracle: MatrixOracle, psi, epsilons,
                  base_bits: int = 2, base_time: float | None = None) -> ScalingResult:
    """Trotter-backend oracle calls vs accuracy, on the coupled schedule.

    Halving the target accuracy both doubles the total phase-estimation time
    (one extra register bit) and halves the per-application channel budget,
    the regime in which total queries scale like accuracy^-3. epsilons must
    be descending from epsilons[0].
    """
    eps = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly descending")
    rows = []
    for e in eps:
        extra = int(round(math.log2(eps[0] / e)))
        cfg = QPEConfig(bits=base_bits + extra, base_time=base_time,
                        backend="trotter-channel", trotter_epsilon=e)
        fork = oracle.fork()
        result = qpe(fork, psi, cfg)
        rows.append(ScalingRow(epsilon=e, bits=cfg.bits,
                               trotter_epsilon=e, oracle_calls=result.oracle_calls))
    xs = np.log([1.0 / r.epsilon for r in rows])
    ys = np.log([r.oracle_calls for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) >= 2 else float("nan")
    return ScalingResult(rows=rows, slope=slope)

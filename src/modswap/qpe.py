"""Simulated phase estimation over the controlled scaled evolution.

The register convention is two's complement: a b-bit register value m
encodes the phase m / 2^b, values at or above 1/2 wrap to negative, and the
decoded eigenvalue of the scaled generator (eigenvalues of A divided by the
dimension) is wrap(m / 2^b) * 2*pi / t0 for base evolution time t0. The
anti-aliasing requirement t0 * max_norm(A) <= pi keeps every phase inside
(-1/2, 1/2].

Two interchangeable backends:

* ``exact-unitary``: the controlled powers are computed from the classical
  eigendecomposition; pure-state simulation, cheap, and exact up to register
  discretization. Costs one counted Hermitian oracle read. Its 2^bits x N
  register kernel is capped by ``MAX_BYTES``.
* ``trotter-channel``: each controlled power is realized by repeated
  ancilla-assisted channel steps (fresh uniform ancilla per step, one
  counted oracle sweep per step), so the register + system state is a
  density matrix. Every step of one register bit is the same linear map, so
  the simulator reads the source once per stage, charges the stage's other
  steps as modelled sweeps (``MatrixOracle.charge_sweeps``), and applies the
  stage as one matrix power of the channel's N^2 x N^2 transfer matrix. The
  reported query cost still counts every step. The density has
  (2^bits * N)^2 entries, capped by ``MAX_BYTES`` together with the
  transfer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitize
from .oracle import MatrixOracle, read_hermitian
from .swapop import ModifiedSwapOperator

PEAK_MIN_WEIGHT = 0.01
MAX_BYTES = 1 << 29  # largest array set either backend allocates, checked before any query


@dataclass(frozen=True)
class QPEConfig:
    """Register size, base evolution time, backend, and channel budget.

    base_time None means "resolve at run time" to pi / max_norm scaled just
    under the aliasing bound. trotter_epsilon is the nuclear-norm error
    budget for each controlled power application on the trotter backend.
    """

    bits: int
    base_time: float | None = None
    backend: str = "exact-unitary"
    trotter_epsilon: float = 0.01

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("register needs at least one bit")
        if self.backend not in ("exact-unitary", "trotter-channel"):
            raise ValueError(f"unknown backend '{self.backend}'")
        if self.base_time is not None and not (math.isfinite(self.base_time)
                                               and self.base_time > 0):
            raise ValueError("base_time must be positive and finite")
        if not math.isfinite(self.trotter_epsilon) or self.trotter_epsilon <= 0:
            raise ValueError("trotter_epsilon must be positive and finite")

    @property
    def size(self) -> int:
        return 1 << self.bits


@dataclass(frozen=True)
class EigenEstimate:
    """One decoded register peak."""

    register_value: int
    value: float
    weight: float
    sign: int


@dataclass
class QPEResult:
    distribution: np.ndarray
    estimates: list[EigenEstimate]
    joint: np.ndarray
    backend: str
    bits: int
    base_time: float
    oracle_calls: int
    trotter_error_bound: float | None = None
    all_peaks: list[EigenEstimate] = field(default_factory=list)


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


def _read_spectrum(oracle: MatrixOracle, config: QPEConfig):
    """One counted Hermitian read and its eigendecomposition.

    Returns (A, eigenvalues of A / N, eigenvectors, base time t0). The
    2^bits x N complex register kernel is checked against ``MAX_BYTES``
    before the read.
    """
    _require_bytes(16 * config.size * oracle.dim, "exact backend register kernel")
    a = read_hermitian(oracle)
    t0 = _base_time(config, float(np.max(np.abs(a))))
    w, v = np.linalg.eigh(hermitize(a))
    return a, w / a.shape[0], v, t0


def _require_state(psi, n: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape != (n,):
        raise ValueError(f"state has dim {psi.shape[0]}, expected {n}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state norm {nrm:.6g} != 1")
    return psi / nrm


def _register_kernel(evals_over_n, bits: int, t0: float) -> np.ndarray:
    """K[y, l] = ifft_m(exp(-i m lambda_l t0)): register amplitude y of eigenvector l."""
    powers = np.exp(-1j * np.outer(np.arange(1 << bits), np.asarray(evals_over_n)) * t0)
    return np.fft.ifft(powers, axis=0)


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


def extract_estimates(distribution, bits: int, t0: float,
                      min_weight: float = PEAK_MIN_WEIGHT,
                      threshold: float = 0.0) -> list[EigenEstimate]:
    """Cyclic local maxima of the register distribution, decoded and signed.

    Peaks below min_weight are dropped; threshold additionally filters the
    list (never the state) by |decoded value|.
    """
    p = np.asarray(distribution, dtype=float)
    half = p.shape[0] // 2
    ys = np.flatnonzero(~(p < min_weight) & (p >= np.roll(p, 1)) & (p >= np.roll(p, -1)))
    values = decode_register(ys, bits, t0)
    kept = ~(np.abs(values) < threshold)
    ys, values = ys[kept], values[kept]
    order = np.lexsort((ys, -p[ys]))
    return [EigenEstimate(register_value=int(y), value=float(v), weight=float(p[y]),
                          sign=-1 if y >= half else 1)
            for y, v in zip(ys[order], values[order])]


def _exact_backend(oracle: MatrixOracle, psi, config: QPEConfig):
    _, evals_over_n, evecs, t0 = _read_spectrum(oracle, config)
    joint = joint_from_eig(evals_over_n, evecs, psi, config.bits, t0)
    dist = np.sum(np.abs(joint) ** 2, axis=1)
    return joint, dist, t0, None


def _trotter_backend(oracle: MatrixOracle, psi, config: QPEConfig):
    op = ModifiedSwapOperator(oracle)
    n = op.dim
    size = config.size
    _require_bytes(16 * ((size * n) ** 2 + n**4),
                   "trotter backend register x system density and transfer matrix")
    a_max = op.spectrum().max_abs
    t0 = _base_time(config, a_max)

    x = np.kron(np.full(size, 1.0 / math.sqrt(size)), psi)
    # blocks[m, q] is the N x N system block of register row m, column q
    blocks = np.outer(x, x.conj()).reshape(size, n, size, n).transpose(0, 2, 1, 3)

    error_bound = 0.0
    for k in range(config.bits):
        tau = (1 << k) * t0
        steps = max(1, math.ceil(2.0 * a_max**2 * tau**2 / config.trotter_epsilon))
        dt = tau / steps
        error_bound += steps * 2.0 * a_max**2 * dt**2
        # Modelled query cost: one counted sweep per channel step. Each step
        # reads the same matrix, so one real read serves the whole stage.
        plan = op.build_plan()
        oracle.charge_sweeps(steps - 1)
        # Every step of the stage is the same map on the N x N blocks: the
        # channel on control-on/on blocks, M = sum_a K_a / sqrt(N) on on/off
        # blocks, M† on off/on blocks, the identity on off/off blocks.
        c, s = plan.kraus_factors(dt)
        m_pow = np.linalg.matrix_power((np.diag(c.sum(axis=0)) + s) / n, steps)
        transfer = plan.channel(np.eye(n * n).reshape(n * n, n, n), dt).reshape(n * n, n * n)
        p_pow = np.linalg.matrix_power(transfer, steps).reshape(n, n, n, n)
        on = (np.arange(size) >> k) & 1 == 1
        on_on, on_off, off_on = np.ix_(on, on), np.ix_(on, ~on), np.ix_(~on, on)
        blocks[on_on] = np.tensordot(blocks[on_on], p_pow, axes=2)
        blocks[on_off] = m_pow @ blocks[on_off]
        blocks[off_on] = blocks[off_on] @ m_pow.conj().T

    # (F (x) I) dens (F (x) I)† with the exact backend's register kernel
    blocks = np.fft.fft(np.fft.ifft(blocks, axis=0), axis=1)
    dist = np.real(np.einsum("mmss->m", blocks))
    dens = blocks.transpose(0, 2, 1, 3).reshape(size * n, size * n)
    return dens, dist, t0, error_bound


def qpe(oracle: MatrixOracle, psi, config: QPEConfig,
        threshold: float = 0.0) -> QPEResult:
    """Run phase estimation and decode register peaks into eigenvalue estimates.

    The returned estimates list is filtered at |value| >= threshold; the
    joint state (amplitudes for the exact backend, a register x system
    density matrix for the trotter backend) is never filtered.
    """
    n = oracle.dim
    psi = _require_state(psi, n)
    calls_before = oracle.report_calls()
    if config.backend == "exact-unitary":
        joint, dist, t0, bound = _exact_backend(oracle, psi, config)
    else:
        joint, dist, t0, bound = _trotter_backend(oracle, psi, config)
    all_peaks = extract_estimates(dist, config.bits, t0)
    estimates = [e for e in all_peaks if abs(e.value) >= threshold]
    return QPEResult(
        distribution=np.asarray(dist, dtype=float),
        estimates=estimates,
        joint=joint,
        backend=config.backend,
        bits=config.bits,
        base_time=t0,
        oracle_calls=oracle.report_calls() - calls_before,
        trotter_error_bound=bound,
        all_peaks=all_peaks,
    )


@dataclass(frozen=True)
class AgreementReport:
    tv_distance: float
    trotter_calls: int
    exact_distribution: np.ndarray
    trotter_distribution: np.ndarray


def backend_agreement(oracle: MatrixOracle, psi, config: QPEConfig) -> AgreementReport:
    """Total-variation distance between the two backends' register outputs.

    Guarded to small systems; the trotter backend cost grows exponentially
    with register size.
    """
    if oracle.dim > 4 or config.bits > 4:
        raise ValueError("backend_agreement is limited to N <= 4 and bits <= 4")
    exact = qpe(oracle.fork(), psi, QPEConfig(
        bits=config.bits, base_time=config.base_time,
        backend="exact-unitary", trotter_epsilon=config.trotter_epsilon))
    trotter = qpe(oracle.fork(), psi, QPEConfig(
        bits=config.bits, base_time=config.base_time,
        backend="trotter-channel", trotter_epsilon=config.trotter_epsilon))
    tv = 0.5 * float(np.sum(np.abs(exact.distribution - trotter.distribution)))
    return AgreementReport(
        tv_distance=tv,
        trotter_calls=trotter.oracle_calls,
        exact_distribution=exact.distribution,
        trotter_distribution=trotter.distribution,
    )


@dataclass(frozen=True)
class ScalingRow:
    epsilon: float
    bits: int
    trotter_epsilon: float
    oracle_calls: int


@dataclass(frozen=True)
class ScalingResult:
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

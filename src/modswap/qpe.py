"""Simulated phase estimation over the controlled scaled evolution.

The input state passes ``linalg.require_state``, and the source the gate of
its one counted read, ``oracle.read_hermitian``, before any query.

The register convention is two's complement: a b-bit register value m
encodes the phase m / 2^b, values at or above 1/2 wrap to negative, and the
decoded eigenvalue of the scaled generator (eigenvalues of A divided by the
dimension) is wrap(m / 2^b) * 2*pi / t0 for base evolution time t0. The
anti-aliasing requirement t0 * max_norm(A) <= pi keeps every phase inside
(-1/2, 1/2].

Two interchangeable backends:

* ``exact-unitary``: the controlled powers are exact functions of A;
  exact up to register discretization. Costs one counted Hermitian oracle
  read (``oracle.read_hermitian``), whose exactly Hermitian matrix the
  backend uses as it is.
  Eigenvector l leaves the register in state K[:, l], whose outcome law
  |K[y, l]|^2 is the Fejer kernel centred on lambda_l * t0;
  ``_register_mass`` gives that real mass matrix in closed form, with no
  FFT. By Parseval the register distribution is that matrix times
  |V^dagger psi|^2, so no register x system state is built, and it depends
  on A only through psi's spectral measure: nodes lambda_l, weights
  |<v_l|psi>|^2. ``_spectral_measure`` takes that measure from Lanczos
  from psi, at most rank(A) + 1 matrix-vector products with a stated bound
  on the change in p, and takes ``eigh`` of the read only past N // 8
  steps. The mass matrix, 2^bits x N at most, is capped by ``MAX_BYTES``.
* ``trotter-channel``: each controlled power is realized by repeated
  ancilla-assisted channel steps (fresh uniform ancilla per step, one
  counted oracle sweep per step). Every step reads the same matrix, so one
  real ``build_plan`` read, which also gives max_norm(A), serves the run,
  and the reported cost charges that sweep and every step
  (``MatrixOracle.charge_sweeps``). Every stage k is planned by
  ``channel.plan_steps`` for time 2^k t0 under ``trotter_epsilon`` before
  any stage runs, so a step count or bound past the float range fails
  after that one read and before any stage work. A stage is one matrix
  power of the channel's N^2 x N^2 transfer matrix over its planned steps.
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

from .channel import plan_steps
from .linalg import require_state
from .oracle import MatrixOracle, read_hermitian
from .swapop import ModifiedSwapOperator, _kraus_map

PEAK_MIN_WEIGHT = 0.01
MAX_BYTES = 1 << 29  # largest array set either backend allocates, checked before any query
# bound on each |Delta p(y)| at which Lanczos stops (``_spectral_measure``)
MEASURE_TOL = 1e-12


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
        if isinstance(self.bits, bool) or not isinstance(self.bits, (int, np.integer)):
            raise ValueError(f"register size must be an integer number of bits, "
                             f"not {self.bits!r}")
        if self.bits < 1:
            raise ValueError("register needs at least one bit")
        if self.bits > 62:  # 2^bits register values must fit a 64-bit index
            raise ValueError(f"a {self.bits}-bit register has more values than an index can hold")
        if self.backend not in ("exact-unitary", "trotter-channel"):
            raise ValueError(f"unknown backend '{self.backend}'")
        if self.base_time is not None and not (math.isfinite(self.base_time)
                                               and self.base_time > 0):
            raise ValueError("base_time must be positive and finite")
        if not math.isfinite(self.trotter_epsilon) or self.trotter_epsilon <= 0:
            raise ValueError("trotter_epsilon must be positive and finite")
        return super().__new__(cls, int(self.bits), *self[1:])

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
    size = 1 << int(bits)
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


def _read_exact(read, dim: int, config: QPEConfig):
    """The exact readouts' one counted read of a dim x dim Hermitian matrix.

    ``read`` is a zero-argument callable that makes the read. Returns (A,
    base time t0). A config whose backend is not exact-unitary is refused
    first. The register mass matrix, one 2^bits x dim float64 array at its
    largest, is checked against ``MAX_BYTES`` before the read: how many
    columns it needs is known only after it. The decomposition is the
    caller's: ``_spectral_measure`` for ``qpe``, ``eigh`` of the embedding
    for svd and Procrustes, whose readouts use the eigenvectors.
    """
    if config.backend != "exact-unitary":
        raise ValueError("this readout runs on the exact-unitary backend only, "
                         f"not '{config.backend}'")
    _require_bytes(8 * config.size * dim, "exact backend register kernel mass")
    a = read()
    return a, _base_time(config, float(np.max(np.abs(a))))


def _spectral_measure(a, psi, size: int, t0: float):
    """(nodes, weights) of psi's spectral measure under A / N, A exactly Hermitian.

    The register distribution is ``_register_mass(nodes) @ weights``. Lanczos
    from psi gives after k steps a tridiagonal T_k whose eigenpairs
    (theta_j, s_j) are the nodes theta_j / N and weights |s_j[0]|^2 (Gauss
    quadrature). For rank r, A^k psi lies in range(A) for every k >= 1, so
    Lanczos breaks down by step r + 1, one more where rounding spreads the
    N - r null eigenvalues, which make one node. Each step reorthogonalises
    against the whole basis twice: with one pass the basis loses
    orthogonality as Ritz values converge, and a rank-10 A at N = 128 does
    not break down within the step cap.

    Scale. Lanczos and ``eigh`` run on A / 2^e, e = ``frexp(max |A_jk|)[1]``,
    with t0 2^e in the stop rule and the nodes multiplied back by 2^e.
    Both scalings are exact in binary floating point, and A / 2^e is the
    same matrix for A times any 2^k, so such a source gives the same
    weights bit for bit and nodes times 2^k; unscaled, a residual norm
    underflowed to 0 near 2^-550 (Lanczos stopped at step 1) and
    overflowed from 2^511.

    Stop rule. If Lanczos stops at beta_k, the measure is exactly that of
    A - E with E = beta_k (q_{k+1} q_k^dagger + h.c.), so ||E|| = beta_k.
    p(y) = psi^dagger F_y(A t0 / N) psi, with F_y a trigonometric polynomial
    of degree M - 1 (M = size = 2^bits) whose coefficients c_d have
    sum |d| |c_d| <= M / 3. So the stop moves each p(y) by at most
    (M / 3) (t0 / N) beta_k, and Lanczos stops at the first step where this
    bound is at or below ``MEASURE_TOL``.

    Fallback. At most N // 8 steps are run, so an A that needs more pays for
    them on top of the ``eigh`` that then gives every eigenvalue, with
    weights |V^dagger psi|^2: about a tenth more at N = 128 to 256, where
    Lanczos costs as much as ``eigh`` only past N / 2 steps. N < 8 goes to
    ``eigh`` at once, as does, after N // 8 steps, a register too fine for
    rounding to meet the bound.
    """
    n = psi.size
    e = int(np.frexp(np.max(np.abs(a)))[1])
    a = np.array(a, dtype=np.complex128)
    for part in (a.real, a.imag):  # ldexp, not a product: 2^-e overflows for a subnormal A
        np.ldexp(part, -e, out=part)
    steps = n // 8
    per_beta = size / 3 * np.ldexp(t0, e) / n
    basis = np.empty((steps + 1, n), dtype=np.complex128)
    basis[0] = psi
    alpha, beta = np.empty(steps), np.empty(steps)
    for k in range(steps):
        r = a @ basis[k]
        alpha[k] = np.vdot(basis[k], r).real
        q = basis[:k + 1]
        for _ in range(2):
            r -= (q.conj() @ r) @ q
        beta[k] = np.linalg.norm(r)
        if per_beta * beta[k] <= MEASURE_TOL:
            off = beta[:k]
            theta, s = np.linalg.eigh(np.diag(alpha[:k + 1]) + np.diag(off, 1) + np.diag(off, -1))
            return np.ldexp(theta, e) / n, s[0] ** 2
        basis[k + 1] = r / beta[k]
    w, v = np.linalg.eigh(a)
    return np.ldexp(w, e) / n, np.abs(v.conj().T @ psi) ** 2


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
    a, t0 = _read_exact(lambda: read_hermitian(oracle), oracle.dim, config)
    nodes, weights = _spectral_measure(a, psi, config.size, t0)
    return _register_mass(nodes, config.bits, t0) @ weights, t0, None


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
    # every stage is planned before any runs, so a plan that overflows fails here
    stages = [plan_steps(a_max, (1 << k) * t0, config.trotter_epsilon)
              for k in range(config.bits)]

    # x[y] is the N x N operator of register frequency y, p(y) = Re tr x[y];
    # out and tmp are the other two buffers every stage reuses
    omega = np.exp(2j * math.pi / size * np.arange(size))[:, None, None]
    x = np.tile(np.outer(psi, psi.conj()), (size, 1, 1))
    out, tmp = np.empty_like(x), np.empty_like(x)
    error_bound = 0.0
    for steps, dt, _ in stages:
        # not steps * the plan's bound, which rounds differently in about a
        # third of cases: this order keeps the reported bound bit-for-bit
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
    frequency. psi passes ``linalg.require_state`` before either backend
    makes its one real read through ``oracle.read_hermitian``, which checks
    the source before it charges.
    """
    psi = require_state(psi, oracle.dim)
    calls_before = oracle.report_calls()
    backend = _exact_backend if config.backend == "exact-unitary" else _trotter_backend
    dist, t0, bound = backend(oracle, psi, config)
    return QPEResult(
        distribution=np.ascontiguousarray(dist, dtype=float),
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
    rejected before either backend reads the source. Both runs charge
    ``oracle``; ``trotter_calls`` is the trotter run's own count.
    """
    trotter = qpe(oracle, psi, config._replace(backend="trotter-channel"))
    exact = qpe(oracle, psi, config._replace(backend="exact-unitary"))
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
    oracle_calls: int


class ScalingResult(NamedTuple):
    rows: list[ScalingRow]
    slope: float


def query_scaling(oracle: MatrixOracle, psi, epsilons,
                  base_time: float | None = None) -> ScalingResult:
    """Trotter-backend oracle calls vs accuracy, on the coupled schedule.

    The schedule runs 2 register bits at epsilons[0]. Halving the target
    accuracy both doubles the total phase-estimation time (one extra
    register bit) and halves the per-application channel budget, the regime
    in which total queries scale like accuracy^-3. epsilons must be
    descending from epsilons[0]; base_time None takes the default t0. Every
    run charges ``oracle``; each row's ``oracle_calls`` is its run's own count.
    """
    eps = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly descending")
    rows = []
    for e in eps:
        cfg = QPEConfig(bits=2 + round(math.log2(eps[0] / e)), base_time=base_time,
                        backend="trotter-channel", trotter_epsilon=e)
        result = qpe(oracle, psi, cfg)
        rows.append(ScalingRow(epsilon=e, bits=cfg.bits, oracle_calls=result.oracle_calls))
    xs = np.log([1.0 / r.epsilon for r in rows])
    ys = np.log([r.oracle_calls for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) >= 2 else float("nan")
    return ScalingResult(rows=rows, slope=slope)

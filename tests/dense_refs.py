"""Independent dense reference implementations for the test suite.

These deliberately avoid the package's implicit/blockwise code paths:
operators are materialized entry by entry and exponentiated with scipy, so
they serve as independent oracles for the fast implementations. Dense
doubled-space materialization is restricted to N <= 6.

``channel_via_joint`` and ``controlled_kraus_step`` are the exception: they
are the joint-state channel step and the per-step Kraus-stack trotter step
that the closed-form ``BlockPlan.channel`` replaced, kept as differential
references on top of a ``BlockPlan``. ``trotter_by_blocks`` is the trotter
``qpe`` backend on the full register x system density (block masks and an
FFT pair) that the per-frequency N x N recursion replaced; it reads and
charges the oracle the same way, so counts compare too. ``plan_by_queries``
is the per-element ``query`` loop that ``build_plan`` replaced with one counted
triangle read; it returns the plan's Hermitian matrix. ``embedding_by_queries``
is the per-query embedded oracle of the svd and Procrustes pipelines, one
base ``query`` per entry, that ``linalg.embedding(base.read_all())`` replaced. ``pair_fields``,
``apply_by_pairs`` and ``kraus_factors_by_pairs`` are the index-array plan
layout (diagonal and pair-row indices) and the per-pair rotation and
scatter that the elementwise factors of ``BlockPlan`` replaced.
``evolve_by_steps`` and ``sweep_by_steps`` are the per-step loops (one
counted sweep, one Kraus factorisation and one ``eigh`` per step) that
``evolve`` and ``error_sweep`` replaced with one of each per run.
``decode_register_scalar`` and ``extract_estimates_by_loop`` are the
per-register Python loops that the array decode and peak scan replaced.
``complex_pairs_by_loop`` and ``matrix_to_json_obj_by_loop`` are the
per-element ``float()`` loops that built the [re, im] pair lists of matrix
files and envelopes before the JSON writer's float64 view of each complex
array, which orjson encodes directly, replaced them.
``uniform_density`` is the uniform-ancilla projector, and
``first_order_generator`` the (A/N)·sigma contraction that the channel step
reproduces to first order in dt; no pipeline calls either.
``exact_distribution_by_eigh`` is the exact ``qpe`` readout over every
eigenpair of one ``eigh``, that ψ's Lanczos spectral measure replaced.
``sign_flip`` and ``procrustes_by_uncompute`` are the Procrustes sign flip
and the two ``invert_joint`` uncomputes that the closed-form window masses
of ``quantum_procrustes_apply`` replaced. ``random_density`` and
``random_state`` are the seeded test inputs, and ``RecordingOracle`` is an
oracle that logs each real read of its source.
"""

import math

import numpy as np
from scipy.linalg import expm

from modswap.channel import ErrorReport, SweepResult, SweepRow, channel_step, require_density
from modswap.linalg import as_matrix, exact_evolution, hermitize, nuclear_norm, require_hermitian
from modswap.oracle import MatrixOracle, read_hermitian
from modswap.qpe import (
    EigenEstimate,
    decode_register,
    invert_joint,
    joint_from_eig,
    _base_time,
    _read_exact,
    _register_mass,
)
from modswap.swapop import ModifiedSwapOperator, _kraus_map


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


def plan_by_queries(oracle) -> np.ndarray:
    """The plan's Hermitian matrix from one ``query`` call per diagonal and upper entry."""
    n = oracle.dim
    a = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(j, n):
            value = oracle.query(j, k)
            a[k, j] = np.conj(value)
            a[j, k] = value
    return a


def embedding_by_queries(base) -> np.ndarray:
    """[[0, A], [A^dagger, 0]] from one ``query`` call per entry of the M x N base.

    Each off-block pair (j, M + k), (M + k, j) costs one base query; the
    diagonal blocks are zero and cost none.
    """
    m, n = base.shape
    ext = np.zeros((m + n, m + n), dtype=np.complex128)
    for j in range(m):
        for k in range(n):
            value = base.query(j, k)
            ext[j, m + k] = value
            ext[m + k, j] = np.conj(value)
    return ext


def pair_fields(a: np.ndarray):
    """The index-array plan layout: (diag_index, diag_value, row_kj, row_jk, offdiag).

    Diagonal entries sit at index j*N + j; the pair j < k, in
    ``np.triu_indices`` order, has rows k*N + j and j*N + k and value A[j, k].
    """
    n = a.shape[0]
    j, k = np.triu_indices(n, 1)
    return (np.arange(n) * (n + 1), a.diagonal().real.copy(),
            k * n + j, j * n + k, a[j, k])


def _pair_rotation(offdiag: np.ndarray, t: float):
    mag = np.abs(offdiag)
    unit = np.where(mag > 0, offdiag / np.where(mag > 0, mag, 1.0), 1.0)
    return np.cos(mag * t), np.sin(mag * t), unit


def apply_by_pairs(a: np.ndarray, x, t: float) -> np.ndarray:
    """exp(-i t op) along the first axis of x, one 2 x 2 rotation per pair block."""
    diag_index, diag_value, row_kj, row_jk, offdiag = pair_fields(a)
    x = np.asarray(x, dtype=np.complex128)
    out = x.copy()
    tail = (1,) * (x.ndim - 1)
    phase = np.exp(-1j * diag_value * t).reshape((-1,) + tail)
    out[diag_index] = x[diag_index] * phase
    if offdiag.size:
        c, s, u = (f.reshape((-1,) + tail) for f in _pair_rotation(offdiag, t))
        hi, lo = x[row_kj], x[row_jk]
        out[row_kj] = c * hi - 1j * u * s * lo
        out[row_jk] = -1j * np.conj(u) * s * hi + c * lo
    return out


def kraus_factors_by_pairs(a: np.ndarray, t: float):
    """(C, S) of the uniform-ancilla step, scattered pair by pair from the index arrays."""
    n = a.shape[0]
    _, diag_value, row_kj, _, offdiag = pair_fields(a)
    c = np.diag(np.exp(-1j * diag_value * t))
    s = np.zeros((n, n), dtype=np.complex128)
    if offdiag.size:
        j_idx, k_idx = row_kj % n, row_kj // n
        cos, sin, unit = _pair_rotation(offdiag, t)
        c[j_idx, k_idx] = c[k_idx, j_idx] = cos
        s[j_idx, k_idx] = -1j * unit * sin
        s[k_idx, j_idx] = -1j * np.conj(unit) * sin
    return c, s


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


def trotter_by_blocks(oracle, psi, config):
    """Trotter ``qpe`` on the full register x system density: (dens, dist, t0, bound).

    The (2^b N)^2 density is kept as blocks[m, q]; each stage maps its control
    on/on, on/off and off/on blocks through ``np.ix_`` masks, and the register
    Fourier step is an FFT pair before the trace of each diagonal block. It
    reads and charges the oracle as ``qpe._trotter_backend`` does.
    """
    n = oracle.dim
    size = config.size
    plan = ModifiedSwapOperator(oracle).build_plan()
    a_max = float(np.max(np.abs(plan.a)))
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
        oracle.charge_sweeps(steps)
        c, s = plan.kraus_factors(dt)
        m_pow = np.linalg.matrix_power((np.diag(c.sum(axis=0)) + s) / n, steps)
        transfer = _kraus_map(c, s)(np.eye(n * n).reshape(n * n, n, n)).reshape(n * n, n * n)
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


def uniform_density(n: int) -> np.ndarray:
    """Projector onto the uniform superposition: every entry 1/n."""
    return np.full((n, n), 1.0 / n, dtype=np.complex128)


def first_order_generator(oracle: MatrixOracle, sigma) -> np.ndarray:
    """(A/N) sigma via the partial-trace contraction with the uniform ancilla.

    The contraction sums A[j,k] <j|rho|k> |j><k| sigma; with the uniform
    ancilla every <j|rho|k> is 1/N, so the result equals (A/N) @ sigma. The
    matrix comes from one counted ``read_hermitian`` sweep.
    """
    sigma = as_matrix(sigma)
    n = oracle.dim
    if sigma.shape != (n, n):
        raise ValueError(f"state dim {sigma.shape} != oracle dim {n}")
    a = read_hermitian(oracle)
    return (a * uniform_density(n)) @ sigma


def evolve_by_steps(oracle, sigma, t, epsilon, steps=None):
    """``evolve`` as n calls of ``channel_step`` and ``exact_evolution``.

    n = ceil(2 max_norm^2 t^2 / epsilon) unless ``steps`` gives it, and the
    effective rank comes from its own ``eigvalsh``.
    """
    sigma = require_density(sigma, oracle.dim)
    a = require_hermitian(oracle.materialize())
    a_max = float(np.max(np.abs(a)))
    n = steps if steps is not None else max(1, math.ceil(2.0 * a_max**2 * t**2 / epsilon))
    dt = t / n
    per_step_bound = 2.0 * a_max**2 * dt**2

    cur = sigma
    worst_step = 0.0
    for _ in range(n):
        nxt = channel_step(oracle, cur, dt)
        step_err = nuclear_norm(nxt - exact_evolution(a, dt, cur))
        worst_step = max(worst_step, step_err)
        cur = nxt

    total = nuclear_norm(cur - exact_evolution(a, t, sigma))
    evals = np.linalg.eigvalsh(a) / a.shape[0]
    return cur, ErrorReport(
        steps=n,
        delta_t=dt,
        per_step_bound=per_step_bound,
        measured_step_error=worst_step,
        total_measured=total,
        total_bound=n * per_step_bound,
        effective_rank=int(np.sum(np.abs(evals) >= 1.0 / abs(t))) if t else 0,
    )


def sweep_by_steps(oracle, sigma, delta_ts):
    """``error_sweep`` as one ``channel_step`` and ``exact_evolution`` per dt.

    Input checks are left to the caller.
    """
    sigma = require_density(sigma, oracle.dim)
    a = require_hermitian(oracle.materialize())
    a_max = float(np.max(np.abs(a)))
    rows = []
    for dt in (float(d) for d in delta_ts):
        measured = nuclear_norm(
            channel_step(oracle, sigma, dt)
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


def extract_estimates_by_loop(distribution, bits: int, t0: float, min_weight: float):
    """Cyclic local maxima found by one Python test per register value."""
    p = np.asarray(distribution, dtype=float)
    size = p.shape[0]
    half = size // 2
    peaks = []
    for y in range(size):
        if p[y] < min_weight:
            continue
        if p[y] >= p[(y - 1) % size] and p[y] >= p[(y + 1) % size]:
            peaks.append(EigenEstimate(
                register_value=y,
                value=decode_register_scalar(y, bits, t0),
                weight=float(p[y]),
                sign=-1 if y >= half else 1,
            ))
    peaks.sort(key=lambda e: (-e.weight, e.register_value))
    return peaks


def complex_pairs_by_loop(values) -> list:
    """[re, im] pairs built one numpy scalar at a time through ``float()``."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def matrix_to_json_obj_by_loop(a) -> dict:
    """The JSON matrix object with its data list from ``complex_pairs_by_loop``."""
    a = as_matrix(a)
    m, n = a.shape
    return {"rows": m, "cols": n, "data": complex_pairs_by_loop(a)}


def sign_flip(joint, bits: int) -> np.ndarray:
    """Negate amplitudes whose register value decodes negative (MSB set).

    Unitary and involutive: applying it twice is the identity.
    """
    joint = np.asarray(joint, dtype=np.complex128)
    size = 1 << bits
    if joint.shape[0] != size:
        raise ValueError(f"register axis has length {joint.shape[0]}, expected {size}")
    out = joint.copy()
    out[size // 2:] = -out[size // 2:]
    return out


def procrustes_by_uncompute(base, psi, config, threshold: float):
    """Procrustes readout through the circuit: (output_state, success, leakage).

    Post-selects |decoded| >= threshold on the joint state of
    ``joint_from_eig``, flips the sign of the negative half and uncomputes
    each register half with ``invert_joint``, keeping row 0 of each.
    """
    m = base.shape[0]
    dense, t0 = _read_exact(lambda: embedding_by_queries(base), sum(base.shape), config)
    w, v = np.linalg.eigh(dense)
    evals_over_n = w / sum(base.shape)
    size, bits = config.size, config.bits
    x0 = np.concatenate([np.zeros(m, dtype=np.complex128), psi])
    joint = joint_from_eig(evals_over_n, v, x0, bits, t0)
    keep = np.abs(decode_register(np.arange(size), bits, t0)) >= threshold
    filtered = joint * keep[:, None]
    filtered = filtered / np.sqrt(np.sum(np.abs(filtered) ** 2))
    flipped = sign_flip(filtered, bits)
    pos, neg = flipped.copy(), flipped.copy()
    pos[size // 2:] = 0
    neg[: size // 2] = 0
    phi_pos = invert_joint(pos, evals_over_n, v, bits, t0)[0]
    phi_neg = invert_joint(neg, evals_over_n, v, bits, t0)[0]
    clean = np.linalg.norm(phi_pos) ** 2 + np.linalg.norm(phi_neg) ** 2
    block = np.linalg.norm(phi_pos[:m]) ** 2 + np.linalg.norm(phi_neg[:m]) ** 2
    out = phi_pos[:m] + phi_neg[:m]
    return out / np.linalg.norm(out), float(block / clean), float(1.0 - clean)


def exact_distribution_by_eigh(a, psi, bits: int, t0: float) -> np.ndarray:
    """The exact backend's register distribution from ``eigh`` of A.

    Every eigenvalue is a node, with weight |V^dagger psi|^2: the readout
    that ``qpe._spectral_measure``'s Lanczos measure replaced wherever
    Lanczos stops within its step cap.
    """
    w, v = np.linalg.eigh(a)
    return _register_mass(w / a.shape[0], bits, t0) @ (np.abs(v.conj().T @ psi) ** 2)


def hadamard(bits: int) -> np.ndarray:
    """Unnormalized H^(x)bits, the Kronecker power of [[1, 1], [1, -1]]."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return h


class RecordingOracle(MatrixOracle):
    """A dense oracle whose ``reads`` lists each real read of the source, by kind.

    A triangle sweep logs "sweep", a whole read "all", an uncounted read
    "materialize" and an element query "query"; charged sweeps log nothing.
    """

    def __init__(self, a):
        super().__init__(a)
        self.reads = []

    def query(self, j, k):
        self.reads.append("query")
        return super().query(j, k)

    def read_upper_triangle(self):
        self.reads.append("sweep")
        return super().read_upper_triangle()

    def read_all(self):
        self.reads.append("all")
        return super().read_all()

    def materialize(self):
        self.reads.append("materialize")
        return super().materialize()


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def trace_norm(x: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix GG†/tr(GG†) from a Ginibre G."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return hermitize(rho / np.trace(rho).real)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector in C^n."""
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)

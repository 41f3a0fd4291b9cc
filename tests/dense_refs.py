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
triangle read.
"""

import math

import numpy as np
from scipy.linalg import expm


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

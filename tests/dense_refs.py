"""Independent dense reference implementations for the test suite.

These deliberately avoid the package's implicit/blockwise code paths:
operators are materialized entry by entry and exponentiated with scipy, so
they serve as independent oracles for the fast implementations. Dense
doubled-space materialization is restricted to N <= 6.
"""

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

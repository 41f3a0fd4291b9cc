"""Call-counted element access to a matrix.

The oracle is the only sanctioned data path for the simulated pipelines, so
its counter is the simulator's query-complexity meter. Sources are either a
dense backing array or a pure function (j, k) -> complex; both share the
same counting interface and can be swapped freely. ``query`` reads one
element; ``read_upper_triangle`` reads one whole sweep of the diagonal and
upper triangle with a single counter update; ``charge_sweeps`` charges
modelled sweeps whose values the caller already holds.

``read_hermitian`` is the one gate of the counted path: every counted
Hermitian read goes through it, and it alone rejects a non-real diagonal.

Classical baselines and verifiers go through ``materialize``, which reads
the source directly and does NOT count; reported call counts therefore
measure only the simulated-algorithm path.
"""

from __future__ import annotations

import threading

import numpy as np

from .linalg import as_matrix

DIAG_IMAG_TOL = 1e-10


class MatrixOracle:
    """Element oracle for an M x N matrix with a race-free query counter.

    Out-of-range queries raise IndexError without touching the counter.
    Concurrent sweeps should each own their own instance (``fork``).
    """

    def __init__(self, source, shape=None):
        if callable(source):
            if shape is None:
                raise ValueError("function-backed oracle needs an explicit shape")
            self._matrix = None
            self._fn = source
            self._shape = (int(shape[0]), int(shape[1]))
        else:
            self._matrix = as_matrix(source)
            self._fn = None
            self._shape = self._matrix.shape
        self._count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_matrix(cls, a) -> "MatrixOracle":
        return cls(a)

    @classmethod
    def from_function(cls, fn, shape) -> "MatrixOracle":
        return cls(fn, shape=shape)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def dim(self) -> int:
        m, n = self._shape
        if m != n:
            raise ValueError(f"oracle is not square: shape {self._shape}")
        return m

    def fork(self) -> "MatrixOracle":
        """Same source, fresh counter."""
        if self._matrix is not None:
            return MatrixOracle(self._matrix)
        return MatrixOracle(self._fn, shape=self._shape)

    def query(self, j: int, k: int) -> complex:
        """Return A[j, k]; one counted call."""
        m, n = self._shape
        if not (0 <= j < m and 0 <= k < n):
            raise IndexError(f"query ({j}, {k}) outside [0,{m}) x [0,{n})")
        with self._lock:
            self._count += 1
        if self._matrix is not None:
            return complex(self._matrix[j, k])
        return complex(self._fn(j, k))

    def read_upper_triangle(self):
        """One counted sweep: (rows, cols, values) of the diagonal and upper triangle.

        Entries come in ``np.triu_indices`` (row-major) order. The sweep
        charges N(N+1)/2 calls with one locked increment; a dense source is
        read by fancy indexing, a function source once per element. A
        non-finite value fails the sweep after it is charged.
        """
        rows, cols = np.triu_indices(self.dim)
        with self._lock:
            self._count += rows.size
        if self._matrix is not None:
            values = self._matrix[rows, cols]
        else:
            values = np.array([complex(self._fn(j, k))
                               for j, k in zip(rows.tolist(), cols.tolist())],
                              dtype=np.complex128)
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("oracle returned NaN or infinity")
        return rows, cols, values

    def charge_sweeps(self, sweeps: int) -> None:
        """Charge ``sweeps`` modelled triangle sweeps without reading the source.

        For a simulator that reuses one real sweep for several modelled ones
        whose values it already holds; each costs N(N+1)/2 calls, as in
        ``read_upper_triangle``.
        """
        if sweeps < 0:
            raise ValueError("sweep count must be non-negative")
        n = self.dim
        with self._lock:
            self._count += sweeps * (n * (n + 1) // 2)

    def report_calls(self) -> int:
        return self._count

    def materialize(self) -> np.ndarray:
        """Dense copy of the source, bypassing the counter.

        Reserved for classical baselines and verification; simulated
        pipelines must use ``query`` or ``read_upper_triangle``.
        """
        if self._matrix is not None:
            return self._matrix.copy()
        m, n = self._shape
        out = np.empty((m, n), dtype=np.complex128)
        for j in range(m):
            for k in range(n):
                out[j, k] = self._fn(j, k)
        return as_matrix(out)


def read_hermitian(oracle: MatrixOracle) -> np.ndarray:
    """Counted read of a Hermitian source: upper triangle plus diagonal.

    The lower triangle is filled by conjugation, so an N x N read costs
    N(N+1)/2 calls, the same per-sweep price the evolution steps pay; the
    diagonal holds the values as read. After the sweep is charged, a
    non-finite value, or a diagonal entry whose imaginary part exceeds
    ``DIAG_IMAG_TOL`` relative to max(1, |A[i,i]|), fails the read; the
    message names the first bad diagonal index. The result is Hermitian in
    the sense numpy's ``eigh`` reads: one triangle and the real diagonal.
    """
    rows, cols, values = oracle.read_upper_triangle()
    a = np.zeros((oracle.dim,) * 2, dtype=np.complex128)
    a[cols, rows] = np.conj(values)
    a[rows, cols] = values
    diag = a.diagonal()
    bad = np.abs(diag.imag) > DIAG_IMAG_TOL * np.maximum(1.0, np.abs(diag))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-Hermitian source: diagonal ({i},{i}) = {complex(diag[i])}")
    return a


def oracle_from_generator(name: str, params: dict[str, str]) -> MatrixOracle:
    """Named built-in oracle sources for the command line.

    random-lowrank: n, r [, scale, seed]   seeded Hermitian rank-r ensemble
    all-ones:       n                      A[j,k] = 1 (the plain swap case)
    diagonal:       values=a;b;...         diagonal matrix
    """
    from .linalg import random_low_rank

    if name == "all-ones":
        n = int(params["n"])
        if n < 1:
            raise ValueError(f"generator size n={n} must be >= 1")
        return MatrixOracle.from_matrix(np.ones((n, n), dtype=np.complex128))
    if name == "diagonal":
        vals = [float(v) for v in str(params["values"]).split(";")]
        return MatrixOracle.from_matrix(np.diag(np.array(vals, dtype=np.complex128)))
    if name == "random-lowrank":
        n = int(params["n"])
        r = int(params["r"])
        scale = float(params.get("scale", 1.0))
        seed = int(params.get("seed", 0))
        a = random_low_rank(n, r, scale, np.random.default_rng(seed))
        return MatrixOracle.from_matrix(a)
    raise ValueError(f"unknown generator '{name}'")


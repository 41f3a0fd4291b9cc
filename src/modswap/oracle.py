"""Call-counted element access to a matrix.

The oracle is the only sanctioned data path for the simulated pipelines, so
its counter is the simulator's query-complexity meter. Its source is one
dense array. ``query`` reads one element; ``read_upper_triangle`` reads one
whole sweep of the diagonal and upper triangle, and ``read_all`` one sweep
of every entry, each with a single counter update; ``charge_sweeps``
charges modelled sweeps whose values the caller already holds.

``read_hermitian`` is the one gate of the counted Hermitian path: every
counted Hermitian read goes through it, and it alone rejects a non-real
diagonal. The svd and Procrustes pipelines read their rectangular source
with ``read_all`` and embed it themselves (``svdx.embedding``).

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

    The source is a dense array checked by ``as_matrix``; a complex128 array
    is held without a copy, so later writes to it reach the oracle, and the
    counted reads check what they return. Out-of-range queries raise
    IndexError without touching the counter. Concurrent sweeps should each
    own their own instance (``fork``).
    """

    def __init__(self, a):
        self._matrix = as_matrix(a)
        self._count = 0
        self._lock = threading.Lock()

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def dim(self) -> int:
        m, n = self._matrix.shape
        if m != n:
            raise ValueError(f"oracle is not square: shape {self._matrix.shape}")
        return m

    def fork(self) -> "MatrixOracle":
        """Same source, fresh counter."""
        return MatrixOracle(self._matrix)

    def query(self, j: int, k: int) -> complex:
        """Return A[j, k]; one counted call."""
        m, n = self._matrix.shape
        if not (0 <= j < m and 0 <= k < n):
            raise IndexError(f"query ({j}, {k}) outside [0,{m}) x [0,{n})")
        with self._lock:
            self._count += 1
        return complex(self._matrix[j, k])

    def _charge_and_check(self, values: np.ndarray) -> np.ndarray:
        with self._lock:
            self._count += values.size
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("oracle returned NaN or infinity")
        return values

    def read_upper_triangle(self):
        """One counted sweep: (rows, cols, values) of the diagonal and upper triangle.

        Entries come in ``np.triu_indices`` (row-major) order. The sweep
        charges N(N+1)/2 calls with one locked increment; a non-finite value
        fails it after the charge.
        """
        rows, cols = np.triu_indices(self.dim)
        return rows, cols, self._charge_and_check(self._matrix[rows, cols])

    def read_all(self) -> np.ndarray:
        """One counted sweep of every entry: a copy of the M x N source.

        Charges M*N calls with one locked increment; a non-finite value fails
        the read after the charge, as in ``read_upper_triangle``.
        """
        return self._charge_and_check(self._matrix.copy())

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
        pipelines must use ``query``, ``read_upper_triangle`` or ``read_all``.
        """
        return self._matrix.copy()


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


def _values(text: str) -> list[float]:
    return [float(v) for v in text.split(";")]


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError("negative seed")
    return seed


# generator -> parameter -> (parser, default); a default of None marks a required one
_GENERATORS = {
    "all-ones": {"n": (int, None)},
    "diagonal": {"values": (_values, None)},
    "random-lowrank": {"n": (int, None), "r": (int, None),
                       "scale": (float, 1.0), "seed": (_seed, 0)},
}


def _generator_params(name: str, params: dict[str, str]) -> dict:
    """Parsed parameters of a generator spec; ValueError names the generator and the parameter."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator '{name}'")
    spec = _GENERATORS[name]
    for key in params:
        if key not in spec:
            raise ValueError(f"generator '{name}' takes no parameter '{key}' "
                             f"(takes {', '.join(spec)})")
    out = {}
    for key, (parse, default) in spec.items():
        if key not in params:
            if default is None:
                raise ValueError(f"generator '{name}' needs parameter '{key}'")
            out[key] = default
            continue
        try:
            out[key] = parse(params[key])
        except ValueError:
            raise ValueError(f"generator '{name}' parameter '{key}' is malformed: "
                             f"'{params[key]}'") from None
    return out


def oracle_from_generator(name: str, params: dict[str, str]) -> MatrixOracle:
    """Named built-in oracle sources for the command line.

    random-lowrank: n, r [, scale, seed]   seeded Hermitian rank-r ensemble
    all-ones:       n                      A[j,k] = 1 (the plain swap case)
    diagonal:       values=a;b;...         diagonal matrix
    """
    from .linalg import random_low_rank

    p = _generator_params(name, params)
    if name == "diagonal":
        return MatrixOracle(np.diag(np.array(p["values"], dtype=np.complex128)))
    if p["n"] < 1:
        raise ValueError(f"generator size n={p['n']} must be >= 1")
    if name == "all-ones":
        return MatrixOracle(np.ones((p["n"], p["n"]), dtype=np.complex128))
    a = random_low_rank(p["n"], p["r"], p["scale"], np.random.default_rng(p["seed"]))
    return MatrixOracle(a)

"""Call-counted element access to a matrix.

The oracle is the only sanctioned data path for the simulated pipelines, so
its counter is the simulator's query-complexity meter. Its source is one
dense array. ``query`` reads one element; ``read_upper_triangle`` reads one
whole sweep of the diagonal and upper triangle, and ``read_all`` one sweep
of every entry, each with a single counter update; ``charge_sweeps``
charges modelled sweeps whose values the caller already holds.

``read_hermitian`` is the one gate of the counted Hermitian path: every
counted Hermitian read goes through it. It first checks the whole source
where it lies with ``linalg.check_hermitian``, uncounted and without a
copy, so a source that is not square, not finite or not Hermitian within
``HERMITIAN_TOL`` is refused before any query. It then returns
``linalg.hermitian_from_upper`` of one triangle sweep, the same matrix the
uncounted gate ``linalg.require_hermitian`` returns for that source.
``qpe``, ``channel`` and ``swapop`` reach it through
``ModifiedSwapOperator.build_plan`` or ``qpe._read_exact`` and run no gate
of their own in front of it. The svd and Procrustes pipelines read their rectangular
source with ``read_all`` and embed it themselves (``svdx.embedding``).
Every counted read checks what it returns before it charges, so no read
charges for a source it refuses.

Classical baselines and verifiers go through ``materialize``, which reads
the source directly and does NOT count; reported call counts therefore
measure only the simulated-algorithm path.

``oracle_from_generator`` builds the command line's named sources; the
seeded ``random-lowrank`` is ``linalg.random_low_rank``, eigenvalues Theta(n).
"""

from __future__ import annotations

import threading

import numpy as np

from .linalg import as_matrix, check_hermitian, hermitian_from_upper, random_low_rank


class MatrixOracle:
    """Element oracle for an M x N matrix with a race-free query counter.

    The source is a dense array checked by ``as_matrix``, with no zero
    dimension; a complex128 array is held without a copy, so later writes to
    it reach the oracle, and the counted reads check what they return.
    Out-of-range queries raise IndexError without touching the counter.
    Concurrent sweeps should each own their own instance (``fork``).
    """

    def __init__(self, a):
        self._matrix = as_matrix(a)
        if not self._matrix.size:
            raise ValueError("empty matrix ({}x{})".format(*self._matrix.shape))
        self._count = 0
        self._lock = threading.Lock()

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def dim(self) -> int:
        m, n = self._matrix.shape
        if m != n:
            raise ValueError(f"matrix is not square ({m}x{n})")
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

    def _check_and_charge(self, values: np.ndarray, calls: int) -> np.ndarray:
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("oracle returned NaN or infinity")
        with self._lock:
            self._count += calls
        return values

    def read_upper_triangle(self) -> np.ndarray:
        """One counted sweep of the diagonal and upper triangle, as an N x N array.

        The array holds the source's diagonal and upper triangle and zeros
        below the diagonal. The sweep charges N(N+1)/2 calls with one locked
        increment; a non-finite value fails it before the charge.
        """
        n = self.dim
        return self._check_and_charge(np.triu(self._matrix), n * (n + 1) // 2)

    def read_all(self) -> np.ndarray:
        """One counted sweep of every entry: a copy of the M x N source.

        Charges M*N calls with one locked increment; a non-finite value fails
        the read before the charge, as in ``read_upper_triangle``.
        """
        return self._check_and_charge(self._matrix.copy(), self._matrix.size)

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
    """The gated counted read of a Hermitian source: ``hermitian_from_upper`` of one sweep.

    The source is first checked where it lies by ``linalg.check_hermitian``,
    uncounted and without a copy; a source that check refuses raises its
    ``ValueError`` before any query. Then one ``read_upper_triangle``
    sweep, so an N x N read costs N(N+1)/2 calls, the same per-sweep price
    the evolution steps pay. The result is exactly Hermitian, the matrix
    ``require_hermitian`` returns for the same source.
    """
    check_hermitian(oracle._matrix)
    return hermitian_from_upper(oracle.read_upper_triangle())


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
    "random-lowrank": {"n": (int, None), "r": (int, None), "seed": (_seed, 0)},
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

    random-lowrank: n, r [, seed]   seeded Hermitian rank-r ensemble, eigenvalues Theta(n)
    all-ones:       n               A[j,k] = 1 (the plain swap case)
    diagonal:       values=a;b;...  diagonal matrix
    """
    p = _generator_params(name, params)
    if name == "diagonal":
        return MatrixOracle(np.diag(np.array(p["values"], dtype=np.complex128)))
    if p["n"] < 1:
        raise ValueError(f"generator size n={p['n']} must be >= 1")
    if name == "all-ones":
        return MatrixOracle(np.ones((p["n"], p["n"]), dtype=np.complex128))
    a = random_low_rank(p["n"], p["r"], np.random.default_rng(p["seed"]))
    return MatrixOracle(a)

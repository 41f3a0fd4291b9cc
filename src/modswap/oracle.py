"""Call-counted element access to a matrix.

The oracle is the only sanctioned data path for the simulated pipelines, so
its counter is the simulator's query-complexity meter. Its source is one
dense array that the oracle owns: a C-ordered complex128 copy, checked
finite and non-empty once, when the oracle is built, and then read-only,
so no later write reaches it and no read checks it again. ``query`` reads
one element; ``read_upper_triangle`` reads one whole sweep of the diagonal
and upper triangle, and ``read_all`` one sweep of every entry;
``charge_sweeps`` charges modelled sweeps whose values the caller already
holds. All four charge through one locked counter update.

``read_hermitian`` is the one gate of the counted Hermitian path: every
counted Hermitian read goes through it. It first checks the whole source
where it lies with ``linalg.check_hermitian``, uncounted and without a
copy, so a source that is not square or not Hermitian within
``HERMITIAN_TOL`` is refused before any query. It then returns
``linalg.hermitian_from_upper`` of one triangle sweep, the same matrix the
uncounted gate ``linalg.require_hermitian`` returns for that source.
``qpe``, ``channel`` and ``swapop`` reach it through
``ModifiedSwapOperator.build_plan`` or ``qpe._read_exact`` and run no gate
of their own in front of it. The svd and Procrustes pipelines read their rectangular
source with ``read_all`` and embed it themselves (``linalg.embedding``).

Classical baselines and verifiers go through ``materialize``, which returns
the read-only source and does NOT count; reported call counts therefore
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

    The oracle owns a read-only, C-ordered complex128 copy of its source,
    checked by ``as_matrix`` when it is built; the caller's array is never
    read again. Out-of-range queries raise IndexError without touching the
    counter.
    """

    def __init__(self, a):
        self._matrix = as_matrix(np.array(a, dtype=np.complex128, order="C"))
        self._matrix.flags.writeable = False
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

    def _charge(self, calls: int) -> None:
        with self._lock:
            self._count += calls

    def query(self, j: int, k: int) -> complex:
        """Return A[j, k]; one counted call."""
        m, n = self._matrix.shape
        if not (0 <= j < m and 0 <= k < n):
            raise IndexError(f"query ({j}, {k}) outside [0,{m}) x [0,{n})")
        self._charge(1)
        return complex(self._matrix[j, k])

    def read_upper_triangle(self) -> np.ndarray:
        """One counted sweep of the diagonal and upper triangle, as an N x N array.

        The array holds the source's diagonal and upper triangle and zeros
        below the diagonal. The sweep charges N(N+1)/2 calls, one
        ``charge_sweeps`` sweep.
        """
        self.charge_sweeps(1)
        return np.triu(self._matrix)

    def read_all(self) -> np.ndarray:
        """One counted sweep of every entry: the read-only M x N source itself.

        Charges M*N calls.
        """
        self._charge(self._matrix.size)
        return self._matrix

    def charge_sweeps(self, sweeps: int) -> None:
        """Charge ``sweeps`` modelled triangle sweeps without reading the source.

        For a simulator that reuses one real sweep for several modelled ones
        whose values it already holds; each costs N(N+1)/2 calls, the price
        of one ``read_upper_triangle``.
        """
        if sweeps < 0:
            raise ValueError("sweep count must be non-negative")
        n = self.dim
        self._charge(sweeps * (n * (n + 1) // 2))

    def report_calls(self) -> int:
        return self._count

    def materialize(self) -> np.ndarray:
        """The read-only source itself, bypassing the counter.

        Reserved for classical baselines and verification; simulated
        pipelines must use ``query``, ``read_upper_triangle`` or ``read_all``.
        """
        return self._matrix


def read_hermitian(oracle: MatrixOracle) -> np.ndarray:
    """The gated counted read of a Hermitian source: ``hermitian_from_upper`` of one sweep.

    The source, checked finite when the oracle was built, is first checked
    where it lies by ``linalg.check_hermitian``, uncounted and without a
    copy; a source that check refuses raises its ``ValueError`` before any
    query. Then one ``read_upper_triangle`` sweep, so an N x N read costs
    N(N+1)/2 calls, the same per-sweep price the evolution steps pay. The result is exactly Hermitian, the matrix
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
        return MatrixOracle(np.diag(p["values"]))
    if p["n"] < 1:
        raise ValueError(f"generator size n={p['n']} must be >= 1")
    if name == "all-ones":
        return MatrixOracle(np.ones((p["n"], p["n"])))
    return MatrixOracle(random_low_rank(p["n"], p["r"], np.random.default_rng(p["seed"])))

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modswap.linalg import HERMITIAN_TOL, require_hermitian
from modswap.matio import load_matrix, save_matrix
from modswap.oracle import MatrixOracle, oracle_from_generator, read_hermitian
from modswap.qpe import QPEConfig, qpe
from modswap.swapop import ModifiedSwapOperator

from dense_refs import RecordingOracle, first_order_generator, random_hermitian


def test_identity_queries():
    oracle = MatrixOracle(np.eye(2))
    assert oracle.query(0, 0) == 1
    assert oracle.query(0, 1) == 0
    assert oracle.report_calls() == 2


def test_out_of_range_does_not_count():
    oracle = MatrixOracle(np.eye(2))
    with pytest.raises(IndexError):
        oracle.query(2, 0)
    with pytest.raises(IndexError):
        oracle.query(0, -1)
    assert oracle.report_calls() == 0


def test_query_matches_file_entry(tmp_path):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    path = tmp_path / "a.json"
    save_matrix(path, a)
    oracle = MatrixOracle(load_matrix(path))
    assert oracle.query(2, 3) == complex(a[2, 3])


def test_report_calls_counts_exactly():
    oracle = MatrixOracle(np.eye(3))
    assert oracle.report_calls() == 0
    for _ in range(5):
        oracle.query(1, 1)
    assert oracle.report_calls() == 5


def test_read_all_is_one_counted_copy():
    # one counted read of the oracle's own copy, made once when it was built
    a = np.arange(6).reshape(2, 3) + 1j
    oracle = MatrixOracle(a)
    values = oracle.read_all()
    np.testing.assert_array_equal(values, a)
    assert values.dtype == np.complex128 and values.flags.c_contiguous
    assert not np.shares_memory(values, a)
    assert oracle.report_calls() == 6
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 99
    dense = oracle.materialize()
    assert oracle.report_calls() == 6  # materialize is the uncounted path
    assert dense is values and oracle.read_all() is values  # no copy per read


def test_read_all_of_fortran_ordered_source():
    a = np.asfortranarray(np.arange(6).reshape(2, 3) + 1j)
    values = MatrixOracle(a).read_all()
    np.testing.assert_array_equal(values, a)
    assert values.flags.c_contiguous


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)],
                         ids=["nan", "inf", "-inf", "imaginary-nan"])
@pytest.mark.parametrize("shape", [(3, 3), (2, 3)], ids=["square", "rectangular"])
def test_non_finite_source_is_refused_at_construction(shape, bad):
    a = np.ones(shape, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix contains NaN or infinity$"):
        MatrixOracle(a)


def _refused_then_written_later(shape, bad):
    """Check that a source with ``bad`` in it is refused when the oracle is
    built; return an oracle of ones whose caller's array then gets ``bad``."""
    a = np.ones(shape, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix contains NaN or infinity$"):
        MatrixOracle(a)
    a[1, 2] = 1.0
    oracle = MatrixOracle(a)
    a[1, 2] = bad
    return oracle


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_read_all_rejects_non_finite_before_the_charge(bad):
    oracle = _refused_then_written_later((2, 3), bad)
    np.testing.assert_array_equal(oracle.read_all(), np.ones((2, 3)))
    assert oracle.report_calls() == 6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_upper_triangle_read_rejects_non_finite_before_the_charge(bad):
    oracle = _refused_then_written_later((3, 3), bad)
    np.testing.assert_array_equal(oracle.read_upper_triangle(), np.triu(np.ones((3, 3))))
    assert oracle.report_calls() == 6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_read_hermitian_rejects_non_finite(bad):
    oracle = _refused_then_written_later((3, 3), bad)
    np.testing.assert_array_equal(read_hermitian(oracle), np.ones((3, 3)))
    assert oracle.report_calls() == 6


def test_later_write_to_the_callers_array_reaches_no_read():
    rng = np.random.default_rng(43)
    a = random_hermitian(4, rng)
    clean = a.copy()
    oracle = MatrixOracle(a)
    a[...] = np.nan  # the oracle owns a copy: nothing it returns changes
    assert [oracle.query(j, k) for j in range(4) for k in range(4)] == list(clean.ravel())
    np.testing.assert_array_equal(oracle.read_upper_triangle(), np.triu(clean))
    np.testing.assert_array_equal(oracle.read_all(), clean)
    np.testing.assert_array_equal(read_hermitian(oracle), require_hermitian(clean))
    np.testing.assert_array_equal(oracle.materialize(), clean)
    for returned in (oracle.read_all(), oracle.materialize()):
        with pytest.raises(ValueError, match="read-only"):
            returned[0, 0] = 0.0
    np.testing.assert_array_equal(oracle.materialize(), clean)
    assert oracle.report_calls() == 16 + 10 + 16 + 10 + 16


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_source_is_refused(shape):
    with pytest.raises(ValueError, match=rf"^empty matrix \({shape[0]}x{shape[1]}\)$"):
        MatrixOracle(np.zeros(shape))


def test_determinism_identical_sequences():
    rng = np.random.default_rng(29)
    a = random_hermitian(3, rng)
    o1, o2 = MatrixOracle(a), MatrixOracle(a)
    seq = [(0, 1), (2, 2), (1, 0), (0, 1)]
    vals1 = [o1.query(j, k) for j, k in seq]
    vals2 = [o2.query(j, k) for j, k in seq]
    assert vals1 == vals2
    assert o1.report_calls() == o2.report_calls() == len(seq)


def test_concurrent_counting_is_race_free():
    oracle = MatrixOracle(np.eye(4))
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: oracle.query(1, 2), range(2000)))
    assert oracle.report_calls() == 2000


def test_read_hermitian_counts_triangle():
    rng = np.random.default_rng(41)
    a = random_hermitian(5, rng)
    oracle = MatrixOracle(a)
    dense = read_hermitian(oracle)
    np.testing.assert_allclose(dense, a, atol=1e-15)
    assert oracle.report_calls() == 5 * 6 // 2


_E0 = np.array([1, 0, 0], dtype=complex)
_GATED_READS = {
    "read_hermitian": read_hermitian,
    "build_plan": lambda o: ModifiedSwapOperator(o).build_plan(),
    "first_order_generator": lambda o: first_order_generator(o, np.eye(3) / 3),
    "exact-qpe": lambda o: qpe(o, _E0, QPEConfig(bits=2)),
    "trotter-qpe": lambda o: qpe(o, _E0, QPEConfig(bits=2, backend="trotter-channel",
                                                    trotter_epsilon=0.5)),
}


@pytest.mark.parametrize("entry", list(_GATED_READS))
def test_counted_read_accepts_diagonal_within_tolerance(entry):
    # max |A_jk| = 4.25, so the diagonal passes while 2 |Im A_ii| <= 4.25e-12
    imag = 0.99 * HERMITIAN_TOL * 4.25 / 2
    _GATED_READS[entry](MatrixOracle(np.diag([0.5, 4 + 1j * imag, -1.0]) + 0.25 * np.ones((3, 3))))


@st.composite
def _near_hermitian(draw):
    """Square sources both gates accept, at scales 1e-3 to 1e3: exactly
    Hermitian, within tolerance of it, real symmetric or diagonal."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["exact", "noisy", "real", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = 10.0 ** draw(st.floats(-3, 3)) * random_hermitian(n, rng)
    if kind == "real":
        return a.real
    if kind == "diagonal":
        return np.diag(np.diag(a))
    if kind == "noisy":
        # each entry moves by under HERMITIAN_TOL / 4 relative to max(1, max |A_jk|)
        tol = HERMITIAN_TOL / 4 * max(1.0, float(np.max(np.abs(a)))) / np.sqrt(2)
        a = a + tol * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
    return a


@settings(max_examples=200, deadline=None)
@given(_near_hermitian())
def test_both_gates_return_the_same_exactly_hermitian_matrix(a):
    uncounted = require_hermitian(a)
    counted = read_hermitian(MatrixOracle(a))
    assert np.array_equal(counted, uncounted)
    assert np.array_equal(counted, counted.conj().T)
    assert counted.dtype == np.complex128 and counted.flags.c_contiguous


@st.composite
def _perturbed(draw):
    """A ``_near_hermitian`` source as complex128, unchanged or pushed about the
    tolerance in one lower-triangle or diagonal entry, or widened by a column;
    returns (array, oracle)."""
    a = np.array(draw(_near_hermitian()), dtype=np.complex128)
    n = a.shape[0]
    kind = draw(st.sampled_from(["none", "entry", "non-square"]))
    j = draw(st.integers(0, n - 1))
    k = draw(st.integers(0, j))
    if kind == "entry":
        # about the tolerance, from half to twice it, real or imaginary
        step = draw(st.floats(0.5, 2.0)) * HERMITIAN_TOL * max(1.0, float(np.max(np.abs(a))))
        a[j, k] += step * draw(st.sampled_from([1, -1, 1j, -1j]))
    if kind == "non-square":
        a = np.hstack([a, a[:, :1]])
    return a, MatrixOracle(a)


@settings(max_examples=300, deadline=None)
@given(_perturbed())
def test_counted_read_refuses_exactly_what_the_uncounted_gate_refuses(case):
    a, oracle = case
    try:
        want = require_hermitian(oracle.materialize())
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_hermitian(oracle)
        assert str(info.value) == str(exc)
        assert oracle.report_calls() == 0
    else:
        assert np.array_equal(read_hermitian(oracle), want)
        assert oracle.report_calls() == a.shape[0] * (a.shape[0] + 1) // 2


@st.composite
def _sources(draw):
    n = draw(st.integers(1, 10))
    return draw(arrays(np.complex128, (n, n), elements=st.complex_numbers(
        max_magnitude=1e6, allow_nan=False, allow_infinity=False)))


@settings(max_examples=60, deadline=None)
@given(_sources())
def test_upper_triangle_read_matches_per_element_queries(a):
    n = a.shape[0]
    bulk, single = MatrixOracle(a), MatrixOracle(a)
    upper = bulk.read_upper_triangle()
    want = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(j, n):
            want[j, k] = single.query(j, k)
    assert upper.dtype == np.complex128 and upper.shape == (n, n)
    np.testing.assert_array_equal(upper, want)
    assert bulk.report_calls() == single.report_calls() == n * (n + 1) // 2


def test_charge_sweeps_counts_triangles_without_reading():
    oracle = RecordingOracle(np.zeros((3, 3)))
    oracle.charge_sweeps(4)
    oracle.charge_sweeps(0)
    assert oracle.report_calls() == 4 * 6
    with pytest.raises(ValueError, match="non-negative"):
        oracle.charge_sweeps(-1)
    assert oracle.report_calls() == 4 * 6
    assert oracle.reads == []


def test_charge_sweeps_needs_square_oracle():
    with pytest.raises(ValueError, match="not square"):
        MatrixOracle(np.ones((2, 3))).charge_sweeps(1)


def test_concurrent_sweeps_and_charges_are_race_free():
    oracle = MatrixOracle(np.eye(4))

    def work(i):
        if i % 2:
            oracle.read_upper_triangle()
        else:
            oracle.charge_sweeps(3)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(400), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert oracle.report_calls() == 200 * 10 + 200 * 3 * 10


def test_generator_all_ones():
    oracle = oracle_from_generator("all-ones:n=3")
    assert oracle.shape == (3, 3)
    assert oracle.query(2, 1) == 1


def test_generator_diagonal():
    oracle = oracle_from_generator("diagonal:values=1;2;3")
    assert oracle.query(1, 1) == 2
    assert oracle.query(0, 1) == 0


def test_generator_random_lowrank_seeded():
    o1 = oracle_from_generator("random-lowrank:n=6,r=2,seed=7")
    o2 = oracle_from_generator("random-lowrank:n=6,r=2,seed=7")
    assert np.array_equal(o1.materialize(), o2.materialize())


def test_generator_unknown_name():
    with pytest.raises(ValueError):
        oracle_from_generator("nope")


@pytest.mark.parametrize("spec, message", [
    ("random-lowrank:n=4,r=2,r=3,seed=1", "generator 'random-lowrank' repeats parameter 'r'"),
    ("random-lowrank:n=4,r", "malformed generator parameter 'r'"),
])
def test_generator_spec_syntax_is_refused(spec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle_from_generator(spec)


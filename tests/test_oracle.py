import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modswap.channel import first_order_generator
from modswap.matio import load_matrix, save_matrix
from modswap.oracle import MatrixOracle, oracle_from_generator, read_hermitian
from modswap.qpe import QPEConfig, qpe
from modswap.swapop import ModifiedSwapOperator

from dense_refs import random_hermitian


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
    a = np.arange(6).reshape(2, 3) + 1j
    oracle = MatrixOracle(a)
    values = oracle.read_all()
    np.testing.assert_array_equal(values, a)
    assert values.dtype == np.complex128 and values.flags.c_contiguous
    assert oracle.report_calls() == 6
    values[0, 0] = 99
    assert oracle.query(0, 0) == 1j  # a copy: the source is untouched
    dense = oracle.materialize()
    assert oracle.report_calls() == 7  # materialize is the uncounted path
    np.testing.assert_array_equal(dense, a)


def test_read_all_of_fortran_ordered_source():
    a = np.asfortranarray(np.arange(6).reshape(2, 3) + 1j)
    np.testing.assert_array_equal(MatrixOracle(a).read_all(), a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_read_all_rejects_non_finite_after_the_charge(bad):
    a = np.ones((2, 3), dtype=complex)
    oracle = MatrixOracle(a)
    a[1, 2] = bad  # the oracle holds the array itself, not a copy
    with pytest.raises(ValueError, match="NaN or infinity"):
        oracle.read_all()
    assert oracle.report_calls() == 6


def test_determinism_identical_sequences():
    rng = np.random.default_rng(29)
    a = random_hermitian(3, rng)
    o1, o2 = MatrixOracle(a), MatrixOracle(a)
    seq = [(0, 1), (2, 2), (1, 0), (0, 1)]
    vals1 = [o1.query(j, k) for j, k in seq]
    vals2 = [o2.query(j, k) for j, k in seq]
    assert vals1 == vals2
    assert o1.report_calls() == o2.report_calls() == len(seq)


def test_fork_resets_counter_not_source():
    oracle = MatrixOracle(np.eye(2))
    oracle.query(0, 0)
    fork = oracle.fork()
    assert fork.report_calls() == 0
    assert fork.query(0, 0) == 1
    assert oracle.report_calls() == 1


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_read_hermitian_rejects_non_finite(bad):
    a = np.ones((3, 3), dtype=complex)
    oracle = MatrixOracle(a)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or infinity"):
        read_hermitian(oracle)
    assert oracle.report_calls() == 3 * 4 // 2


# Every counted Hermitian read of the library, each reached from its own entry point.
_E0 = np.array([1, 0, 0], dtype=complex)
_GATED_READS = {
    "read_hermitian": read_hermitian,
    "build_plan": lambda o: ModifiedSwapOperator(o).build_plan(),
    "exact-qpe": lambda o: qpe(o, _E0, QPEConfig(bits=2)),
    "trotter-qpe": lambda o: qpe(o, _E0, QPEConfig(bits=2, backend="trotter-channel",
                                                    trotter_epsilon=0.5)),
    "first_order_generator": lambda o: first_order_generator(o, np.eye(3) / 3),
}


@pytest.mark.parametrize("entry", list(_GATED_READS))
def test_counted_read_rejects_non_real_diagonal_after_one_sweep(entry):
    a = np.diag([0.5, 1 + 1j, 1 + 1j]) + 0.25 * np.ones((3, 3))
    oracle = MatrixOracle(a)
    with pytest.raises(ValueError, match=r"^non-Hermitian source: diagonal \(1,1\) = "):
        _GATED_READS[entry](oracle)
    assert oracle.report_calls() == 3 * 4 // 2


@pytest.mark.parametrize("entry", list(_GATED_READS))
def test_counted_read_accepts_diagonal_within_tolerance(entry):
    a = np.diag([0.5, 1 + 1e-11j, -1.0]) + 0.25 * np.ones((3, 3))
    _GATED_READS[entry](MatrixOracle(a))


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
    rows, cols, values = bulk.read_upper_triangle()
    want_rows, want_cols = np.triu_indices(n)
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(cols, want_cols)
    want = np.array([single.query(j, k) for j, k in zip(rows.tolist(), cols.tolist())],
                    dtype=np.complex128)
    np.testing.assert_array_equal(values, want)
    assert bulk.report_calls() == single.report_calls() == n * (n + 1) // 2


def test_charge_sweeps_counts_triangles_without_reading():
    a = np.zeros((3, 3), dtype=complex)
    oracle = MatrixOracle(a)
    a[0, 1] = np.nan  # any read of the source would now fail
    oracle.charge_sweeps(4)
    oracle.charge_sweeps(0)
    assert oracle.report_calls() == 4 * 6
    with pytest.raises(ValueError, match="non-negative"):
        oracle.charge_sweeps(-1)
    assert oracle.report_calls() == 4 * 6


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
    oracle = oracle_from_generator("all-ones", {"n": "3"})
    assert oracle.shape == (3, 3)
    assert oracle.query(2, 1) == 1


def test_generator_diagonal():
    oracle = oracle_from_generator("diagonal", {"values": "1;2;3"})
    assert oracle.query(1, 1) == 2
    assert oracle.query(0, 1) == 0


def test_generator_random_lowrank_seeded():
    o1 = oracle_from_generator("random-lowrank", {"n": "6", "r": "2", "seed": "7"})
    o2 = oracle_from_generator("random-lowrank", {"n": "6", "r": "2", "seed": "7"})
    assert np.array_equal(o1.materialize(), o2.materialize())


def test_generator_unknown_name():
    with pytest.raises(ValueError):
        oracle_from_generator("nope", {})


import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from modswap.matio import (
    _complex_pairs,
    load_matrix,
    load_state,
    matrix_to_json_obj,
    save_matrix,
    save_state,
)

from dense_refs import complex_pairs_by_loop, matrix_to_json_obj_by_loop


def _awkward_matrix():
    # values chosen to stress shortest-repr round-tripping
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    a[0, 0] = 1 / 3 + 1j * np.pi
    a[1, 2] = -0.1 + 0.0j
    return a


def test_json_round_trip_exact(tmp_path):
    a = _awkward_matrix()
    path = tmp_path / "a.json"
    save_matrix(path, a)
    b = load_matrix(path)
    assert b.dtype == np.complex128
    assert np.array_equal(a, b)


def test_csv_round_trip_exact(tmp_path):
    a = _awkward_matrix()
    path = tmp_path / "a.csv"
    save_matrix(path, a)
    b = load_matrix(path)
    assert np.array_equal(a, b)


def test_json_layout_is_flat_row_major(tmp_path):
    a = np.array([[1 + 2j, 3], [4, 5 - 1j]], dtype=complex)
    path = tmp_path / "a.json"
    save_matrix(path, a)
    obj = json.loads(path.read_text())
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"][0] == [1.0, 2.0]
    assert obj["data"][1] == [3.0, 0.0]
    assert obj["data"][3] == [5.0, -1.0]


def test_json_rejects_wrong_length():
    with pytest.raises(ValueError):
        from modswap.matio import matrix_from_json_obj
        matrix_from_json_obj({"rows": 2, "cols": 2, "data": [[1, 0]]})


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (2, 0)])
def test_json_rejects_empty_matrix(tmp_path, rows, cols):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"rows": rows, "cols": cols, "data": []}))
    with pytest.raises(ValueError, match="empty matrix"):
        load_matrix(path)


def test_state_round_trip(tmp_path):
    psi = np.array([0.6, 0.8j], dtype=complex)
    path = tmp_path / "psi.json"
    save_state(path, psi)
    out = load_state(path)
    np.testing.assert_allclose(out, psi, atol=1e-15)


def test_state_rejects_matrix(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(2))
    with pytest.raises(ValueError):
        load_state(path)


def test_rewrite_is_byte_identical(tmp_path):
    a = _awkward_matrix()
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    save_matrix(p1, a)
    save_matrix(p2, load_matrix(p1))
    assert p1.read_bytes() == p2.read_bytes()


# signed zeros, subnormals (smallest and mid-range) and the largest finite values
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
            1.7976931348623157e308]
_REALS = st.one_of(st.sampled_from(_SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _complex_layouts(draw):
    """A finite complex matrix as C-ordered, Fortran-ordered or a strided view."""
    a = draw(arrays(np.complex128, array_shapes(min_dims=2, max_dims=2, max_side=5),
                    elements=st.builds(complex, _REALS, _REALS)))
    layout = draw(st.sampled_from(["C", "F", "column", "reversed-step"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "column":
        j = draw(st.integers(0, a.shape[1] - 1))
        return a[:, j:j + 1]
    if layout == "reversed-step":
        return a[::-1, ::2]
    return a


@settings(max_examples=200, deadline=None)
@given(_complex_layouts())
def test_complex_pairs_equal_per_element_loop(a):
    for values in (a, a[:, 0]):  # a[:, 0] is a strided 1-d column view
        fast, ref = _complex_pairs(values), complex_pairs_by_loop(values)
        assert fast == ref
        assert json.dumps(fast) == json.dumps(ref)  # also tells -0.0 from 0.0


@settings(max_examples=100, deadline=None)
@given(_complex_layouts())
def test_saved_matrix_bytes_equal_per_element_loop(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("pairs") / "a.json"
    save_matrix(path, a)
    ref = matrix_to_json_obj_by_loop(a)
    assert matrix_to_json_obj(a) == ref
    assert path.read_bytes() == (json.dumps(ref, sort_keys=True) + "\n").encode()

import json
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from modswap import matio
from modswap.cli import main
from modswap.matio import (
    _complex_pairs,
    _read_saved_layout,
    load_matrix,
    load_state,
    matrix_from_json_obj,
    matrix_to_json_obj,
    save_matrix,
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


@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
def test_save_refuses_empty_matrix_and_writes_nothing(tmp_path, suffix, shape):
    # load_matrix refuses an empty file, so none is written
    path = tmp_path / f"empty{suffix}"
    with pytest.raises(ValueError, match=r"^empty matrix"):
        save_matrix(path, np.zeros(shape, dtype=complex))
    assert not path.exists()


def test_state_round_trip(tmp_path):
    psi = np.array([0.6, 0.8j], dtype=complex)
    path = tmp_path / "psi.json"
    save_matrix(path, np.reshape(psi, (-1, 1)))
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
        pairs = _complex_pairs(values)
        assert pairs.dtype == np.float64 and pairs.flags.c_contiguous  # as orjson takes it
        fast, ref = pairs.tolist(), complex_pairs_by_loop(values)
        assert fast == ref
        assert json.dumps(fast) == json.dumps(ref)  # also tells -0.0 from 0.0


@settings(max_examples=100, deadline=None)
@given(_complex_layouts())
def test_saved_matrix_bytes_equal_per_element_loop(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("pairs") / "a.json"
    save_matrix(path, a)
    ref = matrix_to_json_obj_by_loop(a)
    obj = matrix_to_json_obj(a)
    assert {**obj, "data": obj["data"].tolist()} == ref
    raw = path.read_bytes()
    # the compact encoding of the loop's Python floats
    assert raw == orjson.dumps(ref, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    for loads in (json.loads, orjson.loads):
        back = loads(raw)
        assert (back["rows"], back["cols"]) == (ref["rows"], ref["cols"])
        assert repr(back["data"]) == repr(ref["data"])  # bit for bit: -0.0, subnormals
    fast = _read_saved_layout(raw)
    assert fast is not None
    assert fast.tobytes() == np.ascontiguousarray(a).tobytes()


def _stdlib_load(path):
    """load_matrix's result through the stdlib parser alone."""
    return matrix_from_json_obj(json.loads(path.read_bytes().decode()))


def _assert_same_array(fast, ref):
    assert fast.dtype == ref.dtype == np.complex128
    assert fast.shape == ref.shape
    assert fast.tobytes() == ref.tobytes()  # bit for bit: -0.0, subnormals


# integers of any width that stays inside the float range, exact or rounded
_ENTRIES = st.one_of(_REALS, st.integers(-2**64, 2**64),
                     st.integers(-10**308, 10**308))


# json.dumps separators of save_matrix's compact layout and of the spaced
# layout of older files
_SEPARATORS = {"compact": (",", ":"), "spaced": (", ", ": ")}
# json.dumps arguments of every layout the fast reader takes
_DUMPS_STYLES = {"compact": {"separators": _SEPARATORS["compact"]}, "spaced": {},
                 "indent-2": {"indent": 2}, "tab": {"indent": "\t"}}


@st.composite
def _saved_layouts(draw):
    """(rows, cols, data) of a file in save_matrix's layout, ints allowed."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.sampled_from([1, *range(1, 6)]))  # state columns twice as often
    data = draw(st.lists(st.lists(_ENTRIES, min_size=2, max_size=2),
                         min_size=rows * cols, max_size=rows * cols))
    return rows, cols, data


@settings(max_examples=300, deadline=None)
@given(_saved_layouts(), st.sampled_from(sorted(_DUMPS_STYLES)),
       st.permutations(["cols", "data", "rows"]), st.sampled_from(["", "\n", "\r\n"]),
       st.sampled_from([1, 7, matio._SLICE_BYTES]))
def test_saved_layout_equals_stdlib_parse(tmp_path_factory, layout, style, keys, ending,
                                          slice_bytes):
    # a slice of 1 byte cuts the data after every pair; "\r\n" ends every line
    rows, cols, data = layout
    values = {"rows": rows, "cols": cols, "data": data}
    text = json.dumps({key: values[key] for key in keys}, **_DUMPS_STYLES[style])
    if ending == "\r\n":
        text = text.replace("\n", ending)
    path = tmp_path_factory.mktemp("layout") / "a.json"
    path.write_bytes((text + ending).encode())
    with mock.patch.object(matio, "_SLICE_BYTES", slice_bytes):
        fast = _read_saved_layout(path.read_bytes())
    assert fast is not None
    _assert_same_array(fast, _stdlib_load(path))


def test_saved_layout_over_many_slices(tmp_path):
    rng = np.random.default_rng(41)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    a[::7, ::5] *= 1e-300  # subnormal and tiny entries among the slices
    path = tmp_path / "big.json"
    save_matrix(path, a)
    raw = path.read_bytes()
    assert len(raw) > 8 * matio._SLICE_BYTES
    fast = _read_saved_layout(raw)
    _assert_same_array(fast, _stdlib_load(path))
    _assert_same_array(load_matrix(path), fast)
    np.testing.assert_array_equal(fast, a)


_HUGE_INT = "1" + "0" * 400


def _layout_bytes(style: str, data: str, rows: int = 1, cols: int = 2) -> bytes:
    """A file in one layout; data is written spaced and respaced to the style."""
    comma, colon = _SEPARATORS[style]
    data = data.replace(", ", comma)
    return (f'{{"cols"{colon}{cols}{comma}"data"{colon}{data}{comma}"rows"{colon}{rows}}}\n'
            .encode())


def _entry_1(text: str) -> str:
    return f"data entry 1 is {text}, not a number pair (re, im)"


def _entry_0(text: str) -> str:
    return f"data entry 0 is {text}, not a number pair (re, im)"


def _json_error(raw: bytes) -> str:
    """The stdlib parser's message for raw, which differs between Python versions."""
    with pytest.raises((ValueError, RecursionError)) as info:
        json.loads(raw.decode())
    return str(info.value)


def _bad_files(style: str) -> dict:
    """Near-canonical files in one layout, each broken in one place, with the
    message the stdlib parser gives."""
    def layout(data, rows=1, cols=2):
        return _layout_bytes(style, data, rows, cols)

    comma, colon = _SEPARATORS[style]
    one_pair = layout("[[1.5, 0.0]]", 1, 1)
    trailing_comma = layout("[[1.5, 0.0], [1.5, 0.0], ]")
    # the stdlib keeps a repeated key's last value, so the array is not the data
    data_key_twice = (layout("[[1.5, 0.0], [1.5, 0.0]]")[:-2]
                      + f'{comma}"data"{colon}5}}\n'.encode())
    entry_before = layout("[[1.5, 0.0], 1.5[, 0.0]]")
    entry_after = layout("[[1.5, ]0.0, [1.5, 0.0]]")

    def without(key):
        fields = {"cols": "2", "data": f"[[1.5{comma}0.0]{comma}[1.5{comma}0.0]]", "rows": "1"}
        return ("{" + comma.join(f'"{k}"{colon}{v}' for k, v in fields.items() if k != key)
                + "}\n").encode()

    return {
        "nan": (layout("[[1.5, 0.0], [NaN, 0.0]]"), "{path}: matrix contains NaN or infinity"),
        "infinity": (layout("[[1.5, 0.0], [-Infinity, 0.0]]"),
                     "{path}: matrix contains NaN or infinity"),
        "true": (layout("[[1.5, 0.0], [true, 0.0]]"), _entry_1("[True, 0.0]")),
        "null": (layout("[[1.5, 0.0], [0.0, null]]"), _entry_1("[0.0, None]")),
        "string": (layout('[[1.5, 0.0], ["1", 0]]'), _entry_1("['1', 0]")),
        "one-element-pair": (layout("[[1.5, 0.0], [1.5]]"), _entry_1("[1.5]")),
        "three-element-pair": (layout("[[1.5, 0.0], [1.5, 0.0, 2.5]]"),
                               _entry_1("[1.5, 0.0, 2.5]")),
        "nested-pair": (layout("[[1.5, 0.0], [[1.5, 0.0], 0.0]]"),
                        _entry_1("[[1.5, 0.0], 0.0]")),
        # four numbers in two lists: a flat parse needs the per-pair delimiter check
        "three-then-one": (layout("[[1.5, 0.0, 2.5], [1.5]]"), _entry_0("[1.5, 0.0, 2.5]")),
        "one-then-three": (layout("[[1.5], [0.0, 2.5, 1.5]]"), _entry_0("[1.5]")),
        # the message is a format string: "{{}}" reads "{}"
        "object-entry": (layout("[[1.5, 0.0], [{}, 1]]"), _entry_1("[{{}}, 1]")),
        # the right delimiters in the right order, with an entry outside its pair
        "entry-before-bracket": (entry_before, "{path}: " + _json_error(entry_before)),
        "entry-after-bracket": (entry_after, "{path}: " + _json_error(entry_after)),
        "int-past-float-range": (layout(f"[[1.5, 0.0], [{_HUGE_INT}, 0]]"),
                                 _entry_1(f"[{_HUGE_INT}, 0]")),
        "too-few-pairs": (layout("[[1.5, 0.0]]"), "data length 1 != rows*cols = 2"),
        # long enough a body for two pairs, so only the pair count can refuse it
        "too-few-long-pairs": (layout("[[1.5000000000000002, 0.0]]"),
                               "data length 1 != rows*cols = 2"),
        "too-many-pairs": (layout("[[1.5, 0.0], [1.5, 0.0], [1.5, 0.0]]"),
                           "data length 3 != rows*cols = 2"),
        # 1e18 pairs claimed over one: refused before any allocation
        "huge-header": (layout("[[1.5, 0.0]]", 10**9, 10**9),
                        "data length 1 != rows*cols = 1000000000000000000"),
        "trailing-bytes": (one_pair + b"x",
                           f"{{path}}: Extra data: line 2 column 1 (char {len(one_pair)})"),
        "utf8-bom": (b"\xef\xbb\xbf" + one_pair,
                     "{path}: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                     "line 1 column 1 (char 0)"),
        # every pair parses, and the empty slice after the last comma is refused
        "trailing-comma": (trailing_comma, "{path}: " + _json_error(trailing_comma)),
        "bool-rows": (layout("[[1.5, 0.0], [1.5, 0.0]]", "true"),
                      "rows and cols must be integers, got True and 2"),
        "data-key-twice": (data_key_twice, "data must be a list of [re, im] pairs, not a int"),
        "missing-rows": (without("rows"), "matrix JSON is missing rows"),
        "missing-cols": (without("cols"), "matrix JSON is missing cols"),
        "missing-data": (without("data"), "matrix JSON is missing data"),
    }


# one layout's header with the other's pair separator
_MIXED_FILES = {
    "mixed-compact-header": (
        b'{"cols":2,"data":[[1.5,0.0], [1.5,0.0], [1.5,0.0]],"rows":1}\n',
        "data length 3 != rows*cols = 2"),
    "mixed-spaced-header": (
        b'{"cols": 2, "data": [[1.5, 0.0],[true, 0.0]], "rows": 1}\n',
        _entry_1("[True, 0.0]")),
}
# not UTF-8, not JSON, or nested too deep: the stdlib parser's error after the path
_UNREADABLE_FILES = {case: (raw, "{path}: " + _json_error(raw)) for case, raw in {
    "empty": b"",
    "not-utf8": b"\xff\xfe",
    "truncated": b'{"cols": 2, "data": [[1.5, 0.0], [0.0,',
    "nested-past-recursion-limit": b"[" * 100_000,
}.items()}
# the spaced cases keep the bare names they had before the compact layout
_ALL_BAD_FILES = {**_bad_files("spaced"),
                  **{f"compact-{case}": entry for case, entry in _bad_files("compact").items()},
                  **_MIXED_FILES, **_UNREADABLE_FILES}


@pytest.mark.parametrize("slice_bytes", [1, matio._SLICE_BYTES])
@pytest.mark.parametrize("case", sorted(_ALL_BAD_FILES))
def test_bad_saved_layout_falls_back_to_stdlib_message(tmp_path, case, slice_bytes):
    raw, message = _ALL_BAD_FILES[case]
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with mock.patch.object(matio, "_SLICE_BYTES", slice_bytes):
        assert _read_saved_layout(raw) is None
        with pytest.raises(ValueError) as info:
            load_matrix(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("raw", [
    b'{"cols":1,"data":[[1.5,0.0], [-0.0,2.5]],"rows":2}\n',
    b'{"cols": 1, "data": [[1.5, 0.0],[-0.0, 2.5]], "rows": 2}\n',
    b'{"rows" :2,\r\n "data":[ [1.5 ,0.0] ,\t[-0.0,2.5]\n],"cols": 1}',
], ids=["compact-header", "spaced-header", "shuffled-keys-crlf-tab"])
def test_mixed_layout_takes_fast_path(tmp_path, raw):
    path = tmp_path / "mixed.json"
    path.write_bytes(raw)
    expected = np.array([[1.5], [complex(-0.0, 2.5)]])
    for slice_bytes in (1, matio._SLICE_BYTES):
        with mock.patch.object(matio, "_SLICE_BYTES", slice_bytes):
            fast = _read_saved_layout(raw)
        assert fast is not None
        _assert_same_array(fast, _stdlib_load(path))
        _assert_same_array(fast, expected)
    _assert_same_array(load_matrix(path), expected)


def test_every_benchmark_input_takes_fast_path(tmp_path, bench_workloads):
    # a benchmark input that fell to the stdlib parser would time that parser instead
    for workload in bench_workloads.WORKLOADS:
        inputs = tmp_path / workload
        inputs.mkdir()
        bench_workloads.make_inputs(workload, 9, inputs, main, small=True)
        paths = sorted(inputs.glob("*.json"))
        assert paths
        for path in paths:
            fast = _read_saved_layout(path.read_bytes())
            assert fast is not None, path.name
            _assert_same_array(fast, _stdlib_load(path))


_SPACES = st.sampled_from(["", " ", "\n  ", "\t", "\r\n"])


@st.composite
def _regrouped_files(draw):
    """(file bytes, well-formed) of a file whose 2*rows*cols numbers are
    grouped into lists of drawn lengths, whitespace drawn around every token.

    Some brackets move past the number beside them ("1.5[, 0.0]"), so that a
    list's delimiters stay in order with an entry outside it. The file is
    well formed when every list is a pair and no bracket moved.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    numbers = [json.dumps(x) for x in draw(st.lists(_ENTRIES, min_size=2 * rows * cols,
                                                    max_size=2 * rows * cols))]
    cuts = sorted(draw(st.lists(st.integers(0, len(numbers)), max_size=len(numbers) + 2)))
    bounds = [0, *cuts, len(numbers)]
    groups, well_formed = [], True
    for lo, hi in zip(bounds, bounds[1:]):
        items = [draw(_SPACES) + x + draw(_SPACES) for x in numbers[lo:hi]]
        moved = draw(st.sampled_from(["", "", "", "open", "close"])) if items else ""
        if moved == "open":  # the first number before the "["
            text = items[0] + "[" + ",".join([""] + items[1:]) + "]"
        elif moved == "close":  # the last number after the "]"
            text = "[" + ",".join(items[:-1] + [""]) + "]" + items[-1]
        else:
            text = "[" + ",".join(items) + "]"
        groups.append(text)
        well_formed &= hi - lo == 2 and not moved
    data = "[" + draw(_SPACES) + ",".join(g + draw(_SPACES) for g in groups) + "]"
    return f'{{"cols": {cols}, "data": {data}, "rows": {rows}}}'.encode(), well_formed


@settings(max_examples=400, deadline=None)
@given(_regrouped_files(), st.sampled_from([1, 7, 64, matio._SLICE_BYTES]))
def test_regrouped_numbers_read_as_stdlib_or_not_at_all(tmp_path_factory, drawn, slice_bytes):
    # a flat parse sees the right count of numbers however they are grouped;
    # only the delimiter check keeps it from reading a file json refuses
    raw, well_formed = drawn
    path = tmp_path_factory.mktemp("regrouped") / "a.json"
    path.write_bytes(raw)
    with mock.patch.object(matio, "_SLICE_BYTES", slice_bytes):
        fast = _read_saved_layout(raw)
    try:
        ref = _stdlib_load(path)
    except ValueError:
        ref = None
    assert (fast is not None) == well_formed
    if fast is not None:
        _assert_same_array(fast, ref)


@pytest.mark.parametrize("bad_pair", ["[{re}, ]{im}", "{re}[, {im}]", "[{re}, {im}, 0]"])
def test_bad_pair_in_a_long_slice_falls_back(tmp_path, bad_pair):
    # past 4 KB a slice's pair joins are counted with numpy rather than bytes.count
    pairs = [f"[{k}.5, -{k}.25]" for k in range(1000)]
    good = f'{{"cols": 1000, "data": [{", ".join(pairs)}], "rows": 1}}'.encode()
    pairs[500] = bad_pair.format(re="500.5", im="-500.25")
    bad = f'{{"cols": 1000, "data": [{", ".join(pairs)}], "rows": 1}}'.encode()
    assert 1 << 12 < len(bad) < matio._SLICE_BYTES  # one slice
    path = tmp_path / "a.json"
    path.write_bytes(good)
    _assert_same_array(_read_saved_layout(good), _stdlib_load(path))
    path.write_bytes(bad)
    assert _read_saved_layout(bad) is None
    with pytest.raises(ValueError):
        load_matrix(path)


def test_reader_memory_is_bounded_by_the_slices(tmp_path):
    # the output's 16 N^2 bytes and a few slices' worth of buffers: a copy of
    # the whole 2.7 MB data array, or a Python object per pair, would not fit
    n = 256
    rng = np.random.default_rng(43)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = tmp_path / "big.json"
    save_matrix(path, a)
    raw = path.read_bytes()
    tracemalloc.start()
    try:
        fast = _read_saved_layout(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(fast, a)
    assert len(raw) > 10 * matio._SLICE_BYTES
    assert peak < 16 * n * n + 6 * matio._SLICE_BYTES, peak

"""Matrix and state file round-trip, and the one JSON writer of the CLI.

Two formats, both exact round-trip (shortest-repr float serialization is
bit-faithful for doubles):

* JSON: {"cols": N, "data": [[re, im], ...], "rows": M} with data a flat
  row-major list of M*N [re, im] pairs.
* CSV: M rows of N cells, each cell the string "re,im" (quoted by the csv
  module because of the embedded comma).

States are stored as single-column matrices. A file that does not follow
its format raises ``ValueError`` naming the first bad entry; the loader
converts the entries in one pass and looks for the culprit only after that
pass fails. A CSV row whose cell count differs from the first row's, a
blank line included, raises ``ValueError`` naming the row and both counts,
and a row the ``csv`` module refuses (a cell longer than its field limit
of 131072 characters, for one) raises ``ValueError`` naming the row and
that module's message.
A NaN or infinite entry raises ``ValueError`` as well.

``_write_json`` writes every JSON file: matrix files and the CLI's result
envelopes. It owns their encoding: one walk, ``_json_ready``, makes each
numpy array C-contiguous, each complex array the float64 [re, im] pairs
of its entries along a new last axis, and each NamedTuple an object, and
one orjson call writes the result, numpy arrays included, so no Python
list of a matrix, state or distribution is built. The output is one line
with sorted keys, no spaces and a closing newline; floats take orjson's
shortest round-trip spelling (``0.00001``, ``1e16``), which reads back bit
for bit through both ``json`` and orjson. A NaN or an infinity, which JSON
cannot hold, or an integer outside 64 bits, which orjson cannot write,
raises ``ValueError`` naming its key, and no file is written.

A JSON matrix file holds one array, its data, so the data runs from the
file's first ``[`` to its last ``]``. The loader reads every such file, in
any key order and any spacing, with orjson: the header is the file with
that array emptied, and must hold exactly the keys cols, data and rows,
with integer counts of at least 1. The data is cut into slices of about
256 KB, each just after a pair's ``],``. A slice is taken only when it
holds no ``"``, ``u`` or ``f`` byte, so no string, boolean or null, and
when its delimiters frame its pairs: with whitespace removed, its ``[``,
``]`` and ``,`` bytes alone read ``[,],`` repeated, ending ``[,]``, and
each ``]`` but the last is followed at once by ``,[``. The slice is then
parsed as one flat orjson list of numbers, its brackets blanked, and
copied into one preallocated array, with the same values as the stdlib
parser and no Python list of the whole file or of any pair. The
delimiter check is what keeps the pairing a flat parse cannot see:
``[1.5,0.0,2.5],[1.5]`` holds the right count of numbers. On a 2.7 MB
N = 256 file this read takes about 15 ms, where parsing each slice as
nested pair lists took about 22 ms (shared 2-vCPU machine, medians).
Every other file, and every file with a slice that orjson refuses (NaN,
Infinity, an integer past the float range) or that is not a list of
number pairs of the header's count, goes whole through the stdlib
parser, so the accepted values and the error messages are those of
``json``; a file that is not UTF-8, not JSON, or nested past the
parser's recursion limit raises ``ValueError`` with that parser's message
after the file's path.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .linalg import as_matrix, unit_scale


def matrix_to_json_obj(a) -> dict:
    a = as_matrix(a)
    m, n = a.shape
    return {"rows": m, "cols": n, "data": a.reshape(-1)}


def _json_ready(value, key: str):
    """value as ``_write_json`` hands it to orjson; ValueError names key if it
    holds a number JSON output cannot carry: a NaN, an infinity, or an
    integer outside [-2^63, 2^64 - 1].

    Each ndarray becomes C-contiguous, a complex one the float64 [re, im]
    pairs of its entries along a new last axis (a view of a complex128 copy,
    made only when it is not one already), and a NamedTuple an object.
    """
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: _json_ready(v, f"{key}.{k}" if key else k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item, key) for item in value]
    if isinstance(value, float) and not math.isfinite(value) or (
            isinstance(value, np.ndarray) and not np.isfinite(value).all()):
        raise ValueError(f"{key} holds NaN or infinity, which JSON cannot represent")
    if isinstance(value, int) and not -(1 << 63) <= value < 1 << 64:
        raise ValueError(f"{key} holds {value}, outside the 64-bit integer range")
    if isinstance(value, np.ndarray):
        value = np.asarray(value, np.complex128 if np.iscomplexobj(value) else None, order="C")
        return value.view(np.float64).reshape(*value.shape, 2) if np.iscomplexobj(value) else value
    return value


def _write_json(path, obj: dict) -> None:
    """Write obj as one line of JSON: sorted keys, no spaces, a closing newline.

    obj goes through ``_json_ready`` first, so it may hold numpy arrays of
    any layout, complex ones included, and NamedTuples; nothing is written
    if it holds a number that function refuses.
    """
    import orjson

    Path(path).write_bytes(orjson.dumps(_json_ready(obj, ""), option=orjson.OPT_SERIALIZE_NUMPY
                                        | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE))


def _json_entry(entry) -> complex:
    re, im = entry
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("a JSON boolean is not a number")
    return complex(re, im)


def _csv_cell(cell: str) -> complex:
    re, im = cell.split(",")
    return complex(float(re), float(im))


def _is_integral(value) -> bool:
    """True for a JSON integer or an integral float; false for bools and fractions."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value % 1 == 0


def _first_bad(items, convert, what: str) -> ValueError:
    """The error naming the first of ``items`` that ``convert`` rejects."""
    for index, item in enumerate(items):
        try:
            convert(item)
        except (TypeError, ValueError, OverflowError):
            return ValueError(f"{what} {index} is {item!r}, not a number pair (re, im)")
    return ValueError(f"malformed {what} list")


def matrix_from_json_obj(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON must be an object with rows, cols and data, "
                         f"not a {type(obj).__name__}")
    missing = [key for key in ("rows", "cols", "data") if key not in obj]
    if missing:
        raise ValueError(f"matrix JSON is missing {' and '.join(missing)}")
    m, n = obj["rows"], obj["cols"]
    if not (_is_integral(m) and _is_integral(n)):
        raise ValueError(f"rows and cols must be integers, got {m!r} and {n!r}")
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValueError(f"empty matrix: rows={m}, cols={n}")
    data = obj["data"]
    if not isinstance(data, list):
        raise ValueError(f"data must be a list of [re, im] pairs, not a {type(data).__name__}")
    if len(data) != m * n:
        raise ValueError(f"data length {len(data)} != rows*cols = {m * n}")
    try:
        flat = np.array([_json_entry(entry) for entry in data], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):  # an int too large for a float
        raise _first_bad(data, _json_entry, "data entry") from None
    return flat.reshape(m, n)


def save_matrix(path, a) -> None:
    """Write a matrix file; format chosen by extension (.csv, else JSON)."""
    path = Path(path)
    a = as_matrix(a)
    if path.suffix.lower() == ".csv":
        import csv

        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in a:
                writer.writerow([f"{float(z.real)!r},{float(z.imag)!r}" for z in row])
    else:
        _write_json(path, matrix_to_json_obj(a))


_SLICE_BYTES = 1 << 18
_WHITESPACE = b" \t\n\r"
_NOT_DELIMITER = bytes(c for c in range(256) if c not in b"[],")
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _pair_count(chunk: bytes) -> int:
    """How many pairs chunk holds if its delimiters frame them; else 0.

    With whitespace removed, chunk must read "[a,b],[c,d],...,[y,z]": its
    "[", "]" and "," bytes alone must be "[,]," repeated, ending "[,]", and
    each "]" but the last must be followed by ",[" at once, so that no entry
    stands outside its brackets. Whether each of a, b, ... is one number is
    left to the parse of chunk with its brackets blanked.
    """
    if any(space in chunk for space in _WHITESPACE):
        chunk = chunk.translate(None, _WHITESPACE)
    delimiters = chunk.translate(None, _NOT_DELIMITER)
    pairs = (len(delimiters) + 1) // 4
    if (delimiters != b"[,]," * (pairs - 1) + b"[,]"
            or chunk[:1] != b"[" or chunk[-1:] != b"]"):
        return 0
    if len(chunk) < 1 << 12:
        joins = chunk.count(b"],[")
    else:  # about 1 ns a byte for bytes.count, a fifth of that in numpy
        # a "]" two bytes before a "[": the delimiters above put a "," between
        text = np.frombuffer(chunk, np.uint8)
        joins = np.count_nonzero((text[:-2] == ord("]")) & (text[2:] == ord("[")))
    return pairs if joins == pairs - 1 else 0


def _read_saved_layout(raw: bytes) -> np.ndarray | None:
    """The matrix of a JSON matrix file read by orjson in slices, else None.

    The data array runs from the first "[" to the last "]". The rest of the
    file, with that array emptied, must parse to exactly {"cols": N,
    "data": [], "rows": M} with integer counts of at least 1. The array is
    cut into slices just after a pair's "]," and each slice whose
    delimiters frame its pairs (``_pair_count``) is parsed as one flat
    number list, its brackets blanked, straight into one 2*M*N float64
    array, allocated only once the array is long enough to hold M*N pairs.
    None leaves the file to the stdlib parser, which then accepts it with
    the same values or rejects it.
    """
    import orjson

    first, last = raw.find(b"["), raw.rfind(b"]")
    if first < 0 or last < first:
        return None
    try:
        head = orjson.loads(raw[:first] + b"[]" + raw[last + 1:])
    except orjson.JSONDecodeError:
        return None
    if not (isinstance(head, dict) and head.keys() == {"cols", "data", "rows"}
            and head["data"] == []):
        return None
    m, n = head["rows"], head["cols"]
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:  # bool is not int
        return None
    count = m * n
    if last - first < 6 * count:  # "[0,0]," is the shortest pair
        return None
    out = np.empty(2 * count)
    filled, start = 0, first + 1
    while True:
        cut = raw.find(b"],", start + _SLICE_BYTES, last)
        stop = last if cut < 0 else cut + 1
        chunk = raw[start:stop]
        if b'"' in chunk or b"u" in chunk or b"f" in chunk:
            return None
        pairs = _pair_count(chunk)
        if not pairs or filled + pairs > count:
            return None
        try:
            out[2 * filled:2 * (filled + pairs)] = np.fromiter(
                orjson.loads(b"[%b]" % chunk.translate(_BRACKETS_TO_SPACES)), np.float64)
        except (orjson.JSONDecodeError, TypeError, ValueError):
            return None
        filled += pairs
        if cut < 0:
            break
        start = stop + 1  # past the comma, so a trailing comma leaves an empty slice
    if filled != count:
        return None
    return out.view(np.complex128).reshape(m, n)


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        import csv

        rows = []
        with path.open(newline="") as fh:
            try:
                for line, record in enumerate(csv.reader(fh), 1):
                    if rows and len(record) != len(rows[0]):
                        raise ValueError(f"{path}: row {line} has {len(record)} cells, "
                                         f"row 1 has {len(rows[0])}")
                    try:
                        rows.append([_csv_cell(cell) for cell in record])
                    except (TypeError, ValueError):
                        raise _first_bad(record, _csv_cell,
                                         f"{path}: row {line}, cell") from None
            except csv.Error as exc:  # a cell past the field limit, for one
                raise ValueError(f"{path}: row {len(rows) + 1}: {exc}") from None
        if not rows or not rows[0]:
            raise ValueError(f"empty matrix file: {path}")
        a = np.array(rows, dtype=np.complex128)
    else:
        raw = path.read_bytes()
        a = _read_saved_layout(raw)
        if a is None:
            import json

            try:
                obj = json.loads(raw.decode())
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
                raise ValueError(f"{path}: {exc}") from None
            a = matrix_from_json_obj(obj)
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: matrix contains NaN or infinity")
    return a


def load_state(path) -> np.ndarray:
    """Load a pure state stored as a single-column (or single-row) matrix."""
    return _state_from_matrix(load_matrix(path))


def _state_from_matrix(a) -> np.ndarray:
    """The normalized pure state a loaded single-column (or single-row) matrix holds.

    Normalized after ``linalg.unit_scale``, so entries near either end of
    the float range neither overflow nor underflow the norm; the scaling is
    exact, so any other state is the same bits.
    """
    if 1 not in a.shape:
        raise ValueError(f"state file must be a vector, got shape {a.shape}")
    psi, _ = unit_scale(a.reshape(-1))
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("state file holds the zero vector")
    return psi / nrm


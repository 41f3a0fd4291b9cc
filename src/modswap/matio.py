"""Matrix and state file round-trip.

Two formats, both exact round-trip (Python's shortest-repr float
serialization is bit-faithful for doubles):

* JSON: {"rows": M, "cols": N, "data": [[re, im], ...]} with data a flat
  row-major list of M*N [re, im] pairs.
* CSV: M rows of N cells, each cell the string "re,im" (quoted by the csv
  module because of the embedded comma).

States are stored as single-column matrices. A file that does not follow
its format raises ``ValueError`` naming the first bad entry; the loader
converts the entries in one pass and looks for the culprit only after that
pass fails. A NaN or infinite entry raises ``ValueError`` as well.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .linalg import as_matrix


def _complex_pairs(values) -> list:
    """[re, im] Python-float pairs of the entries of values, in row-major order.

    One ``tolist`` over the float64 view; the contiguous copy lets strided
    views (matrix columns) and Fortran-ordered arrays through.
    """
    flat = np.ascontiguousarray(values, dtype=np.complex128)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def matrix_to_json_obj(a) -> dict:
    a = as_matrix(a)
    m, n = a.shape
    return {"rows": m, "cols": n, "data": _complex_pairs(a)}


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
        except (TypeError, ValueError):
            return ValueError(f"{what} {index} is {item!r}, not a number pair (re, im)")
    return ValueError(f"malformed {what} list")


def matrix_from_json_obj(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON must be an object with rows, cols and data, "
                         f"not a {type(obj).__name__}")
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
        # the same conversion as _json_entry, inline: no call per entry
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except (TypeError, ValueError):
        raise _first_bad(data, _json_entry, "data entry") from None
    return flat.reshape(m, n)


def save_matrix(path, a) -> None:
    """Write a matrix file; format chosen by extension (.csv, else JSON)."""
    path = Path(path)
    a = as_matrix(a)
    if path.suffix.lower() == ".csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in a:
                writer.writerow([f"{float(z.real)!r},{float(z.imag)!r}" for z in row])
    else:
        path.write_text(json.dumps(matrix_to_json_obj(a), sort_keys=True) + "\n")


def _read_json(path: Path):
    """The parsed file, and whether its text may hold a JSON boolean.

    complex() reads a boolean as 0 or 1, so the loader scans the data for
    one, but only in a file whose text holds a "u" or an "f": every true and
    false does, and no finite number or key of a matrix file does.
    """
    text = path.read_text()
    return json.loads(text), "u" in text or "f" in text


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = []
        with path.open(newline="") as fh:
            for line, record in enumerate(csv.reader(fh), 1):
                try:
                    rows.append([_csv_cell(cell) for cell in record])
                except (TypeError, ValueError):
                    raise _first_bad(record, _csv_cell, f"{path}: row {line}, cell") from None
        if not rows:
            raise ValueError(f"empty matrix file: {path}")
        a = np.array(rows, dtype=np.complex128)
    else:
        obj, may_hold_bool = _read_json(path)
        a = matrix_from_json_obj(obj)
        if may_hold_bool and any(
                isinstance(x, bool) for entry in obj["data"] for x in entry):
            raise _first_bad(obj["data"], _json_entry, "data entry")
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: matrix contains NaN or infinity")
    return a


def load_state(path) -> np.ndarray:
    """Load a pure state stored as a single-column (or single-row) matrix."""
    a = load_matrix(path)
    if 1 not in a.shape:
        raise ValueError(f"state file must be a vector, got shape {a.shape}")
    psi = a.reshape(-1)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("state file holds the zero vector")
    return psi / nrm


def save_state(path, psi) -> None:
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1, 1)
    save_matrix(path, psi)

"""JSON and CSV serialization for matrices, families, and rank-distance codes.

File formats
------------

Single matrix (JSON)::

    {"h": 6, "rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]}

Family of matrices (JSON) — used for cliques and codes::

    {"h": 6, "rows": 2, "cols": 2, "members": [[[1, 2], [3, 4]], ...]}

Code files add top-level metadata next to ``members``::

    {..., "size": 36, "claimed_min_distance": 2,
     "verified_min_distance": 2, "linear": true, "basis": [...]}

``verified_min_distance`` is ``null`` when unknown or infinite (singleton
code).  CSV files carry one matrix per line, entries row-major, comma
separated; shape and modulus must then be supplied out of band.

A family is read into, and written from, flat row-major entry tuples, with
its ring and shape kept once.  A read checks a whole family at once (shapes,
types, then range by min/max); only when that fails does the ordered
per-entry scan run, so the first fault keeps its own message.  A write puts
each regular nested list of plain ints (a row, a matrix, a list of matrices)
through one template per shape.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any, Iterable

from .errors import UsageError
from .matrix import Mat, _check_dims
from .ring import RingSpec, ring_spec


def _int_array(seq: list) -> tuple[tuple[int, ...], list] | None:
    """Shape and row-major entries of a regular nested list of plain ints, else None."""
    shape = [len(seq)]
    while (kinds := set(map(type, seq))) != {int}:
        lens = set(map(len, seq)) if kinds <= {list, tuple} else ()
        if len(lens) != 1:
            return None
        shape += lens
        seq = list(chain.from_iterable(seq))
    return tuple(shape), seq


def _template(shape: tuple[int, ...], indent: int) -> str:
    """The ``str.format`` template of a nested int list of this shape."""
    if len(shape) == 1:
        return "[" + ", ".join(["{}"] * shape[0]) + "]"
    item = "  " * (indent + 1) + _template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + "  " * indent + "]"


def dumps_compact(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, scalar lists kept on one line."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_compact(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        arr = _int_array(seq)
        if arr is not None:
            return _template(arr[0], indent).format(*arr[1])
        if all(not isinstance(x, (list, tuple, dict)) for x in seq):
            return json.dumps(seq)
        items = [f"{inner}{dumps_compact(x, indent + 1)}" for x in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def _entries_from_rows(ring: RingSpec, rows: int, cols: int, obj: Any,
                       what: str) -> tuple[int, ...]:
    _require(isinstance(obj, (list, tuple)) and len(obj) == rows,
             f"{what} must be a list of {rows} rows")
    flat: list[int] = []
    for row in obj:
        _require(isinstance(row, (list, tuple)) and len(row) == cols,
                 f"each row of {what} must have {cols} entries")
        for e in row:
            v = _as_int(e, f"entry of {what}")
            _require(0 <= v < ring.h,
                     f"entry {v} of {what} out of range for modulus {ring.h}")
            flat.append(v)
    return tuple(flat)


def _entry_tuples(ring: RingSpec, rows: int, cols: int, items: list, what: str) -> list[tuple[int, ...]]:
    """The entry tuples of the matrices in items, all checked in one step; the per-entry scan runs only on a fault."""
    shape, flat = _int_array(items) or ((), ())
    if shape == (len(items), rows, cols) and min(flat) >= 0 and max(flat) < ring.h:
        return list(zip(*[iter(flat)] * (rows * cols)))  # runs of rows*cols entries
    return [_entries_from_rows(ring, rows, cols, item, what) for item in items]


# ---------------------------------------------------------------------------
# single matrix
# ---------------------------------------------------------------------------

def _shape_from_obj(obj: Any, kind: str, body: str, expect_h: int | None) -> tuple[RingSpec, int, int]:
    """Ring and shape of a matrix or family object, checked."""
    _require(isinstance(obj, dict), f"{kind} object must be a JSON object")
    for key in ("h", "rows", "cols", body):
        _require(key in obj, f"{kind} object missing key {key!r}")
    h = _as_int(obj["h"], "h")
    if expect_h is not None:
        _require(h == expect_h,
                 f"{kind} modulus {h} does not match requested modulus {expect_h}")
    ring = ring_spec(h)
    rows = _as_int(obj["rows"], "rows")
    cols = _as_int(obj["cols"], "cols")
    _require(rows >= 1 and cols >= 1, "rows and cols must be positive")
    return ring, rows, cols


def matrix_from_obj(obj: Any, expect_h: int | None = None) -> Mat:
    ring, rows, cols = _shape_from_obj(obj, "matrix", "entries", expect_h)
    return Mat._new(ring, rows, cols, _entry_tuples(ring, rows, cols, [obj["entries"]], "entries")[0])


def load_matrix(path: str, expect_h: int | None = None) -> Mat:
    return matrix_from_obj(_load_json(path), expect_h=expect_h)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int past the digit limit
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV matrices (one matrix per line, row-major)
# ---------------------------------------------------------------------------

def matrix_from_csv_line(ring: RingSpec, rows: int, cols: int, line: str) -> Mat:
    parts = [p.strip() for p in line.strip().split(",") if p.strip() != ""]
    _require(len(parts) == rows * cols,
             f"CSV line has {len(parts)} entries, expected {rows * cols}")
    entries = []
    for p in parts:
        try:
            v = int(p)
        except ValueError as exc:
            raise UsageError(f"CSV entry {p!r} is not an integer") from exc
        if not 0 <= v < ring.h:
            raise UsageError(f"CSV entry {v} out of range for modulus {ring.h}")
        entries.append(v)
    _check_dims(rows, cols)
    return Mat._new(ring, rows, cols, tuple(entries))


def load_matrices_csv(path: str, h: int, rows: int, cols: int) -> list[Mat]:
    ring = ring_spec(h)
    out: list[Mat] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip() == "" or line.lstrip().startswith("#"):
                    continue
                out.append(matrix_from_csv_line(ring, rows, cols, line))
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# families and codes
# ---------------------------------------------------------------------------

def family_rows(cols: int, members: Iterable[tuple[int, ...]]) -> list[list[list[int]]]:
    """Each member's entry tuple cut into rows of cols entries, in the order given."""
    return [[list(x[i:i + cols]) for i in range(0, len(x), cols)] for x in members]


def family_to_obj(ring: RingSpec, rows: int, cols: int,
                  members: Iterable[tuple[int, ...]],
                  extra: dict[str, Any] | None = None) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "h": ring.h,
        "rows": rows,
        "cols": cols,
        "members": family_rows(cols, sorted(members)),
    }
    if extra:
        for key, value in extra.items():
            obj[key] = value
    return obj


def family_from_obj(obj: Any, expect_h: int | None = None) -> tuple[RingSpec, int, int, list[tuple[int, ...]]]:
    ring, rows, cols = _shape_from_obj(obj, "family", "members", expect_h)
    raw = obj["members"]
    _require(isinstance(raw, list) and raw, "members must be a non-empty list")
    return ring, rows, cols, _entry_tuples(ring, rows, cols, raw, "member")


def load_family(path: str, expect_h: int | None = None) -> tuple[RingSpec, int, int, list[tuple[int, ...]]]:
    return family_from_obj(_load_json(path), expect_h=expect_h)


def distance_value(d: float | int | None) -> int | None:
    """JSON-safe minimum distance: ``None`` for unknown or infinite."""
    if d is None:
        return None
    if isinstance(d, float) and math.isinf(d):
        return None
    return int(d)


def code_to_obj(code) -> dict[str, Any]:
    """Serialize a rank-distance code as a family object with metadata.

    The code's ``verified_distance`` is stored as ``verified_min_distance``
    (``null`` when absent or infinite).
    """
    extra: dict[str, Any] = {
        "size": code.size,
        "claimed_min_distance": code.claimed_min_distance,
        "verified_min_distance": distance_value(code.verified_distance),
        "linear": code.linear,
    }
    if code.basis is not None:
        extra["basis"] = family_rows(code.cols, code.basis)
    return family_to_obj(code.ring, code.rows, code.cols, code.members, extra)

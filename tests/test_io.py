"""Serialization round trips and input validation.

The bulk reader and the template writer of ``ringmat.io`` are checked against
the per-entry routes they replaced, kept below as oracles.
"""

import copy
import json
import math

import pytest
from hypothesis import example, given, strategies as st

from ringmat.cli import main
from ringmat.codes import mrd_code
from ringmat.errors import ShapeError, UsageError
from ringmat.graph import GraphSpec
from ringmat.io import (
    code_to_obj,
    distance_value,
    dumps_compact,
    family_from_obj,
    family_to_obj,
    load_family,
    load_matrices_csv,
    load_matrix,
    matrix_from_csv_line,
    matrix_from_obj,
)
from ringmat.matrix import Mat
from ringmat.ring import ring_spec


def test_matrix_file_round_trip(tmp_path):
    ring = ring_spec(12)
    a = Mat.from_rows(ring, [[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "a.json"
    path.write_text(dumps_compact({"h": 12, "rows": 2, "cols": 3, "entries": a.to_rows()}) + "\n")
    assert load_matrix(str(path)) == a
    assert load_matrix(str(path), expect_h=12) == a
    with pytest.raises(UsageError):
        load_matrix(str(path), expect_h=6)


def test_matrix_obj_validation():
    good = {"h": 6, "rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]}
    assert matrix_from_obj(good).entries == (1, 2, 3, 4)
    for broken in (
        {**good, "entries": [[1, 2]]},             # wrong row count
        {**good, "entries": [[1, 2], [3]]},        # ragged
        {**good, "entries": [[1, 2], [3, 6]]},     # out of range
        {**good, "entries": [[1, 2], [3, 4.5]]},   # not an integer
        {**good, "rows": "2"},                     # non-int dimension
        {"h": 6, "rows": 2, "cols": 2},            # missing entries
        [1, 2, 3],                                 # not an object
    ):
        with pytest.raises(UsageError):
            matrix_from_obj(broken)


def test_matrix_csv_round_trip(tmp_path):
    ring = ring_spec(6)
    a = Mat.from_rows(ring, [[1, 2], [3, 4]])
    assert matrix_from_csv_line(ring, 2, 2, "1,2,3,4") == a
    path = tmp_path / "mats.csv"
    path.write_text("# comment\n1,2,3,4\n\n5,0,1,2\n")
    mats = load_matrices_csv(str(path), 6, 2, 2)
    assert len(mats) == 2 and mats[0] == a
    with pytest.raises(UsageError):
        matrix_from_csv_line(ring, 2, 2, "1,2,3")
    with pytest.raises(UsageError):
        matrix_from_csv_line(ring, 2, 2, "1,2,3,9")
    with pytest.raises(UsageError):
        matrix_from_csv_line(ring, 2, 2, "1,2,3,x")


def test_family_round_trip(tmp_path):
    ring = ring_spec(6)
    members = [(1, 2, 3, 4), (0, 0, 0, 0)]
    path = tmp_path / "fam.json"
    path.write_text(dumps_compact(family_to_obj(ring, 2, 2, members, {"note": 7})) + "\n")
    ring2, rows, cols, loaded = load_family(str(path))
    assert (ring2.h, rows, cols) == (6, 2, 2)
    assert set(loaded) == set(members)
    assert json.loads(path.read_text())["note"] == 7
    # members are serialized sorted for stable bytes
    obj = family_to_obj(ring, 2, 2, members)
    assert obj["members"][0] == [[0, 0], [0, 0]]


def test_family_validation():
    with pytest.raises(UsageError):
        family_from_obj({"h": 6, "rows": 2, "cols": 2, "members": []})
    with pytest.raises(UsageError):
        family_from_obj({"h": 6, "rows": 2, "cols": 2})
    with pytest.raises(UsageError):
        family_from_obj(
            {"h": 6, "rows": 2, "cols": 2, "members": [[[9, 0], [0, 0]]]}
        )


def test_load_rejects_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(UsageError):
        load_matrix(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError):
        load_matrix(str(bad))


def test_code_to_obj_metadata():
    spec = GraphSpec(ring_spec(4), 2, 2, 1)
    code = mrd_code(spec)
    obj = code_to_obj(code)
    assert obj["size"] == 16
    assert obj["claimed_min_distance"] == 2
    assert obj["verified_min_distance"] == code.verified_distance == 2
    assert code_to_obj(code._replace(verified_distance=None))["verified_min_distance"] is None
    assert obj["linear"] is True
    assert len(obj["members"]) == 16
    assert obj["basis"]
    # loadable as a plain family
    ring, rows, cols, members = family_from_obj(obj)
    assert len(members) == 16


def test_distance_value():
    assert distance_value(3) == 3
    assert distance_value(3.0) == 3
    assert distance_value(math.inf) is None
    assert distance_value(None) is None


def test_dumps_compact_shape():
    obj = {"b": [[1, 2], [3, 4]], "a": 1, "c": {"x": [1, 2, 3]}, "d": []}
    text = dumps_compact(obj)
    assert json.loads(text) == obj
    lines = text.splitlines()
    assert lines[1].strip() == '"a": 1,'  # keys sorted
    assert "[1, 2]" in text              # scalar rows inline
    assert dumps_compact(obj) == text    # deterministic


# ---------------------------------------------------------------------------
# oracles: the per-entry readers and the recursive writer the bulk routes must match
# ---------------------------------------------------------------------------

def _oracle_require(cond, message):
    if not cond:
        raise UsageError(message)


def _oracle_as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def oracle_entries_from_rows(ring, rows, cols, obj, what):
    _oracle_require(isinstance(obj, (list, tuple)) and len(obj) == rows,
                    f"{what} must be a list of {rows} rows")
    flat = []
    for row in obj:
        _oracle_require(isinstance(row, (list, tuple)) and len(row) == cols,
                        f"each row of {what} must have {cols} entries")
        for e in row:
            v = _oracle_as_int(e, f"entry of {what}")
            _oracle_require(0 <= v < ring.h,
                            f"entry {v} of {what} out of range for modulus {ring.h}")
            flat.append(v)
    return tuple(flat)


def oracle_dumps_compact(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {oracle_dumps_compact(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(not isinstance(x, (list, tuple, dict)) for x in seq):
            return json.dumps(seq)
        items = [f"{inner}{oracle_dumps_compact(x, indent + 1)}" for x in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def oracle_matrix_from_csv_line(ring, rows, cols, line):
    parts = [p.strip() for p in line.strip().split(",") if p.strip() != ""]
    _oracle_require(len(parts) == rows * cols,
                    f"CSV line has {len(parts)} entries, expected {rows * cols}")
    entries = []
    for p in parts:
        try:
            v = int(p)
        except ValueError as exc:
            raise UsageError(f"CSV entry {p!r} is not an integer") from exc
        _oracle_require(0 <= v < ring.h,
                        f"CSV entry {v} out of range for modulus {ring.h}")
        entries.append(v)
    return Mat(ring, rows, cols, tuple(entries))


def outcome(fn, *args):
    """("ok", value) or ("error", message): what a reader did with its input."""
    try:
        return "ok", fn(*args)
    except UsageError as exc:
        return "error", str(exc)


def typed(mats):
    """Matrices with the exact type of every entry, so an int subclass shows."""
    return [(m.ring, m.rows, m.cols, m.entries, tuple(map(type, m.entries))) for m in mats]


def typed_entries(family):
    """Entry tuples with the exact type of every entry, so an int subclass shows."""
    return [(x, tuple(map(type, x))) for x in family]


class Sub(int):
    """An int subclass: the per-entry reader accepts it, the bulk check does not."""


# ---------------------------------------------------------------------------
# writer: template bytes equal the recursive writer's bytes
# ---------------------------------------------------------------------------

_ints = st.integers(min_value=-(2**64), max_value=2**64)


@st.composite
def int_arrays(draw):
    """A regular nested int list (1x1 and 1xk shapes included), perhaps spoiled at one spot."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))

    def build(dims):
        if len(dims) == 1:
            return [draw(_ints) for _ in range(dims[0])]
        return [build(dims[1:]) for _ in range(dims[0])]

    arr = build(shape)
    spot = arr
    while isinstance(spot[0], list) and draw(st.booleans()):
        spot = spot[draw(st.integers(0, len(spot) - 1))]
    how = draw(st.sampled_from(("none", "ragged", "empty", "tuple", "bool", "float", "str", "sub")))
    i = draw(st.integers(0, len(spot) - 1))
    if how == "ragged":
        spot.append(copy.deepcopy(spot[0]))
    elif how == "empty":
        spot[i] = []
    elif how == "tuple":
        spot[i] = tuple(spot[i]) if isinstance(spot[i], list) else spot[i]
    elif how in ("bool", "float", "str", "sub"):
        spot[i] = {"bool": True, "float": 1.0, "str": "1", "sub": Sub(3)}[how]
    return arr


_scalars = st.one_of(
    st.booleans(), st.none(), _ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from('ab"\\\n\u00e9\u20ac\U0001f600'), max_size=6),
    st.text(max_size=4),
)
_trees = st.recursive(
    _scalars | int_arrays(),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=16,
)


@given(_trees, st.integers(0, 2))
@example([[[1, 2], [3, 4]], [[5, 6], [7, 8]]], 0)       # equal-shape matrices
@example([[[1, 2], [3, 4]], [[5, 6, 7]]], 0)            # unequal shapes
@example([[[7]]], 1)                                    # 1x1
@example({"m": [[[0, 1, 2]], [[3, 4, 5]]], "x": [True, None, float("inf"), 2**64]}, 0)
@example([[], [1]], 0)
@example([[[1, 2], (3, 4)], [[5, 6], [7, 8]]], 0)       # a tuple row
def test_dumps_compact_matches_oracle(tree, indent):
    assert dumps_compact(tree, indent) == oracle_dumps_compact(tree, indent)


# ---------------------------------------------------------------------------
# reader: bulk check agrees with the per-entry reader, message for message
# ---------------------------------------------------------------------------

MUTATIONS = ("none", "bool", "float", "str", "neg", "h", "short_row", "extra_row",
             "tuple_row", "int_sub")


def mutate(item, how, h, i, j):
    """item (a list of rows) changed at one point: row i, entry j."""
    row = item[i]
    if how in ("bool", "float", "str", "neg", "h", "int_sub"):
        row[j] = {"bool": True, "float": float(row[j]), "str": str(row[j]), "neg": -1, "h": h,
                  "int_sub": Sub(row[j])}[how]
    elif how == "short_row":
        del row[-1]
    elif how == "extra_row":
        item.append(list(row))
    elif how == "tuple_row":
        item[i] = tuple(row)


@st.composite
def family_objs(draw):
    h = draw(st.sampled_from((2, 5, 6, 12, 2**61 - 1)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = draw(st.integers(1, 5))
    entry = st.integers(0, h - 1)
    members = [[[draw(entry) for _ in range(cols)] for _ in range(rows)] for _ in range(count)]
    how = draw(st.sampled_from(MUTATIONS))
    k, i, j = (draw(st.integers(0, n - 1)) for n in (count, rows, cols))
    mutate(members[k], how, h, i, j)
    return {"h": h, "rows": rows, "cols": cols, "members": members}


def oracle_family_members(obj):
    ring = ring_spec(obj["h"])
    rows, cols = obj["rows"], obj["cols"]
    return [oracle_entries_from_rows(ring, rows, cols, item, "member") for item in obj["members"]]


@given(family_objs())
def test_family_reader_matches_oracle(obj):
    want = outcome(oracle_family_members, copy.deepcopy(obj))
    got = outcome(lambda o: family_from_obj(o)[3], obj)
    if want[0] == "ok":
        assert got[0] == "ok" and typed_entries(got[1]) == typed_entries(want[1])
    else:
        assert got == want


@given(family_objs())
def test_matrix_reader_matches_oracle(fam):
    obj = {"h": fam["h"], "rows": fam["rows"], "cols": fam["cols"], "entries": fam["members"][-1]}
    ring = ring_spec(obj["h"])

    def oracle(o):
        return Mat._new(ring, o["rows"], o["cols"],
                        oracle_entries_from_rows(ring, o["rows"], o["cols"], o["entries"], "entries"))

    want = outcome(oracle, copy.deepcopy(obj))
    got = outcome(matrix_from_obj, obj)
    if want[0] == "ok":
        assert got[0] == "ok" and typed([got[1]]) == typed([want[1]])
    else:
        assert got == want


@given(st.sampled_from((2, 6, 30030)), st.integers(1, 3), st.integers(1, 3),
       st.lists(st.sampled_from(("0", "1", " 5 ", "7", "-1", "x", "1.5", "+2", "", "29")),
                min_size=0, max_size=10))
def test_csv_reader_matches_oracle(h, rows, cols, parts):
    ring = ring_spec(h)
    line = ",".join(parts)
    want = outcome(oracle_matrix_from_csv_line, ring, rows, cols, line)
    got = outcome(matrix_from_csv_line, ring, rows, cols, line)
    if want[0] == "ok":
        assert got[0] == "ok" and typed([got[1]]) == typed([want[1]])
    else:
        assert got == want


def test_csv_reader_keeps_the_dimension_check():
    ring = ring_spec(6)
    for rows, cols, line in ((0, 3, ","), (-1, -2, "1,2")):
        with pytest.raises(ShapeError) as new:
            matrix_from_csv_line(ring, rows, cols, line)
        with pytest.raises(ShapeError) as old:
            oracle_matrix_from_csv_line(ring, rows, cols, line)
        assert str(new.value) == str(old.value)


def test_undecodable_and_too_deep_files_are_usage_errors(tmp_path):
    ff = tmp_path / "ff.json"
    ff.write_bytes(b'{"h": 6, "rows": 1, "cols": 1, "members": [[[\xff]]]}\n')
    with pytest.raises(UsageError, match=r"^cannot read .*ff.json: 'utf-8' codec can't decode byte 0xff"):
        load_family(str(ff))
    with pytest.raises(UsageError, match="cannot read"):
        load_matrix(str(ff))
    csv = tmp_path / "ff.csv"
    csv.write_bytes(b"1,2,\xff,4\n")
    with pytest.raises(UsageError, match=r"^cannot read .*ff.csv: 'utf-8' codec can't decode byte 0xff"):
        load_matrices_csv(str(csv), 6, 2, 2)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(UsageError, match=r"^.*deep.json is not valid JSON: maximum recursion depth"):
        load_family(str(deep))


def test_an_integer_past_the_digit_limit_is_a_usage_error(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"h": 6, "rows": 1, "cols": 1, "members": [[[%s]]]}\n' % ("1" * 5000))
    try:
        json.loads("1" * 5000)
    except ValueError as exc:
        limit = str(exc)
    else:
        pytest.skip("this interpreter has no digit limit")
    assert main(["classify-clique", "--family", str(big), "--r", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {big} is not valid JSON: {limit}\n"


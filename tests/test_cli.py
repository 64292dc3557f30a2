"""End-to-end command line tests (in-process via main())."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ringmat import cli, cliques, codes
from ringmat.cli import main
from ringmat.io import dumps_compact, family_from_obj, load_family
from ringmat.matrix import Mat
from ringmat.ring import ring_spec


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_matrix(tmp_path, name, h, rows):
    path = tmp_path / name
    obj = {"h": h, "rows": len(rows), "cols": len(rows[0]), "entries": rows}
    path.write_text(dumps_compact(obj) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# matrix commands
# ---------------------------------------------------------------------------

def test_snf_command(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.json", 4, [[2, 1], [2, 2]])
    code, obj, _ = run_json(capsys, "snf", "--matrix", path)
    assert code == 0
    assert obj["omega"] == [[0, 1]]
    assert obj["diagonal"] == [1, 2]
    assert obj["inner_rank"] == 2
    assert obj["D"] == [[1, 0], [0, 2]]
    assert obj["S"] and obj["T"]


def test_snf_csv_input(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text("2,1,2,2\n")
    code, obj, _ = run_json(capsys, "snf", "--matrix", str(path),
                            "--h", "4", "--rows", "2", "--cols", "2")
    assert code == 0 and obj["omega"] == [[0, 1]]
    # CSV without shape information is a usage error
    code, _, err = run(capsys, "snf", "--matrix", str(path))
    assert code == 2 and "error:" in err


def test_snf_over_64_bit_prime(tmp_path, capsys):
    h = 2**64 - 59
    path = write_matrix(tmp_path, "a.json", h, [[h - 1, 2, 3], [5, 7, 11], [13, 17, h - 19]])
    code, obj, _ = run_json(capsys, "snf", "--matrix", path)
    assert code == 0
    assert obj["h"] == h and len(obj["omega"]) == 1


def test_orbits_over_64_bit_prime_is_a_budget_error(capsys):
    code, _, err = run(capsys, "orbits", "--h", "18446744073709551557", "--m", "2", "--n", "2")
    assert code == 3 and "budget exceeded" in err


def test_orbits_huge_shape_is_a_fast_budget_error(capsys):
    start = time.process_time()
    code, out, err = run(capsys, "orbits", "--h", "2", "--m", "100000", "--n", "100000")
    assert time.process_time() - start < 1.0
    assert code == 3 and out == "" and "budget exceeded" in err


@pytest.mark.parametrize("size", ["40000", "300"])
@pytest.mark.parametrize("argv", [
    ["graph-stats"], ["graph-stats", "--exact"], ["build-mrd"], ["color"],
    ["cover-complement"], ["oracle", "clique"], ["build-clique", "--alpha", "0,0"],
])
def test_graph_commands_on_huge_shapes_are_fast_budget_errors(capsys, argv, size):
    start = time.process_time()
    code, out, err = run(capsys, *argv, "--h", "6", "--m", size, "--n", size, "--r", "1")
    assert time.process_time() - start < 2.0
    assert code == 3 and out == "" and "budget exceeded" in err


def test_rank_command(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.json", 6, [[2, 0], [0, 3]])
    code, obj, _ = run_json(capsys, "rank", "--matrix", path)
    assert code == 0
    assert obj["inner_rank"] == 1
    assert obj["via_components"] == 1
    assert obj["via_quotients"] == 1
    assert obj["omega"] == [[0, 1], [0, 1]]


def test_rank_ranks_its_matrix_once(tmp_path, capsys):
    """rank reads the rank, both routes and omega off one set of component rows: one kernel
    run per prime (t = 6 over Z_30030) and no projection looked up again."""
    from ringmat.smith import _pp_exponents, clear_kernel_caches

    path = tmp_path / "tall.csv"
    path.write_text("6,10,15,21,35,30029\n")
    clear_kernel_caches()
    try:
        code, obj, err = run_json(capsys, "rank", "--matrix", str(path), "--h", "30030", "--rows", "3", "--cols", "2")
        assert (code, err) == (0, "")
        assert obj["inner_rank"] == obj["via_components"] == obj["via_quotients"] == 2
        info = _pp_exponents.cache_info()
        assert (info.misses, info.hits) == (6, 0)
    finally:
        clear_kernel_caches()


def test_snf_on_a_wide_matrix_is_a_fast_budget_error(tmp_path, capsys):
    path = write_matrix(tmp_path, "wide.json", 6, [[1] * 40000])
    start = time.process_time()
    code, out, err = run(capsys, "snf", "--matrix", path)
    assert time.process_time() - start < 2.0
    assert code == 3 and out == "" and "1600000001 transform entries exceed the budget 10000000" in err


def test_rank_on_a_wide_matrix_keeps_no_transforms(tmp_path, capsys):
    path = write_matrix(tmp_path, "wide.json", 6, [[1] * 40000])
    code, obj, err = run_json(capsys, "rank", "--matrix", path)
    assert code == 0 and err == ""
    assert (obj["inner_rank"], obj["via_components"], obj["via_quotients"]) == (1, 1, 1)
    assert obj["omega"] == [[0], [0]]


def test_oracle_rank_on_a_large_matrix_states_the_estimate_as_a_power(tmp_path, capsys):
    h = 2**64 - 59
    path = write_matrix(tmp_path, "big.json", h, [[(i * 120 + j) % h for j in range(120)] for i in range(120)])
    code, out, err = run(capsys, "oracle", "rank", "--matrix", path)
    assert code == 3 and out == ""
    assert err == f"budget exceeded: {h}^240 candidate pairs for rank 1 exceed the budget 200000\n"


def test_oracle_rank_default_budget_exits_fast(tmp_path, capsys):
    # rank 2, so the search for rank 1 would try all 2^21 candidate pairs
    path = write_matrix(tmp_path, "wide.json", 2, [[1] + [0] * 18, [0, 1] + [0] * 17])
    start = time.process_time()
    code, out, err = run(capsys, "oracle", "rank", "--matrix", path)
    assert time.process_time() - start < 2.0
    assert code == 3 and out == "" and "2^21 candidate pairs for rank 1 exceed the budget 200000" in err


def test_oracle_commands(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.json", 4, [[2, 1], [2, 2]])
    code, obj, _ = run_json(capsys, "oracle", "omega", "--matrix", path)
    assert code == 0 and obj["omega"] == [[0, 1]]
    code, obj, _ = run_json(capsys, "oracle", "rank", "--matrix", path)
    assert code == 0 and obj["inner_rank"] == 2


# ---------------------------------------------------------------------------
# orbit commands
# ---------------------------------------------------------------------------

def test_orbits_json(capsys):
    code, obj, _ = run_json(capsys, "orbits", "--h", "6", "--m", "2", "--n", "2",
                            "--verify-product")
    assert code == 0
    assert obj["total"] == 1296
    assert obj["label_count"] == 9 == obj["expected_label_count"]
    assert obj["product_ok"] is True
    lengths = {tuple(tuple(r) for r in e["omega"]): e["length"] for e in obj["labels"]}
    assert lengths[((0, 1), (0, 1))] == 288
    assert sum(lengths.values()) == 1296


def test_orbits_csv(capsys):
    code, out, _ = run(capsys, "orbits", "--h", "6", "--m", "2", "--n", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,length"
    assert len(lines) == 10
    assert "0 1|0 1,288" in lines


# sha256 prefixes of the stdout of `orbits --h H --m 2 --n 2 --format F [--verify-product]`
ORBITS_STDOUT = {
    (4, "json", False): "40a08a178fb11566", (4, "json", True): "45e10601e413b0d7",
    (4, "csv", False): "8d4b126cdc525906", (4, "csv", True): "8d4b126cdc525906",
    (12, "json", False): "9a74d626e084803a", (12, "json", True): "7041c3fc8c6f38db",
    (12, "csv", False): "c326cc8da302e11a", (12, "csv", True): "c326cc8da302e11a",
}


@pytest.mark.parametrize("h, fmt, verify", sorted(ORBITS_STDOUT))
def test_orbits_stdout_is_frozen(capsys, h, fmt, verify):
    argv = ["orbits", "--h", str(h), "--m", "2", "--n", "2", "--format", fmt]
    code, out, _ = run(capsys, *argv, *(["--verify-product"] if verify else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == ORBITS_STDOUT[h, fmt, verify]


def test_prime_power_product_check_answers_within_a_second(capsys):
    """Past the keep limit the Z_27 2x2 table is counted per first row, the kernel running on the
    [3^v e_1; C] of 0 < v < 3 only: cold, the check answers within 1 s of process time, as CI pins it."""
    from ringmat import orbits
    from ringmat.smith import clear_kernel_caches

    clear_kernel_caches()
    orbits._census.cache_clear()
    try:
        start = time.process_time()
        code, out, err = run(capsys, "orbits", "--h", "27", "--m", "2", "--n", "2", "--verify-product")
        assert time.process_time() - start < 1.0
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "e206bb9f73beab51"
    finally:
        clear_kernel_caches()


def test_orbits_csv_verify_product_runs_the_check(monkeypatch, capsys):
    """A component table off by one row: CSV prints nothing and names the label, its length and the product."""
    from ringmat import smith

    real = smith.exponent_table

    def off_by_one(p, s, q, m, n):
        table = real(p, s, q, m, n)
        if q == 3:  # one matrix of Z_3 moved from label (0, 0) to (0, 1)
            i = table.index((0, 0))
            return table[:i] + ((0, 1),) + table[i + 1:]
        return table

    monkeypatch.setattr(smith, "exponent_table", off_by_one)
    argv = ["orbits", "--h", "12", "--m", "2", "--n", "2", "--format", "csv"]
    code, out, _ = run(capsys, *argv)  # no check asked
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest()[:16] == ORBITS_STDOUT[12, "csv", False]
    assert run(capsys, *argv, "--verify-product") == (
        1, "", "verification failed: label 0 0|0 0 has length 4608,"
               " not the product 4512 of its component lengths [96, 47]\n")


BUDGET_COMMANDS = [
    ["orbits", "--h", "4", "--m", "2", "--n", "2"],
    ["graph-stats", "--h", "2", "--m", "1", "--n", "2", "--r", "1"],
    ["graph-stats", "--h", "2", "--m", "1", "--n", "2", "--r", "1", "--exact"],
    ["build-clique", "--h", "6", "--m", "2", "--n", "2", "--r", "1", "--alpha", "0,1"],
    ["verify-ekr", "--family", "missing.json", "--r", "1"],  # read after the check
    ["build-mrd", "--h", "2", "--m", "1", "--n", "2", "--r", "1"],
    ["verify-code", "--family", "missing.json", "--d", "2"],
    ["color", "--h", "2", "--m", "1", "--n", "2", "--r", "1", "--seed", "0"],
    ["cover-complement", "--h", "2", "--m", "1", "--n", "2", "--r", "1"],
    ["oracle", "rank", "--matrix", "missing.json"],
    ["oracle", "clique", "--h", "2", "--m", "1", "--n", "2", "--r", "1"],
    ["oracle", "mis", "--h", "2", "--m", "1", "--n", "2", "--r", "1"],
]


@pytest.mark.parametrize("argv", BUDGET_COMMANDS, ids=[
    "orbits", "graph-stats", "graph-stats-exact", "build-clique", "verify-ekr", "build-mrd", "verify-code",
    "color", "cover-complement", "oracle-rank", "oracle-clique", "oracle-mis"])
def test_a_negative_budget_is_a_usage_error(capsys, argv):
    assert run(capsys, *argv, "--budget", "-1") == (2, "", "error: --budget must be >= 0\n")


def test_a_zero_budget_is_a_cap(capsys):
    assert run(capsys, "orbits", "--h", "4", "--m", "1", "--n", "1", "--budget", "0") == (
        3, "", "budget exceeded: 4^1 matrices exceed the budget 0\n")
    assert run(capsys, "graph-stats", "--h", "2", "--m", "1", "--n", "2", "--r", "1", "--budget", "0") == (
        3, "", "budget exceeded: 2^2 - 1 rank checks exceed the budget 0\n")


def test_graph_stats_budget_caps_the_clique_and_the_code_before_their_closures(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a closure ran before its checks were charged")

    argv = ("graph-stats", "--h", "2", "--m", "3", "--n", "3", "--r", "1")  # a clique of 2^3, a code of 2^6
    monkeypatch.setattr(cliques, "subgroup_closure", refuse)
    assert run(capsys, *argv, "--budget", "6") == (3, "", "budget exceeded: 2^3 - 1 rank checks exceed the budget 6\n")
    monkeypatch.undo()
    monkeypatch.setattr(codes, "subgroup_closure", refuse)
    assert run(capsys, *argv, "--budget", "62") == (
        3, "", "budget exceeded: 2^6 - 1 distance checks exceed the budget 62\n")
    monkeypatch.undo()
    code, obj, _ = run_json(capsys, *argv, "--budget", "63")
    assert code == 0 and (obj["omega"], obj["alpha"]) == (8, 64)
    assert run(capsys, "graph-stats", "--h", "317", "--m", "2", "--n", "2", "--r", "1") == (  # no --budget: the default
        3, "", "budget exceeded: 317^2 - 1 rank checks exceed the budget 100000\n")


# ---------------------------------------------------------------------------
# graph commands
# ---------------------------------------------------------------------------

def test_graph_stats_certificate(capsys):
    code, obj, err = run_json(capsys, "graph-stats", "--h", "6", "--m", "2",
                              "--n", "2", "--r", "1", "--connectivity")
    assert code == 0
    assert obj["vertices"] == 1296
    assert (obj["omega"], obj["alpha"], obj["chi"]) == (36, 36, 36)
    assert obj["method"] == "certificate"
    assert obj["sandwich_tight"] is True
    assert obj["code_distance"] == 2
    assert obj["coloring_verification"] == "edges"
    assert obj["degree"] == 329
    assert obj["connected"] is True
    assert err == ""


def test_graph_stats_exact(capsys):
    code, obj, _ = run_json(capsys, "graph-stats", "--h", "2", "--m", "2",
                            "--n", "2", "--r", "1", "--exact")
    assert code == 0
    assert (obj["omega"], obj["alpha"], obj["chi"]) == (4, 4, 4)
    assert obj["method"] == "exact-search"
    assert obj["degree"] == 9


def test_seed_notice_on_stderr(capsys):
    args = ("graph-stats", "--h", "2", "--m", "2", "--n", "2", "--r", "1",
            "--transitivity-samples", "5")
    code, obj, err = run_json(capsys, *args)
    assert code == 0 and obj["transitivity_ok"] is True
    assert "using seed 0" in err
    code, obj, err = run_json(capsys, *args, "--seed", "7")
    assert code == 0 and obj["transitivity_ok"] is True
    assert err == ""


def test_negative_transitivity_samples_are_a_usage_error(capsys):
    code, out, err = run(capsys, "graph-stats", "--h", "2", "--m", "2", "--n", "2", "--r", "1",
                         "--transitivity-samples", "-1")
    assert code == 2 and out == "" and "--transitivity-samples" in err


def test_transitivity_samples_are_charged_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the sample count was charged")

    monkeypatch.setattr(cli, "certify_graph_parameters", refuse)
    monkeypatch.setattr(cli, "check_connectivity", refuse)
    start = time.process_time()
    code, out, err = run(capsys, "graph-stats", "--h", "2", "--m", "2", "--n", "2", "--r", "1",
                         "--connectivity", "--transitivity-samples", str(10**9))
    assert time.process_time() - start < 2.0
    assert code == 3 and out == ""
    assert err == "budget exceeded: 1000000000 transitivity samples exceed the budget 10000\n"
    code, out, err = run(capsys, "graph-stats", "--h", "2", "--m", "2", "--n", "2", "--r", "1",
                         "--budget", "5", "--transitivity-samples", "6")
    assert code == 3 and err == "budget exceeded: 6 transitivity samples exceed the budget 5\n"
    monkeypatch.undo()
    code, obj, _ = run_json(capsys, "graph-stats", "--h", "2", "--m", "2", "--n", "2", "--r", "1",
                            "--seed", "0", "--budget", "5", "--transitivity-samples", "5")
    assert code == 0 and obj["transitivity_ok"] is True


GRAPH_STATS_2_3_4_2 = """{
  "alpha": 16,
  "chi": 256,
  "code_distance": 3,
  "coloring_verification": "edges",
  "degree": 1575,
  "h": 2,
  "m": 3,
  "method": "certificate",
  "n": 4,
  "omega": 256,
  "r": 2,
  "sandwich_tight": true,
  "vertices": 4096
}
"""


def test_graph_stats_checks_edges_by_connection_lookup(capsys):
    start = time.process_time()
    code, out, _ = run(capsys, "graph-stats", "--h", "2", "--m", "3", "--n", "4", "--r", "2")
    assert time.process_time() - start < 0.5
    assert code == 0 and out == GRAPH_STATS_2_3_4_2


def test_byte_stability(capsys):
    args = ("graph-stats", "--h", "6", "--m", "2", "--n", "2", "--r", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_oracle_search_commands(capsys):
    code, obj, _ = run_json(capsys, "oracle", "clique", "--h", "3", "--m", "2",
                            "--n", "2", "--r", "1")
    assert code == 0
    assert obj["size"] == 9
    assert obj["vertex_ids"] == sorted(obj["vertex_ids"])
    assert len(set(obj["vertex_ids"])) == 9
    code, obj, _ = run_json(capsys, "oracle", "mis", "--h", "2", "--m", "2",
                            "--n", "2", "--r", "1")
    assert code == 0 and obj["size"] == 4


@pytest.mark.parametrize("which, h, m, n, r, budget", [
    ("clique", 3, 2, 2, 1, 256), ("mis", 2, 2, 2, 1, 256), ("mis", 4, 2, 2, 1, 256),
    ("clique", 2, 2, 3, 2, 256), ("mis", 2, 1, 3, 1, 256), ("clique", 6, 2, 2, 1, 1600),
])
def test_oracle_witness_holds_vertex_zero(capsys, which, h, m, n, r, budget):
    from ringmat.graph import GraphSpec, adjacent

    code, obj, _ = run_json(capsys, "oracle", which, "--h", str(h), "--m", str(m), "--n", str(n),
                            "--r", str(r), "--budget", str(budget))
    spec = GraphSpec(ring_spec(h), m, n, r)
    ids = obj["vertex_ids"]
    assert code == 0 and ids[0] == 0 and ids == sorted(set(ids))
    assert obj["size"] == len(ids) == (spec.clique_bound if which == "clique" else spec.independence_bound)
    verts = [spec.vertex(v) for v in ids]
    assert all(adjacent(spec, a, b) == (which == "clique") for i, a in enumerate(verts) for b in verts[i + 1:])


@pytest.mark.parametrize("h, m, n, r", [(32, 1, 2, 1), (6, 2, 2, 2)])
def test_exact_search_on_a_complete_graph_past_the_recursion_limit(capsys, h, m, n, r):
    """K_1024 and K_1296: the 1,023 and 1,295 neighbours of 0 take one color each, so the
    search answers them at its root node with the steps of a dive that deep."""
    code, obj, err = run_json(capsys, "graph-stats", "--h", str(h), "--m", str(m), "--n", str(n),
                              "--r", str(r), "--exact", "--budget", "1600")
    assert code == 0 and err == ""
    assert (obj["omega"], obj["alpha"]) == (obj["vertices"], 1)


def test_exact_search_on_k1600_answers_within_0_3_s(capsys):
    """K_1600 through oracle clique and graph-stats --exact, each within 0.3 s of process time."""
    start = time.process_time()
    code, obj, err = run_json(capsys, "oracle", "clique", "--h", "1600", "--m", "1", "--n", "1", "--r", "1",
                              "--budget", "1600")
    assert time.process_time() - start < 0.3
    assert (code, err, obj["size"], obj["vertex_ids"]) == (0, "", 1600, list(range(1600)))
    start = time.process_time()
    code, obj, err = run_json(capsys, "graph-stats", "--h", "40", "--m", "1", "--n", "2", "--r", "1",
                              "--exact", "--budget", "1600")
    assert time.process_time() - start < 0.3
    assert (code, err, obj["omega"], obj["alpha"]) == (0, "", 1600, 1)


def test_oracle_budget_exit(capsys):
    code, out, err = run(capsys, "oracle", "clique", "--h", "6", "--m", "2",
                         "--n", "2", "--r", "1", "--budget", "100")
    assert code == 3
    assert "budget exceeded" in err


# ---------------------------------------------------------------------------
# clique commands
# ---------------------------------------------------------------------------

def test_build_classify_verify_round_trip(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    code, obj, _ = run_json(capsys, "build-clique", "--h", "6", "--m", "2",
                            "--n", "2", "--r", "1", "--alpha", "0,0",
                            "--out", str(fam))
    assert code == 0 and obj == {"written": str(fam)}
    ring, rows, cols, members, meta = load_family(str(fam))
    assert (ring.h, rows, cols, len(members)) == (6, 2, 2, 36)
    assert meta["size"] == 36 and meta["bound"] == 36

    code, obj, _ = run_json(capsys, "classify-clique", "--family", str(fam),
                            "--r", "1")
    assert code == 0
    assert obj["tag"] == "RowForm"
    assert obj["alpha"] == [0, 0]
    assert obj["T"] is None

    code, obj, _ = run_json(capsys, "verify-ekr", "--family", str(fam),
                            "--r", "1")
    assert code == 0
    assert obj["intersecting"] is True
    assert obj["within_bound"] is True
    assert obj["extremal"] is True
    assert obj["form"]["tag"] == "RowForm"


def test_build_clique_with_shift(tmp_path, capsys):
    b0 = write_matrix(tmp_path, "b0.json", 6, [[1, 2], [3, 4]])
    code, obj, _ = run_json(capsys, "build-clique", "--h", "6", "--m", "2",
                            "--n", "2", "--r", "1", "--alpha", "1,0",
                            "--B0", b0)
    assert code == 0
    assert obj["size"] == 36 and len(obj["members"]) == 36
    # the shift is a member of its own translated clique
    assert [[1, 2], [3, 4]] in obj["members"]


def test_build_clique_bad_alpha(capsys):
    code, _, err = run(capsys, "build-clique", "--h", "6", "--m", "2",
                       "--n", "2", "--r", "1", "--alpha", "0")
    assert code == 2 and "one exponent per prime component" in err


def test_build_clique_over_budget_exits_before_reading_transforms(tmp_path, capsys):
    h = 2**61 - 1
    rng = random.Random(0)
    rows = [[rng.randrange(h) for _ in range(300)] for _ in range(300)]  # invertible whp
    s_path = write_matrix(tmp_path, "s.json", h, rows)
    start = time.process_time()
    code, out, err = run(capsys, "build-clique", "--h", str(h), "--m", "300", "--n", "300",
                         "--r", "1", "--alpha", "0", "--S", s_path)
    assert time.process_time() - start < 2.0
    assert code == 3 and out == "" and "budget exceeded" in err


def test_verify_ekr_subfamily_and_rejection(tmp_path, capsys):
    ring = ring_spec(2)
    zero = [[0, 0], [0, 0]]
    row = [[1, 0], [0, 0]]
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"h": 2, "rows": 2, "cols": 2,
                               "members": [zero, row]}))
    code, obj, _ = run_json(capsys, "verify-ekr", "--family", str(sub),
                            "--r", "1")
    assert code == 0
    assert obj["intersecting"] is True and obj["extremal"] is False
    assert obj["form"] is None

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"h": 2, "rows": 2, "cols": 2,
                               "members": [zero, [[1, 0], [0, 1]]]}))
    code, obj, err = run_json(capsys, "verify-ekr", "--family", str(bad),
                              "--r", "1")
    assert code == 1
    assert obj["intersecting"] is False and "reason" in obj


def test_classify_non_clique_exit_one(tmp_path, capsys):
    members = [[[0, 0], [0, 0]], [[1, 0], [0, 0]],
               [[0, 1], [0, 0]], [[1, 1], [1, 0]]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"h": 2, "rows": 2, "cols": 2, "members": members}))
    code, _, err = run(capsys, "classify-clique", "--family", str(bad), "--r", "1")
    assert code == 1 and "verification failed" in err


def test_family_modulus_mismatch(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"h": 6, "rows": 2, "cols": 2,
                               "members": [[[0, 0], [0, 0]]]}))
    code, _, err = run(capsys, "verify-ekr", "--family", str(fam),
                       "--r", "1", "--h", "12")
    assert code == 2 and "does not match" in err


# Malformed matrix and family files, with the stderr each gave before the
# loaders built their matrices unchecked after validating every entry once.
MALFORMED_MATRICES = (
    ({"h": 6, "rows": 2, "cols": 2, "entries": [[1, 2], [3, 6]]}, "entry 6 of entries out of range for modulus 6"),
    ({"h": 6, "rows": 2, "cols": 2, "entries": [[1, 2], [-1, 0]]}, "entry -1 of entries out of range for modulus 6"),
    ({"h": 6, "rows": 1, "cols": 2, "entries": [[True, 0]]}, "entry of entries must be an integer, got True"),
    ({"h": 6, "rows": 1, "cols": 2, "entries": [[1.0, 0]]}, "entry of entries must be an integer, got 1.0"),
    ({"h": 6, "rows": 2, "cols": 2, "entries": [[1, 2], [3]]}, "each row of entries must have 2 entries"),
    ({"h": 6, "rows": 2, "cols": 2, "entries": [[1, 2]]}, "entries must be a list of 2 rows"),
    ({"h": 6, "rows": 0, "cols": 2, "entries": []}, "rows and cols must be positive"),
    ({"h": 6, "rows": 1, "cols": 1}, "matrix object missing key 'entries'"),
    ({"h": 1, "rows": 1, "cols": 1, "entries": [[0]]}, "modulus must be >= 2, got 1"),
    ([[1, 2], [3, 4]], "matrix object must be a JSON object"),
)
MALFORMED_FAMILIES = (
    ({"h": 4, "rows": 2, "cols": 2, "members": [[[0, 0], [0, 0]], [[1, 0], [0, 4]]]},
     "entry 4 of member out of range for modulus 4"),
    ({"h": 4, "rows": 2, "cols": 2, "members": [[[0, 0], [0, -3]]]}, "entry -3 of member out of range for modulus 4"),
    ({"h": 4, "rows": 1, "cols": 2, "members": [[[0, False]]]}, "entry of member must be an integer, got False"),
    ({"h": 4, "rows": 2, "cols": 2, "members": [[[0, 0], [0]]]}, "each row of member must have 2 entries"),
    ({"h": 4, "rows": 2, "cols": 2, "members": [[[0, 0], [0, 0], [0, 0]]]}, "member must be a list of 2 rows"),
    ({"h": 4, "rows": 2, "cols": 2, "members": []}, "members must be a non-empty list"),
    ({"h": 4, "rows": 2, "cols": -2, "members": [[[0, 0], [0, 0]]]}, "rows and cols must be positive"),
    ([[[0, 0], [0, 0]]], "family object must be a JSON object"),
)


@pytest.mark.parametrize("obj, message", MALFORMED_MATRICES)
def test_malformed_matrix_files_exit_2(tmp_path, capsys, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    for argv in (["snf"], ["rank"], ["oracle", "omega"]):
        assert run(capsys, *argv, "--matrix", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("obj, message", MALFORMED_FAMILIES)
def test_malformed_family_files_exit_2(tmp_path, capsys, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    for argv in (["classify-clique", "--r", "1"], ["verify-code", "--d", "2"], ["verify-ekr", "--r", "1"]):
        assert run(capsys, *argv, "--family", str(path)) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# code commands
# ---------------------------------------------------------------------------

def test_build_mrd_and_verify_code(tmp_path, capsys):
    out = tmp_path / "code.json"
    code, obj, _ = run_json(capsys, "build-mrd", "--h", "6", "--m", "2",
                            "--n", "2", "--r", "1", "--out", str(out))
    assert code == 0 and obj == {"written": str(out)}
    saved = json.loads(out.read_text())
    assert saved["size"] == 36
    assert saved["claimed_min_distance"] == 2
    assert saved["verified_min_distance"] == 2
    assert saved["bound"] == 36

    code, obj, _ = run_json(capsys, "verify-code", "--family", str(out),
                            "--d", "2")
    assert code == 0
    assert obj["meets"] is True and obj["exact"] is True
    assert obj["computed_min_distance"] == 2

    code, obj, _ = run_json(capsys, "verify-code", "--family", str(out),
                            "--d", "3")
    assert code == 1
    assert obj["meets"] is False


def test_written_codes_and_cliques_verify_at_the_default_budget(tmp_path, capsys):
    # a coset is charged its |F| - 1 ranked differences, not C(|F|, 2) pairs
    code_path, fam_path = str(tmp_path / "c.json"), str(tmp_path / "fam11.json")
    assert main(["build-mrd", "--h", "6", "--m", "2", "--n", "4", "--r", "1", "--out", code_path]) == 0
    capsys.readouterr()
    code, obj, _ = run_json(capsys, "verify-code", "--family", code_path, "--d", "2")
    assert code == 0 and (obj["size"], obj["computed_min_distance"], obj["exact"]) == (1296, 2, True)
    assert main(["build-clique", "--h", "11", "--m", "3", "--n", "3", "--r", "1", "--alpha", "0",
                 "--budget", "1000000", "--out", fam_path]) == 0
    capsys.readouterr()
    code, obj, _ = run_json(capsys, "verify-ekr", "--family", fam_path, "--r", "1")
    assert code == 0 and obj["extremal"] is True and obj["form"]["tag"] == "RowForm"


def test_build_mrd_budget_boundary(capsys):
    # a code of size N needs N - 1 distance checks: the budget N - 2 refuses it
    for h, size in ((5, 25), (6, 36)):
        args = ("build-mrd", "--h", str(h), "--m", "2", "--n", "2", "--r", "1")
        code, out, err = run(capsys, *args, "--budget", str(size - 2))
        assert code == 3 and out == "" and "budget exceeded" in err
        code, obj, _ = run_json(capsys, *args, "--budget", str(size - 1))
        assert code == 0 and obj["verified_min_distance"] == 2


def test_build_clique_budget_boundary(monkeypatch, capsys):
    """A maximum clique of N = h^(n*r) members is a coset, checked by its N - 1 rank checks: at the
    budget N - 2 the build exits 3 before the closure that forms the clique, at N - 1 it answers."""
    from ringmat import cliques

    def refuse(*args):
        raise AssertionError("the closure ran before the budget check")

    args = ("build-clique", "--h", "6", "--m", "2", "--n", "2", "--r", "1", "--alpha", "0,0")
    with monkeypatch.context() as patch:
        patch.setattr(cliques, "subgroup_closure", refuse)
        assert run(capsys, *args, "--budget", "34") == (
            3, "", "budget exceeded: 6^2 - 1 rank checks exceed the budget 34\n")
    code, obj, err = run_json(capsys, *args, "--budget", "35")
    assert (code, err) == (0, "") and obj["size"] == obj["bound"] == 36


def test_clique_builds_past_the_pair_count_answer(tmp_path, capsys):
    """Builds whose C(N, 2) member pairs exceed the default budget but whose N - 1 rank checks do
    not: graph-stats on 7^8 matrices answers within 0.5 s of process time, and the 10,201-member
    clique over Z_101 is built and verified extremal."""
    start = time.process_time()
    code, obj, err = run_json(capsys, "graph-stats", "--h", "7", "--m", "2", "--n", "4", "--r", "1")
    assert time.process_time() - start < 0.5
    assert (code, err) == (0, "")
    assert (obj["omega"], obj["alpha"], obj["chi"], obj["sandwich_tight"]) == (7**4, 7**4, 7**4, True)
    fam = str(tmp_path / "fam101.json")
    assert main(["build-clique", "--h", "101", "--m", "2", "--n", "2", "--r", "1", "--alpha", "0",
                 "--out", fam]) == 0
    capsys.readouterr()
    code, obj, _ = run_json(capsys, "verify-ekr", "--family", fam, "--r", "1")
    assert code == 0 and obj["size"] == 101**2 and obj["extremal"] is True


def test_color_and_cover(tmp_path, capsys):
    code, obj, err = run_json(capsys, "color", "--h", "6", "--m", "2",
                              "--n", "2", "--r", "1")
    assert code == 0
    assert obj["n_colors"] == 36
    assert obj["verification"] == "edges"
    assert err == ""  # graph fits the budget: no sampling, no seed notice

    code, obj, _ = run_json(capsys, "cover-complement", "--h", "6", "--m", "2",
                            "--n", "2", "--r", "1")
    assert code == 0
    assert obj["parts"] == 36 and obj["part_sizes"] == [36]
    assert obj["partition"] is True

    out = tmp_path / "cover.json"
    code, obj, _ = run_json(capsys, "cover-complement", "--h", "6", "--m", "2", "--n", "2",
                            "--r", "1", "--out", str(out))
    assert code == 0 and obj["written"] == str(out)
    saved = json.loads(out.read_text())
    assert len(saved["families"]) == 36
    seen = {tuple(tuple(r) for r in mat) for fam in saved["families"] for mat in fam}
    assert len(seen) == 1296


def test_color_out_writes_the_coset_classes(tmp_path, capsys):
    out = tmp_path / "colors.json"
    code, obj, _ = run_json(capsys, "color", "--h", "6", "--m", "2", "--n", "2",
                            "--r", "1", "--out", str(out))
    assert code == 0 and obj["written"] == str(out)
    colors = json.loads(out.read_text())["colors"]
    assert len(colors) == 1296 and sorted(set(colors)) == list(range(36))
    assert all(colors.count(c) == 36 for c in range(36))


def test_color_out_above_budget_exits_before_work(tmp_path, capsys):
    out = tmp_path / "colors.json"
    start = time.process_time()
    code, stdout, err = run(capsys, "color", "--h", "2", "--m", "2", "--n", "11", "--r", "1",
                            "--seed", "0", "--out", str(out))
    assert time.process_time() - start < 0.5
    assert code == 3 and stdout == "" and not out.exists()
    assert "2^22 vertices exceed the budget 10000" in err


def test_negative_color_samples_are_a_usage_error(capsys):
    code, out, err = run(capsys, "color", "--h", "2", "--m", "2", "--n", "11", "--r", "1",
                         "--seed", "0", "--samples", "-1")
    assert code == 2 and out == "" and "--samples must be >= 0" in err


def test_color_samples_are_charged_before_the_coloring(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the coloring started before the sample count was charged")

    monkeypatch.setattr(cli, "color_graph", refuse)
    start = time.process_time()
    code, out, err = run(capsys, "color", "--h", "2", "--m", "2", "--n", "11", "--r", "1",
                         "--seed", "0", "--samples", str(10**9))
    assert time.process_time() - start < 2.0
    assert code == 3 and out == ""
    assert err == "budget exceeded: 1000000000 sampled pairs exceed the budget 10000\n"
    code, out, err = run(capsys, "color", "--h", "2", "--m", "2", "--n", "2", "--r", "1",
                         "--seed", "0", "--budget", "5", "--samples", "6")
    assert code == 3 and out == "" and err == "budget exceeded: 6 sampled pairs exceed the budget 5\n"
    monkeypatch.undo()
    code, obj, _ = run_json(capsys, "color", "--h", "2", "--m", "2", "--n", "2", "--r", "1",
                            "--seed", "0", "--budget", "5", "--samples", "5")
    assert code == 0 and obj["verification"] == "structural"


def test_color_large_graph_without_a_color_list(capsys):
    start = time.process_time()
    code, obj, _ = run_json(capsys, "color", "--h", "2", "--m", "2", "--n", "11", "--r", "1",
                            "--seed", "0")
    assert time.process_time() - start < 5.0
    assert code == 0 and obj["verification"] == "structural" and obj["n_colors"] == 2048


@pytest.mark.parametrize("argv", [
    ["graph-stats", "--h", "4", "--m", "1", "--n", "1", "--r", "1"],
    ["color", "--h", "4", "--m", "2", "--n", "2", "--r", "2"],
    ["cover-complement", "--h", "4", "--m", "2", "--n", "2", "--r", "2"],
    ["build-mrd", "--h", "4", "--m", "2", "--n", "2", "--r", "2"],
])
def test_r_equals_m_commands(argv, capsys):
    """r = m: the complete graph, its zero code and its single clique."""
    code, obj, _ = run_json(capsys, *argv)
    assert code == 0
    vertices = 4 ** (int(argv[4]) * int(argv[6]))
    expect = {
        "graph-stats": {"omega": vertices, "chi": vertices, "alpha": 1, "code_distance": None},
        "color": {"n_colors": vertices, "verification": "edges"},
        "cover-complement": {"parts": 1, "part_sizes": [vertices]},
        "build-mrd": {"size": 1, "verified_min_distance": None},
    }[argv[0]]
    assert {k: obj[k] for k in expect} == expect


def test_r_equals_m_above_budget_exits_3(capsys):
    for cmd in ("color", "build-mrd"):
        start = time.process_time()
        code, out, err = run(capsys, cmd, "--h", "2", "--m", "300", "--n", "300", "--r", "300")
        assert time.process_time() - start < 1.0
        assert code == 3 and out == "" and "2^90000 vertices exceed" in err


def test_connectivity_above_the_vertex_budget_needs_no_rank_table(monkeypatch, capsys):
    from ringmat import graph

    def refuse(*args):
        raise AssertionError("connectivity built a rank table")

    graph._rank_table.cache_clear()
    monkeypatch.setattr(graph, "exponent_table", refuse)
    code, obj, err = run_json(capsys, "graph-stats", "--h", "12", "--m", "2", "--n", "2",
                              "--r", "1", "--connectivity")
    assert code == 0 and err == ""
    assert obj["connected"] is True and obj["vertices"] == 20736 and "degree" not in obj


def test_connectivity_kernel_steps_are_charged_before_any_work(capsys):
    start = time.process_time()
    code, out, err = run(capsys, "graph-stats", "--h", "2", "--m", "30", "--n", "30",
                         "--r", "1", "--connectivity")
    assert time.process_time() - start < 1.0
    assert code == 3 and out == ""
    assert err == "budget exceeded: 24300000 kernel steps exceed the budget 10000000\n"


def test_connectivity_witness_failure_exits_1(monkeypatch, capsys):
    from ringmat import graph

    monkeypatch.setattr(graph, "inner_rank", lambda a: 2)
    code, out, err = run(capsys, "graph-stats", "--h", "6", "--m", "2", "--n", "2",
                         "--r", "1", "--connectivity")
    assert code == 1 and out == ""
    assert err.startswith("verification failed: unit matrix E_")


def test_graph_stats_builds_one_rank_table(monkeypatch, capsys):
    from ringmat import cli, graph

    colorings = []
    real = cli.color_graph
    monkeypatch.setattr(cli, "color_graph", lambda *a, **kw: colorings.append(a) or real(*a, **kw))
    for extra in ("--connectivity", "--exact"):
        graph._rank_table.cache_clear()
        code, obj, _ = run_json(capsys, "graph-stats", "--h", "4", "--m", "2", "--n", "2",
                                "--r", "1", extra)
        assert code == 0 and obj["degree"] == 81
        assert graph._rank_table.cache_info().misses == 1
    assert len(colorings) == 1  # --exact takes chi from a checked coloring
    # the table does not depend on r: the next radius on the same shape reuses it
    code, obj, _ = run_json(capsys, "graph-stats", "--h", "4", "--m", "2", "--n", "2", "--r", "2")
    assert code == 0 and obj["degree"] == 255
    assert graph._rank_table.cache_info().misses == 1


def test_color_structural_when_large(capsys):
    code, obj, err = run_json(capsys, "color", "--h", "12", "--m", "2",
                              "--n", "2", "--r", "1", "--seed", "3",
                              "--samples", "50")
    assert code == 0
    assert obj["n_colors"] == 144
    assert obj["verification"] == "structural"
    assert err == ""


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_threads_validation(capsys):
    """There is no worker-count option: passing one is an argparse usage exit."""
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--h", "4", "--m", "1", "--n", "1", "--threads", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["snf", "--matrix", "a.json", "--budget", "5"],
    ["rank", "--matrix", "a.json", "--budget", "5"],
    ["classify-clique", "--family", "f.json", "--r", "1", "--budget", "5"],
    ["selftest", "--budget", "5"],
    ["oracle", "omega", "--matrix", "a.json", "--budget", "5"],
    ["color", "--h", "6", "--m", "2", "--n", "2", "--r", "1", "--complement"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_argparse_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph-stats", "--h", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parser_is_built_once_per_process(capsys):
    for argv in (["graph-stats", "--h", "2", "--m", "2", "--n", "2", "--r", "1"],
                 ["orbits", "--h", "4", "--m", "2", "--n", "2"],
                 ["color", "--h", "3", "--m", "2", "--n", "2", "--r", "1", "--seed", "0"]):
        assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main(["color", "--h", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **kw: made.append(1) or init(self, *a, **kw)\n"
        "import sys\n"
        "import ringmat.cli, ringmat.selftest\n"
        "assert not made and ringmat.cli.build_parser.cache_info().currsize == 0, made\n"
        "assert not {'dataclasses', 'inspect'} & set(sys.modules), 'start-up pulls in dataclasses or inspect'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "snf", "--matrix", "/nonexistent/x.json")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["orbits", "--h", "4", "--m", "0", "--n", "2"], "dimensions must be positive, got 0x2"),
    (["orbits", "--h", "4", "--m", "2", "--n", "-3"], "dimensions must be positive, got 2x-3"),
    (["orbits", "--h", "6", "--m", "0", "--n", "2"], "dimensions must be positive, got 0x2"),
    (["orbits", "--h", "6", "--m", "2", "--n", "0", "--verify-product"], "dimensions must be positive, got 2x0"),
    (["selftest", "--only", "99"], "no check numbered 99"),
    (["selftest", "--level", "quick", "--only", "1", "99"], "no check numbered 99"),
])
def test_bad_dimensions_and_unknown_checks_exit_2_before_any_work(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--level", "quick", "--only", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("PASS check 3: orbit-product-law")

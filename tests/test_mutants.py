"""A wrong first route must fail its second route.

Each row patches a plausible wrong answer into the route that computes a
headline number, with monkeypatch, and asserts that the independent route
which checks that number then fails: a VerificationError, exit 1 or a FAIL
line.  A mutant that survives is a finding about the second route; its row
stays here.
"""

import json

import pytest

from ringmat import cli, cliques, codes, graph, orbits, smith
from ringmat.cli import main
from ringmat.cliques import CanonicalCliqueSpec, build_canonical_clique, classify_max_clique
from ringmat.errors import VerificationError
from ringmat.graph import GraphSpec, check_vertex_transitivity
from ringmat.matrix import Mat
from ringmat.ring import ring_spec


@pytest.fixture
def kernel(monkeypatch):
    """Patch smith._pp_smith with a wrapper (alpha, Uinv, Vinv) -> (alpha, Uinv, Vinv), caches cleared around it."""
    real = smith._pp_smith

    def patch(wrong):
        smith.clear_kernel_caches()
        monkeypatch.setattr(smith, "_pp_smith", lambda p, s, q, m, n, e, transforms: wrong(
            p, s, q, m, real(p, s, q, m, n, e, transforms)))

    yield patch
    smith.clear_kernel_caches()


def _selftest_lines(capsys, number: int) -> list[str]:
    assert main(["selftest", "--only", str(number)]) == 1
    return capsys.readouterr().out.splitlines()


# --- Smith form: S @ D @ T = A with S and T invertible and D read off omega ------------


def _raised(row, s):
    """One exponent raised by one: the last one below s, so the row stays nondecreasing."""
    c = sum(x < s for x in row) - 1
    return row if c < 0 else row[:c] + (row[c] + 1,) + row[c + 1:]


def test_a_raised_kernel_exponent_fails_verify_smith_form_and_check_1(kernel, capsys):
    kernel(lambda p, s, q, m, out: (_raised(out[0], s),) + out[1:])
    a = Mat.from_rows(ring_spec(12), [[2, 1], [0, 3]])
    with pytest.raises(VerificationError, match="does not reproduce the input"):
        smith.verify_smith_form(a, smith.snf(a))
    assert _selftest_lines(capsys, 1)[0].startswith("FAIL check 1")


def test_a_non_monotone_omega_row_is_refused(kernel):
    kernel(lambda p, s, q, m, out: (out[0][::-1],) + out[1:])
    with pytest.raises(VerificationError, match="is not nondecreasing"):
        smith.snf(Mat.from_rows(ring_spec(4), [[1, 0], [0, 2]]))  # alpha (0, 1), reversed


@pytest.mark.parametrize("h", [8, 30])
def test_an_entry_of_s_times_p_is_not_invertible(kernel, capsys, tmp_path, h):
    """Column m - 1 of Uinv meets a zero of D, so scaling its one nonzero entry by p keeps S @ D @ T = A;
    S is then singular mod p, which only the invertibility check sees (over Z_30 without a reduction mod rad)."""

    def scaled(p, s, q, m, out):
        alpha, ui, vi = out
        if ui is not None and alpha[-1] == s:
            ui = list(ui)
            i = next(i for i in range(m) if ui[i * m + m - 1])
            ui[i * m + m - 1] = ui[i * m + m - 1] * p % q
            ui = tuple(ui)
        return alpha, ui, vi

    kernel(scaled)
    a = Mat.from_rows(ring_spec(h), [[2, 0], [1, 0]])
    with pytest.raises(VerificationError, match="^S is not invertible$"):
        smith.verify_smith_form(a, smith.snf(a))
    (tmp_path / "a.csv").write_text("2,0,1,0\n")
    assert main(["snf", "--matrix", str(tmp_path / "a.csv"), "--h", str(h), "--rows", "2", "--cols", "2"]) == 1
    assert capsys.readouterr().err == "verification failed: S is not invertible\n"


# --- inner rank: the bisected exponent rows against the outer products ------------------


@pytest.mark.parametrize("wrong", [
    lambda row, s: row[::-1],  # bisected, (0, 1) over Z_2 or Z_3 reads rank 0; counted, it would still read 1
    _raised,
], ids=["permuted", "off-by-one"])
def test_a_wrong_exponent_row_fails_check_4(monkeypatch, capsys, wrong):
    real = smith._pp_exponents
    monkeypatch.setattr(smith, "_pp_exponents", lambda p, s, q, m, n, e: wrong(real(p, s, q, m, n, e), s))
    assert _selftest_lines(capsys, 4)[0].startswith("FAIL check 4")


# --- vertex transitivity: the sampled maps X -> S @ X @ T + A ---------------------------


def test_a_singular_sampled_map_fails_the_transitivity_check(monkeypatch):
    """S = diag(1, 0) drops the rank of some difference, so some sampled pair changes adjacency."""
    spec = GraphSpec(ring_spec(6), 2, 2, 1)
    assert check_vertex_transitivity(spec, 200, 0)
    monkeypatch.setattr(graph, "random_invertible", lambda ring, n, rng: Mat.diagonal(ring, [1] + [0] * (n - 1)))
    assert not check_vertex_transitivity(spec, 200, 0)


# --- omega witness: a maximum clique, checked by is_clique and by classification --------


def _moved(family, h):
    """The family with its largest member, a nonzero one, moved: 1 added to its last entry."""
    x = max(family)
    return family - {x} | {x[:-1] + ((x[-1] + 1) % h,)}


def test_a_moved_clique_member_fails_the_clique_check_and_classification(monkeypatch, capsys):
    """The builder's closure is passed on untouched, so the moved family is no coset of it and is walked."""
    real = cli.build_clique_and_walk

    def moved(cspec, *maps):
        family, walk = real(cspec, *maps)
        return _moved(family, 6), walk

    monkeypatch.setattr(cli, "build_clique_and_walk", moved)
    assert main(["build-clique", "--h", "6", "--m", "2", "--n", "2", "--r", "1", "--alpha", "0,0"]) == 1
    assert capsys.readouterr().err == "verification failed: built family is not a clique\n"
    spec = GraphSpec(ring_spec(6), 2, 2, 1)
    with pytest.raises(VerificationError):
        classify_max_clique(spec, _moved(build_canonical_clique(CanonicalCliqueSpec(spec, (0, 0))), 6))


def test_a_generator_moved_below_row_r_fails_the_rank_check(monkeypatch, capsys):
    """E_00 moved to E_r0 inside the build: the closure keeps the extremal size and the family is a coset
    of it, but E_r0 + E_01 has rank 2, so only the ranks of the closure's members catch it."""
    real = cliques._canonical_generators

    def moved(cspec):
        (i, j, step), *rest = real(cspec)
        return [(cspec.graph.r, j, step)] + rest

    monkeypatch.setattr(cliques, "_canonical_generators", moved)
    assert main(["build-clique", "--h", "6", "--m", "2", "--n", "2", "--r", "1", "--alpha", "0,0"]) == 1
    assert capsys.readouterr().err == "verification failed: built family is not a clique\n"


# --- alpha witness: a rank-distance code, checked by its verified distance ---------------


def test_a_replaced_code_word_fails_the_distance_check(monkeypatch, capsys, tmp_path):
    graph_args = ["--h", "6", "--m", "2", "--n", "3", "--r", "1"]
    path = tmp_path / "code.json"
    assert main(["build-mrd", *graph_args, "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["members"][-1] = [[1, 0, 0], [0, 0, 0]]  # E_00, of rank 1
    path.write_text(json.dumps(obj))
    assert main(["verify-code", "--family", str(path), "--d", "2"]) == 1
    real = codes._gabidulin_basis  # its first word replaced by E_00
    monkeypatch.setattr(codes, "_gabidulin_basis",
                        lambda field, m, k: [(1,) + (0,) * (m * field.n - 1)] + real(field, m, k)[1:])
    capsys.readouterr()
    assert main(["build-mrd", *graph_args]) == 1
    assert capsys.readouterr().err == "verification failed: verified distance 1 != claimed 2\n"


# --- orbit length: the closed-form census, checked by the component tables ---------------


@pytest.fixture
def census(monkeypatch):
    """Patch orbits._pp_counts with a wrapper (p, counts) -> counts, the kept census cleared around it."""
    real = orbits._pp_counts

    def patch(wrong):
        orbits._census.cache_clear()
        monkeypatch.setattr(orbits, "_pp_counts", lambda p, s, m, n: wrong(p, real(p, s, m, n)))

    yield patch
    orbits._census.cache_clear()


def _moved_length(p, counts):
    """Over Z_4, 1 moved from the first length to the last: the lengths still sum to h^(mn)."""
    if p == 2:
        counts[min(counts)] -= 1
        counts[max(counts)] += 1
    return counts


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_moved_orbit_length_fails_the_product_check(census, capsys, fmt):
    census(_moved_length)
    assert main(["orbits", "--h", "12", "--m", "2", "--n", "2", "--verify-product", "--format", fmt]) == 1
    captured = capsys.readouterr()
    if fmt == "json":
        assert json.loads(captured.out)["product_ok"] is False
    else:
        assert captured.err.startswith("verification failed: label ")


# --- chi: the coset coloring, checked through its connection elements or by sampled pairs -


def test_a_code_word_of_rank_one_fails_the_edge_check(monkeypatch, capsys):
    """The zero word replaced by E_00, its verified distance left at r + 1: the coloring's kernel holds an edge."""
    real = codes.mrd_code

    def replaced(spec, *budget):
        code = real(spec, *budget)
        zero = (0,) * (spec.m * spec.n)
        return code._replace(members=code.members - {zero} | {(1,) + zero[1:]})

    monkeypatch.setattr(codes, "mrd_code", replaced)
    assert main(["color", "--h", "5", "--m", "2", "--n", "2", "--r", "1"]) == 1
    assert capsys.readouterr().err.startswith("verification failed: edge (0, 125) is monochromatic")


def test_a_code_with_zero_top_rows_fails_the_sampled_check(monkeypatch, capsys):
    """Each word's top r rows zeroed, its verified distance left at r + 1: every pattern of the last
    rows still occurs once, but two vertices with the same top rows now share a color and differ by
    a matrix of rank <= m - r, so above the vertex budget a sampled pair is an edge."""
    real = codes.mrd_code

    def flattened(spec, *budget):
        code = real(spec, *budget)
        cut = spec.r * spec.n
        return code._replace(members=frozenset([(0,) * cut + x[cut:] for x in code.members]))

    monkeypatch.setattr(codes, "mrd_code", flattened)
    assert main(["color", "--h", "12", "--m", "2", "--n", "2", "--r", "1", "--seed", "0"]) == 1
    assert capsys.readouterr().err.startswith("verification failed: sampled edge (")


# --- classification: the recovered form, checked by its generator certificate ---------------


def _rows_swapped(a):
    """a with its first and last rows swapped."""
    rows = [a.entries[i * a.cols:(i + 1) * a.cols] for i in range(a.rows)]
    rows[0], rows[-1] = rows[-1], rows[0]
    return Mat._new(a.ring, a.rows, a.cols, sum(rows, ()))


def _classify_patched(monkeypatch, capsys, tmp_path, patch):
    """classify-clique's exit and stderr on the Z_6 2x2 row clique, each recovered form passed through patch."""
    path = tmp_path / "fam.json"
    assert main(["build-clique", "--h", "6", "--m", "2", "--n", "2", "--r", "1", "--alpha", "0,0",
                 "--out", str(path)]) == 0
    real = cliques.CliqueForm
    monkeypatch.setattr(cliques, "CliqueForm", lambda *fields: real(*patch(*fields)))
    capsys.readouterr()
    code = main(["classify-clique", "--family", str(path), "--r", "1"])
    return code, capsys.readouterr().err


def test_a_wrong_recovered_s_fails_the_rebuild(monkeypatch, capsys, tmp_path):
    """S with its rows swapped is invertible, but maps E_00 into the second row, outside the clique's group."""
    code, err = _classify_patched(monkeypatch, capsys, tmp_path, lambda spec, tag, S, T, alpha, B0: (
        spec, tag, None if S is None else _rows_swapped(S), T, alpha, B0))
    assert code == 1
    assert err.startswith("verification failed: recovered parameterization does not rebuild the family")


@pytest.mark.parametrize("field, message", [
    ("T", "recovered T is not invertible"),
    ("B0", "recovered B0 is not a member of the family"),
])
def test_a_singular_t_or_an_outside_b0_fails_the_certificate(monkeypatch, capsys, tmp_path, field, message):
    """T = diag(1, 0) fixes E_00 and kills E_01, and B0 + E_10 shifts the clique off itself: either way
    every mapped generator still lies in the clique's group, so only the invertibility test or the
    membership test of B0 catches it."""
    def patch(spec, tag, S, T, alpha, B0):
        if field == "T":
            return spec, tag, S, Mat.diagonal(spec.ring, [1, 0]), alpha, B0
        return spec, tag, S, T, alpha, B0 + Mat.from_rows(spec.ring, [[0, 0], [1, 0]])

    assert _classify_patched(monkeypatch, capsys, tmp_path, patch) == (1, f"verification failed: {message}\n")

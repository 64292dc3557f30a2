"""Canonical cliques, classification, rebuild gates, extremal verification."""

import json
import random
from itertools import combinations, product
from operator import mul

import pytest

from conftest import canonical_members, mat_clique, zeros
from ringmat import cli, cliques
from ringmat.cliques import (
    build_canonical_clique,
    CanonicalCliqueSpec,
    classify_max_clique,
    CliqueForm,
    COL_FORM,
    coset_difference_group,
    difference_ranks,
    enumerate_max_cliques,
    is_clique,
    MIXED_FORM,
    random_clique_form,
    rebuild_clique,
    ROW_FORM,
    verify_ekr,
)
from ringmat.codes import clique_cover_complement, mrd_code, RankCode, verify_distance
from ringmat.errors import (
    BudgetExceededError,
    NotIntersectingError,
    ShapeError,
    UsageError,
    VerificationError,
)
from ringmat.graph import GraphSpec
from ringmat.matrix import Mat, random_invertible, random_matrix
from ringmat.ring import ring_spec
from ringmat.smith import inner_rank


def _spec(h, m=2, n=2, r=1):
    return GraphSpec(ring_spec(h), m, n, r)


def test_canonical_clique_sizes():
    for h, alphas in ((6, [(0, 0), (1, 1), (0, 1), (1, 0)]),
                      (12, [(0, 0), (2, 1), (0, 1), (2, 0)])):
        spec = _spec(h)
        for alpha in alphas:
            fam = build_canonical_clique(CanonicalCliqueSpec(spec, alpha))
            assert len(fam) == spec.clique_bound
            assert is_clique(spec, fam)
    rect = _spec(6, 2, 3, 1)
    fam = build_canonical_clique(CanonicalCliqueSpec(rect, (0, 0)))
    assert len(fam) == 216
    assert is_clique(rect, fam, pair_budget=30000)


def test_canonical_spec_validation():
    spec = _spec(12)
    with pytest.raises(UsageError):
        CanonicalCliqueSpec(spec, (1, 1))  # exponents must be 0 or s_i
    with pytest.raises(UsageError):
        CanonicalCliqueSpec(spec, (2,))  # one exponent per prime
    rect = _spec(6, 2, 3, 1)
    with pytest.raises(UsageError):
        CanonicalCliqueSpec(rect, (1, 1))  # nonzero alpha needs m == n


def test_is_clique_detects_violations():
    spec = _spec(6)
    ring = spec.ring
    assert not is_clique(spec, [zeros(ring, 2, 2).entries, Mat.identity(ring, 2).entries])
    with pytest.raises(BudgetExceededError):
        fam = build_canonical_clique(CanonicalCliqueSpec(spec, (0, 0)))
        is_clique(spec, fam, pair_budget=10)


@pytest.mark.parametrize("check", [
    is_clique,
    verify_ekr,
    lambda spec, fam: verify_distance(RankCode(spec.ring, spec.m, spec.n, frozenset(fam), 2, False, None)),
], ids=["is_clique", "verify_ekr", "verify_distance"])
@pytest.mark.parametrize("member, error, message", [
    ((1, 1, 1, 1, 1), ShapeError, "family members must have 4 entries"),
    ((7, 0, 0, 0), UsageError, r"family entries must lie in \[0, 6\)"),
    ((-1, 0, 0, 0), UsageError, r"family entries must lie in \[0, 6\)"),
], ids=["long", "above-h", "negative"])
def test_a_malformed_member_is_refused_before_the_walk(check, member, error, message):
    """Differences are zipped and reduced mod h, so without the test these families pass as cliques."""
    with pytest.raises(error, match=message):
        check(_spec(6), [(0, 0, 0, 0), member])


def test_classification_round_trip_all_tags():
    spec = _spec(6)
    for alpha, tag in (((0, 0), ROW_FORM), ((1, 1), COL_FORM),
                       ((0, 1), MIXED_FORM), ((1, 0), MIXED_FORM)):
        for seed in range(5):
            form = random_clique_form(spec, alpha, seed)
            fam = rebuild_clique(form)
            back = classify_max_clique(spec, fam)
            assert back.tag == tag
            assert back.alpha == alpha
            assert rebuild_clique(back) == fam


def test_classify_rejects_wrong_size():
    spec = _spec(6)
    fam = list(build_canonical_clique(CanonicalCliqueSpec(spec, (0, 0))))
    with pytest.raises(VerificationError):
        classify_max_clique(spec, fam[:-1])
    with pytest.raises(ShapeError):  # a member of another shape
        classify_max_clique(spec, fam[:-1] + [(0,) * 6])


def test_classify_rejects_right_size_non_clique():
    spec = _spec(6)
    fam = sorted(build_canonical_clique(CanonicalCliqueSpec(spec, (0, 0))))
    outside = Mat.identity(spec.ring, 2).entries
    assert outside not in fam
    tampered = fam[:-1] + [outside]
    with pytest.raises(VerificationError):
        classify_max_clique(spec, tampered)


def test_rebuild_rejects_collapsing_parameters():
    spec = _spec(6)
    ring = spec.ring
    zero = zeros(ring, 2, 2)
    singular_2 = Mat.from_rows(ring, [[2, 0], [0, 1]])  # kills the first row mod 2
    for tag, s_mat, t_mat, alpha in ((ROW_FORM, zero, None, (0, 0)),
                                     (ROW_FORM, singular_2, None, (0, 0)),
                                     (COL_FORM, None, Mat.from_rows(ring, [[3, 0], [0, 1]]), (1, 1)),
                                     (MIXED_FORM, singular_2, Mat.identity(ring, 2), (0, 1))):
        with pytest.raises(VerificationError, match="collapsed"):
            rebuild_clique(CliqueForm(spec, tag, s_mat, t_mat, alpha, zero))


def test_clique_form_tag_validation():
    spec = _spec(6)
    with pytest.raises(UsageError):
        CliqueForm(spec, "Sideways", None, None, (0, 0), zeros(spec.ring, 2, 2))


def test_enumerate_max_cliques_z2():
    spec = _spec(2)
    cliques = enumerate_max_cliques(spec)
    assert len(cliques) == 24
    assert all(len(c) == 4 for c in cliques)
    assert len(set(map(frozenset, cliques))) == 24
    for fam in cliques:
        assert is_clique(spec, fam)


def test_enumerate_max_cliques_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_max_cliques(_spec(6), budget=256)


def test_verify_ekr_accepts_subfamily_without_form():
    spec = _spec(6)
    fam = sorted(build_canonical_clique(CanonicalCliqueSpec(spec, (0, 0))))
    rep = verify_ekr(spec, fam[:10])
    assert rep.within_bound and not rep.extremal
    assert rep.form is None
    assert rep.size == 10 and rep.bound == 36


def test_verify_ekr_rejects_non_intersecting():
    spec = _spec(6)
    family = [zeros(spec.ring, 2, 2).entries, Mat.identity(spec.ring, 2).entries]
    with pytest.raises(NotIntersectingError):
        verify_ekr(spec, family)


def test_verify_ekr_classifies_extremal():
    spec = _spec(12)
    fam = rebuild_clique(random_clique_form(spec, (0, 1), 9))
    rep = verify_ekr(spec, fam)
    assert rep.extremal
    assert rep.form is not None and rep.form.tag == MIXED_FORM


def test_random_clique_form_deterministic():
    spec = _spec(6)
    f1 = random_clique_form(spec, (0, 1), 5)
    f2 = random_clique_form(spec, (0, 1), 5)
    assert f1 == f2
    assert rebuild_clique(f1) == rebuild_clique(f2)


# --- coset route against the pairwise route --------------------------------------


def _pairwise_is_clique(monkeypatch, spec, family):
    """is_clique with the coset route switched off: the pairwise oracle."""
    with monkeypatch.context() as mp:
        mp.setattr(cliques, "coset_difference_group", lambda entries, h: None)
        return is_clique(spec, family, pair_budget=10**6)


def _shifted(family, h):
    b0 = min(family)
    return {tuple((x - y) % h for x, y in zip(f, b0)) for f in family}


# (h, n, alpha of the rebuilt clique); 2x3 needs alpha = 0, and h=12 2x3
# (1728 members, about 1.5 million pairs) is left out of the pairwise oracle
COSET_CASES = [
    (4, 2, (2,)), (6, 2, (0, 1)), (9, 2, (2,)), (12, 2, (2, 1)),
    (4, 3, (0,)), (6, 3, (0, 0)), (9, 3, (0,)),
]


@pytest.mark.parametrize("h, n, alpha", COSET_CASES)
def test_coset_route_matches_pairwise_on_cliques(monkeypatch, h, n, alpha):
    spec = _spec(h, 2, n, 1)
    canonical = build_canonical_clique(CanonicalCliqueSpec(spec, (0,) * spec.ring.t))
    rebuilt = rebuild_clique(random_clique_form(spec, alpha, h))
    for fam in (canonical, rebuilt):
        group, _ = coset_difference_group(fam, h)
        assert group == _shifted(fam, h)
        assert is_clique(spec, fam, pair_budget=10**6)
        assert _pairwise_is_clique(monkeypatch, spec, fam)


def test_subgroup_coset_of_rank_two_matrix_is_not_a_clique(monkeypatch):
    spec = _spec(6)
    ring = spec.ring
    b0 = random_matrix(ring, 2, 2, 3)
    ident = Mat.identity(ring, 2)
    mats = [Mat.diagonal(ring, [k, k]) + b0 for k in range(6)]
    assert mats[1] - mats[0] == ident
    fam = [mat.entries for mat in mats]
    walk = coset_difference_group(fam, 6)
    assert walk is not None and len(walk[0]) == 6
    assert not is_clique(spec, fam)
    assert not _pairwise_is_clique(monkeypatch, spec, fam)


def test_non_coset_families_fall_back_to_pairwise(monkeypatch):
    spec = _spec(6)
    ring = spec.ring
    fam = sorted(rebuild_clique(random_clique_form(spec, (1, 0), 4)))
    outside = next(x for x in (random_matrix(ring, 2, 2, k).entries for k in range(100)) if x not in fam)
    rng = random.Random(20)
    random_set = {random_matrix(ring, 2, 2, rng).entries for _ in range(40)}
    random_set = sorted(random_set)[:20]
    assert len(random_set) == 20
    for family, want in ((fam[:-1], True), (fam + [outside], False), (random_set, None)):
        assert coset_difference_group(family, 6) is None
        got = is_clique(spec, family)
        assert got == _pairwise_is_clique(monkeypatch, spec, family)
        if want is not None:
            assert got == want


@pytest.mark.parametrize("h, n", [(6, 2), (12, 2), (9, 2), (10, 3)])
def test_difference_ranks_match_inner_rank(h, n):
    spec = _spec(h, 2, n, 1)
    ring = spec.ring
    coset = sorted(rebuild_clique(random_clique_form(spec, (0,) * ring.t, h)))
    group, _ = coset_difference_group(coset, h)
    assert list(difference_ranks(ring, 2, n, (), group)) == [
        inner_rank(Mat(ring, 2, n, g)) for g in group if any(g)
    ]
    rng = random.Random(h)
    family = coset[:30] + [random_matrix(ring, 2, n, rng).entries for _ in range(30)]  # with repeated differences
    assert list(difference_ranks(ring, 2, n, family, None)) == [
        inner_rank(Mat(ring, 2, n, a) - Mat(ring, 2, n, b)) for a, b in combinations(family, 2) if a != b
    ]


def test_pair_budget_is_checked_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the budget check")

    spec = _spec(6)
    fam = sorted(build_canonical_clique(CanonicalCliqueSpec(spec, (0, 0))))
    with monkeypatch.context() as mp:  # a coset of 36: |F| - 1 = 35 rank checks, charged before the walk
        mp.setattr(cliques, "coset_difference_group", refuse)
        with pytest.raises(BudgetExceededError, match="35 rank checks exceed the budget 34"):
            is_clique(spec, fam, pair_budget=34)
        with pytest.raises(AssertionError):  # the walk is reached at |F| - 1
            is_clique(spec, fam, pair_budget=35)
    assert is_clique(spec, fam, pair_budget=35)
    # 35 members, no coset: the walk runs, then C(35, 2) = 595 pairs are charged before any kernel call
    walks = []
    real_walk = cliques.coset_difference_group
    monkeypatch.setattr(cliques, "coset_difference_group", lambda *args: walks.append(real_walk(*args)) or walks[-1])
    monkeypatch.setattr(cliques, "_pp_exponents", refuse)
    with pytest.raises(BudgetExceededError, match="595 rank checks exceed the budget 594"):
        is_clique(spec, fam[:-1], pair_budget=594)
    assert walks == [None]
    with pytest.raises(AssertionError):  # the kernel is reached at C(|F|, 2)
        is_clique(spec, fam[:-1], pair_budget=595)


# --- the member-by-member route as the oracle ---------------------------------


def _mapped_members(form, members):
    """The entries of S @ M @ T + B0 for every M in members, each mapped on its own.

    Entry (i, j) of S @ M @ T is the dot product of vec(M) with the row
    (S[i, k] * T[l, j] for k, l) of S (x) T^t.
    """
    spec = form.graph
    ring = spec.ring
    h, m, n = ring.h, spec.m, spec.n
    s_ents = (form.S or Mat.identity(ring, m)).entries
    t_ents = (form.T or Mat.identity(ring, n)).entries
    rows = [[s_ents[i * m + k] * t_ents[l * n + j] for k in range(m) for l in range(n)]
            for i in range(m) for j in range(n)]
    shift = form.B0.entries
    return {tuple((sum(map(mul, row, x)) + b) % h for row, b in zip(rows, shift)) for x in members}


def _valid_alphas(spec):
    choices = product(*[(0, s) for _, s in spec.ring.primes])
    return [a for a in choices if spec.m == spec.n or not any(a)]


ORACLE_CASES = [(h, 2, 2, 1) for h in (4, 6, 9, 12)] + [(6, 2, 3, 1), (6, 3, 3, 1), (6, 3, 3, 2)]


@pytest.mark.parametrize("h, m, n, r", ORACLE_CASES)
def test_generator_closure_matches_the_member_loops(h, m, n, r):
    spec = _spec(h, m, n, r)
    for alpha in _valid_alphas(spec):
        cspec = CanonicalCliqueSpec(spec, alpha)
        members = canonical_members(cspec)
        assert len(members) == spec.clique_bound
        assert build_canonical_clique(cspec) == members
        form = random_clique_form(spec, alpha, h + m + n + r)
        assert rebuild_clique(form) == _mapped_members(form, members)


@pytest.mark.parametrize("h, m, n", [(4, 2, 2), (5, 2, 2), (6, 2, 2), (9, 2, 2), (12, 2, 2), (6, 2, 3), (6, 3, 3)])
def test_entry_tuple_families_match_the_mat_route(h, m, n):
    """Cliques and cover parts as entry tuples against the same sets summed and multiplied as Mats."""
    spec = _spec(h, m, n, 1)
    rng = random.Random(h + m + n)
    for alpha in _valid_alphas(spec):
        form = random_clique_form(spec, alpha, rng)
        cspec = CanonicalCliqueSpec(spec, alpha)
        old = mat_clique(cspec, form.S, form.T, form.B0)
        assert {x.entries for x in old} == build_canonical_clique(cspec, form.S, form.T, form.B0)
    if h in (5, 6) and (m, n) == (2, 2):
        base = mat_clique(CanonicalCliqueSpec(spec, (0,) * spec.ring.t))
        words = [Mat(spec.ring, m, n, c) for c in sorted(mrd_code(spec).members)]
        assert list(clique_cover_complement(spec).parts) == [{(mem + x).entries for x in base} for mem in words]


# --- classification from the group's generators ----------------------------------


def _stack_shapes(monkeypatch):
    """The (rows, cols) of every stack classify_max_clique hands to the Smith kernel."""
    shapes = []
    real = cliques._pp_smith_cached
    monkeypatch.setattr(cliques, "_pp_smith_cached", lambda *args: shapes.append(args[3:5]) or real(*args))
    return shapes


def _stacks_generators(shapes, m, n, size):
    """Each stack holds at most floor(log2 size) members: m x (n*k) or (m*k) x n."""
    k = size.bit_length() - 1
    return shapes and all((rows == m and cols <= n * k) or (cols == n and rows <= m * k) for rows, cols in shapes)


@pytest.mark.parametrize("h, m, alpha, tag", [
    (4, 2, (2,), COL_FORM), (9, 3, (2,), COL_FORM), (6, 2, (1, 0), MIXED_FORM), (6, 3, (0, 1), MIXED_FORM),
])
def test_classification_stacks_the_generators(monkeypatch, h, m, alpha, tag):
    spec = _spec(h, m, m)
    fam = sorted(rebuild_clique(random_clique_form(spec, alpha, h + m)))
    shapes = _stack_shapes(monkeypatch)
    form = classify_max_clique(spec, fam)
    assert (form.tag, form.alpha) == (tag, alpha)
    assert _stacks_generators(shapes, m, m, len(fam))
    outside = next(x for x in (random_matrix(spec.ring, m, m, k).entries for k in range(100)) if x not in fam)
    with pytest.raises(VerificationError, match="not a coset"):  # one member swapped: no coset
        classify_max_clique(spec, fam[1:] + [outside])


def test_verify_ekr_walks_each_family_once(monkeypatch):
    spec = _spec(12)
    fam = rebuild_clique(random_clique_form(spec, (2, 1), 12))
    closures = []
    real_closure = cliques.subgroup_closure
    monkeypatch.setattr(cliques, "subgroup_closure", lambda *args: closures.append(args[2]) or real_closure(*args))
    rep = verify_ekr(spec, fam)
    assert rep.extremal and len(fam) == 144
    assert closures == [144]  # the walk; the form is certified by its generators, not rebuilt


def _closure_counter(monkeypatch):
    """The limits of the cliques module's subgroup_closure calls, in order."""
    closures = []
    real_closure = cliques.subgroup_closure
    monkeypatch.setattr(cliques, "subgroup_closure", lambda *args: closures.append(args[2]) or real_closure(*args))
    return closures


def test_each_clique_command_closes_its_clique_once(monkeypatch, tmp_path, capsys):
    """The builders hand their closure to the clique check, and classification certifies its form from
    the generators, so no command closes a clique's group a second time."""
    path = str(tmp_path / "fam.json")
    graph = ["--h", "6", "--m", "2", "--n", "2", "--r", "1"]
    for argv in (["build-clique", *graph, "--alpha", "1,0", "--out", path],
                 ["graph-stats", *graph],
                 ["cover-complement", *graph],
                 ["classify-clique", "--family", path, "--r", "1"],
                 ["verify-ekr", "--family", path, "--r", "1"]):
        with monkeypatch.context() as patch:
            closures = _closure_counter(patch)
            assert cli.main(argv) == 0, argv
        assert closures == [36], argv
    capsys.readouterr()


def test_a_given_closure_stands_for_the_walk_only_for_its_coset(monkeypatch):
    """Over Z_2 2x2 the closure of all E_ij holds the rank-2 identity: ranked as the walk of the row
    clique, a part of it, or of that clique listed four times over, it would refuse a clique."""
    spec = _spec(2)
    row = sorted(build_canonical_clique(CanonicalCliqueSpec(spec, (0,))))
    everything = {spec.vertex_entries(v) for v in range(spec.n_vertices)}
    closures = _closure_counter(monkeypatch)
    for family in (row, row * 4):
        assert is_clique(spec, family, walk=(everything, []))
    assert len(closures) == 2  # each family is walked
    closures.clear()
    family, walk = cliques.build_clique_and_walk(CanonicalCliqueSpec(spec, (0,)))
    assert closures == [4] and is_clique(spec, family, walk=walk) and closures == [4]


def _certified(form, fam, group):
    try:
        cliques._certify_form(form, fam, group)
    except VerificationError:
        return False
    return True


CLASSIFY_GRID = [(h, m, n, 1) for h in range(2, 13) for m, n in ((2, 2), (2, 3), (3, 3))]
CLASSIFY_GRID += [(h, 3, 3, 2) for h in range(2, 5)]


@pytest.mark.parametrize("h, m, n, r", CLASSIFY_GRID)
def test_every_classified_form_rebuilds_its_family(h, m, n, r):
    """The rebuild, the route the generator certificate replaced, as the oracle: every form returned rebuilds."""
    spec = _spec(h, m, n, r)
    rng = random.Random(h * 100 + m * 10 + n + r)
    for alpha in _valid_alphas(spec):
        fam = rebuild_clique(random_clique_form(spec, alpha, rng))
        form = classify_max_clique(spec, fam)
        assert form.alpha == alpha
        assert rebuild_clique(form) == fam


def _perturbed(form, rng):
    """form with one field redrawn, S and T kept invertible: a random S, T, shift, member shift or alpha."""
    spec, ring = form.graph, form.graph.ring
    kind = rng.choice(["S", "T", "B0", "member", "alpha"])
    s_mat, t_mat, alpha, b0 = form.S, form.T, form.alpha, form.B0
    if kind == "S" and s_mat is not None:
        s_mat = random_invertible(ring, spec.m, rng)
    elif kind == "T" and t_mat is not None:
        t_mat = random_invertible(ring, spec.n, rng)
    elif kind == "B0":
        b0 = random_matrix(ring, spec.m, spec.n, rng)
    elif kind == "member":
        b0 = Mat(ring, spec.m, spec.n, rng.choice(sorted(rebuild_clique(form))))
    else:
        alpha = rng.choice(_valid_alphas(spec))
    return CliqueForm(spec, form.tag, s_mat, t_mat, alpha, b0)


@pytest.mark.parametrize("h, m, n", [(4, 2, 2), (6, 2, 2), (9, 2, 2), (12, 2, 2), (6, 2, 3), (6, 3, 3)])
def test_the_generator_certificate_agrees_with_the_rebuild(h, m, n):
    """For forms with invertible S and T, redrawn one field at a time, the certificate accepts exactly
    the forms that rebuild the family."""
    spec = _spec(h, m, n, 1)
    rng = random.Random(h + m + n)
    verdicts = set()
    for alpha in _valid_alphas(spec):
        fam = rebuild_clique(random_clique_form(spec, alpha, rng))
        walk = coset_difference_group(fam, h)
        form = classify_max_clique(spec, fam)
        for _ in range(12):
            other = _perturbed(form, rng)
            verdict = _certified(other, fam, walk[0])
            assert verdict == (rebuild_clique(other) == fam), other
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_classify_clique_command_on_1331_members(monkeypatch, tmp_path, capsys):
    path = str(tmp_path / "fam.json")
    argv = ["build-clique", "--h", "11", "--m", "3", "--n", "3", "--r", "1", "--alpha", "0", "--budget", "1000000"]
    assert cli.main(argv + ["--out", path]) == 0
    shapes = _stack_shapes(monkeypatch)
    capsys.readouterr()
    assert cli.main(["classify-clique", "--family", path, "--r", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["tag"], obj["size"]) == (ROW_FORM, 1331)
    assert _stacks_generators(shapes, 3, 3, 1331)

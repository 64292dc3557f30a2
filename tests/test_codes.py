"""Rank-distance codes, coset colorings, complement covers, certificates."""

import math
import operator
import random
import re
from itertools import product

import pytest

from conftest import decoded_color, translate_ids, zeros
from ringmat import cliques, codes
from ringmat.codes import (
    _complement_lookup,
    _gabidulin_basis,
    certify_graph_parameters,
    clique_cover_complement,
    color_graph,
    Coloring,
    FieldSpec,
    GraphCertificate,
    mrd_code,
    RankCode,
    verify_distance,
)
from ringmat.errors import BudgetExceededError, ShapeError, UsageError, VerificationError
from ringmat.graph import build_graph, GraphSpec, subgroup_closure
from ringmat.matrix import Mat, random_matrix
from ringmat.ring import ring_spec
from ringmat.smith import inner_rank

FROZEN_MODULI = {
    (2, 2): (1, 1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),   # x^3 + x + 1
    (3, 2): (1, 0, 1),      # x^2 + 1
    (3, 3): (1, 2, 0, 1),   # x^3 + 2x + 1
    (5, 2): (2, 0, 1),      # x^2 + 2
}


def _spec(h, m=2, n=2, r=1):
    return GraphSpec(ring_spec(h), m, n, r)


def test_default_field_moduli_frozen():
    for (p, n), coeffs in FROZEN_MODULI.items():
        assert FieldSpec.default(p, n).modulus == coeffs


def _add(field, a, b):
    return tuple((x + y) % field.p for x, y in zip(a, b))


def test_field_axioms_sampled():
    field = FieldSpec.default(3, 2)
    elems = list(product(range(3), repeat=2))
    one = field.one()
    zero = (0, 0)
    # the nonzero elements form a group of order p^n - 1
    for x in elems:
        if x == zero:
            continue
        assert field._pow(x, 8) == one
    # frobenius is additive and fixes the prime subfield
    for x in elems[:5]:
        for y in elems[:5]:
            fx = field.frobenius_power(x, 1)
            fy = field.frobenius_power(y, 1)
            assert field.frobenius_power(_add(field, x, y), 1) == _add(field, fx, fy)
            assert field.frobenius_power(field.mul(x, y), 1) == field.mul(fx, fy)


def _prime_field_code(p, m, n, d):
    """(words, basis, least nonzero rank) of the evaluation code over F_p of distance d: mrd_code
    for d >= 2, else, as r = 0 has no graph, one closure of _gabidulin_basis ranked as mrd_code ranks it."""
    if d >= 2:
        code = mrd_code(_spec(p, m, n, d - 1))
        return set(code.members), list(code.basis), code.verified_distance
    basis = _gabidulin_basis(FieldSpec.default(p, n), m, m)
    group = subgroup_closure(basis, p, p ** (m * n))
    return group, basis, min(cliques.difference_ranks(ring_spec(p), m, n, group, group))


def test_gabidulin_sizes_and_distances():
    for p, m, n, d in ((2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 3, 2)):
        code = mrd_code(_spec(p, m, n, d - 1))
        assert code.size == p ** (n * (m - d + 1))
        assert verify_distance(code) == d
        assert code.linear
        zero = zeros(code.ring, m, n)
        assert zero.entries in code.members


def test_gabidulin_distance_one_is_whole_space():
    words, _, distance = _prime_field_code(2, 2, 2, 1)
    assert len(words) == 16
    assert distance == 1


# --- the span construction against the message, lift and CRT-product routes ------


def _message_code(field, m, n, d):
    """Words of every message over the extension field, and of the unit messages in order."""
    k, units = m - d + 1, [tuple(int(i == e) for i in range(n)) for e in range(n)]
    frob = [[field.frobenius_power(u, j) for u in units] for j in range(k)]

    zero = (0,) * n

    def codeword(message):
        cols = [zero] * n
        for j, c in enumerate(message):
            cols = [_add(field, col, field.mul(c, frob[j][l])) for l, col in enumerate(cols)]
        return tuple(cols[l][i] for i in range(m) for l in range(n))

    words = {codeword(message) for message in product(product(range(field.p), repeat=n), repeat=k)}
    return words, [codeword([x if i == j else zero for i in range(k)]) for j in range(k) for x in units]


@pytest.mark.parametrize("p, m, n, d", [(p, m, n, d) for p in (2, 3, 5) for m, n in ((2, 2), (2, 3)) for d in (1, 2)])
def test_gabidulin_span_matches_message_oracle(p, m, n, d):
    field = FieldSpec.default(p, n)
    words, basis = _message_code(field, m, n, d)
    span, span_basis, distance = _prime_field_code(p, m, n, d)
    assert span == words
    assert span_basis == basis
    assert distance == d and len(span) == p ** (n * (m - d + 1))


@pytest.mark.parametrize("h, m, n, r", [
    (h, 2, n, 1) for h in (2, 3, 4, 5, 6, 8, 9, 12, 30) for n in (2, 3)
] + [(6, 3, 3, 2)])
def test_mrd_span_matches_lift_and_crt_product_oracle(h, m, n, r):
    """Each prime code lifted over all coefficient vectors, then the CRT product of the member sets."""
    ring, zero = ring_spec(h), (0,) * (m * n)
    comps, basis = [], []
    for i, ((p, _), q) in enumerate(zip(ring.primes, ring.prime_powers)):
        base = _message_code(FieldSpec.default(p, n), m, n, r + 1)[1]
        comps.append({
            tuple(sum(c * b[x] for c, b in zip(coeffs, base)) % q for x in range(m * n))
            for coeffs in product(range(q), repeat=len(base))
        })
        basis += [ring.crt_vectors([b if j == i else zero for j in range(ring.t)]) for b in base]
    code = mrd_code(_spec(h, m, n, r))
    assert code.members == {ring.crt_vectors(words) for words in product(*comps)}
    assert list(code.basis) == basis
    assert code.verified_distance == r + 1


def test_mrd_sizes_all_rings():
    for h, m, n in ((2, 2, 2), (3, 2, 2), (4, 2, 2), (6, 2, 2), (12, 2, 2), (4, 2, 3)):
        spec = _spec(h, m, n, 1)
        code = mrd_code(spec)
        assert code.size == spec.independence_bound
        assert code.claimed_min_distance == 2


def test_code_is_independent_set():
    for h in (2, 3):
        spec = _spec(h)
        members = [Mat(spec.ring, 2, 2, x) for x in sorted(mrd_code(spec).members)]
        assert len(members) == spec.independence_bound
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert inner_rank(a - b) > spec.r


def test_verify_distance_edge_cases():
    ring = ring_spec(4)
    singleton = RankCode(ring, 2, 2, frozenset([zeros(ring, 2, 2).entries]), 1, False, None)
    assert verify_distance(singleton) == math.inf
    linear_no_zero = RankCode(
        ring, 2, 2, frozenset([Mat.identity(ring, 2).entries, Mat.diagonal(ring, [2, 2]).entries]),
        1, True, None,
    )
    with pytest.raises(VerificationError):
        verify_distance(linear_no_zero)
    pair = RankCode(
        ring, 2, 2,
        frozenset([zeros(ring, 2, 2).entries, Mat.identity(ring, 2).entries]), 2, False, None,
    )
    assert verify_distance(pair) == 2
    with pytest.raises(BudgetExceededError):
        verify_distance(mrd_code(_spec(6)), pair_budget=3)
    # a single word is checked for shape and range before the empty minimum
    z6 = ring_spec(6)
    with pytest.raises(ShapeError):
        verify_distance(RankCode(z6, 2, 2, frozenset([(7, 0, 0, 0, 0)]), 2, False, None))
    with pytest.raises(UsageError):
        verify_distance(RankCode(z6, 2, 2, frozenset([(6, 0, 0, 0)]), 2, False, None))
    assert verify_distance(RankCode(z6, 2, 2, frozenset([(5, 0, 1, 2)]), 2, False, None)) == math.inf


def _small_shapes(max_vertices=4096):
    """(h, m, n, r) over Z_2 ... Z_12 with m <= n, r in (1, 2), r <= m and at most max_vertices vertices."""
    return [(h, m, n, r) for h in range(2, 13) for m in range(1, 13) for n in range(m, 13) for r in (1, 2)
            if r <= m and h ** (m * n) <= max_vertices]


def test_color_of_matches_the_decoded_colors_on_every_small_shape():
    shapes = _small_shapes()
    assert len(shapes) == 84 and (2, 3, 4, 2) in shapes and (12, 1, 3, 1) in shapes
    for h, m, n, r in shapes:
        spec = _spec(h, m, n, r)
        code = mrd_code(spec)
        col, oracle = color_graph(spec, code=code), decoded_color(spec, code)
        assert [col.color_of(v) for v in range(spec.n_vertices)] == list(map(oracle, range(spec.n_vertices)))


@pytest.mark.parametrize("h,m,n,r", [(12, 2, 2, 1), (6, 2, 3, 1), (2, 3, 4, 2)])
def test_sampled_check_ranks_the_pairs_the_decoded_colors_pick(monkeypatch, h, m, n, r):
    spec = _spec(h, m, n, r)
    code = mrd_code(spec)
    oracle = decoded_color(spec, code)
    ranked = []
    real = codes.adjacent
    monkeypatch.setattr(codes, "adjacent", lambda spec, a, b: ranked.append((a.entries, b.entries)) or real(spec, a, b))
    total = 0
    for seed in range(5):
        ranked.clear()
        assert color_graph(spec, vertex_budget=100, sample_seed=seed, code=code).verification == "structural"
        rng, want = random.Random(seed), []
        for _ in range(1000):
            u, v = rng.randrange(spec.n_vertices), rng.randrange(spec.n_vertices)
            if u != v and oracle(u) == oracle(v):
                want.append((spec.vertex_entries(u), spec.vertex_entries(v)))
        assert ranked == want
        total += len(want)
    assert total > 0


def test_coloring_small_graph_fully_checked():
    spec = _spec(4)
    col = color_graph(spec, vertex_budget=500)
    assert col.n_colors == 16
    assert col.verification == "edges"
    # independent re-check against the materialized graph
    colors = [col.color_of(v) for v in range(spec.n_vertices)]
    g = build_graph(spec, vertex_budget=spec.n_vertices)
    for cid in g.connection_ids:
        for u, v in enumerate(translate_ids(spec, spec.vertex_entries(cid))):
            assert colors[u] != colors[v]
    # cosets partition the vertices evenly
    from collections import Counter

    sizes = Counter(colors)
    assert len(sizes) == 16 and set(sizes.values()) == {16}


def test_coloring_structural_above_budget():
    spec = _spec(12)
    col = color_graph(spec, vertex_budget=100)
    assert col.n_colors == 144
    assert col.verification == "structural"


def _coset_colors(spec, code):
    """Colors by first appearance of the cosets v + C over all vertex ids: the oracle."""
    member_ents = sorted(code.members)
    h = spec.ring.h
    colors = [-1] * spec.n_vertices
    n_colors = 0
    for v in range(spec.n_vertices):
        if colors[v] >= 0:
            continue
        ev = spec.vertex_entries(v)
        for ents in member_ents:
            colors[spec.vertex_id(tuple((a + b) % h for a, b in zip(ev, ents)))] = n_colors
        n_colors += 1
    return colors


@pytest.mark.parametrize("h,m,n,r", [(4, 2, 2, 1), (5, 2, 2, 1), (6, 2, 2, 1), (9, 2, 2, 1), (12, 2, 2, 1),
                                     (4, 2, 3, 1), (6, 2, 3, 1), (3, 2, 2, 2)])
def test_color_of_matches_coset_oracle(h, m, n, r):
    spec = _spec(h, m, n, r)
    code = mrd_code(spec)
    col = color_graph(spec, code=code, samples=50)
    first: dict[int, int] = {}
    fast = [first.setdefault(col.color_of(v), len(first)) for v in range(spec.n_vertices)]
    assert fast == _coset_colors(spec, code)
    assert len(first) == col.n_colors == spec.clique_bound


def _bad_codes(spec):
    """A distance-(r+1) code with one word swapped into K, and one with a word dropped."""
    code = mrd_code(spec)
    word = max(code.members)
    in_k = (1,) + (0,) * (spec.m * spec.n - 1)
    return [
        code._replace(members=(code.members - {word}) | {in_k}),
        code._replace(members=code.members - {word}),
    ]


def test_color_and_cover_refuse_codes_that_miss_a_complement(monkeypatch):
    spec = _spec(4)
    for bad in _bad_codes(spec):
        with pytest.raises(VerificationError):
            color_graph(spec, code=bad)
        with monkeypatch.context() as mp:
            mp.setattr(codes, "mrd_code", lambda spec: bad)
            with pytest.raises(VerificationError):
                clique_cover_complement(spec)
    code = mrd_code(spec)
    for dist in (None, 1):
        with pytest.raises(VerificationError):
            color_graph(spec, code=code._replace(verified_distance=dist))


def test_r_equals_m_uses_the_zero_code():
    spec = _spec(4, 2, 2, 2)
    code = mrd_code(spec)
    assert code.size == 1 and code.verified_distance == math.inf
    col = color_graph(spec)
    assert col.n_colors == 256 and col.verification == "edges"
    assert [col.color_of(v) for v in range(256)] == list(range(256))
    cover = clique_cover_complement(spec)
    assert len(cover.parts) == 1 and len(cover.parts[0]) == 256
    with pytest.raises(BudgetExceededError):
        mrd_code(_spec(2, 300, 300, 300))


def test_clique_cover_partitions():
    spec = _spec(6)
    cover = clique_cover_complement(spec, vertex_budget=2000)
    assert len(cover.parts) == 36
    assert all(len(p) == 36 for p in cover.parts)
    seen = set()
    for part in cover.parts:
        ids = {spec.vertex_id(x) for x in part}
        assert not (seen & ids)
        seen |= ids
    assert len(seen) == spec.n_vertices
    with pytest.raises(BudgetExceededError):
        clique_cover_complement(_spec(12), vertex_budget=100)


def test_certificate_pins_parameters():
    spec = _spec(6)
    cert = certify_graph_parameters(spec, vertex_budget=2000)
    assert cert.omega == cert.chi == 36
    assert cert.alpha == 36
    assert cert.code_distance == 2


# --- fast paths against their oracles --------------------------------------------


def test_verify_distance_coset_route_matches_pairwise(monkeypatch):
    for h, m, n, r in ((6, 2, 2, 1), (12, 2, 2, 1), (5, 2, 3, 1), (4, 2, 3, 1)):
        code = mrd_code(_spec(h, m, n, r))
        plain = RankCode(code.ring, m, n, code.members, r + 1, False, None)
        assert verify_distance(plain) == r + 1
        with monkeypatch.context() as mp:
            mp.setattr(cliques, "coset_difference_group", lambda entries, h: None)
            assert verify_distance(plain) == r + 1
    # a non-coset code: three words, checked pairwise
    ring = ring_spec(4)
    odd = RankCode(ring, 2, 2, frozenset([
        zeros(ring, 2, 2).entries, Mat.identity(ring, 2).entries, Mat.diagonal(ring, [3, 1]).entries,
    ]), 1, False, None)
    assert cliques.coset_difference_group(odd.members, 4) is None
    assert verify_distance(odd) == 1


def _subgroup(gens, h):
    """Closure of the generators under addition mod h."""
    group = {tuple(0 for _ in gens[0])}
    frontier = list(group)
    while frontier:
        frontier = {tuple((x + y) % h for x, y in zip(a, g)) for a in frontier for g in gens} - group
        group |= frontier
    return group


@pytest.mark.parametrize("h", [4, 6, 8, 9, 12])
def test_subgroup_closure_matches_frontier_oracle(h):
    rng = random.Random(h)
    ring = ring_spec(h)
    for trial in range(6):
        gens = [random_matrix(ring, 1, 3, rng).entries for _ in range(rng.randrange(1, 4))]
        if trial % 2:  # scaled by a proper divisor of h: a proper subgroup
            d = rng.choice([q for q in range(2, h) if h % q == 0])
            gens = [tuple(x * d % h for x in g) for g in gens]
        group = _subgroup(gens, h)
        assert subgroup_closure(gens, h, h**3) == group
        assert subgroup_closure(gens, h, len(group)) == group
        if len(group) > 1:
            assert subgroup_closure(gens, h, len(group) - 1) is None
        if trial % 2:
            assert len(group) < h**3


def test_verify_distance_checks_linear_codes_as_groups():
    ring = ring_spec(4)
    z, one, two, three = (Mat.diagonal(ring, [v, v]).entries for v in range(4))

    def linear(*members):
        return RankCode(ring, 2, 2, frozenset(members), 2, True, None)

    assert verify_distance(linear(z, two)) == 2
    assert verify_distance(linear(z, one, two, three)) == 2
    # the coset I + {0, 2I} of a subgroup: it misses zero
    with pytest.raises(VerificationError):
        verify_distance(linear(one, three))
    # contains zero, not closed: I + I = 2I is missing
    with pytest.raises(VerificationError):
        verify_distance(linear(z, one))
    with pytest.raises(VerificationError):
        verify_distance(linear(z, one, three))


def test_verify_distance_on_random_cosets_matches_pairwise(monkeypatch):
    rng = random.Random(11)
    for h in (4, 6, 8, 9):
        ring = ring_spec(h)
        for _ in range(4):
            gens = [random_matrix(ring, 2, 2, rng).entries for _ in range(2)]
            gens.append(tuple(x * rng.choice(ring.prime_powers) % h for x in gens[0]))
            group = _subgroup(gens, h)
            b0 = random_matrix(ring, 2, 2, rng).entries
            members = frozenset(tuple((x + y) % h for x, y in zip(g, b0)) for g in group)
            assert cliques.coset_difference_group(members, h)[0] == group
            plain = RankCode(ring, 2, 2, members, 1, False, None)
            fast = verify_distance(plain)
            with monkeypatch.context() as mp:
                mp.setattr(cliques, "coset_difference_group", lambda entries, h: None)
                assert fast == verify_distance(plain)


def test_verify_distance_budget_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the budget check")

    code = mrd_code(_spec(6))
    plain = RankCode(code.ring, 2, 2, code.members, 2, False, None)
    with monkeypatch.context() as mp:  # a coset of 36: |C| - 1 = 35 rank checks, charged before the walk
        mp.setattr(cliques, "coset_difference_group", refuse)
        with pytest.raises(BudgetExceededError, match="35 rank checks exceed the budget 34"):
            verify_distance(plain, pair_budget=34)
        with pytest.raises(AssertionError):  # the walk is reached at |C| - 1
            verify_distance(plain, pair_budget=35)
    assert verify_distance(plain, pair_budget=35) == 2
    # 35 words, no coset: the walk runs, then C(35, 2) = 595 pairs are charged before any kernel call
    short = plain._replace(members=frozenset(sorted(code.members)[1:]))
    walks = []
    real_walk = cliques.coset_difference_group
    monkeypatch.setattr(cliques, "coset_difference_group", lambda *args: walks.append(real_walk(*args)) or walks[-1])
    monkeypatch.setattr(cliques, "_pp_exponents", refuse)
    with pytest.raises(BudgetExceededError, match="595 rank checks exceed the budget 594"):
        verify_distance(short, pair_budget=594)
    assert walks == [None]
    with pytest.raises(AssertionError):  # the kernel is reached at C(|C|, 2)
        verify_distance(short, pair_budget=595)


def test_translate_ids_match_vertex_ids():
    spec = _spec(4)
    h = spec.ring.h
    for cid in range(spec.n_vertices):
        c = spec.vertex_entries(cid)
        ids = translate_ids(spec, c)
        assert ids == [
            spec.vertex_id(tuple((a + b) % h for a, b in zip(spec.vertex_entries(u), c)))
            for u in range(spec.n_vertices)
        ]


def _check_edges(spec, colors, connection_ids):
    """Raise unless every edge (u, u + c), c in the connection set, has two colors: the edge-by-edge oracle."""
    for cid in connection_ids:
        ids = translate_ids(spec, spec.vertex_entries(cid))
        if any(map(operator.eq, colors, map(colors.__getitem__, ids))):
            u = next(u for u, w in enumerate(ids) if colors[u] == colors[w])
            raise VerificationError(f"edge ({u}, {ids[u]}) is monochromatic")


def _copy_code(spec):
    """The group of words whose first row copies the first of the last m - r rows, other top rows zero.

    Every pattern of the last m - r rows occurs once, but each word has rank
    <= m - r, so for m - r <= r the code holds rank-<= r words: with a forged
    distance it passes every check but the edge check.
    """
    ring, m, n, r = spec.ring, spec.m, spec.n, spec.r
    members = frozenset(
        tail[:n] + (0,) * (n * (r - 1)) + tail for tail in product(range(ring.h), repeat=n * (m - r))
    )
    return RankCode(ring, m, n, members, r + 1, True, None, verified_distance=r + 1)


def _edge_verdicts(spec, code):
    """(color_graph accepts code, the edge-by-edge oracle accepts its coloring)."""
    try:
        color_graph(spec, code=code)
        fast = True
    except VerificationError:
        fast = False
    col = Coloring(spec, spec.clique_bound, "edges", _complement_lookup(spec, code))
    try:
        _check_edges(spec, [col.color_of(v) for v in range(spec.n_vertices)], build_graph(spec).connection_ids)
        slow = True
    except VerificationError:
        slow = False
    return fast, slow


@pytest.mark.parametrize("h,m,n,r", [(2, 2, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1), (5, 2, 2, 1), (6, 2, 2, 1),
                                     (2, 3, 3, 2), (2, 3, 4, 2)])
def test_connection_lookup_matches_the_edge_oracle(h, m, n, r):
    spec = _spec(h, m, n, r)
    assert _edge_verdicts(spec, mrd_code(spec)) == (True, True)
    assert _edge_verdicts(spec, _copy_code(spec)) == (False, False)
    # the edge named is the first connection element, in id order, that is a code word
    words = _copy_code(spec).members
    first = next(cid for cid in build_graph(spec).connection_ids if spec.vertex_entries(cid) in words)
    with pytest.raises(VerificationError, match=f"^edge \\(0, {first}\\) is monochromatic"):
        color_graph(spec, code=_copy_code(spec))


@pytest.mark.parametrize("h", [2, 5, 6])
def test_group_code_with_a_low_rank_word_is_refused(h):
    # {[[x, 0], [x, y]]}: a group meeting every last row once, holding [[1, 0], [1, 0]] of rank 1
    spec = _spec(h, 2, 2, 1)
    members = frozenset((x, 0, x, y) for x in range(h) for y in range(h))
    code = RankCode(spec.ring, 2, 2, members, 2, True, None, verified_distance=2)
    assert len(_complement_lookup(spec, code)) == h * h
    assert subgroup_closure(members, h, h * h) == members
    with pytest.raises(VerificationError, match="monochromatic"):
        color_graph(spec, code=code)


def test_code_not_flagged_linear_is_refused_within_the_budget():
    spec = _spec(4)
    with pytest.raises(VerificationError, match="linear"):
        color_graph(spec, code=mrd_code(spec)._replace(linear=False))
    spec12 = _spec(12)
    col = color_graph(spec12, vertex_budget=100, code=mrd_code(spec12)._replace(linear=False))
    assert col.verification == "structural"


def test_edge_check_catches_one_corrupted_color():
    spec = _spec(4)
    col = color_graph(spec, vertex_budget=500)
    conn = build_graph(spec, vertex_budget=500).connection_ids
    colors = [col.color_of(v) for v in range(spec.n_vertices)]
    _check_edges(spec, colors, conn)
    u = 37
    w = translate_ids(spec, spec.vertex_entries(conn[5]))[u]
    colors[u] = colors[w]
    with pytest.raises(VerificationError) as err:
        _check_edges(spec, colors, conn)
    found = re.fullmatch(r"edge \((\d+), (\d+)\) is monochromatic", str(err.value))
    a, b = int(found[1]), int(found[2])
    assert u in (a, b) and colors[a] == colors[b]
    diff = tuple((x - y) % 4 for x, y in zip(spec.vertex_entries(b), spec.vertex_entries(a)))
    assert spec.vertex_id(diff) in conn


def _record_ranked(monkeypatch) -> list:
    """[group handed in, ranks yielded] for each call of difference_ranks from codes."""
    calls = []
    real = codes.difference_ranks

    def recording(ring, rows, cols, family, group):
        calls.append([group, 0])
        for k in real(ring, rows, cols, family, group):
            calls[-1][1] += 1
            yield k

    monkeypatch.setattr(codes, "difference_ranks", recording)
    return calls


def test_code_distance_verified_once(monkeypatch):
    ranked = _record_ranked(monkeypatch)
    closures = []
    real_closure = codes.subgroup_closure

    def refuse(*args):
        raise AssertionError("the code's group was formed a second time")

    monkeypatch.setattr(codes, "subgroup_closure", lambda *args: closures.append(args) or real_closure(*args))
    monkeypatch.setattr(codes, "_walk_and_rank", refuse)  # verify_distance's walk, never taken on a built code
    spec = _spec(6)
    with monkeypatch.context() as mp:  # certify's clique check walks its clique, so refuse every walk only here
        mp.setattr(cliques, "coset_difference_group", refuse)
        code = mrd_code(spec)
    words = code.members
    assert code.verified_distance == 2 and len(words) == 36
    assert ranked == [[words, 35]] and len(closures) == 1  # each nonzero word ranked once, on the one closure
    ranked.clear()
    certify_graph_parameters(spec, vertex_budget=2000)
    assert ranked == [[words, 35]]


@pytest.mark.parametrize("h", [5, 6, 8, 12])
def test_mrd_code_verified_once_with_the_callers_budget(monkeypatch, h):
    ranked = _record_ranked(monkeypatch)
    spec = _spec(h)
    size = spec.independence_bound
    code = mrd_code(spec, pair_budget=size - 1)
    assert code.size == size and code.verified_distance == 2
    assert ranked == [[code.members, size - 1]]
    ranked.clear()
    with pytest.raises(BudgetExceededError, match=f"{h}\\^2 - 1 distance checks exceed the budget {size - 2}"):
        mrd_code(spec, pair_budget=size - 2)
    assert ranked == []


def test_mrd_code_budget_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(codes.FieldSpec, "default", refuse)  # the first step of the basis
    for h in (6, 8):
        with pytest.raises(BudgetExceededError):
            mrd_code(_spec(h), pair_budget=h**2 - 2)
        with pytest.raises(AssertionError):  # the guard is live within the budget
            mrd_code(_spec(h), pair_budget=h**2 - 1)


def test_selftest_code_check_reads_the_verified_distance(monkeypatch):
    from ringmat import selftest

    assert selftest.check_codes(quick=True)[0]
    real = selftest.mrd_code
    monkeypatch.setattr(selftest, "mrd_code", lambda spec: real(spec)._replace(verified_distance=None))
    ok, message = selftest.check_codes(quick=True)
    assert not ok and "distance None != 2" in message


def test_certificate_reports_witnesses():
    spec = _spec(6)
    cert = GraphCertificate(spec, 36, 36, 2, 36, "edges")
    assert (cert.omega, cert.alpha, cert.chi) == (36, 36, 36)
    for sizes in ((35, 36, 36), (36, 37, 36), (36, 36, 72)):
        with pytest.raises(VerificationError):
            GraphCertificate(spec, sizes[0], sizes[1], 2, sizes[2], "edges")

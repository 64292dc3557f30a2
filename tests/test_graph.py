"""Low-rank-difference graphs: adjacency, ids, degrees, exact parameters."""

from collections import deque
from itertools import product

import pytest

from conftest import (connection_closure, per_matrix_labels, recursive_clique, recursive_mis, translate_ids,
                      translated_masks, zeros)
from ringmat.errors import BudgetExceededError, UsageError, VerificationError
from ringmat.graph import (
    _rank_table,
    adjacency_masks,
    adjacent,
    build_graph,
    check_connectivity,
    check_vertex_transitivity,
    exact_clique_number,
    exact_independence_number,
    GraphSpec,
    sandwich_inequality,
    search_through_zero,
    subgroup_closure,
)
from ringmat.matrix import Mat
from ringmat.ring import ring_spec
from ringmat.smith import inner_rank

FROZEN_DEGREES = {2: 9, 3: 32, 6: 329}


def _spec(h, m=2, n=2, r=1):
    return GraphSpec(ring_spec(h), m, n, r)


def test_spec_validation():
    with pytest.raises(UsageError):
        _spec(6, m=3, n=2)  # needs m <= n
    with pytest.raises(UsageError):
        _spec(6, r=3)  # needs r <= m
    with pytest.raises(UsageError):
        _spec(6, r=0)


def test_counts_and_bounds():
    spec = _spec(6)
    assert spec.n_vertices == 1296
    assert spec.clique_bound == 36
    assert spec.independence_bound == 36
    assert spec.clique_bound * spec.independence_bound == spec.n_vertices
    rect = _spec(6, 2, 3, 1)
    assert rect.clique_bound == 216
    assert rect.independence_bound == 216


def test_vertex_id_round_trip():
    spec = _spec(2)
    for vid in range(spec.n_vertices):
        mat = spec.vertex(vid)
        assert spec.vertex_id(mat.entries) == vid
        assert spec.vertex_entries(vid) == mat.entries
    # id order is lexicographic order on entry tuples
    entries = [spec.vertex_entries(v) for v in range(spec.n_vertices)]
    assert entries == sorted(entries)


def test_adjacency_matches_rank(rng):
    spec = _spec(6)
    from ringmat.matrix import random_matrix

    for _ in range(300):
        a = random_matrix(spec.ring, 2, 2, rng)
        b = random_matrix(spec.ring, 2, 2, rng)
        expected = 1 <= inner_rank(a - b) <= spec.r
        assert adjacent(spec, a, b) == expected
        assert adjacent(spec, b, a) == expected
    z = zeros(spec.ring, 2, 2)
    assert not adjacent(spec, z, z)


def test_frozen_degrees_and_regularity():
    for h, deg in FROZEN_DEGREES.items():
        spec = _spec(h)
        g = build_graph(spec, vertex_budget=spec.n_vertices)
        assert g.degree == deg
        # vertex-transitive graphs are regular: every adjacency row has deg bits
        masks = adjacency_masks(spec, budget=spec.n_vertices)
        for u, row in enumerate(masks):
            assert bin(row).count("1") == deg
            assert not row >> u & 1


def test_adjacency_symmetric_exhaustive_z2():
    spec = _spec(2)
    masks = adjacency_masks(spec)
    for u in range(spec.n_vertices):
        assert not masks[u] >> u & 1
        for v in range(spec.n_vertices):
            assert masks[u] >> v & 1 == masks[v] >> u & 1


@pytest.mark.parametrize("h, m, n, r", [(2, 2, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1),
                                        (2, 2, 2, 2), (3, 2, 2, 2), (4, 2, 2, 2),
                                        (2, 2, 3, 1), (2, 2, 3, 2)])
def test_adjacency_masks_match_pairwise_adjacent(h, m, n, r):
    spec = _spec(h, m, n, r)
    masks = adjacency_masks(spec, budget=spec.n_vertices)
    verts = [spec.vertex(v) for v in range(spec.n_vertices)]
    for u, a in enumerate(verts):
        assert masks[u] == sum(1 << v for v, b in enumerate(verts) if adjacent(spec, a, b))


def test_build_graph_budget_before_any_work(monkeypatch):
    from ringmat import graph

    def refuse(*args):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(graph, "exponent_table", refuse)
    spec = _spec(6)
    with pytest.raises(BudgetExceededError):
        build_graph(spec, vertex_budget=10)
    with pytest.raises(BudgetExceededError):
        adjacency_masks(_spec(2), 10)
    with pytest.raises(AssertionError):  # the guard is live within the budget
        build_graph(spec)


def test_exact_parameters_field_cases():
    assert exact_clique_number(_spec(2)) == 4
    assert exact_independence_number(_spec(2)) == 4
    assert exact_clique_number(_spec(3)) == 9
    assert exact_independence_number(_spec(3)) == 9


# every shape with h^(mn) <= 256 and 1 <= r <= m <= n
SMALL_SHAPES = [(h, m, n, r) for h in range(2, 257) for m in range(1, 9) for n in range(m, 9)
                for r in range(1, m + 1) if h ** (m * n) <= 256]


@pytest.mark.parametrize("h, m, n, r", SMALL_SHAPES)
def test_rotation_masks_and_search_through_zero_match_the_whole_graph(h, m, n, r):
    spec = _spec(h, m, n, r)
    masks = translated_masks(spec)
    assert list(adjacency_masks(spec)) == masks
    for independent, whole in ((False, recursive_clique(masks)), (True, recursive_mis(masks))):
        found = search_through_zero(spec, independent)
        assert found[0] == 0 and found == sorted(set(found))
        assert all((masks[u] >> v & 1) != independent for i, u in enumerate(found) for v in found[i + 1:])
        assert len(found) == len(whole) == (spec.independence_bound if independent else spec.clique_bound)


def test_exact_search_budget_guard():
    with pytest.raises(BudgetExceededError):
        exact_clique_number(_spec(6), budget=256)


def test_sandwich_bounds():
    for h in (2, 3, 6, 12):
        rep = sandwich_inequality(_spec(h))
        assert rep.tight


def test_complete_graph_edge_case():
    """m = n = r = 1: every nonzero difference has rank 1, giving K_h."""
    spec = GraphSpec(ring_spec(4), 1, 1, 1)
    assert spec.clique_bound == 4
    assert spec.independence_bound == 1
    g = build_graph(spec)
    assert g.degree == 3
    assert exact_clique_number(spec) == 4
    assert exact_independence_number(spec) == 1


def test_connectivity():
    for h in (2, 3, 6):
        assert check_connectivity(_spec(h))


@pytest.mark.parametrize("h, m, n, r", SMALL_SHAPES)
def test_connectivity_witness_matches_the_closure_oracle(h, m, n, r):
    spec = _spec(h, m, n, r)
    assert len(connection_closure(spec)) == spec.n_vertices
    assert check_connectivity(spec)


@pytest.mark.parametrize("h, m, n", [(6, 3, 3), (2**61 - 1, 4, 5)])
def test_connectivity_needs_no_rank_table_or_closure(monkeypatch, h, m, n):
    from ringmat import graph

    def refuse(*args):
        raise AssertionError("connectivity built a rank table or a closure")

    monkeypatch.setattr(graph, "exponent_table", refuse)
    monkeypatch.setattr(graph, "subgroup_closure", refuse)
    graph._rank_table.cache_clear()
    assert check_connectivity(_spec(h, m, n, 1))


def test_connectivity_rejects_a_unit_matrix_ranked_outside_the_radius(monkeypatch):
    from ringmat import graph

    spec = _spec(6, 2, 3, 1)
    monkeypatch.setattr(graph, "inner_rank", lambda a: spec.r + 1)
    with pytest.raises(VerificationError, match="unit matrix E_"):
        check_connectivity(spec)


def _bfs_reached(spec, connection_ids):
    """Breadth-first search from the zero matrix: the ids of its component."""
    moves = [translate_ids(spec, spec.vertex_entries(cid)) for cid in connection_ids]
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for ids in moves:
            if ids[u] not in seen:
                seen.add(ids[u])
                queue.append(ids[u])
    return seen


# the graph specs (h, m, n, r) of the census-sweep benchmark's connectivity jobs
CENSUS_SWEEP_GRAPHS = [(6, 2, 2, 1), (2, 3, 3, 2), (3, 2, 3, 1), (5, 2, 2, 1),
                       (4, 2, 2, 1), (2, 2, 4, 1), (2, 3, 3, 1)]


@pytest.mark.parametrize("h, m, n, r", CENSUS_SWEEP_GRAPHS)
def test_connectivity_matches_bfs_oracle(h, m, n, r):
    spec = _spec(h, m, n, r)
    g = build_graph(spec)
    assert check_connectivity(spec) == (len(_bfs_reached(spec, g.connection_ids)) == spec.n_vertices)
    # a connection subset spanning a proper subgroup: the component of 0 is that subgroup
    part = [cid for cid in g.connection_ids if not spec.vertex_entries(cid)[0]]
    reached = _bfs_reached(spec, part)
    closure = subgroup_closure([spec.vertex_entries(cid) for cid in part], h, spec.n_vertices)
    assert {spec.vertex_id(c) for c in closure} == reached
    assert len(reached) < spec.n_vertices


@pytest.mark.parametrize("h, m, n, r", CENSUS_SWEEP_GRAPHS + [(12, 2, 2, 1)])
def test_rank_table_matches_per_matrix_oracle(h, m, n, r):
    spec = _spec(h, m, n, r)
    sat = spec.ring.saturated
    expected = [max(sum(1 for x in alpha if x < s) for alpha, s in zip(label, sat))
                for label in per_matrix_labels(spec.ring, m, n)]
    assert _rank_table(spec.ring, m, n) == expected


def test_vertex_transitivity_sampled():
    for h in (2, 6):
        assert check_vertex_transitivity(_spec(h), samples=200, seed=0)

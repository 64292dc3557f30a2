"""Independent reference routes: minor valuations, factor search, exact search."""

import random
from itertools import count, product

import pytest

from conftest import complement_masks, recursive_clique
from ringmat import cliques, smith
from ringmat.errors import BudgetExceededError
from ringmat.matrix import Mat, random_matrix
from ringmat.oracle import (
    enumerate_cliques_of_size,
    exact_clique,
    inner_rank_by_factorization,
    omega_via_minors,
)
from ringmat.ring import ring_spec
from ringmat.smith import inner_rank, invariant_factors


def test_omega_via_minors_exhaustive_z4():
    ring = ring_spec(4)
    for entries in product(range(4), repeat=4):
        a = Mat(ring, 2, 2, entries)
        assert omega_via_minors(a) == invariant_factors(a).omega


def test_omega_via_minors_distinguishes_saturated_columns():
    """diag(2, 0) and diag(2, 2) over Z_4 have different tables."""
    ring = ring_spec(4)
    a = Mat.diagonal(ring, [2, 0])
    b = Mat.diagonal(ring, [2, 2])
    assert omega_via_minors(a) == ((1, 2),)
    assert omega_via_minors(b) == ((1, 1),)


def test_omega_via_minors_random_shapes(rng):
    ring = ring_spec(12)
    for shape in ((1, 1), (2, 3), (3, 3)):
        for _ in range(100):
            a = random_matrix(ring, *shape, rng)
            assert omega_via_minors(a) == invariant_factors(a).omega


def test_omega_via_minors_runs_no_kernel(monkeypatch, rng):
    """The minors oracle stays independent of the Smith kernel: with every kernel entry point of
    smith and cliques raising, it gives the kernel's omega on every 2x2 over Z_4 and on random
    3x3 over Z_12 and Z_30030."""
    cases = [Mat(ring_spec(4), 2, 2, e) for e in product(range(4), repeat=4)]
    cases += [random_matrix(ring_spec(h), 3, 3, rng) for h in (12, 30030) for _ in range(40)]
    want = [invariant_factors(Mat(a.ring, a.rows, a.cols, a.entries)).omega for a in cases]

    def refuse(*args):
        raise AssertionError("the minors oracle ran the Smith kernel")

    for module, names in ((smith, ("_pp_smith", "_pp_smith_cached", "_pp_exponents")),
                          (cliques, ("_pp_smith_cached", "_pp_exponents"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    assert [omega_via_minors(a) for a in cases] == want


def test_rank_by_factor_search_exhaustive_z4():
    ring = ring_spec(4)
    for entries in product(range(4), repeat=4):
        a = Mat(ring, 2, 2, entries)
        assert inner_rank_by_factorization(a) == inner_rank(a)


def test_rank_by_factor_search_sampled_z6(rng):
    ring = ring_spec(6)
    for _ in range(50):
        a = random_matrix(ring, 2, 2, rng)
        assert inner_rank_by_factorization(a) == inner_rank(a)


def test_rank_by_factor_search_budget():
    a = Mat.identity(ring_spec(12), 2)
    with pytest.raises(BudgetExceededError):
        inner_rank_by_factorization(a, budget=10)


def _cycle_masks(n):
    masks = []
    for v in range(n):
        masks.append((1 << ((v + 1) % n)) | (1 << ((v - 1) % n)))
    return masks


def _complete_masks(n):
    full = (1 << n) - 1
    return [full & ~(1 << v) for v in range(n)]


def test_exact_search_known_graphs():
    # 5-cycle: clique number 2, independence number 2
    c5 = _cycle_masks(5)
    assert len(exact_clique(c5)) == 2
    assert len(exact_clique(complement_masks(c5))) == 2
    # complete graph K_5
    k5 = _complete_masks(5)
    assert len(exact_clique(k5)) == 5
    assert len(exact_clique(complement_masks(k5))) == 1
    # empty graph on 4 vertices
    empty = [0, 0, 0, 0]
    assert len(exact_clique(empty)) == 1
    assert len(exact_clique(complement_masks(empty))) == 4


def test_exact_clique_result_is_a_clique():
    rng = random.Random(3)
    n = 12
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    best = exact_clique(masks)
    for i, u in enumerate(best):
        for v in best[i + 1:]:
            assert masks[u] >> v & 1


def test_enumerate_cliques_of_size():
    k4 = _complete_masks(4)
    assert len(enumerate_cliques_of_size(k4, 2)) == 6
    assert len(enumerate_cliques_of_size(k4, 4)) == 1
    assert enumerate_cliques_of_size(_cycle_masks(5), 3) == []


def test_exact_clique_budget():
    with pytest.raises(BudgetExceededError):
        exact_clique(_complete_masks(30), budget=5)


def _random_masks(rng, n, p):
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def test_stack_search_visits_like_the_recursive_oracle():
    """The same witness as the recursive search, over every vertex and over a start set;
    the dense graphs reach nodes whose candidates take one color each."""
    rng = random.Random(5)
    for _ in range(60):
        masks = _random_masks(rng, rng.randrange(1, 40), rng.choice((0.2, 0.5, 0.8, 0.95, 1.0)))
        assert exact_clique(masks) == recursive_clique(masks)
        start = masks[0]
        found = exact_clique(masks, start=start)
        assert found == recursive_clique(masks, start=start)
        # a maximum clique of the subgraph induced on the start set
        members = [v for v in range(len(masks)) if start >> v & 1]
        induced = [sum(1 << j for j, w in enumerate(members) if masks[u] >> w & 1) for u in members]
        assert len(found) == len(recursive_clique(induced))
        assert set(found) <= set(members)
        assert all(masks[u] >> v & 1 for i, u in enumerate(found) for v in found[i + 1:])


def _outcome(search, masks, budget, start):
    try:
        return search(masks, budget=budget, start=start)
    except BudgetExceededError as exc:
        return str(exc)


def test_stack_search_charges_like_the_recursive_oracle():
    """Every budget up to the step count raises the recursive search's text, or both answer:
    a node answered from its coloring charges the nodes of the dive it replaces."""
    assert _outcome(exact_clique, _complete_masks(30), 5, None) == "6 search steps exceed the budget 5"
    rng = random.Random(11)
    for _ in range(40):
        masks = _random_masks(rng, rng.randrange(1, 24), rng.choice((0.5, 0.8, 0.95, 1.0)))
        for start in (None, masks[0]):
            for budget in count(1):
                found = _outcome(exact_clique, masks, budget, start)
                assert found == _outcome(recursive_clique, masks, budget, start)
                if isinstance(found, list):
                    break


def test_deep_clique_needs_no_recursion():
    """K_1100 is answered at its root node; the cocktail party graph on 2,004 vertices, whose
    nodes never take one color per candidate, still goes 1,002 frames deep, past the default
    recursion limit."""
    k = _complete_masks(1100)
    assert exact_clique(k) == list(range(1100))
    assert exact_clique(k, start=k[0]) == list(range(1, 1100))
    full = (1 << 2004) - 1
    party = [full & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(2004)]
    assert exact_clique(party) == list(range(1, 2004, 2))

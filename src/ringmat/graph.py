"""The low-rank-difference graph on all matrices over a residue class ring.

Vertices are all m x n matrices over Z_h (m <= n), and two vertices are
adjacent when their difference has inner rank between 1 and r.  The graph
is a normal Cayley graph of the additive group, hence vertex-transitive and
regular, and the maps X -> S @ X @ T + A with S, T invertible are
automorphisms.  It is connected iff the connection set generates the group,
and it does: the m*n unit matrices E_ij have inner rank 1 and span it, so
ranking them certifies connectivity with no rank table.  subgroup_closure
finds the difference group of a coset family for the clique and code
checks, builds every clique S @ C_r(alpha) @ T + B0 from its mapped
generators (no member is mapped one by one), spans each code from its
basis, certified on that one closure, and picks out the at most log2 |C|
generators that classification stacks.
Graphs within the vertex budget are materialized as a rank table.  Exact
search reads bitset rows: row 0 is the connection set S, and adding 1 to
base-h digit j of a vertex rotates axis j of its row.  By vertex-transitivity
a maximum clique has a translate through 0, so omega = 1 + omega(G[S]), and
alpha is the same on the complement; beyond the search budget the package
certifies the parameters constructively (cliques, codes, colorings).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cached_property, lru_cache
from typing import Collection, NamedTuple, Sequence

from . import oracle
from .errors import (DEFAULT_ENUMERATION_BUDGET, DEFAULT_EXACT_SEARCH_BUDGET, DEFAULT_VERTEX_BUDGET,
                     UsageError, VerificationError, charge)
from .matrix import Mat, random_invertible, random_matrix
from .ring import Frozen, RingSpec
from .smith import component_walk, exponent_table, inner_rank


class GraphSpec(Frozen):
    """Parameters (ring, m, n, r) with 1 <= r <= m <= n."""

    __slots__ = ("ring", "m", "n", "r")

    def __init__(self, ring: RingSpec, m: int, n: int, r: int) -> None:
        if not 1 <= r <= m <= n:
            raise UsageError(f"need 1 <= r <= m <= n, got r={r}, m={m}, n={n}")
        self._fill(ring, m, n, r)

    @property
    def n_vertices(self) -> int:
        return self.ring.h ** (self.m * self.n)

    @property
    def clique_bound(self) -> int:
        """h**(n*r): the clique number and chromatic number of the graph."""
        return self.ring.h ** (self.n * self.r)

    @property
    def independence_bound(self) -> int:
        """h**(n*(m-r)): the independence number of the graph."""
        return self.ring.h ** (self.n * (self.m - self.r))

    # Vertex ids are the row-major base-h encoding of the entries, with the
    # first entry most significant, so id order equals lexicographic order
    # on entry tuples.

    def vertex_id(self, ents: Sequence[int]) -> int:
        h = self.ring.h
        out = 0
        for v in ents:
            out = out * h + v
        return out

    def vertex_entries(self, vid: int) -> tuple[int, ...]:
        h = self.ring.h
        k = self.m * self.n
        ents = [0] * k
        for i in range(k - 1, -1, -1):
            vid, ents[i] = divmod(vid, h)
        return tuple(ents)

    def vertex(self, vid: int) -> Mat:
        return Mat._new(self.ring, self.m, self.n, self.vertex_entries(vid))


def adjacent(spec: GraphSpec, a: Mat, b: Mat) -> bool:
    """True iff a != b and the inner rank of a - b is at most r."""
    if a == b:
        return False
    return inner_rank(a - b) <= spec.r


def subgroup_closure(
    gens: Collection[tuple[int, ...]], h: int, limit: int, kept: list | None = None
) -> set[tuple[int, ...]] | None:
    """The additive subgroup of Z_h^k generated by gens (nonempty), or None once it passes limit.

    Grows H := H + <g> one generator at a time, by the translates of H up to
    the first multiple of g already in H: O(|H|) entry-tuple additions in all.
    Each g that grows H, so at least doubles it, is appended to kept if given.
    """
    group = {(0,) * len(next(iter(gens)))}
    for g in gens:
        if g in group:
            continue
        if kept is not None:
            kept.append(g)
        old = list(group)
        mult = g
        while mult not in group:  # stops at the same multiple as a test against H would
            group.update(tuple([(x + y) % h for x, y in zip(mult, a)]) for a in old)
            if len(group) > limit:
                return None
            mult = tuple([(x + y) % h for x, y in zip(mult, g)])
    return group


class RankGraph:
    """A materialized graph: `rho` maps each vertex id to the inner rank of its matrix.

    Vertices u and v are adjacent exactly when rho[id(u - v)] lies in [1, r],
    so the neighbors of u are the u + c for c in the connection set.
    """

    def __init__(self, spec: GraphSpec, rho: list[int]):
        self.spec = spec
        self.rho = rho

    @cached_property
    def connection_ids(self) -> tuple[int, ...]:
        """Ids of the nonzero matrices with inner rank <= r."""
        r = self.spec.r
        return tuple(i for i, rk in enumerate(self.rho) if 1 <= rk <= r)

    @property
    def degree(self) -> int:
        return len(self.connection_ids)


def build_graph(spec: GraphSpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> RankGraph:
    """The graph on the rank table kept for the last shape; above the vertex budget raise first."""
    charge("vertices", (spec.ring.h, spec.m * spec.n), vertex_budget)
    return RankGraph(spec, _rank_table(spec.ring, spec.m, spec.n))


@lru_cache(maxsize=1)
def _rank_table(ring: RingSpec, m: int, n: int) -> list[int]:
    """rho, for every radius, read off one rank table per component: the largest projected rank."""
    tables = []
    for (p, s), q in zip(ring.primes, ring.prime_powers):
        rows = exponent_table(p, s, q, m, n)
        rank = {alpha: bisect_left(alpha, s) for alpha in set(rows)}  # rows are nondecreasing
        tables.append(list(map(rank.__getitem__, rows)))
    if ring.t == 1:
        return tables[0]
    rho: list[int] = []
    for block in component_walk(ring, m, n, tables):
        rho.extend(map(max, *block))
    return rho


def adjacency_masks(spec: GraphSpec, budget: int = DEFAULT_EXACT_SEARCH_BUDGET) -> tuple[int, ...]:
    """Bitset adjacency rows of every vertex, kept for the last shape; above the budget raise first."""
    charge("vertices", (spec.ring.h, spec.m * spec.n), budget)
    return _rotation_masks(spec)


@lru_cache(maxsize=1)
def _rotation_masks(spec: GraphSpec) -> tuple[int, ...]:
    """Row 0 is S; the rows of digit j's block are the previous block's, rotated on axis j."""
    h, r, nv = spec.ring.h, spec.r, spec.n_vertices
    rho = _rank_table(spec.ring, spec.m, spec.n)
    masks = [int("".join(["1" if 1 <= rk <= r else "0" for rk in reversed(rho)]), 2)]
    full = (1 << nv) - 1
    st = 1
    while st < nv:  # the ids [0, st) are done; digit j of stride st moves a row bit by st
        period = h * st
        top = (((1 << st) - 1) << (period - st)) * (full // ((1 << period) - 1))  # digit j is h - 1
        low = full ^ top
        for _ in range(h - 1):
            masks += [(x & low) << st | (x & top) >> (period - st) for x in masks[-st:]]
        st = period
    return tuple(masks)


def search_through_zero(spec: GraphSpec, independent: bool, budget: int = DEFAULT_EXACT_SEARCH_BUDGET) -> list[int]:
    """Sorted ids of a maximum clique, or independent set, that contains vertex 0."""
    masks = adjacency_masks(spec, budget)
    if independent:
        full = (1 << len(masks)) - 1
        masks = [full ^ x ^ (1 << v) for v, x in enumerate(masks)]
    return [0] + oracle.exact_clique(masks, start=masks[0])


def exact_clique_number(spec: GraphSpec, budget: int = DEFAULT_EXACT_SEARCH_BUDGET) -> int:
    """Maximum clique size by exhaustive branch-and-bound through 0; must equal h**(n*r)."""
    value = len(search_through_zero(spec, False, budget))
    if value != spec.clique_bound:
        raise VerificationError(
            f"exact clique number {value} != h^(n r) = {spec.clique_bound}"
        )
    return value


def exact_independence_number(spec: GraphSpec, budget: int = DEFAULT_EXACT_SEARCH_BUDGET) -> int:
    """Maximum independent set size by exhaustive search through 0; must equal h**(n*(m-r))."""
    value = len(search_through_zero(spec, True, budget))
    if value != spec.independence_bound:
        raise VerificationError(
            f"exact independence number {value} != h^(n (m-r)) = {spec.independence_bound}"
        )
    return value


def check_connectivity(spec: GraphSpec) -> bool:
    """True: the connection set generates the group, so the graph is connected.

    A Cayley graph is connected iff its connection set generates the group.
    The m*n unit matrices E_ij span Z_h^{m x n}, so it suffices that each
    has inner rank in [1, r]: m*n kernel runs, charged before the first,
    and no rank table.  An E_ij outside [1, r] raises VerificationError.
    """
    ring, m, n, r = spec.ring, spec.m, spec.n, spec.r
    k = m * n
    charge("kernel steps", k * ring.t * k * min(m, n), DEFAULT_ENUMERATION_BUDGET)
    for j in range(k):
        rank = inner_rank(Mat._new(ring, m, n, (0,) * j + (1,) + (0,) * (k - 1 - j)))
        if not 1 <= rank <= r:
            raise VerificationError(f"unit matrix E_({j // n},{j % n}) has inner rank {rank}, not in [1, {r}]")
    return True


def check_vertex_transitivity(spec: GraphSpec, samples: int, seed: int) -> bool:
    """Sampled check that X -> S @ X @ T + A preserves adjacency.

    Each round draws invertible S, T, a translation A and a vertex pair
    (X, Y), applies the map, and compares adjacency before and after.
    Translations alone need no check: adjacency depends only on X - Y.
    S -> S^{-1} is a bijection of GL_m, so these are the maps X -> S^{-1} @ X @ T + A
    drawn with the same distribution.  Returns True when every sampled round agrees.
    """
    rng = random.Random(seed)
    ring = spec.ring
    m, n = spec.m, spec.n
    for _ in range(samples):
        s_mat = random_invertible(ring, m, rng)
        t_mat = random_invertible(ring, n, rng)
        a_mat = random_matrix(ring, m, n, rng)
        x = random_matrix(ring, m, n, rng)
        y = random_matrix(ring, m, n, rng)
        if adjacent(spec, x, y) != adjacent(spec, s_mat @ x @ t_mat + a_mat, s_mat @ y @ t_mat + a_mat):
            return False
    return True


class SandwichReport(NamedTuple):
    """The chain chi >= |V| / alpha >= omega, evaluated on the formula values.

    For this family |V| = h^(mn), alpha = h^(n(m-r)) and omega = h^(nr), so
    the chain holds with both inequalities tight; chi_lower is |V| / alpha.
    """

    vertices: int
    independence: int
    clique: int
    chi_lower: int

    @property
    def tight(self) -> bool:
        return self.vertices == self.independence * self.clique and self.chi_lower == self.clique


def sandwich_inequality(spec: GraphSpec) -> SandwichReport:
    nv = spec.n_vertices
    alpha = spec.independence_bound
    omega = spec.clique_bound
    if nv % alpha:
        raise VerificationError("independence bound must divide the vertex count")
    report = SandwichReport(nv, alpha, omega, nv // alpha)
    if not report.tight:
        raise VerificationError("sandwich chain is not tight on the formula values")
    return report

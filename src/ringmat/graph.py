"""The low-rank-difference graph on all matrices over a residue class ring.

Vertices are all m x n matrices over Z_h (m <= n), and two vertices are
adjacent when their difference has inner rank between 1 and r.  The graph
is a normal Cayley graph of the additive group, hence vertex-transitive and
regular, and the maps X -> S^{-1} @ X @ T + A with S, T invertible are
automorphisms.  Graphs within the vertex budget are materialized as a rank
table, and exact clique/independence numbers are only searched on tiny
instances; beyond that the package certifies them constructively (canonical
cliques, rank-distance codes, coset colorings).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

from . import oracle
from .errors import (
    BudgetExceededError,
    DEFAULT_EXACT_SEARCH_BUDGET,
    DEFAULT_VERTEX_BUDGET,
    UsageError,
    VerificationError,
)
from .matrix import Mat, random_invertible, random_matrix
from .ring import RingSpec
from .smith import inner_rank


@dataclass(frozen=True)
class GraphSpec:
    """Parameters (ring, m, n, r) with 1 <= r <= m <= n."""

    ring: RingSpec
    m: int
    n: int
    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.r <= self.m <= self.n:
            raise UsageError(f"need 1 <= r <= m <= n, got r={self.r}, m={self.m}, n={self.n}")

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

    def vertex_id(self, a: Mat | Sequence[int]) -> int:
        ents = a.entries if isinstance(a, Mat) else a
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


def _translate_ids(spec: GraphSpec, c: Sequence[int]) -> list[int]:
    """[id(u + c) for every vertex id u], built digit by digit from rotation lists."""
    h = spec.ring.h
    ids = [0]
    for digit in c:
        rot = [(x + digit) % h for x in range(h)]
        ids = [a * h + b for a in ids for b in rot]
    return ids


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

    @cached_property
    def _connection_entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.spec.vertex_entries(cid) for cid in self.connection_ids)

    def neighbor_ids(self, u: int) -> list[int]:
        spec = self.spec
        h = spec.ring.h
        eu = spec.vertex_entries(u)
        out = []
        for ec in self._connection_entries:
            vid = 0
            for a, b in zip(eu, ec):
                vid = vid * h + (a + b) % h
            out.append(vid)
        return out

    def adjacency_masks(self, budget: int = DEFAULT_EXACT_SEARCH_BUDGET) -> list[int]:
        """Bitset adjacency rows for the exact solvers, one connection element at a time."""
        nv = self.spec.n_vertices
        if nv > budget:
            raise BudgetExceededError(f"{nv} vertices exceed the exact-search budget {budget}")
        masks = [0] * nv
        for ec in self._connection_entries:
            for u, w in enumerate(_translate_ids(self.spec, ec)):
                masks[u] |= 1 << w
        return masks


def build_graph(spec: GraphSpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> RankGraph:
    """Materialize the rank table; above the vertex budget raise before any work."""
    nv = spec.n_vertices
    if nv > vertex_budget:
        raise BudgetExceededError(f"{nv} vertices exceed the vertex budget {vertex_budget}")
    ring = spec.ring
    from .smith import _pp_exponents  # cached kernel

    primes = ring.primes
    qs = ring.prime_powers
    rho = []
    for ents in product(range(ring.h), repeat=spec.m * spec.n):
        rk = 0
        for (p, s), q in zip(primes, qs):
            alpha = _pp_exponents(p, s, q, spec.m, spec.n, tuple(v % q for v in ents))
            c = sum(1 for x in alpha if x < s)
            if c > rk:
                rk = c
        rho.append(rk)
    return RankGraph(spec, rho)


def exact_clique_number(spec: GraphSpec, budget: int = DEFAULT_EXACT_SEARCH_BUDGET) -> int:
    """Maximum clique size by exhaustive branch-and-bound; must equal h**(n*r)."""
    g = build_graph(spec, vertex_budget=budget)
    clique = oracle.exact_clique(g.adjacency_masks(budget))
    value = len(clique)
    if value != spec.clique_bound:
        raise VerificationError(
            f"exact clique number {value} != h^(n r) = {spec.clique_bound}"
        )
    return value


def exact_independence_number(spec: GraphSpec, budget: int = DEFAULT_EXACT_SEARCH_BUDGET) -> int:
    """Maximum independent set size by exhaustive search; must equal h**(n*(m-r))."""
    g = build_graph(spec, vertex_budget=budget)
    mis = oracle.exact_mis(g.adjacency_masks(budget))
    value = len(mis)
    if value != spec.independence_bound:
        raise VerificationError(
            f"exact independence number {value} != h^(n (m-r)) = {spec.independence_bound}"
        )
    return value


def check_connectivity(spec: GraphSpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> bool:
    """Breadth-first search from the zero matrix; True iff every vertex is reached."""
    g = build_graph(spec, vertex_budget)
    nv = spec.n_vertices
    seen = bytearray(nv)
    seen[0] = 1
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for v in g.neighbor_ids(u):
            if not seen[v]:
                seen[v] = 1
                reached += 1
                queue.append(v)
    return reached == nv


def check_vertex_transitivity(spec: GraphSpec, samples: int, seed: int) -> bool:
    """Sampled check that X -> S^{-1} @ X @ T + A preserves adjacency.

    Each round draws invertible S, T, a translation A and a vertex pair
    (X, Y), applies the map, and compares adjacency before and after; it
    also confirms the translation taking X to Y exists (so the sampled
    action is transitive).  Returns True when every sampled round agrees.
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
        s_inv = s_mat.inverse()
        fx = s_inv @ x @ t_mat + a_mat
        fy = s_inv @ y @ t_mat + a_mat
        if adjacent(spec, x, y) != adjacent(spec, fx, fy):
            return False
        # the translation by y - x maps x onto y; adjacency must transport with it
        d = random_matrix(ring, m, n, rng)
        if adjacent(spec, x, x + d) != adjacent(spec, y, y + d):
            return False
    return True


@dataclass(frozen=True)
class SandwichReport:
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

"""Independent verification oracles.

Everything here recomputes quantities that the main modules produce by
faster or more structured algorithms, using deliberately different and
simpler methods: exponent tables from valuations of integer minors,
inner rank by brute-force search over factorizations, and maximum cliques
by branch-and-bound over bitset adjacency, among all vertices or among a
given candidate set (the graph layer passes the neighbours of vertex 0).  This
module must stay independent of the smith / graph implementations it is
used to check, so it imports only the ring and matrix layers.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Sequence

from .errors import DEFAULT_FACTOR_SEARCH_BUDGET, DEFAULT_SEARCH_STEP_BUDGET, MAX_MINORS, UsageError, charge
from .matrix import Mat

_INF = float("inf")

MAX_MINOR_SIZE = 4


def _det_cofactor(rows: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = head * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _det_bareiss(a: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            arow = a[i]
            krow = a[k]
            for j in range(k + 1, n):
                arow[j] = (arow[j] * akk - aik * krow[j]) // prev
            arow[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def _valuation(p: int, x: int) -> float:
    if x == 0:
        return _INF
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def omega_via_minors(a: Mat) -> tuple[tuple[int, ...], ...]:
    """Recover the exponent table of a from valuations of integer minors.

    For each prime component, raw_k is the least p-adic valuation over all
    k x k minors of the canonical integer lift.  Because exponents live in
    Z_{p**s}, the k-th cumulative exponent is the minimum of j*s + raw_{k-j}
    over 0 <= j <= k (equivalently: the k-th determinantal divisor of the
    integer lift augmented by p**s times the identity, which presents the
    same module); raw_k alone over-counts once valuations pass s.  The row
    of exponents is then the difference sequence of the cumulative values.
    """
    m, n = a.rows, a.cols
    k_max = min(m, n)
    if k_max > MAX_MINOR_SIZE:
        raise UsageError(f"minor oracle supports min(m, n) <= {MAX_MINOR_SIZE}")
    ring = a.ring
    charge("minors", ring.t * sum(comb(m, k) * comb(n, k) for k in range(1, k_max + 1)), MAX_MINORS)
    out = []
    for (p, s), q in zip(ring.primes, ring.prime_powers):
        lift = [[v % q for v in a.row(i)] for i in range(m)]
        raw: list[float] = [0.0]
        for k in range(1, k_max + 1):
            best = _INF
            for rows_idx in combinations(range(m), k):
                for cols_idx in combinations(range(n), k):
                    v = _valuation(p, _det_cofactor([[lift[i][j] for j in cols_idx] for i in rows_idx]))
                    if v < best:
                        best = v
                        if best == 0:
                            break
                if best == 0:
                    break
            raw.append(best)
        cumulative = [0] + [int(min(j * s + raw[k - j] for j in range(k + 1))) for k in range(1, k_max + 1)]
        out.append(tuple(cumulative[k] - cumulative[k - 1] for k in range(1, k_max + 1)))
    return tuple(out)


def inner_rank_by_factorization(a: Mat, budget: int = DEFAULT_FACTOR_SEARCH_BUDGET) -> int:
    """Least r with a = B @ C for some m x r and r x n matrices, by exhaustive search.

    r = min(m, n) always works (identity factorization), so only smaller r
    are searched; the search over (B, C) pairs for one r costs h**((m+n)*r)
    candidate pairs and is capped by the budget.
    """
    if a.is_zero():
        return 0
    m, n = a.rows, a.cols
    h = a.ring.h
    ring = a.ring
    for r in range(1, min(m, n)):
        charge(f"candidate pairs for rank {r}", (h, (m + n) * r), budget)
        for b_entries in product(range(h), repeat=m * r):
            b = Mat(ring, m, r, b_entries)
            for c_entries in product(range(h), repeat=r * n):
                if (b @ Mat(ring, r, n, c_entries)) == a:
                    return r
    return min(m, n)


# --- exact clique / independent set -------------------------------------------
#
# Branch and bound in the style of Tomita: candidates are greedily colored,
# vertices are expanded in reverse color order, and a branch is pruned when
# the current clique plus its color bound cannot beat the incumbent.  A node
# whose candidates take one color each holds a clique, so it is answered where
# it opens, with the steps of the dive it replaces.  All choices are
# deterministic, so results are reproducible.


def _greedy_color_order(cand: int, masks: Sequence[int]) -> tuple[list[int], list[int]]:
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~(1 << v)
            avail &= ~masks[v]
            rest &= ~(1 << v)
            order.append(v)
            bounds.append(color)
    return order, bounds


def exact_clique(masks: Sequence[int], budget: int = DEFAULT_SEARCH_STEP_BUDGET, start: int | None = None) -> list[int]:
    """A maximum clique among the candidates `start` (default: every vertex) of a bitset graph.

    masks[v] has bit w set iff v and w are adjacent; rows must be symmetric
    and irreflexive.  Returns the sorted vertex list of one maximum clique;
    the deterministic search makes the returned witness reproducible.  The
    search keeps one frame per clique vertex on an explicit stack, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    def open_node(cand: int) -> list:
        nonlocal steps, best
        steps += 1
        charge("search steps", steps, budget)
        order, bounds = _greedy_color_order(cand, masks)
        # One color per candidate: they are a clique, and the dive through them would open one node
        # per candidate below this one and end at clique + order.  That beats best: at the root best
        # is empty, and below it the vertex that opened this node has a neighbour here in each color
        # class below its own bound.  The prune in the loop then pops this node.
        if order and bounds[-1] == len(order):
            steps = min(steps + len(order) - 1, budget + 1)
            charge("search steps", steps, budget)
            best = clique + order
        return [cand, order, bounds, len(order)]  # candidates left, colors, next index

    best: list[int] = []
    clique: list[int] = []  # the vertices that opened the nodes on the stack below the top
    steps = 0
    stack = [open_node((1 << len(masks)) - 1 if start is None else start)]
    while stack:
        frame = stack[-1]
        cand, order, bounds, i = frame
        i -= 1
        if i < 0 or len(clique) + bounds[i] <= len(best):  # this node is done
            stack.pop()
            if stack:
                clique.pop()
            continue
        v = order[i]
        frame[0], frame[3] = cand & ~(1 << v), i
        nxt = cand & masks[v]
        if nxt:
            clique.append(v)
            stack.append(open_node(nxt))
        elif len(clique) >= len(best):
            best = clique + [v]
    return sorted(best)


def enumerate_cliques_of_size(masks: Sequence[int], size: int) -> list[tuple[int, ...]]:
    """All cliques with exactly `size` vertices, as sorted vertex tuples.

    Plain ordered extension with a popcount prune; fine for the small graphs
    this package enumerates exhaustively.
    """
    n = len(masks)
    out: list[tuple[int, ...]] = []
    if size == 0:
        return [()]

    def extend(clique: list[int], cand: int) -> None:
        need = size - len(clique)
        if need == 0:
            out.append(tuple(clique))
            return
        while cand:
            if bin(cand).count("1") < need:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            clique.append(v)
            extend(clique, cand & masks[v])
            clique.pop()

    extend([], (1 << n) - 1)
    return out

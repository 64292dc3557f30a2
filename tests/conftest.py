"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ringmat.errors import DEFAULT_ENUMERATION_BUDGET, DEFAULT_SEARCH_STEP_BUDGET, VerificationError, charge
from ringmat.graph import build_graph, subgroup_closure
from ringmat.matrix import Mat
from ringmat.oracle import _det_bareiss, _greedy_color_order
from ringmat.ring import ring_spec
from ringmat.smith import (
    InvariantFactorArray,
    SmithForm,
    _digit_ids,
    _pp_smith,
    _transposed,
    component_walk,
    exponent_table,
    inner_rank,
)

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# moduli that exercise every ring shape: prime, prime power, squarefree
# composite, and mixed prime powers
SMALL_MODULI = (2, 3, 4, 5, 6, 8, 9, 12, 18)


@st.composite
def moduli(draw):
    return draw(st.sampled_from(SMALL_MODULI))


@st.composite
def elements(draw):
    ring = ring_spec(draw(moduli()))
    return ring, draw(st.integers(min_value=0, max_value=ring.h - 1))


@st.composite
def matrices(draw, max_dim: int = 3):
    ring = ring_spec(draw(moduli()))
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.tuples(*[st.integers(min_value=0, max_value=ring.h - 1)] * (rows * cols))
    )
    return Mat(ring, rows, cols, entries)


@st.composite
def matrix_pairs(draw, max_dim: int = 3):
    """Two square matrices over the same ring, same size (for products)."""
    ring = ring_spec(draw(moduli()))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    def one():
        entries = draw(
            st.tuples(*[st.integers(min_value=0, max_value=ring.h - 1)] * (n * n))
        )
        return Mat(ring, n, n, entries)
    return one(), one()


@pytest.fixture
def rng():
    return random.Random(0)


def per_matrix_labels(ring, rows, cols):
    """Oracle for the exhaustive sweeps: the omega label of every matrix, in base-h order.

    One matrix at a time, one projection tuple per component: the slow route
    that census_by_enumeration and the rank table are compared with.  The
    kernel is called uncached so the oracle leaves the kernel caches alone.
    """
    for ents in product(range(ring.h), repeat=rows * cols):
        yield tuple(
            _pp_smith(p, s, q, rows, cols, tuple(v % q for v in ents), False)[0]
            for (p, s), q in zip(ring.primes, ring.prime_powers)
        )


def kernel_table(p, s, m, n):
    """smith.exponent_table as it stood before prime fields extended row spans: one
    uncached kernel call per matrix over Z_{p^s}, in base-q id order."""
    q = p**s
    return tuple(_pp_smith(p, s, q, m, n, e, False)[0] for e in product(range(q), repeat=m * n))


def first_row_census(ring, rows, cols):
    """orbits.census_by_enumeration over Z_{p^s} as it stood before unit and zero
    first rows were reduced to smaller censuses: the kernel on [p^a e_1; B] for
    every valuation a = 0..s and every B, weighted by the N_a first rows of
    valuation a.  Returns the label counts."""
    (p, s), = ring.primes
    q, (m, n) = ring.h, sorted((rows, cols))
    counts = Counter()
    for a in range(s + 1):
        first = (p**a % q,) + (0,) * (n - 1)
        weight = p ** ((s - a) * n) - (p ** ((s - a - 1) * n) if a < s else 0)
        for rest in product(range(q), repeat=(m - 1) * n):
            counts[(_pp_smith(p, s, q, m, n, first + rest, False)[0],)] += weight
    return counts


def recursive_census(p, s, m, n):
    """orbits._pp_counts as it stood before the closed form: the matrix count per exponent row
    of m x n over Z_{p^s} (m <= n), from two smaller censuses.

    [p^a e_1; B] stands for the N_a = p^((s-a)n) - p^((s-a-1)n) first rows of valuation a (N_s = 1).
    For a = 0 the label is (0,) + that of B[:, 1:] (row operations clear column 0), weighted q^(m-1) N_0;
    for a = s it is that of B with s appended.  Only 0 < a < s runs the kernel.  R_i -= c R_0 changes only
    B[i, 0], by c p^a, so it runs on the p^(a(m-1)) q^((m-1)(n-1)) B with B[:, 0] taken mod p^a.
    """
    if m == 0:
        return Counter({(): 1})
    q = p**s
    unit = q ** (m - 1) * (q**n - p ** ((s - 1) * n))  # q^(m-1) N_0
    counts = Counter({(0,) + alpha: unit * c for alpha, c in recursive_census(p, s, m - 1, n - 1).items()})
    counts.update({alpha + (s,): c for alpha, c in recursive_census(p, s, m - 1, n).items()})
    for a in range(1, s):
        first = (p**a,) + (0,) * (n - 1)
        weight = (p ** ((s - a) * n) - p ** ((s - a - 1) * n)) * p ** ((s - a) * (m - 1))  # N_a, times B[:, 0] lifts
        for rest in product(*[range(p**a), *[range(q)] * (n - 1)] * (m - 1)):
            counts[_pp_smith(p, s, q, m, n, first + rest, False)[0]] += weight
    return counts


def walked_census(ring, rows, cols):
    """The composite census of orbits as it stood before it multiplied the counts of the
    component tables: every one of the h^(mn) matrices read off the kept tables
    through its projections (component_walk).  Returns the label counts."""
    tables = [exponent_table(p, s, q, rows, cols) for (p, s), q in zip(ring.primes, ring.prime_powers)]
    counts = Counter()
    for block in component_walk(ring, rows, cols, tables):
        counts.update(zip(*block))
    return counts


def translate_ids(spec, c):
    """[id(u + c) for every vertex id u], built digit by digit from rotation lists."""
    h = spec.ring.h
    return _digit_ids(h, [[(x + d) % h for x in range(h)] for d in c])


def decoded_color(spec, code):
    """codes.Coloring.color_of as it stood before colors were vertex-id arithmetic: each vertex
    decoded in full, its code word found in a dict keyed by the last m - r rows, and the top r
    rows of the difference encoded again."""
    cut, h = spec.r * spec.n, spec.ring.h
    lookup = {x[cut:]: x for x in code.members}

    def color_of(vid):
        ents = spec.vertex_entries(vid)
        return spec.vertex_id([(a - b) % h for a, b in zip(ents[:cut], lookup[ents[cut:]])])

    return color_of


def connection_closure(spec):
    """graph.check_connectivity as it stood before its unit-matrix witness: the
    subgroup closure of the connection set, read off the whole rank table."""
    g = build_graph(spec, vertex_budget=spec.n_vertices)
    return subgroup_closure([spec.vertex_entries(cid) for cid in g.connection_ids], spec.ring.h, spec.n_vertices)


def translated_masks(spec):
    """graph.adjacency_masks as it stood before the rows were rotated: bitset
    adjacency rows, one connection element at a time over every vertex."""
    g = build_graph(spec, vertex_budget=spec.n_vertices)
    masks = [0] * spec.n_vertices
    for cid in g.connection_ids:
        for u, w in enumerate(translate_ids(spec, spec.vertex_entries(cid))):
            masks[u] |= 1 << w
    return masks


def recursive_clique(masks, budget=DEFAULT_SEARCH_STEP_BUDGET, start=None):
    """oracle.exact_clique as it stood before its explicit stack, with its
    start set added: the branch and bound, one recursive call per clique vertex."""
    best = []
    steps = 0

    def expand(clique, cand):
        nonlocal best, steps
        steps += 1
        charge("search steps", steps, budget)
        order, bounds = _greedy_color_order(cand, masks)
        for i in range(len(order) - 1, -1, -1):
            if len(clique) + bounds[i] <= len(best):
                return
            v = order[i]
            clique.append(v)
            nxt = cand & masks[v]
            if nxt:
                expand(clique, nxt)
            elif len(clique) > len(best):
                best = clique[:]
            clique.pop()
            cand &= ~(1 << v)

    expand([], (1 << len(masks)) - 1 if start is None else start)
    return sorted(best)


def complement_masks(masks):
    """Adjacency rows of the complement graph."""
    full = (1 << len(masks)) - 1
    return [full & ~masks[v] & ~(1 << v) for v in range(len(masks))]


def recursive_mis(masks, budget=DEFAULT_SEARCH_STEP_BUDGET):
    """The whole-graph maximum independent set: a maximum clique of the complement."""
    return recursive_clique(complement_masks(masks), budget)


def canonical_members(cspec):
    """The entries of C_r(alpha) member by member: X1 free, X2 over the ideal alpha, X3 over s - alpha."""
    spec = cspec.graph
    ring = spec.ring
    h, m, n, r = ring.h, spec.m, spec.n, spec.r

    def ideal(exponents):
        g = 1
        for (p, _), a in zip(ring.primes, exponents):
            g *= p**a
        return sorted({x * g % h for x in range(h)})

    upper = ideal(cspec.alpha)
    lower = ideal([s - a for a, (_, s) in zip(cspec.alpha, ring.primes)])
    members = set()
    for x1 in product(range(h), repeat=r * r):
        for x2 in product(upper, repeat=r * (n - r)):
            for x3 in product(lower, repeat=(m - r) * r):
                ents = [0] * (m * n)
                for i in range(r):
                    ents[i * n:i * n + r] = x1[i * r:(i + 1) * r]
                    ents[i * n + r:(i + 1) * n] = x2[i * (n - r):(i + 1) * (n - r)]
                for i in range(m - r):
                    ents[(r + i) * n:(r + i) * n + r] = x3[i * r:(i + 1) * r]
                members.add(tuple(ents))
    return members


def mat_clique(cspec, S=None, T=None, B0=None) -> frozenset:
    """S @ C_r(alpha) @ T + B0 member by member in Mat arithmetic: the oracle of the entry-tuple closure."""
    spec = cspec.graph
    out = set()
    for x in canonical_members(cspec):
        a = Mat(spec.ring, spec.m, spec.n, x)
        a = a if S is None else S @ a
        a = a if T is None else a @ T
        out.add(a if B0 is None else a + B0)
    return frozenset(out)


def zeros(ring, rows: int, cols: int) -> Mat:
    """The zero matrix, through the validating constructor."""
    return Mat(ring, rows, cols, (0,) * (rows * cols))


def transpose(a: Mat) -> Mat:
    return Mat._new(a.ring, a.cols, a.rows, _transposed(a.entries, a.rows, a.cols))


def per_prime_is_invertible(self: Mat) -> bool:
    """Mat.is_invertible as it stood before it decided over Z_rad(h) in one elimination:
    one Bareiss determinant per prime, of the entries reduced mod that prime."""
    return self.rows == self.cols and all(
        _det_bareiss([[v % p for v in self.row(i)] for i in range(self.rows)]) % p
        for p, _ in self.ring.primes
    )


def two_loop_omega_check(ring, omega) -> None:
    """InvariantFactorArray's row checks as they stood before its one-pass test, after its type rule:
    every exponent an int (a bool too), then per row the range, then the order."""
    for row in omega:
        if any(type(a) not in (int, bool) for a in row):
            raise VerificationError(f"omega row {row} has an exponent that is not an int")
    for row, (_, s) in zip(omega, ring.primes):
        if any(not 0 <= a <= s for a in row):
            raise VerificationError(f"omega row {row} out of range for exponent bound {s}")
        if any(row[c] > row[c + 1] for c in range(len(row) - 1)):
            raise VerificationError(f"omega row {row} is not nondecreasing")


# The four-transform kernel as it stood before ringmat.smith._pp_smith kept
# only the inverse transforms: the oracle the kernel is compared with.
def reference_pp_smith(
    p: int, s: int, q: int, m: int, n: int, entries: tuple[int, ...], transforms: bool
) -> tuple[tuple[int, ...], tuple[int, ...] | None, tuple[int, ...] | None, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Diagonalize over Z_{p**s}: returns (alpha, U, Uinv, V, Vinv), flat row-major.

    U @ A @ V = diag(p**alpha) and A = Uinv @ diag(p**alpha) @ Vinv.  The
    transform slots are None unless transforms is True.
    """
    a = list(entries)
    k = min(m, n)
    alpha = [s] * k
    if transforms:
        U = [1 if i == j else 0 for i in range(m) for j in range(m)]
        Ui = list(U)
        V = [1 if i == j else 0 for i in range(n) for j in range(n)]
        Vi = list(V)
    else:
        U = Ui = V = Vi = None

    for d in range(k):
        best_v, bi, bj = s, -1, -1
        for i in range(d, m):
            base = i * n
            for j in range(d, n):
                x = a[base + j]
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if v < best_v:
                        best_v, bi, bj = v, i, j
                        if v == 0:
                            break
            if best_v == 0:
                break
        if bi < 0:
            break  # trailing block is zero; remaining exponents stay at s
        alpha[d] = best_v

        if bi != d:
            for j in range(n):
                a[d * n + j], a[bi * n + j] = a[bi * n + j], a[d * n + j]
            if transforms:
                for j in range(m):
                    U[d * m + j], U[bi * m + j] = U[bi * m + j], U[d * m + j]
                for i in range(m):
                    Ui[i * m + d], Ui[i * m + bi] = Ui[i * m + bi], Ui[i * m + d]
        if bj != d:
            for i in range(m):
                a[i * n + d], a[i * n + bj] = a[i * n + bj], a[i * n + d]
            if transforms:
                for i in range(n):
                    V[i * n + d], V[i * n + bj] = V[i * n + bj], V[i * n + d]
                for j in range(n):
                    Vi[d * n + j], Vi[bj * n + j] = Vi[bj * n + j], Vi[d * n + j]

        pa = p**best_v
        u = a[d * n + d] // pa
        if u != 1:
            uinv = pow(u, -1, q)
            for j in range(d, n):
                a[d * n + j] = a[d * n + j] * uinv % q
            if transforms:
                for j in range(m):
                    U[d * m + j] = U[d * m + j] * uinv % q
                for i in range(m):
                    Ui[i * m + d] = Ui[i * m + d] * u % q

        # clear the column below the pivot: row_i -= c * row_d
        for i in range(d + 1, m):
            x = a[i * n + d]
            if x:
                c = x // pa
                for j in range(d, n):
                    a[i * n + j] = (a[i * n + j] - c * a[d * n + j]) % q
                if transforms:
                    for j in range(m):
                        U[i * m + j] = (U[i * m + j] - c * U[d * m + j]) % q
                    for r0 in range(m):
                        Ui[r0 * m + d] = (Ui[r0 * m + d] + c * Ui[r0 * m + i]) % q

        # clear the row right of the pivot: col_j -= c * col_d.  Column d is
        # zero off the pivot by now, so only the (d, j) entries change.
        for j in range(d + 1, n):
            x = a[d * n + j]
            if x:
                c = x // pa
                a[d * n + j] = 0
                if transforms:
                    for i in range(n):
                        V[i * n + j] = (V[i * n + j] - c * V[i * n + d]) % q
                    for j0 in range(n):
                        Vi[d * n + j0] = (Vi[d * n + j0] + c * Vi[j * n + j0]) % q

    to_t = tuple if transforms else (lambda _x: None)
    return tuple(alpha), to_t(U), to_t(Ui), to_t(V), to_t(Vi)


# ringmat.smith.snf as it stood before it made one flat pass: a tall matrix by a
# Mat-level transpose and a recursive call, each transform run through the kernel
# (then cached with both transforms; the cache now keeps only the one its caller
# reads), and the unit normalisation and CRT gluing for every t.  The oracle the
# flat pass is compared with; it records no exponent rows.
def reference_snf(a: Mat) -> SmithForm:
    lo, hi = sorted((a.rows, a.cols))
    charge("transform entries", lo * lo + hi * hi, DEFAULT_ENUMERATION_BUDGET)
    charge("transform steps", (a.ring.t + 1) * hi * hi * lo, DEFAULT_ENUMERATION_BUDGET)
    if a.rows > a.cols:
        f = reference_snf(transpose(a))
        return SmithForm(transpose(f.T), transpose(f.D), transpose(f.S), f.omega)

    ring, m, n = a.ring, a.rows, a.cols
    comps = [_pp_smith(p, s, q, m, n, tuple(map(q.__rmod__, a.entries)), True)
             for (p, s), q in zip(ring.primes, ring.prime_powers)]
    omega = InvariantFactorArray(ring, tuple(alpha for alpha, _, _ in comps))
    g = omega.generators()
    uinvs = []
    for (p, _), q, (alpha, Ui, _) in zip(ring.primes, ring.prime_powers, comps):
        u = list(Ui)
        for c, (gc, e) in enumerate(zip(g, alpha)):
            winv = pow(gc // p**e % q, -1, q)
            if winv != 1:
                u[c::m] = [x * winv % q for x in u[c::m]]
        uinvs.append(u)
    S = Mat._new(ring, m, m, ring.crt_vectors(uinvs))
    T = Mat._new(ring, n, n, ring.crt_vectors([Vi for _, _, Vi in comps]))
    D = Mat.diagonal(ring, g, m, n)
    return SmithForm(S, D, T, omega)


def projection(a: Mat, i: int) -> Mat:
    """The entrywise image of a in the i-th prime-power component ring (0-based)."""
    q = a.ring.prime_powers[i]
    return Mat._new(a.ring.component(i), a.rows, a.cols, tuple(map(q.__rmod__, a.entries)))


def orbit_labels(ring, rows, cols):
    """Every omega label of rows x cols matrices, sorted, no matrix touched: one nondecreasing
    exponent row of length min(rows, cols) per prime, its entries capped at s_i."""
    k = min(rows, cols)
    return sorted(product(*[list(combinations_with_replacement(range(s + 1), k)) for _, s in ring.primes]))


def coprojection(a: Mat, i: int) -> Mat:
    """The entrywise image of a in the complementary quotient Z_{h / q_i} (0-based; needs t >= 2)."""
    hq = a.ring.h // a.ring.prime_powers[i]
    return Mat._new(ring_spec(hq), a.rows, a.cols, tuple(map(hq.__rmod__, a.entries)))


def coprojection_rank(a: Mat) -> int:
    """The quotient route as rank_via_projections took it before it read the component rows:
    the largest inner rank of the coprojections a mod h / q_i, each built as its own Mat
    and projected again; inner_rank(a) when t = 1, where the route degenerates."""
    if a.ring.t == 1:
        return inner_rank(a)
    return max(inner_rank(coprojection(a, i)) for i in range(a.ring.t))

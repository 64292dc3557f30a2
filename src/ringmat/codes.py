"""Rank-distance codes: extremal independent sets, colorings and clique covers.

Over a prime field the classical construction evaluates the additive
polynomials c_0 x + c_1 x^p + ... + c_{k-1} x^(p^(k-1)) (k = m - r) on a
basis of the degree-n extension field, expands the images over the base
field, and truncates to m rows.  Each nonzero polynomial has at most
p^(k-1) roots, so each nonzero codeword has rank at least m - k + 1 = r + 1,
and the code meets the size bound p^(n*(m-r)) with equality: a maximum
independent set of the low-rank-difference graph.

Over Z_h the code is the Z_h-span of the n*(m-r) codewords of the unit
messages over every F_p, each placed in the CRT component of its prime.  In
the component Z_{p**s} that span is the entrywise lift of the prime-field
code closed under Z_{p**s}-combinations, of size p**(s*n*(m-r)) and the same
distance: a word with unit content reduces mod p to a nonzero member of the
prime-field code, and any p-divisible word is a p-multiple of a lifted one.
A code is the span of its basis, built by one subgroup closure on which
every nonzero word is ranked once before it is returned, so emitted codes
never rely on the argument above; the code carries that distance.  Words
are flat entry tuples; the RankCode carries their ring and shape once.
verify_distance checks any set of words by the one walk of cliques: a coset
is ranked through its difference group and charged |C| - 1 rank checks, any
other set pairwise and charged C(|C|, 2); a code flagged linear must also be
its own difference group (contain zero, closed under addition).

The same codes drive the two coloring-style certificates.  A code of
distance > r with h**(n*(m-r)) words is a complement of the row clique K
(last m - r rows zero): V = K (+) C, read off each word's last m - r rows.
The translates k + C properly color the graph with |K| = h**(n*r) colors,
and the translates c + K partition the vertices into h**(n*(m-r)) cliques
(a clique cover of the complement), which pins down the clique,
independence and chromatic numbers exactly.  A vertex id is hi * |C| + lo,
lo the base-h id of its last m - r rows, so a color is read off the word
listed at lo and the r * n top digits of hi, no vertex decoded in full.
The color map is the projection V -> K with kernel C, so every edge
(u, u + g) is decided by its connection element: it is monochromatic iff g
is a code word.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import NamedTuple, Sequence

from .cliques import (
    CliqueForm,
    _walk_and_rank,
    build_clique_and_walk,
    charge_clique_build,
    difference_ranks,
    is_clique,
)
from .errors import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_VERTEX_BUDGET,
    VerificationError,
    charge,
    power_exceeds,
)
from .graph import GraphSpec, adjacent, build_graph, subgroup_closure
from .ring import Frozen, RingSpec


# --- small finite fields -------------------------------------------------------


class FieldSpec(NamedTuple):
    """The field with p**n elements, as polynomials modulo a fixed irreducible.

    Elements are coefficient tuples of length n, constant term first.  The
    modulus is the lexicographically least monic irreducible of degree n
    (ordered by the tuple of coefficients from x^(n-1) down to the constant).
    """

    p: int
    n: int
    modulus: tuple[int, ...]  # length n + 1, constant first, leading 1

    @classmethod
    def default(cls, p: int, n: int) -> "FieldSpec":
        for code in range(p**n):
            digits = []
            x = code
            for _ in range(n):
                digits.append(x % p)
                x //= p
            # digits are constant-first; ascending `code` orders candidates by
            # the coefficient tuple (a_{n-1}, ..., a_0)
            candidate = tuple(digits) + (1,)
            if _poly_irreducible(p, candidate):
                return cls(p, n, candidate)
        raise VerificationError(f"no irreducible of degree {n} over F_{p}")  # unreachable

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.n - 1)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        for d in range(2 * n - 2, n - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(n):
                    prod[d - n + j] = (prod[d - n + j] - c * self.modulus[j]) % p
        return tuple(prod[:n])

    def frobenius_power(self, a: Sequence[int], j: int) -> tuple[int, ...]:
        """a ** (p**j), by repeated p-th powers."""
        out = tuple(a)
        for _ in range(j):
            out = self._pow(out, self.p)
        return out

    def _pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


def _poly_irreducible(p: int, poly: Sequence[int]) -> bool:
    """Trial division by all monic polynomials of degree up to deg(poly) // 2."""
    n = len(poly) - 1
    if n == 0:
        return False
    if poly[-1] != 1:
        return False
    for d in range(1, n // 2 + 1):
        for lower in product(range(p), repeat=d):
            divisor = list(lower) + [1]
            if _poly_divides(p, divisor, list(poly)):
                return False
    return True


def _poly_divides(p: int, divisor: list[int], poly: list[int]) -> bool:
    rem = poly[:]
    dd = len(divisor) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - dd
            for i, c in enumerate(divisor):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return not any(rem)


# --- codes ---------------------------------------------------------------------


class RankCode(NamedTuple):
    """A set of m x n matrices with a verified minimum rank distance.

    For linear codes (closed under addition and scalar multiples) `basis`
    holds a generating set, and the codes built here are its span; the
    distance equals the minimum rank of a nonzero member.  linear only asks
    verify_distance to check that the code is its own difference group; the
    charge follows the walk.  On codes built here verified_distance is the
    least rank found when the span's closure was formed.
    """

    ring: RingSpec
    rows: int
    cols: int
    members: frozenset[tuple[int, ...]]  # flat row-major entry tuples
    claimed_min_distance: int
    linear: bool
    basis: tuple[tuple[int, ...], ...] | None
    verified_distance: float | None = None

    @property
    def size(self) -> int:
        return len(self.members)


def verify_distance(code: RankCode, pair_budget: int = DEFAULT_PAIR_BUDGET) -> float:
    """Exact minimum rank distance, the least rank cliques._walk_and_rank takes; +inf if it takes none.

    Every code, a singleton too, is walked once, its words' shape and range
    checked first, and charged for the ranks taken: |C| - 1 for a coset,
    all C(|C|, 2) pairs otherwise.  A code flagged linear must also
    be its own difference group G (contain zero and be closed under
    addition), else VerificationError.
    """
    walk, ranks = _walk_and_rank(code.ring, code.rows, code.cols, list(code.members), pair_budget)
    if code.linear and (walk is None or walk[0] != code.members):
        raise VerificationError("a linear code must contain zero and be closed under addition")
    return min(ranks, default=math.inf)


def _gabidulin_basis(field: FieldSpec, m: int, k: int) -> list[tuple[int, ...]]:
    """Entry tuples of the codewords of the messages x^e in slot j, j-major, e < n, j < k.

    The codeword of a message (c_0, ..., c_{k-1}) is the matrix of
    x -> sum c_j x^(p**j) restricted to the first m coordinates; these n*k
    words span the evaluation code over F_p.
    """
    n = field.n
    units = [tuple(int(i == e) for i in range(n)) for e in range(n)]
    basis = []
    for j in range(k):
        frob = [field.frobenius_power(u, j) for u in units]
        for x in units:
            cols = [field.mul(x, f) for f in frob]
            basis.append(tuple(cols[l][i] for i in range(m) for l in range(n)))
    return basis


def mrd_code(spec: GraphSpec, pair_budget: int = DEFAULT_PAIR_BUDGET) -> RankCode:
    """A verified code over Z_h of size h**(n*(m-r)) with minimum distance r + 1.

    The code is the Z_h-span of the Gabidulin basis over each F_p, placed in
    the CRT component of p (primes in order): one closure, which must hold
    exactly h**(n*(m-r)) words and on which every nonzero word is ranked once
    within pair_budget, its least rank r + 1.  For r = m the graph is
    complete and the code is {0}, of distance inf; as nothing else bounds the
    shape then, the budget also caps its h**(m*n) vertices.  The budget is
    checked before any work; the code carries the distance verified for it.
    """
    ring = spec.ring
    m, n, r = spec.m, spec.n, spec.r
    if power_exceeds(ring.h, n * (m - r), pair_budget + 1):  # its words, less one, are checked
        charge("- 1 distance checks", (ring.h, n * (m - r)), pair_budget)
    if r == m:
        charge("vertices", (ring.h, m * n), pair_budget)
        return RankCode(ring, m, n, frozenset([(0,) * (m * n)]), r + 1, True, (), math.inf)
    zero = (0,) * (m * n)
    basis = [
        ring.crt_vectors([b if j == i else zero for j in range(ring.t)])
        for i, (p, _) in enumerate(ring.primes)
        for b in _gabidulin_basis(FieldSpec.default(p, n), m, m - r)
    ]
    size = spec.independence_bound
    group = subgroup_closure(basis, ring.h, size)
    if group is None or len(group) != size:
        raise VerificationError(f"the basis does not span exactly {size} words")
    found = min(difference_ranks(ring, m, n, group, group))
    if found != r + 1:
        raise VerificationError(f"verified distance {found} != claimed {r + 1}")
    return RankCode(ring, m, n, frozenset(group), r + 1, True, tuple(basis), found)


# --- colorings and covers ---------------------------------------------------------


def _complement_lookup(spec: GraphSpec, code: RankCode) -> list[tuple[int, ...]]:
    """The code words indexed by the base-h id of their last m - r rows; raise unless every pattern occurs once.

    Then V = K (+) C for the row clique K (last m - r rows zero).  Any code
    of distance > r passes: two words with the same last rows differ by a
    member of K, of rank <= r.
    """
    cut, size = spec.r * spec.n, spec.independence_bound
    lookup: list = [None] * size
    for x in code.members:
        i = spec.vertex_id(x[cut:])
        if 0 <= i < size:
            lookup[i] = x
    if code.size != size or None in lookup:
        raise VerificationError("code words do not meet each pattern of the last m - r rows once")
    return lookup


class Coloring(NamedTuple):
    """A proper coloring by the translates k + C of a code, k in the row clique K.

    A vertex id splits as hi * |C| + lo, lo the id of its last m - r rows;
    for v = k + c, c = lookup[lo] and color_of(v) is the id of k's top r
    rows, digit by digit from hi and c: n_colors = |K| = h**(n*r), and no
    vertex is decoded in full.  For a linear code it is the projection
    V -> K with kernel C: u and u + g share a color iff g is a code word,
    which decides every edge by its connection element.
    """

    spec: GraphSpec
    n_colors: int
    verification: str  # "edges" (every edge decided by its connection element) or "structural"
    lookup: list[tuple[int, ...]]

    def color_of(self, vid: int) -> int:
        h, (hi, lo) = self.spec.ring.h, divmod(vid, len(self.lookup))
        word, out, scale = self.lookup[lo], 0, 1
        for i in range(self.spec.r * self.spec.n - 1, -1, -1):
            hi, d = divmod(hi, h)
            out, scale = out + (d - word[i]) % h * scale, scale * h
        return out


def color_graph(
    spec: GraphSpec,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    sample_seed: int = 0,
    samples: int = 1000,
    code: RankCode | None = None,
) -> Coloring:
    """Color the graph with h**(n*r) colors: the translates k + C of a verified code.

    Two vertices share a color exactly when they differ by c - c' for words
    c != c', of rank > r as the code's verified distance exceeds r, so no edge
    is monochromatic.  Within the vertex budget the code must be flagged
    linear (a group, the closure of its basis), so color_of is the projection
    V -> K with kernel C: an edge (0, g) is monochromatic iff g is a code
    word, so the rank table is read at the word ids in ascending order.
    Above the budget the verified code distance stands as the certificate
    and a seeded sample of vertex pairs is checked explicitly: colors are
    compared by their last digit, then in full, and a pair is ranked only
    when they agree.  code defaults to mrd_code(spec).
    """
    if code is None:
        code = mrd_code(spec)
    if code.verified_distance is None or code.verified_distance <= spec.r:
        raise VerificationError("code distance does not clear the adjacency radius")
    nv = spec.n_vertices
    col = Coloring(spec, spec.clique_bound, "edges", _complement_lookup(spec, code))
    if nv <= vertex_budget:
        if not code.linear:
            raise VerificationError("the edge check needs a linear code: a group, as the kernel of the coloring")
        rho = build_graph(spec, vertex_budget).rho
        for cid in sorted(map(spec.vertex_id, col.lookup)):
            if 1 <= rho[cid] <= spec.r:
                raise VerificationError(f"edge (0, {cid}) is monochromatic: its connection element is a code word")
        return col
    rng = random.Random(sample_seed)
    words, h, last = col.lookup, spec.ring.h, spec.r * spec.n - 1
    for _ in range(samples):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        (hu, lu), (hv, lv) = divmod(u, len(words)), divmod(v, len(words))
        if (hu - hv - words[lu][last] + words[lv][last]) % h:  # the last digits of the colors differ
            continue
        if u != v and col.color_of(u) == col.color_of(v) and adjacent(spec, spec.vertex(u), spec.vertex(v)):
            raise VerificationError(f"sampled edge ({u}, {v}) is monochromatic")
    return col._replace(verification="structural")


class CliqueCover(NamedTuple):
    """A partition of the vertices into h**(n*(m-r)) cliques of size h**(n*r).

    The parts are the translates c + K of the row clique K by the code
    words, which partition V as V = K (+) C.  This is a clique cover of the
    graph, i.e. a proper coloring of its complement with as many colors as
    the complement's clique number, pinning the complement's chromatic
    number.
    """

    spec: GraphSpec
    parts: tuple[frozenset[tuple[int, ...]], ...]


def clique_cover_complement(spec: GraphSpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> CliqueCover:
    """Partition all vertices into the translates c + K of the row clique by the code words.

    K is closed once, by its builder, and checked once against that
    closure: every part has exactly K's differences.  The parts partition V
    by _complement_lookup, as c + K holds the vertices whose last m - r
    rows are c's.
    """
    charge("vertices", (spec.ring.h, spec.m * spec.n), vertex_budget)
    code = mrd_code(spec)
    _complement_lookup(spec, code)
    charge_clique_build(spec)
    base, walk = build_clique_and_walk(CliqueForm(spec, (0,) * spec.ring.t))
    cut = spec.r * spec.n
    if any(any(x[cut:]) for x in base) or not is_clique(spec, base, walk=walk):
        raise VerificationError("the canonical clique is not the row clique K, or K is not a clique")
    h = spec.ring.h
    return CliqueCover(spec, tuple(frozenset([tuple([(a + b) % h for a, b in zip(c, k)]) for k in base])
                                   for c in sorted(code.members)))


class GraphCertificate(Frozen):
    """Constructively certified clique, independence and chromatic numbers.

    A clique of size h**(n*r) gives omega >= that; a coloring with h**(n*r)
    colors gives chi <= that; a code of size h**(n*(m-r)) gives alpha >=
    that.  Vertex-transitivity gives chi >= |V| / alpha >= omega, and
    |V| = alpha_bound * omega_bound closes the chain, so all three are
    pinned exactly.  omega, alpha and chi are the witness sizes; a witness
    that misses its bound raises VerificationError.
    """

    __slots__ = ("spec", "omega", "alpha", "code_distance", "chi", "coloring_verification")

    def __init__(
        self, spec: GraphSpec, omega: int, alpha: int, code_distance: float, chi: int, coloring_verification: str
    ) -> None:
        witnesses = (omega, alpha, chi)
        bounds = (spec.clique_bound, spec.independence_bound, spec.clique_bound)
        if witnesses != bounds:
            raise VerificationError(f"witnesses (omega, alpha, chi) = {witnesses} != bounds {bounds}")
        self._fill(spec, omega, alpha, code_distance, chi, coloring_verification)


def certify_graph_parameters(spec: GraphSpec, vertex_budget: int = DEFAULT_VERTEX_BUDGET,
                             pair_budget: int = DEFAULT_PAIR_BUDGET) -> GraphCertificate:
    """Build and verify the three certificates once each, clique and code within pair_budget; raise if a bound fails."""
    charge_clique_build(spec, pair_budget)
    clique, walk = build_clique_and_walk(CliqueForm(spec, (0,) * spec.ring.t))
    if not is_clique(spec, clique, pair_budget, walk):
        raise VerificationError("canonical clique is not a clique")
    code = mrd_code(spec, pair_budget)
    coloring = color_graph(spec, vertex_budget, code=code)
    return GraphCertificate(
        spec, len(clique), code.size, code.verified_distance, coloring.n_colors, coloring.verification
    )

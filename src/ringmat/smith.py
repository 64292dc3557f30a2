"""Smith normal form and inner rank over residue class rings.

Over a prime-power ring Z_{p**s} every matrix A has a diagonalization
U A V = diag(p**a_1, ..., p**a_k) with U, V invertible and nondecreasing
exponents a_1 <= ... <= a_k capped at s; the exponents are invariants of
the equivalence class of A.  Over a general Z_h the form is computed per
prime-power component and the transforms are glued back with the Chinese
remainder map, after normalizing each diagonal entry to the canonical
generator prod_i(p_i ** a_ic) of its ideal by absorbing residual units
into the row transform.

The exponent table omega (one row per prime) classifies matrices up to
equivalence, and the inner rank of A - the least r such that A factors
through r columns - is the number of omega columns that are not fully
saturated.

snf runs the kernel once per prime, uncached, and leaves the exponent rows on the
matrix, where the rank queries read them uncharged; a matrix without them is charged
its kernel steps, then ranked once through the per-projection cache _pp_exponents,
which also serves bare entry tuples (cliques.difference_ranks).  Sweeps label each
component shape once and keep that table (exponent_table): over a prime field by rank,
a row outside the span of the rows above it adding one, otherwise per first row off the
smaller kept tables, the kernel running only on [p**v e_1; C] for 0 < v < s (_pp_chunks).
The rank table reads Z_h off it (component_walk), and the orbit product check counts its
rows (exponent_counts, holding no table past the keep limit), a second route to the
closed-form orbit lengths of the census, which runs no kernel (orbits).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import chain, product
from math import gcd, prod
from operator import itemgetter, le, mul
from typing import Iterator, NamedTuple, Sequence

from .errors import DEFAULT_ENUMERATION_BUDGET, UsageError, VerificationError, charge
from .matrix import Mat, _set_exponents, diagonal_entries
from .ring import Frozen, RingSpec


class InvariantFactorArray(Frozen):
    """Exponent table omega: row i lists the exponents of p_i along the diagonal.

    Rows are nondecreasing ints bounded by s_i, all of length min(rows, cols) of
    the matrix they describe.  The generators, once computed, stay in a slot that is no field.
    """

    __slots__ = ("ring", "omega", "_generators")
    _fields = ("ring", "omega")

    def __init__(self, ring: RingSpec, omega: tuple[tuple[int, ...], ...]) -> None:
        if len(omega) != ring.t:
            raise UsageError("omega must have one row per prime component")
        if len({len(row) for row in omega}) != 1:
            raise UsageError("omega rows must have equal length")
        if type(sum(map(sum, omega))) is not int:  # a sum of ints (or bools) is an int, with any other number not
            row = next(row for row in omega if type(sum(row)) is not int)
            raise VerificationError(f"omega row {row} has an exponent that is not an int")
        for row, (_, s) in zip(omega, ring.primes):
            if row and 0 <= row[0] and row[-1] <= s and all(map(le, row, row[1:])):
                continue  # nondecreasing within [0, s], so the loops below would pass it
            if any(not 0 <= a <= s for a in row):
                raise VerificationError(f"omega row {row} out of range for exponent bound {s}")
            if any(row[c] > row[c + 1] for c in range(len(row) - 1)):
                raise VerificationError(f"omega row {row} is not nondecreasing")
        self._fill(ring, omega, None)

    @property
    def inner_rank(self) -> int:
        """Number of diagonal positions whose ideal is not the zero ideal: the longest unsaturated prefix of a row."""
        return max(map(bisect_left, self.omega, self.ring.saturated))

    def generators(self) -> tuple[int, ...]:
        """The canonical generator prod_i(p_i ** omega[i][c]) of each diagonal ideal, unreduced; computed once."""
        if self._generators is None:
            ps = [p for p, _ in self.ring.primes]
            object.__setattr__(self, "_generators", tuple([prod(map(pow, ps, col)) for col in zip(*self.omega)]))
        return self._generators

    def diagonal_values(self) -> tuple[int, ...]:
        """Canonical diagonal entries prod_i(p_i ** omega[i][c]) mod h."""
        return tuple(map(self.ring.h.__rmod__, self.generators()))


class SmithForm(NamedTuple):
    """A factorization A = S @ D @ T with S, T invertible and canonical diagonal D."""

    S: Mat
    D: Mat
    T: Mat
    omega: InvariantFactorArray

    @property
    def inner_rank(self) -> int:
        return self.omega.inner_rank


class RankProjections(NamedTuple):
    via_pi: int
    via_theta: int


# --- prime-power kernel ------------------------------------------------------
#
# Flat row-major lists of ints; pivot selection takes the minimum-valuation
# entry of the trailing block (the least gcd(x, q) = p**v), ties broken by
# lowest (row, col).  The pivot row is scaled by the inverse of the pivot's
# unit part so the pivot becomes exactly p**a, after which every remaining
# entry in its row and column is an exact multiple and is cleared without
# division by zero divisors.  Only the trailing block is read again, so only
# it is updated.  Only the inverse transforms are kept: until step d,
# columns d.. of Uinv and rows d.. of Vinv are the unit vectors e_rp[j] and
# e_cp[j], as only swaps touched them, so row_i -= c * row_d writes c to
# Uinv[rp[i], d] and col_j -= c * col_d writes c to Vinv[d, cp[j]]: one entry
# per elimination.


def _pp_smith(
    p: int, s: int, q: int, m: int, n: int, entries: tuple[int, ...], transforms: bool
) -> tuple[tuple[int, ...], tuple[int, ...] | None, tuple[int, ...] | None]:
    """Diagonalize over Z_{p**s}: returns (alpha, Uinv, Vinv), flat row-major.

    A = Uinv @ diag(p**alpha) @ Vinv; columns (rows) of Uinv (Vinv) from the
    current pivot on stay unit vectors, so each elimination writes one entry.
    The transform slots are None unless transforms is True.
    """
    a = list(entries)
    k = min(m, n)
    alpha = [s] * k
    if transforms:
        rp = list(range(m))  # column j >= d of Uinv is e_rp[j]
        cp = list(range(n))  # row j >= d of Vinv is e_cp[j]
        Ui = [0] * (m * m)
        Vi = [0] * (n * n)

    for d in range(k):
        pa, bi, bj = q, -1, -1
        for i in range(d, m):
            base = i * n
            for j in range(d, n):
                x = a[base + j]
                if x:
                    if x % p:  # a unit, valuation 0: no pivot is better
                        pa, bi, bj = 1, i, j
                        break
                    g = gcd(x, q)  # p**v for x of valuation v < s
                    if g < pa:
                        pa, bi, bj = g, i, j
            if pa == 1:
                break
        if bi < 0:
            break  # trailing block is zero; remaining exponents stay at s
        v, g = 0, pa
        while g > 1:
            g //= p
            v += 1
        alpha[d] = v

        dn = d * n
        if bi != d:
            bn = bi * n
            a[dn + d:dn + n], a[bn + d:bn + n] = a[bn + d:bn + n], a[dn + d:dn + n]
            if transforms:
                rp[d], rp[bi] = rp[bi], rp[d]
        if bj != d:
            for i in range(dn + d, m * n, n):
                a[i], a[i + bj - d] = a[i + bj - d], a[i]
            if transforms:
                cp[d], cp[bj] = cp[bj], cp[d]

        u = a[dn + d] // pa
        row = range(dn + d + 1, dn + n)  # the pivot row right of the pivot
        if u != 1:
            uinv = pow(u, -1, q)
            for j in row:
                a[j] = a[j] * uinv % q
        if transforms:
            Ui[rp[d] * m + d] = u
            Vi[dn + cp[d]] = 1
            for j in range(d + 1, n):
                Vi[dn + cp[j]] = a[dn + j] // pa

        # row_i -= c * row_d below the pivot; col_j -= c * col_d changes only row d
        for i in range(d + 1, m):
            x = a[i * n + d]
            if x:
                c = x // pa
                off = (i - d) * n
                for j in row:
                    a[j + off] = (a[j + off] - c * a[j]) % q
                if transforms:
                    Ui[rp[i] * m + d] = c

    if not transforms:
        return tuple(alpha), None, None
    done = bisect_left(alpha, s)  # pivots found: alpha is nondecreasing, a pivot has valuation below s
    for j in range(done, m):
        Ui[rp[j] * m + j] = 1
    for j in range(done, n):
        Vi[j * n + cp[j]] = 1
    return tuple(alpha), tuple(Ui), tuple(Vi)


KERNEL_CACHE_SIZE = 2**16  # exponent rows by projection, stacked clique transforms, kept table rows: each bounded


@lru_cache(maxsize=KERNEL_CACHE_SIZE)  # for the stacked calls of cliques.classify_max_clique
def _pp_smith_cached(p, s, q, m, n, entries, side):
    """(alpha, Uinv) for side 1, (alpha, Vinv) for side 2: only the transform that is read is kept."""
    return itemgetter(0, side)(_pp_smith(p, s, q, m, n, entries, True))


@lru_cache(maxsize=KERNEL_CACHE_SIZE)  # rows by projection, for a matrix not yet ranked and for bare tuples
def _pp_exponents(p, s, q, m, n, entries):
    return _pp_smith(p, s, q, m, n, entries, False)[0]


_tables: dict[tuple, tuple[tuple[int, ...], ...]] = {}  # kept by exponent_table, oldest first


def _field_table(p: int, m: int, n: int) -> list[tuple[set[int], tuple[int, ...], tuple[int, ...]]]:
    """exponent_table over Z_p by top blocks; a label is a rank: rank([B; r]) = rank(B) + [r not in rowspan(B)].

    Per top block B (the first m - 1 rows, in id order) rowspan(B) is carried as a set of row ids,
    extended one row at a time; the p**n last rows under B take one label inside it, another outside.
    """
    k, rows = min(m, n), list(product(range(p), repeat=n))
    ids = {r: i for i, r in enumerate(rows)}
    labels = [(0,) * j + (1,) * (k - j) for j in range(k + 1)]
    spans = [({0}, 0)]  # (rowspan as row ids, rank) of every block of the rows so far, in id order
    for _ in range(m - 1):
        spans = [(span, rho) if i in span else
                 ({ids[tuple([(x + c * y) % p for x, y in zip(rows[j], r)])] for j in span for c in range(p)}, rho + 1)
                 for span, rho in spans for i, r in enumerate(rows)]
    return [(span, labels[rho], labels[min(rho + 1, k)]) for span, rho in spans]  # rho = k: the span is every row


def _pp_chunks(p: int, s: int, q: int, m: int, n: int) -> Iterator[list[tuple[int, ...]]]:
    """exponent_table over Z_{p**s}, s > 1, in chunks: per first row a, in base-q id order, the rows of all [a; B].

    For min(m, n) = 1 the row is the least valuation of the entries (a chunk per leading entry).  Else let
    a_j0 = p**v u be the first entry of least valuation v.  Column operations make a = p**v e_j0 and a row b
    below (b_j0 / u, b_j - c_j b_j0 for j != j0) with c_j a_j0 = a_j, and row operations leave b_j0 mod p**v:
    the label is T_v at that row's id.  T_0 is (0,) and the (m-1) x (n-1) label, T_v one kernel run on
    [p**v e_1; C] for 0 < v < s, and T_s (a = 0, b kept) the (m-1) x n label, s appended, cut to min(m, n).
    """
    val = [0] * q  # the valuation of each residue, s for 0
    for v in range(1, s + 1):
        val[::p**v] = [v] * (q // p**v)
    if min(m, n) == 1:
        labels, mins = [(v,) for v in range(s + 1)], [s]
        for _ in range(m * n - 1):
            mins = [x if x < y else y for x in val for y in mins]
        yield from ([labels[x if x < y else y] for y in mins] for x in val)
        return
    top, tail = exponent_table(p, s, q, m - 1, n), exponent_table(p, s, q, m - 1, n - 1)
    tables = [list(map({a: (0,) + a for a in set(tail)}.__getitem__, tail))]
    for v in range(1, s):
        tables.append([_pp_smith(p, s, q, m, n, (p**v,) + (0,) * (n - 1) + c, False)[0]
                       for c in product(*[range(p**v), *[range(q)] * (n - 1)] * (m - 1))])
    tables.append(list(map({a: (a + (s,))[:min(m, n)] for a in set(top)}.__getitem__, top)))
    seen: dict = {}
    tables = [[seen.setdefault(alpha, alpha) for alpha in t] for t in tables]  # equal rows are one shared tuple
    w = q ** (n - 1)
    for a in product(range(q), repeat=n):
        v, j0 = min(zip(map(val.__getitem__, a), range(n)))  # the least valuation, first at column j0
        pv = p**v
        uinv = pow(a[j0] // pv or 1, -1, q)  # 1 for a = 0, so that b keeps its id
        others = [_digit_ids(q, [[(x - c * y) % q for x in range(q)] for c in
                                 [x // pv * uinv % q for x in a[:j0] + a[j0 + 1:]]]) for y in range(q)]
        span = q ** (n - 1 - j0)  # the ids of b in id order: columns before j0, b_j0, columns after
        row = [y * uinv % pv * w + i for pre in range(0, w, span) for y, ids in enumerate(others)
               for i in ids[pre:pre + span]]
        yield list(map(tables[v].__getitem__, _digit_ids(pv * w, [row] * (m - 1))))


def exponent_counts(p: int, s: int, q: int, m: int, n: int) -> Counter:
    """The row counts of exponent_table(p, s, q, m, n): of the kept table when it fits KERNEL_CACHE_SIZE rows,
    else counted as the rows are labelled, holding no m x n table: over a field per top block off its span
    (_field_table), otherwise per first row (_pp_chunks)."""
    if q ** (m * n) <= KERNEL_CACHE_SIZE:
        return Counter(exponent_table(p, s, q, m, n))
    if s > 1:
        return Counter(chain.from_iterable(_pp_chunks(p, s, q, m, n)))
    counts = Counter()
    for span, inside, outside in _field_table(p, m, n):
        counts[inside] += len(span)
        counts[outside] += p**n - len(span)
    return counts


def exponent_table(p: int, s: int, q: int, m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The exponent row of every m x n matrix over Z_q, q = p**s, in base-q id order.

    Over a field (s = 1) the rank, by row-span extension (_field_table); otherwise per first row, the
    kernel running only for first rows of valuation 0 < v < s (_pp_chunks).  Equal rows are one shared
    tuple.  Kept, the oldest evicted first, within KERNEL_CACHE_SIZE rows in all; a larger table is not.
    """
    table = _tables.get((p, s, q, m, n))
    if table is None:
        if s == 1:
            table = []
            for span, inside, outside in _field_table(p, m, n):
                block = [outside] * p**n
                for i in span:
                    block[i] = inside
                table += block
            table = tuple(table)
        else:
            table = tuple(chain.from_iterable(_pp_chunks(p, s, q, m, n)))
        if len(table) <= KERNEL_CACHE_SIZE:
            while sum(map(len, _tables.values())) + len(table) > KERNEL_CACHE_SIZE:
                del _tables[next(iter(_tables))]
            _tables[p, s, q, m, n] = table
    return table


def _digit_ids(base: int, digit_maps: Sequence[Sequence[int]]) -> list[int]:
    """For every v in Z_h^k in base-h order, the base-`base` id whose digit j is digit_maps[j][v_j]."""
    ids = [0]
    for digit in digit_maps:
        ids = [a * base + b for a in ids for b in digit]
    return ids


def component_walk(ring: RingSpec, m: int, n: int, tables: Sequence[Sequence]) -> Iterator[list[Iterator]]:
    """Walk Z_h^{m x n} in base-h id order, reading each matrix off per-component tables.

    tables[i] is indexed by base-q_i id.  Per block of matrices sharing their
    leading m*n // 2 entries, yields one iterator per component over
    tables[i][id of the projection]; only O(h**ceil(m*n / 2)) ids are held.
    """
    h, k = ring.h, m * n
    lead_k = k // 2
    qs = ring.prime_powers
    trails = [_digit_ids(q, [[v % q for v in range(h)]] * (k - lead_k)) for q in qs]
    leads = [_digit_ids(q, [[v % q for v in range(h)]] * lead_k) for q in qs]
    widths = [q ** (k - lead_k) for q in qs]
    for offsets in zip(*leads):
        yield [
            map(tab[o * w:(o + 1) * w].__getitem__, trail)
            for tab, trail, o, w in zip(tables, trails, offsets, widths)
        ]


def clear_kernel_caches() -> None:
    _pp_smith_cached.cache_clear()
    _pp_exponents.cache_clear()
    _tables.clear()


def _charge_kernel_steps(ring: RingSpec, m: int, n: int) -> None:
    """Charge the steps of one m x n kernel run per prime, before any."""
    charge("kernel steps", ring.t * m * n * min(m, n), DEFAULT_ENUMERATION_BUDGET)


def _component_exponents(a: Mat) -> tuple[tuple[int, ...], ...]:
    """Per-prime exponent rows of a: those it carries, uncharged, else left on it by the kernel, charged first."""
    omega = getattr(a, "_exponents", None)
    if omega is None:
        ring, e, m, n = a.ring, a.entries, a.rows, a.cols
        _charge_kernel_steps(ring, m, n)
        omega = tuple([_pp_exponents(p, s, q, m, n, e if q == ring.h else tuple(map(q.__rmod__, e)))
                       for (p, s), q in zip(ring.primes, ring.prime_powers)])
        _set_exponents(a, omega)
    return omega


def invariant_factors(a: Mat) -> InvariantFactorArray:
    """The exponent table omega of a, without computing transforms."""
    return InvariantFactorArray(a.ring, _component_exponents(a))


def _transposed(e: tuple[int, ...], m: int, n: int) -> tuple[int, ...]:
    return tuple([x for j in range(n) for x in e[j::n]])  # flat m x n -> flat n x m


def snf(a: Mat) -> SmithForm:
    """Smith normal form A = S @ D @ T over Z_h.

    D is diagonal with entry c equal to prod_i(p_i ** omega[i][c]) reduced
    mod h, the canonical generator of its ideal; S and T are invertible but
    not unique.  For rows > cols the form is computed on the transpose and
    transposed back.  The m**2 + n**2 transform entries and their cost are
    budgeted first; the exponent rows found are left on a.
    """
    ring, rows, cols, e = a.ring, a.rows, a.cols, a.entries
    (m, n), tall = sorted((rows, cols)), rows > cols
    charge("transform entries", m * m + n * n, DEFAULT_ENUMERATION_BUDGET)
    charge("transform steps", (ring.t + 1) * n * n * m, DEFAULT_ENUMERATION_BUDGET)
    et = _transposed(e, rows, cols) if tall else e
    comps = []
    for (p, s), q in zip(ring.primes, ring.prime_powers):
        comps.append(_pp_smith(p, s, q, m, n, et if q == ring.h else tuple(map(q.__rmod__, et)), True))
    omega = InvariantFactorArray(ring, tuple(alpha for alpha, _, _ in comps))
    _set_exponents(a, omega.omega)
    g = omega.generators()
    if ring.t == 1:  # g_c = p ** alpha_c: no unit to absorb, nothing to glue
        (_, Ui, Vi), = comps
    else:
        # scaling column c of Uinv_i by the inverse w_ic of the unit g_c / p_i ** alpha_ic makes the glued
        # diagonal g_c; it rides in that column's CRT coefficients e_i * w_ic, once per distinct g_c
        h, es, coefs = ring.h, ring._crt_idempotents, {}
        for gc, col in zip(g, zip(*omega.omega)):
            if gc not in coefs:
                coefs[gc] = [e * pow(gc // p**x % q, -1, q) % h
                             for e, (p, _), q, x in zip(es, ring.primes, ring.prime_powers, col)]
        by_entry = [coefs[gc] for gc in g] * m  # entry r * m + c of Uinv lies in column c
        Ui = tuple([sum(map(mul, c, parts)) % h for c, parts in zip(by_entry, zip(*[u for _, u, _ in comps]))])
        Vi = ring.crt_vectors([v for _, _, v in comps])
    if tall:  # A^T = S' D' T', so A = T'^T D'^T S'^T
        m, n, Ui, Vi = n, m, _transposed(Vi, n, n), _transposed(Ui, m, m)
    return SmithForm(Mat._new(ring, m, m, Ui), Mat.diagonal(ring, g, m, n), Mat._new(ring, n, n, Vi), omega)


def inner_rank(a: Mat) -> int:
    """Least r such that a = B @ C with B of width r; read off the omega table."""
    return max(map(bisect_left, _component_exponents(a), a.ring.saturated))  # rows are nondecreasing


def rank_via_projections(a: Mat) -> RankProjections:
    """The inner rank of a, reported as via_pi and via_theta.

    via_pi, the largest rank among the projections a mod q_i, is inner_rank.  So is
    via_theta, the largest rank among the coprojections a mod h / q_i: their components
    are the a mod q_j, j != i (CRT), and a largest rank stays when any other is left out
    (t = 1: via_pi).  Neither checks the other; verify_smith_form, the minors oracle
    and the outer-product set check the rank.
    """
    r = inner_rank(a)
    return RankProjections(r, r)


def verify_smith_form(a: Mat, f: SmithForm) -> None:
    """Raise VerificationError unless f is a valid Smith form of a."""
    ring, m, n, D = a.ring, a.rows, a.cols, f.D
    diag = f.omega.diagonal_values()
    if (D.ring, D.rows, D.cols, D.entries) != (ring, m, n, diagonal_entries(ring.h, diag, m, n)):
        raise VerificationError("D does not match the omega table")
    for name, x, d in (("S", f.S, m), ("T", f.T, n)):
        if (x.ring, x.rows, x.cols) != (ring, d, d):
            raise VerificationError(f"{name} is not {d} x {d} over the ring of the input")
    # D is canonical, so (S @ D @ T)[i, j] = sum over c < k of S[i, c] * d_c * T[c, j]
    se, k = f.S.entries, len(diag)
    tcols = [f.T.entries[j:k * n:n] for j in range(n)]  # the first k rows of T, by column
    sds = [[x * d for x, d in zip(se[i * m:i * m + k], diag)] for i in range(m)]
    if tuple([sum(map(mul, sd, col)) % ring.h for sd in sds for col in tcols]) != a.entries:
        raise VerificationError("S @ D @ T does not reproduce the input")
    for name, x in (("S", f.S), ("T", f.T)):
        if not x.is_invertible():
            raise VerificationError(f"{name} is not invertible")

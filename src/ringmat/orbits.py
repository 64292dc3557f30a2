"""Census of matrix equivalence orbits over a residue class ring.

Matrices A, B over Z_h are equivalent when B = P @ A @ Q for invertible P
and Q, and the exponent table omega is a complete invariant, so orbits are
in bijection with omega labels.  For m x n matrices with m <= n the label
count is prod_i binom(s_i + m, m).  Over Z_{p^s} a matrix of exponent row
alpha maps onto a submodule of Z_{p^s}^m of type (s - a for a in alpha if
a < s), so its orbit length is the number of submodules of that type, a
product of Gaussian binomials (Birkhoff 1935; Butler, Mem. AMS 539, 1994),
times the number of surjections onto one (_pp_counts): no matrix is walked
and no kernel runs.  Over a composite Z_h a label is the tuple of its CRT
component labels, so its length is the product of theirs;
verify_orbit_product checks every length against the row counts of the
exhaustive component tables, a second route.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from typing import NamedTuple

from .errors import DEFAULT_ENUMERATION_BUDGET, VerificationError, charge
from .matrix import _check_dims
from .ring import Frozen, RingSpec
from .smith import exponent_counts

Label = tuple[tuple[int, ...], ...]


class CensusReport(Frozen):
    """Orbit lengths of every label of Z_h^{m x n}, sorted by label."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries: tuple[tuple[Label, int], ...]) -> None:
        self._fill(ring, rows, cols, entries)
        if sum(c for _, c in entries) != self.total:
            raise VerificationError("census lengths do not sum to the matrix count")
        labels = [lab for lab, _ in entries]
        if sorted(set(labels)) != labels:
            raise VerificationError("census labels must be sorted and distinct")
        if any(c <= 0 for _, c in entries):
            raise VerificationError("every census label needs a positive length")

    @property
    def total(self) -> int:
        return self.ring.h ** (self.rows * self.cols)

    @property
    def label_count(self) -> int:
        return len(self.entries)


def expected_label_count(ring: RingSpec, rows: int, cols: int) -> int:
    """prod_i binom(s_i + k, k) with k = min(rows, cols)."""
    k = min(rows, cols)
    out = 1
    for _, s in ring.primes:
        out *= comb(s + k, k)
    return out


def census_by_enumeration(
    ring: RingSpec, rows: int, cols: int, budget: int | None = None
) -> CensusReport:
    """Orbit census of Z_h^{m x n}, charged first as h^(m*n) matrices though none is walked.

    _census multiplies the per-prime closed-form lengths of _pp_counts; CensusReport checks that
    the labels are sorted and distinct and the lengths positive, summing to h^(m*n).
    """
    _check_dims(rows, cols)
    charge("matrices", (ring.h, rows * cols), DEFAULT_ENUMERATION_BUDGET if budget is None else budget)
    return _census(ring, rows, cols)


@lru_cache(maxsize=1)
def _census(ring: RingSpec, rows: int, cols: int) -> CensusReport:
    """The census, kept for the last shape: verify_orbit_product asks again.

    By the CRT split a label over Z_h is the tuple of its component labels, so its length is
    the product of their closed-form lengths over Z_{p_i^s_i}.  Each component lists its rows
    sorted, so the labels come out sorted, as CensusReport requires.
    """
    comps = [_pp_counts(p, s, *sorted((rows, cols))) for p, s in ring.primes]  # transposing keeps labels
    return CensusReport(ring, rows, cols, tuple(
        (label, prod(c[alpha] for c, alpha in zip(comps, label))) for label in product(*comps)))


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _pp_counts(p: int, s: int, m: int, n: int) -> dict[tuple[int, ...], int]:
    """Orbit length of every exponent row of m x n over Z_{p^s} (m <= n), sorted by row.

    A matrix of row alpha maps Z_{p^s}^n onto a submodule of Z_{p^s}^m of type
    lambda = (s - a for a in alpha if a < s), with d = len(lambda) cyclic factors.  There are
    prod_{i<s} p^(c_{i+1}(m - c_i)) [m - c_{i+1} choose c_i - c_{i+1}]_p such submodules, where
    c_i counts the parts of lambda above i (Birkhoff 1935; Butler, Mem. AMS 539, 1994), and
    p^(n(|lambda| - d)) prod_{j<d} (p^n - p^j) surjections onto each.
    """
    counts = {}
    for alpha in combinations_with_replacement(range(s + 1), m):
        lam = [s - a for a in alpha if a < s]
        c = [sum(x > i for x in lam) for i in range(s + 1)]
        count = p ** (n * (sum(lam) - len(lam))) * prod(p**n - p**j for j in range(len(lam)))
        for i in range(s):
            count *= p ** (c[i + 1] * (m - c[i])) * _gaussian_binomial(m - c[i + 1], c[i] - c[i + 1], p)
        counts[alpha] = count
    return counts


class OrbitProductReport(NamedTuple):
    """Cross-check of the product law: orbit length over Z_h = product of component lengths."""

    census: CensusReport  # the census over Z_h that was checked
    table: tuple[tuple[Label, int, tuple[int, ...], int], ...]
    # rows of (label, length over Z_h, per-prime lengths, their product)

    @property
    def ok(self) -> bool:
        return all(length == expect for _, length, _, expect in self.table)

    def first_violation(self) -> tuple[Label, int, tuple[int, ...], int] | None:
        for row in self.table:
            if row[1] != row[3]:
                return row
        return None


def verify_orbit_product(
    ring: RingSpec, rows: int, cols: int, budget: int | None = None
) -> OrbitProductReport:
    """Census Z_h, then compare each orbit length with the product of its per-prime lengths.

    The per-prime lengths are the row counts of the exhaustive component tables (exponent_counts),
    a route independent of the closed form (_pp_counts) whose products the census holds; over
    Z_{p^s} the kernel labels only the matrices [p^v e_1; C], 0 < v < s, the rest off their first
    rows.  For t = 1 the one table is that of Z_h.
    """
    full = census_by_enumeration(ring, rows, cols, budget)
    lengths = [exponent_counts(p, s, q, rows, cols) for (p, s), q in zip(ring.primes, ring.prime_powers)]
    table = []
    for label, length in full.entries:
        per = tuple(c[alpha] for c, alpha in zip(lengths, label))
        table.append((label, length, per, prod(per)))
    return OrbitProductReport(full, tuple(table))

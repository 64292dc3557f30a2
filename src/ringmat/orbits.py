"""Census of matrix equivalence orbits over a residue class ring.

Matrices A, B over Z_h are equivalent when B = P @ A @ Q for invertible P
and Q, and the exponent table omega is a complete invariant, so orbits are
in bijection with omega labels.  For m x n matrices with m <= n the label
count is prod_i binom(s_i + m, m).  Over Z_{p^s} the census uses the
column action: some Q in GL_n sends a first row p^a * u (u unimodular) to
p^a * e_1, and A -> A @ Q keeps the label while permuting the other rows.
Unit and zero first rows reduce to smaller censuses, and the kernel runs on
[p^a * e_1; B] only for 0 < a < s, with B[:, 0] mod p^a (_pp_counts).  Over a
composite Z_h a label is the tuple of its CRT component labels, so its length
is the product of their recursive counts; verify_orbit_product checks those
against the counts of the exhaustive component tables, a second route.  The
closed form of orbit lengths is not implemented.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from typing import NamedTuple

from .errors import DEFAULT_ENUMERATION_BUDGET, VerificationError, charge
from .matrix import _check_dims
from .ring import Frozen, RingSpec
from .smith import _pp_smith, exponent_table

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


def enumerate_orbit_labels(ring: RingSpec, rows: int, cols: int) -> list[Label]:
    """All omega labels for m x n matrices, sorted, without touching any matrix.

    A label holds one nondecreasing exponent row per prime, each entry capped
    at s_i, with rows of length min(rows, cols).
    """
    k = min(rows, cols)
    per_prime = [
        [tuple(row) for row in combinations_with_replacement(range(s + 1), k)]
        for _, s in ring.primes
    ]
    labels = sorted(product(*per_prime))
    if len(labels) != expected_label_count(ring, rows, cols):
        raise VerificationError("label enumeration does not match the counting formula")
    return labels


def census_by_enumeration(
    ring: RingSpec, rows: int, cols: int, budget: int | None = None
) -> CensusReport:
    """Orbit census of Z_h^{m x n}, charged first as h^(m*n) matrices though none is walked.

    _census multiplies the per-prime counts of _pp_counts.  Every label from
    enumerate_orbit_labels must show up, and lengths must sum to h^(m*n).
    """
    _check_dims(rows, cols)
    charge("matrices", (ring.h, rows * cols), DEFAULT_ENUMERATION_BUDGET if budget is None else budget)
    return _census(ring, rows, cols)


@lru_cache(maxsize=1)
def _census(ring: RingSpec, rows: int, cols: int) -> CensusReport:
    """The census, kept for the last shape: verify_orbit_product asks again.

    By the CRT split a label over Z_h is the tuple of its component labels, so its length is
    the product of their counts over Z_{p_i^s_i}; t = 1 is the one-factor case.
    """
    comps = [_pp_counts(p, s, *sorted((rows, cols))) for p, s in ring.primes]  # transposing keeps labels
    return _checked_report(ring, rows, cols, Counter(
        {label: prod(c[alpha] for c, alpha in zip(comps, label)) for label in product(*comps)}))


def _pp_counts(p: int, s: int, m: int, n: int) -> Counter:
    """Matrix count per exponent row of m x n over Z_{p^s} (m <= n), from two smaller censuses.

    [p^a e_1; B] stands for the N_a = p^((s-a)n) - p^((s-a-1)n) first rows of valuation a (N_s = 1).
    For a = 0 the label is (0,) + that of B[:, 1:] (row operations clear column 0), weighted q^(m-1) N_0;
    for a = s it is that of B with s appended.  Only 0 < a < s runs the kernel.  R_i -= c R_0 changes only
    B[i, 0], by c p^a, so it runs on the p^(a(m-1)) q^((m-1)(n-1)) B with B[:, 0] taken mod p^a.
    """
    if m == 0:
        return Counter({(): 1})
    q = p**s
    unit = q ** (m - 1) * (q**n - p ** ((s - 1) * n))  # q^(m-1) N_0
    counts = Counter({(0,) + alpha: unit * c for alpha, c in _pp_counts(p, s, m - 1, n - 1).items()})
    counts.update({alpha + (s,): c for alpha, c in _pp_counts(p, s, m - 1, n).items()})
    for a in range(1, s):
        first = (p**a,) + (0,) * (n - 1)
        weight = (p ** ((s - a) * n) - p ** ((s - a - 1) * n)) * p ** ((s - a) * (m - 1))  # N_a, times B[:, 0] lifts
        for rest in product(*[range(p**a), *[range(q)] * (n - 1)] * (m - 1)):
            counts[_pp_smith(p, s, q, m, n, first + rest, False)[0]] += weight
    return counts


def _checked_report(ring: RingSpec, rows: int, cols: int, counts: Counter) -> CensusReport:
    expected = set(enumerate_orbit_labels(ring, rows, cols))
    seen = set(counts)
    if seen != expected:
        missing = sorted(expected - seen)
        extra = sorted(seen - expected)
        raise VerificationError(f"census labels disagree with enumeration: missing={missing} extra={extra}")
    return CensusReport(ring, rows, cols, tuple(sorted(counts.items())))


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

    For t > 1 the per-prime lengths are the row counts of the exhaustive component tables
    (exponent_table), a route independent of the recursive census (_pp_counts) whose products
    the census holds.  For t = 1 the one component is Z_h itself and its census is the full
    one, not counted again.
    """
    full = census_by_enumeration(ring, rows, cols, budget)
    lengths = [{alpha: c for (alpha,), c in full.entries}] if ring.t == 1 else [
        Counter(exponent_table(p, s, q, rows, cols)) for (p, s), q in zip(ring.primes, ring.prime_powers)
    ]
    table = []
    for label, length in full.entries:
        per = tuple(c[alpha] for c, alpha in zip(lengths, label))
        table.append((label, length, per, prod(per)))
    return OrbitProductReport(full, tuple(table))

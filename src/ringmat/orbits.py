"""Census of matrix equivalence orbits over a residue class ring.

Matrices A, B over Z_h are equivalent when B = P @ A @ Q for invertible P
and Q, and the exponent table omega is a complete invariant, so orbits are
in bijection with omega labels.  For m x n matrices with m <= n the label
count is prod_i binom(s_i + m, m); orbit lengths carry no closed formula
here and are produced by exhaustive enumeration, with the per-prime product
law checked against independent component censuses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb

from .errors import BudgetExceededError, UsageError, VerificationError, power_exceeds
from .ring import RingSpec
from .smith import _pp_exponents

Label = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CensusReport:
    """Orbit lengths for every label of Z_h^{m x n}, from full enumeration."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple[tuple[Label, int], ...]  # sorted by label

    def __post_init__(self) -> None:
        total = self.ring.h ** (self.rows * self.cols)
        if sum(c for _, c in self.entries) != total:
            raise VerificationError("census lengths do not sum to the matrix count")
        labels = [lab for lab, _ in self.entries]
        if sorted(set(labels)) != labels:
            raise VerificationError("census labels must be sorted and distinct")
        if any(c <= 0 for _, c in self.entries):
            raise VerificationError("every census label needs a positive length")

    @property
    def total(self) -> int:
        return self.ring.h ** (self.rows * self.cols)

    @property
    def label_count(self) -> int:
        return len(self.entries)

    def length_of(self, label: Label) -> int:
        for lab, c in self.entries:
            if lab == label:
                return c
        raise KeyError(label)


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
    """Exhaustive orbit census: iterate all h^(m*n) matrices and bucket by label.

    Matrices are enumerated in row-major base-h order.  Every label from
    enumerate_orbit_labels must show up with positive length, and lengths
    must sum to h^(m*n); both are enforced.
    """
    from .errors import DEFAULT_ENUMERATION_BUDGET

    cap = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    k = rows * cols
    if power_exceeds(ring.h, k, cap):
        raise BudgetExceededError(f"census needs {ring.h}^{k} matrices, budget is {cap}")

    primes = ring.primes
    qs = ring.prime_powers
    counts: Counter[Label] = Counter()
    for ents in product(range(ring.h), repeat=rows * cols):
        label = tuple(
            _pp_exponents(p, s, q, rows, cols, tuple(v % q for v in ents))
            for (p, s), q in zip(primes, qs)
        )
        counts[label] += 1

    expected = set(enumerate_orbit_labels(ring, rows, cols))
    seen = set(counts)
    if seen != expected:
        missing = sorted(expected - seen)
        extra = sorted(seen - expected)
        raise VerificationError(f"census labels disagree with enumeration: missing={missing} extra={extra}")
    return CensusReport(ring, rows, cols, tuple(sorted(counts.items())))


@dataclass(frozen=True)
class OrbitProductReport:
    """Cross-check of the product law: orbit length over Z_h = product of component lengths."""

    ring: RingSpec
    rows: int
    cols: int
    table: tuple[tuple[Label, int, tuple[int, ...], int], ...]
    # rows of (label, length over Z_h, per-prime lengths, their product)

    @property
    def ok(self) -> bool:
        return all(length == prod for _, length, _, prod in self.table)

    def first_violation(self) -> tuple[Label, int, tuple[int, ...], int] | None:
        for row in self.table:
            if row[1] != row[3]:
                return row
        return None


def verify_orbit_product(
    ring: RingSpec, rows: int, cols: int, budget: int | None = None
) -> OrbitProductReport:
    """Census Z_h and each prime-power component, then compare lengths labelwise.

    The component censuses are independent enumerations over Z_{p_i ** s_i},
    so the comparison is a genuine cross-check rather than a tautology.
    """
    if ring.t < 1:
        raise UsageError("ring must have at least one component")
    full = census_by_enumeration(ring, rows, cols, budget)
    comp_reports = [
        census_by_enumeration(ring.component(i), rows, cols, budget) for i in range(ring.t)
    ]
    comp_maps = [dict(rep.entries) for rep in comp_reports]
    table = []
    for label, length in full.entries:
        per = tuple(comp_maps[i][(label[i],)] for i in range(ring.t))
        prod_len = 1
        for x in per:
            prod_len *= x
        table.append((label, length, per, prod_len))
    return OrbitProductReport(ring, rows, cols, tuple(table))

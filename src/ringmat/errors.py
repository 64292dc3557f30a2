"""Shared exception types and default enumeration budgets.

Everything in this package is exact, so failures split cleanly into three
kinds: the caller asked for something malformed (UsageError), the requested
computation would enumerate more objects than the configured budget allows
(BudgetExceededError), and an identity that must hold exactly turned out not
to (VerificationError).  The CLI maps these to exit codes 2, 3 and 1.
Object counts of the form h**k are compared with a budget by power_exceeds,
before the work they govern.
"""

from __future__ import annotations

from math import log2

# Full-enumeration cap: censuses and exhaustive sweeps iterate at most this
# many matrices.
DEFAULT_ENUMERATION_BUDGET = 10**7

# Cap on materialized graphs (rank tables, full edge verification).
DEFAULT_VERTEX_BUDGET = 10**4

# Cap on vertex count for exact clique / independent-set search.
DEFAULT_EXACT_SEARCH_BUDGET = 256

# Cap on pairwise distance computations when verifying a code.
DEFAULT_PAIR_BUDGET = 10**5


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """True iff base**exp > cap, decided in log space first so a huge power is never formed."""
    return exp * log2(base) > cap.bit_length() + 1 or base**exp > cap


class RingmatError(Exception):
    """Base class for every error raised by this package."""


class UsageError(RingmatError):
    """Malformed arguments or input files (CLI exit code 2)."""


class ShapeError(UsageError):
    """Operands live over different rings or have incompatible dimensions."""


class NotInvertibleError(UsageError):
    """An inverse was requested for a matrix whose determinant is not a unit."""


class BudgetExceededError(RingmatError):
    """The computation would exceed its enumeration budget (CLI exit code 3)."""


class VerificationError(RingmatError):
    """An exact identity that must hold failed to hold (CLI exit code 1)."""


class NotIntersectingError(VerificationError):
    """A family that must be pairwise low-rank-difference is not."""

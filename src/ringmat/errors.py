"""Shared exception types, the enumeration budgets and the one budget check.

Everything in this package is exact, so failures split cleanly into three
kinds: the caller asked for something malformed (UsageError), the requested
computation would enumerate more objects than the configured budget allows
(BudgetExceededError), and an identity that must hold exactly turned out not
to (VerificationError).  The CLI maps these to exit codes 2, 3 and 1.

Every cost is charged by charge(what, estimate, cap) before the work it
governs, and every budget error reads "<estimate> <what> exceed the budget
<cap>", the estimate shown as N or, for a power never formed, base^exp.  The
caps, each a default that a command's --budget replaces where it has one:

  DEFAULT_ENUMERATION_BUDGET    10**7   matrices of a census; Smith kernel
                                        steps and transform entries
  DEFAULT_VERTEX_BUDGET         10**4   materialized graph vertices
  DEFAULT_EXACT_SEARCH_BUDGET   256     vertices of an exact clique search
  DEFAULT_PAIR_BUDGET           10**5   rank checks, a clique build's h**(n*r) - 1
                                        among them; distance checks
  DEFAULT_FACTOR_SEARCH_BUDGET  2*10**5 candidate (B, C) pairs of oracle rank
  MAX_MINORS                    10**5   minors of oracle omega (fixed)
  DEFAULT_SEARCH_STEP_BUDGET    10**9   branch-and-bound steps (fixed)

graph-stats charges its --transitivity-samples count against its --budget,
and color above the vertex budget its --samples count.
"""

from __future__ import annotations

from math import log2

DEFAULT_ENUMERATION_BUDGET = 10**7
DEFAULT_VERTEX_BUDGET = 10**4
DEFAULT_EXACT_SEARCH_BUDGET = 256
DEFAULT_PAIR_BUDGET = 10**5
DEFAULT_FACTOR_SEARCH_BUDGET = 2 * 10**5  # about 2 s
MAX_MINORS = 10**5  # counted over all primes: about 2 s
DEFAULT_SEARCH_STEP_BUDGET = 10**9


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """True iff base**exp > cap, decided in log space first so a huge power is never formed."""
    return exp * log2(base) > cap.bit_length() + 1 or base**exp > cap


def charge(what: str, estimate: int | tuple[int, int], cap: int) -> None:
    """Raise BudgetExceededError unless estimate <= cap; a power (base, exp) goes through power_exceeds."""
    if isinstance(estimate, tuple):
        if not power_exceeds(*estimate, cap):
            return
        estimate = "%d^%d" % estimate
    elif estimate <= cap:
        return
    raise BudgetExceededError(f"{estimate} {what} exceed the budget {cap}")


class RingmatError(Exception):
    """Base class for every error raised by this package."""


class UsageError(RingmatError):
    """Malformed arguments or input files (CLI exit code 2)."""


class ShapeError(UsageError):
    """Operands live over different rings or have incompatible dimensions."""


class BudgetExceededError(RingmatError):
    """The computation would exceed its enumeration budget (CLI exit code 3)."""


class VerificationError(RingmatError):
    """An exact identity that must hold failed to hold (CLI exit code 1)."""


class NotIntersectingError(VerificationError):
    """A family that must be pairwise low-rank-difference is not."""

"""The one budget check: errors.charge, its boundary, its message, and its monopoly."""

import re
import time
from pathlib import Path

import pytest

import ringmat
from ringmat.errors import BudgetExceededError, charge


@pytest.mark.parametrize("cap", [0, 1, 255, 10**5, 2**64])
def test_an_estimate_equal_to_the_cap_passes_and_one_more_raises(cap):
    charge("things", cap, cap)
    with pytest.raises(BudgetExceededError):
        charge("things", cap + 1, cap)


@pytest.mark.parametrize("base, exp", [(2, 0), (2, 10), (3, 7), (10, 5), (2**32 - 5, 2)])
def test_a_power_passes_exactly_when_it_is_at_most_the_cap(base, exp):
    charge("things", (base, exp), base**exp)
    with pytest.raises(BudgetExceededError):
        charge("things", (base, exp), base**exp - 1)


def test_a_huge_power_is_decided_in_milliseconds():
    start = time.process_time()
    with pytest.raises(BudgetExceededError):
        charge("pairs", (2**64 - 59, 10**12), 10**9)
    assert time.process_time() - start < 0.05


def test_the_message_names_the_estimate_and_the_cap():
    with pytest.raises(BudgetExceededError) as exc:
        charge("rank checks", 100001, 100000)
    assert str(exc.value) == "100001 rank checks exceed the budget 100000"
    with pytest.raises(BudgetExceededError) as exc:
        charge("pairs", (2**64 - 59, 10**12), 10**9)
    assert str(exc.value) == f"{2**64 - 59}^{10**12} pairs exceed the budget {10**9}"


def test_budget_errors_are_constructed_only_by_charge():
    package = Path(ringmat.__file__).parent
    sites = {
        path.name: len(re.findall(r"(?<!class )BudgetExceededError\(", path.read_text(encoding="utf-8")))
        for path in package.glob("*.py")
    }
    assert {name: n for name, n in sites.items() if n} == {"errors.py": 1}

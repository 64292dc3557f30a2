"""Orbit census: label counts, frozen lengths, product law, GL cross-check."""

import time
from collections import Counter
from itertools import product
from math import prod

import pytest

from conftest import first_row_census, orbit_labels, per_matrix_labels, recursive_census, walked_census
from ringmat import orbits

from ringmat.errors import BudgetExceededError, VerificationError
from ringmat.matrix import Mat
from ringmat.orbits import (
    CensusReport,
    census_by_enumeration,
    expected_label_count,
    verify_orbit_product,
)
from ringmat.ring import ring_spec
from ringmat.smith import _pp_exponents, _pp_smith_cached, clear_kernel_caches, invariant_factors

# lengths frozen from exhaustive enumeration, cross-checked by the
# per-component product law and by the total h**(m*n)
Z6_2X2_LENGTHS = {
    ((0, 0), (0, 0)): 288,
    ((0, 0), (0, 1)): 192,
    ((0, 0), (1, 1)): 6,
    ((0, 1), (0, 0)): 432,
    ((0, 1), (0, 1)): 288,
    ((0, 1), (1, 1)): 9,
    ((1, 1), (0, 0)): 48,
    ((1, 1), (0, 1)): 32,
    ((1, 1), (1, 1)): 1,
}


def test_census_z4_1x1():
    rep = census_by_enumeration(ring_spec(4), 1, 1)
    assert dict(rep.entries) == {((0,),): 2, ((1,),): 1, ((2,),): 1}
    assert rep.total == 4
    assert rep.label_count == 3 == expected_label_count(ring_spec(4), 1, 1)


def test_census_z6_2x2_frozen_lengths():
    rep = census_by_enumeration(ring_spec(6), 2, 2)
    assert dict(rep.entries) == Z6_2X2_LENGTHS


def test_identity_orbit_is_the_invertible_matrices():
    """The orbit of I is GL_2, so its length equals the invertible count."""
    ring = ring_spec(6)
    rep = census_by_enumeration(ring, 2, 2)
    gl_count = sum(
        1
        for entries in product(range(6), repeat=4)
        if Mat(ring, 2, 2, entries).is_invertible()
    )
    assert dict(rep.entries)[(0, 0), (0, 0)] == gl_count == 288


def test_census_length_matches_gl_action():
    """Independent cross-check: enumerate one orbit literally as {P @ D @ Q}."""
    ring = ring_spec(4)
    rep = census_by_enumeration(ring, 2, 2)
    gl = [
        Mat(ring, 2, 2, entries)
        for entries in product(range(4), repeat=4)
        if Mat(ring, 2, 2, entries).is_invertible()
    ]
    d = Mat.diagonal(ring, [1, 2])
    orbit = {p @ d @ q for p in gl for q in gl}
    assert invariant_factors(d).omega == ((0, 1),)
    assert len(orbit) == dict(rep.entries)[(0, 1),]
    assert all(invariant_factors(x).omega == ((0, 1),) for x in orbit)


def test_label_count_formula():
    for h, m, n in ((4, 2, 2), (6, 2, 2), (6, 2, 3), (12, 2, 2), (8, 1, 3)):
        ring = ring_spec(h)
        labels = orbit_labels(ring, m, n)
        assert len(labels) == expected_label_count(ring, m, n)
        assert sorted(set(labels)) == labels


def test_census_labels_match_enumeration():
    ring = ring_spec(12)
    rep = census_by_enumeration(ring, 2, 2)
    assert [lab for lab, _ in rep.entries] == orbit_labels(ring, 2, 2)


def test_product_law():
    for h in (6, 12):
        rep = verify_orbit_product(ring_spec(h), 2, 2)
        assert rep.ok
        assert rep.first_violation() is None


def test_census_budget_guard():
    with pytest.raises(BudgetExceededError):
        census_by_enumeration(ring_spec(12), 3, 3, budget=1000)


def test_census_budget_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(orbits, "exponent_counts", refuse)  # tables of the product check
    monkeypatch.setattr(orbits, "_pp_counts", refuse)  # the per-prime closed form
    orbits._census.cache_clear()
    for h in (4, 12):
        with pytest.raises(BudgetExceededError):
            census_by_enumeration(ring_spec(h), 3, 3, budget=1000)
        with pytest.raises(AssertionError):  # the guard is live within the budget
            census_by_enumeration(ring_spec(h), 1, 1)


@pytest.mark.parametrize("h, m, n", [
    (h, m, n) for h in (6, 12, 30) for m, n in ((1, 1), (2, 2), (2, 3), (3, 2))
    if h ** (m * n) <= 5 * 10**4
] + [  # prime powers: s = 1..4, transposed (m > n), m = 1 and m = n = 3
    (h, m, n) for h in (2, 3, 4, 8, 9, 16, 27) for m, n in ((1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3))
    if h ** (m * n) <= 5 * 10**4
] + [(2, 3, 4), (2, 4, 3), (16, 2, 2), (4, 3, 3)])
def test_census_matches_per_matrix_oracle(h, m, n):
    ring = ring_spec(h)
    rep = census_by_enumeration(ring, m, n)
    assert dict(rep.entries) == Counter(per_matrix_labels(ring, m, n))
    assert dict(rep.entries) == (first_row_census if ring.t == 1 else walked_census)(ring, m, n)


@pytest.mark.parametrize("h, m, n", [(27, 2, 2), (8, 2, 3), (9, 3, 2), (2, 4, 4), (32, 1, 4), (49, 2, 2), (125, 1, 3)])
def test_census_matches_the_first_row_oracle_past_the_per_matrix_range(h, m, n):
    ring = ring_spec(h)
    assert dict(census_by_enumeration(ring, m, n).entries) == first_row_census(ring, m, n)


@pytest.mark.parametrize("h, m, n", [(30, 2, 2), (20, 2, 2)])
def test_composite_census_matches_the_walk_past_the_per_matrix_range(h, m, n):
    ring = ring_spec(h)
    assert dict(census_by_enumeration(ring, m, n).entries) == walked_census(ring, m, n)


def _recursive_lengths(ring, m, n):
    """Orbit lengths over Z_h from the kernel-based recursion, multiplied over the CRT split."""
    comps = [recursive_census(p, s, *sorted((m, n))) for p, s in ring.primes]
    return {label: prod(c[alpha] for c, alpha in zip(comps, label)) for label in product(*comps)}


@pytest.mark.parametrize("h, m, n", [(4, 3, 4), (9, 3, 3), (4, 4, 3), (32, 2, 2), (25, 2, 3), (72, 2, 3)])
def test_closed_form_matches_the_recursion(h, m, n):
    ring = ring_spec(h)
    assert dict(census_by_enumeration(ring, m, n, budget=h ** (m * n)).entries) == _recursive_lengths(ring, m, n)


def _refuse_kernel_and_tables(monkeypatch):
    from ringmat import smith

    def refuse(*args):
        raise AssertionError("the census ran the kernel or built a component table")

    assert not hasattr(orbits, "_pp_smith")  # else patching smith would not reach the census
    monkeypatch.setattr(smith, "_pp_smith", refuse)
    monkeypatch.setattr(orbits, "exponent_counts", refuse)
    orbits._census.cache_clear()


def test_prime_power_census_work(monkeypatch):
    """A prime-power census runs no kernel: every length is in closed form, tall shapes by the transpose."""
    want = {(16, 2, 2): _recursive_lengths(ring_spec(16), 2, 2), (4, 3, 2): _recursive_lengths(ring_spec(4), 3, 2)}
    _refuse_kernel_and_tables(monkeypatch)
    for (h, m, n), lengths in want.items():
        assert dict(census_by_enumeration(ring_spec(h), m, n).entries) == lengths
    assert census_by_enumeration(ring_spec(4), 3, 2).entries == census_by_enumeration(ring_spec(4), 2, 3).entries


def test_composite_census_builds_no_table(monkeypatch):
    """Without the product check a composite census multiplies the closed-form per-prime lengths:
    no component table is built and no kernel runs."""
    want = {(36, 2, 2): _recursive_lengths(ring_spec(36), 2, 2), (12, 3, 2): _recursive_lengths(ring_spec(12), 3, 2)}
    _refuse_kernel_and_tables(monkeypatch)
    for (h, m, n), lengths in want.items():
        rep = census_by_enumeration(ring_spec(h), m, n)
        assert dict(rep.entries) == lengths
        assert rep.label_count == expected_label_count(ring_spec(h), m, n)
    assert census_by_enumeration(ring_spec(12), 3, 2).entries == census_by_enumeration(ring_spec(12), 2, 3).entries


def test_census_answers_far_past_any_walk():
    """Z_12 20 x 20: 12^400 matrices, 4,851 labels, in closed form."""
    t0 = time.perf_counter()
    rep = census_by_enumeration(ring_spec(12), 20, 20, budget=12**400)
    assert time.perf_counter() - t0 < 1
    assert rep.label_count == expected_label_count(ring_spec(12), 20, 20) == 4851


def test_census_leaves_kernel_caches_alone():
    sizes = [c.cache_info().currsize for c in (_pp_exponents, _pp_smith_cached)]
    for h in (9, 12):
        census_by_enumeration(ring_spec(h), 2, 2)
        verify_orbit_product(ring_spec(h), 2, 2)
    assert [c.cache_info().currsize for c in (_pp_exponents, _pp_smith_cached)] == sizes


def test_product_report_carries_its_census(monkeypatch):
    calls = []
    real = orbits.census_by_enumeration
    monkeypatch.setattr(orbits, "census_by_enumeration", lambda *a: calls.append(a[0].h) or real(*a))
    for h in (4, 12):
        calls.clear()
        rep = verify_orbit_product(ring_spec(h), 2, 2)
        assert calls == [h]  # one census, of Z_h: the component lengths come from the tables
        assert rep.census == real(ring_spec(h), 2, 2)
        assert rep.ok


def test_census_report_validation():
    ring = ring_spec(4)
    with pytest.raises(VerificationError):
        CensusReport(ring, 1, 1, ((((0,),), 2), (((1,),), 1), (((2,),), 2)))
    with pytest.raises(VerificationError):
        CensusReport(ring, 1, 1, ((((1,),), 3), (((0,),), 1)))


def test_composite_census_walks_once_per_kept_shape(monkeypatch, capsys):
    """No census walks a matrix.  The product check counts the rows of each component table,
    built once and kept; the census itself is kept for the last shape, so the check reads it again."""
    from ringmat import cli, smith

    def refuse(*args):
        raise AssertionError("the census walked the matrices")

    builds, fields = Counter(), Counter()
    real, real_field = smith._pp_smith, smith._field_table
    monkeypatch.setattr(smith, "component_walk", refuse)
    monkeypatch.setattr(smith, "_pp_smith", lambda *a: builds.update([a[2:5]]) or real(*a))  # table builds only
    monkeypatch.setattr(smith, "_field_table", lambda *a: fields.update([a]) or real_field(*a))
    assert not hasattr(orbits, "component_walk")
    clear_kernel_caches()
    orbits._census.cache_clear()
    try:
        first = census_by_enumeration(ring_spec(12), 2, 2)
        assert builds == fields == {}  # the census reads no table
        rep = verify_orbit_product(ring_spec(12), 2, 2)
        assert rep.census is first and rep.ok
        orbits._census.cache_clear()
        assert verify_orbit_product(ring_spec(12), 2, 2) == rep  # checked again against the kept tables
        assert builds == {(4, 2, 2): 8}  # [2 e_1; C], C[:, 0] < 2; the Z_3 table is a field build: no kernel call
        assert fields == {(3, 2, 2): 1}
        # the budget is charged before the kept report is looked up
        kept = orbits._census.cache_info()
        with pytest.raises(BudgetExceededError):
            census_by_enumeration(ring_spec(12), 2, 2, budget=12**4 - 1)
        assert cli.main(["orbits", "--h", "12", "--m", "2", "--n", "2", "--budget", "100"]) == 3
        assert capsys.readouterr().err == "budget exceeded: 12^4 matrices exceed the budget 100\n"
        assert orbits._census.cache_info() == kept
    finally:
        clear_kernel_caches()


def test_product_check_past_the_keep_limit_counts_without_a_table(monkeypatch):
    """A component table too large to keep is counted as it is labelled, never materialized:
    the report is the one the kept tables give, by row spans over Z_3 and the kernel over Z_4.
    smith.exponent_counts makes that choice; orbits only asks it for the counts."""
    from ringmat import smith

    real = smith.exponent_table

    def refuse_shape(m, n):
        def table(p, s, q, rows, cols):  # the smaller tables of the first-row route are still read
            if (rows, cols) == (m, n):
                raise AssertionError("a table past the keep limit was materialized")
            return real(p, s, q, rows, cols)
        return table

    assert not hasattr(orbits, "KERNEL_CACHE_SIZE") and not hasattr(orbits, "exponent_table")
    clear_kernel_caches()
    orbits._census.cache_clear()
    try:
        kept = verify_orbit_product(ring_spec(12), 2, 2)
        with monkeypatch.context() as patch:
            patch.setattr(smith, "exponent_table", refuse_shape(2, 2))
            patch.setattr(smith, "KERNEL_CACHE_SIZE", 2)  # every component table is past the limit
            assert verify_orbit_product(ring_spec(12), 2, 2) == kept
        assert kept.ok
        for h, m, n in ((3, 2, 6), (2, 3, 6)):  # field tables of 3^12 and 2^18 rows
            monkeypatch.setattr(smith, "exponent_table", refuse_shape(m, n))
            assert verify_orbit_product(ring_spec(h), m, n).ok
    finally:
        clear_kernel_caches()
        orbits._census.cache_clear()


def test_a_flipped_table_row_fails_the_product_check(monkeypatch, capsys):
    """One wrong row in a component table: its per-prime lengths no longer multiply to the
    census over Z_h, so the product check fails and orbits --verify-product exits 1."""
    from ringmat import cli, smith

    real = smith.exponent_table

    def flipped(p, s, q, m, n):
        table = real(p, s, q, m, n)
        # base-4 id 1 is [[0, 0], [0, 1]], of label (0, 2); say (0, 0) instead
        return table[:1] + ((0, 0),) + table[2:] if (q, m, n) == (4, 2, 2) else table

    monkeypatch.setattr(smith, "exponent_table", flipped)
    rep = verify_orbit_product(ring_spec(12), 2, 2)
    assert not rep.ok
    assert rep.first_violation() == (((0, 0), (0, 0)), 96 * 48, (97, 48), 97 * 48)
    argv = ["orbits", "--h", "12", "--m", "2", "--n", "2", "--verify-product"]
    assert cli.main(argv) == 1
    out, _ = capsys.readouterr()
    assert '"product_ok": false' in out
    assert cli.main([*argv, "--format", "csv"]) == 1
    assert capsys.readouterr() == ("", "verification failed: label 0 0|0 0 has length 4608,"
                                       " not the product 4656 of its component lengths [97, 48]\n")


def test_a_flipped_table_row_fails_the_prime_power_product_check(monkeypatch, capsys):
    """Over a prime power the product check compares the closed form with the exhaustive table:
    one wrong row of the Z_8 table and orbits --verify-product exits 1."""
    from ringmat import cli, smith

    real = smith.exponent_table

    def flipped(p, s, q, m, n):
        table = real(p, s, q, m, n)
        # base-8 id 1 is [[0, 0], [0, 1]], of label (0, 3); say (0, 0) instead
        return table[:1] + ((0, 0),) + table[2:] if (q, m, n) == (8, 2, 2) else table

    monkeypatch.setattr(smith, "exponent_table", flipped)
    rep = verify_orbit_product(ring_spec(8), 2, 2)
    assert rep.first_violation() == (((0, 0),), 1536, (1537,), 1537)
    argv = ["orbits", "--h", "8", "--m", "2", "--n", "2", "--verify-product"]
    assert cli.main(argv) == 1
    assert '"product_ok": false' in capsys.readouterr().out

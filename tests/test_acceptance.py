"""Acceptance gate: the ten numbered verification criteria.

Each test runs one check from the built-in suite at the full ("desk")
level, prints its PASS/FAIL line, and asserts the result; the checks with
runtime targets also assert their wall-clock limits.
"""

import pytest

from ringmat.selftest import run_check

TIME_LIMITS = {1: 30.0, 2: 60.0, 5: 120.0}


def _run(capsys, number: int) -> None:
    res = run_check(number)
    with capsys.disabled():
        print(flush=True)
        print(res.line, flush=True)
    assert res.passed, res.line
    limit = TIME_LIMITS.get(number)
    if limit is not None:
        assert res.seconds < limit, (
            f"check {number} took {res.seconds:.2f}s, limit {limit:.0f}s"
        )


def test_criterion_01_diagonalization_soundness(capsys):
    _run(capsys, 1)


def test_criterion_02_orbit_census_counts(capsys):
    _run(capsys, 2)


def test_criterion_03_orbit_product_law(capsys):
    _run(capsys, 3)


def test_criterion_04_rank_route_agreement(capsys):
    _run(capsys, 4)


def test_criterion_04_fails_on_a_flipped_kernel_exponent(monkeypatch):
    """The Z_4 component of diag(6, 6) over Z_12 has exponents (1, 1), rank 2; a kernel that says
    (1, 2) gives rank 1, which the outer products b c^T, built with no kernel, refute."""
    from ringmat import smith

    real = smith._pp_smith

    def flipped(p, s, q, m, n, entries, transforms):
        out = real(p, s, q, m, n, entries, transforms)
        return ((1, 2),) + out[1:] if (q, entries) == (4, (2, 0, 0, 2)) else out

    monkeypatch.setattr(smith, "_pp_smith", flipped)
    smith.clear_kernel_caches()
    try:
        assert not run_check(4).passed
    finally:
        smith.clear_kernel_caches()


def test_criterion_05_graph_parameters(capsys):
    _run(capsys, 5)


def test_criterion_06_rank_distance_codes(capsys):
    _run(capsys, 6)


def test_criterion_07_coloring_and_cover(capsys):
    _run(capsys, 7)


def test_criterion_08_clique_classification(capsys):
    _run(capsys, 8)


def test_criterion_09_extremal_bound_verification(capsys):
    _run(capsys, 9)


def test_criterion_10_connectivity_and_transitivity(capsys):
    _run(capsys, 10)

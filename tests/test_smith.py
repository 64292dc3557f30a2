"""Diagonalization: exactness, canonical diagonal, invariance, rank routes."""

import math
import pickle
import random
from bisect import bisect_left
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import (coprojection_rank, kernel_table, matrices, reference_pp_smith, reference_snf, transpose,
                      two_loop_omega_check, zeros)
from ringmat import cliques, graph, oracle, orbits, smith
from ringmat.cliques import build_canonical_clique, classify_max_clique, random_clique_form
from ringmat.graph import GraphSpec, build_graph
from ringmat.errors import BudgetExceededError, UsageError, VerificationError
from ringmat.matrix import Mat, random_invertible, random_matrix
from ringmat.orbits import verify_orbit_product
from ringmat.ring import ring_spec
from ringmat.smith import (
    KERNEL_CACHE_SIZE,
    _pp_exponents,
    _pp_smith,
    _pp_smith_cached,
    clear_kernel_caches,
    exponent_counts,
    exponent_table,
    InvariantFactorArray,
    inner_rank,
    invariant_factors,
    rank_via_projections,
    snf,
    verify_smith_form,
)


def test_frozen_examples():
    r4 = ring_spec(4)
    f = snf(Mat.from_rows(r4, [[2, 1], [2, 2]]))
    assert f.omega.omega == ((0, 1),)
    assert f.D == Mat.diagonal(r4, [1, 2])

    r6 = ring_spec(6)
    f = snf(Mat.from_rows(r6, [[2, 0], [0, 3]]))
    assert f.omega.omega == ((0, 1), (0, 1))
    assert f.D == Mat.diagonal(r6, [1, 0])

    r12 = ring_spec(12)
    zero = zeros(r12, 2, 3)
    fz = snf(zero)
    assert fz.omega.omega == ((2, 2), (1, 1))
    assert fz.inner_rank == 0
    ident = Mat.identity(r12, 3)
    fi = snf(ident)
    assert fi.omega.omega == ((0, 0, 0), (0, 0, 0))
    assert fi.inner_rank == 3


def test_exhaustive_small_rings():
    for h, m, n in ((4, 2, 2), (6, 2, 2)):
        ring = ring_spec(h)
        for entries in product(range(h), repeat=m * n):
            a = Mat(ring, m, n, entries)
            f = snf(a)
            verify_smith_form(a, f)
            assert f.omega.omega == oracle.omega_via_minors(a)


def test_random_rectangular_and_tall(rng):
    ring = ring_spec(12)
    for shape in ((2, 3), (3, 2), (1, 3), (3, 1), (3, 3)):
        for _ in range(200):
            a = random_matrix(ring, *shape, rng)
            f = snf(a)
            verify_smith_form(a, f)
            assert f.omega.omega == oracle.omega_via_minors(a)


def test_omega_is_equivalence_invariant(rng):
    for h in (6, 12):
        ring = ring_spec(h)
        for _ in range(200):
            a = random_matrix(ring, 2, 3, rng)
            p = random_invertible(ring, 2, rng)
            q = random_invertible(ring, 3, rng)
            assert invariant_factors(p @ a @ q).omega == invariant_factors(a).omega


def test_transpose_has_same_omega(rng):
    ring = ring_spec(12)
    for _ in range(200):
        a = random_matrix(ring, 2, 3, rng)
        assert invariant_factors(a).omega == invariant_factors(transpose(a)).omega


def test_rank_bounds_and_zero(rng):
    ring = ring_spec(12)
    assert inner_rank(zeros(ring, 2, 3)) == 0
    assert inner_rank(Mat.identity(ring, 3)) == 3
    for _ in range(300):
        a = random_matrix(ring, 2, 3, rng)
        r = inner_rank(a)
        assert 0 <= r <= 2
        assert (r == 0) == a.is_zero()


def test_rank_of_products_cannot_grow(rng):
    ring = ring_spec(6)
    for _ in range(200):
        a = random_matrix(ring, 2, 2, rng)
        b = random_matrix(ring, 2, 2, rng)
        assert inner_rank(a @ b) <= min(inner_rank(a), inner_rank(b))


def test_rank_via_projections_agrees(rng):
    for h in (4, 6, 12):
        ring = ring_spec(h)
        for _ in range(300):
            a = random_matrix(ring, 2, 2, rng)
            rp = rank_via_projections(a)
            assert rp.via_pi == rp.via_theta == inner_rank(a)


def test_invariant_factor_array_validation():
    ring = ring_spec(12)
    with pytest.raises(VerificationError):
        InvariantFactorArray(ring, ((1, 0), (0, 0)))  # not nondecreasing
    with pytest.raises(VerificationError):
        InvariantFactorArray(ring, ((0, 3), (0, 0)))  # exceeds s_i
    with pytest.raises(UsageError):
        InvariantFactorArray(ring, ((0, 0),))  # one row per prime
    arr = InvariantFactorArray(ring, ((0, 2), (1, 1)))
    assert len(arr.omega[0]) == 2
    assert arr.inner_rank == 1
    assert arr.diagonal_values() == (3, 0)


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return None


@given(st.data())
def test_omega_check_matches_the_two_loop_validator(data):
    ring = ring_spec(data.draw(st.sampled_from((2, 8, 12, 360, 2**63))))
    width = data.draw(st.integers(0, 5))
    exponents = [st.integers(-1, s + 1) | st.sampled_from((math.nan, math.inf, -math.inf, 0.5, -0.0))
                 for s in ring.saturated]
    omega = []
    for entries in exponents:
        row = data.draw(st.lists(entries, min_size=width, max_size=width))
        if data.draw(st.booleans()):
            row.sort()
        omega.append(tuple(row) if data.draw(st.booleans()) else row)
    assert _outcome(InvariantFactorArray, ring, tuple(omega)) == _outcome(two_loop_omega_check, ring, omega)


def test_omega_exponents_must_be_ints():
    """A row with an exponent that is no int is refused, and named; bools are ints here."""
    with pytest.raises(VerificationError, match=r"^omega row \(0, 0\.5\) has an exponent that is not an int$"):
        InvariantFactorArray(ring_spec(8), ((0, 0.5),))
    with pytest.raises(VerificationError, match=r"^omega row \[0, 1\.0\] has"):
        InvariantFactorArray(ring_spec(12), ((0, 1), [0, 1.0]))
    assert InvariantFactorArray(ring_spec(8), ((False, True),)).inner_rank == 2


def test_the_generator_memo_is_no_field():
    """generators() is computed once per array and kept in a slot that ==, hash, repr and pickling ignore."""
    ring, omega = ring_spec(360), ((0, 1, 3), (0, 0, 2), (0, 1, 1))
    x, y = InvariantFactorArray(ring, omega), InvariantFactorArray(ring, omega)
    assert x.generators() == (1, 10, 360) and x.generators() is x.generators()
    assert x.diagonal_values() == (1, 10, 0)
    assert (x == y, hash(x) == hash(y), repr(x) == repr(y)) == (True, True, True)
    assert repr(x) == f"InvariantFactorArray(ring={ring!r}, omega={omega!r})"
    z = pickle.loads(pickle.dumps(x))
    assert (z == x, hash(z) == hash(x), repr(z) == repr(x), z._generators) == (True, True, True, None)
    with pytest.raises(AttributeError):
        x._generators = (1, 1, 1)


@pytest.mark.parametrize("row", [(0, math.nan, 1), [0, math.nan, 3], (math.nan,), (1, 0), [2, 1], (0, 4), (-1, 0), ()])
def test_omega_check_matches_the_two_loop_validator_on_edge_rows(row):
    ring = ring_spec(8)  # s = 3
    assert _outcome(InvariantFactorArray, ring, (row,)) == _outcome(two_loop_omega_check, ring, (row,))


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_bisected_rank_is_the_counted_rank(q, m, n):
    (p, s), = ring_spec(q).primes
    for row in set(exponent_table(p, s, q, m, n)):
        assert bisect_left(row, s) == sum(x < s for x in row)


def test_verify_smith_form_detects_tampering():
    ring = ring_spec(6)
    a = Mat.from_rows(ring, [[1, 2], [3, 4]])
    f = snf(a)
    bad = type(f)(f.S, f.D, f.T, InvariantFactorArray(ring, ((0, 1), (0, 1))))
    with pytest.raises(VerificationError):
        verify_smith_form(zeros(ring, 2, 2), f)
    if f.omega.omega != bad.omega.omega:
        with pytest.raises(VerificationError):
            verify_smith_form(a, bad)


def test_verify_smith_form_detects_any_corrupted_entry():
    # every diagonal entry is nonzero and the shapes are square, so each
    # entry of S, D and T reaches the product
    for h, rows in ((12, [[2, 1], [0, 3]]), (8, [[1, 2, 0], [0, 2, 4], [0, 0, 4]])):
        ring = ring_spec(h)
        a = Mat.from_rows(ring, rows)
        f = snf(a)
        verify_smith_form(a, f)
        assert all(f.omega.diagonal_values())
        for slot in ("S", "D", "T"):
            mat = getattr(f, slot)
            for idx in range(len(mat.entries)):
                ents = list(mat.entries)
                ents[idx] = (ents[idx] + 1) % h
                bad = f._replace(**{slot: Mat(ring, mat.rows, mat.cols, ents)})
                with pytest.raises(VerificationError):
                    verify_smith_form(a, bad)
        with pytest.raises(VerificationError):
            verify_smith_form(a, type(f)(Mat.identity(ring, a.rows + 1), f.D, f.T, f.omega))
        zero = zeros(ring, a.rows, a.rows)
        f0 = snf(zero)
        for slot in ("S", "T"):  # the product still reproduces zero; only invertibility fails
            with pytest.raises(VerificationError, match=f"{slot} is not invertible"):
                verify_smith_form(zero, f0._replace(**{slot: zero}))


def _flat_matmul(x, y, rows, inner, cols, q):
    return tuple(sum(x[i * inner + t] * y[t * cols + j] for t in range(inner)) % q
                 for i in range(rows) for j in range(cols))


def _assert_kernel_matches_reference(p, s, q, m, n, entries):
    alpha, ui, vi = _pp_smith(p, s, q, m, n, entries, True)
    ref_alpha, _, ref_ui, _, ref_vi = reference_pp_smith(p, s, q, m, n, entries, True)
    assert (alpha, ui, vi) == (ref_alpha, ref_ui, ref_vi)
    assert _pp_smith(p, s, q, m, n, entries, False) == (alpha, None, None)
    d = [0] * (m * n)
    for c, x in enumerate(alpha):
        d[c * n + c] = p**x % q
    assert _flat_matmul(_flat_matmul(ui, d, m, m, n, q), vi, m, n, n, q) == tuple(entries)


def test_kernel_matches_four_transform_reference():
    rng = random.Random(20)
    for p, s in product((2, 3, 5, 7), range(1, 9)):
        q = p**s
        for m, n in product(range(1, 7), repeat=2):
            _assert_kernel_matches_reference(p, s, q, m, n, (0,) * (m * n))
            for _ in range(2):
                # unit times p**v, so most pivots are not units and some entries vanish
                ents = tuple(rng.randrange(1, q) * p ** rng.randrange(s + 1) % q for _ in range(m * n))
                _assert_kernel_matches_reference(p, s, q, m, n, ents)
    # wide moduli with entries divisible by a high power of p: gcd(x, q) is a large p**v, and many tie
    for p, s in ((2, 63), (3, 40)):
        q = p**s
        for m, n in product(range(1, 7), repeat=2):
            for _ in range(3):
                ents = tuple(rng.randrange(1, q) * p ** rng.randrange(s - 4, s + 1) % q for _ in range(m * n))
                _assert_kernel_matches_reference(p, s, q, m, n, ents)
            _assert_kernel_matches_reference(p, s, q, m, n, (p ** (s - 1),) * (m * n))


@pytest.mark.parametrize("h, m, n", [(6, 2, 2), (12, 2, 2), (6, 3, 3)])
def test_kernel_matches_reference_on_clique_stacks(monkeypatch, h, m, n):
    calls = []
    real = cliques._pp_smith_cached
    monkeypatch.setattr(cliques, "_pp_smith_cached", lambda *args: calls.append(args) or real(*args))
    ring = ring_spec(h)
    spec = GraphSpec(ring, m, n, 1)
    alphas = [(0, 1)] if m == 3 else list(product(*[(0, s) for _, s in ring.primes]))
    for alpha in alphas:
        form = random_clique_form(spec, alpha, 7)
        assert classify_max_clique(spec, build_canonical_clique(form)).alpha == alpha
    assert calls and all(args[3] * args[4] > m * n for args in calls)  # stacks, not single members
    for args in calls:
        _assert_kernel_matches_reference(*args[:6])


def test_clear_kernel_caches_runs():
    snf(Mat.from_rows(ring_spec(6), [[1, 2], [3, 4]]))
    clear_kernel_caches()
    f = snf(Mat.from_rows(ring_spec(6), [[1, 2], [3, 4]]))
    verify_smith_form(Mat.from_rows(ring_spec(6), [[1, 2], [3, 4]]), f)


def test_kernel_caches_are_bounded():
    p = 1_000_003  # a prime above the bound, so every 1x1 entry below is a distinct key
    clear_kernel_caches()
    try:
        for v in range(KERNEL_CACHE_SIZE + 100):
            _pp_exponents(p, 1, p, 1, 1, (v,))
            _pp_smith_cached(p, 1, p, 1, 1, (v,), 1)
        for cache in (_pp_exponents, _pp_smith_cached):
            info = cache.cache_info()
            assert info.maxsize == KERNEL_CACHE_SIZE
            assert info.misses == KERNEL_CACHE_SIZE + 100
            assert info.currsize <= KERNEL_CACHE_SIZE
    finally:
        clear_kernel_caches()


def _refuse(*args):
    raise AssertionError("the kernel ran or a projection was looked up")


@pytest.mark.parametrize("h", (360, 30030))
@pytest.mark.parametrize("shape", ((2, 5), (4, 4), (5, 2)))
def test_snf_records_the_exponent_rows_it_found(monkeypatch, h, shape):
    """snf(a) leaves its exponent rows on a: the exponent routes on a then run no kernel and look
    up no projection, and they answer as a cold, transform-free run on a fresh equal Mat does.
    The rows are no field: ==, hash, repr and pickle do not tell a from the fresh Mat."""
    ring = ring_spec(h)
    a = random_matrix(ring, *shape, random.Random(h + shape[0]))
    fresh = Mat(ring, *shape, a.entries)
    calls = []
    real = smith._pp_smith
    monkeypatch.setattr(smith, "_pp_smith", lambda *args: calls.append(args) or real(*args))
    clear_kernel_caches()
    try:
        cached = _pp_smith_cached.cache_info()
        f = snf(a)
        assert _pp_smith_cached.cache_info() == cached  # transform runs bypass the kernel cache
        assert len(calls) == ring.t and all(args[-1] for args in calls)  # one transform run per prime, tall or not
        assert _pp_exponents.cache_info().currsize == 0  # the rows are on a, not in the projection cache
        with monkeypatch.context() as patch:
            for name in ("_pp_smith", "_pp_smith_cached", "_pp_exponents", "charge"):  # carried rows are not charged
                patch.setattr(smith, name, _refuse)
            warm = (inner_rank(a), invariant_factors(a).omega, rank_via_projections(a))
        assert warm == (f.inner_rank, f.omega.omega, (f.inner_rank, f.inner_rank))
        calls.clear()
        cold = (inner_rank(fresh), invariant_factors(fresh).omega, rank_via_projections(fresh))
        assert cold == warm
        assert len(calls) == ring.t and not any(args[-1] for args in calls)  # one cold, transform-free run
        assert _pp_exponents.cache_info().misses == ring.t
        assert (a == fresh, hash(a) == hash(fresh), repr(a) == repr(fresh)) == (True, True, True)
        for x in (a, fresh):
            y = pickle.loads(pickle.dumps(x))
            assert (y == x, hash(y) == hash(x), repr(y) == repr(x)) == (True, True, True)
            assert invariant_factors(y).omega == f.omega.omega
    finally:
        clear_kernel_caches()


# The moduli and shapes of the benchmark's Smith stream: prime powers up to 2^63 and
# 3^40, products of many small primes, mixed prime powers, and tall shapes.
STREAM_MODULI = (2**5, 3**4, 7**3, 2**63, 3**40, 360, 30030, 510510, 2**8 * 3**5 * 7**3)
STREAM_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 4), (3, 5), (5, 3), (4, 6), (6, 4), (6, 8), (8, 6))


def _stream_entries(rng, ring, m, n, mode):
    """Uniform entries (mode 0), a product B @ C of inner width min(m, n) - 1 (mode 1),
    or entries carrying random prime-power factors, so that pivots are non-units (mode 2)."""
    h = ring.h
    if mode == 0:
        return tuple(rng.randrange(h) for _ in range(m * n))
    if mode == 1:
        k = max(1, min(m, n) - 1)
        b = [rng.randrange(h) for _ in range(m * k)]
        c = [rng.randrange(h) for _ in range(k * n)]
        return tuple(sum(b[i * k + x] * c[x * n + j] for x in range(k)) % h for i in range(m) for j in range(n))
    return tuple(rng.randrange(h) * p ** rng.randrange(s + 1) % h
                 for p, s in (rng.choice(ring.primes) for _ in range(m * n)))


@pytest.mark.parametrize("h", STREAM_MODULI)
def test_snf_and_rank_routes_match_the_reference(h):
    """The flat snf gives exactly the S, D, T and omega of the transpose recursion through the
    cached kernel, and the rank routes read off the component rows, carried from snf or not, equal
    the coprojection route."""
    ring, rng = ring_spec(h), random.Random(h)
    clear_kernel_caches()
    try:
        for (m, n), mode, _ in product(STREAM_SHAPES, range(3), range(2)):
            a = Mat(ring, m, n, _stream_entries(rng, ring, m, n, mode))
            fresh = Mat(ring, m, n, a.entries)
            f, ref = snf(a), reference_snf(a)
            assert (f.S.entries, f.D.entries, f.T.entries, f.omega.omega) == \
                (ref.S.entries, ref.D.entries, ref.T.entries, ref.omega.omega)
            assert (f.S.rows, f.T.rows, f.D.rows, f.D.cols) == (m, n, m, n)
            for x in (fresh, a):
                assert rank_via_projections(x) == (inner_rank(x), coprojection_rank(x)) == (ref.inner_rank,) * 2
    finally:
        clear_kernel_caches()


def test_a_fresh_matrix_is_charged_before_the_kernel(monkeypatch):
    """Over budget, the rank of a matrix that carries no rows fails at the charge, before any kernel run."""
    monkeypatch.setattr(smith, "_pp_exponents", _refuse)
    a = zeros(ring_spec(6), 200, 200)  # 2 * 200**3 kernel steps
    for route in (inner_rank, invariant_factors, rank_via_projections):
        with pytest.raises(BudgetExceededError, match="kernel steps"):
            route(a)


def test_each_component_table_is_built_once(monkeypatch):
    """The product check over Z_12 and the rank tables of Z_12 and Z_4 label each (q, m, n) shape once:
    the Z_4 table by 8 kernel calls, on [2 e_1; C] with C[:, 0] < 2, the Z_3 table by one field build
    and no kernel call."""
    calls, fields = Counter(), Counter()
    real, real_field = smith._pp_smith, smith._field_table
    monkeypatch.setattr(smith, "_pp_smith", lambda *args: calls.update([args[2:5]]) or real(*args))
    monkeypatch.setattr(smith, "_field_table", lambda *args: fields.update([args]) or real_field(*args))
    clear_kernel_caches()
    orbits._census.cache_clear()
    graph._rank_table.cache_clear()
    try:
        verify_orbit_product(ring_spec(12), 2, 2)
        build_graph(GraphSpec(ring_spec(12), 2, 2, 1), vertex_budget=12**4)
        build_graph(GraphSpec(ring_spec(4), 2, 2, 1))
        assert calls == {(4, 2, 2): 8}
        assert fields == {(3, 2, 2): 1}
    finally:
        clear_kernel_caches()


FIELD_SHAPES = [(p, m, n) for p in (2, 3, 5, 7, 11) for m, n in product(range(1, 5), repeat=2) if p ** (m * n) <= 2**16]


@pytest.mark.parametrize("p, m, n", FIELD_SHAPES)
def test_field_table_matches_the_kernel(monkeypatch, p, m, n):
    """Over Z_p the table by row-span extension is the per-matrix kernel table, runs no kernel,
    and holds at most min(m, n) + 1 row objects."""
    expected = kernel_table(p, 1, m, n)
    real = smith._pp_smith

    def refuse(p, s, *args):
        if s == 1:
            raise AssertionError("a field table ran the kernel")
        return real(p, s, *args)

    monkeypatch.setattr(smith, "_pp_smith", refuse)
    clear_kernel_caches()
    try:
        table = exponent_table(p, 1, p, m, n)
        assert table == expected
        assert len({id(alpha) for alpha in table}) <= min(m, n) + 1
    finally:
        clear_kernel_caches()


@pytest.mark.parametrize("p, s, m, n", [(2, 1, 1, 3), (2, 1, 3, 2), (3, 1, 2, 3), (2, 1, 2, 4), (5, 1, 2, 2),
                                        (2, 2, 2, 2), (2, 2, 1, 4), (3, 2, 1, 3), (2, 3, 2, 2)])
def test_exponent_counts_match_the_table(monkeypatch, p, s, m, n):
    """Counted as the rows are labelled (by row spans over a field, per first row otherwise),
    the row counts are those of the materialized table and of the per-matrix kernel.  Every shape
    here fits the keep limit, so the limit is set to 0 while counting: the counting route runs."""
    q = p**s
    clear_kernel_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(smith, "KERNEL_CACHE_SIZE", 0)
            counts = exponent_counts(p, s, q, m, n)
            assert not smith._tables  # counted, no table kept
        assert counts == Counter(exponent_table(p, s, q, m, n)) == Counter(kernel_table(p, s, m, n))
        assert all(counts.values()) and sum(counts.values()) == q ** (m * n)
    finally:
        clear_kernel_caches()


PP_SHAPES = [(2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 2), (2, 2, 3, 3), (2, 3, 2, 2), (2, 3, 2, 3), (2, 3, 3, 2),
             (3, 2, 2, 2), (2, 4, 2, 2), (2, 2, 1, 3), (2, 3, 3, 1)]


@pytest.mark.parametrize("p, s, m, n", PP_SHAPES)
def test_prime_power_table_matches_the_kernel(monkeypatch, p, s, m, n):
    """Over Z_{p^s}, s > 1, the table by first rows is the per-matrix kernel table.  A cold build runs
    the kernel only on [p^v e_1; C] with 0 < v < s and C[:, 0] < p^v: sum_v p^(v(m-1)) q^((m-1)(n-1))
    calls for the m x n shape (none for m = 1 or n = 1), the smaller shapes it reads counted apart."""
    q, expected = p**s, kernel_table(p, s, m, n)
    calls, real = Counter(), smith._pp_smith

    def record(*args):
        width, entries = args[4], args[5]
        v = next(v for v in range(1, s) if entries[:width] == (p**v,) + (0,) * (width - 1))
        assert all(x < p**v for x in entries[width::width]) and not args[6]
        calls.update([args[3:5]])
        return real(*args)

    monkeypatch.setattr(smith, "_pp_smith", record)
    clear_kernel_caches()
    try:
        table = exponent_table(p, s, q, m, n)
        assert table == expected
        assert len({id(alpha) for alpha in table}) == len(set(table))  # equal rows are one tuple
        assert calls[m, n] == (0 if min(m, n) == 1 else
                               sum(p ** (v * (m - 1)) * q ** ((m - 1) * (n - 1)) for v in range(1, s)))
    finally:
        clear_kernel_caches()


@pytest.mark.parametrize("p, s, m, n", [(3, 3, 2, 2), (3, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 2)])
def test_prime_power_counts_past_the_keep_limit_match_the_closed_form(p, s, m, n):
    """Past the keep limit the row counts by first rows are the closed-form orbit lengths of orbits,
    a tall shape those of its transpose; the m x n table is not kept."""
    q = p**s
    assert q ** (m * n) > KERNEL_CACHE_SIZE
    clear_kernel_caches()
    try:
        assert exponent_counts(p, s, q, m, n) == orbits._pp_counts(p, s, *sorted((m, n)))
        assert (p, s, q, m, n) not in smith._tables
    finally:
        clear_kernel_caches()


def test_kept_tables_stay_within_the_cap(monkeypatch):
    """The kept rows never pass the cap, the oldest table goes first, and a table above the cap is not kept."""
    monkeypatch.setattr(smith, "KERNEL_CACHE_SIZE", 91)
    clear_kernel_caches()
    try:
        first = exponent_table(2, 1, 2, 2, 3)  # 64 rows
        assert first == kernel_table(2, 1, 2, 3)
        assert exponent_table(3, 1, 3, 1, 3) and exponent_table(2, 1, 2, 2, 3) is first  # 27 more: 91 kept, the cap
        assert list(smith._tables) == [(2, 1, 2, 2, 3), (3, 1, 3, 1, 3)]
        exponent_table(2, 2, 4, 1, 3)  # 64 more: the oldest goes
        assert list(smith._tables) == [(3, 1, 3, 1, 3), (2, 2, 4, 1, 3)]
        assert len(exponent_table(3, 1, 3, 2, 3)) == 3**6  # above the cap: returned, not kept
        assert list(smith._tables) == [(3, 1, 3, 1, 3), (2, 2, 4, 1, 3)]
        exponent_table(3, 1, 3, 1, 4)  # 81 more: both older tables go
        assert list(smith._tables) == [(3, 1, 3, 1, 4)]
        clear_kernel_caches()
        assert smith._tables == {}
    finally:
        clear_kernel_caches()


@given(matrices())
def test_snf_round_trip_property(a):
    f = snf(a)
    verify_smith_form(a, f)
    assert f.omega.omega == oracle.omega_via_minors(a)

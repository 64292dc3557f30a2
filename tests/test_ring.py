"""Ring layer: modulus factorization, element factorization, CRT, ideals."""

import math
import random
import time
from itertools import product

import pytest
from hypothesis import given

from conftest import SMALL_MODULI, elements
from ringmat.errors import NotInvertibleError, UsageError
from ringmat.ring import (
    MAX_MODULUS,
    RingSpec,
    _is_prime,
    all_exponent_vectors,
    are_associates,
    crt_lift,
    factor_element,
    factor_modulus,
    ideal_of,
    IdealLabel,
    ring_spec,
)

FACTOR_RINGS = (4, 6, 12, 18, 60)


def test_factor_modulus_reconstructs():
    for h in range(2, 200):
        primes = factor_modulus(h)
        assert math.prod(p**s for p, s in primes) == h
        ps = [p for p, _ in primes]
        assert ps == sorted(set(ps))
        assert all(s >= 1 for _, s in primes)


def test_factor_modulus_rejects_bad_input():
    for h in (1, 0, -5):
        with pytest.raises(UsageError):
            factor_modulus(h)
    with pytest.raises(UsageError):
        factor_modulus(MAX_MODULUS + 1)


def _trial_division(h):
    """The slow reference factorization."""
    out = []
    d = 2
    while d * d <= h:
        e = 0
        while h % d == 0:
            h //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if h > 1:
        out.append((h, 1))
    return tuple(out)


def test_factor_modulus_matches_trial_division():
    rng = random.Random(2017)
    cases = [rng.randrange(2, 10**9) for _ in range(2000)]
    # Carmichael numbers and strong pseudoprimes; 3825123056546413051 is a
    # strong pseudoprime to every prime base up to 23
    cases += [561, 41041, 3215031751, 3825123056546413051, 997 * 991, 999983**2]
    for h in cases:
        assert factor_modulus(h) == _trial_division(h), h


KNOWN_FACTORIZATIONS = {
    (2**31 - 1) ** 2: ((2**31 - 1, 2),),
    4294967279 * 4294967291: ((4294967279, 1), (4294967291, 1)),
    2**61 - 1: ((2**61 - 1, 1),),
    2**64 - 59: ((2**64 - 59, 1),),
    2**64 - 1: ((3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)),
    2**63: ((2, 63),),
    3**40: ((3, 40),),
}


def test_factor_modulus_64_bit_cases_are_fast():
    for h, expected in KNOWN_FACTORIZATIONS.items():
        start = time.process_time()
        assert factor_modulus(h) == expected
        assert time.process_time() - start < 1.0, h
    start = time.process_time()
    assert ring_spec(2**64 - 59).primes == ((2**64 - 59, 1),)
    assert time.process_time() - start < 1.0


def test_is_prime_matches_sieve_and_rejects_pseudoprimes():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # the least strong pseudoprimes to the first 1, 2, ..., 9 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not _is_prime(n)
        primes = factor_modulus(n)
        assert len(primes) > 1 and math.prod(p**s for p, s in primes) == n
    for p in (2**31 - 1, 4294967291, 2**61 - 1, 2**64 - 59):
        assert _is_prime(p)


def test_ring_spec_checks_given_factorization():
    assert RingSpec(12, ((2, 2), (3, 1))).prime_powers == (4, 3)
    for primes in (((2, 1), (6, 1)),       # 6 is not prime
                   ((3, 1), (2, 2)),       # primes out of order
                   ((2, 2), (3, 1), (5, 0)),  # zero exponent
                   ((2, 2),),              # product is not h
                   ((2, 2), (2, 0), (3, 1)),  # repeated prime
                   ()):
        with pytest.raises(UsageError):
            RingSpec(12, primes)
    with pytest.raises(UsageError):
        RingSpec(1, ())
    with pytest.raises(UsageError):
        RingSpec(2**64, ((2, 64),))


def test_ring_spec_is_cached():
    assert ring_spec(12) is ring_spec(12)


def test_component_structure():
    ring = ring_spec(12)
    assert ring.t == 2
    assert ring.prime_powers == (4, 3)
    assert ring.cofactors == (3, 4)
    assert ring.saturated == (2, 1)
    assert ring.component(0).h == 4
    assert ring.cofactor_ring(1).h == 4


def test_unit_count_is_euler_phi():
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        phi = sum(1 for x in range(h) if math.gcd(x, h) == 1)
        assert ring.unit_count() == phi
        units = list(ring.units())
        assert len(units) == phi
        assert all(ring.is_unit(u) for u in units)


def test_unit_inverse():
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        for u in ring.units():
            assert (u * ring.unit_inverse(u)) % h == 1
        with pytest.raises(NotInvertibleError):
            ring.unit_inverse(ring.primes[0][0])


def test_valuations_capped():
    ring = ring_spec(12)
    assert ring.valuations(0) == (2, 1)
    assert ring.valuations(1) == (0, 0)
    assert ring.valuations(4) == (2, 0)
    assert ring.valuations(6) == (1, 1)


def test_factorization_round_trip_exhaustive():
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        for x in range(h):
            fac = factor_element(ring.elem(x))
            assert fac.value().value == x
            assert fac.is_zero == (x == 0)
            if x == 0:
                assert fac.exponents == ring.saturated
                assert fac.unit.value == 1
            else:
                assert fac.exponents == ring.valuations(x)
                assert ring.is_unit(fac.unit.value)


def test_factorization_unit_is_minimal():
    """The chosen unit is the smallest nonnegative unit that works."""
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        for x in range(1, h):
            fac = factor_element(ring.elem(x))
            g = math.prod(p**a for (p, _), a in zip(ring.primes, fac.exponents))
            candidates = [u for u in ring.units() if (u * g) % h == x]
            assert candidates, f"no unit solves {x} = u * {g} mod {h}"
            assert fac.unit.value == min(candidates)


def test_crt_round_trip_exhaustive():
    for h in (6, 12, 60):
        ring = ring_spec(h)
        for x in range(h):
            residues = [ring.project(x, i) for i in range(ring.t)]
            assert ring.crt(residues) == x
            lifted = crt_lift(ring, residues)
            assert lifted.value == x


def test_coprojection_consistency():
    ring = ring_spec(12)
    for x in range(12):
        for i in range(ring.t):
            assert ring.coproject(x, i) == x % ring.cofactors[i]


def test_associate_class_count():
    """Elements split into prod(s_i + 1) associate classes, one per exponent vector."""
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        classes: list[list[int]] = []
        for x in range(h):
            for cls in classes:
                if are_associates(ring.elem(x), ring.elem(cls[0])):
                    cls.append(x)
                    break
            else:
                classes.append([x])
        expected = math.prod(s + 1 for _, s in ring.primes)
        assert len(classes) == expected
        assert sorted(len(c) for c in classes) == sorted(
            sum(1 for x in range(h) if ring.valuations(x) == vec)
            for vec in all_exponent_vectors(ring)
        )


def test_ideal_membership_matches_divisibility():
    for h in (4, 6, 12):
        ring = ring_spec(h)
        for exps in all_exponent_vectors(ring):
            label = IdealLabel(ring, exps)
            g = label.generator().value
            members = set(label.members())
            assert len(members) == label.size()
            for x in range(h):
                in_ideal = (x == 0) if g == 0 else (x % g == 0)
                assert label.contains(x) == in_ideal == (x in members)


def test_ideal_of_is_tightest_label():
    ring = ring_spec(12)
    for x in range(12):
        label = ideal_of(ring.elem(x))
        assert label.exponents == ring.valuations(x)
        assert label.contains(x)


def test_all_exponent_vectors_count():
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        vecs = list(all_exponent_vectors(ring))
        assert len(vecs) == math.prod(s + 1 for _, s in ring.primes)
        assert len(set(vecs)) == len(vecs)


def test_elem_arithmetic_mixed_ring_guard():
    a = ring_spec(4).elem(1)
    b = ring_spec(6).elem(1)
    with pytest.raises(UsageError):
        a + b


@given(elements())
def test_is_unit_matches_gcd(ring_and_x):
    ring, x = ring_and_x
    assert ring.is_unit(x) == (math.gcd(x, ring.h) == 1)


@given(elements())
def test_factorization_round_trip_property(ring_and_x):
    ring, x = ring_and_x
    fac = factor_element(ring.elem(x))
    assert fac.value().value == x


@given(elements())
def test_crt_round_trip_property(ring_and_x):
    ring, x = ring_and_x
    assert ring.crt([ring.project(x, i) for i in range(ring.t)]) == x

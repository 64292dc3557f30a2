"""Ring layer: modulus factorization and CRT; units and capped valuations of
Z_h, read off 1 x 1 matrices."""

import math
import pickle
import random
import time

import pytest
from hypothesis import given

from conftest import coprojection, elements, orbit_labels
from ringmat.errors import UsageError
from ringmat.matrix import Mat
from ringmat.orbits import census_by_enumeration, expected_label_count
from ringmat.ring import (
    MAX_MODULUS,
    RingSpec,
    _is_prime,
    factor_modulus,
    ring_spec,
)
from ringmat.smith import invariant_factors

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


def test_a_ring_is_identified_by_its_modulus():
    """A RingSpec built directly is the shared one: equal, hashing alike, before and after a pickle
    round trip, and so is a matrix over it."""
    built, shared = RingSpec(12, ((2, 2), (3, 1))), ring_spec(12)
    assert built is not shared
    for ring in (built, pickle.loads(pickle.dumps(built))):
        assert ring == shared and hash(ring) == hash(shared)
        assert ring != ring_spec(6) and repr(ring) == repr(shared)
    for a, b in ((built, shared), (shared, built)):
        assert Mat(a, 1, 2, (1, 5)) in {Mat(b, 1, 2, (1, 5))}


def test_ring_spec_is_cached():
    assert ring_spec(12) is ring_spec(12)


def test_ring_spec_cache_is_bounded():
    bound = ring_spec.cache_info().maxsize
    assert bound is not None
    for h in range(2, bound + 102):
        ring_spec(h)
    assert ring_spec.cache_info().currsize <= bound
    assert ring_spec(12) is ring_spec(12)


def test_component_structure():
    ring = ring_spec(12)
    assert ring.t == 2
    assert ring.prime_powers == (4, 3)
    assert ring.saturated == (2, 1)
    assert ring.component(0).h == 4
    assert [coprojection(_scalar(ring, 0), i).ring.h for i in range(ring.t)] == [3, 4]


def _scalar(ring, x):
    return Mat.from_rows(ring, [[x]])


def _capped_valuations(ring, x):
    """min(v_p(x), s) per prime power p**s of h; zero maps to (s_1, ..., s_t)."""
    out = []
    for p, s in ring.primes:
        a = 0
        while a < s and x % p**(a + 1) == 0:
            a += 1
        out.append(a)
    return tuple(out)


def test_unit_count_is_euler_phi():
    """The invertible 1 x 1 matrices number h * prod(1 - 1/p_i)."""
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        phi = h
        for p, _ in ring.primes:
            phi -= phi // p
        assert sum(_scalar(ring, x).is_invertible() for x in range(h)) == phi


def test_valuations_capped():
    """The exponent table of a 1 x 1 matrix is the capped valuation vector of its entry."""
    ring = ring_spec(12)
    for x, vals in ((0, (2, 1)), (1, (0, 0)), (4, (2, 0)), (6, (1, 1))):
        assert invariant_factors(_scalar(ring, x)).omega == tuple((a,) for a in vals)
        assert _capped_valuations(ring, x) == vals


def test_crt_round_trip_exhaustive():
    for h in (6, 12, 60):
        ring = ring_spec(h)
        for x in range(h):
            assert ring.crt([x % q for q in ring.prime_powers]) == x


def test_coprojection_consistency():
    """The coprojection mod h / q_i has the components x mod q_j, j != i: the identity by which
    rank_via_projections reads the quotient route off the component rows."""
    for h in (12, 30030):
        ring = ring_spec(h)
        for x in range(0, h, max(1, h // 97)):
            for i in range(ring.t):
                image = coprojection(_scalar(ring, x), i)
                assert image.ring is ring_spec(h // ring.prime_powers[i])
                assert image.entries == (x % (h // ring.prime_powers[i]),)
                assert [image.entries[0] % q for j, q in enumerate(ring.prime_powers) if j != i] == \
                    [x % q for j, q in enumerate(ring.prime_powers) if j != i]


def test_associate_class_count():
    """Elements split into prod(s_i + 1) associate classes, one per capped valuation vector.

    Associates are the orbits of 1 x 1 matrices under multiplication by units.
    """
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        rep = census_by_enumeration(ring, 1, 1)
        assert rep.label_count == math.prod(s + 1 for _, s in ring.primes)
        sizes: dict[tuple[int, ...], int] = {}
        for x in range(h):
            vals = _capped_valuations(ring, x)
            sizes[vals] = sizes.get(vals, 0) + 1
        assert {tuple(row[0] for row in label): n for label, n in rep.entries} == sizes


def test_all_exponent_vectors_count():
    for h in FACTOR_RINGS:
        ring = ring_spec(h)
        vecs = orbit_labels(ring, 1, 1)
        assert [lab for lab, _ in census_by_enumeration(ring, 1, 1).entries] == vecs
        assert len(vecs) == expected_label_count(ring, 1, 1) == math.prod(s + 1 for _, s in ring.primes)
        assert len(set(vecs)) == len(vecs)


@given(elements())
def test_is_unit_matches_gcd(ring_and_x):
    """A 1 x 1 matrix is invertible exactly when its entry is a unit."""
    ring, x = ring_and_x
    assert _scalar(ring, x).is_invertible() == (math.gcd(x, ring.h) == 1)


@given(elements())
def test_crt_round_trip_property(ring_and_x):
    ring, x = ring_and_x
    assert ring.crt([x % q for q in ring.prime_powers]) == x

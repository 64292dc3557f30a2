"""Arithmetic in the residue class ring Z_h and its prime-power components.

For h = prod(p_i ** s_i) the ring Z_h splits entrywise into its prime-power
components Z_{p_i ** s_i}, and almost everything in this package is computed
componentwise and glued back together through the Chinese remainder
isomorphism.  This module owns that plumbing: canonical residues, units,
capped p-adic valuations, the unit-times-prime-power factorization of ring
elements, the ideal lattice, and the projection / coprojection / lift maps.

The modulus is split into its prime powers by trial division up to 1000,
then deterministic Miller-Rabin and Pollard-Brent rho, so any h < 2^64
factors in milliseconds.  The matrix and Smith layers keep elements as
plain ints in [0, h); the Elem wrapper serves only the element-level API
below (factor_element, ideals, associates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count, product
from typing import Iterator, Sequence

from .errors import NotInvertibleError, UsageError

MAX_MODULUS = 2**64 - 1


# Trial division bound.  Once the factors below it are divided out, any
# cofactor smaller than its square is prime.
_TRIAL_BOUND = 1000

# Miller-Rabin with the first 12 prime bases is exact below
# 318665857834031151167461 > 2^64 (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard-Brent rho.

    Walks x -> x^2 + c from the fixed start 2 for c = 1, 2, ..., so the
    result is the same on every run.  Products of differences are batched
    128 at a time into one gcd; a batch that overshoots to gcd n is replayed
    one step at a time.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor_modulus(h: int) -> tuple[tuple[int, int], ...]:
    """Factor 2 <= h < 2^64 as ((p1, s1), ...) with p1 < p2 < ....

    Trial division below 1000 splits off the small factors; what is left is
    split by Pollard-Brent rho until every part passes the deterministic
    Miller-Rabin test.
    """
    if h < 2:
        raise UsageError(f"modulus must be >= 2, got {h}")
    if h > MAX_MODULUS:
        raise UsageError(f"modulus {h} exceeds the 64-bit support bound")
    counts: dict[int, int] = {}
    rest = h
    d = 2
    while d * d <= rest and d < _TRIAL_BOUND:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            counts[d] = e
        d += 1 if d == 2 else 2
    parts = [rest] if rest > 1 else []
    while parts:
        n = parts.pop()
        if n < _TRIAL_BOUND**2 or _is_prime(n):
            counts[n] = counts.get(n, 0) + 1
        else:
            d = _rho_factor(n)
            parts += (d, n // d)
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def ring_spec(h: int) -> "RingSpec":
    """Shared RingSpec instance for the modulus h."""
    return RingSpec(h, factor_modulus(h))


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_h together with its (ordered) prime-power decomposition.

    primes holds pairs (p_i, s_i) with p_1 < p_2 < ... and
    h == prod(p_i ** s_i).  Component indices are 0-based everywhere.
    """

    h: int
    primes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ps = [p for p, _ in self.primes]
        if not (
            2 <= self.h <= MAX_MODULUS
            and all(a < b for a, b in zip(ps, ps[1:]))
            and all(s >= 1 for _, s in self.primes)
            and math.prod(p**s for p, s in self.primes) == self.h
            and all(_is_prime(p) for p in ps)
        ):
            raise UsageError(f"inconsistent factorization for modulus {self.h}")

    def __str__(self) -> str:
        return f"Z_{self.h}"

    @property
    def t(self) -> int:
        return len(self.primes)

    @cached_property
    def prime_powers(self) -> tuple[int, ...]:
        """q_i = p_i ** s_i, in component order."""
        return tuple(p**s for p, s in self.primes)

    @cached_property
    def cofactors(self) -> tuple[int, ...]:
        """h_i = h // q_i, the modulus of the i-th coprojection target."""
        return tuple(self.h // q for q in self.prime_powers)

    @cached_property
    def saturated(self) -> tuple[int, ...]:
        """The exponent vector (s_1, ..., s_t) of zero."""
        return tuple(s for _, s in self.primes)

    @cached_property
    def _crt_idempotents(self) -> tuple[int, ...]:
        # e_i == 1 mod q_i and 0 mod q_j for j != i
        out = []
        for q, hq in zip(self.prime_powers, self.cofactors):
            out.append(hq * pow(hq, -1, q) % self.h)
        return tuple(out)

    # --- scalar arithmetic -------------------------------------------------

    def reduce(self, v: int) -> int:
        return v % self.h

    def is_unit(self, v: int) -> bool:
        return math.gcd(v, self.h) == 1

    def unit_inverse(self, v: int) -> int:
        try:
            return pow(v, -1, self.h)
        except ValueError:
            raise NotInvertibleError(f"{v} is not a unit in {self}") from None

    def unit_count(self) -> int:
        """Order of the unit group: h * prod(1 - 1/p_i)."""
        n = self.h
        for p, _ in self.primes:
            n -= n // p
        return n

    def units(self) -> Iterator[int]:
        """All units in ascending order. Intended for small h."""
        return (v for v in range(self.h) if math.gcd(v, self.h) == 1)

    def valuations(self, v: int) -> tuple[int, ...]:
        """Capped valuation vector: min(v_{p_i}(v), s_i) per component; zero maps to (s_1, ..., s_t)."""
        v %= self.h
        out = []
        for p, s in self.primes:
            if v == 0:
                out.append(s)
                continue
            a = 0
            x = v
            while a < s and x % p == 0:
                x //= p
                a += 1
            out.append(a)
        return tuple(out)

    # --- component transport -----------------------------------------------

    def component(self, i: int) -> "RingSpec":
        """The i-th prime-power component ring Z_{p_i ** s_i}."""
        return ring_spec(self.prime_powers[i])

    def cofactor_ring(self, i: int) -> "RingSpec":
        """The complementary quotient Z_{h / p_i ** s_i}; needs t >= 2."""
        if self.t < 2:
            raise UsageError("coprojection target is the zero ring when t = 1")
        return ring_spec(self.cofactors[i])

    def project(self, v: int, i: int) -> int:
        return v % self.prime_powers[i]

    def coproject(self, v: int, i: int) -> int:
        return v % self.cofactors[i]

    def crt(self, residues: Sequence[int]) -> int:
        """The unique v in [0, h) with v == residues[i] mod q_i for every i."""
        if len(residues) != self.t:
            raise UsageError(f"expected {self.t} residues, got {len(residues)}")
        v = 0
        for r, e in zip(residues, self._crt_idempotents):
            v += r * e
        return v % self.h

    def crt_vectors(self, vecs: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Entrywise CRT of one canonical residue vector per component: sum of e_i * vec_i, mod h.

        With a single component the residues mod q_1 = h are returned unchanged.
        """
        if len(vecs) != self.t:
            raise UsageError(f"expected {self.t} residue vectors, got {len(vecs)}")
        if self.t == 1:
            return tuple(vecs[0])
        acc = [0] * len(vecs[0])
        for e, vec in zip(self._crt_idempotents, vecs):
            acc = [a + e * v for a, v in zip(acc, vec)]
        h = self.h
        return tuple(a % h for a in acc)

    def elem(self, v: int) -> "Elem":
        return Elem(self, v % self.h)


@dataclass(frozen=True)
class Elem:
    """A canonical residue paired with its ring."""

    ring: RingSpec
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.ring.h:
            raise UsageError(f"{self.value} is not a canonical residue mod {self.ring.h}")

    def _same_ring(self, other: "Elem") -> None:
        if self.ring != other.ring:
            raise UsageError(f"mixed rings: {self.ring} and {other.ring}")

    def __add__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring, (self.value + other.value) % self.ring.h)

    def __sub__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring, (self.value - other.value) % self.ring.h)

    def __mul__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring, self.value * other.value % self.ring.h)

    def __neg__(self) -> "Elem":
        return Elem(self.ring, -self.value % self.ring.h)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.ring.h})"


@dataclass(frozen=True)
class ElemFactorization:
    """x = unit * prod(p_i ** exponents[i]) with the minimal valid unit.

    For x = 0 every exponent is saturated at s_i and the unit is fixed to 1.
    The unit is only determined modulo the ideal with label s - exponents;
    the canonical choice here is the smallest nonnegative valid one.
    """

    unit: Elem
    exponents: tuple[int, ...]
    is_zero: bool

    @property
    def ring(self) -> RingSpec:
        return self.unit.ring

    def value(self) -> Elem:
        ring = self.ring
        if self.is_zero:
            return ring.elem(0)
        g = 1
        for (p, _), a in zip(ring.primes, self.exponents):
            g *= p**a
        return ring.elem(self.unit.value * g)


@dataclass(frozen=True)
class IdealLabel:
    """The ideal of Z_h generated by prod(p_i ** exponents[i]).

    Exponent vectors with 0 <= exponents[i] <= s_i classify all ideals of
    Z_h; the zero ideal is the fully saturated label (s_1, ..., s_t).
    """

    ring: RingSpec
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) != self.ring.t:
            raise UsageError("exponent vector length must equal the number of components")
        for a, (_, s) in zip(self.exponents, self.ring.primes):
            if not 0 <= a <= s:
                raise UsageError(f"exponent {a} out of range for {self.ring}")

    def generator(self) -> Elem:
        g = 1
        for (p, _), a in zip(self.ring.primes, self.exponents):
            g *= p**a
        return self.ring.elem(g)

    def size(self) -> int:
        """Number of elements: h / prod(p_i ** exponents[i])."""
        d = 1
        for (p, _), a in zip(self.ring.primes, self.exponents):
            d *= p**a
        return self.ring.h // d

    def contains(self, x: "Elem | int") -> bool:
        v = x.value if isinstance(x, Elem) else x % self.ring.h
        return all(a >= b for a, b in zip(self.ring.valuations(v), self.exponents))

    def members(self) -> Iterator[int]:
        """All member values in ascending order. Intended for small h."""
        g = self.generator().value
        if g == 0:
            return iter((0,))
        return iter(range(0, self.ring.h, g))


def is_unit(x: Elem) -> bool:
    return x.ring.is_unit(x.value)


def _minimal_unit_solving(ring: RingSpec, a: int, b: int) -> int:
    """Smallest nonnegative unit u with u * a == b in Z_h.

    Requires a and b to be associates (equal capped valuation vectors).  The
    valid units form a single residue class modulo prod(p_i ** (s_i - a_i));
    the construction solves componentwise, lifts, then walks that class
    upward to the first representative coprime to h.
    """
    vals = ring.valuations(a)
    if vals != ring.valuations(b):
        raise UsageError("elements are not associates")
    residues = []
    stabilizer = 1
    for (p, s), q, al in zip(ring.primes, ring.prime_powers, vals):
        stabilizer *= p ** (s - al)
        if al >= s:
            residues.append(1 % q)
            continue
        pa = p**al
        mod = q // pa
        aa = (a % q) // pa
        bb = (b % q) // pa
        residues.append(bb * pow(aa, -1, mod) % mod)
    u = ring.crt(residues) % stabilizer
    while math.gcd(u, ring.h) != 1:
        u += stabilizer
    return u


def factor_element(x: Elem) -> ElemFactorization:
    """Factor x as unit * prod(p_i ** a_i), exponents capped at s_i.

    The exponent vector is unique; among the valid units the minimal
    nonnegative one is returned.  factor_element(0) reports is_zero with the
    saturated exponent vector and unit 1.
    """
    ring = x.ring
    if x.value == 0:
        return ElemFactorization(ring.elem(1), ring.saturated, True)
    exps = ring.valuations(x.value)
    g = 1
    for (p, _), a in zip(ring.primes, exps):
        g *= p**a
    u = _minimal_unit_solving(ring, g % ring.h, x.value)
    return ElemFactorization(ring.elem(u), exps, False)


def absorb_saturated_exponents(ring: RingSpec, beta: Sequence[int]) -> ElemFactorization:
    """Rewrite prod(p_i ** beta_i) with every exponent clamped into [0, s_i].

    Overshooting exponents are absorbed: the result is the factorization of
    the same ring element with exponents min(beta_i, s_i) and a minimal
    compensating unit.  All-saturated input (the zero element) is rejected.
    """
    if len(beta) != ring.t:
        raise UsageError("exponent vector length must equal the number of components")
    if any(b < 0 for b in beta):
        raise UsageError("exponents must be nonnegative")
    alpha = tuple(min(b, s) for b, (_, s) in zip(beta, ring.primes))
    if alpha == ring.saturated:
        raise UsageError("all exponents saturated: the element is zero")
    x = 1
    g = 1
    for (p, _), b, a in zip(ring.primes, beta, alpha):
        x = x * pow(p, b, ring.h) % ring.h
        g *= p**a
    u = _minimal_unit_solving(ring, g % ring.h, x)
    return ElemFactorization(ring.elem(u), alpha, False)


def are_associates(a: Elem, b: Elem) -> bool:
    """True iff a = u * b for some unit u, i.e. equal capped valuation vectors."""
    if a.ring != b.ring:
        raise UsageError("mixed rings")
    return a.ring.valuations(a.value) == b.ring.valuations(b.value)


def ideal_of(x: Elem) -> IdealLabel:
    """The ideal generated by x."""
    return IdealLabel(x.ring, x.ring.valuations(x.value))


def project(x: Elem, i: int) -> Elem:
    """Image of x in the i-th prime-power component (0-based)."""
    return x.ring.component(i).elem(x.ring.project(x.value, i))


def coproject(x: Elem, i: int) -> Elem:
    """Image of x in the complementary quotient Z_{h const / q_i} (0-based)."""
    return x.ring.cofactor_ring(i).elem(x.ring.coproject(x.value, i))


def crt_lift(ring: RingSpec, residues: Sequence[Elem | int]) -> Elem:
    """The unique element of Z_h projecting to the given component residues."""
    vals = []
    for i, r in enumerate(residues):
        if isinstance(r, Elem):
            if r.ring.h != ring.prime_powers[i]:
                raise UsageError(f"residue {i} lives over {r.ring}, expected Z_{ring.prime_powers[i]}")
            vals.append(r.value)
        else:
            vals.append(r % ring.prime_powers[i])
    return ring.elem(ring.crt(vals))


def all_exponent_vectors(ring: RingSpec) -> Iterator[tuple[int, ...]]:
    """Every ideal label (a_1, ..., a_t) with 0 <= a_i <= s_i, in lexicographic order."""
    return product(*(range(s + 1) for _, s in ring.primes))

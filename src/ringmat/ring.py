"""Arithmetic in the residue class ring Z_h and its prime-power components.

For h = prod(p_i ** s_i) the ring Z_h splits entrywise into its prime-power
components Z_{p_i ** s_i}, and almost everything in this package is computed
componentwise and glued back together through the Chinese remainder
isomorphism.  This module owns that plumbing: the factorization of the
modulus, the component rings, and the CRT gluing of residues.

The modulus is split into its prime powers by trial division up to 1000,
then deterministic Miller-Rabin and Pollard-Brent rho, so any h < 2^64
factors in milliseconds.  Ring elements are plain ints in [0, h).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count
from operator import attrgetter, mul
from typing import Sequence

from .errors import UsageError

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


@lru_cache(maxsize=1024)  # bounded: a long-lived process may see any number of moduli
def ring_spec(h: int) -> "RingSpec":
    """Shared RingSpec instance for the modulus h."""
    return RingSpec(h, factor_modulus(h))


class Frozen:
    """Base of the slotted records: ==, hash and repr come from the fields, which cannot be assigned.

    The fields are the subclass's own _fields, else its __slots__.  Records are
    equal when of one class with equal field tuples, hash as that tuple, repr
    as Name(field=value, ...), and pickle as a constructor call on the fields.
    __init__ validates, then _fill sets every slot.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*cls._fields)  # a tuple for two or more fields, as every record has

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)  # every record takes its fields as constructor arguments

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RingSpec(Frozen):
    """The ring Z_h together with its (ordered) prime-power decomposition.

    primes holds pairs (p_i, s_i) with p_1 < p_2 < ... and
    h == prod(p_i ** s_i).  Component indices are 0-based everywhere.
    The other slots are derived: prime_powers[i] = q_i = p_i ** s_i; saturated =
    (s_1, ..., s_t), the exponents of zero; _crt_idempotents[i] is 1 mod q_i, 0 mod q_j.
    """

    __slots__ = ("h", "primes", "prime_powers", "saturated", "_crt_idempotents")
    _fields = ("h", "primes")

    def __init__(self, h: int, primes: tuple[tuple[int, int], ...]) -> None:
        ps = [p for p, _ in primes]
        if not (
            2 <= h <= MAX_MODULUS
            and all(a < b for a, b in zip(ps, ps[1:]))
            and all(s >= 1 for _, s in primes)
            and math.prod(p**s for p, s in primes) == h
            and all(_is_prime(p) for p in ps)
        ):
            raise UsageError(f"inconsistent factorization for modulus {h}")
        qs = tuple(p**s for p, s in primes)
        self._fill(h, primes, qs, tuple(s for _, s in primes), tuple(h // q * pow(h // q, -1, q) % h for q in qs))

    # Not derived from Frozen: every Mat hash calls this one.  h alone is the identity,
    # since primes is its factorization, which the constructor checks.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RingSpec:
            return NotImplemented
        return self.h == other.h

    def __hash__(self) -> int:
        return hash(self.h)

    def __str__(self) -> str:
        return f"Z_{self.h}"

    @property
    def t(self) -> int:
        return len(self.primes)

    # --- component transport -----------------------------------------------

    def component(self, i: int) -> "RingSpec":
        """The i-th prime-power component ring Z_{p_i ** s_i}."""
        return ring_spec(self.prime_powers[i])

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
        es, h = self._crt_idempotents, self.h
        return tuple([sum(map(mul, es, parts)) % h for parts in zip(*vecs)])

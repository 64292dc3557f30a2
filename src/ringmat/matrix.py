"""Dense matrices over a residue class ring.

Entries are canonical residues stored as a flat row-major tuple of plain
ints, so matrices are hashable and exact.  A matrix is invertible exactly
when its determinant is a unit, that is nonzero mod every prime p_i, which
one elimination of the entries reduced mod rad(h) = prod(p_i) decides with
no determinant formed.

Public construction (Mat(...), from_rows) validates shape and entries.
Results that are canonical by construction (arithmetic, CRT gluing, the
Smith transforms) go through the unchecked Mat._new.  A Mat is immutable;
==, hash and repr are those of its fields.  So it may carry its own
per-prime exponent rows (the _exponents slot, not a field), written once by
smith.snf or the first rank query and freed with the matrix.
"""

from __future__ import annotations

import random
from math import gcd, prod
from typing import Sequence

from .errors import ShapeError, UsageError
from .ring import Frozen, RingSpec

Rows = Sequence[Sequence[int]]
_MAX_TRIES = 10000  # rejection rounds of random_invertible before it gives up


class Mat(Frozen):
    __slots__ = ("ring", "rows", "cols", "entries", "_exponents")
    _fields = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries: Sequence[int]) -> None:
        if type(entries) is not tuple:
            entries = tuple(entries)
        _check_dims(rows, cols)
        if len(entries) != rows * cols:
            raise ShapeError("entry count does not match dimensions")
        h = ring.h
        if any(not 0 <= v < h for v in entries):
            raise UsageError(f"entries must be canonical residues in [0, {h})")
        _set_ring(self, ring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    # Not derived from Frozen: sets of matrices hash and compare through these; derived ones are 45-85% slower.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Mat:
            return NotImplemented
        return (self.ring, self.rows, self.cols, self.entries) == (other.ring, other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.entries))

    # --- construction -------------------------------------------------------

    @classmethod
    def _new(cls, ring: RingSpec, rows: int, cols: int, entries: tuple[int, ...]) -> "Mat":
        """A matrix canonical by construction, not validated: its slots are set past Frozen's block."""
        a = object.__new__(cls)
        _set_ring(a, ring)
        _set_rows(a, rows)
        _set_cols(a, cols)
        _set_entries(a, entries)
        return a

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: Rows) -> "Mat":
        m = len(rows)
        if m == 0 or len(set(len(r) for r in rows)) != 1:
            raise ShapeError("rows must be nonempty and of equal length")
        n = len(rows[0])
        h = ring.h
        return cls(ring, m, n, tuple(v % h for row in rows for v in row))

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "Mat":
        _check_dims(n, n)
        e = [0] * (n * n)
        e[:: n + 1] = [1] * n
        return cls._new(ring, n, n, tuple(e))

    @classmethod
    def diagonal(cls, ring: RingSpec, values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "Mat":
        m, n = (len(values) if d is None else d for d in (rows, cols))
        return cls._new(ring, m, n, diagonal_entries(ring.h, values, m, n))

    # --- access --------------------------------------------------------------

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows)) + f"] over {self.ring}"

    # --- arithmetic ------------------------------------------------------------

    def _same_ring(self, other: "Mat") -> None:
        if self.ring != other.ring:
            raise ShapeError(f"mixed rings: {self.ring} and {other.ring}")

    def __add__(self, other: "Mat") -> "Mat":
        self._same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("dimension mismatch in addition")
        h = self.ring.h
        return Mat._new(self.ring, self.rows, self.cols,
                        tuple((a + b) % h for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("dimension mismatch in subtraction")
        h = self.ring.h
        return Mat._new(self.ring, self.rows, self.cols,
                        tuple((a - b) % h for a, b in zip(self.entries, other.entries)))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._same_ring(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        m, k, n = self.rows, self.cols, other.cols
        h = self.ring.h
        a, b = self.entries, other.entries
        out = [0] * (m * n)
        for i in range(m):
            arow = a[i * k : (i + 1) * k]
            base = i * n
            for j in range(n):
                acc = 0
                for x in range(k):
                    acc += arow[x] * b[x * n + j]
                out[base + j] = acc % h
        return Mat._new(self.ring, m, n, tuple(out))

    # --- invertibility ---------------------------------------------------------

    def is_invertible(self) -> bool:
        """True iff square and invertible over Z_rad, rad = prod(p_i): det is then nonzero mod every p_i."""
        n, e, r = self.rows, self.entries, prod(p for p, _ in self.ring.primes)
        if r != self.ring.h:  # else h is squarefree and the entries are already reduced
            e = tuple(map(r.__rmod__, e))
        return n == self.cols and _is_unimodular([list(e[i * n : (i + 1) * n]) for i in range(n)], r)


_set_ring, _set_rows, _set_cols, _set_entries, _set_exponents = (getattr(Mat, f).__set__ for f in Mat.__slots__)


def _check_dims(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ShapeError(f"dimensions must be positive, got {rows}x{cols}")


def diagonal_entries(h: int, values: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """The flat entries of the m x n matrix over Z_h with the values, reduced, down its diagonal."""
    _check_dims(m, n)
    if len(values) > min(m, n):
        raise ShapeError("too many diagonal values")
    e = [0] * (m * n)
    e[: len(values) * (n + 1) : n + 1] = [v % h for v in values]
    return tuple(e)


def crt_lift_mat(ring: RingSpec, components: Sequence[Mat]) -> Mat:
    """Entrywise Chinese remainder lift of one matrix per component of ring."""
    if len(components) != ring.t:
        raise UsageError(f"expected {ring.t} component matrices, got {len(components)}")
    dims = {(c.rows, c.cols) for c in components}
    if len(dims) != 1:
        raise ShapeError("component dimensions differ")
    for i, c in enumerate(components):
        if c.ring.h != ring.prime_powers[i]:
            raise UsageError(f"component {i} lives over {c.ring}, expected Z_{ring.prime_powers[i]}")
    (m, n), = dims
    return Mat._new(ring, m, n, ring.crt_vectors([c.entries for c in components]))


def random_matrix(ring: RingSpec, rows: int, cols: int, rng: random.Random | int) -> Mat:
    """Uniform random matrix; rng may be a seed or a random.Random instance."""
    r = random.Random(rng) if isinstance(rng, int) else rng
    h = ring.h
    return Mat(ring, rows, cols, tuple(r.randrange(h) for _ in range(rows * cols)))

def random_invertible(ring: RingSpec, n: int, rng: random.Random | int) -> Mat:
    """Uniform random invertible matrix by rejection sampling.

    The acceptance rate is the GL density prod_i |GL_n(Z_{q_i})| / q_i^{n^2},
    which is bounded away from zero for fixed n, so rejection terminates
    quickly in practice; _MAX_TRIES rounds are a hard stop for safety.
    """
    r = random.Random(rng) if isinstance(rng, int) else rng
    for _ in range(_MAX_TRIES):
        a = random_matrix(ring, n, n, r)
        if a.is_invertible():
            return a
    raise UsageError("failed to sample an invertible matrix")


# --- kernels -----------------------------------------------------------------


def _is_unimodular(a: list[list[int]], r: int) -> bool:
    """Whether the square a over Z_r, r squarefree, is invertible (a is overwritten).

    Adding (r / g) * row_i to row k, g = gcd(a_kk, r), drops from g the primes not
    dividing a_ik; g > 1 left means column k is zero mod them, else a_kk is a unit
    pivot and row_i <- a_kk * row_i - a_ik * row_k clears column k."""
    n = len(a)
    for k in range(n):
        piv = a[k]
        g = gcd(piv[k], r)
        for row in a[k + 1:]:
            if row[k] % g:
                piv[k:] = [(y + r // g * z) % r for y, z in zip(piv[k:], row[k:])]
                g = gcd(piv[k], r)
        if g != 1:
            return False
        for row in a[k + 1:]:
            x = row[k]
            if x:
                for j in range(k + 1, n):
                    row[j] = (piv[k] * row[j] - x * piv[j]) % r
    return True

"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ringmat.matrix import Mat
from ringmat.ring import ring_spec
from ringmat.smith import _pp_smith

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# moduli that exercise every ring shape: prime, prime power, squarefree
# composite, and mixed prime powers
SMALL_MODULI = (2, 3, 4, 5, 6, 8, 9, 12, 18)


@st.composite
def moduli(draw):
    return draw(st.sampled_from(SMALL_MODULI))


@st.composite
def elements(draw):
    ring = ring_spec(draw(moduli()))
    return ring, draw(st.integers(min_value=0, max_value=ring.h - 1))


@st.composite
def matrices(draw, max_dim: int = 3):
    ring = ring_spec(draw(moduli()))
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.tuples(*[st.integers(min_value=0, max_value=ring.h - 1)] * (rows * cols))
    )
    return Mat(ring, rows, cols, entries)


@st.composite
def matrix_pairs(draw, max_dim: int = 3):
    """Two square matrices over the same ring, same size (for products)."""
    ring = ring_spec(draw(moduli()))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    def one():
        entries = draw(
            st.tuples(*[st.integers(min_value=0, max_value=ring.h - 1)] * (n * n))
        )
        return Mat(ring, n, n, entries)
    return one(), one()


@pytest.fixture
def rng():
    return random.Random(0)


def per_matrix_labels(ring, rows, cols):
    """Oracle for the exhaustive sweeps: the omega label of every matrix, in base-h order.

    One matrix at a time, one projection tuple per component: the slow route
    that census_by_enumeration and the rank table are compared with.  The
    kernel is called uncached so the oracle leaves the kernel caches alone.
    """
    for ents in product(range(ring.h), repeat=rows * cols):
        yield tuple(
            _pp_smith(p, s, q, rows, cols, tuple(v % q for v in ents), False)[0]
            for (p, s), q in zip(ring.primes, ring.prime_powers)
        )

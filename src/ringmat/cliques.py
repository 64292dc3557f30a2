"""Maximum cliques of the low-rank-difference graph and their classification.

The canonical maximum cliques are the sets

    C = { [[X1, X2], [X3, 0]] }            (block sizes r, m-r by r, n-r)

where X1 is free, the entries of X2 range over the ideal with exponent
vector alpha, and the entries of X3 range over the complementary ideal with
exponents s - alpha; each alpha_i must be 0 or s_i, and any nonzero alpha
requires m = n for the set to reach the extremal size h**(n*r).  Every
maximum clique is an image S @ C @ T + B0 of such a set, and the shape of
alpha splits the classification into three forms:

  RowForm    alpha = 0:        S @ C_r(0) + B0        (any m <= n)
  ColForm    alpha = s:        C_r(s) @ T + B0        (m = n)
  MixedForm  otherwise:        S @ C_r(alpha) @ T + B0 (m = n)

C_r(alpha) is an additive subgroup spanned by at most m*n scaled unit
matrices, so build_clique_and_walk maps those generators, not the members,
through S and T and materializes every clique as one subgroup closure
translated by B0; the closure goes on to is_clique, which checks the family
against it instead of closing the family again.

A family is a set of flat row-major entry tuples, its ring and shape carried
once by the graph spec; the transforms S, T and the shift B0 stay Mats.

Each family is walked once, by coset_difference_group, which closes its
differences from the least member and keeps each that grows the closure.
is_clique, verify_ekr and codes.verify_distance rank the walk's group,
charged |F| - 1 rank checks for a coset and C(|F|, 2) for any other family;
a family built here is walked by its builder's closure instead.
classify_max_clique reads the kept generators: in each prime component,
whether their columns span a free rank-r module (row type) or their rows do
(column type) is read off the Smith exponents of the stacked generators.
The recovered form, one valid S and T among many, is certified by its at
most m*n mapped generators against the walk's group, with no second closure.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations
from math import gcd, prod
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DEFAULT_EXACT_SEARCH_BUDGET,
    DEFAULT_PAIR_BUDGET,
    NotIntersectingError,
    ShapeError,
    UsageError,
    VerificationError,
    charge,
    power_exceeds,
)
from .graph import GraphSpec, adjacency_masks, search_through_zero, subgroup_closure
from .matrix import Mat, crt_lift_mat, random_invertible, random_matrix
from .ring import Frozen, RingSpec
from .smith import _charge_kernel_steps, _pp_exponents, _pp_smith_cached
from . import oracle

ROW_FORM = "RowForm"
COL_FORM = "ColForm"
MIXED_FORM = "MixedForm"
Walk = tuple[AbstractSet[tuple[int, ...]], list[tuple[int, ...]]]  # (G, its kept generators): one walk of a coset


class CanonicalCliqueSpec(Frozen):
    """Parameters of a canonical maximum clique: the graph and the ideal exponents.

    alpha[i] must be 0 or s_i.  A nonzero alpha only yields a *maximum*
    clique for square matrices, so m < n with alpha != 0 is rejected.
    """

    __slots__ = ("graph", "alpha")

    def __init__(self, graph: GraphSpec, alpha: tuple[int, ...]) -> None:
        ring = graph.ring
        if len(alpha) != ring.t:
            raise UsageError("alpha must have one exponent per prime component")
        for a, (_, s) in zip(alpha, ring.primes):
            if a not in (0, s):
                raise UsageError(f"alpha entries must be 0 or saturated, got {a} (s = {s})")
        if any(alpha) and graph.m != graph.n:
            raise UsageError("nonzero alpha needs square matrices to reach the extremal size")
        self._fill(graph, alpha)


def form_tag(ring: RingSpec, alpha: Sequence[int]) -> str:
    """RowForm when alpha is all zero, ColForm when it is saturated, MixedForm otherwise."""
    if not any(alpha):
        return ROW_FORM
    return COL_FORM if tuple(alpha) == ring.saturated else MIXED_FORM


def _ideal_generator(ring: RingSpec, exponents: Sequence[int]) -> int:
    g = 1
    for (p, _), a in zip(ring.primes, exponents):
        g *= p**a
    return g % ring.h  # 0 generates the zero ideal


def _canonical_generators(cspec: CanonicalCliqueSpec) -> list[tuple[int, int, int]]:
    """(i, j, step) for the at most m*n generators step * E_ij of C_r(alpha), a direct sum of their cyclic groups.

    E_ij in the free r x r block, step_alpha * E_ij in the top-right block
    and step_{s-alpha} * E_ij in the bottom-left one.
    """
    g = cspec.graph
    ring, m, n, r = g.ring, g.m, g.n, g.r
    step_a = _ideal_generator(ring, cspec.alpha)
    step_b = _ideal_generator(ring, tuple(s - a for a, (_, s) in zip(cspec.alpha, ring.primes)))
    units = [(i, j, 1) for i in range(r) for j in range(r)]
    units += [(i, j, step_a) for i in range(r) for j in range(r, n)]
    units += [(i, j, step_b) for i in range(r, m) for j in range(r)]
    return units


def _mapped_generators(cspec: CanonicalCliqueSpec, S: Mat | None, T: Mat | None) -> list[tuple[int, ...]]:
    """The entries of S @ (step * E_ij) @ T for each generator of C_r(alpha); S, T None act as identities."""
    g = cspec.graph
    gens = []
    for i, j, step in _canonical_generators(cspec):
        ents = [0] * (g.m * g.n)
        ents[i * g.n + j] = step
        x = Mat._new(g.ring, g.m, g.n, tuple(ents))
        if S is not None:
            x = S @ x
        if T is not None:
            x = x @ T
        gens.append(x.entries)
    return gens


def build_clique_and_walk(
    cspec: CanonicalCliqueSpec, S: Mat | None = None, T: Mat | None = None, B0: Mat | None = None
) -> tuple[frozenset[tuple[int, ...]], Walk]:
    """S @ C_r(alpha) @ T + B0 as one closure of the mapped generators, and that closure's walk for is_clique.

    Each generator of C_r(alpha) is mapped through S and T, the images are
    closed under addition and the closure G is translated by B0.  Returns
    the family and (G, the generators that grew G), so that is_clique
    checks the family against G instead of closing it again.  Raises
    VerificationError unless G has the extremal size h**(n*r), i.e. unless
    the transforms are injective on C_r(alpha).
    """
    g = cspec.graph
    kept: list[tuple[int, ...]] = []
    group = subgroup_closure(_mapped_generators(cspec, S, T), g.ring.h, g.clique_bound, kept)
    if group is None or len(group) != g.clique_bound:
        raise VerificationError("transforms collapsed the canonical clique")
    if B0 is None:
        family = frozenset(group)
        return family, (family, kept)
    h, b0 = g.ring.h, B0.entries
    return frozenset([tuple([(x + y) % h for x, y in zip(ents, b0)]) for ents in group]), (group, kept)


def build_canonical_clique(
    cspec: CanonicalCliqueSpec, S: Mat | None = None, T: Mat | None = None, B0: Mat | None = None
) -> frozenset[tuple[int, ...]]:
    """Materialize S @ C_r(alpha) @ T + B0: the family of build_clique_and_walk."""
    return build_clique_and_walk(cspec, S, T, B0)[0]


def coset_difference_group(entries: Iterable[tuple[int, ...]], h: int) -> Walk | None:
    """(G, gens) when the family F is a coset b0 + G of an additive subgroup, else None: the one walk of F.

    b0 = min(F).  The differences F - b0 are walked in sorted order and
    closed under addition, aborted once the closure outgrows them: O(|F|)
    entry-tuple additions in all.  gens keeps each difference that grows
    the closure; each at least doubles it, so at most log2 |F| are kept.
    """
    fam = set(entries)
    if not fam:
        return None
    b0 = min(fam)
    gens: list[tuple[int, ...]] = []
    group = subgroup_closure(sorted(tuple([(x - y) % h for x, y in zip(f, b0)]) for f in fam), h, len(fam), gens)
    return None if group is None else (group, gens)


def charge_clique_build(spec: GraphSpec, pair_budget: int = DEFAULT_PAIR_BUDGET) -> None:
    """Raise before a maximum clique is built if checking it would take more than pair_budget rank checks.

    A maximum clique is a coset of h**(n*r) members, so is_clique walks it
    once and ranks its h**(n*r) - 1 nonzero differences; a build is refused
    when those exceed the budget, before the closure that forms the clique.
    """
    h, k = spec.ring.h, spec.n * spec.r
    if power_exceeds(h, k, pair_budget + 1):  # its members, less one, are checked
        charge("- 1 rank checks", (h, k), pair_budget)


def difference_ranks(ring: RingSpec, rows: int, cols: int, family: Iterable[tuple[int, ...]],
                     group: set[tuple[int, ...]] | None) -> Iterator[int]:
    """The inner rank of every nonzero difference of a family of entry tuples.

    For a coset b0 + G, group is G (coset_difference_group, or the closure
    the caller built), whose nonzero members are the pairwise differences;
    each distinct projection of them is ranked once.  With group None every
    pair of distinct members is ranked, and nothing is kept.  Ranks come
    from the cached per-prime exponent rows, with no Mat built.
    """
    h = ring.h
    if group is not None:
        diffs: Iterable[tuple[int, ...]] = (g for g in group if any(g))
    else:
        diffs = (tuple([(x - y) % h for x, y in zip(a, b)]) for a, b in combinations(family, 2) if a != b)
    comps = [(p, s, q, {}) for (p, s), q in zip(ring.primes, ring.prime_powers)]
    for d in diffs:
        rank = 0
        for p, s, q, seen in comps:
            x = d if q == h else tuple([e % q for e in d])
            if (k := seen.get(x)) is None:
                k = bisect_left(_pp_exponents(p, s, q, rows, cols, x), s)  # rows are nondecreasing
                if group is not None:
                    seen[x] = k
            rank = k if k > rank else rank
        yield rank


def _is_coset_of(entries: list[tuple[int, ...]], group: AbstractSet[tuple[int, ...]], h: int) -> bool:
    """Whether the members are the coset entries[0] + group: their differences from it are the group."""
    b0 = entries[0]
    return {tuple([(x - y) % h for x, y in zip(f, b0)]) for f in entries} == group


def _walk_and_rank(ring: RingSpec, rows: int, cols: int, entries: list[tuple[int, ...]],
                   pair_budget: int, walk: Walk | None = None) -> tuple[Walk | None, Iterator[int]]:
    """(coset_difference_group of entries; the ranks of its differences), charged for the ranks taken.

    Before the walk, the kernel steps per difference are budgeted as for
    inner_rank and the |F| - 1 rank checks of a coset are charged; a family
    that is no coset is then charged all C(|F|, 2) pairs, before any kernel
    call.  A given walk, the builder's closure G, stands for the walk once
    the family's differences from one member are checked to be G; else the
    family is walked.  The ranks are difference_ranks on the walk's
    group.  A member of the wrong length raises ShapeError, an entry
    outside [0, h) UsageError.
    """
    if entries and set(map(len, entries)) != {rows * cols}:
        raise ShapeError(f"family members must have {rows * cols} entries")
    values = set().union(*entries)
    if values and (min(values) < 0 or max(values) >= ring.h):
        raise UsageError(f"family entries must lie in [0, {ring.h})")
    _charge_kernel_steps(ring, rows, cols)
    n = len(entries)
    charge("rank checks", n - 1, pair_budget)
    if walk is None or not (entries and _is_coset_of(entries, walk[0], ring.h)):
        walk = coset_difference_group(entries, ring.h)
    if walk is None:
        charge("rank checks", n * (n - 1) // 2, pair_budget)
    return walk, difference_ranks(ring, rows, cols, entries, walk and walk[0])


def is_clique(spec: GraphSpec, family: Iterable[tuple[int, ...]], pair_budget: int = DEFAULT_PAIR_BUDGET,
              walk: Walk | None = None) -> bool:
    """All distinct members differ by inner rank <= r, by the ranks _walk_and_rank takes and charges.

    walk is build_clique_and_walk's closure of the family, if the caller
    built it: a family that is a coset of its group is not walked again.
    """
    _, ranks = _walk_and_rank(spec.ring, spec.m, spec.n, list(family), pair_budget, walk)
    return all(k <= spec.r for k in ranks)


class CliqueForm(Frozen):
    """A verified parameterization of a maximum clique.

    tag is one of RowForm / ColForm / MixedForm; S is present unless the tag
    is ColForm, T is present unless the tag is RowForm, and alpha records
    the per-prime ideal exponents (all 0 for RowForm, all s_i for ColForm).
    """

    __slots__ = ("graph", "tag", "S", "T", "alpha", "B0")

    def __init__(
        self, graph: GraphSpec, tag: str, S: Mat | None, T: Mat | None, alpha: tuple[int, ...], B0: Mat
    ) -> None:
        if tag not in (ROW_FORM, COL_FORM, MIXED_FORM):
            raise UsageError(f"unknown form tag {tag!r}")
        self._fill(graph, tag, S, T, alpha, B0)


def rebuild_clique(form: CliqueForm) -> frozenset[tuple[int, ...]]:
    """Materialize S @ C_r(alpha) @ T + B0 through build_canonical_clique's one closure."""
    return build_canonical_clique(CanonicalCliqueSpec(form.graph, form.alpha), form.S, form.T, form.B0)


def classify_max_clique(spec: GraphSpec, family: Iterable[tuple[int, ...]]) -> CliqueForm:
    """Recover a (tag, S, T, alpha, B0) parameterization of a maximum clique.

    The input must be a maximum clique of entry tuples of length m*n: size
    h**(n*r) and pairwise inner rank of differences <= r.  It is walked by
    coset_difference_group, whose kept generators span G = family - B0; a
    family that is no coset raises VerificationError.  Whether a prime
    component is row type (alpha_i = 0) or column type (alpha_i = s_i) is
    read off the Smith exponents of the horizontally / vertically stacked
    projections of the kept generators, which span the column / row modules
    of all of G, and the transforms are the outer Smith factors of those
    stacks.  Ties (possible only when r = m = n) resolve to the row type.
    The recovered form is certified by _certify_form from its at most m*n
    generators against G, with no second closure: a failure raises
    VerificationError, since it would witness a maximum clique outside the
    classified shapes.
    """
    fam = set(family)
    if not fam:
        raise UsageError("empty family")
    if any(len(x) != spec.m * spec.n for x in fam):
        raise ShapeError("family members do not match the graph parameters")
    if len(fam) != spec.clique_bound:
        raise VerificationError(f"family has size {len(fam)}, a maximum clique has {spec.clique_bound}")
    return _classify_walk(spec, fam, coset_difference_group(fam, spec.ring.h))


def _classify_walk(spec: GraphSpec, fam: AbstractSet[tuple[int, ...]], walk: Walk | None) -> CliqueForm:
    """classify_max_clique of a maximum-size family fam from its own walk, None if it is no coset."""
    if walk is None:
        raise VerificationError("family is not a coset of an additive subgroup, so not a maximum clique")
    ring = spec.ring
    m, n, r = spec.m, spec.n, spec.r
    s_comps: list[Mat] = []  # identity in a column-type component
    t_comps: list[Mat] = []  # identity in a row-type component
    alpha: list[int] = []
    for idx, ((p, s), q) in enumerate(zip(ring.primes, ring.prime_powers)):
        proj = [tuple(x % q for x in g) for g in walk[1]]
        comp = ring.component(idx)

        hstack = tuple(x for i in range(m) for ents in proj for x in ents[i * n:(i + 1) * n])
        h_alpha, h_uinv = _pp_smith_cached(p, s, q, m, len(proj) * n, hstack, 1)
        if h_alpha == (0,) * r + (s,) * (m - r):
            s_comps.append(Mat._new(comp, m, m, h_uinv))
            t_comps.append(Mat.identity(comp, n))
            alpha.append(0)
            continue

        vstack = tuple(x for ents in proj for x in ents)
        v_alpha, v_vinv = _pp_smith_cached(p, s, q, len(proj) * m, n, vstack, 2)
        if v_alpha == (0,) * r + (s,) * (n - r):
            if m != n:
                raise VerificationError(
                    f"component {idx} is column type but the matrices are not square; "
                    "this contradicts the classification of maximum cliques"
                )
            s_comps.append(Mat.identity(comp, m))
            t_comps.append(Mat._new(comp, n, n, v_vinv))
            alpha.append(s)
            continue

        raise VerificationError(
            f"component {idx} matches neither the row nor the column shape "
            f"(column exponents {h_alpha}, row exponents {v_alpha}); "
            "this contradicts the classification of maximum cliques"
        )

    tag = form_tag(ring, alpha)
    s_mat = None if tag == COL_FORM else crt_lift_mat(ring, s_comps)
    t_mat = None if tag == ROW_FORM else crt_lift_mat(ring, t_comps)

    form = CliqueForm(spec, tag, s_mat, t_mat, tuple(alpha), Mat._new(ring, m, n, min(fam)))
    _certify_form(form, fam, walk[0])
    return form


def _certify_form(form: CliqueForm, fam: AbstractSet[tuple[int, ...]], group: AbstractSet[tuple[int, ...]]) -> None:
    """Raise VerificationError unless B0 + S @ C_r(alpha) @ T is the family, a coset of the group G.

    S and T must be invertible, B0 a member, and each generator of
    C_r(alpha) mapped through S and T a member of G = fam - B0.  Then
    S @ C_r(alpha) @ T is a subgroup of G as large as C_r(alpha), whose
    size, the product of its generators' additive orders, is checked to be
    h**(n*r) = |G|: the two groups are equal, with no closure taken.
    """
    cspec = CanonicalCliqueSpec(form.graph, form.alpha)
    for name, x in (("S", form.S), ("T", form.T)):
        if x is not None and not x.is_invertible():
            raise VerificationError(f"recovered {name} is not invertible")
    if form.B0.entries not in fam:
        raise VerificationError("recovered B0 is not a member of the family")
    h = form.graph.ring.h
    if prod(h // gcd(step, h) for _, _, step in _canonical_generators(cspec)) != form.graph.clique_bound:
        raise VerificationError(f"the generators of C_r({form.alpha}) do not span h**(n*r) matrices")
    if not all(x in group for x in _mapped_generators(cspec, form.S, form.T)):
        raise VerificationError(
            "recovered parameterization does not rebuild the family; "
            "this contradicts the classification of maximum cliques"
        )


class EkrReport(NamedTuple):
    """Outcome of checking a pairwise low-rank-difference family against the bound."""

    size: int
    bound: int
    extremal: bool
    form: CliqueForm | None

    @property
    def within_bound(self) -> bool:
        return self.size <= self.bound


def verify_ekr(spec: GraphSpec, family: Iterable[tuple[int, ...]], pair_budget: int = DEFAULT_PAIR_BUDGET) -> EkrReport:
    """Check the extremal bound for a family whose members pairwise differ by rank <= r.

    The family is walked once, and checked as is_clique does on that walk;
    families that are not pairwise intersecting in this sense are rejected
    with NotIntersectingError.  Extremal families (size exactly h**(n*r))
    are classified from the same walk and certified by its generators;
    smaller ones are reported as within the bound.
    """
    members = list(family)
    if not members:
        raise UsageError("empty family")
    walk, ranks = _walk_and_rank(spec.ring, spec.m, spec.n, members, pair_budget)
    if not all(k <= spec.r for k in ranks):
        raise NotIntersectingError(f"family is not pairwise rank-{spec.r} intersecting")
    size = len(walk[0]) if walk else len(set(members))  # a coset's group is as large as it
    bound = spec.clique_bound
    if size > bound:
        raise VerificationError(f"family of size {size} exceeds the extremal bound {bound}")
    form = _classify_walk(spec, set(members), walk) if size == bound else None
    return EkrReport(size, bound, size == bound, form)


def enumerate_max_cliques(
    spec: GraphSpec, budget: int = DEFAULT_EXACT_SEARCH_BUDGET
) -> list[frozenset[tuple[int, ...]]]:
    """All maximum cliques, by exhaustive search; needs h**(m*n) <= budget vertices."""
    masks = adjacency_masks(spec, budget)
    target = spec.clique_bound
    found = oracle.enumerate_cliques_of_size(masks, target)
    # no clique can be larger, but confirm none extends (maximum = target)
    best = search_through_zero(spec, False, budget)
    if len(best) != target:
        raise VerificationError(f"search found a clique of size {len(best)}, expected {target}")
    return [frozenset(spec.vertex_entries(v) for v in ids) for ids in found]


def random_clique_form(
    spec: GraphSpec, alpha: Sequence[int], rng: random.Random | int
) -> CliqueForm:
    """A random valid parameterization with the given alpha (for round-trip tests)."""
    r = random.Random(rng) if isinstance(rng, int) else rng
    ring = spec.ring
    tag = form_tag(ring, alpha)
    s_mat = random_invertible(ring, spec.m, r) if tag != COL_FORM else None
    t_mat = random_invertible(ring, spec.n, r) if tag != ROW_FORM else None
    b0 = random_matrix(ring, spec.m, spec.n, r)
    return CliqueForm(spec, tag, s_mat, t_mat, tuple(alpha), b0)

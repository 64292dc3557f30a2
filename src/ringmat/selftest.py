"""Built-in verification suite: ten numbered checks covering every subsystem.

Each check returns ``(passed, detail)``; :func:`run_all` wraps them with
timing and error capture.  The same checks back the ``ringmat selftest``
command and the acceptance test suite, so the package can be validated
both from the command line and under pytest.

All expected values asserted here were computed by independent routes
(exhaustive enumeration, the minor-valuation oracle in :mod:`ringmat.oracle`,
or the exact branch-and-bound searches) before being frozen.
"""

from __future__ import annotations

import random
import time
from itertools import product
from typing import Callable, Iterable, NamedTuple

from . import oracle
from .cliques import (
    COL_FORM,
    ROW_FORM,
    CanonicalCliqueSpec,
    build_canonical_clique,
    classify_max_clique,
    enumerate_max_cliques,
    form_tag,
    random_clique_form,
    rebuild_clique,
    verify_ekr,
)
from .codes import (
    certify_graph_parameters,
    clique_cover_complement,
    color_graph,
    mrd_code,
)
from .errors import NotIntersectingError, UsageError
from .graph import (
    GraphSpec,
    check_connectivity,
    check_vertex_transitivity,
    exact_clique_number,
    exact_independence_number,
)
from .matrix import Mat, random_matrix
from .orbits import census_by_enumeration, expected_label_count, verify_orbit_product
from .ring import ring_spec
from .smith import inner_rank, snf, verify_smith_form


class CheckResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} check {self.number}: {self.name} ({self.seconds:.2f}s) - {self.detail}"


def _outcome(msgs: list[str], ok_detail: str) -> tuple[bool, str]:
    if msgs:
        return False, "; ".join(msgs[:5])
    return True, ok_detail


# ---------------------------------------------------------------------------
# 1. Diagonalization soundness against the minor-valuation oracle
# ---------------------------------------------------------------------------

def check_smith_soundness(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    counted = 0

    def run_one(a: Mat) -> None:
        nonlocal counted
        f = snf(a)
        verify_smith_form(a, f)
        got = f.omega.omega
        want = oracle.omega_via_minors(a)
        if got != want:
            msgs.append(f"omega mismatch on {a.entries}: {got} vs oracle {want}")
        counted += 1

    exhaustive = [(4, 2, 2), (6, 2, 2)] if quick else [(4, 2, 2), (6, 2, 2), (6, 2, 3)]
    for h, m, n in exhaustive:
        ring = ring_spec(h)
        for entries in product(range(h), repeat=m * n):
            run_one(Mat(ring, m, n, entries))
            if msgs:
                return _outcome(msgs, "")
    ring12 = ring_spec(12)
    rng = random.Random(0)
    trials = 1000 if quick else 10_000
    for _ in range(trials):
        run_one(random_matrix(ring12, 3, 3, rng))
        if msgs:
            return _outcome(msgs, "")

    # frozen regression examples
    r4 = ring_spec(4)
    f = snf(Mat.from_rows(r4, [[2, 1], [2, 2]]))
    if f.omega.omega != ((0, 1),):
        msgs.append(f"frozen Z4 example omega {f.omega.omega} != ((0, 1),)")
    if f.D.entries != (1, 0, 0, 2):
        msgs.append(f"frozen Z4 example D {f.D.entries} != diag(1, 2)")
    r6 = ring_spec(6)
    f = snf(Mat.from_rows(r6, [[2, 0], [0, 3]]))
    if f.omega.omega != ((0, 1), (0, 1)):
        msgs.append(f"frozen Z6 example omega {f.omega.omega} != ((0,1),(0,1))")
    return _outcome(
        msgs,
        f"{counted} factorizations rebuilt exactly and matched the minor oracle "
        f"(exhaustive h=4,6; {trials} random 3x3 over h=12)",
    )


# ---------------------------------------------------------------------------
# 2. Orbit census: label counts and totals
# ---------------------------------------------------------------------------

def check_orbit_census(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    cases = [(4, 2, 2, 6), (6, 2, 2, 9), (12, 2, 2, 18)]
    if not quick:
        cases.insert(2, (6, 2, 3, 9))
    seen = []
    for h, m, n, labels in cases:
        ring = ring_spec(h)
        rep = census_by_enumeration(ring, m, n)
        if rep.label_count != labels:
            msgs.append(f"h={h} {m}x{n}: {rep.label_count} labels, expected {labels}")
        if rep.label_count != expected_label_count(ring, m, n):
            msgs.append(f"h={h} {m}x{n}: label count disagrees with the counting formula")
        if rep.total != h ** (m * n):
            msgs.append(f"h={h} {m}x{n}: total {rep.total} != {h ** (m * n)}")
        seen.append(f"h={h} {m}x{n}:{rep.label_count}")
    return _outcome(msgs, "label counts " + ", ".join(seen) + " with lengths summing to h**(m*n)")


# ---------------------------------------------------------------------------
# 3. Orbit lengths factor through the components
# ---------------------------------------------------------------------------

def check_orbit_product(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    cases = [(6, 2, 2), (8, 2, 2)] if quick else [(6, 2, 2), (8, 2, 2), (12, 2, 2)]
    for h, m, n in cases:
        rep = verify_orbit_product(ring_spec(h), m, n)
        if not rep.ok:
            msgs.append(f"h={h}: product law violated at {rep.first_violation()}")
    return _outcome(
        msgs,
        "every orbit length over h=" + ",".join(str(h) for h, _, _ in cases)
        + " equals the product of its component orbit lengths",
    )


# ---------------------------------------------------------------------------
# 4. Rank agreement with the definition
# ---------------------------------------------------------------------------

def check_rank_agreement(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    counted = 0
    for h in (6,) if quick else (6, 12):
        ring = ring_spec(h)
        # A has rank <= 1 exactly when A = b c^T: the outer products, with no kernel run
        outer = {(x * y % h, x * z % h, w * y % h, w * z % h) for x, w, y, z in product(range(h), repeat=4)}
        for entries in product(range(h), repeat=4):
            want = 0 if not any(entries) else 1 if entries in outer else 2
            got = inner_rank(Mat(ring, 2, 2, entries))
            if got != want:
                msgs.append(f"h={h} {entries}: diagonal rank {got}, outer-product rank {want}")
                return _outcome(msgs, "")
            counted += 1
    return _outcome(
        msgs,
        f"{counted} 2x2 matrices: diagonal rank == rank by definition (at most 1 exactly for the outer products b c^T)",
    )


# ---------------------------------------------------------------------------
# 5. Graph parameters: exact for the field cases, certified elsewhere
# ---------------------------------------------------------------------------

def check_graph_parameters(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    notes = []
    for h, want in ((2, 4), (3, 9)):
        spec = GraphSpec(ring_spec(h), 2, 2, 1)
        w = exact_clique_number(spec)
        a = exact_independence_number(spec)
        if (w, a) != (want, want):
            msgs.append(f"h={h}: exact (omega, alpha) = ({w}, {a}), expected {want}")
        notes.append(f"h={h} exact omega=alpha={want}")
    rings = [6] if quick else [6, 12]
    for h in rings:
        spec = GraphSpec(ring_spec(h), 2, 2, 1)
        cert = certify_graph_parameters(spec)
        if cert.omega != spec.clique_bound or cert.alpha != spec.independence_bound:
            msgs.append(f"h={h}: certificate does not pin the bounds")
        if cert.chi != cert.omega:
            msgs.append(f"h={h}: chromatic certificate {cert.chi} != clique size {cert.omega}")
        notes.append(
            f"h={h} certified omega=chi={cert.omega}, alpha={cert.alpha}"
            f" ({cert.coloring_verification})"
        )
    return _outcome(msgs, "; ".join(notes))


# ---------------------------------------------------------------------------
# 6. Rank-distance codes meet the size bound with exact distance
# ---------------------------------------------------------------------------

def check_codes(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    cases = [(2, 2, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1), (6, 2, 2, 1), (12, 2, 2, 1), (4, 2, 3, 1)]
    if quick:
        cases = cases[:4]
    notes = []
    for h, m, n, r in cases:
        spec = GraphSpec(ring_spec(h), m, n, r)
        code = mrd_code(spec)
        if code.size != spec.independence_bound:
            msgs.append(f"h={h} {m}x{n}: size {code.size} != {spec.independence_bound}")
        d = code.verified_distance
        if d != r + 1:
            msgs.append(f"h={h} {m}x{n}: distance {d} != {r + 1}")
        notes.append(f"h={h} {m}x{n}: {code.size} words, distance {d}")
    return _outcome(msgs, "; ".join(notes))


# ---------------------------------------------------------------------------
# 7. Coset coloring and complement clique cover
# ---------------------------------------------------------------------------

def check_coloring_and_cover(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    spec6 = GraphSpec(ring_spec(6), 2, 2, 1)
    col = color_graph(spec6, vertex_budget=2000)
    if col.n_colors != 36 or col.verification != "edges":
        msgs.append(f"h=6 coloring: {col.n_colors} colors, {col.verification}")
    cov = clique_cover_complement(spec6, vertex_budget=2000)
    if len(cov.parts) != 36 or any(len(p) != 36 for p in cov.parts):
        msgs.append(f"h=6 cover: {len(cov.parts)} parts")
    notes = ["h=6: 36 colors (every edge decided by its connection element) and a 36-part clique cover"]
    if not quick:
        spec12 = GraphSpec(ring_spec(12), 2, 2, 1)
        col12 = color_graph(spec12)
        if col12.n_colors != 144 or col12.verification != "structural":
            msgs.append(f"h=12 coloring: {col12.n_colors} colors, {col12.verification}")
        notes.append("h=12: 144 colors by code-distance certificate")
    return _outcome(msgs, "; ".join(notes))


# ---------------------------------------------------------------------------
# 8. Maximum cliques classify into the three parameterized forms
# ---------------------------------------------------------------------------

def _enumerated_families() -> list[tuple[GraphSpec, int, list]]:
    """All maximum cliques of the two field cases, with their expected counts."""
    out = []
    for h, count in ((2, 24), (3, 72)):
        spec = GraphSpec(ring_spec(h), 2, 2, 1)
        out.append((spec, count, enumerate_max_cliques(spec)))
    return out


_GENERATION_SCOPES = (
    (6, 2, 2, ((0, 0), (1, 1), (0, 1), (1, 0))),
    (12, 2, 2, ((0, 0), (2, 1), (0, 1), (2, 0))),
    (6, 2, 3, ((0, 0),)),
)


def _generated_families(quick: bool = False):
    """Seeded parameterized maximum cliques: (spec, alpha, expected tag, family)."""
    trials = 10 if quick else 100
    scopes = _GENERATION_SCOPES[:1] if quick else _GENERATION_SCOPES
    out = []
    for h, m, n, alphas in scopes:
        ring = ring_spec(h)
        spec = GraphSpec(ring, m, n, 1)
        for alpha in alphas:
            for seed in range(trials):
                form = random_clique_form(spec, alpha, random.Random(seed))
                out.append((spec, alpha, form_tag(ring, alpha), rebuild_clique(form)))
    return out


def check_classification(quick: bool = False) -> tuple[bool, str]:
    # classify_max_clique rebuilds every form it returns and raises unless the
    # rebuild equals the family, so a classified family has round-tripped
    msgs: list[str] = []
    enumerated = 0
    for spec, count, cliques in _enumerated_families():
        h = spec.ring.h
        if len(cliques) != count:
            msgs.append(f"h={h}: found {len(cliques)} maximum cliques, expected {count}")
        for fam in cliques:
            form = classify_max_clique(spec, fam)
            if form.tag not in (ROW_FORM, COL_FORM):
                msgs.append(f"h={h}: unexpected tag {form.tag} for a field case")
                break
        enumerated += len(cliques)
        if msgs:
            return _outcome(msgs, "")

    round_trips = 0
    for spec, alpha, tag, fam in _generated_families(quick):
        back = classify_max_clique(spec, fam)
        if back.tag != tag:
            msgs.append(f"h={spec.ring.h} alpha={alpha}: tag {back.tag}, expected {tag}")
            return _outcome(msgs, "")
        round_trips += 1
    return _outcome(
        msgs,
        f"{enumerated} enumerated maximum cliques (h=2,3) classified;"
        f" {round_trips} random parameterizations round-tripped",
    )


# ---------------------------------------------------------------------------
# 9. Extremal-bound verification accepts maxima and rejects every extension
# ---------------------------------------------------------------------------

def check_extremal_verification(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []

    # every family from the classification check is accepted and classified
    accepted = 0
    for spec, _, cliques in _enumerated_families():
        for fam in cliques:
            rep = verify_ekr(spec, fam)
            if not (rep.extremal and rep.form is not None):
                msgs.append(f"h={spec.ring.h}: an enumerated maximum clique was refused")
                return _outcome(msgs, "")
            accepted += 1
    for spec, alpha, tag, fam in _generated_families(quick):
        rep = verify_ekr(spec, fam)
        if not (rep.extremal and rep.form is not None and rep.form.tag == tag):
            msgs.append(f"h={spec.ring.h} alpha={alpha}: generated maximum clique refused")
            return _outcome(msgs, "")
        accepted += 1

    def rejects(spec: GraphSpec, family: list[tuple[int, ...]]) -> bool:
        """A family is rejected by the non-intersecting or over-bound route."""
        try:
            return not verify_ekr(spec, family).within_bound
        except NotIntersectingError:
            return True

    spec2 = GraphSpec(ring_spec(2), 2, 2, 1)
    fam2 = build_canonical_clique(CanonicalCliqueSpec(spec2, (0,)))
    base2 = sorted(fam2)
    rejected = 0
    for v in range(spec2.n_vertices):
        x = spec2.vertex_entries(v)
        if x in fam2:
            continue
        if not rejects(spec2, base2 + [x]):
            msgs.append(f"h=2: extension by {x} was not rejected")
            return _outcome(msgs, "")
        rejected += 1

    spec6 = GraphSpec(ring_spec(6), 2, 2, 1)
    fam6 = build_canonical_clique(CanonicalCliqueSpec(spec6, (0, 0)))
    base6 = sorted(fam6)
    rng = random.Random(0)
    sampled = 0
    target = 100 if quick else 1000
    while sampled < target:
        x = random_matrix(spec6.ring, 2, 2, rng).entries
        if x in fam6:
            continue
        if not rejects(spec6, base6 + [x]):
            msgs.append(f"h=6: extension by {x} was not rejected")
            return _outcome(msgs, "")
        sampled += 1
    return _outcome(
        msgs,
        f"{accepted} maximum cliques accepted as extremal and classified;"
        f" every single-matrix extension rejected"
        f" ({rejected} exhaustive over h=2, {sampled} sampled over h=6)",
    )


# ---------------------------------------------------------------------------
# 10. Connectivity and vertex-transitivity
# ---------------------------------------------------------------------------

def check_symmetry(quick: bool = False) -> tuple[bool, str]:
    msgs: list[str] = []
    samples = 100 if quick else 1000
    for h in (2, 3, 6):
        spec = GraphSpec(ring_spec(h), 2, 2, 1)
        if not check_connectivity(spec):
            msgs.append(f"h={h}: graph is not connected")
        if not check_vertex_transitivity(spec, samples=samples, seed=0):
            msgs.append(f"h={h}: a sampled symmetry failed to preserve adjacency")
    return _outcome(
        msgs,
        f"h=2,3,6 connected; {samples} sampled symmetries per ring preserve adjacency",
    )


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

CHECKS: tuple[tuple[int, str, Callable[[bool], tuple[bool, str]]], ...] = (
    (1, "diagonalization-soundness", check_smith_soundness),
    (2, "orbit-census-counts", check_orbit_census),
    (3, "orbit-product-law", check_orbit_product),
    (4, "rank-route-agreement", check_rank_agreement),
    (5, "graph-parameters", check_graph_parameters),
    (6, "rank-distance-codes", check_codes),
    (7, "coloring-and-cover", check_coloring_and_cover),
    (8, "clique-classification", check_classification),
    (9, "extremal-bound-verification", check_extremal_verification),
    (10, "connectivity-and-transitivity", check_symmetry),
)


def run_check(number: int, quick: bool = False) -> CheckResult:
    for num, name, fn in CHECKS:
        if num == number:
            t0 = time.perf_counter()
            try:
                passed, detail = fn(quick)
            except Exception as exc:  # a check must report, not crash the suite
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CheckResult(num, name, passed, detail, time.perf_counter() - t0)
    raise ValueError(f"no check numbered {number}")


def run_all(
    level: str = "desk", only: Iterable[int] | None = None
) -> list[CheckResult]:
    """Run the numbered checks; ``level`` is ``"desk"`` (full) or ``"quick"``; an unknown number is a UsageError."""
    if level not in ("desk", "quick"):
        raise ValueError(f"unknown level {level!r}")
    quick = level == "quick"
    numbers = [num for num, _, _ in CHECKS]
    selected = set(numbers if only is None else only)
    if unknown := selected.difference(numbers):  # raised before any check runs
        raise UsageError(f"no check numbered {min(unknown)}")
    return [run_check(num, quick) for num in numbers if num in selected]

"""Command line interface.

Every subcommand prints a JSON object on stdout (deterministic key order);
``orbits`` can emit CSV instead via ``--format csv``.  Exit codes: 0 on
success, 1 when a verification fails, 2 on usage errors, 3 when a
computation would exceed its budget.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Callable, Sequence

from . import io as rio
from .cliques import (
    CanonicalCliqueSpec,
    CliqueForm,
    build_clique_and_walk,
    charge_clique_build,
    classify_max_clique,
    is_clique,
    verify_ekr,
)
from .codes import (
    RankCode,
    certify_graph_parameters,
    clique_cover_complement,
    color_graph,
    mrd_code,
    verify_distance,
)
from .errors import (
    DEFAULT_ENUMERATION_BUDGET,
    DEFAULT_EXACT_SEARCH_BUDGET,
    DEFAULT_FACTOR_SEARCH_BUDGET,
    DEFAULT_PAIR_BUDGET,
    DEFAULT_VERTEX_BUDGET,
    BudgetExceededError,
    NotIntersectingError,
    UsageError,
    VerificationError,
    charge,
    power_exceeds,
)
from .graph import (
    GraphSpec,
    build_graph,
    check_connectivity,
    check_vertex_transitivity,
    exact_clique_number,
    exact_independence_number,
    sandwich_inequality,
    search_through_zero,
)
from .matrix import Mat
from .orbits import census_by_enumeration, expected_label_count, verify_orbit_product
from .oracle import inner_rank_by_factorization, omega_via_minors
from .ring import RingSpec, ring_spec
from .smith import inner_rank, invariant_factors, rank_via_projections, snf, verify_smith_form


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

_dumps = rio.dumps_compact


def _emit(obj: Any) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


def _mat_rows(mat: Mat | None) -> list[list[int]] | None:
    return None if mat is None else mat.to_rows()


def _form_obj(form: CliqueForm) -> dict[str, Any]:
    return {"tag": form.tag, "alpha": list(form.alpha), "S": _mat_rows(form.S), "T": _mat_rows(form.T),
            "B0": _mat_rows(form.B0)}


def _resolve_seed(args: argparse.Namespace, randomized: bool) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        if randomized:
            print("note: --seed not given; using seed 0", file=sys.stderr)
        return 0
    return seed


def _read_matrix(args: argparse.Namespace) -> Mat:
    path = args.matrix
    if path.endswith(".csv"):
        if args.h is None or args.rows is None or args.cols is None:
            raise UsageError("CSV matrix input needs --h, --rows and --cols")
        mats = rio.load_matrices_csv(path, args.h, args.rows, args.cols)
        if len(mats) != 1:
            raise UsageError(f"{path} holds {len(mats)} matrices; expected exactly one")
        return mats[0]
    return rio.load_matrix(path, expect_h=args.h)


def _graph_spec(args: argparse.Namespace) -> GraphSpec:
    return GraphSpec(ring_spec(args.h), args.m, args.n, args.r)


def _parse_alpha(ring: RingSpec, text: str) -> tuple[int, ...]:
    try:
        alpha = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--alpha must be comma-separated integers, got {text!r}")
    if len(alpha) != ring.t:
        raise UsageError(
            f"--alpha needs one exponent per prime component ({ring.t}), got {len(alpha)}"
        )
    return alpha


def _write_or_emit(args: argparse.Namespace, obj: Any) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(_dumps(obj) + "\n")
        _emit({"written": out})
    else:
        _emit(obj)


def _emit_with_out(args: argparse.Namespace, obj: dict[str, Any], key: str, value: Callable[[], Any]) -> None:
    """Emit obj; with --out, first write obj plus key: value() there and name the file in obj."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dumps({**obj, key: value()}) + "\n")
        obj["written"] = args.out
    _emit(obj)


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h", type=int, required=True, help="ring modulus")
    p.add_argument("--m", type=int, required=True, help="matrix rows")
    p.add_argument("--n", type=int, required=True, help="matrix cols")
    p.add_argument("--r", type=int, required=True, help="adjacency radius (1 <= r <= m <= n)")


def _add_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True, help="matrix file (JSON, or CSV with --rows/--cols)")
    p.add_argument("--h", type=int, default=None, help="ring modulus (required for CSV input)")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)


def _add_common(p: argparse.ArgumentParser, default: int | None) -> None:
    p.add_argument("--budget", type=int, default=default,
                   help="work cap for this command (see --help of the command)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_snf(args: argparse.Namespace) -> int:
    a = _read_matrix(args)
    f = snf(a)
    verify_smith_form(a, f)
    _emit({
        "h": a.ring.h,
        "rows": a.rows,
        "cols": a.cols,
        "S": _mat_rows(f.S),
        "D": _mat_rows(f.D),
        "T": _mat_rows(f.T),
        "omega": [list(row) for row in f.omega.omega],
        "diagonal": list(f.omega.diagonal_values()),
        "inner_rank": f.inner_rank,
    })
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    a = _read_matrix(args)
    rp = rank_via_projections(a)
    _emit({
        "h": a.ring.h,
        "rows": a.rows,
        "cols": a.cols,
        "inner_rank": inner_rank(a),
        "via_components": rp.via_pi,
        "via_quotients": rp.via_theta,
        "omega": [list(row) for row in invariant_factors(a).omega],
    })
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    ring = ring_spec(args.h)
    prod = verify_orbit_product(ring, args.m, args.n, args.budget) if args.verify_product else None
    rep = prod.census if prod else census_by_enumeration(ring, args.m, args.n, args.budget)
    bad = prod.first_violation() if prod else None  # (label, length, component lengths, their product)
    if args.format == "csv":
        text = {label: "|".join(" ".join(str(x) for x in row) for row in label) for label, _ in rep.entries}
        if bad:  # CSV has no field for the violation
            raise VerificationError(f"label {text[bad[0]]} has length {bad[1]}, not the product {bad[3]}"
                                    f" of its component lengths {list(bad[2])}")
        sys.stdout.write("label,length\n")
        for label, length in rep.entries:
            sys.stdout.write(f"{text[label]},{length}\n")
        return 0
    obj: dict[str, Any] = {
        "h": args.h,
        "m": args.m,
        "n": args.n,
        "total": rep.total,
        "label_count": rep.label_count,
        "expected_label_count": expected_label_count(ring, args.m, args.n),
        "labels": [
            {"omega": [list(row) for row in label], "length": length}
            for label, length in rep.entries
        ],
    }
    if prod is not None:
        obj["product_ok"] = prod.ok
        if bad:
            label, length, comps, expect = bad
            obj["product_violation"] = {
                "omega": [list(row) for row in label],
                "length": length,
                "component_lengths": list(comps),
                "product": expect,
            }
    _emit(obj)
    return 1 if bad else 0


def cmd_graph_stats(args: argparse.Namespace) -> int:
    spec = _graph_spec(args)
    budget = args.budget if args.budget is not None else DEFAULT_VERTEX_BUDGET
    if args.transitivity_samples < 0:
        raise UsageError("--transitivity-samples must be >= 0")
    charge("transitivity samples", args.transitivity_samples, budget)
    obj: dict[str, Any] = {"h": args.h, "m": args.m, "n": args.n, "r": args.r}
    if args.connectivity:
        obj["connected"] = check_connectivity(spec)
    if args.exact:
        search_budget = args.budget if args.budget is not None else DEFAULT_EXACT_SEARCH_BUDGET
        obj["omega"] = exact_clique_number(spec, search_budget)
        obj["alpha"] = exact_independence_number(spec, search_budget)
        obj["chi"] = color_graph(spec, search_budget).n_colors
        obj["method"] = "exact-search"
    else:
        cert = certify_graph_parameters(spec, budget, DEFAULT_PAIR_BUDGET if args.budget is None else args.budget)
        obj["omega"] = cert.omega
        obj["alpha"] = cert.alpha
        obj["chi"] = cert.chi
        obj["method"] = "certificate"
        obj["code_distance"] = rio.distance_value(cert.code_distance)
        obj["coloring_verification"] = cert.coloring_verification
    # both routes above passed their budgets, so h**(m*n) is small enough to form
    obj["vertices"] = spec.n_vertices
    obj["sandwich_tight"] = sandwich_inequality(spec).tight
    if spec.n_vertices <= budget:
        obj["degree"] = build_graph(spec, vertex_budget=budget).degree
    if args.transitivity_samples:
        seed = _resolve_seed(args, randomized=True)
        obj["transitivity_ok"] = check_vertex_transitivity(
            spec, samples=args.transitivity_samples, seed=seed
        )
    _emit(obj)
    return 0


def cmd_build_clique(args: argparse.Namespace) -> int:
    spec = _graph_spec(args)
    ring = spec.ring
    alpha = _parse_alpha(ring, args.alpha)
    cspec = CanonicalCliqueSpec(spec, alpha)
    charge_clique_build(spec, args.budget)
    s_mat = rio.load_matrix(args.S, expect_h=args.h) if args.S else None
    t_mat = rio.load_matrix(args.T, expect_h=args.h) if args.T else None
    b0 = rio.load_matrix(args.B0, expect_h=args.h) if args.B0 else None
    if s_mat is not None:
        if s_mat.rows != spec.m or s_mat.cols != spec.m or not s_mat.is_invertible():
            raise UsageError("--S must be an invertible m x m matrix")
    if t_mat is not None:
        if t_mat.rows != spec.n or t_mat.cols != spec.n or not t_mat.is_invertible():
            raise UsageError("--T must be an invertible n x n matrix")
    if b0 is not None:
        if b0.rows != spec.m or b0.cols != spec.n:
            raise UsageError("--B0 must be an m x n matrix")
    family, walk = build_clique_and_walk(cspec, s_mat, t_mat, b0)
    if not is_clique(spec, family, args.budget, walk):
        raise VerificationError("built family is not a clique")
    obj = rio.family_to_obj(ring, spec.m, spec.n, family, {
        "r": spec.r,
        "alpha": list(alpha),
        "size": len(family),
        "bound": spec.clique_bound,
    })
    _write_or_emit(args, obj)
    return 0


def cmd_classify_clique(args: argparse.Namespace) -> int:
    ring, rows, cols, members, _ = rio.load_family(args.family, expect_h=args.h)
    spec = GraphSpec(ring, rows, cols, args.r)
    form = classify_max_clique(spec, members)
    _emit({"h": ring.h, "m": rows, "n": cols, "r": args.r, "size": len(members), **_form_obj(form)})
    return 0


def cmd_verify_ekr(args: argparse.Namespace) -> int:
    ring, rows, cols, members, _ = rio.load_family(args.family, expect_h=args.h)
    spec = GraphSpec(ring, rows, cols, args.r)
    try:
        rep = verify_ekr(spec, members, args.budget)
    except NotIntersectingError as exc:
        _emit({
            "intersecting": False,
            "size": len(members),
            "bound": spec.clique_bound,
            "reason": str(exc),
        })
        return 1
    _emit({
        "intersecting": True,
        "size": rep.size,
        "bound": rep.bound,
        "within_bound": rep.within_bound,
        "extremal": rep.extremal,
        "form": None if rep.form is None else _form_obj(rep.form),
    })
    return 0


def cmd_build_mrd(args: argparse.Namespace) -> int:
    spec = _graph_spec(args)
    code = mrd_code(spec, args.budget)
    obj = rio.code_to_obj(code, code.verified_distance)
    obj["r"] = spec.r
    obj["bound"] = spec.independence_bound
    _write_or_emit(args, obj)
    return 0


def cmd_verify_code(args: argparse.Namespace) -> int:
    ring, rows, cols, members, _ = rio.load_family(args.family, expect_h=args.h)
    # metadata is not trusted: the family is checked as a plain set of words
    code = RankCode(ring, rows, cols, frozenset(members), args.d, False, None)
    computed = verify_distance(code, args.budget)
    meets = computed >= args.d
    _emit({
        "h": ring.h,
        "rows": rows,
        "cols": cols,
        "size": len(members),
        "d": args.d,
        "computed_min_distance": rio.distance_value(computed),
        "meets": meets,
        "exact": computed == args.d,
    })
    return 0 if meets else 1


def cmd_color(args: argparse.Namespace) -> int:
    spec = _graph_spec(args)
    if args.samples < 0:
        raise UsageError("--samples must be >= 0")
    if args.out:
        charge("vertices", (spec.ring.h, spec.m * spec.n), args.budget)
    sampled = power_exceeds(spec.ring.h, spec.m * spec.n, args.budget)
    if sampled:  # above the vertex budget the pairs are checked one by one
        charge("sampled pairs", args.samples, args.budget)
    seed = _resolve_seed(args, randomized=sampled)
    col = color_graph(spec, vertex_budget=args.budget, sample_seed=seed, samples=args.samples)
    obj = {
        "h": args.h,
        "m": args.m,
        "n": args.n,
        "r": args.r,
        "vertices": spec.n_vertices,
        "n_colors": col.n_colors,
        "verification": col.verification,
    }
    _emit_with_out(args, obj, "colors", lambda: [col.color_of(v) for v in range(spec.n_vertices)])
    return 0


def cmd_cover_complement(args: argparse.Namespace) -> int:
    spec = _graph_spec(args)
    cov = clique_cover_complement(spec, vertex_budget=args.budget)
    sizes = sorted({len(p) for p in cov.parts})
    obj: dict[str, Any] = {
        "h": spec.ring.h,
        "m": spec.m,
        "n": spec.n,
        "r": spec.r,
        "vertices": spec.n_vertices,
        "parts": len(cov.parts),
        "part_sizes": sizes,
        "partition": True,
    }
    _emit_with_out(args, obj, "families", lambda: [rio.family_rows(spec.n, sorted(part)) for part in cov.parts])
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    which = args.oracle_cmd
    if which == "omega":
        a = _read_matrix(args)
        _emit({
            "h": a.ring.h,
            "omega": [list(row) for row in omega_via_minors(a)],
        })
        return 0
    if which == "rank":
        a = _read_matrix(args)
        _emit({
            "h": a.ring.h,
            "inner_rank": inner_rank_by_factorization(a, args.budget),
        })
        return 0
    # exact clique / independent-set search through vertex 0
    spec = _graph_spec(args)
    ids = search_through_zero(spec, which == "mis", args.budget)
    _emit({
        "h": args.h,
        "m": args.m,
        "n": args.n,
        "r": args.r,
        "kind": which,
        "size": len(ids),
        "vertex_ids": sorted(ids),
    })
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_all

    only = set(args.only) if args.only else None
    results = run_all(level=args.level, only=only)
    for res in results:
        print(res.line)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # built on the first main() call, then shared by every later call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringmat",
        description="Matrices over residue class rings: diagonal forms, orbit"
                    " censuses, low-rank-difference graphs, extremal cliques,"
                    " and rank-distance codes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", help="diagonalize a matrix (A = S D T)")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("rank", help="inner rank; via_components and via_quotients restate it by the CRT")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("orbits", help="orbit census over all m x n matrices")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify-product", action="store_true",
                   help="also check lengths against the per-component product")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, DEFAULT_ENUMERATION_BUDGET)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("graph-stats", help="graph parameters (certified or exact)")
    _add_graph_args(p)
    p.add_argument("--exact", action="store_true",
                   help="use exhaustive search instead of certificates (small graphs)")
    p.add_argument("--connectivity", action="store_true")
    p.add_argument("--transitivity-samples", type=int, default=0, metavar="K",
                   help="check K >= 0 sampled symmetries preserve adjacency; K is charged against --budget")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p, None)
    p.set_defaults(func=cmd_graph_stats)

    p = sub.add_parser("build-clique", help="build a maximum clique from parameters")
    _add_graph_args(p)
    p.add_argument("--alpha", required=True,
                   help="comma-separated ideal exponents, one per prime component")
    p.add_argument("--S", default=None, help="optional invertible m x m matrix file")
    p.add_argument("--T", default=None, help="optional invertible n x n matrix file")
    p.add_argument("--B0", default=None, help="optional m x n shift matrix file")
    p.add_argument("--out", default=None, help="write the family JSON here instead of stdout")
    _add_common(p, DEFAULT_PAIR_BUDGET)
    p.set_defaults(func=cmd_build_clique)

    p = sub.add_parser("classify-clique", help="recover parameters from a maximum clique")
    p.add_argument("--family", required=True, help="family file (JSON)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=int, default=None, help="consistency check against the file")
    p.set_defaults(func=cmd_classify_clique)

    p = sub.add_parser("verify-ekr", help="check a family against the extremal bound")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=int, default=None)
    _add_common(p, DEFAULT_PAIR_BUDGET)
    p.set_defaults(func=cmd_verify_ekr)

    p = sub.add_parser("build-mrd", help="build a maximum rank-distance code")
    _add_graph_args(p)
    p.add_argument("--out", default=None)
    _add_common(p, DEFAULT_PAIR_BUDGET)
    p.set_defaults(func=cmd_build_mrd)

    p = sub.add_parser("verify-code", help="exhaustively verify a code's minimum distance")
    p.add_argument("--family", required=True)
    p.add_argument("--d", type=int, required=True, help="required minimum distance")
    p.add_argument("--h", type=int, default=None)
    _add_common(p, DEFAULT_PAIR_BUDGET)
    p.set_defaults(func=cmd_verify_code)

    p = sub.add_parser("color", help="proper coloring by code cosets")
    _add_graph_args(p)
    p.add_argument("--samples", type=int, default=1000,
                   help="sampled pair checks when the graph exceeds the budget")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the full color map here")
    _add_common(p, DEFAULT_VERTEX_BUDGET)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("cover-complement", help="partition the vertices into cliques")
    _add_graph_args(p)
    p.add_argument("--out", default=None, help="write the parts here")
    _add_common(p, DEFAULT_VERTEX_BUDGET)
    p.set_defaults(func=cmd_cover_complement)

    p = sub.add_parser("oracle", help="independent slow reference computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name, needs_matrix in (("omega", True), ("rank", True),
                               ("clique", False), ("mis", False)):
        q = osub.add_parser(name)
        (_add_matrix_args if needs_matrix else _add_graph_args)(q)
        if name != "omega":
            _add_common(q, DEFAULT_FACTOR_SEARCH_BUDGET if name == "rank" else DEFAULT_EXACT_SEARCH_BUDGET)
        q.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.add_argument("--level", choices=("desk", "quick"), default="desk")
    p.add_argument("--only", type=int, nargs="*", default=None,
                   help="run only these check numbers")
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if (getattr(args, "budget", None) or 0) < 0:  # before any work, for every --budget
            raise UsageError("--budget must be >= 0")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

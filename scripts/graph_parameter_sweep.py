#!/usr/bin/env python3
"""Graph parameter sweep.

For each (h, m, n, r) configuration, builds certificates for the graph on
all m x n matrices over Z_h where two matrices are adjacent when their
difference has inner rank between 1 and r: clique number, independence
number, and chromatic number (all equal to h**(n*r) when the sandwich
chain is tight), connectivity from the unit-matrix witness, degree when
the graph is small enough to materialize, and an exhaustive cross-check on
tiny graphs.

Example:
    python3 scripts/graph_parameter_sweep.py --configs 2,2,2,1 6,2,2,1 12,2,2,1
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from ringmat import (
    GraphSpec,
    build_graph,
    certify_graph_parameters,
    check_connectivity,
    check_vertex_transitivity,
    exact_clique_number,
    exact_independence_number,
    ring_spec,
    sandwich_inequality,
)


@dataclass(frozen=True)
class SweepConfig:
    configs: tuple[tuple[int, int, int, int], ...] = (
        (2, 2, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1), (6, 2, 2, 1), (12, 2, 2, 1),
    )
    vertex_budget: int = 10**4
    exact_budget: int = 256
    transitivity_samples: int = 500
    seed: int = 0


def parse_config(text: str) -> tuple[int, int, int, int]:
    try:
        h, m, n, r = (int(p) for p in text.split(","))
    except ValueError:
        raise SystemExit(f"bad config {text!r}; expected h,m,n,r")
    return h, m, n, r


def sweep(config: SweepConfig) -> int:
    failures = 0
    print(f"{'graph':>14} {'vertices':>9} {'degree':>7} {'omega':>6} "
          f"{'alpha':>6} {'chi':>6} {'tight':>6} {'conn':>5} {'vtx-trans':>9}")
    for h, m, n, r in config.configs:
        spec = GraphSpec(ring_spec(h), m, n, r)
        t0 = time.perf_counter()
        cert = certify_graph_parameters(spec, vertex_budget=config.vertex_budget)
        tight = sandwich_inequality(spec).tight
        small = spec.n_vertices <= config.vertex_budget
        degree = build_graph(spec, vertex_budget=config.vertex_budget).degree if small else None
        connected = check_connectivity(spec)
        transitive = check_vertex_transitivity(
            spec, samples=config.transitivity_samples, seed=config.seed
        )
        dt = time.perf_counter() - t0
        name = f"Z_{h} {m}x{n} r={r}"
        print(f"{name:>14} {spec.n_vertices:>9} "
              f"{degree if degree is not None else '-':>7} "
              f"{cert.omega:>6} {cert.alpha:>6} {cert.chi:>6} "
              f"{str(tight):>6} "
              f"{str(connected):>5} "
              f"{str(transitive):>9}   ({dt:.2f}s)")
        if not (cert.omega == cert.chi == spec.clique_bound):
            print(f"  !! certificate does not pin chi for {name}")
            failures += 1
        if not transitive:
            print(f"  !! sampled symmetry broke adjacency for {name}")
            failures += 1
        if spec.n_vertices <= config.exact_budget:
            w = exact_clique_number(spec, config.exact_budget)
            a = exact_independence_number(spec, config.exact_budget)
            status = "ok" if (w, a) == (cert.omega, cert.alpha) else "MISMATCH"
            print(f"{'':>14} exhaustive search: omega={w} alpha={a} ({status})")
            if status != "ok":
                failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    default = SweepConfig()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", type=parse_config, nargs="+",
                    default=list(default.configs), metavar="h,m,n,r")
    ap.add_argument("--vertex-budget", type=int, default=default.vertex_budget)
    ap.add_argument("--transitivity-samples", type=int,
                    default=default.transitivity_samples)
    ap.add_argument("--seed", type=int, default=default.seed)
    args = ap.parse_args(argv)
    config = SweepConfig(
        configs=tuple(args.configs),
        vertex_budget=args.vertex_budget,
        exact_budget=default.exact_budget,
        transitivity_samples=args.transitivity_samples,
        seed=args.seed,
    )
    failures = sweep(config)
    if failures:
        print(f"\n{failures} cross-check(s) failed", file=sys.stderr)
        return 1
    print("\nall cross-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Extremal family workout.

Round-trips the structure theory for maximum pairwise low-rank-difference
families over one ring: builds the canonical clique for every admissible
exponent pattern, disguises each with random invertible row/column
transforms and a random shift, recovers the parameterization by
classification, and checks the rebuilt family is identical.  Then builds
the matching maximum rank-distance code, verifies its minimum distance
exhaustively, and uses its cosets to color the graph.

Example:
    python3 scripts/extremal_family_demo.py --h 6 --trials 10 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from itertools import product

from ringmat import (
    CanonicalCliqueSpec,
    GraphSpec,
    build_canonical_clique,
    classify_max_clique,
    color_graph,
    mrd_code,
    random_clique_form,
    rebuild_clique,
    ring_spec,
    verify_ekr,
)


@dataclass(frozen=True)
class DemoConfig:
    h: int = 6
    m: int = 2
    n: int = 2
    r: int = 1
    trials: int = 10
    seed: int = 0
    vertex_budget: int = 10**4


def run(config: DemoConfig) -> int:
    ring = ring_spec(config.h)
    spec = GraphSpec(ring, config.m, config.n, config.r)
    failures = 0
    print(f"ring Z_{config.h}, {config.m}x{config.n} matrices, radius r={config.r}; "
          f"maximum family size {spec.clique_bound}")

    # every admissible exponent pattern: 0 or s_i per prime; a nonzero
    # pattern needs square matrices
    patterns = [
        alpha for alpha in product(*[(0, s) for _, s in ring.primes])
        if config.m == config.n or all(a == 0 for a in alpha)
    ]
    print(f"\ncanonical families ({len(patterns)} exponent patterns):")
    for alpha in patterns:
        fam = build_canonical_clique(CanonicalCliqueSpec(spec, alpha))
        rep = verify_ekr(spec, fam)
        tag = rep.form.tag if rep.form is not None else "-"
        print(f"  alpha={alpha}: size {rep.size} of bound {rep.bound}, "
              f"extremal={rep.extremal}, recovered form {tag}")
        if not rep.extremal or rep.form is None:
            failures += 1

    rng = random.Random(config.seed)
    print(f"\n{config.trials} disguised families (seed {config.seed}):")
    t0 = time.perf_counter()
    for trial in range(config.trials):
        form = random_clique_form(spec, rng.choice(patterns), rng)
        fam = rebuild_clique(form)
        recovered = classify_max_clique(spec, fam)
        rebuilt = rebuild_clique(recovered)
        ok = rebuilt == fam and recovered.tag == form.tag
        print(f"  trial {trial}: planted {form.tag} alpha={form.alpha} -> "
              f"recovered {recovered.tag} alpha={recovered.alpha} "
              f"{'(round trip exact)' if ok else '!! MISMATCH'}")
        if not ok:
            failures += 1
    print(f"  ({time.perf_counter() - t0:.2f}s)")

    code = mrd_code(spec)
    dist = code.verified_distance
    print(f"\nrank-distance code: {code.size} words "
          f"(bound {spec.independence_bound}), verified minimum distance {dist}")
    if code.size != spec.independence_bound or dist != spec.r + 1:
        failures += 1

    col = color_graph(spec, vertex_budget=config.vertex_budget,
                      sample_seed=config.seed)
    print(f"coset coloring: {col.n_colors} colors "
          f"(= clique number), verification mode {col.verification!r}")
    if col.n_colors != spec.clique_bound:
        failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    default = DemoConfig()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h", type=int, default=default.h)
    ap.add_argument("--m", type=int, default=default.m)
    ap.add_argument("--n", type=int, default=default.n)
    ap.add_argument("--r", type=int, default=default.r)
    ap.add_argument("--trials", type=int, default=default.trials)
    ap.add_argument("--seed", type=int, default=default.seed)
    args = ap.parse_args(argv)
    config = DemoConfig(h=args.h, m=args.m, n=args.n, r=args.r,
                        trials=args.trials, seed=args.seed)
    failures = run(config)
    if failures:
        print(f"\n{failures} check(s) failed", file=sys.stderr)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Orbit census report.

Enumerates all m x n matrices over Z_h for a sweep of moduli and shapes,
groups them by equivalence class (A ~ S A T for invertible S, T), and
prints one table per configuration: the invariant-factor label of each
orbit, its length, and cross-checks (label-count formula, total count,
and the per-component product law for composite moduli).

Example:
    python3 scripts/orbit_census_report.py --moduli 4 6 12 --shapes 2x2 2x3
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from ringmat import (
    census_by_enumeration,
    expected_label_count,
    ring_spec,
    verify_orbit_product,
)


@dataclass(frozen=True)
class CensusConfig:
    moduli: tuple[int, ...] = (4, 6, 12)
    shapes: tuple[tuple[int, int], ...] = ((2, 2), (2, 3))
    budget: int = 10**7
    check_product: bool = True


def parse_shape(text: str) -> tuple[int, int]:
    try:
        m, n = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise SystemExit(f"bad shape {text!r}; expected like 2x3")
    if not (1 <= m <= n):
        raise SystemExit(f"bad shape {text!r}; need 1 <= rows <= cols")
    return m, n


def label_text(label: tuple[tuple[int, ...], ...]) -> str:
    return " | ".join(" ".join(str(x) for x in row) for row in label)


def report(config: CensusConfig) -> int:
    failures = 0
    for h in config.moduli:
        ring = ring_spec(h)
        for m, n in config.shapes:
            t0 = time.perf_counter()
            product_check = config.check_product and ring.t > 1
            if product_check:  # the product report carries the census of Z_h
                prod = verify_orbit_product(ring, m, n, config.budget)
                rep = prod.census
            else:
                rep = census_by_enumeration(ring, m, n, config.budget)
            dt = time.perf_counter() - t0
            expected = expected_label_count(ring, m, n)
            print(f"\n== Z_{h}, {m}x{n} matrices "
                  f"({rep.total} total, {rep.label_count} orbits, {dt:.2f}s) ==")
            width = max(len(label_text(lbl)) for lbl, _ in rep.entries)
            print(f"  {'invariant exponents':<{width}}   length")
            for label, length in rep.entries:
                print(f"  {label_text(label):<{width}}   {length}")
            if rep.label_count != expected:
                print(f"  !! label count {rep.label_count} != formula {expected}")
                failures += 1
            if sum(length for _, length in rep.entries) != rep.total:
                print("  !! orbit lengths do not sum to the total")
                failures += 1
            if product_check:
                if prod.ok:
                    print("  product law: every orbit length equals the product"
                          " of its component orbit lengths")
                else:
                    print(f"  !! product law violated: {prod.first_violation()}")
                    failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    default = CensusConfig()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--moduli", type=int, nargs="+", default=list(default.moduli))
    ap.add_argument("--shapes", type=parse_shape, nargs="+",
                    default=list(default.shapes), metavar="MxN")
    ap.add_argument("--budget", type=int, default=default.budget,
                    help="max matrices to enumerate per configuration")
    ap.add_argument("--no-product-check", action="store_true")
    args = ap.parse_args(argv)
    config = CensusConfig(
        moduli=tuple(args.moduli),
        shapes=tuple(args.shapes),
        budget=args.budget,
        check_product=not args.no_product_check,
    )
    failures = report(config)
    if failures:
        print(f"\n{failures} cross-check(s) failed", file=sys.stderr)
        return 1
    print("\nall cross-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

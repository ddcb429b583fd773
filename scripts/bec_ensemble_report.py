#!/usr/bin/env python3
"""Verify the index equality over seeded random ensembles and print a summary table.

For each (dim_v, range) combination this draws gapped graded models, computes
the winding by phase unwrapping and root counting, the edge index by the
truncated route and by the companion route, and tallies agreement.  The
singular column counts draws with a singular leading hop, which both routes
handle.

Usage: python scripts/bec_ensemble_report.py [--count 200] [--seed 1000]
"""

import argparse
import time

from chiraledge.verify import (
    EnsembleSpec,
    has_singular_leading_hop,
    random_chiral_ensemble,
    verify_bec,
)

COMBOS = [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--gap-floor", type=float, default=0.05)
    args = parser.parse_args()

    print(f"{'dim_v':>5} {'range':>5} {'models':>6} {'equal':>6} {'routes':>7} {'singular':>8} {'time':>7}")
    failures = 0
    for offset, (dim_v, hop_range) in enumerate(COMBOS, start=1):
        spec = EnsembleSpec(
            seed=args.seed + offset,
            count=args.count,
            dim_v=dim_v,
            hop_range=hop_range,
            gap_floor=args.gap_floor,
        )
        start = time.perf_counter()
        models = random_chiral_ensemble(spec)
        equal = routes = singular = 0
        for cm in models:
            case = verify_bec(cm)
            equal += case.verdicts["bec_equality"].status == "pass"
            routes += case.verdicts["route_agreement"].status == "pass"
            singular += has_singular_leading_hop(cm)
        elapsed = time.perf_counter() - start
        failures += (equal != len(models)) + (routes != len(models))
        print(
            f"{dim_v:>5} {hop_range:>5} {len(models):>6} {equal:>6} {routes:>7} "
            f"{singular:>8} {elapsed:>6.1f}s"
        )
    if failures:
        print(f"{failures} combination(s) had disagreements")
        return 1
    print("all models: edge index equals winding; the two routes agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())

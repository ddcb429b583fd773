#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads ensemble sweep deform \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 20] [--trace 0] [--out FILE]

One run per (workload, seed), one after another.  For every metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median; with --out it also writes every run's result as
JSON.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=["ensemble", "sweep", "deform"])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    args = p.parse_args()

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            print(f"{workload} seed {seed}: " + json.dumps(result), file=sys.stderr, flush=True)

    print(f"{'workload':<10}{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}  failed/attempted")
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        share = {(r["failed"], r["attempted"]) for r in mine}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:<10}{name:<34}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.2%}  {sorted(share)}")
        if not all(r["correct"] for r in mine):
            print(f"{workload}: some runs were not correct")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of chiraledge: one workload, one seed, one process.

    python3 perfbench/run.py --workload {ensemble,sweep,deform} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(setup_s, items_per_s, peak_rss_mb); with --trace 1 they are the per-layer
ones, from spans recorded around the package's public functions, plus the
tracing overhead.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before numpy loads: on small matrices two
# OpenBLAS threads contend with each other and make timings jump.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUPS = 3  # setup_s is the median of this many fresh-process set-ups


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["ensemble", "sweep", "deform"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print {setup_s} and exit")
    return p.parse_args(argv)


def _make(name: str, seed: int):
    import workloads

    cls = workloads.WORKLOADS[name]
    return cls(seed, RUNS) if name == "sweep" else cls(seed)


def _timed_window(wl, seconds: float, tally, rec=None):
    """Whole passes until the window is as near `seconds` as whole passes get.

    Returns (items per second, items done).  Items per second is the items of
    one pass over the pass time with contention removed: the sum, over the
    pass's calls, of each call's fastest time across the passes.  Contention
    on a shared machine only ever adds time (here the same work runs up to
    25% slower for stretches of several seconds), so each call's minimum is
    its uncontended time.  At least 3 passes are run.  Checking outputs
    happens between passes and is not timed.
    """
    passes = []
    while True:
        mark = None
        if rec is not None:
            run = len(passes)

            def mark(i, run=run):
                rec.item = f"{run}:{i}"

        outputs, times = wl.run_pass(mark)
        passes.append(times)
        wl.check(outputs, tally)
        total = sum(map(sum, passes))
        if len(passes) >= 3 and total + 0.5 * total / len(passes) >= seconds:
            break
    uncontended_pass = sum(min(call) for call in zip(*passes))
    return wl.items_per_pass / uncontended_pass, wl.items_per_pass * len(passes)


def _child_setup(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "chiraledge" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/chiraledge; run inside a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import chiraledge

    if Path(chiraledge.__file__).resolve().parent != (SRC / "chiraledge").resolve():
        print(f"error: imported chiraledge from {chiraledge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracle
    import spans

    RUNS.mkdir(exist_ok=True)
    tracer = spans.build_tracer() if args.trace else None
    setup_rec = spans.Recorder()
    if tracer:
        tracer.recorder = setup_rec
        tracer.install()
    wl = _make(args.workload, args.seed)
    wl.setup()
    wl.warm_up()
    if not wl.self_test():
        print("error: self-test: a deliberately wrong answer was not counted as failed", file=sys.stderr)
        return 3
    if tracer:
        tracer.uninstall()
        tracer.recorder = None
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = oracle.Tally()
    if not args.trace:
        items_per_s, _ = _timed_window(wl, args.seconds, tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [_child_setup(args) for _ in range(SETUPS - 1)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (items_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        # Untraced then traced halves of the window: their ratio is the overhead.
        untraced, _ = _timed_window(wl, 0.5 * args.seconds, tally)
        window_rec = spans.Recorder()
        tracer.recorder = window_rec
        tracer.install()
        traced, traced_items = _timed_window(wl, 0.5 * args.seconds, tally, window_rec)
        tracer.uninstall()
        tracer.recorder = None
        metrics = spans.layer_metrics(setup_rec, window_rec, traced_items)
        metrics["trace.items_per_s"] = (traced, "1/s")
        metrics["trace.untraced_items_per_s"] = (untraced, "1/s")
        metrics["trace.overhead"] = (untraced / traced, "ratio")
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace_path.write_text("")
        setup_rec.write(trace_path, "setup")
        window_rec.write(trace_path, "window")

    if tally.wrong:
        print(f"error: {tally.wrong} wrong answer(s); first: {tally.first_error}", file=sys.stderr)
    elif tally.failed:
        print(f"note: {tally.failed} refused operation(s); first: {tally.first_error}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

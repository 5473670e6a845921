"""Benchmark child: imports vlcsim, then runs one workload in a closed loop.

Run from the root of a vlcsim source tree. It prints `ready` as soon as
`import vlcsim` has returned (the parent times set-up up to that line), then
calls `vlcsim.cli.main` once per invocation, each call starting after the
previous one returned, and prints one JSON line with the raw measurements.

    python3 bench/child.py --setup-only
    python3 bench/child.py --workload zf-area --seed 1 --seconds 10 --trace 0 --out DIR
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import vlcsim  # noqa: E402  (set-up ends when this import returns)

print("ready", flush=True)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_passes(argv_passes, out_dir, golden, main, tr=None):
    """Run each pass; returns (pass wall times, latencies, bytes per pass, failures)."""
    walls, latencies, nbytes, failures = [], [], [], []
    for argvs in argv_passes:
        wall = written = 0
        for argv in argvs:
            if tr is not None:
                tr.invocation += 1
            outcome = workloads.invoke(main, argv, out_dir, golden)
            wall += outcome.seconds
            written += outcome.bytes_written
            latencies.append(outcome.seconds)
            if not outcome.ok:
                failures.append(f"{outcome.reason}: {workloads.key(argv)}")
        walls.append(wall)
        nbytes.append(written)
    return walls, latencies, nbytes, failures


def timed_passes(workload, seed, seconds, out_dir, golden, main):
    """Run whole passes until `seconds` have elapsed (at least one pass)."""
    passes, walls, latencies, nbytes, failures = [], [], [], [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        argvs = workloads.make_pass(workload, seed, len(passes))
        w, lat, nb, fail = run_passes([argvs], out_dir, golden, main)
        passes.append(argvs)
        walls += w
        latencies += lat
        nbytes += nb
        failures += fail
    return passes, walls, latencies, nbytes, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--spans", help="file to write the traced spans to (.npz)")
    args = parser.parse_args()
    if args.setup_only:
        return 0

    from vlcsim import cli

    golden = workloads.load_golden()
    os.makedirs(args.out, exist_ok=True)
    # Untraced passes. A traced run replays them traced, which takes up to
    # 1.5 times as long, so they get 40% of the time; they are the
    # reference for the tracing overhead.
    budget = 0.4 * args.seconds if args.trace else args.seconds
    passes, walls, latencies, nbytes, failures = timed_passes(
        args.workload, args.seed, budget, args.out, golden, cli.main)
    result = {
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "vlcsim": vlcsim.__version__},
        "passes": len(passes),
        "pass_walls_s": walls,
        "latencies_s": latencies,
        "attempted": len(latencies),
        "failures": failures,
    }
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        try:
            t_walls, t_lat, _, t_fail = run_passes(passes, args.out, golden, cli.main, tr)
        finally:
            tr.uninstall()
        per_pass = [len(p) for p in passes]
        pass_of_invocation = [i for i, n in enumerate(per_pass) for _ in range(n)]
        layer = tracer.aggregate(tr.spans(), tr.samples, pass_of_invocation, len(passes))
        layer["cli.bytes_written"] = median(nbytes)
        layer["trace.overhead_s"] = median(t_walls) - median(walls)
        result["per_layer"] = layer
        result["attempted"] += len(t_lat)
        result["failures"] += t_fail
        if args.spans:
            numpy.savez(args.spans, names=numpy.array(tr.names),
                        **{k: numpy.asarray(getattr(tr, k)) for k in
                           ("name_id", "parent", "invocation_of", "raised", "start", "end")})
    else:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

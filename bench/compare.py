"""Compare benchmark results files (written by bench/run.py to .bench_out/results/).

    python3 bench/compare.py --base parent/*.json
    python3 bench/compare.py --base parent/*.json --change change/*.json

For each workload and metric it prints each side's median, quartile spread
(distance between the first and third quartile as a share of the median)
and, with --change, the change of the median against the bound fixed in
BENCHMARK.json. It refuses to compare runs whose environments differ.
"""

import argparse
import json
import os
import sys
from statistics import median, quantiles

ENV_KEYS = ("python", "numpy", "scipy", "nproc", "cpu")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                              "BENCHMARK.json")


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def by_metric(runs):
    """{(workload, trace, metric): [values]}."""
    out = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], run["trace"], name), []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", default=[])
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)

    envs = {tuple(run["env"][k] for k in ENV_KEYS) for run in base + change}
    if len(envs) > 1:
        print("refusing to compare: the runs come from different environments:",
              file=sys.stderr)
        for env in sorted(envs, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(ENV_KEYS, env)), file=sys.stderr)
        return 2

    spec = {}
    if os.path.isfile(BENCHMARK_JSON):
        with open(BENCHMARK_JSON) as f:
            bench = json.load(f)
        spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    b, c = by_metric(base), by_metric(change)
    for key in sorted(b):
        workload, trace, name = key
        line = (f"{workload:12s} {name:42s} n={len(b[key]):2d} median={median(b[key]):.6g} "
                f"spread={spread(b[key]):.3%}")
        if key in c:
            mb, mc = median(b[key]), median(c[key])
            delta = (mc - mb) / mb if mb else float("nan")
            line += (f" | change n={len(c[key]):2d} median={mc:.6g} "
                     f"spread={spread(c[key]):.3%} delta={delta:+.3%}")
            m = spec.get(name, {})
            if "bound" in m:
                worse = delta if m["better"] == "lower" else -delta
                line += " WORSE-THAN-BOUND" if worse > m["bound"] else " within-bound"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

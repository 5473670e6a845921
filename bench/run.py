"""vlcsim benchmark entry point.

Run from the root of a vlcsim source tree:

    python3 bench/run.py --workload zf-area --seed 1 --seconds 30 --trace 0

It starts fresh child interpreters (`bench/child.py`) one at a time: a few
that only time `import vlcsim`, then one that runs the workload's
digest-checked closed loop of `vlcsim.cli.main` calls. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it runs the workload traced
and reports the per-layer metrics. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; a results
file with the environment stamp goes to `.bench_out/results/`.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = ".bench_out"
SETUP_SPAWNS_AROUND = 3   # set-up-only children before and after the workload child
IMPORTTIME_SPAWNS = 3     # `-X importtime` children per traced run
RUN_TIMEOUT_S = 170       # whole run, children included
# One busy process at a time, and no BLAS worker threads.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s",
                    "invocation_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _deadline_left(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def _wait(proc, deadline):
    try:
        return proc.communicate(timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out") from None


def spawn_child(child_args, deadline):
    """Start a child; return (process, seconds from spawn until `import vlcsim` returned)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *child_args], stdout=subprocess.PIPE,
                            env=CHILD_ENV, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _wait(proc, deadline)
        raise BenchError(f"child failed to import vlcsim (exit code {proc.returncode})")
    return proc, setup


def setup_only(deadline):
    proc, setup = spawn_child(["--setup-only"], deadline)
    _wait(proc, deadline)
    return setup


def import_breakdown(deadline):
    proc = subprocess.Popen([sys.executable, "-X", "importtime", CHILD, "--setup-only"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=CHILD_ENV, text=True)
    _, err = _wait(proc, deadline)
    if proc.returncode != 0:
        raise BenchError("import-time child failed")
    return tracer.import_breakdown(err)


def run_workload(args, out_dir, deadline):
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out", out_dir]
    if args.trace:
        child_args += ["--spans", os.path.join(OUT_ROOT, f"spans-{args.workload}.npz")]
    proc, setup = spawn_child(child_args, deadline)
    out, _ = _wait(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"workload child failed (exit code {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1]), setup


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(versions, seed):
    """Stamp recorded in every results file; `compare.py` compares only equal ones."""
    return {"python": versions["python"], "numpy": versions["numpy"],
            "scipy": versions["scipy"], "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "git_commit": _git_commit(), "workload_seed": seed}


def end_to_end(workload, child, setups):
    item, per_pass = workloads.ITEMS[workload]
    # Every pass of a run does the same work, and every set-up the same
    # import. On a shared host whose speed swings by a fifth within seconds,
    # the busy state recurs in nearly every run while the fast states come
    # and go, so the slowest sample moves least from run to run (figures in
    # bench/README.md). The set-up samples come from before and after the
    # workload child, so they span the whole run.
    walls = child["pass_walls_s"]
    wall = max(walls)
    lat_ms = [s * 1e3 for s in child["latencies_s"]]
    n = len(lat_ms) // len(walls)
    pass_p50_ms = [median(lat_ms[i:i + n]) for i in range(0, len(lat_ms), n)]
    metrics = {
        "setup_s": max(setups),
        "wall_s": wall,
        "items_per_s": per_pass / wall,
        "invocation_p50_ms": max(pass_p50_ms),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }
    details = {"item": item, "items_per_pass": per_pass, "passes": len(walls),
               "invocations": len(lat_ms), "setup_samples_s": setups,
               "median_pass_wall_s": median(walls), "median_invocation_ms": median(lat_ms),
               "pass_walls_s": walls, "pass_p50_ms": pass_p50_ms}
    # The 90th percentile only where at least ten samples lie beyond it.
    if len(lat_ms) >= 100:
        details["invocation_p90_ms"] = quantiles(lat_ms, n=10)[-1]
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description="vlcsim benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for needed in ("src/vlcsim/__init__.py", "scenes/simo_blockage.cfg", "scenes/siso.cfg"):
        if not os.path.isfile(needed):
            print(f"bench: {needed} not found; run from the root of a vlcsim source tree",
                  file=sys.stderr)
            return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(os.path.join(OUT_ROOT, "results"), exist_ok=True)
    out_dir = os.path.join(OUT_ROOT, f"tmp-{os.getpid()}")
    try:
        if args.trace:
            child, _ = run_workload(args, out_dir, deadline)
            breakdowns = [import_breakdown(deadline) for _ in range(IMPORTTIME_SPAWNS)]
            values = dict(child["per_layer"])
            for name in breakdowns[0]:
                values[name] = median(b[name] for b in breakdowns)
            units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
            details = {"passes": child["passes"], "importtime_samples": IMPORTTIME_SPAWNS}
        else:
            setups = [setup_only(deadline) for _ in range(SETUP_SPAWNS_AROUND)]
            child, setup = run_workload(args, out_dir, deadline)
            setups += [setup] + [setup_only(deadline) for _ in range(SETUP_SPAWNS_AROUND)]
            values, details = end_to_end(args.workload, child, setups)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = child["attempted"], len(child["failures"])
    details["failed_ratio"] = failed / attempted
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(child["versions"], args.seed),
              "details": details, "failures": child["failures"][:20],
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    path = os.path.join(OUT_ROOT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for name, value in details.items():
        print(f"  {name}: {value}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

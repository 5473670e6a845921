"""Record the reference digests of every pool invocation into bench/golden.json.

    python3 bench/record_golden.py

Run from the root of a vlcsim source tree. The digests define what the
benchmark accepts as correct output, so they are recorded once, on the
commit that defined the benchmark; a later commit may re-record them only
together with a stated change of behaviour, never for a speed-up.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from vlcsim import cli  # noqa: E402

import workloads  # noqa: E402


def main():
    digests = {}
    with tempfile.TemporaryDirectory(dir=".") as out_dir:
        for workload in workloads.WORKLOADS:
            entries = workloads.pool(workload)
            for argv in entries:
                outcome = workloads.invoke(cli.main, argv, out_dir, golden=None)
                if not outcome.ok:
                    print(f"failed: {workloads.key(argv)}", file=sys.stderr)
                    return 1
                digests[workloads.key(argv)] = outcome.digests
            print(f"{workload}: {len(entries)} invocations", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump({"digests": digests}, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

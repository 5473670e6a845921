"""The benchmark's workloads: a finite pool of vlcsim invocations for each,
the seeded passes drawn from that pool, and the digest-checked invocation.

Every workload seed draws its `--seed` values and `--set` sweeps from the
workload's pool, and `golden.json` holds the reference SHA-256 of the CSV and
`summary.json` of every pool entry. So any workload seed can be checked
byte for byte. A pass is one "solution" of the workload; every pass of a
workload has the same shape (scenario mix and sizes), only the drawn
parameters and the order differ.
"""

import hashlib
import json
import os
import random
import sys
import time
import traceback
from typing import NamedTuple

WORKLOADS = ("oracle-mc", "link-scaled", "zf-area")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# oracle-mc: one invocation per (MCS, offset) point. A 2-stream frame costs
# about twice a 1-stream one, so 2-stream points simulate half the frames:
# all invocations then take about as long, and the median latency does not
# sit on the edge between two groups.
ORACLE_MCS = (0, 1, 8, 9)
ORACLE_OFFSETS_DB = ("-2.0", "-1.0", "0.0", "1.0", "2.0")
ORACLE_FRAMES = {0: 100, 1: 100, 8: 50, 9: 50}
ORACLE_SEEDS = tuple(range(1, 9))

# link-scaled: six large invocations, five of them reading scene files. The
# sizes make every invocation take about as long (blockage-timeline, four
# per pass, keeps most of the time), so a pass's median latency is a median
# of six like samples rather than one sample of the middle-sized scenario.
LINK_SEEDS = tuple(range(1, 9))
BLOCKAGE_PER_PASS = 4
BLOCKAGE_FRAMES = 2500
SISO_DISTANCES = 1250
SISO_MCS = "0,1,2,3,4,5,6,7"
HANDOVER_ANGLES = 3000

# zf-area: a few hundred small invocations.
AREA_IMBALANCE_DB = tuple(f"{0.05 * k:.2f}" for k in range(1, 12))  # (0, 0.55]
AREA_SEEDS = tuple(range(1, 17))
AREA_SEEDS_PER_PASS = 12
CSI_BANDWIDTHS_MHZ = (20, 40)
CSI_BITS = tuple(range(4, 11))
CSI_SEEDS = tuple(range(1, 5))
CSI_SEEDS_PER_PASS = 2
MRC_SEEDS = tuple(range(1, 41))
MRC_PER_PASS = 20

# What one item is, and how many a pass holds (the input size of items_per_s).
ITEMS = {
    "oracle-mc": ("Monte-Carlo frames", len(ORACLE_OFFSETS_DB) * sum(ORACLE_FRAMES.values())),
    "link-scaled": ("CSV rows", BLOCKAGE_PER_PASS * BLOCKAGE_FRAMES + SISO_DISTANCES * 8
                    + HANDOVER_ANGLES),
    "zf-area": ("invocations", len(AREA_IMBALANCE_DB) * AREA_SEEDS_PER_PASS
                + len(CSI_BANDWIDTHS_MHZ) * len(CSI_BITS) * CSI_SEEDS_PER_PASS
                + MRC_PER_PASS),
}


def _oracle(mcs, offset, seed):
    return ["--scenario", "oracle-check", "--seed", str(seed), "--set", f"mcs={mcs}",
            "--set", f"offsets_db={offset}", "--set", f"n_frames={ORACLE_FRAMES[mcs]}"]


def _blockage(seed):
    return ["--scenario", "blockage-timeline", "--scene", "scenes/simo_blockage.cfg",
            "--seed", str(seed), "--set", f"n_frames={BLOCKAGE_FRAMES}"]


def _siso(seed):
    return ["--scenario", "siso-sweep", "--scene", "scenes/siso.cfg", "--seed", str(seed),
            "--set", f"n_distances={SISO_DISTANCES}", "--set", f"mcs={SISO_MCS}"]


def _handover(seed):
    return ["--scenario", "handover-sweep", "--seed", str(seed),
            "--set", f"n_angles={HANDOVER_ANGLES}"]


def _area(imbalance_db, seed):
    return ["--scenario", "mimo-area-grid", "--seed", str(seed),
            "--set", f"imbalance_db={imbalance_db}"]


def _csi(bandwidth_mhz, bits, seed):
    return ["--scenario", "csi-report", "--seed", str(seed), "--set", f"bits={bits}",
            "--set", f"bandwidth_mhz={bandwidth_mhz}"]


def _mrc(seed):
    return ["--scenario", "mrc-fsr-point", "--seed", str(seed)]


def pool(workload):
    """Every invocation any seed of `workload` can draw, as argv lists."""
    if workload == "oracle-mc":
        return [_oracle(m, off, s) for m in ORACLE_MCS for off in ORACLE_OFFSETS_DB
                for s in ORACLE_SEEDS]
    if workload == "link-scaled":
        return [make(s) for make in (_blockage, _siso, _handover) for s in LINK_SEEDS]
    if workload == "zf-area":
        return ([_area(i, s) for i in AREA_IMBALANCE_DB for s in AREA_SEEDS]
                + [_csi(bw, b, s) for bw in CSI_BANDWIDTHS_MHZ for b in CSI_BITS
                   for s in CSI_SEEDS]
                + [_mrc(s) for s in MRC_SEEDS])
    raise ValueError(f"unknown workload '{workload}'")


def make_pass(workload, seed, index):
    """Pass `index` of workload seed `seed`: a list of argv lists, in run order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "oracle-mc":
        argvs = [_oracle(m, off, rng.choice(ORACLE_SEEDS))
                 for m in ORACLE_MCS for off in ORACLE_OFFSETS_DB]
    elif workload == "link-scaled":
        argvs = [_blockage(s) for s in rng.sample(LINK_SEEDS, BLOCKAGE_PER_PASS)]
        argvs += [make(rng.choice(LINK_SEEDS)) for make in (_siso, _handover)]
    elif workload == "zf-area":
        argvs = [_area(i, s) for i in AREA_IMBALANCE_DB
                 for s in rng.sample(AREA_SEEDS, AREA_SEEDS_PER_PASS)]
        argvs += [_csi(bw, b, s) for bw in CSI_BANDWIDTHS_MHZ for b in CSI_BITS
                  for s in rng.sample(CSI_SEEDS, CSI_SEEDS_PER_PASS)]
        argvs += [_mrc(s) for s in rng.sample(MRC_SEEDS, MRC_PER_PASS)]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    rng.shuffle(argvs)
    return argvs


def key(argv):
    return " ".join(argv)


def load_golden(path=GOLDEN_PATH):
    """Map of invocation key to [csv sha256, summary.json sha256]."""
    with open(path) as f:
        return json.load(f)["digests"]


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Outcome(NamedTuple):
    """Result of one digest-checked invocation."""

    seconds: float
    ok: bool
    bytes_written: int
    digests: list | None
    reason: str | None


def invoke(main, argv, out_dir, golden):
    """Run `main(argv + ["--out", out_dir])` and check its two output files.

    Only the `main` call is timed. The invocation fails if it exits non-zero,
    raises, leaves an output file missing, or writes a file whose SHA-256
    differs from `golden[key(argv)]`. With `golden=None` nothing is compared.
    """
    scenario = argv[argv.index("--scenario") + 1]
    paths = (os.path.join(out_dir, f"{scenario}.csv"), os.path.join(out_dir, "summary.json"))
    for p in paths:
        if os.path.exists(p):
            os.remove(p)
    code, reason = None, None
    t0 = time.perf_counter()
    try:
        code = main(argv + ["--out", out_dir])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an invocation that raises is a counted failure, not a crash
        reason = "raised:\n" + traceback.format_exc()
    seconds = time.perf_counter() - t0
    if reason is None and code != 0:
        reason = f"exit code {code}"
    digests, nbytes = None, 0
    if reason is None:
        if not all(os.path.isfile(p) for p in paths):
            reason = "output file missing"
        else:
            digests = [_sha256(p) for p in paths]
            nbytes = sum(os.path.getsize(p) for p in paths)
            if golden is not None:
                expected = golden.get(key(argv))
                if expected is None:
                    reason = "no reference digest"
                elif digests != expected:
                    reason = "digest mismatch"
    if reason is not None:
        print(f"invocation failed ({reason}): {key(argv)}", file=sys.stderr)
    return Outcome(seconds, reason is None, nbytes, digests, reason)

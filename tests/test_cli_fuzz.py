"""Fuzzing the CLI boundary: every input ends in exit 0, 1 or 2, never a crash.

The `--set` keys come from `cli.REGISTRY`, so a new key is fuzzed with no
change here. Each example runs `cli.main` in-process. The sizes below come
first on the command line and a fuzzed value of the same key overrides them,
but a fuzzed size the parsers accept is at most about 1e4 rows (or 1e5 frames
of one binomial draw), so every run is short.
"""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from _csv_check import check_written_csv
from vlcsim import cli

SMALL = {"n_frames": "2", "n_distances": "3", "n_angles": "3", "count": "10",
         "payload_bytes": "20"}

# Values near the keys' bounds (2 and 16 bits, +-100 dB, 1e6 m, the reachable
# imbalance) and past them, one integer past each size bound (1e4, 1e5 and 1e9;
# the smaller ones are within the larger bounds, where a run of that size stays
# short), and numbers that do not fit; 65535 bytes and past it are left to
# test_cli, since an integer that large as a size makes a slow run.
CANDIDATES = ("-1", "0", "1", "2", "3", "8", "9", "15", "16", "17", "20", "40", "0.5", "-0.0",
              "0.59", "0.6", "-100", "100", "100.5", "-100.5", "1e6", "1000000.5", "1e-13",
              "5e-324", "1e308", "-1e308", "10001", "100001", "1000000001", "nan", "inf",
              "-inf", "x", "")
ANYTHING = st.one_of(st.sampled_from(CANDIDATES), st.floats().map(repr),
                     st.lists(st.sampled_from(CANDIDATES), max_size=3).map(",".join))


def _accepts(parse, text):
    try:
        parse(text)
    except ValueError:
        return False
    return True


def accepted(parse):
    """A value the key's own parser accepts, or a list of them: these runs get
    past parsing to the runner."""
    texts = [text for text in CANDIDATES if _accepts(parse, text)]
    return st.one_of(st.sampled_from(texts),
                     st.lists(st.sampled_from(texts), min_size=2, max_size=3).map(",".join))


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(cli.REGISTRY)))
    keys = cli.REGISTRY[name].__annotations__
    argv = ["--scenario", name, "--seed", str(draw(st.integers(-1, 2 ** 64)))]
    for key in keys:
        if key in SMALL:
            argv += ["--set", f"{key}={SMALL[key]}"]
    for key in draw(st.lists(st.sampled_from(list(keys)), unique=True, max_size=4)):
        argv += ["--set", f"{key}={draw(accepted(keys[key]))}"]
    if draw(st.booleans()):
        argv += ["--set", f"{draw(st.sampled_from(list(keys)))}={draw(ANYTHING)}"]
    return name, argv


def run(argv):
    """(exit code, stderr, warnings) of one in-process `cli.main` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), caught


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(invocations())
# mrc-fsr-point targets that no finite SNR gives at that frame length: 0.365
# ** 1000 underflows to 0, and 0.9999999999999999 ** (1000 / 65535) rounds to 1.
@example(("mrc-fsr-point", ["--scenario", "mrc-fsr-point", "--set", "payload_bytes=1"]))
@example(("mrc-fsr-point", ["--scenario", "mrc-fsr-point", "--set", "fsr_a=0.9999999999999999",
                            "--set", "payload_bytes=65535"]))
def test_any_set_values_end_in_a_documented_exit(invocation):
    name, argv = invocation
    with tempfile.TemporaryDirectory() as out:
        code, err, caught = run(argv + ["--out", out])
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert "Warning" not in err and not caught, (argv, err, [str(w) for w in caught])
        if code == 0:
            check_written_csv(out)
            with open(os.path.join(out, f"{name}.csv"), newline="") as f:
                rows = list(csv.reader(f))[1:]
            assert rows, argv
            assert not any(cell.lower() == "nan" for row in rows for cell in row), argv
            if name == "mrc-fsr-point":  # each path sits at a finite SNR
                assert all(math.isfinite(float(row[1])) for row in rows), argv

"""Fuzzing the scene-file boundary: every edited scene ends in exit 0, 1 or 2.

Each example edits one of the shipped `scenes/*.cfg` files and runs one
scene-taking scenario on it through an in-process `cli.main`. The keys come
from `sceneconfig`'s key sets, so a new key is fuzzed with no change here. An
accepted scene must give finite rows, FSRs in [0, 1], no chain receiving more
than every LED sends, and a strict `summary.json`; a refused one one
`invalid scene:` line per fault, never a traceback or a warning.
"""

import configparser
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import tempfile
import tracemalloc
import warnings

from hypothesis import example, given, settings, strategies as st

from _csv_check import check_written_csv
from vlcsim import cli
from vlcsim.channel import MAX_OBSTACLES
from vlcsim.sceneconfig import _FRONTEND_KEYS, _MAX_FILE_BYTES, _OBSTACLE_KEYS, _SCENE_KEYS, \
    parse_scene

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"
SCENE_FILES = sorted(p.name for p in SCENES.glob("*.cfg"))
SCENARIOS = sorted(name for name, runner in cli.REGISTRY.items()
                   if "scene" in runner.__kwdefaults__)
# Small runs; the blockage timeline is long enough to reach every shipped obstacle.
SMALL = {"siso-sweep": ["n_distances=3", "count=10", "payload_bytes=20"],
         "blockage-timeline": ["n_frames=300", "payload_bytes=20"],
         "handover-sweep": ["n_angles=5"],
         "csi-report": []}

# Numbers inside, on and past the model's bounds (angles of 0, 60, 90 and 180
# degrees, a needle beam, areas from subnormal to 1e308), and text that is no number.
NUMBERS = ("0", "-0.0", "1", "-1", "0.5", "2", "1e-4", "1e-6", "1e-9", "1e-13", "5e-324",
           "1e-160", "30", "45", "60", "89.999", "90", "90.5", "180", "-60", "100", "1e3",
           "1e6", "1e150", "1e300", "1e308", "-1e308", "nan", "inf", "-inf", "x", "")
FRAMES = ("-1", "0", "1", "100", "181", "299", "300", "9223372036854775807",
          "9223372036854775808", "1.5", "x")
VALUES = {
    "role": st.sampled_from(("tx", "rx", "RX", "led", "")),
    "blocks": st.sampled_from(("tx_a->rx_a", "tx_a->rx_b", "tx_a->rx_a, tx_a->rx_b",
                               "tx_b->rx_a", "tx_a->rx_zz", "rx_a->tx_a", "tx_a", "")),
    "frames": st.lists(st.sampled_from(FRAMES), min_size=1, max_size=3).map(" ".join),
}
VECTOR = st.one_of(st.lists(st.sampled_from(NUMBERS), min_size=3, max_size=3),
                   st.lists(st.sampled_from(NUMBERS), max_size=4)).map(" ".join)
NUMBER = st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr))


def _value(key):
    if key in VALUES:
        return VALUES[key]
    return VECTOR if key in ("position_m", "boresight") else NUMBER


def _keys(section):
    if section == "scene":
        return _SCENE_KEYS
    return _FRONTEND_KEYS if section.startswith("frontend ") else _OBSTACLE_KEYS


def _sections(name):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENES / name)
    return {section: dict(parser[section]) for section in parser.sections()}


@st.composite
def cases(draw):
    """(scene file, scenario, edits); an edit sets a key of a section, or
    removes it when its value is None."""
    name = draw(st.sampled_from(SCENE_FILES))
    sections = sorted(_sections(name))
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sections))
        key = draw(st.sampled_from(sorted(_keys(section))))
        edits.append((section, key, draw(st.none() | _value(key))))
    return name, draw(st.sampled_from(SCENARIOS)), tuple(edits)


def edited_text(name, edits):
    """The text of scene file `name` with `edits`; an edit may add a section."""
    sections = _sections(name)
    for section, key, value in edits:
        if value is None:
            sections[section].pop(key, None)
        else:
            sections.setdefault(section, {})[key] = value
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items()) + "\n"
                   for section, sec in sections.items())


def rssi_bound_dbm(text):
    """The most any one chain can receive: all TX power at unit optical gain,
    times the largest conversion gain."""
    scene = parse_scene(text)
    tx_mw = sum(10.0 ** (fe.tx_electrical_power_dbm / 10.0) for fe in scene.transmitters)
    return 10.0 * math.log10(tx_mw) + max(fe.conversion_gain_db for fe in scene.receivers)


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


# csi-report writes a notched subcarrier's ripple as the non-standard token
# `Infinity`, the one known exception to a strict summary.json; writing it
# otherwise changes recorded benchmark digests.
CSI_RIPPLE_INFINITY = object()


def load_summary(path, scenario):
    def parse_constant(token):
        if scenario == "csi-report" and token == "Infinity":
            return CSI_RIPPLE_INFINITY
        raise ValueError(f"summary.json holds the non-standard token {token}")

    with open(path) as f:
        summary = json.load(f, parse_constant=parse_constant)
    if scenario == "csi-report":
        summary["aggregates"].pop("magnitude_ripple_db")
    json.dumps(summary, allow_nan=False)  # TypeError if the sentinel is anywhere else
    return summary


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cases())
# A huge or tiny boresight over- or underflows its norm but is a valid direction.
@example(("siso.cfg", "siso-sweep", (("frontend tx_a", "boresight", "1e300 0 0"),)))
@example(("simo_blockage.cfg", "blockage-timeline",
          (("frontend rx_b", "boresight", "5e-324 0 0"),)))
@example(("handover.cfg", "handover-sweep", (("frontend rx_a", "boresight", "1e308 1e308 0"),)))
# A needle beam on the receiver's axis: a gain past 1 is refused, not overflowed.
@example(("siso.cfg", "csi-report",
          (("frontend tx_a", "half_power_semi_angle_deg", "1e-6"),
           ("frontend tx_a", "boresight", "1e300 0 0"))))
# A receiver that sees nothing beside one that does: its CSI ripple is 0, not 0/0.
@example(("handover.cfg", "csi-report", (("frontend rx_a", "boresight", "0 0 1"),)))
# One obstacle past the bound, added to the shipped two: refused in one line.
@example(("simo_blockage.cfg", "blockage-timeline",
          tuple((f"obstacle extra_{k}", key, value) for k in range(MAX_OBSTACLES - 1)
                for key, value in (("blocks", "tx_a->rx_a"), ("frames", f"{k} {k + 1}")))))
# A 3 MB file of 50000 obstacles: refused in one line by its size, never parsed.
@example(("simo_blockage.cfg", "blockage-timeline",
          tuple((f"obstacle extra_{k}", key, value) for k in range(50000)
                for key, value in (("blocks", "tx_a->rx_a"), ("frames", f"{k} {k + 1}")))))
def test_any_scene_edit_ends_in_a_documented_exit(case):
    name, scenario, edits = case
    with tempfile.TemporaryDirectory() as out:
        scene = os.path.join(out, "scene.cfg")
        text = edited_text(name, edits)
        with open(scene, "w") as f:
            f.write(text)
        argv = ["--scenario", scenario, "--scene", scene, "--out", out]
        for item in SMALL[scenario]:
            argv += ["--set", item]
        size = len(text.encode())
        # Memory is traced only where it is asserted: tracing doubles the run time.
        if size > _MAX_FILE_BYTES:
            tracemalloc.start()
        try:
            code, err, caught = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 1, 2), (case, code, err)
        assert "Traceback" not in err, (case, err)
        assert "Warning" not in err and not caught, (case, err, [str(w) for w in caught])
        if code == 1:
            assert err and all(line.startswith("invalid scene: ")
                               for line in err.splitlines()), (case, err)
        n_obstacles = text.count("[obstacle ")
        if size > _MAX_FILE_BYTES:
            assert code == 1 and err == (f"invalid scene: scene file: {size} bytes exceed the "
                                         f"bound of {_MAX_FILE_BYTES}\n"), (code, err)
            # Reading stops at the bound; parsing the 50000 obstacles first
            # took a tracemalloc peak of about 130 MB.
            assert peak < 2 * _MAX_FILE_BYTES, peak
        elif n_obstacles > MAX_OBSTACLES:
            assert code == 1 and err == (f"invalid scene: scene: {n_obstacles} obstacles exceed "
                                         f"the bound of {MAX_OBSTACLES}\n"), (code, err)
        if code != 0:
            return
        check_written_csv(out)
        with open(os.path.join(out, f"{scenario}.csv"), newline="") as f:
            header, *rows = csv.reader(f)
        assert rows, case
        # A chain that receives nothing reads -inf, as documented; nothing else is not finite.
        assert not any(cell.lower() in ("nan", "inf") for row in rows for cell in row), case
        for col in (i for i, h in enumerate(header) if h.startswith("fsr")):
            assert all(0.0 <= float(row[col]) <= 1.0 for row in rows), (case, header[col])
        # One chain's RSSI; the MRC column sums the chains.
        for col in (i for i, h in enumerate(header) if h.startswith("rssi") and "mrc" not in h):
            assert max(float(row[col]) for row in rows) <= rssi_bound_dbm(text) + 1e-9, (
                case, header[col])
        summary = load_summary(os.path.join(out, "summary.json"), scenario)
        assert summary["rows"] == len(rows), case

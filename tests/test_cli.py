"""CLI behavior: outputs, exit codes, determinism, overrides."""

import csv
import importlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from vlcsim import cli, sceneconfig
from vlcsim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
# The environment of a fresh interpreter that imports this tree's vlcsim.
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_blockage_preset_seed7(tmp_path):
    out = tmp_path / "run"
    assert main(["--scenario", "blockage-timeline", "--seed", "7",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "blockage-timeline.csv")
    assert len(rows) == 351  # header + 350 frames
    assert rows[0][0] == "frame_index"
    success_col = rows[0].index("success")
    assert all(r[success_col] == "True" for r in rows[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "blockage-timeline"
    assert summary["seed"] == 7
    assert summary["aggregates"]["success_rate"] == 1.0
    assert len(summary["config_hash"]) == 64


def test_identical_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["--scenario", "handover-sweep", "--seed", "3",
                     "--out", str(out)]) == 0
    assert (out1 / "handover-sweep.csv").read_bytes() == \
        (out2 / "handover-sweep.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "warp-drive"])
    assert exc.value.code == 2


def test_invalid_scene_exits_1_naming_field(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text((SCENES / "siso.cfg").read_text().replace(
        "fov_half_angle_deg = 45.0", "fov_half_angle_deg = 120"))
    code = main(["--scenario", "siso-sweep", "--scene", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "fov_half_angle" in err and "(0, 90]" in err


def _not_utf8_file(directory):
    path = directory / "binary.cfg"
    path.write_bytes(b"\xff\xfe\x00")
    return path


@pytest.mark.parametrize("make", [lambda d: d / "missing.cfg", lambda d: d, _not_utf8_file],
                         ids=["missing", "directory", "not-utf8"])
def test_unreadable_scene_exits_1_with_one_line(make, tmp_path, capsys):
    scene = make(tmp_path)
    out = tmp_path / "out"
    assert main(["--scenario", "siso-sweep", "--scene", str(scene), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"cannot read scene: {scene}: ")
    assert not out.exists()


# Values that are not finite, and finite ones past the bounds that keep a run's
# arithmetic finite: +-100 dB(m), and obstacle frames in [0, 2**63).
@pytest.mark.parametrize("key,value,field", [
    ("noise_floor_dbm", "nan", "noise_floor_dbm"),
    ("noise_floor_dbm", "-inf", "noise_floor_dbm"),
    ("active_area_m2", "nan", "active_area"),
    ("active_area_m2", "inf", "active_area"),
    ("conversion_gain_db", "nan", "conversion_gain_db"),
    ("position_m", "2.0 nan 0.0", "position"),
    ("boresight", "-1.0 inf 0.0", "boresight"),
    ("boresight", "nan 0.0 0.0", "boresight"),
    ("tx_power_dbm", "nan", "tx_electrical_power_dbm"),
    ("tx_power_dbm", "1e308", "tx_electrical_power_dbm"),
    ("conversion_gain_db", "1e308", "conversion_gain_db"),
    ("noise_floor_dbm", "100.5", "noise_floor_dbm"),
    ("frames", "100 99999999999999999999", "active_frames"),
    ("frames", "-1 181", "active_frames"),
    # Values that are not numbers, and a semi-angle whose cosine rounds to 1.
    ("active_area_m2", "big", "front-end 'rx_b': active_area_m2"),
    ("position_m", "2 0 x", "front-end 'rx_b': position_m"),
    ("noise_floor_dbm", "loud", "scene: noise_floor_dbm"),
    ("frames", "100 1.5e2", "obstacle 'obstacle_1': frames"),
    ("half_power_semi_angle_deg", "1e-9", "front-end 'tx_a': half_power_semi_angle"),
    # A '%' is text, not configparser interpolation.
    ("tx_power_dbm", "0%", "front-end 'tx_a': tx_power_dbm"),
    ("role", "r%x", "role must be 'tx' or 'rx', got 'r%x'"),
])
def test_non_finite_scene_value_exits_1_with_one_line(key, value, field, tmp_path, capsys):
    # The blockage scene has every key of the table, obstacle frames included.
    lines = (SCENES / "simo_blockage.cfg").read_text().splitlines()
    # The last occurrence of a key belongs to the receiver where both have it.
    at = max(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[at] = f"{key} = {value}"
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["--scenario", "blockage-timeline", "--scene", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("invalid scene: ") and field in err[0]
    assert not out.exists()


@pytest.mark.parametrize("after,key,where", [
    ("fov_half_angle_deg = 45.0", "tx_power_dbm = 50", "front-end 'rx_a', role rx"),
    ("tx_power_dbm = 0.0", "active_area_m2 = 1e-4", "front-end 'tx_a', role tx"),
], ids=["rx", "tx"])
def test_key_of_the_other_role_exits_1_with_one_line(after, key, where, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text((SCENES / "siso.cfg").read_text().replace(after, f"{after}\n{key}"))
    out = tmp_path / "out"
    assert main(["--scenario", "siso-sweep", "--scene", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"invalid scene: {where}: unknown key(s) ['{key.split()[0]}']"]
    assert not out.exists()


@pytest.mark.parametrize("pair", ["rx_b->tx_a", "rx_a->rx_b"])
def test_obstacle_pair_not_from_a_tx_to_an_rx_exits_1_with_one_line(pair, tmp_path, capsys):
    # Such a pair names no path, so it would block nothing.
    bad = tmp_path / "bad.cfg"
    bad.write_text((SCENES / "simo_blockage.cfg").read_text().replace("blocks = tx_a->rx_b",
                                                                     f"blocks = {pair}"))
    out = tmp_path / "out"
    assert main(["--scenario", "blockage-timeline", "--scene", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"invalid scene: obstacle: blocked pair {pair} must name a TX and then an RX"]
    assert not out.exists()


def test_rx_first_scene_file_runs_and_hashes_as_its_tx_first_order(tmp_path):
    # Only the order of the sections within a role makes a scene; TX and RX
    # sections may interleave.
    sections = (SCENES / "simo_blockage.cfg").read_text().split("\n\n")
    rx_first = [s for s in sections if "role = rx" in s] + [s for s in sections if "role = rx" not in s]
    assert rx_first != sections
    summaries, csvs = [], []
    for name, text in (("tx_first", sections), ("rx_first", rx_first)):
        scene, out = tmp_path / f"{name}.cfg", tmp_path / name
        scene.write_text("\n\n".join(text))
        assert main(["--scenario", "blockage-timeline", "--scene", str(scene), "--seed", "3",
                     "--set", "n_frames=300", "--out", str(out)]) == 0
        csvs.append((out / "blockage-timeline.csv").read_bytes())
        summaries.append(json.loads((out / "summary.json").read_text()))
    assert csvs[0] == csvs[1]
    assert summaries[0]["config_hash"] == summaries[1]["config_hash"]


def test_unknown_section_is_one_short_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text((SCENES / "siso.cfg").read_text() + "\n[mystery]\nfoo = 1\n")
    out = tmp_path / "out"
    assert main(["--scenario", "siso-sweep", "--scene", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["invalid scene: scene file: unknown section '[mystery]'"]
    assert not out.exists()


def test_scene_file_is_read_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(sceneconfig, "open", counting_open, raising=False)
    scene = str(SCENES / "simo_blockage.cfg")
    assert main(["--scenario", "blockage-timeline", "--scene", scene,
                 "--set", "n_frames=5", "--out", str(tmp_path / "out")]) == 0
    assert opened == [scene]


def fresh_python(code):
    """The stripped stdout of `code` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SRC_ENV, check=True).stdout.strip()


def test_import_does_not_load_scipy():
    # The CLI imports every module of the package.
    code = "import sys, vlcsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_python(code) == "[]"


def test_import_does_not_load_fractions_or_decimal():
    # The MCS code rates are floats; `fractions` would bring `decimal` along.
    code = "import sys, vlcsim.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert fresh_python(code) == "[]"


def test_package_import_loads_no_module():
    code = "import sys, vlcsim; print([m for m in sys.modules if m.startswith(('numpy', 'vlcsim.'))])"
    assert fresh_python(code) == "[]"


def test_each_module_imports_on_its_own():
    # Nothing imports the modules in a fixed order, which could hide a cycle.
    modules = sorted(p.stem for p in (ROOT / "src" / "vlcsim").glob("*.py") if p.stem != "__init__")
    assert "cli" in modules
    code = (f"import importlib, sys\nfor name in {modules!r}:\n"
            "    for m in [m for m in sys.modules if m.split('.')[0] == 'vlcsim']:\n"
            "        del sys.modules[m]\n"
            "    importlib.import_module('vlcsim.' + name)\nprint('ok')")
    assert fresh_python(code) == "ok"


def test_scene_file_accepted(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "blockage-timeline", "--seed", "7",
                 "--scene", str(SCENES / "simo_blockage.cfg"),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aggregates"]["success_rate"] == 1.0


def test_unknown_override_key_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "handover-sweep", "--set", "bogus=1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_malformed_override_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "handover-sweep", "--set", "n_angles",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_scene_rejected_where_unsupported(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "mimo-area-grid", "--scene", str(SCENES / "siso.cfg"),
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_override_changes_run(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "handover-sweep", "--set", "n_angles=11",
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "handover-sweep.csv")) == 12


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("VLCSIM_OUT", str(tmp_path / "envout"))
    assert main(["--scenario", "handover-sweep"]) == 0
    assert (tmp_path / "envout" / "handover-sweep.csv").exists()


def test_mrc_fsr_point_scenario(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "mrc-fsr-point", "--seed", "11",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aggregates"]["fsr_mrc"] >= 0.9


@pytest.mark.parametrize("payload_bytes,targets", [
    (500, ()), (2000, ()), (2000, ("fsr_a=0.9", "fsr_b=0.2"))])
def test_mrc_fsr_point_targets_hold_at_any_payload(payload_bytes, targets, tmp_path):
    out = tmp_path / "out"
    argv = ["--scenario", "mrc-fsr-point", "--set", f"payload_bytes={payload_bytes}",
            "--out", str(out)]
    for item in targets:
        argv += ["--set", item]
    assert main(argv) == 0
    want = [float(t.split("=")[1]) for t in targets] or [0.626, 0.365]
    rows = read_csv(out / "mrc-fsr-point.csv")
    assert [r[0] for r in rows[1:3]] == ["A", "B"]
    for row, target in zip(rows[1:3], want):
        assert abs(float(row[2]) - target) <= 1e-12, (row, target)


def test_csi_report_scenario(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "csi-report", "--out", str(out)]) == 0
    rows = read_csv(out / "csi-report.csv")
    assert rows[0] == ["variant", "rx", "tx", "subcarrier_hz", "re", "im", "scale"]
    variants = {r[0] for r in rows[1:]}
    assert variants == {"siso", "miso"}
    summary = json.loads((out / "summary.json").read_text())
    ripple = summary["aggregates"]["magnitude_ripple_db"]
    assert ripple["siso"] <= 3.0 and ripple["miso"] >= 10.0


def test_oracle_check_scenario_small(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "oracle-check", "--set", "n_frames=50",
                 "--set", "mcs=0", "--out", str(out)]) == 0
    rows = read_csv(out / "oracle-check.csv")
    assert len(rows) == 6  # header + 5 offsets
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aggregates"]["max_abs_err"] <= 0.2  # loose: only 50 frames


def test_mimo_area_grid_scenario(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "mimo-area-grid", "--set", "count=200",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "mimo-area-grid.csv")
    # 4 placements + the proportional contrast case, 5 MCS each
    assert len(rows) == 1 + 5 * 5
    agg = json.loads((out / "summary.json").read_text())["aggregates"]["fsr_realized"]
    assert agg["2,2@0.5/mcs8"] > 0.8
    assert agg["2,2@0.0/mcs9"] == 0.0


def test_siso_sweep_scenario_small(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "siso-sweep", "--set", "count=100",
                 "--set", "n_distances=16", "--set", "mcs=0,7",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "siso-sweep.csv")
    assert len(rows) == 1 + 16 * 2
    summary = json.loads((out / "summary.json").read_text())
    reliable = summary["aggregates"]["first_rssi_dbm_with_fsr_0p99"]
    assert reliable["0"] < reliable["7"]


@pytest.mark.parametrize("argv", [
    ["--scenario", "blockage-timeline", "--set", "n_frames=0"],
    ["--scenario", "handover-sweep", "--set", "n_angles=0"],
    ["--scenario", "handover-sweep", "--set", "n_angles=-3"],
    ["--scenario", "siso-sweep", "--set", "n_distances=0"],
    ["--scenario", "siso-sweep", "--set", "d_min=-1"],
    ["--scenario", "siso-sweep", "--set", "d_max=nan"],
    ["--scenario", "siso-sweep", "--set", "mcs="],
    ["--scenario", "blockage-timeline", "--set", "mcs_index=9"],
    ["--scenario", "siso-sweep", "--set", "mcs=0,8"],
    ["--scenario", "mrc-fsr-point", "--set", "count=0"],
    ["--scenario", "mrc-fsr-point", "--set", "fsr_a=1.5"],
    ["--scenario", "csi-report", "--set", "bits=1"],
    ["--scenario", "oracle-check", "--set", "offsets_db=nan", "--set", "n_frames=2",
     "--set", "mcs=0"],
    ["--scenario", "oracle-check", "--set", "offsets_db=0,inf", "--set", "n_frames=2"],
    ["--scenario", "mimo-area-grid", "--set", "imbalance_db=nan"],
    ["--scenario", "mimo-area-grid", "--set", "imbalance_db=-inf"],
    ["--scenario", "mimo-area-grid", "--set", "imbalance_db=-1"],
    ["--scenario", "mimo-area-grid", "--set", "imbalance_db=0"],
    ["--scenario", "mimo-area-grid", "--set", "imbalance_db=-0"],
    ["--scenario", "mrc-fsr-point", "--set", "fsr_a=nan"],
    ["--scenario", "mrc-fsr-point", "--set", "fsr_b=-inf"],
    ["--scenario", "csi-report", "--set", "bits=2000"],
    ["--scenario", "csi-report", "--set", "bits=64"],
    ["--scenario", "oracle-check", "--set", "offsets_db=-1e308", "--set", "n_frames=2"],
    ["--scenario", "siso-sweep", "--set", "d_min=1e150", "--set", "d_max=1e154"],
    ["--scenario", "handover-sweep", "--seed", "-1"],
], ids=["blockage-0-frames", "handover-0-angles", "handover-negative-angles",
        "siso-0-distances", "siso-negative-d_min", "siso-nan-d_max", "siso-no-mcs",
        "blockage-2-streams-on-1-tx", "siso-2-streams-on-1x1", "mrc-0-count",
        "mrc-fsr-out-of-range", "csi-1-bit", "oracle-nan-offset", "oracle-inf-offset",
        "area-nan-imbalance", "area-minus-inf-imbalance", "area-negative-imbalance",
        "area-zero-imbalance", "area-minus-zero-imbalance",
        "mrc-nan-fsr", "mrc-minus-inf-fsr", "csi-2000-bits", "csi-64-bits",
        "oracle-huge-offset", "siso-underflowing-distance", "negative-seed"])
def test_out_of_range_values_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("vlcsim: error: ")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("offsets_db", "nan"), ("offsets_db", "-1,inf"),
                                       ("imbalance_db", "nan"), ("fsr_a", "inf")])
def test_non_finite_set_value_names_the_key(key, value, tmp_path, capsys):
    scenario = {"offsets_db": "oracle-check", "imbalance_db": "mimo-area-grid",
                "fsr_a": "mrc-fsr-point"}[key]
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", scenario, "--set", f"{key}={value}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"vlcsim: error: --set {key}: ")
    assert "finite" in err[-1]


@pytest.mark.parametrize("scenario,key,value", [
    ("siso-sweep", "d_min", "1e150"), ("siso-sweep", "d_max", "1e154"),
    ("csi-report", "bits", "2000"), ("oracle-check", "offsets_db", "0,-1e308"),
    # The 802.11n MCS table has indices 0 to 15.
    ("blockage-timeline", "mcs_index", "99"), ("blockage-timeline", "mcs_index", "-1"),
    ("siso-sweep", "mcs", "99"), ("mimo-area-grid", "mcs", "8,16"), ("oracle-check", "mcs", "-1"),
    # Too large for a float, which math.isfinite would try to convert it to.
    pytest.param("csi-report", "bits", "1" + "0" * 400, id="csi-report-bits-401-digits"),
    # 65535 octets is the largest PSDU the 802.11n HT-SIG length field carries.
    *[(name, "payload_bytes", "65536") for name, scenario in cli.REGISTRY.items()
      if "payload_bytes" in scenario.keys]])
def test_out_of_bound_set_value_names_the_key(scenario, key, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", scenario, "--set", f"{key}={value}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"vlcsim: error: --set {key}: cannot use '{value}': must be in [")


def test_bandwidth_other_than_20_or_40_names_the_key(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "csi-report", "--set", "bandwidth_mhz=30", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "vlcsim: error: --set bandwidth_mhz: cannot use '30': must be 20 or 40, got 30")
    assert not out.exists()


@pytest.mark.parametrize("scenario,value", [("siso-sweep", "0,7,0"),
                                            ("mimo-area-grid", "8,8"),
                                            ("oracle-check", "1,01")])
def test_repeated_mcs_names_the_key(scenario, value, tmp_path, capsys):
    # Each MCS keys its own summary entry, so a repeated one would drop rows.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", scenario, "--set", f"mcs={value}", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"vlcsim: error: --set mcs: cannot use '{value}': repeats")
    assert not out.exists()


SIZE_BOUNDS = [("siso-sweep", "count", 10**9), ("mrc-fsr-point", "count", 10**9),
               ("mimo-area-grid", "count", 10**9), ("siso-sweep", "n_distances", 10**4),
               ("blockage-timeline", "n_frames", 10**5), ("handover-sweep", "n_angles", 10**5),
               ("oracle-check", "n_frames", 10**4)]


@pytest.mark.parametrize("scenario,key,bound", SIZE_BOUNDS)
def test_size_bound_is_accepted_and_one_past_it_names_the_key(scenario, key, bound, tmp_path,
                                                                capsys):
    # The bound itself is checked at the parser: a run that large is slow.
    assert cli.REGISTRY[scenario].keys[key](str(bound)) == bound
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", scenario, "--set", f"{key}={bound + 1}",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == (f"vlcsim: error: --set {key}: cannot use '{bound + 1}': "
                       f"must be in [1, {bound:g}], got {bound + 1}")


def test_every_size_key_is_bounded():
    sizes = {(name, key) for name, scenario in cli.REGISTRY.items() for key in scenario.keys
             if key in ("count", "n_frames", "n_distances", "n_angles")}
    assert sizes == {(scenario, key) for scenario, key, _ in SIZE_BOUNDS}


@pytest.mark.parametrize("scenario,key", [("siso-sweep", "count"),
                                          ("siso-sweep", "n_distances")])
def test_401_digit_size_is_one_line_naming_the_key(scenario, key, tmp_path, capsys):
    value = "1" + "0" * 400
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", scenario, "--set", f"{key}={value}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(f"vlcsim: error: --set {key}: cannot use ")


@pytest.mark.parametrize("scenario,setting", [
    ("siso-sweep", "d_max=1e6"), ("csi-report", "bits=16"), ("csi-report", "bits=2"),
    ("oracle-check", "offsets_db=-100,100")])
def test_bound_values_are_accepted(scenario, setting, tmp_path):
    small = {"siso-sweep": ["--set", "n_distances=3", "--set", "mcs=0"],
             "oracle-check": ["--set", "n_frames=2", "--set", "mcs=0"]}.get(scenario, [])
    out = tmp_path / "out"
    assert main(["--scenario", scenario, "--set", setting, *small, "--out", str(out)]) == 0
    assert len(read_csv(out / f"{scenario}.csv")) > 1


def test_negative_seed_names_the_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "handover-sweep", "--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "vlcsim: error: argument --seed: expected a non-negative integer, got '-1'")


def test_largest_payload_is_accepted(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", "oracle-check", "--set", "payload_bytes=65535",
                 "--set", "n_frames=1", "--set", "mcs=0", "--set", "offsets_db=0",
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "oracle-check.csv")) == 2


def test_scene_with_every_path_blocked_is_one_line(tmp_path, capsys):
    scene = tmp_path / "blocked.cfg"
    scene.write_text((SCENES / "siso.cfg").read_text()
                     + "\n[obstacle cover]\nblocks = tx_a->rx_a\nframes = 0 5\n")
    out = tmp_path / "out"
    assert main(["--scenario", "csi-report", "--scene", str(scene), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "invalid scene: every path is blocked; nothing to report"]
    assert not out.exists()


def test_unwritable_output_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["--scenario", "handover-sweep", "--set", "n_angles=3", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(out) in err[0]


def as_set_value(default):
    """A runner default written as a --set value: a tuple as its comma-joined items."""
    return ",".join(map(str, default)) if isinstance(default, tuple) else str(default)


def test_readme_lists_the_set_keys_of_every_scenario():
    # Each key as `key=default`, the default written as --set would take it.
    row = re.compile(r"^\| `([a-z-]+)` \| .* \| `([a-z_ ]+=[^`]*)` \|$")
    table = {m[1]: [tuple(item.split("=")) for item in m[2].split()]
             for m in map(row.match, (ROOT / "README.md").read_text().splitlines()) if m}
    assert table == {name: [(key, as_set_value(scenario.runner.__kwdefaults__[key]))
                            for key in scenario.keys]
                     for name, scenario in cli.REGISTRY.items()}


@pytest.mark.parametrize("name", sorted(cli.REGISTRY))
def test_set_keys_are_the_keyword_parameters_of_the_runner(name):
    scenario = cli.REGISTRY[name]
    assert set(scenario.keys) == set(scenario.runner.__kwdefaults__)


@pytest.mark.parametrize("name", sorted(cli.REGISTRY))
def test_each_default_is_a_value_its_parser_accepts(name):
    # A default outside the key's bounds could not be written back with --set.
    scenario = cli.REGISTRY[name]
    for key, default in scenario.runner.__kwdefaults__.items():
        parsed = scenario.keys[key](as_set_value(default))
        assert (tuple(parsed) if isinstance(default, tuple) else parsed) == default, key


def test_readme_names_only_api_that_exists():
    named = set(re.findall(r"\bvlcsim\.([a-z_]+)\.([A-Za-z_]\w*)",
                           (ROOT / "README.md").read_text()))
    assert named
    for module, name in sorted(named):
        assert hasattr(importlib.import_module(f"vlcsim.{module}"), name), f"{module}.{name}"


def test_back_to_back_calls_write_what_separate_processes_write(tmp_path):
    # One parser serves every call of a process, so a --set value of one call
    # must not reach the next.
    with_set = ["--set", "count=50", "--set", "imbalance_db=0.25"]
    for i, extra in enumerate([with_set, [], with_set]):
        argv = ["--scenario", "mimo-area-grid", "--seed", "4", *extra]
        assert main([*argv, "--out", str(tmp_path / f"call{i}")]) == 0
        subprocess.run([sys.executable, "-m", "vlcsim.cli", *argv,
                        "--out", str(tmp_path / f"process{i}")], env=SRC_ENV, check=True)
        for name in ("mimo-area-grid.csv", "summary.json"):
            assert ((tmp_path / f"call{i}" / name).read_bytes()
                    == (tmp_path / f"process{i}" / name).read_bytes()), (i, name)


def test_negative_imbalance_names_the_reachable_range(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "mimo-area-grid", "--set", "imbalance_db=-1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "f(a) and f(b)" not in err
    assert "[0, 0.59] dB" in err.strip().splitlines()[-1]
    assert not out.exists()


def test_descending_distance_range_names_both_keys(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "siso-sweep", "--set", "d_min=5", "--set", "d_max=1",
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("vlcsim: error: ")
    assert "d_min" in err[-1] and "d_max" in err[-1]
    assert not out.exists()


# The sweep distances are bounded to 1e6 m, so only a scene file can put the
# link itself out of float range.
@pytest.mark.parametrize("rx_position,overrides,reason", [
    ("1e308 1e308 0.0", [], "geometry is not finite"),
    (None, ["d_min=1e-13"], "degenerate geometry"),
], ids=["huge", "coincident"])
def test_distances_without_finite_geometry_are_one_line(rx_position, overrides, reason,
                                                         tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--scenario", "siso-sweep", "--out", str(out)]
    if rx_position is not None:
        scene = tmp_path / "far.cfg"
        scene.write_text((SCENES / "siso.cfg").read_text().replace(
            "position_m = 2.0 0.0 0.0", f"position_m = {rx_position}"))
        argv += ["--scene", str(scene)]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [line for line in err if line.startswith("vlcsim: error: ")] == [err[-1]]
    assert reason in err[-1]
    assert "Warning" not in "\n".join(err)
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["handover-sweep", "blockage-timeline"])
def test_scene_out_of_float_range_is_one_line(scenario, tmp_path, capsys):
    text = (SCENES / "handover.cfg").read_text().replace(
        "position_m = 2.165063509461097 1.2499999999999998 0.0", "position_m = 1e308 1e308 0.0")
    scene = tmp_path / "far.cfg"
    scene.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", scenario, "--scene", str(scene), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("vlcsim: error: geometry is not finite: ")
    assert not out.exists()


# No path receives more power than the LED sends. A scene path names its
# TX->RX pair (exit 1); the siso sweep's moved receiver, in a scene whose own
# link is valid, names its distance and d_min (exit 2). No numpy warning comes
# first.
@pytest.mark.parametrize("scenario,cfg,edit,overrides,code,line", [
    ("siso-sweep", None, None, ["d_min=1e-6", "d_max=1e-3"], 2,
     r"vlcsim: error: receiver at 1e-06 m: optical gain \S+ is not <= 1: .*; raise d_min"),
    ("siso-sweep", "siso.cfg", ("active_area_m2 = 0.0001", "active_area_m2 = 1e300"), [],
     1, r"invalid scene: path tx_a->rx_a: optical gain \S+ is not <= 1: .*"),
    ("csi-report", "csi_miso.cfg", ("active_area_m2 = 0.0001", "active_area_m2 = 1e308"), [],
     1, r"invalid scene: path tx_a->rx_a: optical gain inf is not <= 1: .*"),
    ("handover-sweep", "handover.cfg",
     ("half_power_semi_angle_deg = 30.0", "half_power_semi_angle_deg = 1e-6"), [],
     1, r"invalid scene: path tx_a->rx_a: optical gain \S+ is not <= 1: .*"),
], ids=["siso-receiver-too-close", "siso-huge-area", "csi-huge-area", "handover-needle-beam"])
def test_path_gain_above_one_is_one_line(scenario, cfg, edit, overrides, code, line,
                                         tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--scenario", scenario, "--out", str(out)]
    if cfg is not None:
        scene = tmp_path / cfg
        scene.write_text((SCENES / cfg).read_text().replace(*edit))
        argv += ["--scene", str(scene)]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert re.fullmatch(line, err[-1]), err
    assert [e for e in err if e.startswith(("vlcsim: error: ", "invalid scene: "))] == [err[-1]]
    # Only a usage error prints argparse's usage lines before its own.
    assert code == 2 or len(err) == 1
    assert "Traceback" not in "\n".join(err) and "Warning" not in "\n".join(err)
    assert not out.exists()


# A receiver outside its FOV, or behind the emitter plane, gets gain 0 before
# the gain bound is applied, so an area that the bound would refuse on a lit
# path is no fault there.
_SISO_RX_BORESIGHT = "boresight = -1.0 0.0 0.0"
_HANDOVER_RX_B_BORESIGHT = "boresight = -0.8660254037844387 0.4999999999999999 -0.0"


@pytest.mark.parametrize("scenario,cfg,column,edits", [
    ("siso-sweep", "siso.cfg", "rssi_dbm", [(_SISO_RX_BORESIGHT, "boresight = 0.0 1.0 0.0")]),
    ("siso-sweep", "siso.cfg", "rssi_dbm",
     [("position_m = 2.0 0.0 0.0", "position_m = -2.0 0.0 0.0"),
      (_SISO_RX_BORESIGHT, "boresight = 1.0 0.0 0.0")]),
    ("handover-sweep", "handover.cfg", "rssi_b_dbm",
     [(_HANDOVER_RX_B_BORESIGHT, "boresight = 1.0 0.0 0.0")]),
    ("handover-sweep", "handover.cfg", "rssi_b_dbm",
     [("position_m = 2.165063509461097 -1.2499999999999998 0.0",
       "position_m = -2.165063509461097 1.2499999999999998 0.0"),
      (_HANDOVER_RX_B_BORESIGHT, "boresight = 0.8660254037844387 -0.4999999999999999 0.0")]),
], ids=["siso-outside-fov", "siso-behind-emitter", "handover-outside-fov",
        "handover-behind-emitter"])
def test_unlit_receiver_is_dark_whatever_its_area(scenario, cfg, column, edits, tmp_path):
    head, section, last_rx = (SCENES / cfg).read_text().rpartition("[frontend ")
    for old, new in [*edits, ("active_area_m2 = 0.0001", "active_area_m2 = 1e300")]:
        assert old in last_rx
        last_rx = last_rx.replace(old, new)
    scene = tmp_path / cfg
    scene.write_text(head + section + last_rx)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--scenario", scenario, "--scene", str(scene), "--out", str(out)]) == 0
    rows = read_csv(out / f"{scenario}.csv")
    col = rows[0].index(column)
    assert len(rows) > 1 and all(row[col] == "-inf" for row in rows[1:])


def _refuse_constant(constant):
    raise ValueError(f"not a JSON number: {constant}")


# Both receivers facing up see nothing at any angle; a needle-narrow beam (m
# about 18000) leaves both dark around broadside.
@pytest.mark.parametrize("edits,all_dark", [
    ([("boresight = -0.8660254037844387 -0.4999999999999999 -0.0", "boresight = 0 0 1"),
      ("boresight = -0.8660254037844387 0.4999999999999999 -0.0", "boresight = 0 0 1")], True),
    ([("half_power_semi_angle_deg = 30.0", "half_power_semi_angle_deg = 0.5")], False),
], ids=["all-dark", "partly-dark"])
def test_dark_handover_excursion_is_null(edits, all_dark, tmp_path):
    text = (SCENES / "handover.cfg").read_text()
    for edit in edits:
        assert edit[0] in text
        text = text.replace(*edit)
    scene = tmp_path / "dark.cfg"
    scene.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--scenario", "handover-sweep", "--scene", str(scene),
                     "--out", str(out)]) == 0
    mrc = [row[3] for row in read_csv(out / "handover-sweep.csv")[1:]]
    assert "-inf" in mrc and (set(mrc) == {"-inf"}) == all_dark
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_refuse_constant)
    assert summary["aggregates"]["mrc_excursion_db"] is None


def test_cached_cells_keep_the_sign_of_zero():
    cache = {}
    assert cli._cell_texts(cache, (0.0, -50.5)) == ("0.0", "-50.5")
    assert cli._cell_texts(cache, (-0.0, -50.5)) == ("-0.0", "-50.5")
    assert cli._cell_texts(cache, (0.0, -50.5)) == ("0.0", "-50.5")
    assert cli._cell_texts(cache, (-50.5, -0.0)) == ("-50.5", "-0.0")
    texts = cli._cell_texts(cache, (1.25, -math.inf))
    assert cli._cell_texts(cache, (1.25, -math.inf)) is texts
    # A pre-formatted cell is what csv.writer writes for the float itself.
    values = [0.0, -0.0, np.float64(-0.0), -math.inf, 0.1 + 0.2, np.float64(1e-300)]
    direct, formatted = io.StringIO(), io.StringIO()
    csv.writer(direct).writerow(values)
    csv.writer(formatted).writerow(cli._cell_texts({}, tuple(values)))
    assert direct.getvalue() == formatted.getvalue() == \
        "0.0,-0.0,-0.0,-inf,0.30000000000000004,1e-300\r\n"

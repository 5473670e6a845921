"""CLI behavior: outputs, exit codes, determinism, overrides."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import vlcsim
from vlcsim import cli, sceneconfig
from vlcsim.cli import main

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"


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
])
def test_non_finite_scene_value_exits_1_with_one_line(key, value, field, tmp_path, capsys):
    lines = (SCENES / "siso.cfg").read_text().splitlines()
    # The last occurrence of a key belongs to the receiver where both have it.
    at = max(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[at] = f"{key} = {value}"
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["--scenario", "siso-sweep", "--scene", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("invalid scene: ") and field in err[0]
    assert not out.exists()


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


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(vlcsim.__file__)))
    code = "import sys, vlcsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


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
    ["--scenario", "mrc-fsr-point", "--set", "fsr_a=nan"],
    ["--scenario", "mrc-fsr-point", "--set", "fsr_b=-inf"],
    ["--scenario", "csi-report", "--set", "bits=2000"],
    ["--scenario", "csi-report", "--set", "bits=64"],
    ["--scenario", "oracle-check", "--set", "offsets_db=-1e308", "--set", "n_frames=2"],
    ["--scenario", "siso-sweep", "--set", "d_min=1e150", "--set", "d_max=1e154"],
], ids=["blockage-0-frames", "handover-0-angles", "handover-negative-angles",
        "siso-0-distances", "siso-negative-d_min", "siso-nan-d_max", "siso-no-mcs",
        "blockage-2-streams-on-1-tx", "siso-2-streams-on-1x1", "mrc-0-count",
        "mrc-fsr-out-of-range", "csi-1-bit", "oracle-nan-offset", "oracle-inf-offset",
        "area-nan-imbalance", "area-minus-inf-imbalance", "area-negative-imbalance",
        "mrc-nan-fsr", "mrc-minus-inf-fsr", "csi-2000-bits", "csi-64-bits",
        "oracle-huge-offset", "siso-underflowing-distance"])
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
    ("csi-report", "bits", "2000"), ("oracle-check", "offsets_db", "0,-1e308")])
def test_out_of_bound_set_value_names_the_key(scenario, key, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", scenario, "--set", f"{key}={value}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"vlcsim: error: --set {key}: cannot use '{value}': must be in [")


@pytest.mark.parametrize("scenario,setting", [
    ("siso-sweep", "d_max=1e6"), ("csi-report", "bits=16"), ("csi-report", "bits=2"),
    ("oracle-check", "offsets_db=-100,100")])
def test_bound_values_are_accepted(scenario, setting, tmp_path):
    small = {"siso-sweep": ["--set", "n_distances=3", "--set", "mcs=0"],
             "oracle-check": ["--set", "n_frames=2", "--set", "mcs=0"]}.get(scenario, [])
    out = tmp_path / "out"
    assert main(["--scenario", scenario, "--set", setting, *small, "--out", str(out)]) == 0
    assert len(read_csv(out / f"{scenario}.csv")) > 1


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

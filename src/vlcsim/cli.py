"""Command-line entry point: run a scripted scenario, write CSV + JSON summary.

Usage::

    vlcsim --scenario blockage-timeline --seed 7 --out results/
    vlcsim --scenario siso-sweep --set count=500 --set n_distances=40
    vlcsim --scenario csi-report --scene my_scene.cfg

Outputs `<scenario>.csv` and `summary.json` in the output directory (flag
`--out`, else `$VLCSIM_OUT`, else `./vlcsim-out`). All randomness flows from
`--seed`; identical configs produce byte-identical outputs.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import presets, scenarios
from .channel import ChannelMatrix, subcarrier_frequencies
from .errors import ValidationError
from .oracle import empirical_fsr, oracle_snr_for
from .phy import FrameSpec, fsr, mcs, snr_for_fsr
from .sceneconfig import read_scene_file, scene_to_text

SCENARIOS = ("siso-sweep", "blockage-timeline", "mrc-fsr-point", "handover-sweep",
             "mimo-area-grid", "csi-report", "oracle-check")

_TAKES_SCENE = {"siso-sweep", "blockage-timeline", "handover-sweep", "csi-report"}


@dataclass
class RunConfig:
    scenario: str
    scene: str | None
    seed: int
    output_dir: str
    overrides: dict


def _parse_list(parse):
    def parse_list(text):
        values = [parse(p) for p in str(text).split(",") if p != ""]
        if not values:
            raise ValueError("needs at least one value")
        return values
    return parse_list


def _finite(parse):
    def parse_finite(text):
        value = parse(text)
        if not math.isfinite(value):
            raise ValueError(f"must be a finite number, got {value}")
        return value
    return parse_finite


def _positive(parse):
    def parse_positive(text):
        value = parse(text)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"must be a finite number > 0, got {value}")
        return value
    return parse_positive


def _within(parse, lo, hi):
    def parse_within(text):
        value = parse(text)
        if not lo <= value <= hi:
            raise ValueError(f"must be in [{lo:g}, {hi:g}], got {value:g}")
        return value
    return parse_within


_parse_int_list = _parse_list(int)
_finite_float = _finite(float)
_positive_int = _positive(int)
# The Lambertian gain of a receiver in the beam falls as 1/d^2 and underflows to
# zero past about 1e153 m, where the row would read -inf RSSI.
_sweep_distance = _within(_positive(float), 0.0, 1e6)
# 802.11n CSI feedback quantizes with 4 to 8 bits; 2 is the least a signed
# quantizer takes, and past 16 bits the integer range means nothing.
_csi_bits = _within(int, 2, 16)
# The FSR waterfall spans a few dB, and an offset of some -3000 dB overflows the
# oracle's noise power, so +-100 dB is ample.
_parse_offsets_db = _parse_list(_within(_finite_float, -100.0, 100.0))

# Allowed --set keys per scenario, with their parsers.
_OVERRIDE_KEYS = {
    "siso-sweep": {"payload_bytes": _positive_int, "count": _positive_int,
                   "n_distances": _positive_int, "d_min": _sweep_distance,
                   "d_max": _sweep_distance, "mcs": _parse_int_list},
    "blockage-timeline": {"payload_bytes": _positive_int, "n_frames": _positive_int,
                          "mcs_index": int},
    "mrc-fsr-point": {"payload_bytes": _positive_int, "count": _positive_int,
                      "fsr_a": _finite_float, "fsr_b": _finite_float},
    "handover-sweep": {"n_angles": _positive_int},
    "mimo-area-grid": {"payload_bytes": _positive_int, "count": _positive_int,
                       "imbalance_db": _finite_float, "mcs": _parse_int_list},
    "csi-report": {"bits": _csi_bits, "bandwidth_mhz": int},
    "oracle-check": {"payload_bytes": _positive_int, "n_frames": _positive_int,
                     "mcs": _parse_int_list, "offsets_db": _parse_offsets_db},
}


def _cell_texts(cache: dict, values: tuple) -> tuple:
    """`str` of each of `values`, formatted once per distinct tuple of values.

    `csv.writer` writes a float as `str(value)`, so a cell pre-formatted here
    writes the same bytes. 0.0 and -0.0 are equal keys that print differently,
    so a tuple holding a zero is not cached and keeps its own text.
    """
    texts = cache.get(values)
    if texts is None:
        texts = tuple(map(str, values))
        if 0.0 not in values:
            cache[values] = texts
    return texts


def _flat_channel(n: int, bandwidth_mhz: int = 20) -> ChannelMatrix:
    """Synthetic unit-gain n x n channel for oracle self-checks."""
    return ChannelMatrix.from_paths(np.eye(n), np.zeros((n, n)),
                                    subcarrier_frequencies(bandwidth_mhz))


def _run_siso_sweep(scene, seed, ov):
    frame = FrameSpec(payload_bytes=ov.get("payload_bytes", 1000),
                      count=ov.get("count", 1000))
    d_min, d_max = ov.get("d_min", 0.15), ov.get("d_max", 12.5)
    if d_min > d_max:
        raise ValueError(f"--set d_min={d_min} must not exceed d_max={d_max}")
    distances = np.geomspace(d_min, d_max, ov.get("n_distances", 64))
    mcs_list = ov.get("mcs", list(range(8)))
    rows = scenarios.run_siso_sweep(scene, mcs_list, distances, frame, seed)
    header = ["distance_m", "rssi_dbm", "snr_db", "mcs_index", "fsr_analytic", "fsr_realized"]
    # Every MCS of a distance repeats its distance, RSSI and SNR, and the RSSI
    # sort need not keep them adjacent, so they are formatted by value.
    texts = {}
    csv_rows = [(*_cell_texts(texts, (d, rssi, snr)), m, p, q)
                for d, rssi, snr, m, p, q in rows]
    # Rows are sorted by RSSI, so an MCS's first reliable row has its lowest RSSI.
    first_reliable = dict.fromkeys(map(str, mcs_list))
    for r in rows:
        if r.fsr_realized >= 0.99 and first_reliable[str(r.mcs_index)] is None:
            first_reliable[str(r.mcs_index)] = r.rssi_dbm
    return header, csv_rows, {"first_rssi_dbm_with_fsr_0p99": first_reliable}


def _run_blockage(scene, seed, ov):
    frame = FrameSpec(payload_bytes=ov.get("payload_bytes", 1000), count=1)
    traces = scenarios.run_blockage_timeline(
        scene, frame, seed, mcs_index=ov.get("mcs_index", 0),
        n_frames=ov.get("n_frames", scenarios.TIMELINE_TOTAL_FRAMES))
    n_chains = len(traces[0].per_chain_rssi_dbm)
    header = (["frame_index"] + [f"rssi_chain_{i}_dbm" for i in range(n_chains)]
              + ["combined_rssi_dbm", "technique", "mcs_index", "success"])
    # Frames of one obstacle state share their RSSI cells; format them once.
    texts = {}
    csv_rows = [(i, *_cell_texts(texts, (*per_chain, combined)), technique, m, ok)
                for i, per_chain, combined, technique, m, ok in traces]
    return header, csv_rows, {
        "frames": len(traces),
        "success_rate": sum(t.success for t in traces) / len(traces)}


def _run_mrc_point(seed, ov):
    frame = FrameSpec(payload_bytes=ov.get("payload_bytes", 1000),
                      count=ov.get("count", 1000))
    entry = mcs(0)
    snr_a = snr_for_fsr(entry, ov.get("fsr_a", presets.MRC_POINT_TARGET_FSR[0]))
    snr_b = snr_for_fsr(entry, ov.get("fsr_b", presets.MRC_POINT_TARGET_FSR[1]))
    point = scenarios.run_mrc_fsr_point((snr_a, snr_b), frame, seed)
    header = ["path", "snr_db", "fsr_analytic", "fsr_realized"]
    csv_rows = [["A", snr_a, point.analytic_a, point.fsr_a],
                ["B", snr_b, point.analytic_b, point.fsr_b],
                ["MRC", point.mrc_snr_db, point.analytic_mrc, point.fsr_mrc]]
    return header, csv_rows, {"fsr_a": point.fsr_a, "fsr_b": point.fsr_b,
                              "fsr_mrc": point.fsr_mrc}


def _run_handover(scene, seed, ov):
    angles = presets.handover_angles(ov.get("n_angles", 61))
    rows = scenarios.run_handover_sweep(scene, angles)
    # A HandoverRow's fields are the CSV columns, so the rows are written as they are.
    header = ["tx_azimuth_deg", "rssi_a_dbm", "rssi_b_dbm", "rssi_mrc_dbm"]
    mrc = [r.rssi_mrc_dbm for r in rows]
    return header, rows, {"mrc_excursion_db": max(mrc) - min(mrc)}


def _run_area_grid(seed, ov):
    frame = FrameSpec(payload_bytes=ov.get("payload_bytes", 1000),
                      count=ov.get("count", 1000))
    mcs_list = ov.get("mcs", [8, 9, 10, 11, 12])
    imbalance = ov.get("imbalance_db", 0.5)
    rows = scenarios.run_mimo_area_grid(
        [(1, 3), (2, 3), (1, 2), (2, 2)], mcs_list, frame, seed,
        area22_imbalance_db=imbalance)
    # The exactly-proportional (2, 2) contrast case, same seed stream.
    rows += scenarios.run_mimo_area_grid([(2, 2)], mcs_list, frame, seed + 1,
                                         area22_imbalance_db=0.0)
    header = ["placement", "imbalance_db", "mcs_index", "snr_stream_a_db",
              "snr_stream_b_db", "solvable", "condition_number",
              "fsr_analytic", "fsr_realized"]
    csv_rows = [[r.placement, r.imbalance_db, r.mcs_index, *r.stream_snr_db,
                 r.solvable, r.condition_number, r.fsr_analytic, r.fsr_realized]
                for r in rows]
    summary = {f"{r.placement}@{r.imbalance_db}/mcs{r.mcs_index}": r.fsr_realized
               for r in rows}
    return header, csv_rows, {"fsr_realized": summary}


def _run_csi(scene, seed, ov):
    bits = ov.get("bits", 6)
    bw = ov.get("bandwidth_mhz", 40)
    variants = ([("custom", scene)] if scene is not None else
                [("siso", presets.csi_siso_scene()), ("miso", presets.csi_miso_scene())])
    header = ["variant", "rx", "tx", "subcarrier_hz", "re", "im", "scale"]
    csv_rows, ripple = [], {}
    for name, sc in variants:
        report = scenarios.run_csi_report(sc, bits=bits, bandwidth_mhz=bw)
        n_rx, n_tx, n_sc = report.re.shape
        for i in range(n_rx):
            for j in range(n_tx):
                for k in range(n_sc):
                    csv_rows.append([name, i, j, report.subcarrier_freqs[k],
                                     int(report.re[i, j, k]), int(report.im[i, j, k]),
                                     report.scale])
        ripple[name] = float(np.max(report.magnitude_ripple_db()))
    return header, csv_rows, {"magnitude_ripple_db": ripple}


def _run_oracle_check(seed, ov):
    frame = FrameSpec(payload_bytes=ov.get("payload_bytes", 1000), count=1)
    n_frames = ov.get("n_frames", 1000)
    offsets = ov.get("offsets_db", [-2.0, -1.0, 0.0, 1.0, 2.0])
    header = ["mcs_index", "offset_db", "analytic_snr_db", "oracle_snr_db",
              "fsr_analytic", "fsr_empirical", "abs_err"]
    csv_rows, max_err = [], 0.0
    for m in ov.get("mcs", [0, 1, 8, 9]):
        entry = mcs(m)
        cm = _flat_channel(entry.n_streams)
        for off in offsets:
            snr = entry.snr_threshold_db + off
            analytic = fsr(entry, [snr] * entry.n_streams, frame)
            oracle_snr = oracle_snr_for(entry, snr, frame)
            emp = empirical_fsr(cm, entry, frame, oracle_snr, n_frames, seed)
            err = abs(analytic - emp)
            max_err = max(max_err, err)
            csv_rows.append([m, off, snr, oracle_snr, analytic, emp, err])
    return header, csv_rows, {"max_abs_err": max_err}


def run(config: RunConfig) -> int:
    """Execute one scenario and write `<scenario>.csv` plus `summary.json`."""
    scene = None
    scene_text = None
    if config.scene is not None:
        try:
            scene, diagnostics = read_scene_file(config.scene)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"cannot read scene: {config.scene}: {reason}", file=sys.stderr)
            return 1
        if diagnostics:
            for d in diagnostics:
                print(f"invalid scene: {d}", file=sys.stderr)
            return 1
        scene_text = scene_to_text(scene)

    name, seed, ov = config.scenario, config.seed, config.overrides
    if name == "siso-sweep":
        out = _run_siso_sweep(scene or presets.siso_scene(), seed, ov)
    elif name == "blockage-timeline":
        out = _run_blockage(scene or presets.simo_blockage_scene(), seed, ov)
    elif name == "mrc-fsr-point":
        out = _run_mrc_point(seed, ov)
    elif name == "handover-sweep":
        out = _run_handover(scene or presets.handover_scene(), seed, ov)
    elif name == "mimo-area-grid":
        out = _run_area_grid(seed, ov)
    elif name == "csi-report":
        out = _run_csi(scene, seed, ov)
    else:
        out = _run_oracle_check(seed, ov)
    header, csv_rows, aggregates = out

    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, f"{name}.csv")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(csv_rows)

    config_blob = json.dumps(
        {"scenario": name, "seed": seed, "overrides": ov, "scene": scene_text},
        sort_keys=True)
    summary = {
        "scenario": name,
        "seed": seed,
        "scene": config.scene or "preset",
        "config_hash": hashlib.sha256(config_blob.encode()).hexdigest(),
        "rows": len(csv_rows),
        "aggregates": aggregates,
    }
    with open(os.path.join(config.output_dir, "summary.json"), "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcsim",
        description="Link-level MIMO VLC simulator: scripted scenarios, CSV/JSON outputs.")
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--scene", help="scene config file (defaults to the scenario preset)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="output directory (default: $VLCSIM_OUT or ./vlcsim-out)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario scalar")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    allowed = _OVERRIDE_KEYS[args.scenario]
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            parser.error(f"--set expects KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        if key not in allowed:
            parser.error(f"unknown --set key '{key}' for scenario {args.scenario} "
                         f"(allowed: {', '.join(sorted(allowed))})")
        try:
            overrides[key] = allowed[key](value)
        except ValueError as exc:
            parser.error(f"--set {key}: cannot use '{value}': {exc}")
    if args.scene is not None and args.scenario not in _TAKES_SCENE:
        parser.error(f"scenario {args.scenario} does not take a scene file")
    out_dir = args.out or os.environ.get("VLCSIM_OUT") or "vlcsim-out"
    config = RunConfig(scenario=args.scenario, scene=args.scene, seed=args.seed,
                       output_dir=out_dir, overrides=overrides)
    try:
        return run(config)
    except ValidationError as exc:
        print(f"invalid scene: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # A runner rejected the configuration (e.g. more streams than the link
        # carries) before any output was written.
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

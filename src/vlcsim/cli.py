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
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from . import presets, scenarios
from .channel import ChannelMatrix, ValidationError, subcarrier_frequencies
from .oracle import empirical_fsr, oracle_snr_for
# Imported under another name: `mcs` is the --set key of an MCS list.
from .phy import FrameSpec, fsr_at, mcs as mcs_entry
from .sceneconfig import read_scene_file, scene_to_text


def _parse_list(parse):
    def parse_list(text):
        values = [parse(p) for p in str(text).split(",") if p != ""]
        if not values:
            raise ValueError("needs at least one value")
        return values
    return parse_list


def _number(parse, lo=-math.inf, hi=math.inf):
    """Parser of one finite number in [lo, hi]."""
    def parse_number(text):
        value = parse(text)
        # Compared, not passed to math.isfinite, which overflows on a huge int.
        if not -math.inf < value < math.inf:
            raise ValueError(f"must be a finite number, got {value}")
        if not lo <= value <= hi:
            raise ValueError(f"must be in [{lo:g}, {hi:g}], got {value}")
        return value
    return parse_number


def _positive(parse):
    def parse_positive(text):
        value = parse(text)
        if not value > 0:
            raise ValueError(f"must be > 0, got {value}")
        return value
    return parse_positive


def _bandwidth_mhz(text):
    """A channel width of the 802.11n PHY."""
    value = int(text)
    if value not in (20, 40):
        raise ValueError(f"must be 20 or 40, got {value}")
    return value


def _parse_mcs_list(text):
    """Distinct MCS indices: a repeated one would repeat its summary key."""
    values = _parse_list(_mcs_index)(text)
    if len(set(values)) != len(values):
        raise ValueError(f"repeats an index: {values}")
    return values


_finite_float = _number(float)
# Run sizes are bounded, each far above what a study or the benchmark uses, so
# that a mistyped size exits 2 rather than exhausting memory, running for hours
# or overflowing numpy.
# A cell's realized FSR is one binomial draw, whose count numpy takes as a C
# long (32 bits on some platforms); a billion frames resolve an FSR to 1e-9.
_count = _number(int, 1, 10**9)
# One CSV row per frame or angle, held in memory until written: 1e5 timeline
# frames are about 20 MB, and 1e5 angles are 0.0006 degrees apart.
_n_rows = _number(int, 1, 10**5)
# The default 0.15-12.5 m sweep spans 38 dB of path loss, so 1e4 distances are
# 0.004 dB apart, a hundredth of the 0.4 dB FSR slope; each is a row per MCS.
_n_distances = _number(int, 1, 10**4)
# The Monte-Carlo FSR of 1e4 frames has a standard error of at most 0.005, a
# twentieth of the oracle check's 0.1 tolerance; a frame takes about 0.5 ms.
_n_oracle_frames = _number(int, 1, 10**4)
# 65535 octets is the largest PSDU the 16-bit 802.11n HT-SIG length field carries.
_payload_bytes = _number(int, 1, 65535)
# The Lambertian gain of a receiver in the beam falls as 1/d^2 and underflows to
# zero past about 1e153 m, where the row would read -inf RSSI.
_sweep_distance = _positive(_number(float, hi=1e6))
_csi_bits = _number(int, *scenarios.CSI_BITS_RANGE)
_mcs_index = _number(int, 0, 15)  # the 802.11n MCS table
# The FSR waterfall spans a few dB, and an offset of some -3000 dB overflows the
# oracle's noise power, so +-100 dB is ample.
_parse_offsets_db = _parse_list(_number(float, -100.0, 100.0))


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


def _run_siso_sweep(scene, seed, *, payload_bytes=1000, count=1000, n_distances=64,
                    d_min=0.15, d_max=12.5, mcs=tuple(range(8))):
    if scene is None:
        scene = presets.siso_scene()
    distances = presets.siso_sweep_distances(n_distances, d_min, d_max)
    rows = scenarios.run_siso_sweep(scene, mcs, distances, FrameSpec(payload_bytes, count), seed)
    header = ["distance_m", "rssi_dbm", "snr_db", "mcs_index", "fsr_analytic", "fsr_realized"]
    # Every MCS of a distance repeats its distance, RSSI and SNR, and the RSSI
    # sort need not keep them adjacent, so they are formatted by value.
    texts = {}
    csv_rows = [(*_cell_texts(texts, (d, rssi, snr)), m, p, q)
                for d, rssi, snr, m, p, q in rows]
    # Rows are sorted by RSSI, so walking them backwards the last reliable row
    # of an MCS written is its reliable row of lowest RSSI.
    first_reliable = dict.fromkeys(map(str, mcs))
    first_reliable.update((str(m), rssi) for _, rssi, _, m, _, q in reversed(rows) if q >= 0.99)
    return header, csv_rows, {"first_rssi_dbm_with_fsr_0p99": first_reliable}


def _run_blockage(scene, seed, *, payload_bytes=1000, n_frames=350, mcs_index=0):
    if scene is None:
        scene = presets.simo_blockage_scene()
    traces = scenarios.run_blockage_timeline(scene, FrameSpec(payload_bytes, count=1), seed,
                                             mcs_index, n_frames)
    n_chains = len(traces[0].per_chain_rssi_dbm)
    header = (["frame_index"] + [f"rssi_chain_{i}_dbm" for i in range(n_chains)]
              + ["combined_rssi_dbm", "technique", "mcs_index", "success"])
    # Frames of one obstacle state share their RSSI cells; format them once.
    texts = {}
    csv_rows = [(i, *_cell_texts(texts, (*per_chain, combined)), "MRC", m, ok)
                for i, per_chain, combined, m, ok in traces]
    return header, csv_rows, {"frames": len(traces),
                              "success_rate": sum(t.success for t in traces) / len(traces)}


def _run_mrc_point(scene, seed, *, payload_bytes=1000, count=1000,
                   fsr_a=presets.MRC_POINT_TARGET_FSR[0], fsr_b=presets.MRC_POINT_TARGET_FSR[1]):
    frame = FrameSpec(payload_bytes, count)
    snr_a, snr_b = presets.mrc_point_snrs_db((fsr_a, fsr_b), frame)
    point = scenarios.run_mrc_fsr_point((snr_a, snr_b), frame, seed)
    header = ["path", "snr_db", "fsr_analytic", "fsr_realized"]
    csv_rows = [["A", snr_a, point.analytic_a, point.fsr_a],
                ["B", snr_b, point.analytic_b, point.fsr_b],
                ["MRC", point.mrc_snr_db, point.analytic_mrc, point.fsr_mrc]]
    return header, csv_rows, {"fsr_a": point.fsr_a, "fsr_b": point.fsr_b,
                              "fsr_mrc": point.fsr_mrc}


def _run_handover(scene, seed, *, n_angles=61):
    if scene is None:
        scene = presets.handover_scene()
    rows = scenarios.run_handover_sweep(scene, presets.handover_angles(n_angles))
    # A HandoverRow's fields are the CSV columns, so the rows are written as they are.
    header = ["tx_azimuth_deg", "rssi_a_dbm", "rssi_b_dbm", "rssi_mrc_dbm"]
    mrc = [r.rssi_mrc_dbm for r in rows]
    # An angle where neither receiver sees the LED makes the excursion unbounded: null.
    excursion = max(mrc) - min(mrc) if min(mrc) > -math.inf else None
    return header, rows, {"mrc_excursion_db": excursion}


def _run_area_grid(scene, seed, *, payload_bytes=1000, count=1000, imbalance_db=0.5,
                   mcs=(8, 9, 10, 11, 12)):
    rows = scenarios.run_mimo_area_grid(mcs, FrameSpec(payload_bytes, count), seed, imbalance_db)
    header = ["placement", "imbalance_db", "mcs_index", "snr_stream_a_db",
              "snr_stream_b_db", "solvable", "condition_number",
              "fsr_analytic", "fsr_realized"]
    csv_rows = [[r.placement, r.imbalance_db, r.mcs_index, *r.stream_snr_db,
                 r.solvable, r.condition_number, r.fsr_analytic, r.fsr_realized]
                for r in rows]
    summary = {f"{r.placement}@{r.imbalance_db}/mcs{r.mcs_index}": r.fsr_realized
               for r in rows}
    return header, csv_rows, {"fsr_realized": summary}


def _run_csi(scene, seed, *, bits=6, bandwidth_mhz=40):
    variants = ([("custom", scene)] if scene is not None else
                [("siso", presets.csi_siso_scene()), ("miso", presets.csi_miso_scene())])
    header = ["variant", "rx", "tx", "subcarrier_hz", "re", "im", "scale"]
    csv_rows, ripple = [], {}
    for name, sc in variants:
        report = scenarios.run_csi_report(sc, bits, bandwidth_mhz)
        freqs, re, im = (a.tolist() for a in (report.subcarrier_freqs, report.re, report.im))
        csv_rows += [[name, i, j, freqs[k], re[i][j][k], im[i][j][k], report.scale]
                     for i, j, k in product(*map(range, report.re.shape))]
        ripple[name] = float(np.max(report.magnitude_ripple_db()))
    return header, csv_rows, {"magnitude_ripple_db": ripple}


def _run_oracle_check(scene, seed, *, payload_bytes=1000, n_frames=1000, mcs=(0, 1, 8, 9),
                      offsets_db=(-2.0, -1.0, 0.0, 1.0, 2.0)):
    frame = FrameSpec(payload_bytes, count=1)
    header = ["mcs_index", "offset_db", "analytic_snr_db", "oracle_snr_db",
              "fsr_analytic", "fsr_empirical", "abs_err"]
    csv_rows, max_err = [], 0.0
    for m in mcs:
        entry = mcs_entry(m)
        n = entry.n_streams  # a unit-gain n x n channel
        cm = ChannelMatrix.from_paths(np.eye(n), np.zeros((n, n)), subcarrier_frequencies(20))
        for off in offsets_db:
            snr = entry.snr_threshold_db + off
            analytic = fsr_at(entry, snr, frame.payload_bytes)
            oracle_snr = oracle_snr_for(entry, snr, frame)
            emp = empirical_fsr(cm, entry, frame, oracle_snr, n_frames, seed)
            err = abs(analytic - emp)
            max_err = max(max_err, err)
            csv_rows.append([m, off, snr, oracle_snr, analytic, emp, err])
    return header, csv_rows, {"max_abs_err": max_err}


class Scenario(NamedTuple):
    """How one scenario runs and what it accepts."""

    # (scene or None, seed, **set values) -> (header, csv rows, aggregates). Its
    # keyword defaults are the scenario's defaults, and given no scene it builds
    # its preset one.
    runner: Callable
    keys: dict  # its --set keys, each with the parser that checks its value's bounds
    takes_scene: bool = False


REGISTRY = {
    "siso-sweep": Scenario(_run_siso_sweep, {
        "payload_bytes": _payload_bytes, "count": _count, "n_distances": _n_distances,
        "d_min": _sweep_distance, "d_max": _sweep_distance, "mcs": _parse_mcs_list},
        takes_scene=True),
    "blockage-timeline": Scenario(_run_blockage, {
        "payload_bytes": _payload_bytes, "n_frames": _n_rows, "mcs_index": _mcs_index},
        takes_scene=True),
    "mrc-fsr-point": Scenario(_run_mrc_point, {
        "payload_bytes": _payload_bytes, "count": _count,
        "fsr_a": _finite_float, "fsr_b": _finite_float}),
    "handover-sweep": Scenario(_run_handover, {"n_angles": _n_rows}, takes_scene=True),
    "mimo-area-grid": Scenario(_run_area_grid, {
        "payload_bytes": _payload_bytes, "count": _count,
        "imbalance_db": _finite_float, "mcs": _parse_mcs_list}),
    # Without --scene it reports both CSI presets.
    "csi-report": Scenario(_run_csi, {"bits": _csi_bits, "bandwidth_mhz": _bandwidth_mhz},
                           takes_scene=True),
    "oracle-check": Scenario(_run_oracle_check, {
        "payload_bytes": _payload_bytes, "n_frames": _n_oracle_frames,
        "mcs": _parse_mcs_list, "offsets_db": _parse_offsets_db}),
}


def run(name: str, scene_path: str | None, seed: int, output_dir: str,
        overrides: dict) -> None:
    """Execute one scenario and write `<scenario>.csv` plus `summary.json`.

    An invalid scene raises ValidationError (one argument per diagnostic), an
    unreadable scene file OSError and a configuration the runner rejects
    ValueError, all before any output file is written.
    """
    scenario = REGISTRY[name]
    scene = scene_text = None
    if scene_path is not None:
        try:
            scene = read_scene_file(scene_path)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise OSError(f"cannot read scene: {scene_path}: {reason}") from None
        scene_text = scene_to_text(scene)
    header, csv_rows, aggregates = scenario.runner(scene, seed, **overrides)

    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{name}.csv")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(csv_rows)

    config_blob = json.dumps(
        {"scenario": name, "seed": seed, "overrides": overrides, "scene": scene_text},
        sort_keys=True)
    summary = {"scenario": name, "seed": seed, "scene": scene_path or "preset",
               "config_hash": hashlib.sha256(config_blob.encode()).hexdigest(),
               "rows": len(csv_rows), "aggregates": aggregates}
    with open(os.path.join(output_dir, "summary.json"), "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


def _seed(text: str) -> int:
    """A --seed value: numpy seeds a generator from any non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got '{text}'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcsim",
        description="Link-level MIMO VLC simulator: scripted scenarios, CSV/JSON outputs.")
    parser.add_argument("--scenario", required=True, choices=REGISTRY)
    parser.add_argument("--scene", help="scene config file (defaults to the scenario preset)")
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--out", default=None,
                        help="output directory (default: $VLCSIM_OUT or ./vlcsim-out)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario scalar")
    return parser


# Parsing reads the parser and changes nothing in it, so one serves every
# `main` call of a process.
_PARSER = build_parser()


def main(argv=None) -> int:
    parser = _PARSER
    args = parser.parse_args(argv)
    scenario = REGISTRY[args.scenario]
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            parser.error(f"--set expects KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        if key not in scenario.keys:
            parser.error(f"unknown --set key '{key}' for scenario {args.scenario} "
                         f"(allowed: {', '.join(sorted(scenario.keys))})")
        try:
            overrides[key] = scenario.keys[key](value)
        except ValueError as exc:
            parser.error(f"--set {key}: cannot use '{value}': {exc}")
    if args.scene is not None and not scenario.takes_scene:
        parser.error(f"scenario {args.scenario} does not take a scene file")
    out_dir = args.out or os.environ.get("VLCSIM_OUT") or "vlcsim-out"
    # Exit 1 for a bad scene or a file that cannot be read or written, 2 for a
    # configuration the run cannot use (e.g. more streams than the link carries).
    try:
        run(args.scenario, args.scene, args.seed, out_dir, overrides)
    except ValidationError as exc:
        for diagnostic in exc.args:
            print(f"invalid scene: {diagnostic}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: run a scripted scenario, write CSV + JSON summary.

Usage::

    vlcsim --scenario blockage-timeline --seed 7 --out results/
    vlcsim --scenario siso-sweep --set count=500 --set n_distances=40
    vlcsim --scenario csi-report --scene my_scene.cfg

Outputs `<scenario>.csv` and `summary.json` in the output directory (flag
`--out`, else `$VLCSIM_OUT`, else `./vlcsim-out`). All randomness flows from
`--seed`; identical configs produce byte-identical outputs.

A scenario is one runner, `REGISTRY[name]`. Its annotated keyword parameters
are its `--set` keys: the annotation is the parser that checks a value and the
default is the scenario's value. It takes `--scene` when it has a `scene`
parameter. A runner returns `(header, lines, aggregates)`: the header's cells,
the CSV records as text, each ending in CRLF, and the summary's aggregates.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import groupby, product
from operator import itemgetter

import numpy as np

from . import presets, scenarios
from .channel import ChannelMatrix, ValidationError, subcarrier_frequencies
from .oracle import empirical_fsr, oracle_snr_for
# Imported under another name: `mcs` is the --set key of an MCS list.
from .phy import FrameSpec, fsr, mcs as mcs_entry
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


def _target_fsr(text):
    """A single-path frame success rate that an SNR can give: in (0, 1)."""
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"must be in (0, 1), got {value}")
    return value


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


def _line(cells) -> str:
    """One CSV record: `str` of each cell, comma-separated, ending in CRLF.

    A cell that holds a comma is quoted, as RFC 4180's minimal quoting does;
    no cell vlcsim writes holds a quote or a line break.
    """
    texts = list(map(str, cells))
    line = ",".join(texts)
    if line.count(",") >= len(texts):  # a cell holds a comma
        line = ",".join([f'"{t}"' if "," in t else t for t in texts])
    return line + "\r\n"


def _run_siso_sweep(seed, *, scene=None, payload_bytes: _payload_bytes = 1000,
                    count: _count = 1000, n_distances: _n_distances = 64,
                    d_min: _sweep_distance = 0.15, d_max: _sweep_distance = 12.5,
                    mcs: _parse_mcs_list = tuple(range(8))):
    if scene is None:
        scene = presets.siso_scene()
    distances = presets.siso_sweep_distances(n_distances, d_min, d_max)
    sweep = scenarios.run_siso_sweep(scene, mcs, distances, FrameSpec(payload_bytes, count), seed)
    rssi, analytic, realized = sweep.rssi_dbm, sweep.fsr_analytic, sweep.fsr_realized
    heads = [f"{d},{r},{snr}," for d, r, snr in zip(sweep.distance_m, rssi, sweep.snr_db)]
    # A realized FSR is k / count, one of count + 1 values and never -0.0, so
    # each distinct one is formatted once.
    realized_text = {q: str(q) for q in set(realized)}
    # Records go out sorted by (rssi_dbm, mcs_index), as a stable sort of the
    # cells in draw order leaves them: distances in stable ascending-RSSI order,
    # and a group of equal RSSIs (a dark receiver's -inf, a repeated distance)
    # MCS-major.
    n_mcs = len(sweep.mcs_index)
    by_mcs = [(j, f"{m},") for j, m in sorted(enumerate(sweep.mcs_index), key=itemgetter(1))]
    order = sorted(range(len(rssi)), key=rssi.__getitem__)
    # One group at a time, as (head, index of its first cell) per distance:
    # holding every group at once raised the peak RSS of a mixed run.
    lines = [f"{head}{m}{analytic[k + j]},{realized_text[realized[k + j]]}\r\n"
             for _, group in groupby(order, key=rssi.__getitem__)
             for cells in [[(heads[i], i * n_mcs) for i in group]]
             for j, m in by_mcs for head, k in cells]
    # The walk meets an MCS's cells in `order`, so its first reliable one has
    # its lowest reliable RSSI.
    first_reliable = {}
    for j, m in enumerate(sweep.mcs_index):
        column = realized[j::n_mcs]
        first = next((i for i in order if column[i] >= 0.99), None)
        first_reliable[str(m)] = None if first is None else rssi[first]
    return (scenarios.SisoSweep._fields, lines,
            {"first_rssi_dbm_with_fsr_0p99": first_reliable})


def _run_blockage(seed, *, scene=None, payload_bytes: _payload_bytes = 1000,
                  n_frames: _n_rows = 350, mcs_index: _mcs_index = 0):
    if scene is None:
        scene = presets.simo_blockage_scene()
    timeline = scenarios.run_blockage_timeline(scene, payload_bytes, seed, mcs_index, n_frames)
    header = (["frame_index"] + [f"rssi_chain_{i}_dbm" for i in range(len(scene.receivers))]
              + ["combined_rssi_dbm", "technique", "mcs_index", "success"])
    success = timeline.success
    # Frames of one obstacle state share every cell but their index and success.
    tails = [[f",{','.join(map(str, per_chain))},{combined},MRC,{timeline.mcs_index},{ok}\r\n"
              for ok in (False, True)] for per_chain, combined in timeline.states]
    lines = [f"{i}{tails[k][ok]}"
             for i, k, ok in zip(range(len(success)), timeline.state_of_frame, success)]
    return header, lines, {"frames": len(success), "success_rate": sum(success) / len(success)}


def _run_mrc_point(seed, *, payload_bytes: _payload_bytes = 1000, count: _count = 1000,
                   fsr_a: _target_fsr = 0.626, fsr_b: _target_fsr = 0.365):
    rows = scenarios.run_mrc_fsr_point((fsr_a, fsr_b), FrameSpec(payload_bytes, count), seed)
    # A target that rounds to 0 or 1 once scaled to the frame length has no SNR.
    for key, target, row in zip(("fsr_a", "fsr_b"), (fsr_a, fsr_b), rows):
        if not math.isfinite(row.snr_db):
            raise ValueError(f"{key}={target} has no finite SNR at payload_bytes={payload_bytes}")
    a, b, mrc = (row.fsr_realized for row in rows)
    return (scenarios.MrcPointRow._fields, [_line(r) for r in rows],
            {"fsr_a": a, "fsr_b": b, "fsr_mrc": mrc})


def _run_handover(seed, *, scene=None, n_angles: _n_rows = 61):
    if scene is None:
        scene = presets.handover_scene()
    sweep = scenarios.run_handover_sweep(scene, presets.handover_angles(n_angles))
    mrc = sweep.rssi_mrc_dbm
    # An angle where neither receiver sees the LED makes the excursion unbounded: null.
    excursion = max(mrc) - min(mrc) if min(mrc) > -math.inf else None
    lines = [f"{az},{a},{b},{mrc_dbm}\r\n" for az, a, b, mrc_dbm in zip(*sweep)]
    return scenarios.HandoverSweep._fields, lines, {"mrc_excursion_db": excursion}


def _run_area_grid(seed, *, payload_bytes: _payload_bytes = 1000, count: _count = 1000,
                   imbalance_db: _finite_float = 0.5, mcs: _parse_mcs_list = (8, 9, 10, 11, 12)):
    rows = scenarios.run_mimo_area_grid(mcs, FrameSpec(payload_bytes, count), seed, imbalance_db)
    summary = {f"{r.placement}@{r.imbalance_db}/mcs{r.mcs_index}": r.fsr_realized
               for r in rows}
    return (scenarios.AreaGridRow._fields, [_line(r) for r in rows],
            {"fsr_realized": summary})


# Without a scene it reports the flat SISO preset and the notched MISO one.
def _run_csi(seed, *, scene=None, bits: _csi_bits = 6, bandwidth_mhz: _bandwidth_mhz = 40):
    variants = ([("custom", scene)] if scene is not None else
                [("siso", presets.siso_scene()), ("miso", presets.csi_miso_scene())])
    header = ["variant", "rx", "tx", "subcarrier_hz", "re", "im", "scale"]
    lines, ripple = [], {}
    for name, sc in variants:
        report = scenarios.run_csi_report(sc, bits, bandwidth_mhz)
        freqs, re, im = (a.tolist() for a in (report.subcarrier_freqs, report.re, report.im))
        scale = str(report.scale)  # every row of a variant repeats it
        lines += [_line([name, i, j, freqs[k], re[i][j][k], im[i][j][k], scale])
                  for i, j, k in product(*map(range, report.re.shape))]
        ripple[name] = float(np.max(report.magnitude_ripple_db()))
    return header, lines, {"magnitude_ripple_db": ripple}


def _run_oracle_check(seed, *, payload_bytes: _payload_bytes = 1000,
                      n_frames: _n_oracle_frames = 1000, mcs: _parse_mcs_list = (0, 1, 8, 9),
                      offsets_db: _parse_offsets_db = (-2.0, -1.0, 0.0, 1.0, 2.0)):
    frame = FrameSpec(payload_bytes, n_frames)
    header = ["mcs_index", "offset_db", "analytic_snr_db", "oracle_snr_db",
              "fsr_analytic", "fsr_empirical", "abs_err"]
    lines, max_err = [], 0.0
    for m in mcs:
        entry = mcs_entry(m)
        n = entry.n_streams  # a unit-gain n x n channel
        cm = ChannelMatrix.from_paths(np.eye(n), np.zeros((n, n)), subcarrier_frequencies(20))
        for off in offsets_db:
            snr = entry.snr_threshold_db + off
            analytic = fsr(entry, snr, payload_bytes)
            oracle_snr = oracle_snr_for(entry, snr, frame)
            emp = empirical_fsr(cm, entry, frame, oracle_snr, seed)
            err = abs(analytic - emp)
            max_err = max(max_err, err)
            lines.append(_line([m, off, snr, oracle_snr, analytic, emp, err]))
    return header, lines, {"max_abs_err": max_err}


# (seed, **set values) -> (header, lines, aggregates): the header's cells and the
# CSV records, each ending in CRLF. A runner that takes a scene builds its
# preset one when given none.
REGISTRY = {
    "siso-sweep": _run_siso_sweep,
    "blockage-timeline": _run_blockage,
    "mrc-fsr-point": _run_mrc_point,
    "handover-sweep": _run_handover,
    "mimo-area-grid": _run_area_grid,
    "csi-report": _run_csi,
    "oracle-check": _run_oracle_check,
}


def run(name: str, scene_path: str | None, seed: int, output_dir: str,
        overrides: dict) -> None:
    """Execute one scenario and write `<scenario>.csv` plus `summary.json`.

    An invalid scene raises ValidationError (one argument per diagnostic), an
    unreadable scene file OSError and a configuration the runner rejects
    ValueError, all before any output file is written.
    """
    scene_text, given = None, {}
    if scene_path is not None:
        try:
            given["scene"] = read_scene_file(scene_path)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise OSError(f"cannot read scene: {scene_path}: {reason}") from None
        scene_text = scene_to_text(given["scene"])
    header, lines, aggregates = REGISTRY[name](seed, **given, **overrides)

    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{name}.csv")
    with open(csv_path, "w", newline="") as f:
        f.write(_line(header))
        f.writelines(lines)

    config_blob = json.dumps(
        {"scenario": name, "seed": seed, "overrides": overrides, "scene": scene_text},
        sort_keys=True)
    summary = {"scenario": name, "seed": seed, "scene": scene_path or "preset",
               "config_hash": hashlib.sha256(config_blob.encode()).hexdigest(),
               "rows": len(lines), "aggregates": aggregates}
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
    runner = REGISTRY[args.scenario]
    keys = runner.__annotations__
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            parser.error(f"--set expects KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        if key not in keys:
            parser.error(f"unknown --set key '{key}' for scenario {args.scenario} "
                         f"(allowed: {', '.join(sorted(keys))})")
        try:
            overrides[key] = keys[key](value)
        except ValueError as exc:
            parser.error(f"--set {key}: cannot use '{value}': {exc}")
    if args.scene is not None and "scene" not in runner.__kwdefaults__:
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

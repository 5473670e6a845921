"""Scripted link experiments producing frame traces, FSR tables, and CSI reports.

Each runner is deterministic for a fixed seed: analytic frame success
probabilities are realized as Bernoulli draws from one seeded generator, and
frames are emitted in index order with no gaps.
"""

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .channel import (ChannelMatrix, Scene, ValidationError, channel_matrix, db_to_linear,
                      dbm_to_mw, incidence, lambertian_order, los_gain, mw_to_dbm, path_gain,
                      path_length, scene_paths, subcarrier_frequencies, wideband_rssi_dbm)
from .mimo import mrc_combine, zf_decode_links
from .phy import FrameSpec, check_streams, fsr_at, mcs
from .presets import AREA_LINKS, mimo_area_scene

# 802.11n CSI feedback quantizes with 4 to 8 bits; 2 is the least a signed
# quantizer takes, and past 16 bits the integer range means nothing.
CSI_BITS_RANGE = (2, 16)


# The link runners emit one row per frame, distance/MCS cell or angle, tens of
# thousands per run, so their rows are named tuples: cheap to build, and the
# CLI can write them as they are.
class FrameTrace(NamedTuple):
    """Per-frame record of the MRC receiver."""

    frame_index: int
    per_chain_rssi_dbm: tuple
    combined_rssi_dbm: float
    mcs_index: int
    success: bool


class SisoSweepRow(NamedTuple):
    distance_m: float
    rssi_dbm: float
    snr_db: float
    mcs_index: int
    fsr_analytic: float
    fsr_realized: float


class MrcFsrPoint(NamedTuple):
    fsr_a: float
    fsr_b: float
    fsr_mrc: float
    analytic_a: float
    analytic_b: float
    analytic_mrc: float
    mrc_snr_db: float


class HandoverRow(NamedTuple):
    tx_azimuth_deg: float
    rssi_a_dbm: float
    rssi_b_dbm: float
    rssi_mrc_dbm: float


class AreaGridRow(NamedTuple):
    placement: str
    imbalance_db: float
    mcs_index: int
    stream_snr_db: tuple
    solvable: bool
    condition_number: float
    fsr_analytic: float
    fsr_realized: float


def _combined_rssi_dbm(per_chain_rssi_dbm) -> float:
    """Wideband power of the MRC output: linear sum over live chains, in dBm."""
    return float(mw_to_dbm(np.sum(dbm_to_mw(np.asarray(per_chain_rssi_dbm)))))


def _realize(rng: np.random.Generator, probabilities, count: int) -> list:
    """Realized success rates: a binomial draw of `count` frames per probability.

    One vector draw gives the same values as one scalar draw per probability,
    in order, and leaves the generator in the same state.
    """
    p = np.array(probabilities, dtype=float)
    if np.isnan(p).any():
        raise ValueError("frame success probability is NaN")
    return [k / count for k in rng.binomial(count, np.clip(p, 0.0, 1.0)).tolist()]


def run_siso_sweep(scene: Scene, mcs_indices, distances, frame: FrameSpec,
                   seed: int) -> list:
    """FSR-vs-RSSI table: slide the receiver along the link axis.

    For each distance/MCS cell the analytic FSR is realized over
    `frame.count` Bernoulli draws. Rows come back sorted by RSSI.
    """
    txs, rxs = scene.transmitters, scene.receivers
    if len(txs) != 1 or len(rxs) != 1:
        raise ValueError("the sweep needs exactly one TX and one RX")
    tx, rx = txs[0], rxs[0]
    rng = np.random.default_rng(seed)
    entries = [mcs(i) for i in mcs_indices]
    for entry in entries:
        check_streams(entry.n_streams, len(txs), len(rxs), f"MCS {entry.index}")
    # Only the receiver position moves.
    m = lambertian_order(tx.half_power_semi_angle)
    conv = float(db_to_linear(rx.conversion_gain_db))
    distances = [float(d) for d in distances]
    gains = []
    with np.errstate(over="ignore"):
        los_gain(tx, rx)  # a scene link whose gain passes 1 is a bad scene, not a bad d_min
        direction = rx.position - tx.position
        direction = direction / path_length(tx, rx, direction)
        for dist in distances:
            v = (tx.position + dist * direction) - tx.position
            d = path_length(tx, rx, v)
            try:
                g = path_gain(m, tx.boresight, v, d, rx.active_area,
                              incidence(rx.boresight, v, d, rx.fov_half_angle))
            except ValueError as exc:
                raise ValueError(f"receiver at {dist:g} m: {exc}; raise d_min") from None
            gains.append(g * conv)
    rssi = wideband_rssi_dbm(np.reshape(gains, (-1, 1, 1)), scene.tx_power_dbm)[:, 0].tolist()
    snrs = [r - scene.noise_floor_dbm for r in rssi]
    analytic = [fsr_at(entry, snr_db, frame.payload_bytes) for snr_db in snrs for entry in entries]
    # One draw for every cell, in (distance, MCS) order, the order of `analytic`.
    realized = _realize(rng, analytic, frame.count)
    cells = zip(product(zip(distances, rssi, snrs), entries), analytic, realized)
    rows = [SisoSweepRow(d, r, snr_db, entry.index, p, q)
            for ((d, r, snr_db), entry), p, q in cells]
    rows.sort(key=itemgetter(1, 3))  # (rssi_dbm, mcs_index)
    return rows


def run_blockage_timeline(scene: Scene, frame: FrameSpec, seed: int, mcs_index: int,
                          n_frames: int) -> list:
    """Per-frame MRC trace across the scripted obstacle schedule.

    Emits exactly one FrameTrace per frame index. Blocked chains read the
    no-signal sentinel and contribute nothing to the combined power, so during
    a single-path block the combined RSSI equals the surviving path's RSSI.
    """
    entry = mcs(mcs_index)
    check_streams(entry.n_streams, len(scene.transmitters), len(scene.receivers),
                  f"MCS {entry.index}")
    noise_mw = float(dbm_to_mw(scene.noise_floor_dbm))
    # A frame's channel depends on its index only through which obstacles are
    # active at that index, so every frame with the same active set has the
    # same path gains, RSSI and FSR. Evaluating each distinct set once, at the
    # first frame where it occurs, is therefore exact, and one vector draw
    # yields the same Bernoulli stream as one scalar draw per frame.
    frames = np.arange(n_frames)
    intervals = np.array([obs.active_frames for obs in scene.obstacles],
                         dtype=np.int64).reshape(-1, 2)
    active = (frames[:, None] >= intervals[:, 0]) & (frames[:, None] < intervals[:, 1])
    _, first_frames, state_of_frame = np.unique(
        active, axis=0, return_index=True, return_inverse=True)
    state_of_frame = state_of_frame.reshape(-1)
    per_chain, combined, success_p = [], [], []
    for first in first_frames:
        gains, _ = scene_paths(scene, int(first))
        rssi = wideband_rssi_dbm(gains, scene.tx_power_dbm)
        _, combined_snr_db = mrc_combine(dbm_to_mw(rssi) / noise_mw)
        per_chain.append(tuple(float(r) for r in rssi))
        combined.append(_combined_rssi_dbm(rssi))
        success_p.append(fsr_at(entry, combined_snr_db, frame.payload_bytes))
    rng = np.random.default_rng(seed)
    successes = rng.random(n_frames) < np.array(success_p)[state_of_frame]
    return [FrameTrace(i, per_chain[k], combined[k], entry.index, ok)
            for i, (k, ok) in enumerate(zip(state_of_frame.tolist(), successes.tolist()))]


def run_mrc_fsr_point(per_path_snr_db, frame: FrameSpec, seed: int) -> MrcFsrPoint:
    """Monte-Carlo MCS 0 FSR of each path alone and of their MRC combination."""
    snr_a, snr_b = (float(s) for s in per_path_snr_db)
    entry = mcs(0)
    analytic_a = fsr_at(entry, snr_a, frame.payload_bytes)
    analytic_b = fsr_at(entry, snr_b, frame.payload_bytes)
    _, mrc_db = mrc_combine([10.0 ** (snr_a / 10.0), 10.0 ** (snr_b / 10.0)])
    analytic_mrc = fsr_at(entry, mrc_db, frame.payload_bytes)
    fsr_a, fsr_b, fsr_mrc = _realize(np.random.default_rng(seed),
                                     [analytic_a, analytic_b, analytic_mrc], frame.count)
    return MrcFsrPoint(
        fsr_a=fsr_a, fsr_b=fsr_b, fsr_mrc=fsr_mrc,
        analytic_a=analytic_a, analytic_b=analytic_b, analytic_mrc=analytic_mrc,
        mrc_snr_db=mrc_db)


def run_handover_sweep(scene: Scene, tx_azimuths_deg) -> list:
    """RSSI triple (path A, path B, MRC) as the TX boresight pans in the x-y plane."""
    txs, rxs = scene.transmitters, scene.receivers
    if len(txs) != 1 or len(rxs) != 2:
        raise ValueError("the handover sweep needs one TX and two RX")
    tx = txs[0]
    # The receivers stay put: each path's vector, length and incidence are
    # fixed, and only the TX boresight moves.
    m = lambertian_order(tx.half_power_semi_angle)
    paths = []
    with np.errstate(over="ignore"):
        for rx in rxs:
            v = rx.position - tx.position
            d = path_length(tx, rx, v)
            paths.append((rx, v, d, incidence(rx.boresight, v, d, rx.fov_half_angle),
                          float(db_to_linear(rx.conversion_gain_db))))
    azimuths = [float(az) for az in tx_azimuths_deg]
    # The boresight of each azimuth, one row each, from math.cos and math.sin.
    boresights = np.array([(math.cos(a), math.sin(a), 0.0) for a in map(math.radians, azimuths)])
    gains = []
    for boresight in boresights:
        for rx, v, d, cos_psi, conv in paths:
            try:
                g = path_gain(m, boresight, v, d, rx.active_area, cos_psi)
            except ValueError as exc:
                raise ValidationError(f"path {tx.id}->{rx.id}: {exc}") from None
            gains.append(g * conv)
    rssi = wideband_rssi_dbm(np.reshape(gains, (-1, 2, 1)), scene.tx_power_dbm)
    combined = mw_to_dbm(np.sum(dbm_to_mw(rssi), axis=1))
    return [HandoverRow(az, rssi_a, rssi_b, mrc)
            for az, (rssi_a, rssi_b), mrc in zip(azimuths, rssi.tolist(), combined.tolist())]


def run_mimo_area_grid(mcs_indices, frame: FrameSpec, seed: int, imbalance_db: float) -> list:
    """Two-stream ZF FSR of each link of `presets.AREA_LINKS` and each MCS, over 20 MHz.

    The (2, 2) link's second receiver is tilted so that its two path gains
    differ by `imbalance_db`. The four placements are realized from `seed`,
    the exactly proportional (2, 2) contrast link from `seed + 1`.
    """
    entries = [mcs(i) for i in mcs_indices]
    for entry in entries:
        if entry.n_streams != 2:
            raise ValueError(f"MCS {entry.index} carries {entry.n_streams} stream(s); "
                             "the grid transmits 2")
    if imbalance_db == 0.0:
        raise ValueError("imbalance_db must not be 0: the proportional (2, 2) link "
                         "is already the contrast row")
    scene = mimo_area_scene(imbalance_db)
    gains, delays = scene_paths(scene, 0)
    freqs = subcarrier_frequencies(20)
    cms = [ChannelMatrix.from_paths(gains[list(rows)], delays[list(rows)], freqs)
           for _, rows, _ in AREA_LINKS]
    posts = zf_decode_links(cms, dbm_to_mw(scene.tx_power_dbm), dbm_to_mw(scene.noise_floor_dbm))
    # `fsr` of a link is `fsr_at` of its weakest stream, the row's np.min.
    weakest = np.min([post.per_stream_snr_db for post in posts], axis=1).tolist()
    cells = [(placement, imbalance_db if skewed else 0.0, entry, post,
              fsr_at(entry, snr_db, frame.payload_bytes))
             for (placement, _, skewed), post, snr_db in zip(AREA_LINKS, posts, weakest)
             for entry in entries]
    analytic = [cell[-1] for cell in cells]
    n_grid = (len(AREA_LINKS) - 1) * len(entries)  # all but the contrast link
    realized = (_realize(np.random.default_rng(seed), analytic[:n_grid], frame.count)
                + _realize(np.random.default_rng(seed + 1), analytic[n_grid:], frame.count))
    return [AreaGridRow(placement, imbalance, entry.index, post.per_stream_snr_db,
                        post.solvable, post.condition_number, p, q)
            for (placement, imbalance, entry, post, p), q in zip(cells, realized)]


@dataclass(frozen=True, eq=False)
class CsiReport:
    """Quantized per-subcarrier channel estimates, as a NIC would report them.

    Real and imaginary parts are signed `quantization_bits`-wide integers
    (6 bits: -32..31); dequantized values are the integers times `scale`.
    Arrays are indexed (rx, tx, subcarrier). An all-zero channel produces an
    empty report (size-0 arrays, scale 0).
    """

    re: np.ndarray
    im: np.ndarray
    quantization_bits: int
    scale: float
    subcarrier_freqs: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.re.size == 0

    def dequantized(self) -> np.ndarray:
        return (self.re + 1j * self.im) * self.scale

    def magnitude_ripple_db(self) -> np.ndarray:
        """Peak-to-peak |H| spread in dB per (rx, tx) pair; inf on a full notch,
        and 0 for a chain that receives nothing, whose |H| is flat at 0."""
        mags = np.abs(self.dequantized())
        peak = mags.max(axis=2)
        trough = mags.min(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(peak > 0.0, 20.0 * np.log10(peak / trough), 0.0)


def report_csi(cm: ChannelMatrix, amplitude_weights, bits: int) -> CsiReport:
    """Quantize the channel the way a CSI-reporting receiver would.

    The receiver sees one stream sounded through every transmit element: the
    transmit columns superposed, weighted by per-TX field amplitudes. One
    common scale per report, set by the largest complex magnitude; symmetric
    rounding of real/imaginary parts to signed `bits`-wide integers.
    """
    lo, hi = CSI_BITS_RANGE
    if not lo <= bits <= hi:
        raise ValueError(f"quantization takes {lo} to {hi} bits, got {bits}")
    h = cm.column_sum(amplitude_weights).T[:, None, :]  # (n_rx, 1, K)
    max_mag = float(np.max(np.abs(h))) if h.size else 0.0
    if max_mag == 0.0:
        empty = np.zeros((h.shape[0], h.shape[1], 0), dtype=np.int64)
        return CsiReport(re=empty, im=empty.copy(), quantization_bits=bits,
                         scale=0.0, subcarrier_freqs=cm.subcarrier_freqs)
    q_hi = 2 ** (bits - 1) - 1
    q_lo = -(2 ** (bits - 1))
    scale = max_mag / q_hi
    re = np.clip(np.round(h.real / scale), q_lo, q_hi).astype(np.int64)
    im = np.clip(np.round(h.imag / scale), q_lo, q_hi).astype(np.int64)
    return CsiReport(re=re, im=im, quantization_bits=bits, scale=scale,
                     subcarrier_freqs=cm.subcarrier_freqs)


def run_csi_report(scene: Scene, bits: int, bandwidth_mhz: int) -> CsiReport:
    """Sound a single stream through every TX of the scene and report CSI."""
    cm = channel_matrix(scene, 0, subcarrier_frequencies(bandwidth_mhz))
    weights = np.sqrt(dbm_to_mw(scene.tx_power_dbm))
    report = report_csi(cm, weights, bits)
    if report.is_empty:
        raise ValidationError("every path is blocked; nothing to report")
    return report

"""Scripted link experiments producing frame traces, FSR tables, and CSI reports.

Each runner is deterministic for a fixed seed: analytic frame success
probabilities are realized as Bernoulli draws from one seeded generator. The
three link runners return columns: the blockage timeline one entry per
set of blocked paths and one per frame, in index order with no gaps; the
SISO sweep one per distance and one per (distance, MCS) cell, in draw order;
the handover sweep one per angle.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (ChannelMatrix, Scene, ValidationError, channel_matrix, db_to_linear,
                      incidence, lambertian_order, linear_to_db, los_gain, path_gain,
                      path_length, scene_paths, subcarrier_frequencies, unblocked_paths,
                      wideband_rssi_dbm, zero_paths)
from .mimo import mrc_combine, zf_decode_links
from .phy import FrameSpec, check_streams, fsr, mcs, snr_for_fsr
from .presets import AREA_LINKS, mimo_area_scene

# 802.11n CSI feedback quantizes with 4 to 8 bits; 2 is the least a signed
# quantizer takes, and past 16 bits the integer range means nothing.
CSI_BITS_RANGE = (2, 16)


# The link runners return columns, one list per quantity, because a run holds
# tens of thousands of frames, cells or angles and the CLI formats each value
# once, straight from its column. The other results are one named tuple per
# row. For the sweeps, the MRC point and the area grid, a type's fields are the
# CSV header.
class BlockageTimeline(NamedTuple):
    """The MRC receiver's timeline: obstacle states and the frames in them.

    A state is one set of blocked paths. `states` holds one
    `(per_chain_rssi_dbm, combined_rssi_dbm)` per state, numbered in order of
    first occurrence; frame `i` is in state `state_of_frame[i]` and succeeded
    when `success[i]`.
    """

    states: list
    state_of_frame: list
    success: list
    mcs_index: int


class SisoSweep(NamedTuple):
    """The first three columns hold one value per distance, `mcs_index` one per
    MCS, and the FSR columns one per (distance, MCS) cell, MCS varying fastest."""

    distance_m: list
    rssi_dbm: list
    snr_db: list
    mcs_index: list
    fsr_analytic: list
    fsr_realized: list


class MrcPointRow(NamedTuple):
    path: str
    snr_db: float
    fsr_analytic: float
    fsr_realized: float


class HandoverSweep(NamedTuple):
    tx_azimuth_deg: list
    rssi_a_dbm: list
    rssi_b_dbm: list
    rssi_mrc_dbm: list


class AreaGridRow(NamedTuple):
    placement: str
    imbalance_db: float
    mcs_index: int
    snr_stream_a_db: float
    snr_stream_b_db: float
    solvable: bool
    condition_number: float
    fsr_analytic: float
    fsr_realized: float


def _combined_rssi_dbm(rssi):
    """Wideband power of the MRC output: the linear sum over the chains, the
    last axis of `rssi`, in dBm."""
    return linear_to_db(np.sum(db_to_linear(rssi), axis=-1))


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
                   seed: int) -> SisoSweep:
    """FSR-vs-RSSI table: slide the receiver along the link axis.

    For each distance/MCS cell the analytic FSR is realized over
    `frame.count` Bernoulli draws. Distances keep their given order.
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
    analytic = [fsr(entry, snr_db, frame.payload_bytes) for snr_db in snrs for entry in entries]
    # One draw for every cell, in (distance, MCS) order, the order of `analytic`.
    return SisoSweep(distances, rssi, snrs, [entry.index for entry in entries], analytic,
                     _realize(rng, analytic, frame.count))


def run_blockage_timeline(scene: Scene, payload_bytes: int, seed: int, mcs_index: int,
                          n_frames: int) -> BlockageTimeline:
    """Per-frame MRC trace across the scripted obstacle schedule.

    Gives every frame index its obstacle state and its success. Blocked chains
    read the no-signal sentinel and contribute nothing to the combined power,
    so during a single-path block the combined RSSI equals the surviving
    path's RSSI.
    """
    entry = mcs(mcs_index)
    check_streams(entry.n_streams, len(scene.transmitters), len(scene.receivers),
                  f"MCS {entry.index}")
    noise_mw = float(db_to_linear(scene.noise_floor_dbm))
    # A frame's channel depends on its index only through the set of paths that
    # active obstacles block, so evaluating each blocked set once is exact. The
    # sorted, clipped interval endpoints cut the frames into intervals of one
    # active set each, a segment tree's leaves (de Berg et al., Computational
    # Geometry, 3rd ed., ch. 10); a sweep counts the active obstacles per path.
    events = {}
    for obs in scene.obstacles:
        for t, step in zip(obs.active_frames, (1, -1)):
            events.setdefault(min(t, n_frames), []).append((obs.blocked_pairs, step))
    edges = sorted({0, n_frames, *events})
    cover, blocked_sets, state_ids = Counter(), {}, []
    for lo in edges[:-1]:
        for pairs, step in events.get(lo, ()):
            cover.update(dict.fromkeys(pairs, step))
        state_ids.append(blocked_sets.setdefault(frozenset(+cover), len(blocked_sets)))
    unblocked, _ = unblocked_paths(scene)
    states, success_p = [], []
    for blocked in blocked_sets:
        rssi = wideband_rssi_dbm(zero_paths(scene, unblocked, blocked), scene.tx_power_dbm)
        _, combined_snr_db = mrc_combine(db_to_linear(rssi) / noise_mw)
        states.append((tuple(rssi.tolist()), float(_combined_rssi_dbm(rssi))))
        success_p.append(fsr(entry, combined_snr_db, payload_bytes))
    state_of_frame = np.repeat(np.array(state_ids, dtype=int), np.diff(edges))
    # One vector draw yields the same Bernoulli stream as one scalar draw per frame.
    rng = np.random.default_rng(seed)
    success = rng.random(n_frames) < np.array(success_p)[state_of_frame]
    return BlockageTimeline(states, state_of_frame.tolist(), success.tolist(), entry.index)


def run_mrc_fsr_point(target_fsrs, frame: FrameSpec, seed: int) -> list:
    """Monte-Carlo MCS 0 FSR of paths A and B alone and of their MRC combination.

    Each path sits at the SNR where its frame succeeds with its target FSR; a
    target that rounds to 0 or 1 at `frame.payload_bytes` puts it at -inf or
    inf dB. Rows come back in the order A, B, MRC.
    """
    entry = mcs(0)
    snr_a, snr_b = (snr_for_fsr(entry, t, frame.payload_bytes) for t in target_fsrs)
    _, mrc_db = mrc_combine([10.0 ** (snr_a / 10.0), 10.0 ** (snr_b / 10.0)])
    snrs = (snr_a, snr_b, mrc_db)
    analytic = [fsr(entry, snr_db, frame.payload_bytes) for snr_db in snrs]
    realized = _realize(np.random.default_rng(seed), analytic, frame.count)
    return [MrcPointRow(*cells) for cells in zip(("A", "B", "MRC"), snrs, analytic, realized)]


def run_handover_sweep(scene: Scene, tx_azimuths_deg) -> HandoverSweep:
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
    return HandoverSweep(azimuths, rssi[:, 0].tolist(), rssi[:, 1].tolist(),
                         _combined_rssi_dbm(rssi).tolist())


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
    posts = zf_decode_links(cms, db_to_linear(scene.tx_power_dbm), db_to_linear(scene.noise_floor_dbm))
    # A link's frame is limited by its weakest stream, the row's np.min.
    weakest = np.min([post.per_stream_snr_db for post in posts], axis=1).tolist()
    cells = [(placement, imbalance_db if skewed else 0.0, entry, post,
              fsr(entry, snr_db, frame.payload_bytes))
             for (placement, _, skewed), post, snr_db in zip(AREA_LINKS, posts, weakest)
             for entry in entries]
    analytic = [cell[-1] for cell in cells]
    n_grid = (len(AREA_LINKS) - 1) * len(entries)  # all but the contrast link
    realized = (_realize(np.random.default_rng(seed), analytic[:n_grid], frame.count)
                + _realize(np.random.default_rng(seed + 1), analytic[n_grid:], frame.count))
    return [AreaGridRow(placement, imbalance, entry.index, *post.per_stream_snr_db,
                        post.solvable, post.condition_number, p, q)
            for (placement, imbalance, entry, post, p), q in zip(cells, realized)]


@dataclass(frozen=True, eq=False)
class CsiReport:
    """Quantized per-subcarrier channel estimates, as a NIC would report them.

    Real and imaginary parts are signed `quantization_bits`-wide integers
    (6 bits: -32..31); dequantized values are the integers times `scale`.
    Arrays are indexed (rx, tx, subcarrier).
    """

    re: np.ndarray
    im: np.ndarray
    quantization_bits: int
    scale: float
    subcarrier_freqs: np.ndarray

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
        raise ValidationError("every path is blocked; nothing to report")
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
    weights = np.sqrt(db_to_linear(scene.tx_power_dbm))
    return report_csi(cm, weights, bits)

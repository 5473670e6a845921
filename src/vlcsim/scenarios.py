"""Scripted link experiments producing frame traces, FSR tables, and CSI reports.

Each runner is deterministic for a fixed seed: analytic frame success
probabilities are realized as Bernoulli draws from one seeded generator, and
frames are emitted in index order with no gaps.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel import (DEFAULT_CENTER_FREQ_HZ, ChannelMatrix, Scene,
                      channel_matrix, dbm_to_mw, mw_to_dbm, scene_paths,
                      subcarrier_frequencies, wideband_rssi_dbm)
from .errors import NoLinkError
from .mimo import MimoConfig, mrc_combine, zf_decode
from .phy import FrameSpec, fsr, mcs
from .presets import mimo_area_scene

TIMELINE_TOTAL_FRAMES = 350


@dataclass(frozen=True)
class FrameTrace:
    """Per-frame receiver record."""

    frame_index: int
    per_chain_rssi_dbm: tuple
    combined_rssi_dbm: float
    technique: str  # SISO | SC | MRC | ZF
    mcs_index: int
    success: bool


@dataclass(frozen=True)
class SisoSweepRow:
    distance_m: float
    rssi_dbm: float
    snr_db: float
    mcs_index: int
    fsr_analytic: float
    fsr_realized: float


@dataclass(frozen=True)
class MrcFsrPoint:
    fsr_a: float
    fsr_b: float
    fsr_mrc: float
    analytic_a: float
    analytic_b: float
    analytic_mrc: float
    mrc_snr_db: float


@dataclass(frozen=True)
class HandoverRow:
    tx_azimuth_deg: float
    rssi_a_dbm: float
    rssi_b_dbm: float
    rssi_mrc_dbm: float


@dataclass(frozen=True)
class AreaGridRow:
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


def _realize(rng: np.random.Generator, probability: float, count: int) -> float:
    if math.isnan(probability):
        raise ValueError("frame success probability is NaN")
    return float(rng.binomial(count, min(1.0, max(0.0, probability))) / count)


def _check_streams(entry, scene: Scene) -> None:
    """Reject an MCS whose stream count the scene's link cannot carry."""
    try:
        MimoConfig(n_tx=len(scene.transmitters), n_rx=len(scene.receivers),
                   n_streams=entry.n_streams)
    except ValueError as exc:
        raise ValueError(f"MCS {entry.index}: {exc}") from None


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
    direction = rx.position - tx.position
    direction = direction / np.linalg.norm(direction)
    rng = np.random.default_rng(seed)
    entries = [mcs(i) for i in mcs_indices]
    for entry in entries:
        _check_streams(entry, scene)
    rows = []
    for d in distances:
        moved = dataclasses.replace(rx, position=tx.position + float(d) * direction)
        probe = Scene(front_ends=(tx, moved), noise_floor_dbm=scene.noise_floor_dbm)
        gains, _ = scene_paths(probe, 0)
        rssi = float(wideband_rssi_dbm(gains, probe.tx_power_dbm)[0])
        snr_db = rssi - scene.noise_floor_dbm
        for entry in entries:
            p = fsr(entry, [snr_db] * entry.n_streams, frame)
            rows.append(SisoSweepRow(
                distance_m=float(d), rssi_dbm=rssi, snr_db=snr_db,
                mcs_index=entry.index, fsr_analytic=p,
                fsr_realized=_realize(rng, p, frame.count)))
    rows.sort(key=lambda r: (r.rssi_dbm, r.mcs_index))
    return rows


def run_blockage_timeline(scene: Scene, frame: FrameSpec, seed: int,
                          mcs_index: int = 0,
                          n_frames: int = TIMELINE_TOTAL_FRAMES) -> list:
    """Per-frame MRC trace across the scripted obstacle schedule.

    Emits exactly one FrameTrace per frame index. Blocked chains read the
    no-signal sentinel and contribute nothing to the combined power, so during
    a single-path block the combined RSSI equals the surviving path's RSSI.
    """
    entry = mcs(mcs_index)
    _check_streams(entry, scene)
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
        success_p.append(fsr(entry, [combined_snr_db] * entry.n_streams, frame))
    rng = np.random.default_rng(seed)
    successes = rng.random(n_frames) < np.array(success_p)[state_of_frame]
    return [FrameTrace(frame_index=i, per_chain_rssi_dbm=per_chain[k],
                       combined_rssi_dbm=combined[k], technique="MRC",
                       mcs_index=entry.index, success=ok)
            for i, (k, ok) in enumerate(zip(state_of_frame.tolist(), successes.tolist()))]


def run_mrc_fsr_point(per_path_snr_db, frame: FrameSpec, seed: int,
                      mcs_index: int = 0) -> MrcFsrPoint:
    """Monte-Carlo FSR of each path alone and of their MRC combination."""
    snr_a, snr_b = (float(s) for s in per_path_snr_db)
    entry = mcs(mcs_index)
    analytic_a = fsr(entry, [snr_a] * entry.n_streams, frame)
    analytic_b = fsr(entry, [snr_b] * entry.n_streams, frame)
    _, mrc_db = mrc_combine([10.0 ** (snr_a / 10.0), 10.0 ** (snr_b / 10.0)])
    analytic_mrc = fsr(entry, [mrc_db] * entry.n_streams, frame)
    rng = np.random.default_rng(seed)
    return MrcFsrPoint(
        fsr_a=_realize(rng, analytic_a, frame.count),
        fsr_b=_realize(rng, analytic_b, frame.count),
        fsr_mrc=_realize(rng, analytic_mrc, frame.count),
        analytic_a=analytic_a, analytic_b=analytic_b, analytic_mrc=analytic_mrc,
        mrc_snr_db=mrc_db)


def run_handover_sweep(scene: Scene, tx_azimuths_deg) -> list:
    """RSSI triple (path A, path B, MRC) as the TX boresight pans in the x-y plane."""
    txs, rxs = scene.transmitters, scene.receivers
    if len(txs) != 1 or len(rxs) != 2:
        raise ValueError("the handover sweep needs one TX and two RX")
    tx = txs[0]
    rows = []
    for az in tx_azimuths_deg:
        a = math.radians(float(az))
        aimed = dataclasses.replace(tx, boresight=np.array([math.cos(a), math.sin(a), 0.0]))
        probe = Scene(front_ends=(aimed, *rxs), noise_floor_dbm=scene.noise_floor_dbm)
        gains, _ = scene_paths(probe, 0)
        rssi = wideband_rssi_dbm(gains, probe.tx_power_dbm)
        rows.append(HandoverRow(
            tx_azimuth_deg=float(az),
            rssi_a_dbm=float(rssi[0]), rssi_b_dbm=float(rssi[1]),
            rssi_mrc_dbm=_combined_rssi_dbm(rssi)))
    return rows


def run_mimo_area_grid(placements, mcs_indices, frame: FrameSpec, seed: int,
                       area22_imbalance_db: float = 0.5,
                       bandwidth_mhz: int = 20,
                       center_freq_hz: float = DEFAULT_CENTER_FREQ_HZ) -> list:
    """Two-stream ZF FSR for each receiver placement and MCS.

    Placements are pairs of coverage areas from {1, 2, 3}. The (2, 2)
    placement applies `area22_imbalance_db` between the second receiver's two
    path gains; zero keeps the rows exactly proportional (unsolvable).
    """
    freqs = subcarrier_frequencies(bandwidth_mhz, center_freq_hz)
    rng = np.random.default_rng(seed)
    entries = [mcs(i) for i in mcs_indices]
    rows = []
    for placement in placements:
        placement = tuple(placement)
        imbalance = area22_imbalance_db if placement == (2, 2) else 0.0
        scene = mimo_area_scene(placement, imbalance_db=imbalance)
        cm = channel_matrix(scene, 0, freqs)
        post = zf_decode(cm, dbm_to_mw(scene.tx_power_dbm),
                         dbm_to_mw(scene.noise_floor_dbm))
        for entry in entries:
            if entry.n_streams != cm.n_tx:
                raise ValueError(f"MCS {entry.index} carries {entry.n_streams} stream(s); "
                                 f"the grid transmits {cm.n_tx}")
            p = fsr(entry, post.per_stream_snr_db, frame)
            rows.append(AreaGridRow(
                placement=f"{placement[0]},{placement[1]}",
                imbalance_db=imbalance,
                mcs_index=entry.index,
                stream_snr_db=post.per_stream_snr_db,
                solvable=post.solvable,
                condition_number=post.condition_number,
                fsr_analytic=p,
                fsr_realized=_realize(rng, p, frame.count)))
    return rows


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
        """Peak-to-peak |H| spread in dB per (rx, tx) pair; inf on a full notch."""
        mags = np.abs(self.dequantized())
        peak = mags.max(axis=2)
        trough = mags.min(axis=2)
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(peak / trough)


def report_csi(cm: ChannelMatrix, bits: int = 6, single_stream: bool = False,
               amplitude_weights=None) -> CsiReport:
    """Quantize the channel the way a CSI-reporting receiver would.

    One common scale per report, set by the largest complex magnitude;
    symmetric rounding of real/imaginary parts to signed `bits`-wide integers.
    With `single_stream` the transmit columns are first superposed (optionally
    weighted by per-TX field amplitudes), which is what the receiver sees when
    one stream is sounded through every transmit element.
    """
    if bits < 2:
        raise ValueError(f"quantization needs at least 2 bits, got {bits}")
    if single_stream:
        h = cm.column_sum(amplitude_weights)[:, :, None]  # (K, n_rx, 1)
    else:
        h = cm.entries
    h = np.transpose(h, (1, 2, 0))  # (n_rx, n_tx, K)
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


def run_csi_report(scene: Scene, bits: int = 6, bandwidth_mhz: int = 40,
                   center_freq_hz: float = DEFAULT_CENTER_FREQ_HZ) -> CsiReport:
    """Sound a single stream through every TX of the scene and report CSI."""
    freqs = subcarrier_frequencies(bandwidth_mhz, center_freq_hz)
    cm = channel_matrix(scene, 0, freqs)
    weights = np.sqrt(dbm_to_mw(scene.tx_power_dbm))
    report = report_csi(cm, bits=bits, single_stream=True, amplitude_weights=weights)
    if report.is_empty:
        raise NoLinkError("every path is blocked; nothing to report")
    return report

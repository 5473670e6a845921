"""Symbol-level OFDM Monte-Carlo used to cross-check the analytic FSR model.

The chain is deliberately small: Gray-mapped uncoded modulation, per-subcarrier
channel, circularly-symmetric complex AWGN, genie-CSI equalization (MRC for one
stream, ZF for two), hard demodulation, exact bit-error count. No FEC is
simulated; the analytic ladder absorbs coding gain, so comparisons against it
go through an affine SNR calibration derived from the closed-form uncoded BER
(see `oracle_waterfall` / `oracle_snr_for`).

`snr_db` is the mean per-chain, per-subcarrier received SNR: noise power is
scaled to the average received signal power, so a unit 1x1 channel at 10 dB
gives the textbook BPSK bit-error rate Q(sqrt(2 * 10)).
"""

import math
from typing import NamedTuple

import numpy as np

from ._numerics import brentq, expit
from .channel import ChannelMatrix
from .phy import FSR_SLOPE_DB, FrameSpec, McsEntry, MODULATION_BITS, check_streams


def _axis_tables(bits_per_axis: int):
    """(gray-code -> amplitude level, axis index -> gray-code) lookup tables."""
    n = 1 << bits_per_axis
    idx = np.arange(n)
    gray = idx ^ (idx >> 1)
    level_of_gray = np.empty(n, dtype=np.int64)
    level_of_gray[gray] = 2 * idx - (n - 1)
    return level_of_gray, gray


_AXIS_LEVEL_OF_GRAY = {b: _axis_tables(b)[0] for b in (1, 2, 3)}
_AXIS_GRAY_OF_INDEX = {b: _axis_tables(b)[1] for b in (1, 2, 3)}

# Normalization for unit average symbol energy: sqrt(mean level^2 per axis * axes).
_MOD_NORM = {"BPSK": 1.0, "QPSK": math.sqrt(2.0), "16QAM": math.sqrt(10.0),
             "64QAM": math.sqrt(42.0)}


def _bits_to_axis_ints(bits: np.ndarray, bits_per_axis: int) -> np.ndarray:
    groups = bits.reshape(-1, bits_per_axis)
    weights = 1 << np.arange(bits_per_axis - 1, -1, -1)
    return groups @ weights


def _axis_ints_to_bits(ints: np.ndarray, bits_per_axis: int) -> np.ndarray:
    shifts = np.arange(bits_per_axis - 1, -1, -1)
    return ((ints[:, None] >> shifts) & 1).reshape(-1)


def modulate(bits: np.ndarray, modulation: str) -> np.ndarray:
    """Gray-map a bit array onto unit-average-energy constellation symbols."""
    bps = MODULATION_BITS[modulation]
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} is not a multiple of {bps}")
    if modulation == "BPSK":
        return (2.0 * bits - 1.0).astype(complex)
    axis_bits = bps // 2
    lut = _AXIS_LEVEL_OF_GRAY[axis_bits]
    pairs = bits.reshape(-1, bps)
    i_ints = _bits_to_axis_ints(pairs[:, :axis_bits].reshape(-1), axis_bits)
    q_ints = _bits_to_axis_ints(pairs[:, axis_bits:].reshape(-1), axis_bits)
    return (lut[i_ints] + 1j * lut[q_ints]) / _MOD_NORM[modulation]


def _demod_axis(values: np.ndarray, bits_per_axis: int) -> np.ndarray:
    n = 1 << bits_per_axis
    idx = np.clip(np.round((values + (n - 1)) / 2.0), 0, n - 1).astype(np.int64)
    return _axis_ints_to_bits(_AXIS_GRAY_OF_INDEX[bits_per_axis][idx], bits_per_axis)


def demodulate(symbols: np.ndarray, modulation: str) -> np.ndarray:
    """Hard-decision demodulation back to bits (inverse of `modulate`)."""
    symbols = np.asarray(symbols).reshape(-1)
    if modulation == "BPSK":
        return (symbols.real > 0).astype(np.int64)
    bps = MODULATION_BITS[modulation]
    axis_bits = bps // 2
    # Interleaved I and Q values give the bits in modulate's order: I then Q per symbol.
    scaled = (symbols * _MOD_NORM[modulation]).astype(complex, copy=False)
    return _demod_axis(scaled.view(np.float64), axis_bits)


def _effective_channel(cm: ChannelMatrix, n_streams: int) -> np.ndarray:
    """Per-stream channel seen by each chain, shape (K, n_rx, n_streams).

    A single stream is radiated by every transmit element (their fields
    superpose coherently at each photodiode); with two streams the mapping is
    direct, one element per stream.
    """
    if n_streams == 1:
        return cm.entries.sum(axis=2, keepdims=True)
    return cm.entries[:, :, :n_streams]


class _Link(NamedTuple):
    """What every frame of one operating point shares: channel, noise level, equalizer.

    Complex products that einsum formed are kept as real and imaginary parts
    and formed by `_cmul`, so they repeat einsum's arithmetic exactly.
    """

    modulation: str
    # h[k, i, s] * point for every constellation point, shape
    # (n_streams, n_rx, K, n_points), and the flat offset of each (s, i, k) row.
    rx_re: np.ndarray
    rx_im: np.ndarray
    offsets: np.ndarray
    noise_scale: float  # sqrt(n0 / 2) per real dimension
    weights: np.ndarray  # one stream, MRC: conjugate columns (n_rx, K, 1); two, ZF:
    # pinv as stacked real and imaginary parts, (2, n_rx, n_streams, K, 1)
    denom: np.ndarray | None  # MRC: (K, 1)


def _cmul(ar, ai, br, bi):
    """Complex product from real parts, each real product rounded on its own.

    This is the arithmetic of einsum's complex loops; numpy's complex
    `multiply` may fuse multiply-adds and round differently.
    """
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    return re, im


def _prepare(cm: ChannelMatrix, mcs: McsEntry, snr_db: float) -> _Link:
    """Check the operating point and do the per-channel work of a frame once."""
    n_streams = mcs.n_streams
    check_streams(n_streams, cm.n_tx, cm.n_rx, f"MCS {mcs.index}")

    bps = MODULATION_BITS[mcs.modulation]
    patterns = (np.arange(1 << bps)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    points = modulate(patterns.reshape(-1), mcs.modulation)  # by symbol index, MSB first

    h = _effective_channel(cm, n_streams)  # (K, n_rx, n_streams)
    # Mean per-chain received signal power for unit-energy streams; the noise
    # level is referenced to it so snr_db is the average receive SNR.
    p_ref = float(np.mean(np.sum(np.abs(h) ** 2, axis=2)))
    n0 = p_ref * 10.0 ** (-snr_db / 10.0)
    columns = h.transpose(2, 1, 0)[..., None]
    rx_re, rx_im = _cmul(columns.real, columns.imag, points.real, points.imag)

    if n_streams == 1:
        hk = h[:, :, 0].T  # (n_rx, K)
        weights = hk.conj()[:, :, None]
        denom = np.sum(np.abs(hk) ** 2, axis=0)
        denom = np.where(denom > 0, denom, 1.0)[:, None]
    else:
        w = np.linalg.pinv(h).transpose(2, 1, 0)[..., None]  # (n_rx, n_streams, K, 1)
        weights, denom = np.stack([w.real, w.imag]), None

    return _Link(modulation=mcs.modulation, rx_re=rx_re, rx_im=rx_im,
                 offsets=np.arange(0, rx_re.size, points.size).reshape(columns.shape),
                 noise_scale=math.sqrt(n0 / 2.0), weights=weights, denom=denom)


def _run_frame(link: _Link, frame: FrameSpec, seed: int) -> tuple[int, bool]:
    """One frame at a prepared operating point; returns (bit_errors, frame_ok).

    Arrays are dropped as soon as they are used up. A frame's peak heap size
    decides whether the C allocator returns memory to the system after each
    frame and faults it in again in the next; holding every array to the end
    made a 2x2 BPSK frame fault in about 170 pages.
    """
    rng = np.random.default_rng(seed)
    n_bits = frame.payload_bytes * 8
    bits = rng.integers(0, 2, size=n_bits)

    # The payload grid: zero-padded bits, stream-major within each OFDM
    # symbol, one symbol index (most significant bit first) per (time,
    # stream, subcarrier).
    bps = MODULATION_BITS[link.modulation]
    n_streams, n_rx, n_sc, _ = link.rx_re.shape
    per_sym = bps * n_streams * n_sc
    n_ofdm = max(1, math.ceil(n_bits / per_sym))
    index = np.zeros(n_ofdm * per_sym, dtype=np.intp)
    index[:n_bits] = bits
    if bps > 1:
        groups = index.reshape(-1, bps)
        index = groups[:, 0] << (bps - 1)
        for b in range(1, bps):
            index |= groups[:, b] << (bps - 1 - b)
    index = index.reshape(n_ofdm, n_streams, 1, n_sc).transpose(1, 2, 3, 0)

    # y[i, k, t] = sum_s h[k, i, s] x[s, k, t] + noise: each product is looked
    # up in the table, the streams are summed in order, then the noise added.
    at = np.empty((n_rx, n_sc, n_ofdm), dtype=np.intp)
    for s in range(n_streams):
        np.add(index[s], link.offsets[s], out=at)
        if s == 0:
            sig_re, sig_im = link.rx_re.take(at), link.rx_im.take(at)
        else:
            sig_re += link.rx_re.take(at)
            sig_im += link.rx_im.take(at)
    del index, at
    y_re, y_im = rng.standard_normal((2, n_rx, n_sc, n_ofdm))
    y_re *= link.noise_scale
    y_im *= link.noise_scale
    y_re += sig_re
    y_im += sig_im
    del sig_re, sig_im

    if n_streams > 1:
        # ZF: x_hat[s, k, t] = sum_i w[k, s, i] y[i, k, t], the chains summed in order
        w_re, w_im = link.weights
        x_re, x_im = _cmul(w_re[0], w_im[0], y_re[0], y_im[0])
        for i in range(1, n_rx):
            p_re, p_im = _cmul(w_re[i], w_im[i], y_re[i], y_im[i])
            x_re += p_re
            x_im += p_im
        del y_re, y_im, p_re, p_im
        symbols = np.empty((n_ofdm, n_streams, n_sc), dtype=complex)
        symbols.real = x_re.transpose(2, 0, 1)
        symbols.imag = x_im.transpose(2, 0, 1)
    else:
        y = np.empty((n_rx, n_sc, n_ofdm), dtype=complex)
        y.real = y_re
        y.imag = y_im
        del y_re, y_im
        # MRC: the weighted chains summed in order, then normalized
        x_hat = link.weights[0] * y[0]
        for i in range(1, n_rx):
            x_hat += link.weights[i] * y[i]
        x_hat /= link.denom
        del y
        symbols = x_hat.T

    rx_bits = demodulate(symbols.reshape(-1), link.modulation)
    bit_errors = int(np.count_nonzero(rx_bits[:n_bits] != bits))
    return bit_errors, bit_errors == 0


def simulate_frame(cm: ChannelMatrix, mcs: McsEntry, frame: FrameSpec,
                   snr_db: float, seed: int) -> tuple[int, bool]:
    """Simulate one frame end to end; returns (bit_errors, frame_ok).

    Deterministic for a fixed seed. One stream is equalized by MRC, two by ZF.
    """
    return _run_frame(_prepare(cm, mcs, snr_db), frame, seed)


def empirical_fsr(cm: ChannelMatrix, mcs: McsEntry, frame: FrameSpec,
                  snr_db: float, seed: int) -> float:
    """Fraction of error-free frames of `frame.count`, seeded seed, seed+1, ..."""
    link = _prepare(cm, mcs, snr_db)
    ok = 0
    for i in range(frame.count):
        _, frame_ok = _run_frame(link, frame, seed + i)
        ok += frame_ok
    return ok / frame.count


def q_function(x) -> np.ndarray:
    z = np.asarray(x, dtype=float) / math.sqrt(2.0)
    return 0.5 * np.array([math.erfc(v) for v in np.ravel(z).tolist()]).reshape(np.shape(z))


def uncoded_bit_error_rate(modulation: str, snr_db) -> np.ndarray:
    """Closed-form Gray-mapped hard-decision BER at symbol SNR `snr_db`."""
    g = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    if modulation == "BPSK":
        return q_function(np.sqrt(2.0 * g))
    if modulation == "QPSK":
        return q_function(np.sqrt(g))
    if modulation == "16QAM":
        return 0.75 * q_function(np.sqrt(g / 5.0))
    if modulation == "64QAM":
        return (7.0 / 12.0) * q_function(np.sqrt(g / 21.0))
    raise ValueError(f"unknown modulation '{modulation}'")


def uncoded_frame_success(modulation: str, snr_db, n_bits: int) -> np.ndarray:
    """Closed-form FSR of an uncoded frame: every bit must survive."""
    return (1.0 - uncoded_bit_error_rate(modulation, snr_db)) ** n_bits


def oracle_waterfall(modulation: str, n_bits: int) -> tuple[float, float]:
    """Affine fit (midpoint dB, slope dB) of the uncoded waterfall.

    Solved from the closed-form FSR at the sigmoid(-1)/sigmoid(+1) quantiles,
    which is the one-time calibration that aligns oracle runs with the
    analytic ladder.
    """
    lo_q, hi_q = expit(-1.0), expit(1.0)

    def solve(target):
        return brentq(lambda s: float(uncoded_frame_success(modulation, s, n_bits)) - target,
                      -20.0, 80.0, xtol=1e-9)

    lo, hi = solve(lo_q), solve(hi_q)
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def oracle_snr_for(mcs: McsEntry, analytic_snr_db: float, frame: FrameSpec) -> float:
    """Map an SNR on the analytic ladder onto the uncoded oracle's SNR axis.

    The mapping is affine around the waterfall midpoints so that equal FSR
    quantiles line up: threshold maps to the oracle midpoint, one analytic
    slope unit maps to one oracle slope unit.
    """
    mid, slope = oracle_waterfall(mcs.modulation, frame.payload_bytes * 8)
    return mid + slope * (analytic_snr_db - mcs.snr_threshold_db) / FSR_SLOPE_DB

"""Receiver-side spatial processing: MRC and zero-forcing.

Streams are direct-mapped (stream k feeds transmit element k, equal power,
same MCS on every stream). With N_t transmit and N_r receive elements the
receiver can separate at most min(N_t, N_r) streams with a linear filter;
extra receive chains beyond the stream count contribute diversity gain.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, NO_SIGNAL_DBM, linear_to_db, mw_to_dbm
from .errors import UnderdeterminedError
from .phy import collapse_subcarrier_snr_db

# A subcarrier whose Gram matrix is worse conditioned than this is treated as
# singular: the linear system is numerically unsolvable there.
SINGULARITY_CONDITION_CUTOFF = 1e6


@dataclass(frozen=True)
class MimoConfig:
    """Validated antenna/stream bookkeeping for one link."""

    n_tx: int
    n_rx: int
    n_streams: int

    def __post_init__(self):
        if min(self.n_tx, self.n_rx, self.n_streams) < 1:
            raise ValueError("n_tx, n_rx, and n_streams must all be >= 1")
        if self.n_streams > min(self.n_tx, self.n_rx):
            raise ValueError(
                f"n_streams={self.n_streams} exceeds min(n_tx, n_rx)="
                f"{min(self.n_tx, self.n_rx)}")


@dataclass(frozen=True)
class PostSnr:
    """Post-processing result of a linear MIMO receiver."""

    per_stream_snr_db: tuple
    combined_rssi_dbm: float
    solvable: bool
    condition_number: float


def mrc_combine(per_chain_snr_linear) -> tuple[float, float]:
    """Maximal-ratio combining of branch SNRs: returns (linear sum, dB).

    Coherent SNR-weighted combining adds branch SNRs, so the combined SNR is
    never below the best single branch.
    """
    snrs = np.asarray(per_chain_snr_linear, dtype=float)
    if snrs.size == 0:
        raise ValueError("mrc_combine needs at least one branch")
    if np.any(snrs < 0.0):
        raise ValueError("branch SNRs must be non-negative (linear scale)")
    # fsum: correctly-rounded, hence independent of branch ordering
    combined = math.fsum(snrs)
    return combined, float(linear_to_db(combined))


def _stream_snr_per_subcarrier(entries, tx_power_per_stream, noise_per_chain):
    """ZF per-stream SNR for every subcarrier.

    Returns (snr_linear with shape (K, n_streams), condition numbers (K,),
    solvable mask (K,)). `entries` has shape (K, n_rx, n_streams). All K
    subcarriers go through one stacked Gram, condition number and inverse;
    singular subcarriers are masked out before the inversion and keep SNR 0.
    """
    n_subc, n_rx, n_streams = entries.shape
    p = np.broadcast_to(np.asarray(tx_power_per_stream, dtype=float), (n_streams,))
    n0 = np.broadcast_to(np.asarray(noise_per_chain, dtype=float), (n_rx,))
    h_herm = entries.conj().transpose(0, 2, 1)
    gram = h_herm @ entries
    cond = np.linalg.cond(gram)
    ok = np.isfinite(cond) & ~(cond > SINGULARITY_CONDITION_CUTOFF)
    snr = np.zeros((n_subc, n_streams))
    if np.any(ok):
        w = np.linalg.inv(gram[ok]) @ h_herm[ok]
        # ZF filter output noise: each stream collects |w|^2-weighted chain noise.
        noise_out = (np.abs(w) ** 2) @ n0
        snr[ok] = p / noise_out
    return snr, cond, ok


def _per_stream_snr_db(snr, ok) -> tuple:
    """Subcarrier-collapsed SNR (dB) of each stream over the solvable subcarriers."""
    if not np.any(ok):
        return (NO_SIGNAL_DBM,) * snr.shape[1]
    return tuple(collapse_subcarrier_snr_db(linear_to_db(snr[ok, s]))
                 for s in range(snr.shape[1]))


def _collapsed_min_stream_snr_db(entries, tx_power_per_stream=1.0, noise_per_chain=1.0):
    """Subcarrier-collapsed per-stream SNRs (dB) and their minimum."""
    snr, _, ok = _stream_snr_per_subcarrier(entries, tx_power_per_stream, noise_per_chain)
    per_stream = _per_stream_snr_db(snr, ok)
    return per_stream, min(per_stream)


def zf_decode(cm: ChannelMatrix, tx_power_per_stream, noise_per_chain) -> PostSnr:
    """Zero-forcing spatial demultiplexing of direct-mapped streams.

    Per subcarrier the receiver applies W = (H^H H)^-1 H^H; the post-SNR of
    stream k is tx_power / (noise * [(H^H H)^-1]_kk) for equal chain noise.
    Powers are linear mW, noise linear mW per chain. Subcarriers whose Gram
    matrix exceeds the singularity cutoff are excluded; if they are the
    majority the whole link is reported unsolvable.
    """
    n_streams = cm.n_tx
    if cm.n_rx < n_streams:
        raise UnderdeterminedError(
            f"{cm.n_rx} receive chain(s) cannot separate {n_streams} streams; "
            "need at least as many measurements as unknowns")
    snr, cond, ok = _stream_snr_per_subcarrier(cm.entries, tx_power_per_stream, noise_per_chain)
    n_subc = cm.n_subcarriers
    bad = int(n_subc - np.count_nonzero(ok))
    solvable = bad * 2 <= n_subc
    finite_cond = cond[np.isfinite(cond)]
    cond_scalar = float(np.median(finite_cond)) if finite_cond.size else float("inf")

    p = np.broadcast_to(np.asarray(tx_power_per_stream, dtype=float), (n_streams,))
    total_rx_mw = float(np.sum(cm.path_gains @ p))
    combined_rssi = float(mw_to_dbm(total_rx_mw))

    per_stream = _per_stream_snr_db(snr, ok) if solvable else (NO_SIGNAL_DBM,) * n_streams
    return PostSnr(per_stream_snr_db=per_stream, combined_rssi_dbm=combined_rssi,
                   solvable=solvable, condition_number=cond_scalar)


def extra_diversity_gain(cm: ChannelMatrix, n_streams: int) -> float:
    """Diversity gain (dB) of using all receive rows over the best square subset.

    Compares the minimum per-stream ZF post-SNR with every receive chain
    against the best n_streams-row subset. With one stream and two equal rows
    this reduces to the 3 dB MRC gain.
    """
    if cm.n_rx <= n_streams:
        raise ValueError(
            f"extra diversity needs more receive chains ({cm.n_rx}) than streams ({n_streams})")
    entries = cm.entries[:, :, :n_streams]
    _, full_min = _collapsed_min_stream_snr_db(entries)
    best_subset = NO_SIGNAL_DBM
    for rows in itertools.combinations(range(cm.n_rx), n_streams):
        _, sub_min = _collapsed_min_stream_snr_db(entries[:, list(rows), :])
        best_subset = max(best_subset, sub_min)
    return full_min - best_subset

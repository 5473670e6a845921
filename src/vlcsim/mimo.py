"""Receiver-side spatial processing: MRC and zero-forcing.

Streams are direct-mapped (stream k feeds transmit element k, equal power,
same MCS on every stream). With N_t transmit and N_r receive elements the
receiver can separate at most min(N_t, N_r) streams with a linear filter;
extra receive chains beyond the stream count contribute diversity gain.
"""

import math
from typing import NamedTuple

import numpy as np

from .channel import NO_SIGNAL_DBM, linear_to_db
from .phy import check_streams, collapse_subcarrier_snr_db

# A subcarrier whose Gram matrix is worse conditioned than this is treated as
# singular: the linear system is numerically unsolvable there.
SINGULARITY_CONDITION_CUTOFF = 1e6


class PostSnr(NamedTuple):
    """Post-processing result of a linear MIMO receiver."""

    per_stream_snr_db: tuple
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


def _stream_snr_db(snr, ok, counts) -> list:
    """Subcarrier-collapsed SNR (dB) of each stream of each link of a stack.

    Link i holds `counts[i]` solvable subcarriers; a link with none reads
    NO_SIGNAL_DBM on every stream. The solvable rows of a link are one run of
    `snr[ok]`, so each stream's run is a contiguous slice of its transpose,
    the same values in the same order as the link's own `snr[ok, s]`.
    """
    db = linear_to_db(np.ascontiguousarray(snr[ok].T))
    out, start = [], 0
    for n in counts:
        out.append(tuple(collapse_subcarrier_snr_db(row[start:start + n]) for row in db)
                   if n else (NO_SIGNAL_DBM,) * snr.shape[1])
        start += n
    return out


def _median_of_smallest(ascending: list, n: int) -> float:
    """`np.median` of the first `n` values of an ascending list; inf if n is 0.

    With an even count it is the mean of the middle two, (a + b) / 2, which is
    how np.mean sums and divides two floats.
    """
    if not n:
        return float("inf")
    half = n // 2
    return ascending[half] if n % 2 else (ascending[half - 1] + ascending[half]) / 2


def zf_decode_links(entries, tx_power_per_stream, noise_per_chain) -> list:
    """Zero-forcing spatial demultiplexing of direct-mapped streams, one `PostSnr` per link.

    Per subcarrier the receiver applies W = (H^H H)^-1 H^H; the post-SNR of
    stream k is tx_power / (noise * [(H^H H)^-1]_kk) for equal chain noise.
    Powers are linear mW, noise linear mW per chain. Subcarriers whose Gram
    matrix exceeds the singularity cutoff are excluded; if they are the
    majority the whole link is reported unsolvable.

    `entries` is the links' `ChannelMatrix.entries` stacked, (n_links, subcarriers,
    n_rx, n_tx). All go through one stacked Gram, condition number and inverse
    (LAPACK works matrix by matrix, so a taller stack gives the same bits); each
    link then gets its own `PostSnr` from its slice of the stack.
    """
    entries = np.asarray(entries)
    if entries.ndim != 4:
        raise ValueError(f"zero-forcing needs one (n_links, subcarriers, n_rx, n_tx) array, got {entries.shape}")
    n_links, n_subc, n_rx, n_streams = entries.shape
    check_streams(n_streams, n_streams, n_rx, "zero-forcing")
    stack = entries.reshape(-1, n_rx, n_streams)
    snr, cond, ok = _stream_snr_per_subcarrier(stack, tx_power_per_stream, noise_per_chain)
    counts = np.count_nonzero(ok.reshape(n_links, n_subc), axis=1).tolist()
    per_stream = _stream_snr_db(snr, ok, counts)
    # Each link's finite condition numbers sort first, so one sort gives every
    # link's median.
    cond = cond.reshape(n_links, n_subc)
    n_finite = np.count_nonzero(np.isfinite(cond), axis=1).tolist()
    cond = np.sort(cond, axis=1).tolist()
    posts = []
    for n_ok, streams, link_cond, n in zip(counts, per_stream, cond, n_finite):
        solvable = (n_subc - n_ok) * 2 <= n_subc
        posts.append(PostSnr(
            per_stream_snr_db=streams if solvable else (NO_SIGNAL_DBM,) * n_streams,
            solvable=solvable, condition_number=_median_of_smallest(link_cond, n)))
    return posts

"""802.11n MCS ladder and the analytic frame-success model.

The ladder, `MCS_TABLE`, holds MCS 0-15 in index order: indices 0-7 are
single-stream, 8-15 the same modulation/coding pairs over two streams. 20 MHz
data rates are the 800 ns guard-interval figures (MCS0 = 6.5 Mbit/s); 40 MHz
rates are the 400 ns guard-interval figures, which is where the familiar
300 Mbit/s top rate of a 2x2 40 MHz link comes from.

Frame success rate is a logistic waterfall in the minimum per-stream SNR:

    FSR_ref = sigmoid((min_k SNR_k - threshold) / slope),   slope = 0.4 dB

`snr_threshold_db` is the SNR where FSR crosses 0.5 for the 1000-byte
reference frame. The ladder is calibrated against two anchors: MCS0 decodes
essentially error-free (FSR >= 0.999) at 5 dB SNR yet fails (FSR < 0.01) at
0 dB, and MCS7 needs 30 dB more than MCS0. Squeezing the whole 0.001..0.999
transition inside those 5 dB forces a slope of at most ~0.43 dB; 0.4 dB is
used, which puts the 0.5-point 3 dB below each error-free anchor
(sigmoid(3 / 0.4) = 0.9994). Frame lengths other than 1000 bytes scale as
FSR = FSR_ref ** (payload_bytes / 1000).
"""

from dataclasses import dataclass

import numpy as np

from ._numerics import expit, logit

FSR_SLOPE_DB = 0.4
REFERENCE_PAYLOAD_BYTES = 1000

# SNR (dB) at which each single-stream MCS becomes essentially error-free for
# a 1000-byte frame. MCS0 and the MCS7-MCS0 spacing are measurement-backed
# anchors; intermediate steps are calibration choices.
_RELIABLE_SNR_ANCHORS_DB = (5.0, 8.0, 11.0, 14.0, 18.0, 25.0, 29.0, 35.0)
RELIABLE_DECODE_MARGIN_DB = 3.0  # sigmoid(3/0.4) = 0.99945 >= 0.999

_BASE_LADDER = (
    # modulation, code rate, 20 MHz Mbit/s (800 ns GI), 40 MHz Mbit/s (400 ns GI)
    ("BPSK", 1 / 2, 6.5, 15.0),
    ("QPSK", 1 / 2, 13.0, 30.0),
    ("QPSK", 3 / 4, 19.5, 45.0),
    ("16QAM", 1 / 2, 26.0, 60.0),
    ("16QAM", 3 / 4, 39.0, 90.0),
    ("64QAM", 2 / 3, 52.0, 120.0),
    ("64QAM", 3 / 4, 58.5, 135.0),
    ("64QAM", 5 / 6, 65.0, 150.0),
)

MODULATION_BITS = {"BPSK": 1, "QPSK": 2, "16QAM": 4, "64QAM": 6}


@dataclass(frozen=True)
class McsEntry:
    index: int
    modulation: str
    code_rate: float
    n_streams: int
    data_rate_20mhz_mbps: float
    data_rate_40mhz_mbps: float
    snr_threshold_db: float


@dataclass(frozen=True)
class FrameSpec:
    """Payload size and number of frames per measurement point."""

    payload_bytes: int
    count: int

    def __post_init__(self):
        if self.payload_bytes <= 0:
            raise ValueError(f"payload_bytes must be > 0, got {self.payload_bytes}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


MCS_TABLE = tuple(
    McsEntry(
        index=k + 8 * (streams - 1),
        modulation=mod,
        code_rate=rate,
        n_streams=streams,
        data_rate_20mhz_mbps=r20 * streams,
        data_rate_40mhz_mbps=r40 * streams,
        snr_threshold_db=_RELIABLE_SNR_ANCHORS_DB[k] - RELIABLE_DECODE_MARGIN_DB,
    )
    for streams in (1, 2) for k, (mod, rate, r20, r40) in enumerate(_BASE_LADDER))


def mcs(index: int) -> McsEntry:
    if not 0 <= index <= 15:
        raise ValueError(f"MCS index must be in 0..15, got {index}")
    return MCS_TABLE[index]


def check_streams(n_streams: int, n_tx: int, n_rx: int, what: str) -> None:
    """Refuse more streams than `min(n_tx, n_rx)`: each needs an LED and a receive chain."""
    if n_streams > min(n_tx, n_rx):
        raise ValueError(f"{what}: n_streams={n_streams} exceeds min(n_tx, n_rx)={min(n_tx, n_rx)}")


def phy_rate(entry: McsEntry, bandwidth_mhz: int) -> float:
    """PHY data rate in Mbit/s for a 20 or 40 MHz channel."""
    if bandwidth_mhz == 20:
        return entry.data_rate_20mhz_mbps
    if bandwidth_mhz == 40:
        return entry.data_rate_40mhz_mbps
    raise ValueError(f"bandwidth must be 20 or 40 MHz, got {bandwidth_mhz}")


def fsr(entry: McsEntry, snr_db: float, payload_bytes: int) -> float:
    """Frame success probability of a `payload_bytes` frame at SNR `snr_db` (a float).

    All streams run the same MCS, so a caller with several streams passes the
    weakest one's SNR. Plain float arithmetic: the logistic is
    `_numerics.expit` and the length scaling Python `**`, so a caller may
    evaluate it point by point.
    """
    if snr_db == float("-inf"):
        return 0.0
    base = expit((snr_db - entry.snr_threshold_db) / FSR_SLOPE_DB)
    return base ** (payload_bytes / REFERENCE_PAYLOAD_BYTES)


def snr_for_fsr(entry: McsEntry, target_fsr: float, payload_bytes: int) -> float:
    """Invert the waterfall: SNR (dB) at which `fsr` returns `target_fsr`."""
    if not 0.0 < target_fsr < 1.0:
        raise ValueError(f"target FSR must be in (0, 1), got {target_fsr}")
    base = target_fsr ** (REFERENCE_PAYLOAD_BYTES / payload_bytes)
    return entry.snr_threshold_db + FSR_SLOPE_DB * logit(base)


def collapse_subcarrier_snr_db(per_subcarrier_snr_db) -> float:
    """Collapse per-subcarrier SNRs to one effective value: arithmetic mean in dB."""
    arr = np.asarray(per_subcarrier_snr_db, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one subcarrier SNR")
    return float(np.mean(arr))


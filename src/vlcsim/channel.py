"""Optical LOS channel model: front-end geometry, blockage, and channel matrices.

Each transmitter is a generalized Lambertian point source; each receiver is a
flat photodiode with a hard field-of-view cutoff. The per-path DC power gain is

    G = (m + 1) * A / (2 * pi * d^2) * cos(phi)^m * cos(psi)

for incidence angle psi within the receiver FOV and radiance angle phi below
90 degrees, zero otherwise. `m` is the Lambertian order derived from the LED
half-power semi-angle, `A` the photodiode active area, `d` the TX-RX distance.
Propagation delay is d / c. A path is frequency flat on its own; frequency
selectivity only appears when several transmitters superpose at one receiver.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Wideband power reading for a chain that receives nothing (all paths blocked).
NO_SIGNAL_DBM = float("-inf")

DEFAULT_NOISE_FLOOR_DBM = -60.0

# 802.11n OFDM numerology: 312.5 kHz subcarrier spacing, data subcarriers only
# (pilots and DC excluded). Absolute frequencies default to the 2.4 GHz band.
SUBCARRIER_SPACING_HZ = 312.5e3
DEFAULT_CENTER_FREQ_HZ = 2.437e9


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


def dbm_to_mw(dbm):
    return db_to_linear(dbm)


def mw_to_dbm(mw):
    return linear_to_db(mw)


def data_subcarrier_indices(bandwidth_mhz: int) -> np.ndarray:
    """Data subcarrier indices (relative to the channel center) for 20/40 MHz."""
    if bandwidth_mhz == 20:
        used = [k for k in range(-28, 29) if k != 0]
        pilots = {-21, -7, 7, 21}
    elif bandwidth_mhz == 40:
        used = [k for k in range(-58, 59) if abs(k) >= 2]
        pilots = {-53, -25, -11, 11, 25, 53}
    else:
        raise ValueError(f"bandwidth must be 20 or 40 MHz, got {bandwidth_mhz}")
    return np.array([k for k in used if k not in pilots])


def subcarrier_frequencies(bandwidth_mhz: int = 20,
                           center_freq_hz: float = DEFAULT_CENTER_FREQ_HZ) -> np.ndarray:
    """Absolute frequencies of the data subcarriers (52 at 20 MHz, 108 at 40 MHz)."""
    return center_freq_hz + data_subcarrier_indices(bandwidth_mhz) * SUBCARRIER_SPACING_HZ


@dataclass(frozen=True, eq=False)
class FrontEnd:
    """One optical front-end: an LED transmitter or a photodiode receiver.

    Angles are degrees, positions meters, areas m^2. TX-only fields:
    `half_power_semi_angle`, `tx_electrical_power_dbm`. RX-only fields:
    `fov_half_angle`, `active_area`, `conversion_gain_db` (lumps photodiode
    responsivity and analog front-end gain into one electrical dB figure).
    """

    id: str
    role: str
    position: np.ndarray
    boresight: np.ndarray
    half_power_semi_angle: float | None = None
    fov_half_angle: float | None = None
    active_area: float | None = None
    tx_electrical_power_dbm: float | None = None
    conversion_gain_db: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "role", str(self.role).lower())
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "boresight", np.asarray(self.boresight, dtype=float))
        if self.role not in ("tx", "rx"):
            raise ValidationError(f"front-end '{self.id}': role must be 'tx' or 'rx', got '{self.role}'")
        if self.position.shape != (3,) or self.boresight.shape != (3,):
            raise ValidationError(f"front-end '{self.id}': position and boresight must be 3-vectors")
        if not all(map(math.isfinite, self.position.tolist())):
            raise ValidationError(
                f"front-end '{self.id}': position must be finite, got {self.position.tolist()}")
        norm = float(np.linalg.norm(self.boresight))
        # `not <=` so that a NaN component (hence a NaN norm) fails too.
        if not abs(norm - 1.0) <= 1e-9:
            raise ValidationError(
                f"front-end '{self.id}': boresight must be a unit vector (norm within 1e-9), got norm {norm:.12g}")
        if self.role == "tx":
            if self.half_power_semi_angle is None:
                raise ValidationError(f"front-end '{self.id}': half_power_semi_angle is required for a TX")
            if not 0.0 < self.half_power_semi_angle < 90.0:
                raise ValidationError(
                    f"front-end '{self.id}': half_power_semi_angle must be in (0, 90) degrees, "
                    f"got {self.half_power_semi_angle}")
            if self.tx_electrical_power_dbm is None or not math.isfinite(self.tx_electrical_power_dbm):
                raise ValidationError(
                    f"front-end '{self.id}': tx_electrical_power_dbm must be a finite number for a TX, "
                    f"got {self.tx_electrical_power_dbm}")
        else:
            if self.fov_half_angle is None:
                raise ValidationError(f"front-end '{self.id}': fov_half_angle is required for an RX")
            if not 0.0 < self.fov_half_angle <= 90.0:
                raise ValidationError(
                    f"front-end '{self.id}': fov_half_angle must be in (0, 90] degrees, got {self.fov_half_angle}")
            if self.active_area is None or not (0.0 < self.active_area < math.inf):
                raise ValidationError(
                    f"front-end '{self.id}': active_area must be a finite number > 0 m^2, "
                    f"got {self.active_area}")
            if not math.isfinite(self.conversion_gain_db):
                raise ValidationError(
                    f"front-end '{self.id}': conversion_gain_db must be finite, "
                    f"got {self.conversion_gain_db}")


@dataclass(frozen=True)
class Obstacle:
    """Full block of specific TX->RX paths over a half-open frame interval."""

    blocked_pairs: frozenset
    active_frames: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "blocked_pairs",
                           frozenset((str(t), str(r)) for t, r in self.blocked_pairs))
        start, end = self.active_frames
        object.__setattr__(self, "active_frames", (int(start), int(end)))
        if not self.active_frames[0] < self.active_frames[1]:
            raise ValidationError(
                f"obstacle: active_frames start must be < end, got {self.active_frames}")

    def active_at(self, frame_index: int) -> bool:
        start, end = self.active_frames
        return start <= frame_index < end

    def blocks(self, tx_id: str, rx_id: str, frame_index: int) -> bool:
        return self.active_at(frame_index) and (tx_id, rx_id) in self.blocked_pairs


@dataclass(frozen=True)
class Scene:
    """Immutable snapshot of all front-ends, obstacles, and the RX noise floor."""

    front_ends: tuple
    obstacles: tuple = ()
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM

    def __post_init__(self):
        object.__setattr__(self, "front_ends", tuple(self.front_ends))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if not math.isfinite(self.noise_floor_dbm):
            raise ValidationError(f"scene: noise_floor_dbm must be finite, got {self.noise_floor_dbm}")
        ids = [fe.id for fe in self.front_ends]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"scene: front-end ids must be unique, got {ids}")
        if not self.transmitters or not self.receivers:
            raise ValidationError("scene: at least one TX and one RX front-end are required")
        known = set(ids)
        for obs in self.obstacles:
            for tx_id, rx_id in obs.blocked_pairs:
                for ref in (tx_id, rx_id):
                    if ref not in known:
                        raise ValidationError(
                            f"obstacle: blocked pair references unknown front-end id '{ref}'")

    @property
    def transmitters(self) -> tuple:
        return tuple(fe for fe in self.front_ends if fe.role == "tx")

    @property
    def receivers(self) -> tuple:
        return tuple(fe for fe in self.front_ends if fe.role == "rx")

    def front_end(self, fe_id: str) -> FrontEnd:
        for fe in self.front_ends:
            if fe.id == fe_id:
                return fe
        raise KeyError(fe_id)

    @property
    def tx_power_dbm(self) -> np.ndarray:
        return np.array([tx.tx_electrical_power_dbm for tx in self.transmitters])


def lambertian_order(half_power_semi_angle: float) -> float:
    """Lambertian mode number m of an LED with the given half-power semi-angle.

    m = -ln(2) / ln(cos(angle)); 60 degrees gives the ideal Lambertian m = 1.
    """
    if not 0.0 < half_power_semi_angle < 90.0:
        raise ValueError(
            f"half-power semi-angle must be in (0, 90) degrees, got {half_power_semi_angle}")
    return -math.log(2.0) / math.log(math.cos(math.radians(half_power_semi_angle)))


def los_gain(tx: FrontEnd, rx: FrontEnd) -> tuple[float, float]:
    """Geometric LOS path: (linear optical power gain, propagation delay in s).

    Gain is zero when the receiver sits behind the emitter plane (phi >= 90
    degrees) or the incidence angle exceeds the receiver FOV.
    """
    if tx.role != "tx" or rx.role != "rx":
        raise ValueError(f"los_gain needs a TX and an RX, got roles '{tx.role}' and '{rx.role}'")
    v = rx.position - tx.position
    d = path_length(tx, rx, v)
    delay = d / SPEED_OF_LIGHT_M_S
    cos_phi = float(np.dot(tx.boresight, v)) / d
    cos_psi = float(np.dot(rx.boresight, -v)) / d
    if not within_fov(cos_psi, rx.fov_half_angle):
        return 0.0, delay
    m = lambertian_order(tx.half_power_semi_angle)
    return lambertian_gain(m, rx.active_area, d, cos_phi, cos_psi), delay


def path_length(tx: FrontEnd, rx: FrontEnd, v: np.ndarray) -> float:
    """Length of the TX->RX vector `v`; ValueError if it is degenerate or not finite.

    A length past about 1e154 m overflows inside the norm (or in forming `v`);
    callers that may meet one run under `np.errstate(over="ignore")`, so that
    the error comes without a numpy warning.
    """
    d = float(np.linalg.norm(v))
    if not math.isfinite(d):
        raise ValueError(f"geometry is not finite: '{rx.id}' is out of range of '{tx.id}' "
                         f"(TX->RX vector {v.tolist()})")
    if d < 1e-12:
        raise ValueError(f"degenerate geometry: front-ends '{tx.id}' and '{rx.id}' are coincident")
    return d


def within_fov(cos_psi: float, fov_half_angle: float) -> bool:
    """Whether a path arriving at incidence cos(psi) is inside the receiver FOV."""
    psi_deg = math.degrees(math.acos(min(1.0, max(-1.0, cos_psi))))
    return not psi_deg > fov_half_angle + 1e-12


def lambertian_gain(m: float, area: float, d: float, cos_phi: float, cos_psi: float) -> float:
    """The gain G of the module docstring for a path inside the receiver FOV.

    Zero when the receiver sits behind the emitter plane (cos_phi <= 0).
    """
    if cos_phi <= 0.0:
        return 0.0
    return (m + 1.0) * area / (2.0 * math.pi * d * d) * cos_phi ** m * cos_psi


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Per-subcarrier complex channel H plus the underlying path gains/delays.

    `entries[k, i, j] = sqrt(path_gains[i, j]) * exp(-2j*pi*f_k*path_delays[i, j])`
    for receive chain i, transmit element j, subcarrier frequency f_k. Path
    gains are end-to-end electrical power gains (optical LOS gain times the
    receiver conversion gain); blocked paths carry exactly zero gain.
    """

    n_tx: int
    n_rx: int
    subcarrier_freqs: np.ndarray
    entries: np.ndarray
    path_gains: np.ndarray
    path_delays: np.ndarray

    @classmethod
    def from_paths(cls, path_gains, path_delays, subcarrier_freqs) -> "ChannelMatrix":
        gains = np.asarray(path_gains, dtype=float)
        delays = np.asarray(path_delays, dtype=float)
        freqs = np.asarray(subcarrier_freqs, dtype=float)
        if gains.ndim != 2 or gains.shape != delays.shape:
            raise ValueError("path_gains and path_delays must be matching 2-D arrays")
        if np.any(gains < 0.0):
            raise ValueError("path gains must be non-negative")
        n_rx, n_tx = gains.shape
        amp = np.sqrt(gains)
        phase = np.exp(-2j * np.pi * freqs[:, None, None] * delays[None, :, :])
        entries = amp[None, :, :] * phase
        return cls(n_tx=n_tx, n_rx=n_rx, subcarrier_freqs=freqs, entries=entries,
                   path_gains=gains, path_delays=delays)

    @property
    def n_subcarriers(self) -> int:
        return len(self.subcarrier_freqs)

    def column_sum(self, amplitude_weights=None) -> np.ndarray:
        """Effective per-chain channel when all TX radiate one common signal.

        Returns shape (n_subcarriers, n_rx). Weights are per-TX field
        amplitudes (default 1), e.g. sqrt of linear TX power.
        """
        if amplitude_weights is None:
            amplitude_weights = np.ones(self.n_tx)
        w = np.asarray(amplitude_weights, dtype=float)
        return np.tensordot(self.entries, w, axes=([2], [0]))


def scene_paths(scene: Scene, frame_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Path gains and delays of all TX->RX paths of a scene at one frame index.

    Both arrays are (n_rx, n_tx). Paths covered by an obstacle active at
    `frame_index` get zero gain. The receiver conversion gain is folded into
    the path power gain, which thus maps TX electrical power to RX electrical
    power.
    """
    txs, rxs = scene.transmitters, scene.receivers
    gains = np.zeros((len(rxs), len(txs)))
    delays = np.zeros_like(gains)
    convs = [float(db_to_linear(rx.conversion_gain_db)) for rx in rxs]
    with np.errstate(over="ignore"):
        for i, (rx, conv) in enumerate(zip(rxs, convs)):
            for j, tx in enumerate(txs):
                g, tau = los_gain(tx, rx)
                if any(obs.blocks(tx.id, rx.id, frame_index) for obs in scene.obstacles):
                    g = 0.0
                gains[i, j] = g * conv
                delays[i, j] = tau
    return gains, delays


def channel_matrix(scene: Scene, frame_index: int, subcarrier_freqs) -> ChannelMatrix:
    """Per-subcarrier channel of a scene at one frame index (see `scene_paths`)."""
    gains, delays = scene_paths(scene, frame_index)
    return ChannelMatrix.from_paths(gains, delays, subcarrier_freqs)


def wideband_rssi_dbm(path_gains, tx_power_dbm) -> np.ndarray:
    """Wideband received power per RX chain in dBm (incoherent power sum).

    `path_gains` is the (n_rx, n_tx) power gain matrix, or a stack of them
    (..., n_rx, n_tx). A chain whose paths are all blocked reads
    NO_SIGNAL_DBM (-inf).
    """
    p_mw = dbm_to_mw(np.asarray(tx_power_dbm, dtype=float))
    n_tx = np.shape(path_gains)[-1]
    if p_mw.shape != (n_tx,):
        raise ValueError(f"need one TX power per transmit element ({n_tx}), got shape {p_mw.shape}")
    return mw_to_dbm(path_gains @ p_mw)


def rssi_per_chain(cm: ChannelMatrix, tx_power_dbm) -> np.ndarray:
    """Wideband received power per RX chain of a channel matrix, in dBm."""
    return wideband_rssi_dbm(cm.path_gains, tx_power_dbm)

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


class ValidationError(ValueError):
    """A scene, front-end, or config field violates its documented bounds."""


SPEED_OF_LIGHT_M_S = 299_792_458.0

# Wideband power reading for a chain that receives nothing (all paths blocked).
NO_SIGNAL_DBM = float("-inf")

DEFAULT_NOISE_FLOOR_DBM = -60.0

# 802.11n OFDM numerology: 312.5 kHz subcarrier spacing, data subcarriers only
# (pilots and DC excluded), on one 2.4 GHz channel (channel 6).
SUBCARRIER_SPACING_HZ = 312.5e3
CENTER_FREQ_HZ = 2.437e9

# Bound on the magnitude of every power level (dBm) and gain (dB) of a scene.
# 10^(x/10) overflows a float past about 3080 dB, and a level far short of that
# still overflows the RSSI and CSI arithmetic; 100 dB is far past any link.
# Checked as `not abs(x) <= DB_LIMIT`, which NaN fails too.
DB_LIMIT = 100.0

# A scene's size is bounded, so that a scene file cannot ask for unbounded work.
# 802.11n carries at most four spatial streams (IEEE Std 802.11-2020, clause 19);
# 16 TX and 16 RX hold four 4x4 links (the area preset holds five receivers).
MAX_FRONT_ENDS = 16
# Each obstacle adds at most two interval endpoints: at most 2049 timeline states.
MAX_OBSTACLES = 1024


def _check_counts(n_transmitters: int, n_receivers: int, n_obstacles: int) -> None:
    for name, count, bound in (("transmitters", n_transmitters, MAX_FRONT_ENDS),
                               ("receivers", n_receivers, MAX_FRONT_ENDS), ("obstacles", n_obstacles, MAX_OBSTACLES)):
        if count > bound:
            raise ValidationError(f"scene: {count} {name} exceed the bound of {bound}")


def db_to_linear(db):
    """10^(db/10): a dB gain as a power ratio, or a dBm level in mW."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(x):
    """10*log10(x): a power ratio in dB, or a level in mW in dBm; 0 gives -inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


def subcarrier_frequencies(bandwidth_mhz: int) -> np.ndarray:
    """Absolute frequencies of the data subcarriers (52 at 20 MHz, 108 at 40 MHz)."""
    # Subcarrier indices relative to the channel center: the used ones less the pilots.
    if bandwidth_mhz == 20:
        used = [k for k in range(-28, 29) if k != 0]
        pilots = {-21, -7, 7, 21}
    elif bandwidth_mhz == 40:
        used = [k for k in range(-58, 59) if abs(k) >= 2]
        pilots = {-53, -25, -11, 11, 25, 53}
    else:
        raise ValueError(f"bandwidth must be 20 or 40 MHz, got {bandwidth_mhz}")
    return CENTER_FREQ_HZ + np.array([k for k in used if k not in pilots]) * SUBCARRIER_SPACING_HZ


@dataclass(frozen=True, eq=False)
class _Pose:
    """What both front-end types share: an id, a position (m) and a unit boresight."""

    id: str
    position: np.ndarray
    boresight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "boresight", np.asarray(self.boresight, dtype=float))
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


@dataclass(frozen=True, eq=False)
class Transmitter(_Pose):
    """An LED: a generalized Lambertian source. Angles are degrees."""

    half_power_semi_angle: float
    tx_electrical_power_dbm: float

    def __post_init__(self):
        super().__post_init__()
        try:
            lambertian_order(self.half_power_semi_angle)
        except ValueError as exc:
            raise ValidationError(f"front-end '{self.id}': {exc}") from None
        if not abs(self.tx_electrical_power_dbm) <= DB_LIMIT:
            raise ValidationError(
                f"front-end '{self.id}': tx_electrical_power_dbm must be a finite number in "
                f"[-{DB_LIMIT:g}, {DB_LIMIT:g}] dBm for a TX, got {self.tx_electrical_power_dbm}")


@dataclass(frozen=True, eq=False)
class Receiver(_Pose):
    """A photodiode with a hard FOV cutoff. Angles are degrees, areas m^2; `conversion_gain_db`
    lumps photodiode responsivity and analog front-end gain into one electrical dB figure."""

    fov_half_angle: float
    active_area: float
    conversion_gain_db: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.fov_half_angle <= 90.0:
            raise ValidationError(
                f"front-end '{self.id}': fov_half_angle must be in (0, 90] degrees, got {self.fov_half_angle}")
        if not 0.0 < self.active_area < math.inf:
            raise ValidationError(
                f"front-end '{self.id}': active_area must be a finite number > 0 m^2, "
                f"got {self.active_area}")
        if not abs(self.conversion_gain_db) <= DB_LIMIT:
            raise ValidationError(
                f"front-end '{self.id}': conversion_gain_db must be finite and in "
                f"[-{DB_LIMIT:g}, {DB_LIMIT:g}] dB, got {self.conversion_gain_db}")


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
        # Frame indices are numpy int64 in the blockage timeline.
        if not 0 <= self.active_frames[0] < self.active_frames[1] < 2 ** 63:
            raise ValidationError(
                f"active_frames must be 0 <= start < end < 2**63, got {self.active_frames}")


@dataclass(frozen=True)
class Scene:
    """Immutable snapshot of the transmitters, receivers, obstacles, and RX noise floor."""

    transmitters: tuple
    receivers: tuple
    obstacles: tuple = ()
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM

    def __post_init__(self):
        for name in ("transmitters", "receivers", "obstacles"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _check_counts(len(self.transmitters), len(self.receivers), len(self.obstacles))
        if not abs(self.noise_floor_dbm) <= DB_LIMIT:
            raise ValidationError(f"scene: noise_floor_dbm must be finite and in "
                                  f"[-{DB_LIMIT:g}, {DB_LIMIT:g}] dBm, got {self.noise_floor_dbm}")
        for fes, cls in ((self.transmitters, Transmitter), (self.receivers, Receiver)):
            for fe in fes:
                if not isinstance(fe, cls):
                    raise ValidationError(f"scene: {cls.__name__.lower()}s must all be {cls.__name__}s, "
                                          f"got a {type(fe).__name__}")
        ids = [fe.id for fe in (*self.transmitters, *self.receivers)]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"scene: front-end ids must be unique, got {ids}")
        if not self.transmitters or not self.receivers:
            raise ValidationError("scene: at least one TX and one RX front-end are required")
        tx_ids, rx_ids = {tx.id for tx in self.transmitters}, {rx.id for rx in self.receivers}
        for obs in self.obstacles:
            # Sorted: a frozenset's order follows the per-process string hash.
            for tx_id, rx_id in sorted(obs.blocked_pairs):
                for ref in (tx_id, rx_id):
                    if ref not in ids:
                        raise ValidationError(f"obstacle: blocked pair {tx_id}->{rx_id} "
                                              f"references unknown front-end id '{ref}'")
                if tx_id not in tx_ids or rx_id not in rx_ids:
                    raise ValidationError(f"obstacle: blocked pair {tx_id}->{rx_id} must name a TX and then an RX")

    @property
    def tx_power_dbm(self) -> np.ndarray:
        return np.array([tx.tx_electrical_power_dbm for tx in self.transmitters])


def lambertian_order(half_power_semi_angle: float) -> float:
    """Lambertian mode number m of an LED with the given half-power semi-angle.

    m = -ln(2) / ln(cos(angle)); 60 degrees gives the ideal Lambertian m = 1.
    Below about 6e-7 degrees the cosine rounds to 1 and m is not finite.
    """
    if not 0.0 < half_power_semi_angle < 90.0:
        raise ValueError(
            f"half_power_semi_angle must be in (0, 90) degrees, got {half_power_semi_angle}")
    log_cos = math.log(math.cos(math.radians(half_power_semi_angle)))
    if log_cos == 0.0:
        raise ValueError(f"half_power_semi_angle {half_power_semi_angle} degrees is too narrow: "
                         f"its Lambertian order is not finite")
    return -math.log(2.0) / log_cos


def los_gain(tx: Transmitter, rx: Receiver) -> tuple[float, float]:
    """Geometric LOS path: (linear optical power gain, propagation delay in s).

    Gain is zero when the receiver sits behind the emitter plane (phi >= 90
    degrees) or the incidence angle exceeds the receiver FOV. A gain past 1
    raises ValidationError naming the TX->RX pair.
    """
    if not (isinstance(tx, Transmitter) and isinstance(rx, Receiver)):
        raise ValueError(f"los_gain needs a TX and an RX, got {type(tx).__name__} and {type(rx).__name__}")
    v = rx.position - tx.position
    d = path_length(tx, rx, v)
    m = lambertian_order(tx.half_power_semi_angle)
    try:
        g = path_gain(m, tx.boresight, v, d, rx.active_area,
                      incidence(rx.boresight, v, d, rx.fov_half_angle))
    except ValueError as exc:
        raise ValidationError(f"path {tx.id}->{rx.id}: {exc}") from None
    return g, d / SPEED_OF_LIGHT_M_S


def path_length(tx: Transmitter, rx: Receiver, v: np.ndarray, d: float | None = None) -> float:
    """Length of the TX->RX vector `v` (its norm, or a caller's `d` computed as the norm is); ValueError
    if it is degenerate or not finite, as it is past about 1e154 m (callers ignore numpy's FP errors)."""
    d = float(np.linalg.norm(v)) if d is None else d
    if not math.isfinite(d):
        raise ValueError(f"geometry is not finite: '{rx.id}' is out of range of '{tx.id}' "
                         f"(TX->RX vector {v.tolist()})")
    if d < 1e-12:
        raise ValueError(f"degenerate geometry: front-ends '{tx.id}' and '{rx.id}' are coincident")
    return d


def incidence(rx_boresight, v, d: float, fov_half_angle: float) -> float | None:
    """cos(psi) of the TX->RX vector `v` of length `d` at the receiver; None outside its FOV."""
    return within_fov(float(np.dot(rx_boresight, -v)) / d, fov_half_angle)


def within_fov(cos_psi: float, fov_half_angle: float) -> float | None:
    """`cos_psi`, or None where psi exceeds the FOV half-angle."""
    psi_deg = math.degrees(math.acos(min(1.0, max(-1.0, cos_psi))))
    return None if psi_deg > fov_half_angle + 1e-12 else cos_psi


def path_gain(m: float, tx_boresight, v, d: float, area: float, cos_psi: float | None) -> float:
    """The `lit_gain` of the TX->RX vector `v` of length `d`, the G of the module docstring."""
    return lit_gain(m, gain_scale(m, area, d), float(np.dot(tx_boresight, v)) / d, cos_psi)


def gain_scale(m: float, area: float, d):
    """(m + 1) * A / (2 * pi * d^2), the factor of G that the length `d` (a float or an array) sets."""
    return (m + 1.0) * area / (2.0 * math.pi * d * d)


def lit_gain(m: float, scale: float, cos_phi: float, cos_psi: float | None) -> float:
    """G of the module docstring from its `gain_scale`; ValueError unless G <= 1 (NaN fails): no path
    gets more than the LED sends, and G needs d >> sqrt(A) (Kahn and Barry, Proc. IEEE 85(2), 1997)."""
    if cos_psi is None or cos_phi <= 0.0:
        return 0.0
    try:
        g = scale * cos_phi ** m * cos_psi
    except OverflowError:  # a cos_phi a hair above 1 (boresight norm) under a needle beam
        g = math.inf
    if not g <= 1.0:
        raise ValueError(f"optical gain {g:.6g} is not <= 1: "
                         "no path receives more power than the LED sends")
    return g


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Per-subcarrier complex channel H plus the underlying path gains/delays.

    `entries[k, i, j] = sqrt(path_gains[i, j]) * exp(-2j*pi*f_k*path_delays[i, j])`
    for receive chain i, transmit element j, subcarrier frequency f_k, so
    `entries` is (len(subcarrier_freqs), n_rx, n_tx). Path gains are end-to-end
    electrical power gains (optical LOS gain times the receiver conversion
    gain); blocked paths carry exactly zero gain.
    """

    subcarrier_freqs: np.ndarray
    entries: np.ndarray
    path_gains: np.ndarray
    path_delays: np.ndarray

    @classmethod
    def from_paths(cls, path_gains, path_delays, subcarrier_freqs) -> "ChannelMatrix":
        gains = np.asarray(path_gains, dtype=float)
        delays = np.asarray(path_delays, dtype=float)
        freqs = np.asarray(subcarrier_freqs, dtype=float)
        if gains.ndim != 2:
            raise ValueError("path_gains and path_delays must be matching 2-D arrays")
        return cls(subcarrier_freqs=freqs, entries=path_entries(gains, delays, freqs), path_gains=gains,
                   path_delays=delays)

    @property
    def n_tx(self) -> int:
        return self.entries.shape[2]

    @property
    def n_rx(self) -> int:
        return self.entries.shape[1]

    def column_sum(self, amplitude_weights) -> np.ndarray:
        """Effective per-chain channel when all TX radiate one common signal.

        Returns shape (len(subcarrier_freqs), n_rx). Weights are per-TX field
        amplitudes, e.g. sqrt of linear TX power.
        """
        w = np.asarray(amplitude_weights, dtype=float)
        return np.tensordot(self.entries, w, axes=([2], [0]))


def path_entries(gains: np.ndarray, delays: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Stacked `ChannelMatrix.entries`: float gains and delays (..., n_rx, n_tx) give (..., K, n_rx, n_tx)."""
    if gains.ndim < 2 or gains.shape != delays.shape:
        raise ValueError("path_gains and path_delays must be matching arrays of shape (..., n_rx, n_tx)")
    if np.any(gains < 0.0):
        raise ValueError("path gains must be non-negative")
    phase = np.exp(-2j * np.pi * freqs[:, None, None] * delays[..., None, :, :])
    return np.sqrt(gains)[..., None, :, :] * phase


def unblocked_paths(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Gains and delays, both (n_rx, n_tx), of all TX->RX paths of a scene, none blocked. A
    power gain folds in its receiver's conversion gain: it maps TX to RX electrical power."""
    txs, rxs = scene.transmitters, scene.receivers
    gains = np.zeros((len(rxs), len(txs)))
    delays = np.zeros_like(gains)
    convs = [float(db_to_linear(rx.conversion_gain_db)) for rx in rxs]
    with np.errstate(over="ignore"):
        for i, (rx, conv) in enumerate(zip(rxs, convs)):
            for j, tx in enumerate(txs):
                g, delays[i, j] = los_gain(tx, rx)
                gains[i, j] = g * conv
    return gains, delays


def zero_paths(scene: Scene, gains: np.ndarray, pairs) -> np.ndarray:
    """A copy of the (n_rx, n_tx) `gains` of `scene` with the `(tx_id, rx_id)` `pairs` zeroed."""
    rx_ids, tx_ids = [rx.id for rx in scene.receivers], [tx.id for tx in scene.transmitters]
    gains = gains.copy()
    for tx_id, rx_id in pairs:
        gains[rx_ids.index(rx_id), tx_ids.index(tx_id)] = 0.0
    return gains


def scene_paths(scene: Scene, frame_index: int) -> tuple[np.ndarray, np.ndarray]:
    """`unblocked_paths` with zero gain on each path that an obstacle active at
    `frame_index` covers."""
    gains, delays = unblocked_paths(scene)
    pairs = [p for obs in scene.obstacles if obs.active_frames[0] <= frame_index < obs.active_frames[1]
             for p in obs.blocked_pairs]
    return zero_paths(scene, gains, pairs), delays


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
    p_mw = db_to_linear(np.asarray(tx_power_dbm, dtype=float))
    n_tx = np.shape(path_gains)[-1]
    if p_mw.shape != (n_tx,):
        raise ValueError(f"need one TX power per transmit element ({n_tx}), got shape {p_mw.shape}")
    return linear_to_db(path_gains @ p_mw)

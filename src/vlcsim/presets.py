"""Named reference scenes for the scripted experiments.

Every number here is a calibration artifact chosen by inverting the Lambertian
model so the scripted runs land on the documented operating points (equal-gain
SIMO branches, the -55 dBm SISO anchor, the 2x2 area layout, the near-singular
"both receivers in the overlap area" case). They are defaults, not physical
ground truth; override them via scene files where needed.

Geometry conventions: scenes live in the x-y plane (z only separates stacked
receivers), transmitters fire along +x or +y, and receivers stare back at the
transmitter plane.
"""

import math

import numpy as np

from ._numerics import brentq
from .channel import (CENTER_FREQ_HZ, SPEED_OF_LIGHT_M_S, Obstacle, Receiver, Scene,
                      Transmitter, incidence, lambertian_order, path_gain)

TX_SEMI_ANGLE_DEG = 30.0       # Lambertian order ~4.82
RX_FOV_DEG = 45.0
RX_AREA_M2 = 1e-4              # 1 cm^2 photodiode

# Blockage timeline covers, half-open [start, end) frame intervals.
BLOCK_B_FRAMES = (100, 181)
BLOCK_A_FRAMES = (200, 281)

# Handover geometry: the two RX sit at +- this azimuth, this far from the TX.
HANDOVER_RX_AZIMUTH_DEG = TX_SEMI_ANGLE_DEG
HANDOVER_DISTANCE_M = 2.5


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _tx(fe_id, position, boresight, power_dbm):
    return Transmitter(id=fe_id, position=np.asarray(position, float),
                       boresight=_unit(boresight), half_power_semi_angle=TX_SEMI_ANGLE_DEG,
                       tx_electrical_power_dbm=power_dbm)


def _rx(fe_id, position, boresight, fov=RX_FOV_DEG):
    """A receiver of `RX_AREA_M2` at the default 0 dB conversion gain."""
    return Receiver(id=fe_id, position=np.asarray(position, float),
                    boresight=_unit(boresight), fov_half_angle=fov, active_area=RX_AREA_M2)


def siso_scene() -> Scene:
    """One TX and one RX facing each other 2 m apart on the x axis: a flat channel.

    At 0 dBm TX power the RSSI is about -40.3 - 20*log10(d) dBm, so sweeping
    d from 0.15 m to 12.5 m covers roughly -24 dBm down to the noise floor.
    """
    return Scene((_tx("tx_a", (0, 0, 0), (1, 0, 0), power_dbm=0.0),),
                 (_rx("rx_a", (2.0, 0, 0), (-1, 0, 0)),))


def siso_sweep_distances(n_points: int, d_min: float, d_max: float) -> np.ndarray:
    """`n_points` receiver distances (m), log-spaced from `d_min` to `d_max`."""
    if d_min > d_max:
        raise ValueError(f"d_min={d_min} must not exceed d_max={d_max}")
    return np.geomspace(d_min, d_max, n_points)


def simo_blockage_scene() -> Scene:
    """One TX, two symmetric RX (equal path gains), and the two timed covers."""
    tx_pos = np.array([0.0, 0.0, 0.0])
    rx_a_pos = np.array([2.0, 0.3, 0.0])
    rx_b_pos = np.array([2.0, -0.3, 0.0])
    return Scene(
        (_tx("tx_a", tx_pos, (1, 0, 0), power_dbm=0.0),),
        (_rx("rx_a", rx_a_pos, tx_pos - rx_a_pos), _rx("rx_b", rx_b_pos, tx_pos - rx_b_pos)),
        obstacles=(
            Obstacle(blocked_pairs=frozenset({("tx_a", "rx_b")}), active_frames=BLOCK_B_FRAMES),
            Obstacle(blocked_pairs=frozenset({("tx_a", "rx_a")}), active_frames=BLOCK_A_FRAMES),
        ))


def handover_scene() -> Scene:
    """One rotatable TX between two distributed RX at +-HANDOVER_RX_AZIMUTH_DEG.

    The RX offset equals the TX half-power semi-angle, so at mid-sweep each
    branch sits exactly at half power and their MRC sum matches the boresight
    power: the combined level stays almost flat while each branch swings hard.
    """
    a = math.radians(HANDOVER_RX_AZIMUTH_DEG)
    rx_a_pos = HANDOVER_DISTANCE_M * np.array([math.cos(a), math.sin(a), 0.0])
    rx_b_pos = HANDOVER_DISTANCE_M * np.array([math.cos(a), -math.sin(a), 0.0])
    return Scene((_tx("tx_a", (0, 0, 0), rx_a_pos, power_dbm=0.0),),
                 (_rx("rx_a", rx_a_pos, -rx_a_pos), _rx("rx_b", rx_b_pos, -rx_b_pos)))


def handover_angles(n_points: int) -> np.ndarray:
    """TX boresight azimuths sweeping from RX A across to RX B."""
    return np.linspace(HANDOVER_RX_AZIMUTH_DEG, -HANDOVER_RX_AZIMUTH_DEG, n_points)


# 2x2 area layout: two TX a meter apart firing across a 2 m gap onto a
# receiver rail. The 30 degree RX FOV carves the rail into "A only" / "both" /
# "B only" regions; +-0.1 m z offsets keep paired receivers distinct. TX power
# is set so the near-singular "both in area 2" case lands just above the
# 2-stream BPSK threshold (ZF there burns roughly 28 dB of SNR).
_AREA_TX_POWER_DBM = 18.5
_AREA_TX_X = 0.5
_AREA_TX_BORESIGHT = (0, 1, 0)
_AREA_RAIL_Y = 2.0
_AREA_RX_FOV_DEG = 30.0
_AREA_RX_X = {1: -1.2, 2: 0.0, 3: 1.2}
_AREA_RX_Z = (0.1, -0.1)


def _area_tx(side: str) -> Transmitter:
    x = -_AREA_TX_X if side == "a" else _AREA_TX_X
    return _tx(f"tx_{side}", (x, 0, 0), _AREA_TX_BORESIGHT, power_dbm=_AREA_TX_POWER_DBM)


def _area_rx(fe_id: str, area: int, z: float, tilt_deg: float = 0.0) -> Receiver:
    """A rail receiver in coverage `area`, its boresight tilted `tilt_deg` toward TX B."""
    a = math.radians(tilt_deg)
    return _rx(fe_id, (_AREA_RX_X[area], _AREA_RAIL_Y, z), (math.sin(a), -math.cos(a), 0.0),
               fov=_AREA_RX_FOV_DEG)


def area2_tilt_for_imbalance(imbalance_db: float) -> float:
    """Boresight tilt (degrees toward TX B) skewing the tilted area-2 RX's path gains.

    Tilting changes only the incidence-angle factors, not the path lengths,
    so the two path delays stay equal and the channel row keeps a common
    phase: the gain ratio moves by `imbalance_db` while the row stays almost
    proportional to an untilted area-2 row.
    """
    if not imbalance_db >= 0.0:
        raise ValueError(
            f"imbalance of {imbalance_db} dB is not reachable by tilting: the reachable "
            "range is about [0, 0.59] dB")
    if imbalance_db == 0.0:
        return 0.0
    # The probe only turns in place: each path's vector and length and the TX
    # Lambertian order are fixed, so a step builds no front-ends.
    m = lambertian_order(TX_SEMI_ANGLE_DEG)
    tx_boresight = _unit(_AREA_TX_BORESIGHT)
    rx_position = np.asarray((_AREA_RX_X[2], _AREA_RAIL_Y, _AREA_RX_Z[1]), float)
    paths = []
    for x in (-_AREA_TX_X, _AREA_TX_X):  # TX A, TX B
        v = rx_position - np.asarray((x, 0, 0), float)
        paths.append((v, float(np.linalg.norm(v))))

    def skew(tilt):
        a = math.radians(tilt)
        boresight = _unit((math.sin(a), -math.cos(a), 0.0))
        ga, gb = (path_gain(m, tx_boresight, v, d, RX_AREA_M2,
                            incidence(boresight, v, d, _AREA_RX_FOV_DEG)) for v, d in paths)
        return 10.0 * math.log10(ga / gb) + imbalance_db

    # Beyond ~15.5 degrees the TX A path leaves the receiver FOV entirely.
    max_tilt = 15.5
    if skew(max_tilt) > 0.0:
        raise ValueError(
            f"imbalance of {imbalance_db} dB is not reachable by tilting "
            "within the receiver FOV (max is about 0.59 dB)")
    return brentq(skew, 0.0, max_tilt, xtol=1e-12)


# The links of the area grid: each link's placement label, the rows of its two
# receivers in `mimo_area_scene`, and whether it carries the imbalance. The
# last link is the exactly proportional (2, 2) contrast case.
AREA_LINKS = (("1,3", (0, 2), False), ("2,3", (1, 2), False), ("1,2", (0, 3), False),
              ("2,2", (1, 4), True), ("2,2", (1, 3), False))


def mimo_area_scene(imbalance_db: float) -> Scene:
    """Both area TX and the five receivers of `AREA_LINKS`.

    `rx_a1` and `rx_a2` sit at the first receiver height in areas 1 and 2,
    `rx_b3` and `rx_b2` at the second in areas 3 and 2. Two area-2 receivers
    have exactly proportional channel rows; `rx_b2_tilted` is `rx_b2` tilted
    toward TX B so that its two path gains differ by `imbalance_db`, which is
    what keeps the (2, 2) matrix barely invertible.
    """
    z_a, z_b = _AREA_RX_Z
    return Scene((_area_tx("a"), _area_tx("b")),
                 (_area_rx("rx_a1", 1, z_a), _area_rx("rx_a2", 2, z_a),
                  _area_rx("rx_b3", 3, z_b), _area_rx("rx_b2", 2, z_b),
                  _area_rx("rx_b2_tilted", 2, z_b, area2_tilt_for_imbalance(imbalance_db))))


def csi_miso_scene() -> Scene:
    """Two co-aligned TX whose ~1 ns path-delay difference notches the band.

    The extra path length puts the second transmitter half a carrier cycle
    behind at the band center, and its TX power is raised to equalize the two
    received field amplitudes, so the superposed channel dips deeply mid-band.
    """
    d_near = 2.0
    cycles = round(CENTER_FREQ_HZ * 1e-9 - 0.5) + 0.5  # delta near 1 ns
    delta_tau = cycles / CENTER_FREQ_HZ
    d_far = d_near + SPEED_OF_LIGHT_M_S * delta_tau
    power_a = 0.0
    power_b = power_a + 20.0 * math.log10(d_far / d_near)  # match field amplitudes
    return Scene((_tx("tx_a", (0, 0, 0), (1, 0, 0), power_dbm=power_a),
                  _tx("tx_b", (-(d_far - d_near), 0, 0), (1, 0, 0), power_dbm=power_b)),
                 (_rx("rx_a", (d_near, 0, 0), (-1, 0, 0)),))


"""Golden outputs: SHA-256 of `<scenario>.csv` and `summary.json` per scenario.

Each case runs the CLI in-process at a fixed seed and a small size and
compares both output files byte for byte, by digest, with the values recorded
below. A digest may change only with a stated change of behaviour, never for
a speed-up or a refactor.

Scene paths are passed relative to the working directory because
`summary.json` records the `--scene` string as given.
"""

import hashlib
import pathlib

import pytest

from vlcsim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Three obstacles with overlapping, nested and adjacent intervals, one starting
# at frame 0 and one ending past the run's last frame.
MULTI_OBSTACLE_SCENE = (ROOT / "scenes" / "simo_blockage.cfg").read_text().split(
    "[obstacle")[0] + """[obstacle early]
blocks = tx_a->rx_a
frames = 0 40

[obstacle long]
blocks = tx_a->rx_b
frames = 30 200

[obstacle nested]
blocks = tx_a->rx_a, tx_a->rx_b
frames = 90 120

[obstacle adjacent]
blocks = tx_a->rx_a
frames = 200 500
"""

# One link with a non-zero TX power, receiver conversion gain and noise floor,
# and a receiver tilted off the link axis (cos(psi) < 1).
SISO_GAIN_SCENE = """[scene]
noise_floor_dbm = -62.5

[frontend tx_a]
role = tx
position_m = 0.0 0.0 0.0
boresight = 1.0 0.0 0.0
half_power_semi_angle_deg = 20.0
tx_power_dbm = 3.0

[frontend rx_a]
role = rx
position_m = 2.0 0.0 0.0
boresight = -0.8 0.6 0.0
fov_half_angle_deg = 60.0
active_area_m2 = 0.00005
conversion_gain_db = 6.5
"""

# rx_a faces the transmitter at 30 degrees azimuth. rx_b sits at 100 degrees,
# so as the boresight pans from 30 to -30 degrees rx_b leaves the beam: it
# passes behind the emitter plane (phi = 90 degrees) at exactly 10 degrees,
# which the 241-angle sweep hits, and reads -inf from there on.
HANDOVER_EDGE_SCENE = """[scene]
noise_floor_dbm = -55.0

[frontend tx_a]
role = tx
position_m = 0.0 0.0 0.0
boresight = 0.8660254037844387 0.49999999999999994 0.0
half_power_semi_angle_deg = 45.0
tx_power_dbm = -2.0

[frontend rx_a]
role = rx
position_m = 2.165063509461097 1.2499999999999998 0.0
boresight = -0.8660254037844387 -0.49999999999999994 0.0
fov_half_angle_deg = 45.0
active_area_m2 = 0.0001
conversion_gain_db = -3.0

[frontend rx_b]
role = rx
position_m = -0.26047226650039546 1.477211629518312 0.0
boresight = 0.1736481776669303 -0.984807753012208 0.0
fov_half_angle_deg = 70.0
active_area_m2 = 0.0002
conversion_gain_db = 4.0
"""

# The receiver faces away from the transmitter, so the link is outside its FOV
# at every distance: every row reads -inf, and after the sort by RSSI the
# distances interleave across the MCS.
SISO_DARK_SCENE = (ROOT / "scenes" / "siso.cfg").read_text().replace(
    "boresight = -1.0 0.0 0.0", "boresight = 1.0 0.0 0.0")

SCENE_FILES = {"multi.cfg": MULTI_OBSTACLE_SCENE, "siso_gain.cfg": SISO_GAIN_SCENE,
               "handover_edge.cfg": HANDOVER_EDGE_SCENE, "siso_dark.cfg": SISO_DARK_SCENE}

CASES = {
    "siso-preset": ["--scenario", "siso-sweep", "--seed", "3",
                    "--set", "n_distances=300", "--set", "count=200"],
    "siso-scene": ["--scenario", "siso-sweep", "--scene", "scenes/siso.cfg", "--seed", "4",
                   "--set", "n_distances=200", "--set", "mcs=0,3,7",
                   "--set", "d_min=0.5", "--set", "d_max=20"],
    "blockage-scene": ["--scenario", "blockage-timeline", "--scene",
                       "scenes/simo_blockage.cfg", "--seed", "5"],
    "blockage-preset-mcs4": ["--scenario", "blockage-timeline", "--seed", "7",
                             "--set", "n_frames=400", "--set", "mcs_index=4",
                             "--set", "payload_bytes=1500"],
    "blockage-multi": ["--scenario", "blockage-timeline", "--scene", "multi.cfg",
                       "--seed", "9", "--set", "n_frames=300", "--set", "mcs_index=3"],
    "mrc-point": ["--scenario", "mrc-fsr-point", "--seed", "11"],
    "handover-preset": ["--scenario", "handover-sweep", "--seed", "3",
                        "--set", "n_angles=300"],
    "handover-scene": ["--scenario", "handover-sweep", "--scene", "scenes/handover.cfg",
                       "--set", "n_angles=201"],
    # MCS out of order, so the order of the Bernoulli draws matters.
    "siso-gain-scene": ["--scenario", "siso-sweep", "--scene", "siso_gain.cfg", "--seed", "13",
                        "--set", "mcs=7,0,3", "--set", "count=1",
                        "--set", "payload_bytes=3000", "--set", "n_distances=120",
                        "--set", "d_min=0.3", "--set", "d_max=25"],
    "handover-edge-scene": ["--scenario", "handover-sweep", "--scene", "handover_edge.cfg",
                            "--set", "n_angles=241"],
    "siso-dark-scene": ["--scenario", "siso-sweep", "--scene", "siso_dark.cfg", "--seed", "6",
                        "--set", "n_distances=7", "--set", "mcs=5,2,0", "--set", "count=50"],
    # d_min == d_max: every row of one MCS has the same distance and RSSI, and
    # only the realized FSR tells them apart.
    "siso-repeated-distance": ["--scenario", "siso-sweep", "--seed", "8",
                               "--set", "d_min=1.75", "--set", "d_max=1.75",
                               "--set", "n_distances=6", "--set", "mcs=4,1,6",
                               "--set", "count=7"],
    "area-grid": ["--scenario", "mimo-area-grid", "--seed", "2", "--set", "count=300"],
    # The 2x2 placement at the zero-forcing boundary: every subcarrier is
    # singular at 0.01 dB; at 0.05 dB the Gram condition number is 4.8e5,
    # just inside the 1e6 cutoff.
    "area-grid-singular": ["--scenario", "mimo-area-grid", "--set", "imbalance_db=0.01"],
    "area-grid-edge": ["--scenario", "mimo-area-grid", "--set", "imbalance_db=0.05"],
    "csi-preset": ["--scenario", "csi-report"],
    "csi-scene": ["--scenario", "csi-report", "--scene", "scenes/csi_miso.cfg",
                  "--set", "bits=8", "--set", "bandwidth_mhz=20"],
    "oracle": ["--scenario", "oracle-check", "--seed", "3", "--set", "n_frames=20",
               "--set", "mcs=0,9"],
    # 16- and 64-QAM constellations, 2-stream ZF and a padded last OFDM symbol.
    "oracle-qam": ["--scenario", "oracle-check", "--seed", "5", "--set", "n_frames=10",
                   "--set", "mcs=3,7,11,15", "--set", "payload_bytes=300"],
}

# [csv sha256, summary.json sha256] per case.
DIGESTS = {
    "siso-preset": [
        "64c2f0e53c65182a8a413b35d57f6a2a8491f75b97b7d8e3a23427638ddb1e63",
        "087309211f93caead4f313925e97d017449326ca4d70b12de108987d4cbf15c1"],
    "siso-scene": [
        "ac306b4c901c72ce374bdd96479f532e6c56b9a6f0ffbe68ef010759cbdc8404",
        "2654f58d4e2667b67f59e848b51194c965497628171de144e56bce9ba417bf40"],
    "blockage-scene": [
        "fd2f3a977728588726a9752146eb4c0b27daf4be28338d361c4cd0e52564ecd9",
        "bdfda77a9429a87202e32e6b3c09d392a493492a8d18e173668e97e0ad19c614"],
    "blockage-preset-mcs4": [
        "ab7f65740340ef877221108680bc2413f953e01c893946b686a2fbaba8e30f89",
        "5d68d468370d1cfcf75e92a309d714b54aaf5baa9070db6a8f1d08ccf5340a51"],
    "blockage-multi": [
        "3d34e00544c2f1e183348bce810199134dd697c8f55504848c54835211209601",
        "4ebae290ac479fb4fef81ac53b478432a99df2bc89340ceb9ac44d71c27ffa0b"],
    "mrc-point": [
        "f8e30da34dcbf87196a0799e4ad4b47b269612ae9dd5dc5bec8d2348371ee542",
        "1ad3bd52bec19d714109a6504eef4d935be74c3e53b0dcdd36c2561a9ce2b89c"],
    "handover-preset": [
        "36bb4dbc9a74d8cd199149d7caca9dc90be780d347dc6f05cd0d19f85fb99029",
        "eeea197f1d5be96735bd3a4060019e75010a2c8497412609693a79873a61e194"],
    "handover-scene": [
        "23e4c3d3fd5a580db551487041dfb866a2bec835d323eb152270f8acce5958f5",
        "0d996e8cbd3cf353b9e794f954e16e9a8d527047e122ebf8afbbbea1fda02cd4"],
    "siso-gain-scene": [
        "f27457a249a7acce3b7a7c7439adcef9ef032ab59a996e6eb2a65ab52f21030f",
        "7411b812616a41be4f589ddb531ad0044aaa8b55e9795de07840dfa8251ad505"],
    "handover-edge-scene": [
        "4fc530ab2ba31f93a32b1f127a976eb42ed872fb2f829fc5bc4b38361a2c60fe",
        "2999168a7b11cc54ebd33b030e7228289d89468fcde54a10f0875c6069ec7a5b"],
    "siso-dark-scene": [
        "007672e7a034f5eab911727396e29badad3e22ab091c734675c1191d89c86105",
        "c554dcb2d1ae2de1bf734f31799157c1c880c7c7bd224835aab30b6573c4707f"],
    "siso-repeated-distance": [
        "88a344c83dacbae06697b8ca639424c36fc95d20dad1939c2b75af8e09d23468",
        "1157edf3322ff5135beae9a6d0f6a03a1b244156afdea6ff27016462810edb4b"],
    "area-grid": [
        "511684feb80f49f1048303852fc6af4293cde7d948ae5279ff8ed605a8ff0444",
        "94372f59e1db62f6a4897ac398cbfdfe15649231684a9753c4dae27a40fe706b"],
    "area-grid-singular": [
        "410a8a5eae8ec6776fdd431f3ae59244a2ddb3c4ab6f101dc7842cbcc2d5d201",
        "cee63f7b45762310c2fbea69f0ff5fefd033a6d5b570af8a951ed9160e89f1dd"],
    "area-grid-edge": [
        "bebd0cda3261670f7b428386657515b25388207363a13f5f5422d774e46afe48",
        "eec88a00da6e8d33ba33268f5d9f56c5ef63260e3e080ffc08162cf63f4a052d"],
    "csi-preset": [
        "b0e13e42ebeb05daeb379c2304b0ad1aa3139a438ae41305771a2022fa3a0409",
        "3d3e0d5e72c5427d71c3bafd584226c0c292ae4ad037ed0f52fe8999405da033"],
    "csi-scene": [
        "7f5166793449a5843f8d6b4a51a0d3840ec53b8f13046c8e6d8b260b2f63e28f",
        "e7450064fcae4543ffdc40f4d34ae461d60799b7d2ec9170ee797fb6db18960b"],
    "oracle": [
        "7ea06e3ae4051730eb199caeb9991234a1507c4867580bab22042dd3584f0733",
        "6207c5a534e02526fcc63a89f896eaf6c489e0c9e6962e07c9ce46e912c60e4a"],
    "oracle-qam": [
        "854b52139f00b0ee146b3e5539b09dd2283423e7d9fb260300f320fb269e871c",
        "091d5ec70b74b0d33d31e00c567c61beea28b1adbc6cdfd072dd2aee56e6a138"],
}


def run_case(name, tmp_path, monkeypatch):
    """Run one case from a working directory that holds `scenes/` and `SCENE_FILES`."""
    work = tmp_path / "work"
    (work / "scenes").mkdir(parents=True)
    for cfg in (ROOT / "scenes").glob("*.cfg"):
        (work / "scenes" / cfg.name).write_text(cfg.read_text())
    for file_name, text in SCENE_FILES.items():
        (work / file_name).write_text(text)
    monkeypatch.chdir(work)
    out = tmp_path / "out"
    argv = CASES[name]
    assert main(argv + ["--out", str(out)]) == 0
    scenario = argv[argv.index("--scenario") + 1]
    return [hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in (f"{scenario}.csv", "summary.json")]


def test_every_scenario_is_covered():
    scenarios = {argv[argv.index("--scenario") + 1] for argv in CASES.values()}
    assert len(scenarios) == 7
    assert DIGESTS.keys() == CASES.keys()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    assert run_case(name, tmp_path, monkeypatch) == DIGESTS[name]

"""Scripted experiments: timelines, sweeps, area grid, and CSI reporting."""

import csv
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vlcsim import channel, presets
from vlcsim.channel import (MAX_OBSTACLES, ChannelMatrix, Obstacle, Scene, ValidationError,
                            channel_matrix, incidence, lambertian_order, los_gain, path_gain,
                            path_length, subcarrier_frequencies)
from vlcsim.cli import main
from vlcsim.mimo import mrc_combine
from vlcsim.phy import FrameSpec, fsr, mcs, snr_for_fsr
from vlcsim.scenarios import (_realize, report_csi, run_blockage_timeline,
                              run_csi_report, run_handover_sweep, run_mimo_area_grid,
                              run_mrc_fsr_point, run_siso_sweep)

GAIN_3DB = 10.0 * math.log10(2.0)
FRAME = FrameSpec(payload_bytes=1000, count=1000)


@pytest.fixture(scope="module")
def timeline():
    return run_blockage_timeline(presets.simo_blockage_scene(), FRAME.payload_bytes, seed=7,
                                 mcs_index=0, n_frames=350)


@pytest.fixture(scope="module")
def states(timeline):
    """The `(per_chain_rssi_dbm, combined_rssi_dbm)` state of each frame."""
    return [timeline.states[k] for k in timeline.state_of_frame]


@pytest.fixture(scope="module")
def handover():
    return run_handover_sweep(presets.handover_scene(), presets.handover_angles(61))


@pytest.fixture(scope="module")
def sweep():
    return run_siso_sweep(presets.siso_scene(), [0, 7],
                          presets.siso_sweep_distances(64, 0.15, 12.5), FRAME, seed=3)


def _by_mcs(sweep, column):
    """`column`, one value per (distance, MCS) cell, as one list per MCS index."""
    n = len(sweep.mcs_index)
    return {m: column[j::n] for j, m in enumerate(sweep.mcs_index)}


@pytest.fixture(scope="module")
def grid_rows():
    return run_mimo_area_grid(range(8, 13), FRAME, seed=1, imbalance_db=0.5)


class TestBlockageTimeline:
    def test_exactly_one_trace_per_frame(self, timeline):
        assert len(timeline.state_of_frame) == len(timeline.success) == 350

    def test_all_frames_succeed(self, timeline):
        assert all(timeline.success)

    def test_clear_interval_shows_3db_mrc_gain(self, states):
        for per_chain, combined in states[:100]:
            assert combined - per_chain[0] == pytest.approx(GAIN_3DB, abs=1e-6)
            assert per_chain[0] == pytest.approx(per_chain[1], abs=1e-9)

    def test_block_b_window(self, states):
        for per_chain, combined in states[100:181]:
            assert per_chain[1] == float("-inf")
            assert combined == pytest.approx(per_chain[0], abs=0.1)

    def test_block_a_window(self, states):
        for per_chain, combined in states[200:281]:
            assert per_chain[0] == float("-inf")
            assert combined == pytest.approx(per_chain[1], abs=0.1)

    def test_gaps_between_blocks_are_clear(self, states):
        for per_chain, _ in states[181:200] + states[281:]:
            assert all(np.isfinite(per_chain))

    def test_mrc_trace_invariant(self, timeline, states):
        for per_chain, combined in states:
            assert combined >= max(per_chain) - 1e-12
        assert timeline.mcs_index == 0

    def test_deterministic(self):
        a = run_blockage_timeline(presets.simo_blockage_scene(), 1000, 7, 0, 350)
        b = run_blockage_timeline(presets.simo_blockage_scene(), 1000, 7, 0, 350)
        assert a == b

    def test_los_gain_runs_once_per_path(self, monkeypatch):
        scene = presets.simo_blockage_scene()
        calls = []

        def counted(tx, rx):
            calls.append((tx.id, rx.id))
            return los_gain(tx, rx)

        monkeypatch.setattr(channel, "los_gain", counted)
        timeline = run_blockage_timeline(scene, 1000, 7, 0, 350)
        assert len(timeline.states) == 3
        assert sorted(calls) == [(tx.id, rx.id) for tx in scene.transmitters
                                 for rx in scene.receivers]

    def test_memory_does_not_grow_with_the_obstacle_count(self):
        """At the obstacle and frame bounds the runner holds per-frame columns
        and per-state gains: its tracemalloc peak read 2.9 MB with numpy 2.4,
        while a frames x obstacles boolean array alone would be 102 MB."""
        base = presets.simo_blockage_scene()
        paths = [("tx_a", "rx_a"), ("tx_a", "rx_b")]
        obstacles = [Obstacle(blocked_pairs={paths[k % 2]}, active_frames=(97 * k, 97 * k + 150))
                     for k in range(MAX_OBSTACLES)]
        scene = Scene(base.transmitters, base.receivers, obstacles, base.noise_floor_dbm)
        tracemalloc.start()
        try:
            timeline = run_blockage_timeline(scene, 1000, 1, 0, 10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert len(timeline.success) == 10 ** 5 and len(timeline.states) == 4


class TestMrcFsrPoint:
    def test_reference_point(self):
        a, b, combined = run_mrc_fsr_point((0.626, 0.365), FRAME, seed=11)
        assert [r.path for r in (a, b, combined)] == ["A", "B", "MRC"]
        assert a.fsr_analytic == pytest.approx(0.626, abs=1e-9)
        assert b.fsr_analytic == pytest.approx(0.365, abs=1e-9)
        assert abs(a.fsr_realized - 0.626) <= 0.05
        assert abs(b.fsr_realized - 0.365) <= 0.05
        assert combined.fsr_realized >= 0.9

    def test_saturated_branches_stay_saturated(self):
        # The largest target below 1 puts each branch at an analytic FSR of
        # 1 - 2e-16 and the combination at exactly 1.
        top = math.nextafter(1.0, 0.0)
        rows = run_mrc_fsr_point((top, top), FRAME, seed=2)
        assert rows[2].fsr_analytic == 1.0
        assert [r.fsr_realized for r in rows] == [1.0, 1.0, 1.0]

    def test_mrc_beats_independent_selection(self):
        a, b, combined = run_mrc_fsr_point((0.626, 0.365), FRAME, seed=11)
        bound = 1.0 - (1.0 - a.fsr_realized) * (1.0 - b.fsr_realized) - 0.02
        assert combined.fsr_realized >= bound

    def test_reports_the_combined_snr(self):
        a, b, combined = run_mrc_fsr_point((0.2, 0.7), FRAME, seed=1)
        assert combined.snr_db == mrc_combine([10.0 ** (a.snr_db / 10.0),
                                               10.0 ** (b.snr_db / 10.0)])[1]
        assert combined.snr_db == pytest.approx(
            10 * math.log10(10 ** (a.snr_db / 10) + 10 ** (b.snr_db / 10)))

    def test_paths_sit_at_their_targets_at_mcs0(self):
        rows = run_mrc_fsr_point((0.2, 0.7), FrameSpec(payload_bytes=300, count=10), seed=1)
        for row, target in zip(rows, (0.2, 0.7)):
            assert row.snr_db == snr_for_fsr(mcs(0), target, 300)
            assert row.fsr_analytic == fsr(mcs(0), row.snr_db, 300)
            assert row.fsr_analytic == pytest.approx(target, abs=1e-12)


class TestRealize:
    def test_nan_probability_is_not_realized_as_zero(self):
        with pytest.raises(ValueError, match="NaN"):
            _realize(np.random.default_rng(1), [0.5, math.nan], 1000)


class TestHandoverSweep:
    def test_combined_power_stays_flat(self, handover):
        mrc = handover.rssi_mrc_dbm
        assert max(mrc) - min(mrc) <= 3.0

    def test_each_path_swings_hard(self, handover):
        for path in ("rssi_a_dbm", "rssi_b_dbm"):
            values = getattr(handover, path)
            assert max(values) - min(values) >= 10.0

    def test_extreme_angle_pushes_far_path_to_the_floor(self, handover):
        scene = presets.handover_scene()
        assert handover.rssi_b_dbm[0] <= scene.noise_floor_dbm + 2.0

    def test_mid_sweep_mrc_dominates_both(self, handover):
        mid = len(handover.tx_azimuth_deg) // 2
        assert handover.rssi_mrc_dbm[mid] > max(handover.rssi_a_dbm[mid], handover.rssi_b_dbm[mid])

    def test_needs_two_receivers(self):
        with pytest.raises(ValueError):
            run_handover_sweep(presets.siso_scene(), [0.0])

    def test_no_azimuths_give_empty_columns(self):
        assert run_handover_sweep(presets.handover_scene(), []) == ([], [], [], [])


class TestSisoSweep:
    def test_rows_sorted_by_rssi(self, tmp_path):
        # The CLI writes the cells sorted by RSSI.
        out = tmp_path / "out"
        assert main(["--scenario", "siso-sweep", "--seed", "3", "--set", "mcs=0,7",
                     "--out", str(out)]) == 0
        with open(out / "siso-sweep.csv", newline="") as f:
            rssi = [float(row["rssi_dbm"]) for row in csv.DictReader(f)]
        assert rssi == sorted(rssi)

    def test_mcs0_reliable_above_minus_55(self, sweep):
        realized = _by_mcs(sweep, sweep.fsr_realized)[0]
        strong = [q for r, q in zip(sweep.rssi_dbm, realized) if r >= -55.0]
        assert strong and all(q >= 0.99 for q in strong)

    def test_mcs7_needs_about_30db_more(self, sweep):
        realized = _by_mcs(sweep, sweep.fsr_realized)
        c0 = min(r for r, q in zip(sweep.rssi_dbm, realized[0]) if q >= 0.99)
        c7 = min(r for r, q in zip(sweep.rssi_dbm, realized[7]) if q >= 0.99)
        assert c7 - c0 == pytest.approx(30.0, abs=3.0)

    def test_fsr_negligible_at_noise_floor(self, sweep):
        weak = [p for analytic in _by_mcs(sweep, sweep.fsr_analytic).values()
                for s, p in zip(sweep.snr_db, analytic) if s <= 0.0]
        assert weak and all(p <= 0.01 for p in weak)

    def test_needs_1x1(self):
        with pytest.raises(ValueError):
            run_siso_sweep(presets.simo_blockage_scene(), [0], [1.0], FRAME, seed=0)

    def test_no_distances_give_empty_columns(self):
        assert run_siso_sweep(presets.siso_scene(), [0, 7], [], FRAME, seed=0) == ([], [], [], [0, 7], [], [])


def _scalar_siso_error(scene, distances):
    """The error of a SISO sweep as one scalar kernel call per distance gives it, or None."""
    tx, rx = scene.transmitters[0], scene.receivers[0]
    m = lambertian_order(tx.half_power_semi_angle)
    direction = rx.position - tx.position
    direction = direction / path_length(tx, rx, direction)
    for dist in distances:
        v = (tx.position + dist * direction) - tx.position
        try:
            with np.errstate(over="ignore"):  # a norm past the float range is the error here
                d = path_length(tx, rx, v)
        except ValueError as exc:
            return str(exc)
        try:
            path_gain(m, tx.boresight, v, d, rx.active_area,
                      incidence(rx.boresight, v, d, rx.fov_half_angle))
        except ValueError as exc:
            return f"receiver at {dist:g} m: {exc}; raise d_min"
    return None


def _scalar_handover_error(scene, azimuths):
    """The error of a handover sweep as one scalar kernel call per (angle, RX) gives it, or None."""
    tx = scene.transmitters[0]
    m = lambertian_order(tx.half_power_semi_angle)
    for az in azimuths:
        a = math.radians(az)
        boresight = np.array([math.cos(a), math.sin(a), 0.0])
        for rx in scene.receivers:
            v = rx.position - tx.position
            d = path_length(tx, rx, v)
            try:
                path_gain(m, boresight, v, d, rx.active_area,
                          incidence(rx.boresight, v, d, rx.fov_half_angle))
            except ValueError as exc:
                return f"path {tx.id}->{rx.id}: {exc}"
    return None


class TestSweepFaults:
    """A sweep raises for its first failing distance, or (angle, RX) pair, in
    sweep order, with the text the scalar kernel gives, and warns nothing."""

    # A link off the axes, so that the batched dots are not exact by accident.
    _DIAGONAL = Scene((presets._tx("tx_a", (0.1, -0.2, 0.3), (0.6, 0.8, 0.0), power_dbm=0.0),),
                      (presets._rx("rx_a", (1.3, 1.4, 0.3), (-0.6, -0.8, 0.0)),))

    @pytest.mark.parametrize("distances,reason", [
        ([2.0, 1e-6, 1e-13], "optical gain"),
        ([2.0, 1e-13, 1e-6], "degenerate geometry"),
        ([1e-7, 1e-6, 1e200], "optical gain"),
        ([2.0, 1e200, 1e-6], "geometry is not finite"),
        ([1.0, 1.7e308], "geometry is not finite"),
    ], ids=["gain-then-coincident", "coincident-then-gain", "two-gains-then-overflow",
            "overflow-then-gain", "overflow-on-axis"])
    @pytest.mark.parametrize("preset", ["axis", "diagonal"])
    def test_siso_first_failing_distance(self, distances, reason, preset):
        scene = presets.siso_scene() if preset == "axis" else self._DIAGONAL
        want = _scalar_siso_error(scene, distances)
        assert reason in want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                run_siso_sweep(scene, [0, 7], distances, FRAME, seed=0)
        assert type(exc.value) is ValueError and str(exc.value) == want

    @pytest.mark.parametrize("azimuths,rx_id", [
        ([180.0, 90.0, -90.0, 0.0], "rx_a"),
        ([180.0, -90.0, 90.0, 0.0], "rx_b"),
        ([180.0, 0.0, -90.0], "rx_a"),
    ], ids=["a-first", "b-first", "both-at-one-angle"])
    def test_handover_first_failing_pair(self, azimuths, rx_id):
        # Both receivers take more power than the LED sends when lit: at 90
        # degrees only RX A is in front of the LED, at -90 only RX B, at 0
        # both, and at 180 neither.
        base = presets.handover_scene()
        scene = Scene(base.transmitters,
                      [dataclasses.replace(rx, active_area=1e300) for rx in base.receivers])
        want = _scalar_handover_error(scene, azimuths)
        assert want.startswith(f"path tx_a->{rx_id}: optical gain ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                run_handover_sweep(scene, azimuths)
        assert str(exc.value) == want


class TestMimoAreaGrid:
    def test_independent_and_mixed_placements_decode(self, grid_rows):
        for r in grid_rows:
            if r.placement in ("1,3", "2,3", "1,2"):
                assert r.solvable and r.fsr_realized >= 0.99

    def test_proportional_rows_fail_completely(self, grid_rows):
        dead = [r for r in grid_rows if r.placement == "2,2" and r.imbalance_db == 0.0]
        assert len(dead) == 5
        for r in dead:
            assert not r.solvable
            assert r.fsr_realized == 0.0

    def test_small_imbalance_rescues_bpsk_only(self, grid_rows):
        live = {r.mcs_index: r for r in grid_rows
                if r.placement == "2,2" and r.imbalance_db == 0.5}
        assert live[8].solvable and live[8].fsr_realized > 0.8
        for m in range(9, 13):
            assert live[m].fsr_realized <= 0.05

    def test_weak_stream_dominates(self, grid_rows):
        # Both streams run one MCS, so a link's frame is priced at its weakest stream.
        for r in grid_rows:
            weakest = fsr(mcs(r.mcs_index), min(r.snr_stream_a_db, r.snr_stream_b_db),
                          FRAME.payload_bytes)
            assert r.fsr_analytic == weakest
        # The 0.5 dB link's streams differ, and there the stronger one would price higher.
        skewed = [r for r in grid_rows if r.imbalance_db == 0.5 and r.mcs_index == 8]
        assert len(skewed) == 1
        strongest = fsr(mcs(8), max(skewed[0].snr_stream_a_db, skewed[0].snr_stream_b_db),
                        FRAME.payload_bytes)
        assert skewed[0].fsr_analytic < strongest

    def test_stream_count_checked_before_the_tilt_solve(self):
        with pytest.raises(ValueError, match="MCS 0 carries 1 stream"):
            run_mimo_area_grid([0], FRAME, seed=1, imbalance_db=2.0)

    @pytest.mark.parametrize("imbalance_db", [0.0, -0.0])
    def test_zero_imbalance_names_the_contrast_row(self, imbalance_db):
        with pytest.raises(ValueError, match="imbalance_db .* already the contrast row"):
            run_mimo_area_grid([8], FRAME, seed=1, imbalance_db=imbalance_db)

    def test_area_classification(self):
        scene = presets.mimo_area_scene(0.5)
        tx_a, tx_b = scene.transmitters
        rx = {fe.id: fe for fe in scene.receivers}
        assert list(rx) == ["rx_a1", "rx_a2", "rx_b3", "rx_b2", "rx_b2_tilted"]
        # area 1 receives TX A only; area 3 receives TX B only
        assert los_gain(tx_a, rx["rx_a1"])[0] > 0.0 and los_gain(tx_b, rx["rx_a1"])[0] == 0.0
        assert los_gain(tx_b, rx["rx_b3"])[0] > 0.0 and los_gain(tx_a, rx["rx_b3"])[0] == 0.0
        # area 2 receives both
        for fe_id in ("rx_a2", "rx_b2", "rx_b2_tilted"):
            assert all(los_gain(tx, rx[fe_id])[0] > 0.0 for tx in scene.transmitters)
        # the tilt skews the two path gains by the imbalance
        g_a, g_b = (los_gain(tx, rx["rx_b2_tilted"])[0] for tx in (tx_a, tx_b))
        assert 10.0 * math.log10(g_b / g_a) == pytest.approx(0.5, abs=1e-9)
        # with no imbalance the tilted receiver is rx_b2, bit for bit
        scene = presets.mimo_area_scene(0.0)
        untilted, tilted = scene.receivers[3:]
        for tx in scene.transmitters:
            assert los_gain(tx, tilted) == los_gain(tx, untilted)

    @pytest.mark.parametrize("imbalance_db", [-1.0, -1e-9, -math.inf, math.nan])
    def test_negative_imbalance_rejected_with_reachable_range(self, imbalance_db):
        with pytest.raises(ValueError, match=r"\[0, 0\.59\] dB"):
            presets.area2_tilt_for_imbalance(imbalance_db)

    def test_unreachable_imbalance_rejected(self):
        with pytest.raises(ValueError, match="not reachable"):
            presets.area2_tilt_for_imbalance(2.0)


class TestCsiReport:
    def test_integers_within_6bit_range(self):
        report = run_csi_report(presets.siso_scene(), 6, 40)
        assert report.quantization_bits == 6
        for arr in (report.re, report.im):
            assert arr.min() >= -32 and arr.max() <= 31
        assert report.scale > 0.0
        # the strongest subcarrier is quantized near full scale
        peak = np.max(np.hypot(report.re, report.im))
        assert 30.0 <= peak <= 31.8

    def test_flat_channel_ripple_within_3db(self):
        report = run_csi_report(presets.siso_scene(), bits=6, bandwidth_mhz=40)
        assert float(np.max(report.magnitude_ripple_db())) <= 3.0

    def test_two_tx_superposition_is_selective(self):
        report = run_csi_report(presets.csi_miso_scene(), bits=6, bandwidth_mhz=40)
        assert float(np.max(report.magnitude_ripple_db())) >= 10.0

    def test_16_bits_make_ripple_vanish(self):
        report = run_csi_report(presets.siso_scene(), bits=16, bandwidth_mhz=40)
        assert float(np.max(report.magnitude_ripple_db())) <= 0.01

    def test_dequantized_matches_true_channel(self):
        scene = presets.siso_scene()
        freqs = subcarrier_frequencies(40)
        cm = channel_matrix(scene, 0, freqs)
        report = report_csi(cm, [1.0], bits=12)
        true = np.transpose(cm.entries, (1, 2, 0))
        got = report.dequantized()
        assert np.max(np.abs(got - true)) <= np.max(np.abs(true)) * 2e-3

    def test_dark_chain_has_no_ripple(self):
        # rx 1 sees nothing: its |H| is flat at 0, not 0/0.
        cm = ChannelMatrix.from_paths([[1e-5], [0.0]], [[1e-9], [1e-9]],
                                      subcarrier_frequencies(20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ripple = report_csi(cm, [1.0], 6).magnitude_ripple_db()
        assert ripple[1, 0] == 0.0 and 0.0 <= ripple[0, 0] < math.inf

    def test_all_zero_channel_raises(self):
        cm = ChannelMatrix.from_paths([[0.0]], [[1e-9]], subcarrier_frequencies(20))
        with pytest.raises(ValidationError, match="every path is blocked"):
            report_csi(cm, [1.0], 6)

    def test_fully_blocked_scene_raises(self):
        scene = presets.siso_scene()
        blocked = Scene(
            scene.transmitters, scene.receivers,
            obstacles=(Obstacle(blocked_pairs=frozenset({("tx_a", "rx_a")}),
                                active_frames=(0, 10)),),
            noise_floor_dbm=scene.noise_floor_dbm)
        with pytest.raises(ValidationError, match="every path is blocked"):
            run_csi_report(blocked, 6, 40)

    def test_bits_lower_bound(self):
        cm = ChannelMatrix.from_paths([[1.0]], [[0.0]], subcarrier_frequencies(20))
        with pytest.raises(ValueError):
            report_csi(cm, [1.0], bits=1)

    @pytest.mark.parametrize("bits", [1, 2000])
    def test_bits_outside_2_to_16_rejected(self, bits):
        with pytest.raises(ValueError, match="2 to 16 bits"):
            run_csi_report(presets.siso_scene(), bits, 40)

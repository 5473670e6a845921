"""Scripted experiments: timelines, sweeps, area grid, and CSI reporting."""

import math
import warnings

import numpy as np
import pytest

from vlcsim import presets
from vlcsim.channel import (ChannelMatrix, Obstacle, Scene, ValidationError, channel_matrix,
                            los_gain, subcarrier_frequencies)
from vlcsim.mimo import mrc_combine
from vlcsim.phy import FrameSpec, mcs
from vlcsim.scenarios import (report_csi, run_blockage_timeline, run_csi_report,
                              run_handover_sweep, run_mimo_area_grid,
                              run_mrc_fsr_point, run_siso_sweep)

GAIN_3DB = 10.0 * math.log10(2.0)
FRAME = FrameSpec()
MRC_POINT_SNRS_DB = presets.mrc_point_snrs_db(presets.MRC_POINT_TARGET_FSR, FRAME)


@pytest.fixture(scope="module")
def traces():
    return run_blockage_timeline(presets.simo_blockage_scene(), FRAME, seed=7, mcs_index=0,
                                 n_frames=350)


@pytest.fixture(scope="module")
def handover_rows():
    return run_handover_sweep(presets.handover_scene(), presets.handover_angles(61))


@pytest.fixture(scope="module")
def sweep_rows():
    return run_siso_sweep(presets.siso_scene(), [0, 7],
                          presets.siso_sweep_distances(64, 0.15, 12.5), FRAME, seed=3)


@pytest.fixture(scope="module")
def grid_rows():
    return run_mimo_area_grid(range(8, 13), FRAME, seed=1, imbalance_db=0.5)


class TestBlockageTimeline:
    def test_exactly_one_trace_per_frame(self, traces):
        assert [t.frame_index for t in traces] == list(range(350))

    def test_all_frames_succeed(self, traces):
        assert all(t.success for t in traces)

    def test_clear_interval_shows_3db_mrc_gain(self, traces):
        for t in traces[:100]:
            assert t.combined_rssi_dbm - t.per_chain_rssi_dbm[0] == pytest.approx(
                GAIN_3DB, abs=1e-6)
            assert t.per_chain_rssi_dbm[0] == pytest.approx(t.per_chain_rssi_dbm[1],
                                                            abs=1e-9)

    def test_block_b_window(self, traces):
        for t in traces[100:181]:
            assert t.per_chain_rssi_dbm[1] == float("-inf")
            assert t.combined_rssi_dbm == pytest.approx(t.per_chain_rssi_dbm[0], abs=0.1)

    def test_block_a_window(self, traces):
        for t in traces[200:281]:
            assert t.per_chain_rssi_dbm[0] == float("-inf")
            assert t.combined_rssi_dbm == pytest.approx(t.per_chain_rssi_dbm[1], abs=0.1)

    def test_gaps_between_blocks_are_clear(self, traces):
        for t in list(traces[181:200]) + list(traces[281:]):
            assert all(np.isfinite(t.per_chain_rssi_dbm))

    def test_mrc_trace_invariant(self, traces):
        for t in traces:
            assert t.combined_rssi_dbm >= max(t.per_chain_rssi_dbm) - 1e-12
            assert t.mcs_index == 0

    def test_deterministic(self):
        a = run_blockage_timeline(presets.simo_blockage_scene(), FRAME, 7, 0, 350)
        b = run_blockage_timeline(presets.simo_blockage_scene(), FRAME, 7, 0, 350)
        assert a == b


class TestMrcFsrPoint:
    def test_reference_point(self):
        point = run_mrc_fsr_point(MRC_POINT_SNRS_DB, FRAME, seed=11)
        assert point.analytic_a == pytest.approx(0.626, abs=1e-9)
        assert point.analytic_b == pytest.approx(0.365, abs=1e-9)
        assert abs(point.fsr_a - 0.626) <= 0.05
        assert abs(point.fsr_b - 0.365) <= 0.05
        assert point.fsr_mrc >= 0.9

    def test_saturated_branches_stay_saturated(self):
        e = mcs(0)
        point = run_mrc_fsr_point([e.snr_threshold_db + 40.0] * 2, FRAME, seed=2)
        assert point.fsr_a == point.fsr_b == point.fsr_mrc == 1.0

    def test_mrc_beats_independent_selection(self):
        point = run_mrc_fsr_point(MRC_POINT_SNRS_DB, FRAME, seed=11)
        bound = 1.0 - (1.0 - point.fsr_a) * (1.0 - point.fsr_b) - 0.02
        assert point.fsr_mrc >= bound

    def test_nan_probability_is_not_realized_as_zero(self):
        with pytest.raises(ValueError, match="NaN"):
            run_mrc_fsr_point([math.nan, 10.0], FRAME, seed=1)

    def test_reports_the_combined_snr(self):
        point = run_mrc_fsr_point([3.0, 6.0], FRAME, seed=1)
        assert point.mrc_snr_db == mrc_combine([10.0 ** 0.3, 10.0 ** 0.6])[1]
        assert point.mrc_snr_db == pytest.approx(10 * math.log10(10 ** 0.3 + 10 ** 0.6))


class TestHandoverSweep:
    def test_combined_power_stays_flat(self, handover_rows):
        mrc = [r.rssi_mrc_dbm for r in handover_rows]
        assert max(mrc) - min(mrc) <= 3.0

    def test_each_path_swings_hard(self, handover_rows):
        for path in ("rssi_a_dbm", "rssi_b_dbm"):
            values = [getattr(r, path) for r in handover_rows]
            assert max(values) - min(values) >= 10.0

    def test_extreme_angle_pushes_far_path_to_the_floor(self, handover_rows):
        scene = presets.handover_scene()
        assert handover_rows[0].rssi_b_dbm <= scene.noise_floor_dbm + 2.0

    def test_mid_sweep_mrc_dominates_both(self, handover_rows):
        mid = handover_rows[len(handover_rows) // 2]
        assert mid.rssi_mrc_dbm > max(mid.rssi_a_dbm, mid.rssi_b_dbm)

    def test_needs_two_receivers(self):
        with pytest.raises(ValueError):
            run_handover_sweep(presets.siso_scene(), [0.0])


class TestSisoSweep:
    def test_rows_sorted_by_rssi(self, sweep_rows):
        rssi = [r.rssi_dbm for r in sweep_rows]
        assert rssi == sorted(rssi)

    def test_mcs0_reliable_above_minus_55(self, sweep_rows):
        strong = [r for r in sweep_rows if r.mcs_index == 0 and r.rssi_dbm >= -55.0]
        assert strong and all(r.fsr_realized >= 0.99 for r in strong)

    def test_mcs7_needs_about_30db_more(self, sweep_rows):
        c0 = min(r.rssi_dbm for r in sweep_rows
                 if r.mcs_index == 0 and r.fsr_realized >= 0.99)
        c7 = min(r.rssi_dbm for r in sweep_rows
                 if r.mcs_index == 7 and r.fsr_realized >= 0.99)
        assert c7 - c0 == pytest.approx(30.0, abs=3.0)

    def test_fsr_negligible_at_noise_floor(self, sweep_rows):
        weak = [r for r in sweep_rows if r.snr_db <= 0.0]
        assert weak and all(r.fsr_analytic <= 0.01 for r in weak)

    def test_needs_1x1(self):
        with pytest.raises(ValueError):
            run_siso_sweep(presets.simo_blockage_scene(), [0], [1.0], FRAME, seed=0)


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
        report = run_csi_report(presets.csi_siso_scene(), 6, 40)
        assert report.quantization_bits == 6
        for arr in (report.re, report.im):
            assert arr.min() >= -32 and arr.max() <= 31
        assert report.scale > 0.0
        # the strongest subcarrier is quantized near full scale
        peak = np.max(np.hypot(report.re, report.im))
        assert 30.0 <= peak <= 31.8

    def test_flat_channel_ripple_within_3db(self):
        report = run_csi_report(presets.csi_siso_scene(), bits=6, bandwidth_mhz=40)
        assert float(np.max(report.magnitude_ripple_db())) <= 3.0

    def test_two_tx_superposition_is_selective(self):
        report = run_csi_report(presets.csi_miso_scene(), bits=6, bandwidth_mhz=40)
        assert float(np.max(report.magnitude_ripple_db())) >= 10.0

    def test_16_bits_make_ripple_vanish(self):
        report = run_csi_report(presets.csi_siso_scene(), bits=16, bandwidth_mhz=40)
        assert float(np.max(report.magnitude_ripple_db())) <= 0.01

    def test_dequantized_matches_true_channel(self):
        scene = presets.csi_siso_scene()
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

    def test_all_zero_channel_gives_empty_report(self):
        cm = ChannelMatrix.from_paths([[0.0]], [[1e-9]], subcarrier_frequencies(20))
        report = report_csi(cm, [1.0], 6)
        assert report.is_empty and report.scale == 0.0

    def test_fully_blocked_scene_raises(self):
        scene = presets.csi_siso_scene()
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
            run_csi_report(presets.csi_siso_scene(), bits, 40)

"""Acceptance gate: one timed check per headline criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import _property_suites as suites
from vlcsim import presets
from vlcsim.channel import ChannelMatrix, subcarrier_frequencies
from vlcsim.mimo import mrc_combine
from vlcsim.oracle import empirical_fsr, oracle_snr_for, simulate_frame
from vlcsim.phy import FSR_SLOPE_DB, FrameSpec, fsr, mcs, mcs_table, phy_rate
from vlcsim.scenarios import (run_blockage_timeline, run_csi_report,
                              run_handover_sweep, run_mimo_area_grid,
                              run_mrc_fsr_point, run_siso_sweep)

FRAME = FrameSpec(payload_bytes=1000, count=1000)
GAIN_3DB = 10.0 * math.log10(2.0)


@contextlib.contextmanager
def criterion(num: int, limit_s: float, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:02d} PASS [{elapsed:.2f}s < {limit_s:g}s]: {description}")
    assert elapsed < limit_s, f"criterion {num} overran its {limit_s}s budget"


def test_criterion_01_mrc_gain():
    with criterion(1, 1.0, "two equal branches combine to +3.01 dB +- 0.01"):
        for snr in (0.5, 1.0, 7.3, 250.0):
            _, single_db = mrc_combine([snr])
            _, combined_db = mrc_combine([snr, snr])
            assert combined_db - single_db == pytest.approx(GAIN_3DB, abs=0.01)


def test_criterion_02_blockage_resilience():
    with criterion(2, 1.0, "350-frame blockage timeline: no frame lost, "
                           "combined RSSI tracks the surviving path"):
        traces = run_blockage_timeline(presets.simo_blockage_scene(), FRAME, seed=7,
                                       mcs_index=0, n_frames=350)
        assert len(traces) == 350
        assert all(t.success for t in traces)
        for t in traces[100:181]:  # path to RX B covered
            assert t.combined_rssi_dbm == pytest.approx(t.per_chain_rssi_dbm[0], abs=0.1)
        for t in traces[200:281]:  # path to RX A covered
            assert t.combined_rssi_dbm == pytest.approx(t.per_chain_rssi_dbm[1], abs=0.1)


def test_criterion_03_mrc_fsr_point():
    with criterion(3, 5.0, "weak-branch pair (0.626 / 0.365) recovers to "
                           "MRC FSR >= 0.90"):
        point = run_mrc_fsr_point(
            presets.mrc_point_snrs_db(presets.MRC_POINT_TARGET_FSR, FrameSpec()),
            FRAME, seed=11)
        assert abs(point.fsr_a - 0.626) <= 0.05
        assert abs(point.fsr_b - 0.365) <= 0.05
        assert point.fsr_mrc >= 0.90


def test_criterion_04_siso_ladder_anchors():
    with criterion(4, 10.0, "MCS0 error-free from -55 dBm; MCS7 needs "
                            "30 +- 3 dB more"):
        rows = run_siso_sweep(presets.siso_scene(), [0, 7],
                              presets.siso_sweep_distances(64, 0.15, 12.5), FRAME, seed=3)
        anchor = [r for r in rows if r.mcs_index == 0 and r.rssi_dbm >= -55.0]
        assert anchor and all(r.fsr_realized >= 0.99 for r in anchor)
        c7 = min(r.rssi_dbm for r in rows
                 if r.mcs_index == 7 and r.fsr_realized >= 0.99)
        assert c7 - (-55.0) == pytest.approx(30.0, abs=3.0)


def test_criterion_05_mimo_area_grid():
    with criterion(5, 10.0, "area grid: independent/mixed placements decode, "
                            "doubly-degenerate fails except BPSK with 0.5 dB skew"):
        rows = run_mimo_area_grid(range(8, 13), FRAME, seed=1, imbalance_db=0.5)
        for r in rows:
            if r.placement in ("1,3", "2,3", "1,2"):
                assert r.fsr_realized >= 0.99
        skewed = {r.mcs_index: r for r in rows if r.placement == "2,2" and r.imbalance_db}
        assert skewed[8].fsr_realized > 0.8
        proportional = [r for r in rows if r.placement == "2,2" and not r.imbalance_db]
        for r in proportional:
            assert r.fsr_realized <= 0.05


def test_criterion_06_csi_shape():
    with criterion(6, 1.0, "6-bit CSI: flat channel ripple <= 3 dB, two-TX "
                           "superposition ripple >= 10 dB"):
        flat = run_csi_report(presets.csi_siso_scene(), bits=6, bandwidth_mhz=40)
        assert float(np.max(flat.magnitude_ripple_db())) <= 3.0
        selective = run_csi_report(presets.csi_miso_scene(), bits=6, bandwidth_mhz=40)
        assert float(np.max(selective.magnitude_ripple_db())) >= 10.0


def test_criterion_07_handover_flatness():
    with criterion(7, 1.0, "MRC RSSI stays within 3 dB while each path "
                           "swings >= 10 dB"):
        rows = run_handover_sweep(presets.handover_scene(), presets.handover_angles(61))
        mrc = [r.rssi_mrc_dbm for r in rows]
        assert max(mrc) - min(mrc) <= 3.0
        for path in ("rssi_a_dbm", "rssi_b_dbm"):
            vals = [getattr(r, path) for r in rows]
            assert max(vals) - min(vals) >= 10.0


def test_criterion_08_rate_table():
    with criterion(8, 1.0, "MCS15 @ 40 MHz is exactly 300 Mbit/s; two-stream "
                           "rates double their one-stream twins"):
        assert phy_rate(mcs(15), 40) == 300.0
        for k in range(8):
            assert phy_rate(mcs(k + 8), 20) == 2.0 * phy_rate(mcs(k), 20)
            assert phy_rate(mcs(k + 8), 40) == 2.0 * phy_rate(mcs(k), 40)


def test_criterion_09_oracle_equivalence():
    with criterion(9, 60.0, "analytic FSR vs 1000-frame waveform oracle within "
                            "0.1 at 5 points per MCS; exact ZF; rank-1 never decodes"):
        for m in (0, 1, 8, 9):
            entry = mcs(m)
            cm = ChannelMatrix.from_paths(np.eye(entry.n_streams),
                                          np.zeros((entry.n_streams,) * 2),
                                          subcarrier_frequencies(20))
            for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
                snr = entry.snr_threshold_db + x * FSR_SLOPE_DB
                analytic = fsr(entry, [snr] * entry.n_streams, FRAME)
                empirical = empirical_fsr(cm, entry, FRAME,
                                          oracle_snr_for(entry, snr, FRAME),
                                          n_frames=1000, seed=42)
                assert abs(analytic - empirical) <= 0.1, (m, x, analytic, empirical)
        # noiseless full-rank 2x2 decodes exactly
        full = ChannelMatrix.from_paths(np.array([[1.0, 0.09], [0.04, 1.0]]),
                                        np.zeros((2, 2)), subcarrier_frequencies(20))
        assert simulate_frame(full, mcs(8), FRAME, 200.0, seed=1) == (0, True)
        # rank-1 two-stream decode fails for every tested seed
        rank1 = ChannelMatrix.from_paths(np.array([[1.0, 1.0], [0.81, 0.81]]),
                                         np.zeros((2, 2)), subcarrier_frequencies(20))
        for seed in range(25):
            assert not simulate_frame(rank1, mcs(9), FRAME, 60.0, seed=seed)[1]


def test_criterion_10_property_suites():
    with criterion(10, 30.0, "randomized invariants, >= 1000 cases each"):
        suites.mrc_properties(1000)
        suites.fsr_monotonicity(1000)
        suites.gain_distance_monotonicity(1000)
        suites.phase_delay_consistency(1000)
        suites.bit_reproducibility(1000)
        suites.zf_orthogonal_exactness(1000)
        suites.row_alignment_monotonicity(1000)
        suites.blockage_continuity(1000)
        suites.scenario_reproducibility()

"""Waveform oracle: modulation correctness, AWGN statistics, ZF/MRC behavior."""

import math

import numpy as np
import pytest

from vlcsim.channel import ChannelMatrix, subcarrier_frequencies
from vlcsim.oracle import (_MOD_NORM, _demod_axis, demodulate, empirical_fsr, modulate,
                           oracle_snr_for, oracle_waterfall, q_function, simulate_frame,
                           uncoded_bit_error_rate, uncoded_frame_success)
from vlcsim.phy import MODULATION_BITS, FrameSpec, fsr, mcs

MODULATIONS = ("BPSK", "QPSK", "16QAM", "64QAM")
ONE_FRAME = FrameSpec(payload_bytes=1000, count=1)


def flat_cm(n, bandwidth_mhz=20):
    return ChannelMatrix.from_paths(np.eye(n), np.zeros((n, n)),
                                    subcarrier_frequencies(bandwidth_mhz))


class TestModulation:
    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_roundtrip(self, modulation):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=1200)
        np.testing.assert_array_equal(demodulate(modulate(bits, modulation), modulation), bits)

    @pytest.mark.parametrize("modulation,bps", [("BPSK", 1), ("QPSK", 2),
                                                ("16QAM", 4), ("64QAM", 6)])
    def test_unit_average_energy(self, modulation, bps):
        # enumerate the full constellation: mean symbol energy is exactly 1
        n = 2 ** bps
        patterns = np.array([[(v >> (bps - 1 - b)) & 1 for b in range(bps)]
                             for v in range(n)]).reshape(-1)
        symbols = modulate(patterns, modulation)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_gray_neighbors_differ_by_one_bit(self):
        # nearest horizontal neighbors of 16QAM decode to 1-bit-different labels
        bits = np.array(np.meshgrid([0, 1], [0, 1], [0, 1], [0, 1])).T.reshape(-1, 4)
        symbols = modulate(bits.reshape(-1), "16QAM").reshape(-1)
        order = np.argsort(symbols.real + 0.001 * symbols.imag)
        by_axis = {}
        for idx in order:
            by_axis.setdefault(round(symbols[idx].imag, 6), []).append(idx)
        for _, row in by_axis.items():
            for a, b in zip(row, row[1:]):
                assert np.sum(bits[a] != bits[b]) == 1

    @pytest.mark.parametrize("modulation", ["QPSK", "16QAM", "64QAM"])
    def test_one_pass_demodulation_equals_per_axis_passes(self, modulation):
        # The per-axis form the oracle used before it demodulated the
        # interleaved I/Q values in one pass.
        def per_axis(symbols):
            axis_bits = MODULATION_BITS[modulation] // 2
            scaled = np.asarray(symbols).reshape(-1) * _MOD_NORM[modulation]
            i_bits = _demod_axis(scaled.real, axis_bits).reshape(-1, axis_bits)
            q_bits = _demod_axis(scaled.imag, axis_bits).reshape(-1, axis_bits)
            return np.concatenate([i_bits, q_bits], axis=1).reshape(-1)

        rng = np.random.default_rng(17)
        n = 1 << (MODULATION_BITS[modulation] // 2)
        # Decision boundaries sit at even levels between the odd constellation levels.
        levels = np.arange(-n - 1, n + 2) / _MOD_NORM[modulation]
        on_boundary = levels[:, None] + 1j * levels[None, :]
        noisy = (rng.normal(scale=1.5, size=5000) + 1j * rng.normal(scale=1.5, size=5000))
        grid = noisy.reshape(50, 100).T  # a strided view
        for symbols in (on_boundary, noisy, grid, noisy[:0]):
            np.testing.assert_array_equal(demodulate(symbols, modulation), per_axis(symbols))

    def test_bit_count_must_divide(self):
        with pytest.raises(ValueError):
            modulate(np.zeros(3, dtype=int), "QPSK")


class TestSimulateFrame:
    def test_deterministic(self):
        cm = flat_cm(2)
        a = simulate_frame(cm, mcs(9), ONE_FRAME, 10.0, seed=77)
        b = simulate_frame(cm, mcs(9), ONE_FRAME, 10.0, seed=77)
        assert a == b
        assert a[0] > 0  # inside the waterfall: errors actually occur
        c = simulate_frame(cm, mcs(9), ONE_FRAME, 10.0, seed=78)
        assert a != c  # at this SNR the noise realization shows

    def test_noiseless_full_rank_2x2_is_exact(self):
        gains = np.array([[1.0, 0.09], [0.04, 1.0]])
        cm = ChannelMatrix.from_paths(gains, np.zeros((2, 2)), subcarrier_frequencies(20))
        for m in (8, 12, 15):
            errors, ok = simulate_frame(cm, mcs(m), ONE_FRAME, 200.0, seed=3)
            assert errors == 0 and ok

    def test_noiseless_zf_residual_tiny(self):
        # explicit check of the inversion quality behind the zero-error claim
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = modulate(rng.integers(0, 2, 400), "QPSK").reshape(2, -1)
        y = h @ x
        x_hat = np.linalg.pinv(h) @ y
        assert np.max(np.abs(x_hat - x)) / np.max(np.abs(x)) < 1e-9

    def test_rank_one_two_streams_always_fails(self):
        gains = np.array([[1.0, 1.0], [0.81, 0.81]])
        cm = ChannelMatrix.from_paths(gains, np.zeros((2, 2)), subcarrier_frequencies(20))
        for m in (9, 12):
            for seed in range(25 if m == 9 else 5):
                _, ok = simulate_frame(cm, mcs(m), ONE_FRAME, 60.0, seed=seed)
                assert not ok

    def test_bpsk_awgn_matches_q_function(self):
        # identity channel, 10 dB, 1e5 bits: BER within 3 standard errors of
        # Q(sqrt(2 * SNR)) ~= 3.87e-6
        frame = FrameSpec(payload_bytes=12500, count=1)
        errors, _ = simulate_frame(flat_cm(1), mcs(0), frame, 10.0, seed=123)
        n = 12500 * 8
        p = float(q_function(math.sqrt(2.0 * 10.0)))
        stderr = math.sqrt(p * (1 - p) / n)
        assert abs(errors / n - p) <= 3.0 * stderr

    def test_underdetermined(self):
        cm = ChannelMatrix.from_paths([[1.0, 1.0]], [[0.0, 0.0]],
                                      subcarrier_frequencies(20))
        with pytest.raises(ValueError, match=r"exceeds min\(n_tx, n_rx\)"):
            simulate_frame(cm, mcs(8), ONE_FRAME, 10.0, seed=0)

    def test_energy_conservation(self):
        # mean received power per subcarrier equals the incoherent gain sum
        rng = np.random.default_rng(11)
        gains = np.array([[0.8, 0.3], [0.1, 1.2]])
        cm = ChannelMatrix.from_paths(gains, 1e-9 * rng.random((2, 2)),
                                      subcarrier_frequencies(20))
        bits = rng.integers(0, 2, size=2 * 2 * 52 * 4000)  # 2 bits per QPSK symbol
        x = modulate(bits, "QPSK").reshape(4000, 2, 52).transpose(1, 2, 0)
        y = np.einsum("kis,skt->ikt", cm.entries, x)
        measured = np.mean(np.abs(y) ** 2, axis=2)  # (n_rx, K)
        expected = gains @ np.ones(2)
        for i in range(2):
            assert np.mean(measured[i]) == pytest.approx(expected[i], rel=0.01)


class TestEmpiricalFsr:
    def test_saturation_high(self):
        e = mcs(0)
        frame = FrameSpec(payload_bytes=1000, count=200)
        snr = oracle_snr_for(e, e.snr_threshold_db + 30.0, frame)
        assert empirical_fsr(flat_cm(1), e, frame, snr, seed=5) == 1.0

    def test_saturation_low(self):
        e = mcs(0)
        frame = FrameSpec(payload_bytes=1000, count=100)
        snr = oracle_snr_for(e, e.snr_threshold_db - 20.0, frame)
        assert empirical_fsr(flat_cm(1), e, frame, snr, seed=5) == 0.0

    def test_midpoint_near_half(self):
        # where the analytic model says 0.5, the calibrated oracle lands in
        # [0.40, 0.60] over 1000 frames
        e = mcs(0)
        frame = FrameSpec(payload_bytes=1000, count=1000)
        snr = oracle_snr_for(e, e.snr_threshold_db, frame)
        value = empirical_fsr(flat_cm(1), e, frame, snr, seed=21)
        assert 0.40 <= value <= 0.60


class TestCalibration:
    def test_closed_form_ber_anchors(self):
        # textbook values: BPSK at 9.6 dB ~ 1e-5, QPSK needs 3 dB more
        assert uncoded_bit_error_rate("BPSK", 9.588) == pytest.approx(1e-5, rel=0.05)
        bpsk = uncoded_bit_error_rate("BPSK", 8.0)
        qpsk = uncoded_bit_error_rate("QPSK", 8.0 + 10 * math.log10(2.0))
        assert qpsk == pytest.approx(bpsk, rel=1e-9)

    def test_bpsk_waterfall_fit(self):
        # hand-solved quantiles for 8000 uncoded bits:
        # FSR = sigmoid(-1) at 8.096 dB and sigmoid(+1) at 8.921 dB
        mid, slope = oracle_waterfall("BPSK", 8000)
        assert mid == pytest.approx(8.5085, abs=0.005)
        assert slope == pytest.approx(0.4123, abs=0.005)

    def test_fit_reproduces_quantiles(self):
        from scipy.special import expit
        mid, slope = oracle_waterfall("QPSK", 8000)
        assert float(uncoded_frame_success("QPSK", mid - slope, 8000)) == pytest.approx(
            float(expit(-1.0)), abs=1e-6)
        assert float(uncoded_frame_success("QPSK", mid + slope, 8000)) == pytest.approx(
            float(expit(1.0)), abs=1e-6)

    def test_mapping_is_affine_in_analytic_snr(self):
        e = mcs(1)
        frame = ONE_FRAME
        t = e.snr_threshold_db
        lo = oracle_snr_for(e, t - 1.0, frame)
        mid = oracle_snr_for(e, t, frame)
        hi = oracle_snr_for(e, t + 1.0, frame)
        assert hi - mid == pytest.approx(mid - lo, abs=1e-9)

    @pytest.mark.parametrize("m", [0, 1])
    def test_analytic_vs_empirical_within_tenth(self, m):
        # quick 300-frame version of the full acceptance comparison
        e = mcs(m)
        frame = FrameSpec(payload_bytes=1000, count=300)
        cm = flat_cm(e.n_streams)
        from vlcsim.phy import FSR_SLOPE_DB
        for x in (-2.0, 0.0, 2.0):
            snr = e.snr_threshold_db + x * FSR_SLOPE_DB
            analytic = fsr(e, snr, frame.payload_bytes)
            emp = empirical_fsr(cm, e, frame, oracle_snr_for(e, snr, frame), seed=13)
            assert abs(analytic - emp) <= 0.1

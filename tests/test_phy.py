"""MCS ladder contents, rate lookups, and the analytic FSR waterfall."""

import math
from itertools import product

import pytest

from vlcsim.channel import ChannelMatrix, subcarrier_frequencies
from vlcsim.cli import main
from vlcsim.mimo import zf_decode_links
from vlcsim.oracle import simulate_frame
from vlcsim.phy import (FSR_SLOPE_DB, MCS_TABLE, FrameSpec, check_streams,
                        collapse_subcarrier_snr_db, fsr, mcs, phy_rate, snr_for_fsr)

# Independent rate oracle: data subcarriers x bits/symbol x code rate x
# streams / symbol time. 20 MHz uses the 4 us (800 ns GI) symbol, 40 MHz the
# 3.6 us (400 ns GI) symbol that yields the familiar 300 Mbit/s top rate.
_N_DATA = {20: 52, 40: 108}
_T_SYMBOL = {20: 4.0e-6, 40: 3.6e-6}
_BITS = {"BPSK": 1, "QPSK": 2, "16QAM": 4, "64QAM": 6}


def rate_oracle(entry, bw):
    return (_N_DATA[bw] * _BITS[entry.modulation] * float(entry.code_rate)
            * entry.n_streams / _T_SYMBOL[bw] / 1e6)


class TestMcsTable:
    def test_sixteen_entries_in_index_order(self):
        assert type(MCS_TABLE) is tuple and len(MCS_TABLE) == 16
        assert [e.index for e in MCS_TABLE] == list(range(16))

    def test_stream_split(self):
        for e in MCS_TABLE:
            assert e.n_streams == (1 if e.index <= 7 else 2)

    def test_entry0_and_entry8_are_bpsk_half(self):
        for idx in (0, 8):
            e = mcs(idx)
            assert e.modulation == "BPSK" and float(e.code_rate) == 0.5

    def test_thresholds_strictly_increase_within_group(self):
        for group in (MCS_TABLE[:8], MCS_TABLE[8:]):
            ths = [e.snr_threshold_db for e in group]
            assert all(a < b for a, b in zip(ths, ths[1:]))

    def test_mcs7_minus_mcs0_is_30db(self):
        assert mcs(7).snr_threshold_db - mcs(0).snr_threshold_db == pytest.approx(30.0)

    def test_rates_match_standard_formula(self):
        for e in MCS_TABLE:
            assert phy_rate(e, 20) == pytest.approx(rate_oracle(e, 20), rel=1e-12)
            assert phy_rate(e, 40) == pytest.approx(rate_oracle(e, 40), rel=1e-12)

    def test_rate_anchors(self):
        assert phy_rate(mcs(0), 20) == 6.5
        assert phy_rate(mcs(15), 40) == 300.0
        assert phy_rate(mcs(8), 20) == 2 * phy_rate(mcs(0), 20)

    def test_40mhz_always_beats_20mhz(self):
        for e in MCS_TABLE:
            assert phy_rate(e, 40) > phy_rate(e, 20)

    def test_two_stream_rate_doubles(self):
        for k in range(8):
            assert phy_rate(mcs(k + 8), 20) == 2 * phy_rate(mcs(k), 20)
            assert phy_rate(mcs(k + 8), 40) == 2 * phy_rate(mcs(k), 40)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            phy_rate(mcs(0), 80)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            mcs(16)


class TestFsr:
    def test_saturates_high(self):
        for e in MCS_TABLE:
            assert fsr(e, e.snr_threshold_db + 60.0, 1000) >= 0.9999

    def test_half_at_threshold(self):
        e = mcs(0)
        assert fsr(e, e.snr_threshold_db, 1000) == pytest.approx(0.5, abs=1e-12)

    def test_mcs0_reliable_at_5db(self):
        # calibrated SISO operating point: RSSI -55 dBm over a -60 dBm floor
        assert fsr(mcs(0), 5.0, 1000) >= 0.999

    def test_all_mcs_fail_at_noise_floor(self):
        # 0 dB SNR sits below every waterfall
        for e in MCS_TABLE:
            assert fsr(e, 0.0, 1000) <= 0.01

    def test_no_signal_sentinel_gives_zero(self):
        assert fsr(mcs(0), float("-inf"), 1000) == 0.0

    def test_doubling_payload_never_increases_fsr(self):
        e = mcs(3)
        for snr in (-5.0, e.snr_threshold_db, e.snr_threshold_db + 2.0, 40.0):
            short = fsr(e, snr, 500)
            long = fsr(e, snr, 1000)
            assert long <= short + 1e-15

    def test_length_scaling(self):
        e = mcs(0)
        snr = e.snr_threshold_db + 1.0
        ref = fsr(e, snr, 1000)
        scaled = fsr(e, snr, 2000)
        assert scaled == pytest.approx(ref ** 2.0, rel=1e-12)

    def test_snr_for_fsr_roundtrip(self):
        e = mcs(4)
        for target in (0.05, 0.365, 0.5, 0.626, 0.99):
            snr = snr_for_fsr(e, target, 1000)
            assert fsr(e, snr, 1000) == pytest.approx(target, abs=1e-9)

    def test_exp_overflow_gives_zero(self):
        # exp(-x) overflows a double below x = -709.78
        assert fsr(mcs(0), -1000.0, 1000) == 0.0

    def test_snr_for_fsr_underflowing_base_is_minus_infinity(self):
        # 1e-300 ** 1000 underflows to 0, whose logit is -inf
        assert snr_for_fsr(mcs(0), 1e-300, 1) == -math.inf

    def test_snr_for_fsr_bounds(self):
        with pytest.raises(ValueError):
            snr_for_fsr(mcs(0), 1.0, 1000)


class TestFrameSpec:
    def test_payload_positive(self):
        with pytest.raises(ValueError):
            FrameSpec(payload_bytes=0, count=1000)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            FrameSpec(payload_bytes=1000, count=0)


def test_collapse_rule_is_mean_in_db():
    assert collapse_subcarrier_snr_db([10.0, 20.0]) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        collapse_subcarrier_snr_db([])


def test_slope_spans_the_anchor_window():
    # the 0.001..0.999 transition must fit between 0 dB (fail) and 5 dB (pass)
    assert FSR_SLOPE_DB * (math.log(999.0) + math.log(99.0)) <= 5.0



def test_check_streams_refuses_exactly_past_min_of_tx_and_rx(tmp_path, capsys):
    def refusal(n_streams, n_tx, n_rx, what):
        try:
            check_streams(n_streams, n_tx, n_rx, what)
        except ValueError as exc:
            return str(exc)
        return None

    for n_streams, n_tx, n_rx in product(range(4), repeat=3):
        want = (f"MCS 8: n_streams={n_streams} exceeds min(n_tx, n_rx)={min(n_tx, n_rx)}"
                if n_streams > min(n_tx, n_rx) else None)
        assert refusal(n_streams, n_tx, n_rx, "MCS 8") == want
    # Every caller refuses through it: the CLI's siso sweep, ZF and the oracle,
    # on a 1x2 channel (one receive chain, two LEDs) and its 2x1 transpose.
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "siso-sweep", "--set", "mcs=8", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        f"vlcsim: error: {refusal(2, 1, 1, 'MCS 8')}"
    freqs = subcarrier_frequencies(20)
    one_rx = ChannelMatrix.from_paths([[1.0, 1.0]], [[0.0, 0.0]], freqs)
    one_tx = ChannelMatrix.from_paths([[1.0], [1.0]], [[0.0], [0.0]], freqs)
    with pytest.raises(ValueError) as exc:
        zf_decode_links([one_rx], 1.0, 1e-6)
    assert str(exc.value) == refusal(2, 2, 1, "zero-forcing")
    for cm in (one_rx, one_tx):
        with pytest.raises(ValueError) as exc:
            simulate_frame(cm, mcs(8), FrameSpec(1000, 1), 10.0, seed=0)
        assert str(exc.value) == refusal(2, cm.n_tx, cm.n_rx, "MCS 8")

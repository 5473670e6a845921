"""MRC, zero-forcing post-SNR, and diversity gain."""

import math

import numpy as np
import pytest

from vlcsim.channel import ChannelMatrix
from vlcsim.mimo import mrc_combine, zf_decode_links
from vlcsim.phy import fsr, mcs, snr_for_fsr

GAIN_3DB = 10.0 * math.log10(2.0)


def flat_link(path_gains, freqs=(2.4e9,)):
    """The entries of one zero-delay link as a stack of one, the input `zf_decode_links` takes."""
    gains = np.asarray(path_gains, dtype=float)
    return ChannelMatrix.from_paths(gains, np.zeros_like(gains), np.asarray(freqs)).entries[None]


class TestMrcCombine:
    def test_two_equal_branches_gain_3db(self):
        lin, db = mrc_combine([4.0, 4.0])
        assert lin == 8.0
        assert db - 10.0 * math.log10(4.0) == pytest.approx(GAIN_3DB, abs=1e-12)

    def test_dead_branch_adds_nothing(self):
        lin, db = mrc_combine([4.0, 0.0])
        assert lin == 4.0
        assert db == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)

    def test_combined_at_least_best_branch(self):
        lin, _ = mrc_combine([1.0, 2.5, 0.3])
        assert lin >= 2.5

    def test_weak_branch_pair_recovers_the_frame(self):
        # branches tuned so the single-path FSRs are 0.626 and 0.365
        entry = mcs(0)
        snr_a = snr_for_fsr(entry, 0.626, 1000)
        snr_b = snr_for_fsr(entry, 0.365, 1000)
        _, combined_db = mrc_combine([10 ** (snr_a / 10), 10 ** (snr_b / 10)])
        assert fsr(entry, combined_db, 1000) >= 0.9

    def test_empty_is_contract_error(self):
        with pytest.raises(ValueError):
            mrc_combine([])

    def test_negative_is_contract_error(self):
        with pytest.raises(ValueError):
            mrc_combine([1.0, -0.1])


class TestZfDecode:
    def test_diagonal_channel_decouples(self):
        g = 1e-5
        post = zf_decode_links(flat_link([[g, 0.0], [0.0, g]]), 1.0, 1e-6)[0]
        siso_db = 10.0 * math.log10(g * 1.0 / 1e-6)
        assert post.solvable
        for s in post.per_stream_snr_db:
            assert s == pytest.approx(siso_db, abs=1e-9)

    def test_proportional_rows_unsolvable(self):
        post = zf_decode_links(flat_link([[1e-5, 1e-5], [2e-5, 2e-5]]), 1.0, 1e-6)[0]
        assert not post.solvable
        assert post.per_stream_snr_db == (float("-inf"),) * 2
        # a two-stream MCS sees zero frame success
        assert fsr(mcs(9), min(post.per_stream_snr_db), 1000) == 0.0

    def test_mixed_rows_solvable(self):
        # one row hears both TX, the other only one: full rank, near-SISO SNRs
        post = zf_decode_links(flat_link([[1e-5, 1.1e-5], [0.0, 1e-5]]), 1.0, 1e-9)[0]
        assert post.solvable
        for m in range(8, 13):
            assert fsr(mcs(m), min(post.per_stream_snr_db), 1000) >= 0.99

    def test_underdetermined(self):
        with pytest.raises(ValueError, match=r"exceeds min\(n_tx, n_rx\)"):
            zf_decode_links(flat_link([[1e-5, 1e-5]]), 1.0, 1e-6)

    def test_hand_computed_2x2(self):
        # independent oracle: explicit adjugate inverse of the Gram matrix
        a, b, c, d = 1.0, 0.3, 0.2, 1.0
        det2 = (a * d - b * c) ** 2
        expect_1 = det2 / (b * b + d * d)  # p = n = 1
        expect_2 = det2 / (a * a + c * c)
        post = zf_decode_links(flat_link([[a * a, b * b], [c * c, d * d]]), 1.0, 1.0)[0]
        assert post.per_stream_snr_db[0] == pytest.approx(10 * math.log10(expect_1), abs=1e-9)
        assert post.per_stream_snr_db[1] == pytest.approx(10 * math.log10(expect_2), abs=1e-9)

    def test_per_chain_noise_weighting(self):
        # ZF output noise per stream is sum_i |W_si|^2 n_i; check against an
        # explicitly computed 2x2 filter with unequal chain noise
        amp = np.array([[1.0, 0.4], [0.2, 0.9]])
        noise = np.array([1e-6, 4e-6])
        h = amp
        gram = h.T @ h
        w = np.linalg.inv(gram) @ h.T
        expected = 1.0 / ((np.abs(w) ** 2) @ noise)
        post = zf_decode_links(flat_link(amp ** 2), 1.0, noise)[0]
        for got, exp in zip(post.per_stream_snr_db, expected):
            assert got == pytest.approx(10 * math.log10(exp), abs=1e-9)

    def test_majority_vote_over_subcarriers(self):
        # amplitudes all equal; the second row's phase aligns with the first
        # only where f * tau is an integer, making those subcarriers singular
        gains = np.ones((2, 2))
        delays = np.array([[0.0, 0.0], [0.0, 1.0]])
        minority = ChannelMatrix.from_paths(gains, delays, [1.0, 1.4, 1.6])
        assert zf_decode_links(minority.entries[None], 1.0, 1e-3)[0].solvable
        majority = ChannelMatrix.from_paths(gains, delays, [1.0, 1.5, 2.0])
        assert not zf_decode_links(majority.entries[None], 1.0, 1e-3)[0].solvable

    def test_condition_number_reported(self):
        post = zf_decode_links(flat_link([[1e-5, 0.0], [0.0, 1e-5]]), 1.0, 1e-6)[0]
        assert post.condition_number == pytest.approx(1.0, rel=1e-9)


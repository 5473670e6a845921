"""Optical channel geometry, gains, blockage, and channel-matrix structure."""

import math

import numpy as np
import pytest

from vlcsim.channel import (MAX_FRONT_ENDS, MAX_OBSTACLES, ChannelMatrix, Obstacle, Receiver,
                            Scene, Transmitter, ValidationError, channel_matrix, lambertian_order,
                            los_gain, subcarrier_frequencies, wideband_rssi_dbm)


def make_tx(fe_id="tx_a", position=(0, 0, 0), boresight=(1, 0, 0),
            semi_angle=60.0, power_dbm=0.0):
    b = np.asarray(boresight, float)
    return Transmitter(id=fe_id, position=np.asarray(position, float),
                       boresight=b / np.linalg.norm(b),
                       half_power_semi_angle=semi_angle, tx_electrical_power_dbm=power_dbm)


def make_rx(fe_id="rx_a", position=(1, 0, 0), boresight=(-1, 0, 0),
            fov=90.0, area=1e-4, conversion_gain_db=0.0):
    b = np.asarray(boresight, float)
    return Receiver(id=fe_id, position=np.asarray(position, float),
                    boresight=b / np.linalg.norm(b), fov_half_angle=fov,
                    active_area=area, conversion_gain_db=conversion_gain_db)


class TestLambertianOrder:
    def test_60_degrees_is_ideal_lambertian(self):
        # cos(60) = 1/2 collapses the formula to exactly 1
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees(self):
        # hand evaluation: -ln2 / ln(cos 45) = -ln2 / (-ln2 / 2) = 2
        assert lambertian_order(45.0) == pytest.approx(2.0, abs=1e-9)

    def test_30_degrees(self):
        # hand evaluation of -ln2 / ln(cos 30)
        assert lambertian_order(30.0) == pytest.approx(4.81884167930642, rel=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 90.0, -5.0, 180.0])
    def test_out_of_range(self, angle):
        with pytest.raises(ValueError):
            lambertian_order(angle)

    def test_order_that_is_not_finite(self):
        # cos(1e-9 degrees) rounds to 1, so ln(cos) is 0; at 1e-6 it does not.
        with pytest.raises(ValueError, match="not finite"):
            lambertian_order(1e-9)
        with pytest.raises(ValidationError, match="front-end 'tx_a': half_power_semi_angle"):
            make_tx(semi_angle=1e-9)
        assert math.isfinite(lambertian_order(1e-6))


class TestLosGain:
    def test_reference_geometry(self):
        # m=1, A=1e-4 m^2, d=1 m, phi=psi=0:
        # gain = 2 * 1e-4 / (2*pi) = 3.1831e-5, delay = 1/c = 3.3356 ns
        gain, delay = los_gain(make_tx(), make_rx())
        assert gain == pytest.approx(3.183098861837907e-05, rel=1e-12)
        assert delay == pytest.approx(3.3356409519815204e-09, rel=1e-12)

    def test_behind_the_emitter(self):
        # receiver straight behind the TX boresight: no backward emission
        gain, delay = los_gain(make_tx(), make_rx(position=(-1, 0, 0), boresight=(1, 0, 0)))
        assert gain == 0.0
        assert delay > 0.0

    def test_outside_fov(self):
        # incidence angle one degree past the FOV cutoff
        fov = 30.0
        psi = math.radians(fov + 1.0)
        boresight = (-math.cos(psi), math.sin(psi), 0.0)
        gain, _ = los_gain(make_tx(), make_rx(boresight=boresight, fov=fov))
        assert gain == 0.0

    def test_at_fov_edge_still_counts(self):
        fov = 30.0
        psi = math.radians(fov - 1.0)
        boresight = (-math.cos(psi), math.sin(psi), 0.0)
        gain, _ = los_gain(make_tx(), make_rx(boresight=boresight, fov=fov))
        assert gain > 0.0

    def test_coincident_positions(self):
        with pytest.raises(ValueError, match="degenerate"):
            los_gain(make_tx(position=(1, 1, 1)), make_rx(position=(1, 1, 1)))

    def test_role_check(self):
        with pytest.raises(ValueError):
            los_gain(make_rx(), make_rx(fe_id="rx_b", position=(2, 0, 0)))
        with pytest.raises(ValueError) as exc:
            los_gain(make_rx(), make_tx())
        assert str(exc.value) == "los_gain needs a TX and an RX, got Receiver and Transmitter"

    def test_geometry_reciprocity(self):
        # swapping the two positions (with m=1 and wide FOV) leaves the
        # distance and the angle product unchanged
        tx = make_tx(position=(0, 0, 0), boresight=(0.6, 0.8, 0))
        rx = make_rx(position=(2, 1, 0.5), boresight=(-0.6, -0.8, 0))
        g1, d1 = los_gain(tx, rx)
        tx2 = make_tx(position=rx.position, boresight=rx.boresight)
        rx2 = make_rx(position=tx.position, boresight=tx.boresight)
        g2, d2 = los_gain(tx2, rx2)
        assert g1 == pytest.approx(g2, rel=1e-12)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_needle_beam_overflow_is_refused_as_a_gain_past_1(self):
        # A boresight norm a hair above 1 (a front-end allows 1e-9) makes cos(phi)
        # exceed 1, and cos(phi) ** m overflows for m about 6e15.
        tx = Transmitter(id="tx_a", position=np.zeros(3),
                         boresight=np.array([1 + 5e-10, 0.0, 0.0]),
                         half_power_semi_angle=1e-6, tx_electrical_power_dbm=0.0)
        with pytest.raises(ValidationError, match=r"^path tx_a->rx_a: optical gain inf is not <= 1"):
            los_gain(tx, make_rx())

    def test_gain_strictly_decreases_with_distance(self):
        gains = [los_gain(make_tx(), make_rx(position=(d, 0, 0)))[0]
                 for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))
        # pure 1/d^2 on the axis
        assert gains[0] / gains[1] == pytest.approx(4.0, rel=1e-12)


class TestFrontEndValidation:
    def test_boresight_must_be_unit(self):
        with pytest.raises(ValidationError, match="unit vector"):
            Transmitter(id="t", position=np.zeros(3),
                        boresight=np.array([1.0, 1.0, 0.0]),
                        half_power_semi_angle=30.0, tx_electrical_power_dbm=0.0)

    def test_fov_bound_named(self):
        with pytest.raises(ValidationError, match=r"\(0, 90\]"):
            make_rx(fov=120.0)

    def test_semi_angle_bound_named(self):
        with pytest.raises(ValidationError, match=r"\(0, 90\)"):
            make_tx(semi_angle=95.0)

    def test_active_area_positive(self):
        with pytest.raises(ValidationError, match="active_area"):
            make_rx(area=0.0)

    @pytest.mark.parametrize("area", [math.nan, math.inf])
    def test_active_area_finite(self, area):
        with pytest.raises(ValidationError, match="active_area must be a finite number"):
            make_rx(area=area)

    @pytest.mark.parametrize("gain", [math.nan, -math.inf, 1e308, -100.5])
    def test_conversion_gain_finite(self, gain):
        with pytest.raises(ValidationError, match="conversion_gain_db must be finite"):
            make_rx(conversion_gain_db=gain)

    @pytest.mark.parametrize("make", [make_tx, make_rx])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_position_finite(self, make, bad):
        with pytest.raises(ValidationError, match="position must be finite"):
            make(position=(1.0, bad, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_boresight_finite(self, bad):
        with pytest.raises(ValidationError, match="unit vector"):
            Transmitter(id="t", position=np.zeros(3),
                        boresight=np.array([1.0, bad, 0.0]),
                        half_power_semi_angle=30.0, tx_electrical_power_dbm=0.0)

    def test_tx_power_finite(self):
        with pytest.raises(ValidationError, match="tx_electrical_power_dbm must be a finite"):
            make_tx(power_dbm=math.nan)

    @pytest.mark.parametrize("power", [1e308, 100.5, -100.5])
    def test_tx_power_within_100_dbm(self, power):
        with pytest.raises(ValidationError, match=r"tx_electrical_power_dbm .* \[-100, 100\] dBm"):
            make_tx(power_dbm=power)

    def test_a_field_of_the_other_role_is_a_type_error(self):
        with pytest.raises(TypeError):
            Receiver(id="r", position=np.zeros(3), boresight=np.array([1.0, 0.0, 0.0]),
                     fov_half_angle=45.0, active_area=1e-4, tx_electrical_power_dbm=1e9)
        with pytest.raises(TypeError):
            Transmitter(id="t", position=np.zeros(3), boresight=np.array([1.0, 0.0, 0.0]),
                        half_power_semi_angle=30.0, tx_electrical_power_dbm=0.0, active_area=1e-4)

    def test_db_values_at_their_bounds_are_accepted(self):
        for db in (-100.0, 100.0):
            make_tx(power_dbm=db)
            Scene((make_tx(),), (make_rx(conversion_gain_db=db),), noise_floor_dbm=db)


class TestSceneValidation:
    def test_needs_tx_and_rx(self):
        with pytest.raises(ValidationError, match="at least one TX"):
            Scene((make_tx(),), ())

    def test_each_role_holds_only_its_type(self):
        with pytest.raises(ValidationError, match="transmitters must all be Transmitters, got a Receiver"):
            Scene((make_tx(), make_rx(fe_id="rx_b")), (make_rx(),))
        with pytest.raises(ValidationError, match="receivers must all be Receivers, got a Transmitter"):
            Scene((make_tx(),), (make_rx(), make_tx(fe_id="tx_b")))

    def test_unique_ids(self):
        with pytest.raises(ValidationError, match="unique"):
            Scene((make_tx(),), (make_rx(fe_id="tx_a"),))

    def test_obstacle_refs_must_exist(self):
        obs = Obstacle(blocked_pairs=frozenset({("tx_a", "rx_missing")}),
                       active_frames=(0, 10))
        with pytest.raises(ValidationError, match="rx_missing"):
            Scene((make_tx(),), (make_rx(),), obstacles=(obs,))

    def test_first_bad_pair_in_sorted_order_is_named(self):
        # Pick two unknown pairs that the frozenset lists out of sorted order.
        for i in range(1, 100):
            obs = Obstacle(blocked_pairs={("tx_a", "rx_0"), ("tx_a", f"rx_{i}")}, active_frames=(0, 10))
            if next(iter(obs.blocked_pairs)) != ("tx_a", "rx_0"):
                break
        with pytest.raises(ValidationError, match="unknown front-end id 'rx_0'"):
            Scene((make_tx(),), (make_rx(),), obstacles=(obs,))

    @pytest.mark.parametrize("role", ["transmitters", "receivers", "obstacles"])
    def test_size_is_bounded(self, role):
        bound = MAX_OBSTACLES if role == "obstacles" else MAX_FRONT_ENDS
        member = {"transmitters": lambda k: make_tx(fe_id=f"tx_{k}"),
                  "receivers": lambda k: make_rx(fe_id=f"rx_{k}"),
                  "obstacles": lambda k: Obstacle(blocked_pairs={("tx_0", "rx_0")},
                                                  active_frames=(k, k + 1))}[role]
        fields = {"transmitters": [make_tx(fe_id="tx_0")], "receivers": [make_rx(fe_id="rx_0")],
                  role: [member(k) for k in range(bound)]}
        Scene(**fields)
        fields[role].append(member(bound))
        with pytest.raises(ValidationError, match=rf"^scene: {bound + 1} {role} exceed the bound of {bound}$"):
            Scene(**fields)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf, 1e308, -100.5])
    def test_noise_floor_finite(self, noise):
        with pytest.raises(ValidationError, match="noise_floor_dbm must be finite"):
            Scene((make_tx(),), (make_rx(),), noise_floor_dbm=noise)

    def test_obstacle_interval_ordering(self):
        with pytest.raises(ValidationError, match="start"):
            Obstacle(blocked_pairs=frozenset({("a", "b")}), active_frames=(10, 10))

    @pytest.mark.parametrize("frames", [(-1, 10), (100, 2 ** 63), (100, 10 ** 20)])
    def test_obstacle_frames_are_int64_frame_indices(self, frames):
        with pytest.raises(ValidationError, match=r"0 <= start < end < 2\*\*63"):
            Obstacle(blocked_pairs=frozenset({("a", "b")}), active_frames=frames)
        Obstacle(blocked_pairs=frozenset({("a", "b")}), active_frames=(0, 2 ** 63 - 1))


class TestChannelMatrix:
    def test_siso_is_frequency_flat(self):
        scene = Scene((make_tx(),), (make_rx(position=(2, 0, 0)),))
        cm = channel_matrix(scene, 0, subcarrier_frequencies(20))
        mags = np.abs(cm.entries[:, 0, 0])
        assert np.ptp(mags) < 1e-15 * mags[0]

    def test_blocked_row_is_zero(self):
        obs = Obstacle(blocked_pairs=frozenset({("tx_a", "rx_b")}),
                       active_frames=(100, 181))
        scene = Scene((make_tx(),),
                      (make_rx(position=(2, 0.3, 0), boresight=(-1, 0, 0)),
                       make_rx(fe_id="rx_b", position=(2, -0.3, 0), boresight=(-1, 0, 0))),
                      obstacles=(obs,))
        cm = channel_matrix(scene, 150, subcarrier_frequencies(20))
        assert np.all(cm.path_gains[1, :] == 0.0)
        assert np.all(cm.entries[:, 1, :] == 0.0)
        assert cm.path_gains[0, 0] > 0.0
        # outside the active window the path is back
        cm_clear = channel_matrix(scene, 50, subcarrier_frequencies(20))
        assert cm_clear.path_gains[1, 0] > 0.0

    def test_miso_superposition_is_frequency_selective(self):
        # two TX at different distances: the summed column varies over frequency
        scene = Scene((make_tx(position=(0, 0, 0)), make_tx(fe_id="tx_b", position=(-0.4, 0, 0))),
                      (make_rx(position=(2, 0, 0)),))
        cm = channel_matrix(scene, 0, subcarrier_frequencies(40))
        combined = np.abs(cm.column_sum([1.0, 1.0])[:, 0])
        assert np.ptp(combined) > 0.05 * np.max(combined)

    def test_phase_delay_consistency(self):
        scene = Scene((make_tx(),), (make_rx(position=(1.7, 0.4, 0.2), boresight=(-1, 0, 0)),))
        freqs = subcarrier_frequencies(20)
        cm = channel_matrix(scene, 0, freqs)
        tau = cm.path_delays[0, 0]
        ph = np.angle(cm.entries[:, 0, 0])
        for k, l in ((0, 10), (3, 51), (20, 30)):
            expected = -2.0 * math.pi * (freqs[k] - freqs[l]) * tau
            diff = (ph[k] - ph[l] - expected + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(diff) < 1e-9

    def test_blockage_idempotence(self):
        obs = Obstacle(blocked_pairs=frozenset({("tx_a", "rx_a")}), active_frames=(0, 10))
        base = ((make_tx(),), (make_rx(position=(2, 0, 0)),))
        once = channel_matrix(Scene(*base, obstacles=(obs,)), 5, subcarrier_frequencies(20))
        twice = channel_matrix(Scene(*base, obstacles=(obs, obs)), 5, subcarrier_frequencies(20))
        np.testing.assert_array_equal(once.entries, twice.entries)

    def test_conversion_gain_folded_into_path_gain(self):
        plain = Scene((make_tx(),), (make_rx(position=(2, 0, 0)),))
        boosted = Scene((make_tx(),), (make_rx(position=(2, 0, 0), conversion_gain_db=10.0),))
        g0 = channel_matrix(plain, 0, [1e9]).path_gains[0, 0]
        g1 = channel_matrix(boosted, 0, [1e9]).path_gains[0, 0]
        assert g1 / g0 == pytest.approx(10.0, rel=1e-12)

    def test_shape_is_that_of_the_entries(self):
        cm = ChannelMatrix.from_paths(np.ones((3, 2)), np.zeros((3, 2)), [1e9, 2e9])
        assert (len(cm.subcarrier_freqs), cm.n_rx, cm.n_tx) == cm.entries.shape == (2, 3, 2)
        direct = ChannelMatrix(subcarrier_freqs=np.array([1e9]), entries=np.ones((1, 4, 1)),
                               path_gains=np.ones((4, 1)), path_delays=np.zeros((4, 1)))
        assert (direct.n_rx, direct.n_tx) == (4, 1)

    def test_from_paths_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            ChannelMatrix.from_paths([[-1.0]], [[0.0]], [1e9])


class TestRssiPerChain:
    """Wideband RSSI of each chain of a channel matrix, from its path gains."""

    def test_single_path_definition(self):
        cm = ChannelMatrix.from_paths([[1e-5]], [[3e-9]], [1e9])
        rssi = wideband_rssi_dbm(cm.path_gains, [0.0])
        assert rssi[0] == pytest.approx(10.0 * math.log10(1e-5), rel=1e-12)

    def test_blocked_chain_reads_no_signal(self):
        cm = ChannelMatrix.from_paths([[1e-5], [0.0]], [[3e-9], [3e-9]], [1e9])
        rssi = wideband_rssi_dbm(cm.path_gains, [0.0])
        assert rssi[1] == float("-inf")
        assert np.isfinite(rssi[0])

    def test_two_equal_paths_add_3dB(self):
        cm = ChannelMatrix.from_paths([[1e-5, 1e-5]], [[0.0, 1e-9]], [1e9])
        single = ChannelMatrix.from_paths([[1e-5]], [[0.0]], [1e9])
        one = wideband_rssi_dbm(single.path_gains, [0.0])[0]
        both = wideband_rssi_dbm(cm.path_gains, [0.0, 0.0])[0]
        assert both - one == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_power_count_must_match(self):
        cm = ChannelMatrix.from_paths([[1e-5]], [[0.0]], [1e9])
        with pytest.raises(ValueError):
            wideband_rssi_dbm(cm.path_gains, [0.0, 0.0])


def test_subcarrier_grids():
    assert len(subcarrier_frequencies(20)) == 52
    assert len(subcarrier_frequencies(40)) == 108
    with pytest.raises(ValueError):
        subcarrier_frequencies(80)

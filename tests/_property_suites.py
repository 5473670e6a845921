"""Randomized property suites shared by the unit tests and the acceptance run.

Each suite draws its cases from one seeded generator and asserts internally;
callers choose the case count.
"""

import csv
import dataclasses
import io
import math
import os
import sys
import tempfile
from unittest import mock

import numpy as np

from vlcsim import _numerics, cli, oracle, presets
from vlcsim.channel import ChannelMatrix, Obstacle, Receiver, Transmitter, channel_matrix, Scene, \
    db_to_linear, linear_to_db, los_gain, subcarrier_frequencies, wideband_rssi_dbm
from vlcsim.mimo import SINGULARITY_CONDITION_CUTOFF, PostSnr, _stream_snr_per_subcarrier, \
    mrc_combine, zf_decode_links
from vlcsim.oracle import _effective_channel, demodulate, empirical_fsr, modulate, \
    simulate_frame
from vlcsim.phy import MCS_TABLE, MODULATION_BITS, FrameSpec, fsr, mcs
from vlcsim.scenarios import HandoverSweep, SisoSweep, run_blockage_timeline, \
    run_handover_sweep, run_siso_sweep
from vlcsim.sceneconfig import read_scene_file, scene_to_text


def _unit(v):
    return v / np.linalg.norm(v)


def mrc_properties(n_cases: int, seed: int = 101) -> None:
    """Dominance, permutation invariance, and associativity of MRC."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(1, 6))
        branches = rng.uniform(0.0, 50.0, size=n)
        if rng.random() < 0.3:
            branches[rng.integers(0, n)] = 0.0
        combined, _ = mrc_combine(branches)
        assert combined >= branches.max() - 1e-12
        # equality holds exactly when every other branch is silent
        others = np.delete(branches, np.argmax(branches))
        if np.all(others == 0.0):
            assert combined == branches.max()
        else:
            assert combined > branches.max()
        perm = rng.permutation(n)
        assert mrc_combine(branches[perm])[0] == combined
        if n >= 2:
            # associativity: pre-combining a pair changes nothing
            head, _ = mrc_combine(branches[:2])
            nested, _ = mrc_combine(np.concatenate([[head], branches[2:]]))
            assert abs(nested - combined) <= 1e-12 * max(combined, 1.0)


def fsr_monotonicity(n_cases: int, seed: int = 102) -> None:
    """FSR, priced at the weakest stream, never decreases when any per-stream SNR goes up."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        entry = MCS_TABLE[rng.integers(0, 16)]
        snrs = rng.uniform(-20.0, 45.0, size=entry.n_streams)
        bumped = snrs.copy()
        bumped[rng.integers(0, entry.n_streams)] += rng.uniform(0.0, 10.0)
        assert fsr(entry, min(bumped), 1000) >= fsr(entry, min(snrs), 1000) - 1e-12


def gain_distance_monotonicity(n_cases: int, seed: int = 103) -> None:
    """With angles fixed, the LOS gain strictly falls as 1/d^2."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        direction = _unit(rng.standard_normal(3))
        tx = Transmitter(id="t", position=np.zeros(3), boresight=direction,
                         half_power_semi_angle=float(rng.uniform(10.0, 80.0)),
                         tx_electrical_power_dbm=0.0)
        d1 = float(rng.uniform(0.2, 5.0))
        d2 = d1 * float(rng.uniform(1.01, 4.0))
        gains = []
        for d in (d1, d2):
            rx = Receiver(id="r", position=d * direction,
                          boresight=-direction, fov_half_angle=60.0,
                          active_area=1e-4)
            gains.append(los_gain(tx, rx)[0])
        assert gains[0] > gains[1] > 0.0
        ratio = (d2 / d1) ** 2
        assert abs(gains[0] / gains[1] - ratio) <= 1e-9 * ratio


def phase_delay_consistency(n_cases: int, seed: int = 104) -> None:
    """arg H(f_k) - arg H(f_l) = -2 pi (f_k - f_l) tau, modulo 2 pi."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        gain = float(rng.uniform(1e-8, 1e-3))
        tau = float(rng.uniform(1e-10, 1e-7))
        freqs = np.sort(rng.uniform(1e8, 6e9, size=4))
        cm = ChannelMatrix.from_paths([[gain]], [[tau]], freqs)
        ph = np.angle(cm.entries[:, 0, 0])
        k, l = rng.choice(4, size=2, replace=False)
        expected = -2.0 * math.pi * (freqs[k] - freqs[l]) * tau
        diff = (ph[k] - ph[l] - expected + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) < 1e-6


def bit_reproducibility(n_cases: int, seed: int = 105) -> None:
    """Identical (inputs, seed) give bit-identical oracle outcomes."""
    rng = np.random.default_rng(seed)
    freqs = subcarrier_frequencies(20)
    for _ in range(n_cases):
        n_streams = int(rng.integers(1, 3))
        n_rx = int(rng.integers(n_streams, 3))
        gains = rng.uniform(0.2, 1.5, size=(n_rx, max(n_streams, 1)))
        delays = rng.uniform(0.0, 5e-9, size=gains.shape)
        cm = ChannelMatrix.from_paths(gains, delays, freqs)
        entry = mcs(int(rng.integers(0, 8)) + (8 if n_streams == 2 else 0))
        frame = FrameSpec(payload_bytes=int(rng.integers(16, 64)), count=1)
        snr = float(rng.uniform(0.0, 25.0))
        s = int(rng.integers(0, 2 ** 31))
        assert simulate_frame(cm, entry, frame, snr, s) == \
            simulate_frame(cm, entry, frame, snr, s)


def zf_orthogonal_exactness(n_cases: int, seed: int = 106) -> None:
    """On orthogonal columns ZF matches the per-column matched filter SNR."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n_rx = int(rng.integers(2, 5))
        c1 = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
        c2 = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
        c2 -= c1 * np.vdot(c1, c2) / np.vdot(c1, c1)
        h = np.stack([c1, c2], axis=1)
        # entries built directly: this check is about the ZF algebra alone
        cm = ChannelMatrix(subcarrier_freqs=np.array([2.4e9]),
                           entries=h[None, :, :],
                           path_gains=np.abs(h) ** 2,
                           path_delays=np.zeros_like(h, dtype=float))
        post = zf_decode_links([cm], 1.0, 1.0)[0]
        for k, col in enumerate((c1, c2)):
            matched_db = 10.0 * math.log10(np.vdot(col, col).real)
            assert abs(post.per_stream_snr_db[k] - matched_db) <= 1e-8


def row_alignment_monotonicity(n_cases: int, seed: int = 107) -> None:
    """Aligning receive rows never improves conditioning.

    As the angle between the two rows shrinks: the Gram condition number
    never decreases, and for equal-magnitude rows the minimum per-stream
    post-SNR never increases.
    """
    rng = np.random.default_rng(seed)

    def stats(r1, r2):
        h = np.vstack([r1, r2])
        g = h.T @ h
        det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
        cond = np.linalg.cond(g)
        min_post = -np.inf if det <= 0 else min(det / g[1, 1], det / g[0, 0])
        return cond, min_post

    for _ in range(n_cases):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(phi), math.sin(phi)])
        uperp = np.array([-u[1], u[0]])
        mag1 = float(rng.uniform(0.1, 2.0))
        mag2 = float(rng.uniform(0.1, 2.0))
        thetas = np.sort(rng.uniform(0.02, math.pi / 2, size=4))[::-1]
        conds, posts = [], []
        for theta in thetas:
            r2 = mag2 * (math.cos(theta) * u + math.sin(theta) * uperp)
            cond, _ = stats(mag1 * u, r2)
            _, post_eq = stats(mag2 * u, r2)  # equal-magnitude variant
            conds.append(cond)
            posts.append(post_eq)
        for a, b in zip(conds, conds[1:]):
            assert b >= a * (1.0 - 1e-9)
        for a, b in zip(posts, posts[1:]):
            assert b <= a + 1e-9 * max(abs(a), 1.0)


def blockage_continuity(n_cases: int, seed: int = 108) -> None:
    """One healthy branch (threshold + 5 dB) keeps the MRC frame flowing."""
    rng = np.random.default_rng(seed)
    entry = mcs(0)
    for _ in range(n_cases):
        n = int(rng.integers(1, 5))
        snr_db = rng.uniform(-40.0, 20.0, size=n)
        snr_db[rng.integers(0, n)] = entry.snr_threshold_db + rng.uniform(5.0, 25.0)
        _, combined_db = mrc_combine(10.0 ** (snr_db / 10.0))
        assert fsr(entry, combined_db, 1000) >= 0.99


def scenario_reproducibility(seed: int = 109) -> None:
    """A full scenario rerun with one seed is identical, trace for trace."""
    from vlcsim.presets import simo_blockage_scene
    from vlcsim.scenarios import run_blockage_timeline
    scene = simo_blockage_scene()
    assert run_blockage_timeline(scene, 1000, seed, 0, 350) == \
        run_blockage_timeline(scene, 1000, seed, 0, 350)


def _random_link_scene(rng, n_tx, n_rx, n_obstacles=0, n_frames=1):
    """TXs near the origin firing along +x, RXs 1-3 m away staring roughly back."""
    txs = [Transmitter(id=f"tx{j}", position=rng.uniform(-0.3, 0.3, size=3),
                       boresight=_unit(np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.3, 0.3, 3)),
                       half_power_semi_angle=float(rng.uniform(15.0, 70.0)),
                       tx_electrical_power_dbm=float(rng.uniform(-10.0, 10.0)))
           for j in range(n_tx)]
    rxs = []
    for i in range(n_rx):
        pos = np.array([rng.uniform(1.0, 3.0), rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3)])
        rxs.append(Receiver(id=f"rx{i}", position=pos,
                            boresight=_unit(-pos + rng.uniform(-0.4, 0.4, 3)),
                            fov_half_angle=float(rng.uniform(20.0, 90.0)),
                            active_area=float(rng.uniform(1e-5, 1e-3)),
                            conversion_gain_db=float(rng.uniform(-5.0, 5.0))))
    pairs = [(tx.id, rx.id) for tx in txs for rx in rxs]
    # Interval ends drawn from one small pool, so intervals overlap, nest, touch,
    # start at frame 0, start past the last frame and end past it, at 2**63 - 1 too.
    ends = ([0, n_frames, n_frames + 7, 2 ** 63 - 1]
            + [int(x) for x in rng.integers(1, n_frames + 1, 3)])
    obstacles = []
    for _ in range(n_obstacles):
        start, end = sorted(rng.choice(sorted(set(ends)), size=2, replace=False))
        k = int(rng.integers(1, len(pairs) + 1))
        blocked = frozenset(pairs[c] for c in rng.choice(len(pairs), size=k, replace=False))
        if obstacles and rng.random() < 0.3:  # the paths of an earlier obstacle
            blocked = obstacles[int(rng.integers(len(obstacles)))].blocked_pairs
        obstacles.append(Obstacle(blocked_pairs=blocked, active_frames=(int(start), int(end))))
    return Scene(txs, rxs, obstacles=obstacles,
                 noise_floor_dbm=float(rng.uniform(-75.0, -40.0)))


def _reference_timeline(scene, payload_bytes, seed, mcs_index, n_frames):
    """The blockage timeline evaluated frame by frame, one scalar draw per frame.

    One `(frame_index, *per_chain_rssi_dbm, combined_rssi_dbm, mcs_index,
    success)` row per frame.
    """
    entry = mcs(mcs_index)
    freqs = subcarrier_frequencies(20)
    rng = np.random.default_rng(seed)
    noise_mw = float(db_to_linear(scene.noise_floor_dbm))
    rows = []
    for i in range(n_frames):
        rssi = wideband_rssi_dbm(channel_matrix(scene, i, freqs).path_gains, scene.tx_power_dbm)
        _, combined_snr_db = mrc_combine(db_to_linear(rssi) / noise_mw)
        p = fsr(entry, combined_snr_db, payload_bytes)
        rows.append((i, *(float(r) for r in rssi), float(linear_to_db(np.sum(db_to_linear(rssi)))),
                     entry.index, bool(rng.random() < p)))
    return rows


def _blocked_paths(scene, frame_index):
    """The set of `(tx_id, rx_id)` paths that obstacles active at `frame_index` block."""
    return frozenset(pair for obs in scene.obstacles
                     if obs.active_frames[0] <= frame_index < obs.active_frames[1]
                     for pair in obs.blocked_pairs)


def blockage_timeline_exactness(n_cases: int, seed: int = 110) -> None:
    """Evaluating once per set of blocked paths equals the frame-by-frame timeline.

    Scenes hold up to 12 obstacles whose intervals overlap, nest and touch,
    start past the last frame or end at 2**63 - 1, some of them blocking the
    same paths, so that different sets of active obstacles block one set of
    paths. Two frames share a state exactly when the same paths are blocked.
    """
    rng = np.random.default_rng(seed)
    seen = dict.fromkeys(("end 2**63 - 1", "start past n_frames", "same paths", "merged"), 0)
    for _ in range(n_cases):
        n_tx, n_rx = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        n_frames = int(rng.integers(1, 120))
        scene = _random_link_scene(rng, n_tx, n_rx, int(rng.integers(0, 13)), n_frames)
        mcs_index = int(rng.integers(0, 8)) + (8 if min(n_tx, n_rx) == 2 and rng.random() < 0.5 else 0)
        payload = int(rng.integers(100, 3000))
        s = int(rng.integers(0, 2 ** 31))
        timeline = run_blockage_timeline(scene, payload, s, mcs_index, n_frames)
        # Every state is one that some frame is in.
        assert sorted(set(timeline.state_of_frame)) == list(range(len(timeline.states)))
        frames = [(i, *timeline.states[k][0], timeline.states[k][1], timeline.mcs_index, ok)
                  for i, (k, ok) in enumerate(zip(timeline.state_of_frame, timeline.success))]
        assert frames == _reference_timeline(scene, payload, s, mcs_index, n_frames)
        blocked = [_blocked_paths(scene, i) for i in range(n_frames)]
        n_states = len(timeline.states)
        assert len(set(blocked)) == n_states == len(set(zip(blocked, timeline.state_of_frame)))
        spans = [obs.active_frames for obs in scene.obstacles]
        active = {tuple(start <= i < end for start, end in spans) for i in range(n_frames)}
        seen["end 2**63 - 1"] += any(end == 2 ** 63 - 1 for _, end in spans)
        seen["start past n_frames"] += any(start > n_frames for start, _ in spans)
        seen["same paths"] += len({obs.blocked_pairs for obs in scene.obstacles}) < len(spans)
        seen["merged"] += len(active) > n_states
    if n_cases >= 20:
        assert min(seen.values()) > 0, seen


def _zero_gain_receiver(rx, tx, kind):
    """`rx` placed so that its path from `tx` has zero gain.

    "behind": mirrored through the TX, and still facing it, behind the emitter
    plane (cos phi < 0); "grazing": moved onto the emitter plane of a TX firing
    along +z, so that cos phi is exactly 0; "outside": facing away, so psi is
    beyond the FOV.
    """
    if kind == "behind":
        return dataclasses.replace(rx, position=2.0 * tx.position - rx.position,
                                   boresight=-rx.boresight)
    if kind == "grazing":
        return dataclasses.replace(rx, position=np.array([*rx.position[:2], tx.position[2]]))
    return dataclasses.replace(rx, boresight=-rx.boresight)


def _loud_receiver(rx, tx, rng):
    """`rx` facing `tx`, with the conversion gain that puts its RSSI within 1 dB of 0 dBm.

    Near 0 dBm the spacing of floats is finest, so a one-ulp change of a path
    gain changes the RSSI too.
    """
    rx = dataclasses.replace(rx, boresight=_unit(tx.position - rx.position))
    gain = los_gain(tx, rx)[0] * 10.0 ** (tx.tx_electrical_power_dbm / 10.0)
    return dataclasses.replace(rx, conversion_gain_db=float(-10.0 * math.log10(gain)
                                                            + rng.uniform(-1.0, 1.0)))


def _repeats(rng, values):
    """`values` with some of them repeated, in a shuffled order."""
    return rng.permutation(np.concatenate([values, rng.choice(values, size=len(values))]))


def _reference_siso_rows(scene, distances, mcs_indices, frame, seed):
    """The SISO sweep built on channel matrices, one scalar draw per cell.

    One `(distance_m, rssi_dbm, snr_db, mcs_index, fsr_analytic, fsr_realized)`
    row per cell, in (distance, MCS) order.
    """
    freqs = subcarrier_frequencies(20)
    tx, rx = scene.transmitters[0], scene.receivers[0]
    direction = _unit(rx.position - tx.position)
    draws = np.random.default_rng(seed)
    rows = []
    for d in distances:
        moved = Receiver(id=rx.id, position=tx.position + float(d) * direction,
                         boresight=rx.boresight, fov_half_angle=rx.fov_half_angle,
                         active_area=rx.active_area, conversion_gain_db=rx.conversion_gain_db)
        probe = Scene((tx,), (moved,), noise_floor_dbm=scene.noise_floor_dbm)
        rssi = float(wideband_rssi_dbm(channel_matrix(probe, 0, freqs).path_gains,
                                       probe.tx_power_dbm)[0])
        snr_db = rssi - scene.noise_floor_dbm
        for m in mcs_indices:
            p = fsr(mcs(m), snr_db, frame.payload_bytes)
            realized = float(draws.binomial(frame.count, min(1.0, max(0.0, p))) / frame.count)
            rows.append((float(d), rssi, snr_db, m, p, realized))
    return rows


def siso_sweep_exactness(n_cases: int, seed: int = 111) -> None:
    """The RSSI-only SISO sweep equals one built on channel matrices.

    After the random links, a second set of cases adds zero-gain links (behind
    or on the emitter plane, outside the FOV), links near 0 dBm, 1 and 1e5
    frames per cell, and repeated distances.
    """
    def check(scene, distances, mcs_indices, frame, s):
        rows = _reference_siso_rows(scene, distances, mcs_indices, frame, s)
        d, rssi, snr_db, m, p, q = map(list, zip(*rows))
        n = len(mcs_indices)
        assert run_siso_sweep(scene, mcs_indices, distances, frame, s) == \
            SisoSweep(d[::n], rssi[::n], snr_db[::n], m[:n], p, q)
        return rows

    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        scene = _random_link_scene(rng, 1, 1)
        distances = rng.uniform(0.1, 15.0, size=int(rng.integers(1, 20)))
        mcs_indices = [int(m) for m in rng.choice(8, size=int(rng.integers(1, 4)), replace=False)]
        frame = FrameSpec(payload_bytes=int(rng.integers(100, 3000)),
                          count=int(rng.integers(1, 500)))
        s = int(rng.integers(0, 2 ** 31))
        check(scene, distances, mcs_indices, frame, s)

    rng = np.random.default_rng([seed, 1])
    zero_rows = 0
    for case in range(n_cases):
        scene = _random_link_scene(rng, 1, 1)
        kind = ("live", "loud", "behind", "grazing", "outside")[case % 5]
        tx, rx = scene.transmitters[0], scene.receivers[0]
        span = (0.1, 15.0)
        if kind == "loud":
            rx = _loud_receiver(rx, tx, rng)
            span = tuple(float(np.linalg.norm(rx.position - tx.position)) * f for f in (0.9, 1.1))
        elif kind != "live":
            if kind == "grazing":
                tx = dataclasses.replace(tx, boresight=np.array([0.0, 0.0, 1.0]))
            rx = _zero_gain_receiver(rx, tx, kind)
        scene = Scene((tx,), (rx,), noise_floor_dbm=scene.noise_floor_dbm)
        distances = _repeats(rng, rng.uniform(*span, size=int(rng.integers(1, 10))))
        mcs_indices = [int(m) for m in rng.choice(8, size=int(rng.integers(1, 4)), replace=False)]
        frame = FrameSpec(payload_bytes=int(rng.integers(100, 3000)),
                          count=(1, 100_000)[case // 5 % 2])
        rows = check(scene, distances, mcs_indices, frame, int(rng.integers(0, 2 ** 31)))
        zero = [(p, q) for _, rssi, _, _, p, q in rows if rssi == -math.inf]
        assert all(p == 0.0 == q for p, q in zero)
        assert kind in ("live", "loud") or len(zero) == len(rows)
        zero_rows += len(zero)
    assert zero_rows > 0 or n_cases < 3


def _reference_handover_rows(scene, azimuths):
    """The handover sweep built on channel matrices: one `(tx_azimuth_deg,
    rssi_a_dbm, rssi_b_dbm, rssi_mrc_dbm)` row per azimuth."""
    freqs = subcarrier_frequencies(20)
    tx = scene.transmitters[0]
    rows = []
    for az in azimuths:
        a = math.radians(float(az))
        aimed = Transmitter(id=tx.id, position=tx.position,
                            boresight=np.array([math.cos(a), math.sin(a), 0.0]),
                            half_power_semi_angle=tx.half_power_semi_angle,
                            tx_electrical_power_dbm=tx.tx_electrical_power_dbm)
        probe = Scene((aimed,), scene.receivers, noise_floor_dbm=scene.noise_floor_dbm)
        rssi = wideband_rssi_dbm(channel_matrix(probe, 0, freqs).path_gains, probe.tx_power_dbm)
        rows.append((float(az), float(rssi[0]), float(rssi[1]),
                     float(linear_to_db(np.sum(db_to_linear(rssi))))))
    return rows


def handover_sweep_exactness(n_cases: int, seed: int = 112) -> None:
    """The RSSI-only handover sweep equals one built on channel matrices.

    After the random links, a second set of cases adds receivers with zero
    gain (behind the emitter plane or outside the FOV, one or both) or near
    0 dBm, and repeated azimuths that include exactly +-90 degrees.
    """
    def check(scene, azimuths):
        rows = _reference_handover_rows(scene, azimuths)
        assert run_handover_sweep(scene, azimuths) == HandoverSweep(*map(list, zip(*rows)))
        return rows

    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        scene = _random_link_scene(rng, 1, 2)
        azimuths = rng.uniform(-90.0, 90.0, size=int(rng.integers(1, 30)))
        check(scene, azimuths)

    rng = np.random.default_rng([seed, 1])
    seen = set()
    for case in range(n_cases):
        scene = _random_link_scene(rng, 1, 2)
        tx, (rx_a, rx_b) = scene.transmitters[0], scene.receivers
        kind = ("behind", "outside", "both outside", "live", "loud")[case % 5]
        azimuths = rng.uniform(-90.0, 90.0, size=int(rng.integers(1, 15)))
        if kind == "loud":
            # Each receiver within 1 dB of 0 dBm when the boresight points at
            # it, and azimuths within 3 degrees of those two.
            aims = [math.atan2(*(rx.position - tx.position)[1::-1]) for rx in (rx_a, rx_b)]
            rx_a, rx_b = (_loud_receiver(rx, dataclasses.replace(
                tx, boresight=np.array([math.cos(a), math.sin(a), 0.0])), rng)
                for rx, a in zip((rx_a, rx_b), aims))
            azimuths = np.degrees(rng.choice(aims, size=azimuths.size)) \
                + rng.uniform(-3.0, 3.0, size=azimuths.size)
        elif kind != "live":
            rx_a = _zero_gain_receiver(rx_a, tx, kind.split()[-1])
        if kind == "both outside":
            rx_b = _zero_gain_receiver(rx_b, tx, "outside")
        scene = Scene((tx,), (rx_a, rx_b), noise_floor_dbm=scene.noise_floor_dbm)
        azimuths = _repeats(rng, np.concatenate([[90.0, -90.0], azimuths]))
        for row in check(scene, azimuths):
            seen.update(name for name, value in zip(("a", "b", "mrc"), row[1:])
                        if value == -math.inf)
    assert seen == {"a", "b", "mrc"} or n_cases < 3


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def link_csv_exactness(n_cases: int, seed: int = 116) -> None:
    """The CLI's link CSVs equal `csv.writer` over the reference rows.

    Each case writes a random scene to a file, runs siso-sweep,
    blockage-timeline or handover-sweep on it through `cli.main`, and compares
    the CSV bytes with `csv.writer` over the rows of the frame-by-frame,
    per-distance or per-angle channel-matrix reference on the same scene, siso
    rows sorted by (rssi_dbm, mcs_index). The cases include receivers outside
    the FOV (every siso row -inf, so distances interleave after the sort),
    d_min == d_max, MCS lists in random and in descending order, and obstacles
    that blank one or every chain.
    """
    rng = np.random.default_rng(seed)
    descending = 0
    with tempfile.TemporaryDirectory() as tmp:
        scene_path, out = os.path.join(tmp, "scene.cfg"), os.path.join(tmp, "out")
        for case in range(n_cases):
            kind = ("siso-sweep", "blockage-timeline", "handover-sweep")[case % 3]
            dark = case // 3 % 3 == 1
            s = int(rng.integers(0, 2 ** 31))
            if kind == "siso-sweep":
                scene = _random_link_scene(rng, 1, 1)
                if dark:
                    scene = Scene(scene.transmitters, (_zero_gain_receiver(
                        scene.receivers[0], scene.transmitters[0], "outside"),),
                        noise_floor_dbm=scene.noise_floor_dbm)
                d_min, d_max = sorted(float(d) for d in rng.uniform(0.1, 15.0, size=2))
                if case // 3 % 3 == 2:
                    d_max = d_min
                n = int(rng.integers(1, 25))
                mcs_indices = [int(m) for m in rng.choice(8, size=int(rng.integers(1, 5)),
                                                          replace=False)]
                if case // 3 % 2:
                    mcs_indices.sort(reverse=True)
                    descending += len(mcs_indices) > 1
                frame = FrameSpec(payload_bytes=int(rng.integers(100, 3000)),
                                  count=int(rng.integers(1, 300)))
                settings = [f"d_min={d_min!r}", f"d_max={d_max!r}", f"n_distances={n}",
                            f"mcs={','.join(map(str, mcs_indices))}",
                            f"payload_bytes={frame.payload_bytes}", f"count={frame.count}"]
            elif kind == "blockage-timeline":
                n_tx, n_rx = int(rng.integers(1, 3)), int(rng.integers(1, 4))
                n = int(rng.integers(1, 150))
                scene = _random_link_scene(rng, n_tx, n_rx, int(rng.integers(0, 5)), n)
                mcs_index = int(rng.integers(0, 8)) + (
                    8 if min(n_tx, n_rx) == 2 and rng.random() < 0.5 else 0)
                payload = int(rng.integers(100, 3000))
                settings = [f"n_frames={n}", f"mcs_index={mcs_index}",
                            f"payload_bytes={payload}"]
            else:
                scene = _random_link_scene(rng, 1, 2)
                if dark:
                    tx, (rx_a, rx_b) = scene.transmitters[0], scene.receivers
                    scene = Scene((tx,), (_zero_gain_receiver(rx_a, tx, "outside"), rx_b),
                                  noise_floor_dbm=scene.noise_floor_dbm)
                n = int(rng.integers(1, 40))
                settings = [f"n_angles={n}"]
            with open(scene_path, "w") as f:
                f.write(scene_to_text(scene))
            scene = read_scene_file(scene_path)
            argv = ["--scenario", kind, "--scene", scene_path, "--seed", str(s), "--out", out]
            for item in settings:
                argv += ["--set", item]
            assert cli.main(argv) == 0

            if kind == "siso-sweep":
                rows = _reference_siso_rows(scene, np.geomspace(d_min, d_max, n), mcs_indices,
                                            frame, s)
                rows.sort(key=lambda r: (r[1], r[3]))  # (rssi_dbm, mcs_index)
                header = ["distance_m", "rssi_dbm", "snr_db", "mcs_index", "fsr_analytic",
                          "fsr_realized"]
                assert not dark or all(r[1] == -math.inf for r in rows)
            elif kind == "blockage-timeline":
                rows = [(*r[:-2], "MRC", *r[-2:])
                        for r in _reference_timeline(scene, payload, s, mcs_index, n)]
                header = (["frame_index"]
                          + [f"rssi_chain_{i}_dbm" for i in range(n_rx)]
                          + ["combined_rssi_dbm", "technique", "mcs_index", "success"])
            else:
                rows = _reference_handover_rows(scene, presets.handover_angles(n))
                header = ["tx_azimuth_deg", "rssi_a_dbm", "rssi_b_dbm", "rssi_mrc_dbm"]
            with open(os.path.join(out, f"{kind}.csv"), "rb") as f:
                assert f.read() == _csv_bytes(header, rows), (kind, case)
    assert descending > 0 or n_cases < 12


def _reference_stream_snr(entries, tx_power_per_stream, noise_per_chain):
    """The ZF kernel as one cond and one inv per subcarrier, in a Python loop."""
    n_subc, n_rx, n_streams = entries.shape
    p = np.broadcast_to(np.asarray(tx_power_per_stream, dtype=float), (n_streams,))
    n0 = np.broadcast_to(np.asarray(noise_per_chain, dtype=float), (n_rx,))
    snr = np.zeros((n_subc, n_streams))
    cond = np.full(n_subc, np.inf)
    ok = np.zeros(n_subc, dtype=bool)
    for k in range(n_subc):
        h = entries[k]
        gram = h.conj().T @ h
        c = np.linalg.cond(gram)
        cond[k] = c
        if not np.isfinite(c) or c > SINGULARITY_CONDITION_CUTOFF:
            continue
        w = np.linalg.inv(gram) @ h.conj().T
        # ZF filter output noise: each stream collects |w|^2-weighted chain noise.
        noise_out = (np.abs(w) ** 2) @ n0
        snr[k] = p / noise_out
        ok[k] = True
    return snr, cond, ok


def zf_batched_exactness(n_cases: int, seed: int = 113) -> None:
    """The stacked ZF kernel equals the per-subcarrier loop bit for bit.

    Cases cycle through channels whose subcarriers are all singular, all
    regular, a random mix of singular, nearly singular and regular, and all
    nearly singular (conditioned around the cutoff). Each is checked on a
    contiguous array, on a strided view of a wider channel and on a row
    subset of that view, picked out with a list of row indices.
    """
    rng = np.random.default_rng(seed)
    masks = {"all": 0, "none": 0, "mixed": 0}
    for case in range(n_cases):
        n_subc = int(rng.choice([52, 108]))
        n_rx, n_streams = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        scale = 10.0 ** rng.uniform(-4.0, 0.0)
        shape = (n_subc, n_rx + 1, n_streams + 1)
        entries = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        singular_share, near_share = ((1.0, 0.0), (0.0, 0.0),
                                      tuple(rng.uniform(0.1, 0.5, 2)), (0.0, 1.0))[case % 4]
        draw = rng.random(n_subc)
        singular = draw < singular_share
        near = ~singular & (draw < singular_share + near_share)
        if n_streams == 1:
            entries[singular] = 0.0
        else:
            # A second column proportional to the first is rank-deficient; a
            # small perturbation of it puts the Gram condition number anywhere
            # from far above to far below the cutoff.
            rank1 = singular | near
            eps = np.where(near[:, None], 10.0 ** rng.uniform(-7.0, -1.0, (n_subc, 1)), 0.0)
            entries[rank1, :, 1] = (rng.uniform(0.2, 2.0) * entries[rank1, :, 0]
                                    + eps[rank1] * entries[rank1, :, 2])
        power = rng.uniform(0.1, 10.0, size=n_streams) if rng.random() < 0.5 else 1.0
        noise = rng.uniform(0.1, 10.0, size=n_rx) if rng.random() < 0.5 else 1.0
        view = entries[:, :, :n_streams]
        rows = sorted(rng.choice(n_rx + 1, size=n_rx, replace=False))
        for h in (np.ascontiguousarray(view[:, :n_rx]), view[:, :n_rx], view[:, rows, :]):
            got = _stream_snr_per_subcarrier(h, power, noise)
            want = _reference_stream_snr(h, power, noise)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.array_equal(g, w)
            ok = want[2]
            masks["all" if ok.all() else "none" if not ok.any() else "mixed"] += 1
    if n_cases >= 8:
        assert min(masks.values()) > 0, masks


def _reference_zf_decode(cm: ChannelMatrix, tx_power_per_stream, noise_per_chain):
    """One link's `zf_decode_links` as it was before links were stacked: one kernel call each."""
    n_streams = cm.n_tx
    if cm.n_rx < n_streams:
        raise ValueError("underdetermined")
    snr, cond, ok = _stream_snr_per_subcarrier(cm.entries, tx_power_per_stream, noise_per_chain)
    n_subc = len(cm.subcarrier_freqs)
    bad = int(n_subc - np.count_nonzero(ok))
    solvable = bad * 2 <= n_subc
    finite_cond = cond[np.isfinite(cond)]
    cond_scalar = float(np.median(finite_cond)) if finite_cond.size else float("inf")
    if solvable and np.any(ok):
        per_stream = tuple(float(np.mean(linear_to_db(snr[ok, s]))) for s in range(n_streams))
    else:
        per_stream = (float("-inf"),) * n_streams
    return PostSnr(per_stream_snr_db=per_stream, solvable=solvable,
                   condition_number=cond_scalar)


def _random_zf_link(rng, kind, n_subc, n_rx, n_tx):
    """A link of one kind: regular, mixed (some subcarriers singular or nearly so),
    singular (every subcarrier), dead-column (a TX whose every path has zero gain,
    so the condition number is infinite), or dark (every path zero)."""
    shape = (n_subc, n_rx, n_tx + 1)
    scale = 10.0 ** rng.uniform(-4.0, 0.0)
    entries = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if kind in ("mixed", "singular"):
        rank1 = rng.random(n_subc) < (1.0 if kind == "singular" else rng.uniform(0.1, 0.7))
        if n_tx == 1:
            entries[rank1, :, 0] = 0.0
        else:
            near = rank1 & (rng.random(n_subc) < 0.5)
            eps = np.where(near[:, None], 10.0 ** rng.uniform(-7.0, -1.0, (n_subc, 1)), 0.0)
            entries[rank1, :, 1] = (rng.uniform(0.2, 2.0) * entries[rank1, :, 0]
                                    + eps[rank1] * entries[rank1, :, n_tx])
    entries = entries[:, :, :n_tx]
    gains = np.abs(entries[0]) ** 2
    if kind == "dead-column":
        entries[:, :, rng.integers(n_tx)] = 0.0
    elif kind == "dark":
        entries[:] = 0.0
    if kind in ("dead-column", "dark"):
        gains = np.abs(entries[0]) ** 2
    if rng.random() < 0.3:
        gains[rng.integers(n_rx), rng.integers(n_tx)] = 0.0  # a blocked path
    return ChannelMatrix(subcarrier_freqs=subcarrier_frequencies(
        20 if n_subc == 52 else 40), entries=entries, path_gains=gains,
        path_delays=np.zeros((n_rx, n_tx)))


def zf_links_exactness(n_cases: int, seed: int = 117) -> None:
    """`zf_decode_links` over a stack of links equals decoding each link alone
    the old way, field by field, with floats compared bit for bit.

    Stacks hold 1-6 links of one shape, K = 52 or 108, each link regular,
    mixed, all singular, with a dead TX column (infinite condition numbers)
    or dark, and sometimes a zero-gain path. Links of different shapes raise.
    """
    rng = np.random.default_rng(seed)
    kinds = ("regular", "mixed", "singular", "dead-column", "dark")
    seen = dict.fromkeys(("solvable", "unsolvable", "infinite-cond", "stack"), 0)
    for _ in range(n_cases):
        n_subc = int(rng.choice([52, 108]))
        n_tx = int(rng.integers(1, 4))
        n_rx = n_tx + int(rng.integers(0, 2))
        cms = [_random_zf_link(rng, str(rng.choice(kinds)), n_subc, n_rx, n_tx)
               for _ in range(int(rng.integers(1, 7)))]
        power = rng.uniform(0.1, 10.0, size=n_tx) if rng.random() < 0.5 else 1.0
        noise = rng.uniform(1e-9, 1e-3, size=n_rx) if rng.random() < 0.5 else 1e-6
        got = zf_decode_links(cms, power, noise)
        assert len(got) == len(cms)
        for g, cm in zip(got, cms):
            want = _reference_zf_decode(cm, power, noise)
            assert g.solvable is want.solvable
            assert np.array_equal(_bits(g.per_stream_snr_db), _bits(want.per_stream_snr_db))
            assert np.array_equal(_bits(g.condition_number), _bits(want.condition_number))
            assert all(type(x) is float for x in (*g.per_stream_snr_db, g.condition_number))
            seen["solvable" if want.solvable else "unsolvable"] += 1
            seen["infinite-cond"] += want.condition_number == math.inf
        seen["stack"] += len(cms) > 1
        assert zf_decode_links(cms[:1], power, noise) == got[:1]
    if n_cases >= 20:
        assert min(seen.values()) > 0, seen
    assert zf_decode_links([], 1.0, 1.0) == []
    a = _random_zf_link(rng, "regular", 52, 2, 2)
    for other in (_random_zf_link(rng, "regular", 108, 2, 2),
                  _random_zf_link(rng, "regular", 52, 3, 2),
                  _random_zf_link(rng, "regular", 52, 2, 1)):
        try:
            zf_decode_links([a, other], 1.0, 1.0)
        except ValueError as exc:
            assert "one (subcarriers, n_rx, n_tx) shape" in str(exc)
        else:
            raise AssertionError("links of different shapes were decoded together")


def _reference_area2_tilt(imbalance_db):
    """`presets.area2_tilt_for_imbalance` as it was: a probe front-end per step."""
    if not imbalance_db >= 0.0:
        raise ValueError(
            f"imbalance of {imbalance_db} dB is not reachable by tilting: the reachable "
            "range is about [0, 0.59] dB")
    if imbalance_db == 0.0:
        return 0.0
    tx_a, tx_b = presets._area_tx("a"), presets._area_tx("b")

    def skew(tilt):
        a = math.radians(tilt)
        probe = Receiver(id="probe", position=np.array([0.0, 2.0, -0.1]),
                         boresight=_unit(np.array([math.sin(a), -math.cos(a), 0.0])),
                         fov_half_angle=30.0, active_area=1e-4)
        ga, _ = los_gain(tx_a, probe)
        gb, _ = los_gain(tx_b, probe)
        return 10.0 * math.log10(ga / gb) + imbalance_db

    if skew(15.5) > 0.0:
        raise ValueError(
            f"imbalance of {imbalance_db} dB is not reachable by tilting "
            "within the receiver FOV (max is about 0.59 dB)")
    return _numerics.brentq(skew, 0.0, 15.5, xtol=1e-12)


def area_tilt_exactness(n_points: int) -> None:
    """The tilt solve without front-ends returns the reference solve's float,
    bit for bit, at the height of the tilted area-2 receiver, and raises its errors."""
    receivers = {rx.id: rx for rx in presets.mimo_area_scene(0.5).receivers}
    assert receivers["rx_b2_tilted"].position.tolist() == [0.0, 2.0, -0.1]
    for imbalance in np.linspace(0.0, 0.59, n_points + 1)[1:].tolist():
        got = presets.area2_tilt_for_imbalance(imbalance)
        assert type(got) is float and got.hex() == _reference_area2_tilt(imbalance).hex()
    for imbalance in (0.0, -0.0, -1e-9, -1.0, -math.inf, math.nan, 0.61, 2.0, math.inf):
        outcomes = []
        for solve in (presets.area2_tilt_for_imbalance, _reference_area2_tilt):
            try:
                outcomes.append(solve(imbalance))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (imbalance, outcomes)
        assert type(outcomes[0]) is str or imbalance == 0.0


def _payload_symbols(bits, mcs, n_subcarriers):
    """Payload bits spread over (stream, subcarrier, time), the tail zero-padded."""
    bps = MODULATION_BITS[mcs.modulation]
    per_sym = bps * mcs.n_streams * n_subcarriers
    n_ofdm = max(1, math.ceil(bits.size / per_sym))
    padded = np.zeros(n_ofdm * per_sym, dtype=np.int64)
    padded[:bits.size] = bits
    syms = modulate(padded, mcs.modulation)
    return syms.reshape(n_ofdm, mcs.n_streams, n_subcarriers).transpose(1, 2, 0)


def _reference_frame(cm: ChannelMatrix, mcs, frame: FrameSpec,
                     snr_db: float, seed: int) -> tuple[int, bool]:
    """Simulate one frame end to end; returns (bit_errors, frame_ok).

    Deterministic for a fixed seed. One stream is equalized by MRC, two by ZF.
    """
    n_streams = mcs.n_streams
    if cm.n_rx < n_streams:
        raise ValueError(
            f"{cm.n_rx} receive chain(s) cannot carry {n_streams} streams")
    if n_streams > cm.n_tx:
        raise ValueError(f"{cm.n_tx} transmit element(s) cannot carry {n_streams} streams")

    rng = np.random.default_rng(seed)
    n_bits = frame.payload_bytes * 8
    bits = rng.integers(0, 2, size=n_bits)
    x = _payload_symbols(bits, mcs, len(cm.subcarrier_freqs))  # (n_streams, K, T)
    n_ofdm = x.shape[2]

    h = _effective_channel(cm, n_streams)  # (K, n_rx, n_streams)
    # Mean per-chain received signal power for unit-energy streams; the noise
    # level is referenced to it so snr_db is the average receive SNR.
    p_ref = float(np.mean(np.sum(np.abs(h) ** 2, axis=2)))
    n0 = p_ref * 10.0 ** (-snr_db / 10.0)
    noise = math.sqrt(n0 / 2.0) * (
        rng.standard_normal((cm.n_rx, len(cm.subcarrier_freqs), n_ofdm))
        + 1j * rng.standard_normal((cm.n_rx, len(cm.subcarrier_freqs), n_ofdm)))
    # y[i, k, t] = sum_s h[k, i, s] x[s, k, t] + noise
    y = np.einsum("kis,skt->ikt", h, x) + noise

    if n_streams == 1:
        hk = h[:, :, 0].T  # (n_rx, K)
        weights = hk.conj()
        denom = np.sum(np.abs(hk) ** 2, axis=0)
        denom = np.where(denom > 0, denom, 1.0)
        x_hat = (np.sum(weights[:, :, None] * y, axis=0) / denom[:, None])[None, :, :]
    else:
        w = np.linalg.pinv(h)  # (K, n_streams, n_rx)
        x_hat = np.einsum("ksi,ikt->skt", w, y)

    rx_bits = demodulate(x_hat.transpose(2, 0, 1).reshape(-1), mcs.modulation)
    bit_errors = int(np.count_nonzero(rx_bits[:n_bits] != bits))
    return bit_errors, bit_errors == 0


def _reference_fsr(cm: ChannelMatrix, mcs, frame: FrameSpec,
                   snr_db: float, n_frames: int, seed: int) -> float:
    """Fraction of error-free frames over per-frame seeds seed, seed+1, ..."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    ok = 0
    for i in range(n_frames):
        _, frame_ok = _reference_frame(cm, mcs, frame, snr_db, seed + i)
        ok += frame_ok
    return ok / n_frames


def oracle_frame_exactness(n_cases: int, seed: int = 114) -> None:
    """The prepared oracle frame equals the one-call-per-frame oracle exactly.

    `_reference_frame` and `_reference_fsr` are the oracle's `simulate_frame`
    and `empirical_fsr` as they were when every frame redid the per-channel
    work and formed the signal and the ZF output with einsum. Cases cycle
    through flat, random gain/delay and rank-deficient channels (every TX
    column proportional to the first, or dead chains) with 1-3 chains and up
    to 3 TX elements, at 20 and 40 MHz, MCS 0-15 (MRC for one stream, ZF for
    two), and payloads that mostly need padding. Some SNRs are so high or infinite that on
    rank-deficient ZF links the rounding of the arithmetic alone decides
    bits, so a change of even one ulp in the signal or the equalizer shows.
    Every tenth case also compares a short Monte-Carlo FSR.
    """
    rng = np.random.default_rng(seed)
    seen = {"padded": 0, "rounding-decided": 0}
    for case in range(n_cases):
        entry = mcs(int(rng.integers(0, 16)))
        n_streams = entry.n_streams
        n_rx, n_tx = int(rng.integers(n_streams, 4)), int(rng.integers(n_streams, 4))
        n_subc = 52 if rng.random() < 0.5 else 108
        freqs = subcarrier_frequencies(20 if n_subc == 52 else 40)
        kind = case % 3
        if kind == 0:
            gains, delays = np.eye(n_rx, n_tx), np.zeros((n_rx, n_tx))
        else:
            gains = rng.uniform(0.05, 1.5, size=(n_rx, n_tx))
            delays = rng.uniform(0.0, 20e-9, size=(n_rx, n_tx))
        ties = kind == 2 and rng.random() < 0.5
        if kind == 2:
            # Equal TX columns make two-stream ZF output exact midpoints
            # between constellation levels, so rounding decides those bits.
            gains = gains[:, :1] * (np.ones(n_tx) if ties else rng.uniform(0.5, 1.5, size=n_tx))
            delays = np.repeat(delays[:, :1], n_tx, axis=1)
            if n_rx > n_streams and rng.random() < 0.3:
                gains[n_streams:] = 0.0
        cm = ChannelMatrix.from_paths(gains, delays, freqs)
        frame = FrameSpec(payload_bytes=int(rng.integers(1, 300)), count=1)
        snr = float(rng.choice([rng.uniform(0.0, 30.0), 300.0, np.inf]))
        s = int(rng.integers(0, 2 ** 31))
        got = simulate_frame(cm, entry, frame, snr, s)
        want = _reference_frame(cm, entry, frame, snr, s)
        assert got == want, (case, entry.index, n_rx, n_tx, n_subc, kind, snr)
        per_sym = MODULATION_BITS[entry.modulation] * n_streams * n_subc
        seen["padded"] += (frame.payload_bytes * 8) % per_sym != 0
        seen["rounding-decided"] += ties and n_streams == 2 and snr > 100.0
        if case % 10 == 0:
            n = int(rng.integers(2, 6))
            assert empirical_fsr(cm, entry, dataclasses.replace(frame, count=n), snr, s) == \
                _reference_fsr(cm, entry, frame, snr, n, s)
    if n_cases >= 100:
        assert min(seen.values()) > 0, seen


def _bits(values) -> np.ndarray:
    """Bit patterns of floats, with every NaN as one pattern (its sign means nothing)."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


def _scipy_brentq(f, a, b, xtol):
    from scipy.optimize import brentq
    return brentq(f, a, b, xtol=xtol)


# libm's erfc is within 2 ulp of the exact value and scipy's cephes one within
# a few hundred, so Q differs from scipy's by far less than this (5.7e-14 on the
# points of `numerics_exactness`).
Q_RTOL = 1e-12


def _scipy_q_function(x):
    from scipy.special import erfc
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _same_outcome(f, a, b, xtol):
    """`_numerics.brentq` and scipy's give the same float, or the same error."""
    outcomes = []
    for solve in (_numerics.brentq, _scipy_brentq):
        try:
            outcomes.append(solve(f, a, b, xtol))
        except (ValueError, RuntimeError) as exc:
            outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    assert type(got) is type(want) and got == want, (a, b, xtol, got, want)
    return got


def numerics_exactness(n_points: int, seed: int = 115) -> None:
    """`vlcsim._numerics` reproduces scipy bit for bit, and `oracle.q_function`
    agrees with scipy to `Q_RTOL`.

    scipy is the reference here only; the package does not import it. `expit`
    and `logit` are compared bit pattern for bit pattern over random points,
    the branch edges, subnormals, infinities and NaN. `q_function` takes libm's
    `erfc`, not scipy's cephes one, so its values are compared at a relative
    tolerance wherever scipy's is a normal float. `brentq` is compared on the
    tilt solve of `presets`, on every waterfall solve of `oracle` for a spread
    of payloads, and on random brackets, including roots at an endpoint,
    brackets of one sign and NaN function values.
    """
    from scipy import special

    rng = np.random.default_rng(seed)

    def check(ours, reference, points):
        points = np.asarray(points, dtype=float)
        got = np.array([ours(x) for x in points.tolist()])
        want = reference(points)
        assert np.array_equal(_bits(got), _bits(want)), points[_bits(got) != _bits(want)][:5]

    edges = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324]
    check(_numerics.expit, special.expit, np.concatenate([
        rng.uniform(-40.0, 40.0, n_points), rng.uniform(-800.0, 800.0, n_points),
        [709.78, -709.78, -709.79, -745.2, 745.2], edges]))

    near = np.array([0.3, 0.65])
    check(_numerics.logit, special.logit, np.concatenate([
        rng.uniform(0.0, 1.0, n_points), 10.0 ** rng.uniform(-300.0, 0.0, n_points // 4),
        rng.uniform(0.29, 0.31, n_points // 4), rng.uniform(0.64, 0.66, n_points // 4),
        near, np.nextafter(near, 0.0), np.nextafter(near, 1.0),
        [1.0, np.nextafter(1.0, 0.0), -1.0, 2.0], edges]))

    cuts = np.array([1.0, -1.0, 8.0, -8.0])
    points = np.concatenate([
        rng.uniform(-40.0, 40.0, n_points), rng.uniform(-9.0, 9.0, n_points),
        rng.uniform(0.99, 1.01, n_points // 4), rng.uniform(7.99, 8.01, n_points // 4),
        rng.uniform(26.0, 28.0, n_points // 4), -rng.uniform(0.99, 1.01, n_points // 4),
        cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 2 * cuts),
        10.0 ** rng.uniform(-323.0, -300.0, 100), edges])
    # oracle.q_function maps libm's erfc and keeps shape and type (0-d -> scalar).
    for x in (points[:24].reshape(2, 3, 4), points[:7], points[0], float(points[1]),
              np.asarray(points[2]), points[:0], points, points * math.sqrt(2.0)):
        got, want = oracle.q_function(x), _scipy_q_function(x)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        normal = np.abs(want) >= sys.float_info.min
        rel = np.abs(got - want)[normal] / want[normal]
        assert np.all(rel <= Q_RTOL), (rel.max(), x[normal][rel > Q_RTOL][:5])

    for imbalance in np.linspace(0.0, 0.59, 60)[1:]:
        got = presets.area2_tilt_for_imbalance(float(imbalance))
        with mock.patch.object(presets, "brentq", _scipy_brentq):
            want = presets.area2_tilt_for_imbalance(float(imbalance))
        assert type(got) is float and got == want, imbalance
    assert _numerics.expit(1.0) == special.expit(1.0)
    assert _numerics.expit(-1.0) == special.expit(-1.0)
    for modulation in MODULATION_BITS:
        for payload in (1, 2, 7, 40, 100, 333, 1000, 1500, 4095):
            got = oracle.oracle_waterfall(modulation, payload * 8)
            with mock.patch.multiple(oracle, brentq=_scipy_brentq, expit=special.expit):
                want = oracle.oracle_waterfall(modulation, payload * 8)
            assert got == want and all(type(v) is float for v in got), (modulation, payload)

    shapes = (lambda x, r: x - r, lambda x, r: x ** 3 - r ** 3,
              lambda x, r: math.tanh(4.0 * (x - r)), lambda x, r: math.exp(x) - math.exp(r),
              lambda x, r: -1.0 if x < r else 1.0)
    for case in range(max(n_points // 20, 50)):
        r = float(rng.uniform(-3.0, 3.0))
        f = lambda x, shape=shapes[case % len(shapes)], r=r: shape(x, r)
        a, b = rng.uniform(-5.0, 5.0, 2).tolist()
        xtol = float(10.0 ** rng.uniform(-14.0, -2.0))
        _same_outcome(f, a, b, xtol)
        assert _same_outcome(f, r, b, xtol) == r or case % len(shapes) > 1
    assert _same_outcome(lambda x: x - 2.0, 0.0, 1.0, 1e-12)[0] is ValueError
    assert _same_outcome(lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0, 1e-12)[0] \
        is ValueError
    assert _same_outcome(lambda x: -1.0 if x < 1e-310 else 1.0, -1.0, 1.0, 5e-324)[0] \
        is RuntimeError


ALL_SUITES = (
    mrc_properties,
    fsr_monotonicity,
    gain_distance_monotonicity,
    phase_delay_consistency,
    bit_reproducibility,
    zf_orthogonal_exactness,
    row_alignment_monotonicity,
    blockage_continuity,
)

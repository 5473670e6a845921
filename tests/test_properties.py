"""Randomized invariant checks (smaller case counts than the acceptance run)."""

import _property_suites as suites


def test_mrc_dominance_permutation_associativity():
    suites.mrc_properties(300)


def test_fsr_monotone_in_snr():
    suites.fsr_monotonicity(300)


def test_gain_follows_inverse_square():
    suites.gain_distance_monotonicity(300)


def test_phase_tracks_delay():
    suites.phase_delay_consistency(300)


def test_oracle_bit_reproducibility():
    suites.bit_reproducibility(100)


def test_zf_matches_matched_filter_on_orthogonal_columns():
    suites.zf_orthogonal_exactness(300)


def test_row_alignment_never_helps():
    suites.row_alignment_monotonicity(300)


def test_one_live_branch_keeps_frames_flowing():
    suites.blockage_continuity(300)


def test_scenario_rerun_is_identical():
    suites.scenario_reproducibility()


def test_blockage_timeline_per_state_evaluation_is_exact():
    suites.blockage_timeline_exactness(60)


def test_siso_sweep_without_channel_matrices_is_exact():
    suites.siso_sweep_exactness(60)


def test_handover_sweep_without_channel_matrices_is_exact():
    suites.handover_sweep_exactness(60)


def test_link_csv_equals_csv_writer_over_row_lists():
    suites.link_csv_exactness(60)


def test_batched_zf_kernel_equals_per_subcarrier_loop():
    suites.zf_batched_exactness(120)


def test_stacked_zf_links_equal_one_decode_per_link():
    suites.zf_links_exactness(150)


def test_tilt_solve_without_front_ends_is_exact():
    suites.area_tilt_exactness(120)


def test_prepared_oracle_frame_equals_per_frame_oracle():
    suites.oracle_frame_exactness(600)


def test_numerics_equal_scipy_bit_for_bit():
    suites.numerics_exactness(20000)

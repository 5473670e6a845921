"""Randomized invariant checks (smaller case counts than the acceptance run)."""

import os
import subprocess
import sys

import _property_suites as suites
import numpy as np
import pytest

import vlcsim


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


def test_sweep_kernels_are_exact_under_avx2_kernels():
    """Both sweep suites in a child process that runs numpy's AVX2 (x86-64-v3)
    loops and OpenBLAS's Haswell kernels, as a host without AVX-512 would: the
    batched dots round as the scalar kernel's there too."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    if "X86_V3" not in found:
        pytest.skip("the Haswell kernels need AVX2 and FMA (x86-64-v3)")
    blas = np.show_config("dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("OPENBLAS_CORETYPE needs an OpenBLAS built with DYNAMIC_ARCH")
    # The child imports this checkout's vlcsim and the suites, as this process does.
    paths = [os.path.dirname(suites.__file__), os.path.dirname(os.path.dirname(vlcsim.__file__))]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join(paths))
    above = found[found.index("X86_V3") + 1:]
    if above:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(above)
    code = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
            "import _property_suites as suites\n"
            "print([f for f in __cpu_dispatch__ if __cpu_features__[f]])\n"
            "suites.siso_sweep_exactness(60)\n"
            "suites.handover_sweep_exactness(60)\n")
    child = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[0] == "['X86_V3']", child.stdout
    assert "Core: Haswell" in child.stdout + child.stderr


def test_link_csv_equals_csv_writer_over_row_lists():
    suites.link_csv_exactness(60)


def test_batched_zf_kernel_equals_per_subcarrier_loop():
    suites.zf_batched_exactness(120)


def test_stacked_zf_links_equal_one_decode_per_link():
    suites.zf_links_exactness(150)


def test_stacked_entries_kernel_equals_from_paths_per_link():
    suites.path_entries_exactness(200)


def test_tilt_solve_without_front_ends_is_exact():
    suites.area_tilt_exactness(120)


def test_prepared_oracle_frame_equals_per_frame_oracle():
    suites.oracle_frame_exactness(600)


def test_numerics_equal_scipy_bit_for_bit():
    suites.numerics_exactness(20000)

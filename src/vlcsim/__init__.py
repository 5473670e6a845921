"""Link-level simulator for MIMO visible-light communication.

Lambertian LOS optics drive an 802.11n-style OFDM PHY; receiver-side spatial
techniques (MRC, selection combining, zero-forcing multiplexing) are evaluated
through scripted, seed-reproducible scenarios.
"""

from .channel import (ChannelMatrix, FrontEnd, NO_SIGNAL_DBM, Obstacle, Scene,
                      channel_matrix, lambertian_order, los_gain, rssi_per_chain,
                      scene_paths, subcarrier_frequencies, wideband_rssi_dbm)
from .errors import NoLinkError, UnderdeterminedError, ValidationError
from .mimo import MimoConfig, PostSnr, mrc_combine, zf_decode, zf_decode_links
from .oracle import empirical_fsr, oracle_snr_for, simulate_frame
from .phy import FrameSpec, McsEntry, fsr, mcs, mcs_table, phy_rate, snr_for_fsr
from .scenarios import (CsiReport, FrameTrace, report_csi, run_blockage_timeline,
                        run_csi_report, run_handover_sweep, run_mimo_area_grid,
                        run_mimo_area_grids, run_mrc_fsr_point, run_siso_sweep)
from .sceneconfig import parse_scene, read_scene_file, scene_to_text

__version__ = "0.1.0"

__all__ = [
    "ChannelMatrix", "FrontEnd", "NO_SIGNAL_DBM", "Obstacle", "Scene",
    "channel_matrix", "lambertian_order", "los_gain", "rssi_per_chain",
    "scene_paths", "subcarrier_frequencies", "wideband_rssi_dbm",
    "NoLinkError", "UnderdeterminedError", "ValidationError",
    "MimoConfig", "PostSnr", "mrc_combine", "zf_decode", "zf_decode_links",
    "empirical_fsr", "oracle_snr_for", "simulate_frame",
    "FrameSpec", "McsEntry", "fsr", "mcs", "mcs_table", "phy_rate", "snr_for_fsr",
    "CsiReport", "FrameTrace", "report_csi", "run_blockage_timeline",
    "run_csi_report", "run_handover_sweep", "run_mimo_area_grid",
    "run_mimo_area_grids", "run_mrc_fsr_point", "run_siso_sweep",
    "parse_scene", "read_scene_file", "scene_to_text",
]

"""The check of a written CSV against `csv.writer`, the reference vlcsim's own
text records must match.

vlcsim formats its CSV records itself. `check_written_csv` holds a run's
output to what `csv.writer` writes for the same cells: RFC 4180 records with
CRLF line ends, and a cell quoted only when it holds a comma, a quote or a
line break.
"""

import csv
import io
import json
import math
import pathlib


# A link file's RSSI and SNR cells are finite, or -inf for a chain that
# receives nothing. Its combined cell, named here, reads -inf exactly when every
# chain does: the SISO SNR when the RSSI does, the MRC RSSI when each chain's.
_LINK_COMBINED = {"siso-sweep": "snr_db", "blockage-timeline": "combined_rssi_dbm",
                  "handover-sweep": "rssi_mrc_dbm"}
# The SNRs of these files are placed or swept, never received, so always finite.
_FINITE_SNR = ("mrc-fsr-point", "oracle-check")


def _check_domains(scenario, header, records):
    """Assert the domain of each column that has one (see the README's CSV schemas)."""
    columns = {name: [row[i] for row in records] for i, name in enumerate(header)}
    for name, cells in columns.items():
        if name.startswith("fsr_"):
            assert all(0.0 <= float(c) <= 1.0 for c in cells), (scenario, name)
    if scenario in _LINK_COMBINED:
        combined = _LINK_COMBINED[scenario]
        chains = [name for name in header if "rssi" in name and name != combined]
        for name in [*chains, combined]:
            assert all(math.isfinite(float(c)) or c == "-inf" for c in columns[name]), (
                scenario, name)
        for k, cell in enumerate(columns[combined]):
            assert (cell == "-inf") == all(columns[name][k] == "-inf" for name in chains), (
                scenario, records[k])
    if scenario in _FINITE_SNR:
        for name in (name for name in header if name.endswith("snr_db")):
            assert all(math.isfinite(float(c)) for c in columns[name]), (scenario, name)
    if scenario == "mimo-area-grid":
        # A stream SNR is -inf only on a row that ZF cannot solve.
        for name in ("snr_stream_a_db", "snr_stream_b_db"):
            for cell, solvable in zip(columns[name], columns["solvable"]):
                assert math.isfinite(float(cell)) or (cell == "-inf" and solvable == "False"), (
                    scenario, name, cell, solvable)


def check_written_csv(out_dir):
    """Check the one `<scenario>.csv` in `out_dir` and the row count of its summary.

    The file must be `csv.writer`'s re-serialization of its own parse, byte
    for byte; every record must have as many cells as the header; no cell may
    read `None` or `nan`; and every column must lie in its domain: FSRs in
    [0, 1], link RSSIs and SNRs finite or -inf where nothing is received,
    placed SNRs finite, and area-grid stream SNRs -inf only when unsolvable.
    """
    (path,) = pathlib.Path(out_dir).glob("*.csv")
    written = path.read_bytes()
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    again = io.StringIO()
    csv.writer(again).writerows(rows)
    assert again.getvalue().encode() == written, path.name
    header, *records = rows
    for record in records:
        assert len(record) == len(header), (path.name, record)
        assert not any(cell == "None" or cell.lower() == "nan" for cell in record), (
            path.name, record)
    _check_domains(path.stem, header, records)
    summary = json.loads((pathlib.Path(out_dir) / "summary.json").read_text())
    assert summary["rows"] == len(records), path.name

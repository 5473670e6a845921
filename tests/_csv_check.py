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
import pathlib


def check_written_csv(out_dir):
    """Check the one `<scenario>.csv` in `out_dir` and the row count of its summary.

    The file must be `csv.writer`'s re-serialization of its own parse, byte
    for byte; every record must have as many cells as the header; no cell may
    read `None` or `nan`; and every `fsr_*` cell must lie in [0, 1].
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
    for col in (i for i, name in enumerate(header) if name.startswith("fsr_")):
        assert all(0.0 <= float(record[col]) <= 1.0 for record in records), (
            path.name, header[col])
    summary = json.loads((pathlib.Path(out_dir) / "summary.json").read_text())
    assert summary["rows"] == len(records), path.name

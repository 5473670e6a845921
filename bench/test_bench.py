"""Self-tests of the benchmark: span arithmetic, the digest gate, metric names."""

import json
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = ["--scenario", "csi-report", "--seed", "1", "--set", "bits=4", "--set",
         "bandwidth_mhz=20"]


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_aggregate_takes_counts_per_pass_and_median_self_time():
    spans = {"name": ["cli.main", "mimo.zf_decode", "cli.main", "mimo.zf_decode",
                      "mimo.zf_decode"],
             "parent": [-1, 0, -1, 2, 2], "invocation": [0, 0, 1, 1, 1],
             "raised": [0, 0, 0, 0, 1],
             "start": [0.0, 1.0, 10.0, 11.0, 13.0], "end": [5.0, 2.0, 20.0, 12.0, 15.0]}
    samples = {m: [] for m in tracer.COUNT_METRICS}
    samples["presets.tilt_solves_per_imbalance"] = [(0, 0.1), (0, 0.1), (1, 0.2), (1, 0.3)]
    out = tracer.aggregate(spans, samples, pass_of_invocation=[0, 1], n_passes=2)
    assert out["mimo.zf_decode.calls"] == 1.5
    assert out["mimo.zf_decode.self_s"] == 2.0   # median of 1.0 and 3.0
    assert out["mimo.zf_decode.us_per_call"] == 4.0 / 3 * 1e6
    assert out["cli.main.self_s"] == 5.5         # median of 4.0 and 7.0
    assert out["mimo.errors"] == 0.5
    assert out["oracle.self_s"] == 0.0
    assert out["presets.tilt_solves_per_imbalance"] == 1.5  # median of 2/1 and 2/2


def test_import_breakdown_counts_each_group_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy._core",
        "import time:       100 |        110 |     numpy",
        "import time:        20 |        130 |   vlcsim.channel",
        "import time:         5 |          5 |         numpy.fft",
        "import time:        40 |         45 |       scipy.special",
        "import time:        10 |         55 |     scipy",
        "import time:         5 |         60 |   vlcsim.phy",
        "import time:         2 |        192 | vlcsim",
    ])
    out = tracer.import_breakdown(text)
    assert out == {"import.numpy_s": 110e-6, "import.scipy_s": 55e-6,
                   "import.vlcsim_s": 192e-6}


def test_digest_mismatch_counts_as_failure(tmp_path):
    from vlcsim import cli

    golden = workloads.load_golden()
    good = workloads.invoke(cli.main, SMALL, str(tmp_path), golden)
    assert good.ok and good.digests == golden[workloads.key(SMALL)]
    wrong = {workloads.key(SMALL): ["0" * 64, good.digests[1]]}
    bad = workloads.invoke(cli.main, SMALL, str(tmp_path), wrong)
    assert not bad.ok and bad.reason == "digest mismatch"
    missing = workloads.invoke(cli.main, SMALL, str(tmp_path), {})
    assert not missing.ok and missing.reason == "no reference digest"


def test_tracing_rebinds_imported_names_and_keeps_outputs(tmp_path):
    from vlcsim import cli, scenarios

    original = scenarios.channel_matrix
    tr = tracer.Tracer()
    tr.install()
    try:
        assert scenarios.channel_matrix is not original
        assert scenarios.channel_matrix.__wrapped__ is original
        tr.invocation = 0
        outcome = workloads.invoke(cli.main, SMALL, str(tmp_path), workloads.load_golden())
    finally:
        tr.uninstall()
    assert scenarios.channel_matrix is original
    assert outcome.ok
    names = tr.spans()["name"]
    assert names[0] == "cli.main" and tr.parent[0] == -1
    assert "scenarios.run_csi_report" in names and "channel.channel_matrix" in names


def test_passes_draw_only_from_the_recorded_pool():
    golden = workloads.load_golden()
    for workload in workloads.WORKLOADS:
        assert {workloads.key(a) for a in workloads.pool(workload)} <= golden.keys()
        for seed in (1, 2):
            for index in range(3):
                argvs = workloads.make_pass(workload, seed, index)
                assert argvs == workloads.make_pass(workload, seed, index)
                assert all(workloads.key(a) in golden for a in argvs)
    assert len(workloads.make_pass("zf-area", 1, 0)) == workloads.ITEMS["zf-area"][1]


def test_metric_names_and_units_match_benchmark_json():
    bench = _benchmark_json()
    names = ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
             + [w["name"] for w in bench["workloads"]])
    assert all(NAME_RE.fullmatch(n) for n in names), [n for n in names
                                                      if not NAME_RE.fullmatch(n)]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        tracer.per_layer_metrics()
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS

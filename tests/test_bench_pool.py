"""The benchmark's recorded digests: one pool invocation per scenario and workload.

`bench/golden.json` holds the SHA-256 of the outputs of every invocation a
benchmark run may draw. A change that moves one of them fails the benchmark;
replaying the pools here fails the same change in the test suite first: the
whole link-scaled and zf-area pools, every 8th oracle-mc invocation, and one
invocation of each scenario of each workload. Those last are replayed again
under `bench/tracer.py`, whose probes read some layer functions' arguments by
name, so a renamed parameter that would crash a traced benchmark run fails
here too. The module only reads `bench/`.
"""

import importlib.util
import pathlib

import pytest

from vlcsim import cli
from vlcsim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")
tracer = _bench_module("tracer")


def _first_of_each_scenario():
    for workload in workloads.WORKLOADS:
        seen = set()
        for argv in workloads.pool(workload):
            scenario = argv[argv.index("--scenario") + 1]
            if scenario not in seen:
                seen.add(scenario)
                yield pytest.param(argv, id=f"{workload}-{scenario}")


CASES = list(_first_of_each_scenario())

# An oracle-mc invocation simulates 50-100 frames, so only every 8th (20 of
# 160) is replayed in full; the other pools are cheap and replayed whole.
POOL_STRIDE = {"oracle-mc": 8, "link-scaled": 1, "zf-area": 1}


def test_every_scenario_of_each_workload_is_replayed():
    assert len(CASES) == 7


@pytest.mark.parametrize("argv", CASES)
def test_pool_invocation_writes_its_recorded_digests(argv, tmp_path, monkeypatch):
    # Pool invocations name their scene files relative to the repository root.
    monkeypatch.chdir(ROOT)
    outcome = workloads.invoke(main, argv, str(tmp_path), workloads.load_golden())
    assert outcome.ok, outcome.reason


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_pool_writes_its_recorded_digests(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = workloads.load_golden()
    argvs = workloads.pool(workload)[::POOL_STRIDE[workload]]
    failed = [workloads.key(argv) for argv in argvs
              if not workloads.invoke(main, argv, str(tmp_path), golden).ok]
    assert not failed


@pytest.mark.parametrize("argv", CASES)
def test_traced_pool_invocation_writes_its_recorded_digests(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.invocation = 0
        # Looked up after install: the tracer rebinds `cli.main` to its wrapper.
        outcome = workloads.invoke(cli.main, argv, str(tmp_path), workloads.load_golden())
    finally:
        tr.uninstall()
    assert outcome.ok, outcome.reason
    assert tr.spans()["name"][0] == "cli.main"

"""The benchmark's worker (`perfbench/worker.py`) drives the package through
the calls the command line makes: `run_consensus(...).phis`, the plant
record's `meta`, `cli._emit` and `cli.summarize`.  Each workload runs once
here, at seed 1, through the worker's own `Run` and its output checks, so a
change to the package that breaks the benchmark fails in the test suite.
The files under perfbench/ are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import qsdcsim
import qsdcsim.cli  # noqa: F401  (Run reads qsdcsim.cli, which the worker's main imports)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module, with no bytecode written next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = load("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_worker_runs_and_checks_each_workload(workload, tmp_path, monkeypatch):
    # the worker imports its sibling modules calibrate and checks by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delenv("QSDC_OUT_DIR", raising=False)
    worker = load("worker")
    scenario, out = tmp_path / "scenario.json", tmp_path / "out"
    scenario.write_text(json.dumps(WORKLOADS.make_scenario(workload, 1)))
    out.mkdir()
    job = worker.Run(qsdcsim, str(scenario))
    start, end, steps = job.run(str(out))
    assert end >= start and steps > 0
    job.check(str(out))  # raises checks.CheckFailed with the reason

"""Self-tests of the benchmark (about two minutes):

    python3 -m pytest -q perfbench/selftest.py

Each correctness check accepts real outputs of its workload and rejects
corrupted copies; a smoke-sized run of every workload prints every metric of
BENCHMARK.json with its unit; the tracer reports a missing function as absent
and its call counts repeat exactly for the same seed; the layers' self times
add up to the traced run_s.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_scenario  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(workload: str, tmp: Path, seed: int = 3, *flags: str) -> tuple[dict, Path]:
    tmp.mkdir(parents=True, exist_ok=True)
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(make_scenario(workload, seed)))
    out, result = tmp / "out", tmp / "result.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(ROOT / "src"), str(scenario),
                    str(out), str(result), *flags], check=True, timeout=170)
    return json.loads(result.read_text()), out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untraced operation of every workload: (result, doc, output dir)."""
    made = {}
    for workload in WORKLOADS:
        tmp = tmp_path_factory.mktemp(workload)
        result, out = run_worker(workload, tmp)
        made[workload] = (result, make_scenario(workload, 3), out)
    return made


def _copy(out: Path, tmp: Path) -> Path:
    dest = tmp / "corrupt"
    shutil.copytree(out, dest)
    return dest


def _rewrite_csv(path: Path, edit) -> None:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    edit(header, data)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def _cols(header, prefix):
    return [k for k, name in enumerate(header) if name.startswith(prefix + "_")]


def test_every_workload_passes_its_check(outputs):
    for workload, (result, _doc, _out) in outputs.items():
        assert result["ok"], (workload, result.get("reason"))


def _plant_files(out: Path):
    return out / "plant_ac15_pnp_timeseries.csv", out / "plant_ac15_pnp_timeseries_summary.json"


@pytest.mark.parametrize("corruption", ["dropped_event", "offline_flag", "frequency", "sharing"])
def test_plant_check_rejects(outputs, tmp_path, corruption):
    _result, doc, out = outputs["plant-ac15-pnp"]
    csv, summary = _plant_files(_copy(out, tmp_path))
    if corruption == "dropped_event":
        s = json.loads(summary.read_text())
        s["events_applied"].pop(2)
        summary.write_text(json.dumps(s))
    elif corruption == "offline_flag":
        _rewrite_csv(csv, lambda h, d: d.__setitem__((-1, _cols(h, "online")[7]), 0.0))
    elif corruption == "frequency":
        _rewrite_csv(csv, lambda h, d: d.__setitem__((slice(-50, None), _cols(h, "omega")[0]),
                                                      d[-50:, _cols(h, "omega")[0]] + 0.01))
    else:
        _rewrite_csv(csv, lambda h, d: d.__setitem__((slice(-50, None), _cols(h, "pinner")[3]),
                                                     d[-50:, _cols(h, "pinner")[3]] * 1.05))
    with pytest.raises(checks.CheckFailed):
        checks.check_plant(doc, csv, summary)


@pytest.mark.parametrize("corruption", ["shifted", "nan", "truncated"])
def test_consensus_check_rejects(outputs, tmp_path, corruption):
    _result, doc, out = outputs["consensus-sampled"]
    csv = _copy(out, tmp_path) / "consensus_sampled_trajectory.csv"
    if corruption == "shifted":
        _rewrite_csv(csv, lambda h, d: d.__setitem__((slice(None), _cols(h, "phi")),
                                                     d[:, _cols(h, "phi")] + 0.6))
    elif corruption == "nan":
        _rewrite_csv(csv, lambda h, d: d.__setitem__((100, _cols(h, "phi")[2]), math.nan))
    else:
        lines = csv.read_text().splitlines(keepends=True)
        csv.write_text("".join(lines[:-10]))
    with pytest.raises(checks.CheckFailed):
        checks.check_consensus_sampled(doc, csv)


def test_dense_check_rejects_shifted_phases(outputs, tmp_path):
    _result, doc, out = outputs["dense-ring6"]
    csv = _copy(out, tmp_path) / "dense_ring6_trajectory.csv"
    reference = checks.node_columns(checks.read_csv(csv), "phi")
    checks.check_dense(doc, csv, reference)
    with pytest.raises(checks.CheckFailed):
        checks.check_dense(doc, csv, reference + 1e-5)


@pytest.mark.parametrize("corruption", ["informed", "naive", "z_bias", "shots"])
def test_eve_check_rejects(outputs, tmp_path, corruption):
    _result, doc, out = outputs["eve-intercept"]
    path = _copy(out, tmp_path) / "eve_intercept_eve.json"
    report = json.loads(path.read_text())
    if corruption == "informed":
        report["informed_phi"] += 0.1
    elif corruption == "naive":
        report["naive_phi"] = doc["eve"]["phi"]
    elif corruption == "z_bias":
        report["bases"]["Z"]["zeros"] += 500
        report["bases"]["Z"]["ones"] -= 500
    else:
        report["shots_total"] -= 1
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed):
        checks.check_eve(doc, path)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(trace):
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=175, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if trace == 0:
            for name, unit in units.items():
                assert any(line.strip().startswith(name) and unit in line for line in lines)
        else:
            share = result["metrics"]["trace.unattributed_s"]["value"] / \
                result["metrics"]["trace.run_s"]["value"]
            assert share <= 0.2, (workload, share)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-ring6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import qsdcsim  # noqa: F401
    import qsdcsim.cli  # noqa: F401

    monkeypatch.setitem(tracer.TRACED, "netgraph.renamed_away", ("netgraph.renamed_away",))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["netgraph.renamed_away"]
        g = qsdcsim.netgraph.build_graph(3, [(0, 1), (1, 2)])
        g.subgraph({0, 1})
    finally:
        t.uninstall()
    layers = t.layers()
    assert layers["netgraph.CommGraph.subgraph"]["calls"] == 1
    assert layers["netgraph.renamed_away"]["calls"] == 0
    assert not hasattr(qsdcsim.netgraph.CommGraph.subgraph, "__wrapped__")


def test_traced_call_counts_repeat(tmp_path):
    for workload in ("dense-ring6", "plant-ac15-pnp"):
        calls = []
        for k in range(2):
            result, _out = run_worker(workload, tmp_path / f"{workload}{k}", 3, "--trace")
            calls.append({name: v["calls"] for name, v in result["layers"].items()})
        assert calls[0] == calls[1]
        key = "engine.evolve" if workload == "dense-ring6" else "netgraph.CommGraph.subgraph"
        assert calls[0][key] > 0 and calls[0]["measurement.stream_rng"] > 0


def test_traced_self_times_add_up_to_run_s(tmp_path):
    result, _out = run_worker("dense-ring6", tmp_path, 3, "--trace")
    assert result["probes"] > 0
    in_setup = ("setup", "scenario.parse_scenario")
    total = sum(v["self_s"] for name, v in result["layers"].items() if name not in in_setup)
    # The probes take about 2% of a run; they are out of run_s and of every self time.
    assert abs(total - result["run_s"]) < 0.002 * result["run_s"]

"""Every layer the benchmark traces must still exist under its traced name
and be reached where the benchmark expects it.

`perfbench/tracer.py` finds each function by the name its caller looks up
and reports a missing one as absent, which the benchmark would read as a
layer with 0 calls.  These tests fail instead when a rename or a removal
drops a traced name, or when a plant step, a sampled consensus step, a
dense step or an eve run stops calling a layer through the name the tracer
wraps.
"""

import importlib.util
from pathlib import Path

import pytest

import qsdcsim.cli  # noqa: F401  (loads every layer module)
from qsdcsim import consensus, measurement, microgrid
from qsdcsim.netgraph import build_graph
from qsdcsim.scenario import parse_scenario

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SCENARIOS = ROOT / "scenarios"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_present():
    t = load_tracer().Tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        t.uninstall()


def test_every_per_step_plant_layer_runs_once_per_step():
    sc = parse_scenario(SCENARIOS / "ac15_pnp.json")
    ders, net = sc.ac_plant()
    t = load_tracer().Tracer()
    t.install()
    try:
        microgrid.run_plant("ac", ders, net, sc.graph(), sc.protocol(), horizon=2.0,
                            events=[microgrid.Event(time=1.0, kind="unplug",
                                                    payload={"node": 7})])
    finally:
        t.uninstall()
    calls = {name: layer["calls"] for name, layer in t.layers().items()}
    per_step = ["consensus.qsdc_step", "microgrid.ac_step", "consensus._rk4",
                "consensus.ThetaConfig.draw", "consensus._measure_node",
                "microgrid.ac_power_flow", "microgrid._solve_passive_buses"]
    assert {name: calls[name] for name in per_step} == dict.fromkeys(per_step, 200)
    assert calls["netgraph.CommGraph.subgraph"] >= 1


def test_every_per_step_sampled_layer_runs_once_per_step(monkeypatch):
    # the sampled consensus loop: one theta stream per block of
    # THETA_BLOCK steps (16 here, so 50 steps make 4 blocks)
    measurement.rekeyed_rng(0, 0)  # builds the reused generator outside the trace
    monkeypatch.setattr(consensus, "THETA_BLOCK", 16)
    consensus._theta_block.cache_clear()
    triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    cfg = consensus.ProtocolConfig(dt=0.01, shots=64, backend="bloch", seed=2)
    t = load_tracer().Tracer()
    t.install()
    try:
        consensus.run_consensus([0.2, 0.9, 1.3], 0.6, triangle, cfg, horizon=0.5)
    finally:
        t.uninstall()
        consensus._theta_block.cache_clear()  # drop the 16-row blocks
    calls = {name: layer["calls"] for name, layer in t.layers().items()}
    per_step = ["consensus.qsdc_step", "consensus._rk4", "consensus._measure_node",
                "consensus.ThetaConfig.draw"]
    assert {name: calls[name] for name in per_step} == dict.fromkeys(per_step, 50)
    assert calls["measurement.stream_rng"] == 4


def test_every_dense_layer_runs_once_per_step():
    # a full step builds rho from all nodes' angles in one call and reads
    # every node's Bloch vector back in one call
    ring = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cfg = consensus.ProtocolConfig(dt=0.01, backend="full")
    t = load_tracer().Tracer()
    t.install()
    try:
        consensus.run_consensus([0.2, 0.9, 1.3, 0.5], 0.6, ring, cfg, horizon=0.1)
    finally:
        t.uninstall()
    calls = {name: layer["calls"] for name, layer in t.layers().items()}
    per_step = ["engine.product_state", "engine.build_jump_set", "engine.evolve",
                "engine.local_bloch"]
    assert {name: calls[name] for name in per_step} == dict.fromkeys(per_step, 10)


def test_an_eve_run_calls_each_eve_layer(tmp_path, monkeypatch):
    # eve_pi6 intercepts in the cycle policy: one theta stream plus one shot
    # stream per measured basis
    monkeypatch.delenv("QSDC_OUT_DIR", raising=False)
    t = load_tracer().Tracer()
    t.install()
    try:
        code = qsdcsim.cli.main(["eve", "--scenario", str(SCENARIOS / "eve_pi6.json"),
                                 "--out", str(tmp_path)])
    finally:
        t.uninstall()
    assert code == 0
    calls = {name: layer["calls"] for name, layer in t.layers().items()}
    expected = {"measurement.constant_phase_stream": 1, "measurement.eve_intercept": 1,
                "measurement.stream_rng": 4, "measurement.sample_basis": 0}
    assert {name: calls[name] for name in expected} == expected


@pytest.mark.parametrize("command, scenario", [("consensus", "consensus3"), ("ac", "ac15")])
def test_a_run_command_writes_and_summarizes_its_record_once(tmp_path, monkeypatch, command,
                                                            scenario):
    # the tracer wraps the record's write_csv under every name it lists, so
    # a second name bound to the same class would count each write twice
    monkeypatch.delenv("QSDC_OUT_DIR", raising=False)
    t = load_tracer().Tracer()
    t.install()
    try:
        code = qsdcsim.cli.main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"),
                                 "--backend", "phase", "--dt", "0.1", "--out", str(tmp_path)])
    finally:
        t.uninstall()
    assert code == 0
    calls = {name: layer["calls"] for name, layer in t.layers().items()}
    assert (calls["cli.write_csv"], calls["cli.summarize"]) == (1, 1)

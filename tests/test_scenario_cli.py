import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsdcsim.cli import fitted_decay_rate, main, settling_time, summarize
from qsdcsim.consensus import Trajectory, convergence_rate, run_consensus
from qsdcsim.microgrid import TimeSeries
from qsdcsim.scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
)

PI = math.pi
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_consensus_doc(**extra):
    doc = {
        "schema_version": 1,
        "kind": "consensus",
        "horizon": 1.0,
        "graph": {"nodes": 2, "edges": [[0, 1]]},
        "consensus": {"initial_phi": [0.2, 0.4], "pinner": 0.3},
    }
    doc.update(extra)
    return doc


# -- parsing -----------------------------------------------------------------


def test_parse_shipped_consensus3():
    sc = parse_scenario(SCENARIOS / "consensus3.json")
    assert sc.kind == "consensus"
    g = sc.graph()
    assert g.node_count == 3 and len(g.edges) == 3
    assert sc.raw["consensus"]["pinner"] == pytest.approx(PI / 3)
    cfg = sc.protocol()
    assert cfg.backend == "full" and cfg.exact
    assert cfg.theta.values == (1.96, 1.49, 2.07)


def test_parse_all_shipped_scenarios():
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = parse_scenario(path)
        assert sc.raw["schema_version"] == 1


def test_parse_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario("/nonexistent/nowhere.json")


def test_parse_rejects_unknown_key_with_path():
    doc = minimal_consensus_doc()
    doc["consensus"]["pinnner"] = 0.3
    with pytest.raises(ScenarioError, match=r"\$\.consensus"):
        scenario_from_dict(doc)


def test_parse_rejects_bad_kind():
    doc = minimal_consensus_doc(kind="quantum_teleport")
    with pytest.raises(ScenarioError, match="kind"):
        scenario_from_dict(doc)


def test_parse_rejects_scaling_violation():
    doc = {
        "schema_version": 1,
        "kind": "ac",
        "horizon": 5.0,
        "graph": {"nodes": 2, "edges": [[0, 1]]},
        "ac": {
            "ders": [{"droop": 5e-3, "rated_kw": 40.0, "bus_load_kw": 10.0},
                     {"droop": 5e-3, "rated_kw": 40.0, "bus_load_kw": 10.0}],
            "lines": [[0, 1, 200.0]],
            "k": 8.5,  # k * max = 1.7 >= pi/2
        },
    }
    with pytest.raises(ScenarioError, match="pi/2"):
        scenario_from_dict(doc)


def test_parse_empty_events_valid():
    doc = {
        "schema_version": 1,
        "kind": "dc",
        "horizon": 2.0,
        "graph": {"nodes": 2, "edges": [[0, 1]]},
        "dc": {"ders": [{"droop_m": 1.0, "line_r": 0.01, "rated_current": 5.0}] * 2,
               "events": []},
    }
    sc = scenario_from_dict(doc)
    assert sc.plant_events() == []


def test_parse_consensus_theta_bounds():
    doc = minimal_consensus_doc(
        protocol={"theta": {"kind": "uniform", "lo": 0.0, "hi": PI}})
    with pytest.raises(ScenarioError, match="theta"):
        scenario_from_dict(doc)


def test_parse_eve_full_theta_range_allowed():
    sc = parse_scenario(SCENARIOS / "eve_pi6.json")
    assert sc.raw["eve"]["theta"]["lo"] == 0.0
    assert sc.raw["eve"]["theta"]["hi"] == pytest.approx(PI)


def test_parse_event_payload_checked():
    doc = {
        "schema_version": 1,
        "kind": "dc",
        "horizon": 5.0,
        "graph": {"nodes": 2, "edges": [[0, 1]]},
        "dc": {"ders": [{"droop_m": 1.0, "line_r": 0.01, "rated_current": 5.0}] * 2,
               "events": [{"time": 1.0, "kind": "unplug"}]},
    }
    with pytest.raises(ScenarioError, match="node"):
        scenario_from_dict(doc)


def test_parse_mixing_window_must_fit_horizon():
    doc = minimal_consensus_doc()
    doc["consensus"]["mixing"] = [
        {"nodes": [0], "t_start": 0.5, "t_end": 99.0, "p": 0.1}]
    with pytest.raises(ScenarioError, match="horizon"):
        scenario_from_dict(doc)


def test_roundtrip_identity():
    sc = parse_scenario(SCENARIOS / "ac15.json")
    text = json.dumps(sc.raw, indent=2, sort_keys=True)
    sc2 = scenario_from_dict(json.loads(text))
    assert sc2.raw == sc.raw
    assert json.dumps(sc2.raw, indent=2, sort_keys=True) == text


# -- summaries ---------------------------------------------------------------


def test_settling_time_basics():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    assert settling_time(t, np.array([1.0, 0.5, 1e-3, 1e-4]), 1e-2) == 2.0
    assert settling_time(t, np.array([1e-3] * 4), 1e-2) == 0.0
    assert settling_time(t, np.array([1.0, 1.0, 1.0, 1.0]), 1e-2) is None
    assert settling_time(t, np.array([1e-3, 1.0, 1e-3, 1e-3]), 1e-2) == 2.0


def test_summarize_constant_trajectory():
    n = 40
    traj = Trajectory(
        times=np.linspace(0.0, 1.0, n),
        phis=np.full((n, 2), 0.7),
        pinners=np.full((n, 2), 0.7),
        lyapunov=np.zeros(n),
        backend="phase", mode="qsdc", seed=0, dt=0.01,
    )
    s = summarize(traj)
    assert s["settling_time"] == 0.0
    assert s["fitted_decay_rate"] == 0.0
    assert s["steady_max_abs_zeta"] == 0.0


def test_summarize_requires_window():
    traj = Trajectory(
        times=np.linspace(0.0, 1.0, 5),
        phis=np.full((5, 1), 0.7),
        pinners=np.full((5, 1), 0.7),
        lyapunov=np.zeros(5),
        backend="phase", mode="qsdc", seed=0, dt=0.01,
    )
    with pytest.raises(ValueError, match="short"):
        summarize(traj)


def test_summarize_ac_zero_shares_is_finite():
    # all-zero shares over the final window: no 0/0, the spread reads 0
    steps, n = 20, 3
    ts = TimeSeries(
        times=np.linspace(0.0, 0.19, steps),
        data={"omega": np.full((steps, n), 60.0), "online": np.ones((steps, n)),
              "pinner": np.zeros((steps, n))},
        kind="ac",
        meta={"omega_nominal": 60.0, "k": 0.5},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = summarize(ts)
    assert s["sharing_spread_pct"] == 0.0


def test_fitted_rate_matches_convergence_bound():
    sc = parse_scenario(SCENARIOS / "consensus3.json")
    traj = run_consensus(
        sc.raw["consensus"]["initial_phi"], sc.raw["consensus"]["pinner"],
        sc.graph(), sc.protocol(backend="phase"), sc.horizon)
    mu = convergence_rate(sc.graph(), PI / 3)
    rate = fitted_decay_rate(traj.times, traj.lyapunov)
    assert rate >= 0.95 * 2.0 * mu


# -- CLI ---------------------------------------------------------------------


def run_cli(args, tmp_path, capsys):
    code = main(args + ["--out", str(tmp_path)])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_consensus_end_to_end(tmp_path, capsys):
    code, out, _ = run_cli(
        ["consensus", "--scenario", str(SCENARIOS / "consensus3.json"),
         "--backend", "phase", "--exact"], tmp_path, capsys)
    assert code == 0
    assert "consensus3" in out
    csv = tmp_path / "consensus3_trajectory.csv"
    summary = tmp_path / "consensus3_trajectory_summary.json"
    assert csv.exists() and summary.exists()
    payload = json.loads(summary.read_text())
    assert payload["steady_max_abs_zeta"] <= 1e-3
    header = csv.read_text().splitlines()[0]
    assert header == "t,phi_0,phi_1,phi_2,pinner_0,pinner_1,pinner_2,V"


@pytest.mark.parametrize("run_args", [
    pytest.param(["--backend", "phase", "--shots", "400", "--seed", "9"], id="phase-sampled"),
    pytest.param(["--backend", "full", "--exact"], id="full-exact"),
])
def test_cli_determinism_byte_identical(tmp_path, capsys, run_args):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code = main(["consensus", "--scenario", str(SCENARIOS / "consensus3.json"),
                     *run_args, "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
    csv_a = (a / "consensus3_trajectory.csv").read_bytes()
    csv_b = (b / "consensus3_trajectory.csv").read_bytes()
    assert csv_a == csv_b
    assert (a / "consensus3_trajectory_summary.json").read_bytes() == \
        (b / "consensus3_trajectory_summary.json").read_bytes()


def test_cli_seed_changes_sampled_output(tmp_path, capsys):
    outs = []
    for seed in ("9", "10"):
        out_dir = tmp_path / seed
        code = main(["consensus", "--scenario", str(SCENARIOS / "consensus3.json"),
                     "--backend", "phase", "--shots", "400", "--seed", seed,
                     "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        outs.append((out_dir / "consensus3_trajectory.csv").read_bytes())
    assert outs[0] != outs[1]


def test_cli_rate_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        ["rate", "--scenario", str(SCENARIOS / "consensus3.json"),
         "--epsilon", "1.047"], tmp_path, capsys)
    assert code == 0
    assert "mu = 0.827" in out
    payload = json.loads((tmp_path / "consensus3_rate.json").read_text())
    assert payload["mu"] == pytest.approx(0.8270, abs=1e-3)


def test_cli_rate_rejects_bad_epsilon(tmp_path, capsys):
    code, _, err = run_cli(
        ["rate", "--scenario", str(SCENARIOS / "consensus3.json"),
         "--epsilon", "1.7"], tmp_path, capsys)
    assert code == 1
    assert "epsilon" in err


def test_cli_rate_without_graph_is_validation_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["rate", "--scenario", str(SCENARIOS / "eve_pi6.json"),
         "--epsilon", "0.5"], tmp_path, capsys)
    assert code == 1
    assert "validation error" in err and "no graph" in err


def test_cli_eve_report(tmp_path, capsys):
    code, out, _ = run_cli(
        ["eve", "--scenario", str(SCENARIOS / "eve_pi6.json"), "--seed", "7"],
        tmp_path, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "eve_pi6_eve.json").read_text())
    assert set(payload["bases"]) == {"X", "Y", "Z"}
    assert abs(payload["naive_phi"] - PI / 6) >= 0.3
    assert payload["entropy_bits"]["Z"] >= 0.99


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "kind": "consensus"}))
    code, _, err = run_cli(["consensus", "--scenario", str(bad)], tmp_path, capsys)
    assert code == 1
    assert "validation error" in err


def test_cli_consensus_mixing_node_out_of_range(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "consensus3_mixed.json").read_text())
    doc["consensus"]["mixing"][0]["nodes"] = [5]
    path = tmp_path / "mixed_bad_node.json"
    path.write_text(json.dumps(doc))
    for backend in ("bloch", "full"):
        code, _, err = run_cli(["consensus", "--scenario", str(path),
                                "--backend", backend], tmp_path, capsys)
        assert code == 1
        assert err.strip() == "validation error: $.consensus.mixing[0].nodes: 5 out of range"


@pytest.mark.parametrize("scenario, nodes", [("consensus3", 3), ("dc9", 9)])
def test_cli_fixed_theta_list_must_match_node_count(tmp_path, capsys, scenario, nodes):
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    doc["protocol"]["theta"] = {"kind": "fixed", "values": [1.2, 1.3]}
    path = tmp_path / f"{scenario}_bad_theta.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([doc["kind"], "--scenario", str(path)], tmp_path, capsys)
    assert code == 1
    assert err.strip() == (
        f"validation error: $.protocol.theta.values: 2 values for {nodes} nodes")


@pytest.mark.parametrize("command, scenario, option", [
    ("rate", "consensus3", ["--backend", "phase"]),
    ("rate", "consensus3", ["--shots", "5"]),
    ("rate", "consensus3", ["--exact"]),
    ("rate", "consensus3", ["--seed", "1"]),
    ("rate", "consensus3", ["--dt", "0.1"]),
    ("eve", "eve_pi6", ["--backend", "phase"]),
    ("eve", "eve_pi6", ["--dt", "0.1"]),
])
def test_cli_options_a_subcommand_ignores_are_usage_errors(tmp_path, capsys, command,
                                                           scenario, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"), *option,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, scenario", [
    ("consensus", "consensus3"), ("ac", "ac15"), ("dc", "dc9"), ("eve", "eve_pi6"),
])
def test_cli_shots_with_exact_is_a_usage_error(tmp_path, capsys, command, scenario):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"),
              "--shots", "400", "--exact", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --exact: not allowed with argument --shots" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def edited_scenario(tmp_path, scenario, edit):
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    edit(doc)
    path = tmp_path / f"{scenario}_edited.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command, scenario, edit, args, message", [
    pytest.param("rate", "consensus3", lambda d: d.update(rate={"weights": [1.0]}),
                 ["--epsilon", "0.5"], "$.rate.weights: 1 weights for 3 edges",
                 id="rate-weights"),
    pytest.param("eve", "eve_pi6", lambda d: None, ["--shots", "0"],
                 "--shots: 0 shots per step, need at least 1", id="eve-shots-0"),
    pytest.param("eve", "eve_pi6", lambda d: None, ["--shots", "-2"],
                 "--shots: -2 shots per step, need at least 1", id="eve-shots-negative"),
    pytest.param("eve", "eve_pi6",
                 lambda d: d["eve"].update(theta={"kind": "fixed", "values": [0.3, 2.0]}),
                 [], "$.eve.theta.values: 2 values; the stream has one fixed theta",
                 id="eve-theta-list"),
    pytest.param("eve", "eve_pi6",
                 lambda d: d["eve"].update(theta={"kind": "fixed", "values": 5.0}),
                 [], "$.eve.theta.values: fixed theta 5.0 outside [0, pi]",
                 id="eve-theta-above-pi"),
    pytest.param("eve", "eve_pi6",
                 lambda d: d["eve"].update(theta={"kind": "fixed", "values": [-0.1]}),
                 [], "$.eve.theta.values: fixed theta -0.1 outside [0, pi]",
                 id="eve-theta-negative"),
    pytest.param("consensus", "consensus3",
                 lambda d: d["consensus"].update(initial_phi=[2.0, 0.1, -1.0]), [],
                 "$.consensus.initial_phi: initial_phi 2.0 outside [0, pi/2]",
                 id="initial-phi-range"),
    pytest.param("consensus", "consensus3",
                 lambda d: d["consensus"].update(initial_phi=[0.1, 0.2]), [],
                 "$.consensus.initial_phi: 2 phases for 3 nodes", id="initial-phi-count"),
    pytest.param("consensus", "consensus3",
                 lambda d: d["consensus"].update(pinner=[0.5, 0.6]), [],
                 "$.consensus.pinner: 2 pinners for 3 nodes", id="pinner-count"),
    pytest.param("consensus", "consensus3",
                 lambda d: d["protocol"].update(theta={"kind": "uniform", "hi": 1.0}), [],
                 "$.protocol.theta: 'lo' is a required property",
                 id="protocol-theta-uniform-no-lo"),
    pytest.param("eve", "eve_pi6",
                 lambda d: d["eve"].update(theta={"kind": "uniform", "lo": 0.0}), [],
                 "$.eve.theta: 'hi' is a required property", id="eve-theta-uniform-no-hi"),
])
def test_cli_input_errors_exit_1_with_their_paths(tmp_path, capsys, command, scenario,
                                                  edit, args, message):
    path = edited_scenario(tmp_path, scenario, edit)
    code, _, err = run_cli([command, "--scenario", str(path), *args], tmp_path, capsys)
    assert code == 1
    assert err.strip() == f"validation error: {message}"


def test_cli_eve_single_fixed_theta_list_runs(tmp_path, capsys):
    path = edited_scenario(tmp_path, "eve_pi6", lambda d: d["eve"].update(
        steps=300, theta={"kind": "fixed", "values": [0.3]}))
    code, _, _ = run_cli(["eve", "--scenario", str(path)], tmp_path, capsys)
    assert code == 0


def test_cli_short_horizon_is_runtime_error(tmp_path, capsys):
    path = edited_scenario(tmp_path, "consensus3", lambda d: d.update(horizon=0.05))
    code, _, err = run_cli(["consensus", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert err.startswith("runtime error: series too short")


def test_cli_wrong_kind_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        ["ac", "--scenario", str(SCENARIOS / "consensus3.json")], tmp_path, capsys)
    assert code == 1
    assert "expected ac" in err


def test_cli_partition_exit_code(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "kind": "dc",
        "horizon": 3.0,
        "graph": {"nodes": 3, "edges": [[0, 1], [1, 2]]},
        "protocol": {"dt": 0.01, "backend": "phase", "seed": 1},
        "dc": {
            "ders": [{"droop_m": 1.0, "line_r": 0.01, "rated_current": 5.0}] * 3,
            "r_load": 10.0,
            "events": [{"time": 1.0, "kind": "unplug", "node": 1}],
        },
    }
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["dc", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert "disconnected" in err


def test_cli_passive_bus_overload_exit_code(tmp_path, capsys):
    # bus 2 carries 500 kW over one 200 kW line: unplugging its DER leaves
    # no zero-injection angle
    doc = {
        "schema_version": 1,
        "kind": "ac",
        "horizon": 1.0,
        "graph": {"nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        "protocol": {"dt": 0.01, "backend": "phase", "seed": 1},
        "ac": {
            "ders": [{"droop": 5e-3, "rated_kw": 40.0, "bus_load_kw": load}
                     for load in (20.0, 20.0, 500.0)],
            "lines": [[0, 1, 200.0], [1, 2, 200.0]],
            "events": [{"time": 0.5, "kind": "unplug", "node": 2}],
        },
    }
    path = tmp_path / "overload.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["ac", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert err.startswith("runtime error: passive buses [2] did not settle")
    assert not (tmp_path / "overload_timeseries.csv").exists()


def test_cli_env_overrides_out(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env_dir"
    monkeypatch.setenv("QSDC_OUT_DIR", str(env_dir))
    code = main(["rate", "--scenario", str(SCENARIOS / "consensus3.json"),
                 "--epsilon", "0.5", "--out", str(tmp_path / "flag_dir")])
    capsys.readouterr()
    assert code == 0
    assert (env_dir / "consensus3_rate.json").exists()
    assert not (tmp_path / "flag_dir").exists()


def test_cli_format_csv_only(tmp_path, capsys):
    code, _, _ = run_cli(
        ["consensus", "--scenario", str(SCENARIOS / "consensus3.json"),
         "--backend", "phase", "--format", "csv"], tmp_path, capsys)
    assert code == 0
    assert (tmp_path / "consensus3_trajectory.csv").exists()
    assert not (tmp_path / "consensus3_trajectory_summary.json").exists()

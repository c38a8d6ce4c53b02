import copy
import inspect
import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsdcsim import cli
from qsdcsim.cli import fitted_decay_rate, main, settling_time, summarize
from qsdcsim.consensus import (ProtocolConfig, RateRegionError, ThetaConfig, Trajectory,
                               convergence_rate, run_consensus)
from qsdcsim.engine import CapacityError
from qsdcsim.measurement import InvalidStateError
from qsdcsim.microgrid import AcNetwork, DcNetwork, PartitionError
from qsdcsim.netgraph import GraphValidationError
from qsdcsim.scenario import (
    ScenarioError,
    _check_option,
    parse_scenario,
    scenario_from_dict,
    validate_scenario,
)

PI = math.pi
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


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
    for path in sorted(SCENARIOS.rglob("*.json")):
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


MINIMAL_PLANTS = {
    "ac": {"ders": [{"droop": 5e-3, "rated_kw": 40.0}] * 2, "lines": [[0, 1, 200.0]]},
    "dc": {"ders": [{"droop_m": 1.0, "line_r": 0.01, "rated_current": 5.0}] * 2},
}


@pytest.mark.parametrize("kind", ["consensus", "ac", "dc"])
def test_file_defaults_are_the_runtime_defaults(kind):
    # the defaults that parsing writes into `raw` come from the dataclasses
    # that a run takes, so a second copy of them cannot drift apart
    doc = minimal_consensus_doc()
    if kind != "consensus":
        del doc["consensus"]
        doc.update(kind=kind, **{kind: copy.deepcopy(MINIMAL_PLANTS[kind])})
    sc = scenario_from_dict(doc)
    runtime = ProtocolConfig()
    protocol = sc.raw["protocol"]
    for field in ("dt", "substeps", "shots", "backend", "mode", "seed"):
        assert protocol[field] == getattr(runtime, field), field
    assert protocol["theta"] == {"kind": ThetaConfig().kind, "lo": ThetaConfig().lo,
                                 "hi": ThetaConfig().hi}
    assert sc.protocol() == runtime
    if kind == "ac":
        assert sc.raw["ac"]["omega_nominal"] == AcNetwork.omega_nominal
        assert sc.ac_plant()[1].omega_nominal == AcNetwork.omega_nominal
    if kind == "dc":
        assert sc.raw["dc"]["v_nominal"] == DcNetwork.v_nominal
        assert sc.raw["dc"]["r_load"] == "inf" and DcNetwork.r_load == math.inf
        network = sc.dc_plant()[1]
        assert (network.v_nominal, network.r_load) == (DcNetwork.v_nominal, DcNetwork.r_load)


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
    assert settling_time(t, np.array([1e-3, math.nan, 1e-3, 1e-3]), 1e-2) == 2.0
    assert settling_time(t, np.array([1e-3, 1e-3, 1e-3, math.nan]), 1e-2) is None
    assert settling_time(t[:0], t[:0], 1e-2) is None


def test_summarize_constant_trajectory():
    n = 40
    traj = Trajectory(
        times=np.linspace(0.0, 1.0, n),
        data={"phi": np.full((n, 2), 0.7), "pinner": np.full((n, 2), 0.7)},
        lyapunov=np.zeros(n),
        meta={"kind": "consensus", "backend": "phase", "mode": "qsdc", "seed": 0, "dt": 0.01},
    )
    s = summarize(traj)
    assert s["settling_time"] == 0.0
    assert s["fitted_decay_rate"] == 0.0
    assert s["steady_max_abs_zeta"] == 0.0


def test_summarize_requires_window():
    traj = Trajectory(
        times=np.linspace(0.0, 1.0, 5),
        data={"phi": np.full((5, 1), 0.7), "pinner": np.full((5, 1), 0.7)},
        lyapunov=np.zeros(5),
        meta={"kind": "consensus", "backend": "phase", "mode": "qsdc", "seed": 0, "dt": 0.01},
    )
    with pytest.raises(ValueError, match="short"):
        summarize(traj)


def test_summarize_ac_zero_shares_is_finite():
    # all-zero shares over the final window: no 0/0, the spread reads 0
    steps, n = 20, 3
    ts = Trajectory(
        times=np.linspace(0.0, 0.19, steps),
        data={"omega": np.full((steps, n), 60.0), "online": np.ones((steps, n), dtype=bool),
              "pinner": np.zeros((steps, n))},
        lyapunov=np.zeros(steps),
        meta={"kind": "ac", "backend": "phase", "mode": "qsdc", "seed": 0, "dt": 0.01,
              "omega_nominal": 60.0, "k": 0.5},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = summarize(ts)
    assert s["sharing_spread_pct"] == 0.0


@pytest.mark.parametrize("steps, rate, cut", [(3, 0.5, False), (40, 2.0, False),
                                              (2001, 0.7, False), (2001, 30.0, True),
                                              (6000, 12.0, True)])
def test_fitted_rate_is_the_least_squares_slope_without_lapack(steps, rate, cut, monkeypatch):
    rng = np.random.default_rng(steps)
    times = np.arange(steps) * 0.01
    values = np.exp(-rate * times + rng.normal(0.0, 0.05, steps))
    head = values > values[0] * 1e-10
    end = int(np.argmin(head)) if not head.all() else steps
    assert (end < steps) == cut  # the 1e-10 floor cuts the fit window
    want = -np.polyfit(times[:end], np.log(values[:end]), 1)[0]

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    # np.polyfit calls the lstsq that its own module imported
    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    monkeypatch.setitem(inspect.unwrap(np.polyfit).__globals__, "lstsq", no_lapack)
    assert fitted_decay_rate(times, values) == pytest.approx(want, rel=1e-12)


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


def test_cli_rate_file_epsilon_outside_the_region_exits_1_with_its_path(tmp_path, capsys):
    # the parse calls convergence_rate on the file's graph, which holds epsilon
    doc = json.loads((SCENARIOS / "rate" / "ring5_weighted.json").read_text())
    doc["rate"]["epsilon"] = 2.0
    path = tmp_path / "ring5_eps.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["rate", "--scenario", str(path)], tmp_path, capsys)
    assert code == 1
    assert err.strip() == ("validation error: $.rate.epsilon: epsilon must lie in [0, pi/2) "
                           "for the invariant set to hold, got 2.0")


def test_rate_file_graph_weights_are_checked_even_with_rate_weights():
    # rate.weights replace the graph's weights in the bound; the graph's own
    # weights still have to be valid
    doc = json.loads((SCENARIOS / "rate" / "ring5_weighted.json").read_text())
    doc["graph"]["weights"][0] = 0
    with pytest.raises(ScenarioError, match=r"^\$\.graph\.weights: non-positive weight"):
        validate_scenario(doc)


@pytest.mark.parametrize("scenario", ["consensus3", "ac15", "dc9", "eve_pi6"])
def test_a_bad_graph_fails_at_parse_whichever_kind_holds_it(scenario):
    # an eve file's graph is read only by `qsdcsim rate`; it is checked all the same
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    doc.setdefault("graph", {"nodes": 3, "edges": []})["edges"].append([0, 99])
    with pytest.raises(ScenarioError, match=r"^\$\.graph\.edges: edge \(0,99\) out of range"):
        validate_scenario(doc)


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
    payload = json.loads((tmp_path / "eve_pi6_eve.json").read_text(),
                         parse_constant=reject_constant)
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


@pytest.mark.parametrize("command, scenario", [("consensus", "consensus3"), ("ac", "ac15")])
def test_cli_unknown_backend_is_a_usage_error(tmp_path, capsys, command, scenario):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"), "--backend", "gpu",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert ("argument --backend: invalid choice: 'gpu' (choose from 'full', 'bloch', 'phase')"
            in capsys.readouterr().err)
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
    path = tmp_path / f"{Path(scenario).name}_edited.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command, scenario, edit, args, message", [
    pytest.param("rate", "consensus3", lambda d: d.update(rate={"weights": [1.0]}),
                 ["--epsilon", "0.5"], "$.rate.weights: got 1 weights for 3 edges",
                 id="rate-weights"),
    pytest.param("rate", "consensus3", lambda d: d.update(rate={"weights": [-5, 1, 1]}),
                 ["--epsilon", "0.5"], "$.rate.weights: non-positive weight -5.0 on edge (0,1)",
                 id="rate-weights-sign"),
    # RFC 8259 has no NaN or Infinity, but Python's json reads and writes them
    pytest.param("consensus", "consensus3",
                 lambda d: d["graph"].update(weights=[math.nan, 1.0, 1.0]), [],
                 "$.graph.weights[0]: nan is not of type 'number'", id="graph-weights-nan"),
    pytest.param("rate", "consensus3", lambda d: d.update(rate={"weights": [math.nan, 1, 1]}),
                 ["--epsilon", "0.5"], "$.rate.weights[0]: nan is not of type 'number'",
                 id="rate-weights-nan"),
    pytest.param("consensus", "consensus3", lambda d: d["protocol"].update(dt=math.nan), [],
                 "$.protocol.dt: nan is not of type 'number'", id="protocol-dt-nan"),
    pytest.param("ac", "ac15", lambda d: d["ac"].update(k=math.nan), [],
                 "$.ac.k: nan is not of type 'number'", id="ac-k-nan"),
    pytest.param("consensus", "consensus3", lambda d: d.update(horizon=math.inf), [],
                 "$.horizon: inf is not of type 'number'", id="horizon-inf"),
    pytest.param("consensus", "consensus3",
                 lambda d: d["protocol"].update(exact=True, shots=16), [],
                 "$.protocol.exact: exact=true excludes shots", id="protocol-exact-with-shots"),
    pytest.param("eve", "eve_pi6", lambda d: None, ["--shots", "0"],
                 "--shots: 0 is less than the minimum of 1", id="eve-shots-0"),
    pytest.param("eve", "eve_pi6", lambda d: None, ["--shots", "-2"],
                 "--shots: -2 is less than the minimum of 1", id="eve-shots-negative"),
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
    pytest.param("consensus", "consensus3",
                 lambda d: d["protocol"].update(theta={"kind": "fixed",
                                                       "values": [0.5, 0.6, 4.0]}), [],
                 "$.protocol.theta.values: fixed theta 4.0 outside (0, pi)",
                 id="protocol-theta-fixed-above-pi"),
    pytest.param("ac", "ac15",
                 lambda d: d["protocol"].update(theta={"kind": "fixed", "values": 0.0}), [],
                 "$.protocol.theta.values: fixed theta 0.0 outside (0, pi)",
                 id="protocol-theta-fixed-zero"),
    pytest.param("consensus", "consensus3", lambda d: d["graph"].update(weights=[1.0]), [],
                 "$.graph.weights: got 1 weights for 3 edges", id="graph-weights-count"),
    pytest.param("consensus", "consensus3", lambda d: d["graph"]["edges"].append([0, 5]), [],
                 "$.graph.edges: edge (0,5) out of range for n=3", id="graph-edge-range"),
    pytest.param("consensus", "consensus3", lambda d: d["graph"]["edges"].insert(0, [0, 0]),
                 [], "$.graph.edges: self-loop at node 0", id="graph-self-loop"),
    pytest.param("consensus", "consensus3", lambda d: d["protocol"].update(exact=False), [],
                 "$.protocol.exact: exact=false requires shots", id="protocol-exact-no-shots"),
    pytest.param("eve", "eve_pi6", lambda d: d.setdefault("protocol", {}).update(exact=False),
                 [], "$.protocol: Additional properties are not allowed ('exact' was unexpected)",
                 id="eve-protocol-exact-no-shots"),
    pytest.param("consensus", "consensus3_mixed",
                 lambda d: d["consensus"]["mixing"][0].update(t_start=5.0, t_end=3.0), [],
                 "$.consensus.mixing[0]: event window [5.0, 3.0) needs t_start <= t_end",
                 id="mixing-reversed"),
    pytest.param("dc", "dc9",
                 lambda d: d["dc"]["events"].append({"time": 10.0, "kind": "droop_change",
                                                     "node": 1, "droop": 5.0}), [],
                 "$.dc.events[3].droop: gain 0.167552 times the largest droop span 30 is "
                 "5.0265 >= pi/2; keep the gain below 0.05236", id="dc-droop-change-gain"),
    pytest.param("consensus", "consensus3", lambda d: None, ["--dt", "0.5"],
                 "--dt: dt must lie in (0, 0.1], got 0.5", id="option-dt"),
    pytest.param("dc", "dc9", lambda d: None, ["--backend", "phase", "--shots", "0"],
                 "--shots: shots must be an integer in 1 .. 2**63 - 1 or None, got 0",
                 id="option-shots"),
    pytest.param("eve", "eve_pi6", lambda d: None, ["--seed", "-1"],
                 "--seed: -1 is less than the minimum of 0", id="option-seed"),
    # counts that numpy's binomial cannot take, and an eve stream that cannot
    # be allocated: each ended in an OverflowError or a MemoryError traceback
    pytest.param("eve", "eve_pi6", lambda d: d["eve"].update(shots_per_step=2**70), [],
                 f"$.eve.shots_per_step: {2**70} is greater than the maximum of {2**63 - 1}",
                 id="eve-shots-per-step-above-c-long"),
    pytest.param("eve", "eve_pi6", lambda d: None, ["--shots", str(2**70)],
                 f"--shots: {2**70} is greater than the maximum of {2**63 - 1}",
                 id="eve-option-shots-above-c-long"),
    pytest.param("consensus", "consensus3",
                 lambda d: d["protocol"].update(backend="bloch", shots=2**70), [],
                 f"$.protocol.shots: shots must be an integer in 1 .. 2**63 - 1 or None, "
                 f"got {2**70}", id="protocol-shots-above-c-long"),
    pytest.param("consensus", "consensus3", lambda d: None,
                 ["--backend", "bloch", "--shots", str(2**70)],
                 f"--shots: shots must be an integer in 1 .. 2**63 - 1 or None, got {2**70}",
                 id="option-shots-above-c-long"),
    pytest.param("eve", "eve_pi6", lambda d: d["eve"].update(steps=10**15), [],
                 f"$.eve.steps: {10**15} is greater than the maximum of {2**26}",
                 id="eve-steps-1e15"),
    # a run whose record, 8 bytes a step and node of each (steps, n) series,
    # passes 2 GiB; each ended in a MemoryError traceback
    pytest.param("consensus", "consensus3", lambda d: d.update(horizon=1e15), [],
                 "$.horizon: 1e+17 steps on 3 nodes need a 4.47e+09 GiB record, above the "
                 "2 GiB limit", id="consensus-horizon-1e15"),
    pytest.param("consensus", "consensus3", lambda d: None, ["--dt", "1e-12"],
                 "--dt: 1e+13 steps on 3 nodes need a 4.47e+05 GiB record, above the "
                 "2 GiB limit", id="option-dt-1e-12"),
    pytest.param("ac", "ac15", lambda d: d.update(horizon=1e15), [],
                 "$.horizon: 1e+17 steps on 15 nodes need a 4.47e+10 GiB record, above the "
                 "2 GiB limit", id="ac-horizon-1e15"),
    # rules that the runtime objects hold, reported at the field's path
    pytest.param("consensus", "consensus3", lambda d: d["protocol"].update(dt=0.5), [],
                 "$.protocol.dt: dt must lie in (0, 0.1], got 0.5", id="protocol-dt-range"),
    pytest.param("eve", "eve_pi6", lambda d: d["protocol"].update(substeps=0), [],
                 "$.protocol: Additional properties are not allowed ('substeps' was unexpected)",
                 id="eve-protocol-substeps"),
    pytest.param("ac", "ac15", lambda d: d["protocol"].update(backend="gpu"), [],
                 "$.protocol.backend: backend must be one of ('full', 'bloch', 'phase'), "
                 "got 'gpu'", id="protocol-backend"),
    pytest.param("ac", "ac15", lambda d: d["ac"]["ders"][2].update(rated_kw=0), [],
                 "$.ac.ders[2].rated_kw: rated_kw must be positive, got 0", id="ac-der-rated"),
    pytest.param("dc", "dc9", lambda d: d["dc"]["ders"][1].update(droop_m=-1.0), [],
                 "$.dc.ders[1].droop_m: droop must be positive, got -1.0", id="dc-der-droop"),
    pytest.param("dc", "dc9", lambda d: d["dc"]["events"][0].update(kind="meteor"), [],
                 "$.dc.events[0].kind: unknown event kind 'meteor'", id="plant-event-kind"),
    pytest.param("consensus", "consensus3_mixed",
                 lambda d: d["consensus"]["mixing"][0].update(p=1.5), [],
                 "$.consensus.mixing[0].p: p must lie in [0, 1], got 1.5", id="mixing-p"),
    # a field that the command does not read
    pytest.param("consensus", "consensus3",
                 lambda d: d.update(ac=json.loads((SCENARIOS / "ac15.json").read_text())["ac"]),
                 [], "$: Additional properties are not allowed ('ac' was unexpected)",
                 id="consensus-ac-section"),
    pytest.param("eve", "eve_pi6", lambda d: d.update(graph={"nodes": 3, "edges": [[0, 7]]}),
                 [], "$.graph.edges: edge (0,7) out of range for n=3", id="eve-graph-edges"),
    pytest.param("eve", "eve_pi6", lambda d: d.update(horizon=10.0), [],
                 "$: Additional properties are not allowed ('horizon' was unexpected)",
                 id="eve-horizon"),
    pytest.param("eve", "eve_pi6", lambda d: d["protocol"].update(exact=True), [],
                 "$.protocol: Additional properties are not allowed ('exact' was unexpected)",
                 id="eve-protocol-exact"),
    pytest.param("eve", "eve_pi6", lambda d: d["protocol"].update(shots=5), [],
                 "$.protocol: Additional properties are not allowed ('shots' was unexpected)",
                 id="eve-protocol-shots"),
    pytest.param("rate", "rate/ring5_weighted", lambda d: d.update(protocol={"seed": 1}), [],
                 "$: Additional properties are not allowed ('protocol' was unexpected)",
                 id="rate-protocol"),
    pytest.param("rate", "rate/ring5_weighted", lambda d: d.update(horizon=10.0), [],
                 "$: Additional properties are not allowed ('horizon' was unexpected)",
                 id="rate-horizon"),
])
def test_cli_input_errors_exit_1_with_their_paths(tmp_path, capsys, command, scenario,
                                                  edit, args, message):
    path = edited_scenario(tmp_path, scenario, edit)
    code, _, err = run_cli([command, "--scenario", str(path), *args], tmp_path, capsys)
    assert code == 1
    assert err.strip() == f"validation error: {message}"


def test_largest_counts_still_parse():
    # 2**63 - 1 shots is numpy's largest binomial count, and 2**26 eve steps
    # keep the thetas and the stream, 32 bytes a step, within 2 GiB; parsed,
    # never run
    most = 2**63 - 1
    eve = json.loads((SCENARIOS / "eve_pi6.json").read_text())
    eve["eve"].update(steps=2**26, shots_per_step=most)
    assert scenario_from_dict(eve).raw["eve"] == eve["eve"]
    _check_option("shots", most, "#/$defs/eve/properties/shots_per_step")
    doc = json.loads((SCENARIOS / "consensus3.json").read_text())
    doc["protocol"].update(backend="bloch", shots=most)
    assert scenario_from_dict(doc).protocol().shots == most
    assert scenario_from_dict(minimal_consensus_doc()).protocol(shots=most).shots == most
    # the longest consensus3 record within 2 GiB, 16 bytes a step and node
    # (phi and pinner); one step more does not parse
    doc = json.loads((SCENARIOS / "consensus3.json").read_text())
    steps = 2**31 // (3 * 16)
    doc["protocol"]["dt"] = 2**-4  # steps * dt and horizon / dt are exact
    doc["horizon"] = steps * 2**-4
    assert scenario_from_dict(doc).horizon == doc["horizon"]
    doc["horizon"] += 2**-4
    with pytest.raises(ScenarioError, match="2 GiB limit"):
        scenario_from_dict(doc)


def ac_loads_with_fractional_step(doc, form):
    for der in doc["ac"]["ders"]:
        der["bus_load_kw"] = form(der["bus_load_kw"])
    doc["ac"]["events"][0]["delta_kw"] = 2.5


@pytest.mark.parametrize("command, scenario, edit", [
    pytest.param("consensus", "consensus3", lambda d, x: d["graph"].update(nodes=x(3)),
                 id="graph-nodes"),
    pytest.param("ac", "ac15", ac_loads_with_fractional_step, id="ac-bus-loads"),
    pytest.param("consensus", "consensus3", lambda d, x: d["protocol"].update(substeps=x(2)),
                 id="protocol-substeps"),
    pytest.param("eve", "eve_pi6", lambda d, x: d["eve"].update(steps=x(300)), id="eve-steps"),
])
def test_cli_integer_valued_floats_run_as_integers(tmp_path, capsys, command, scenario, edit):
    # JSON Schema counts 3.0 as an integer, so the run must take it as 3; and
    # an integer bus load must take a +2.5 kW step_load in full, not as +2
    outputs = []
    for form in (int, float):
        (tmp_path / form.__name__).mkdir()
        path = edited_scenario(tmp_path / form.__name__, scenario, lambda d: edit(d, form))
        out_dir = tmp_path / f"{form.__name__}_out"
        code, _, err = run_cli([command, "--scenario", str(path)], out_dir, capsys)
        assert code == 0, err
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


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


def test_cli_horizon_below_one_step_is_runtime_error(tmp_path, capsys):
    path = edited_scenario(tmp_path, "consensus3", lambda d: d.update(horizon=0.004))
    code, _, err = run_cli(["consensus", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert err.startswith("runtime error: horizon 0.004 is shorter than one step of 0.01")


@pytest.mark.parametrize("time, options", [(45.0, []), (44.96, ["--dt", "0.1"])])
def test_cli_event_in_the_last_half_step_is_runtime_error(tmp_path, capsys, time, options):
    # the event snaps to step `steps`, which starts after the run's last row,
    # so it could not be applied: it is rejected, not dropped
    path = edited_scenario(tmp_path, "dc9", lambda d: d["dc"]["events"].append(
        {"time": time, "kind": "unplug", "node": 0}))
    code, _, err = run_cli(["dc", "--scenario", str(path), *options], tmp_path / "out", capsys)
    assert (code, err) == (2, f"runtime error: event at t={time} outside the horizon\n")


def test_cli_ac_dt_override_runs_and_settles(tmp_path, capsys):
    # a dt other than the scenario's changes the RK4 substep of every plan
    code, _, err = run_cli(["ac", "--scenario", str(SCENARIOS / "ac15.json"), "--dt", "0.02",
                            "--format", "json"], tmp_path, capsys)
    assert (code, err) == (0, "")
    s = json.loads((tmp_path / "ac15_timeseries_summary.json").read_text())
    assert s["dt"] == 0.02 and s["warnings"] == 0
    assert abs(s["steady_freq_hz"] - 60.0) <= 1e-3
    assert s["sharing_spread_pct"] <= 1.0
    assert s["events_applied"] == ["t=10 step_load node=4 delta_kw=40.0",
                                   "t=17 droop_change node=0 droop=0.0047",
                                   "t=20 droop_change node=6 droop=0.0021"]


def stiffen(doc, weight=100.0):
    # weight 100 at dt 0.1 and one substep puts RK4 outside its stability
    # region; weight 1e100 overflows the first step to nan
    doc["graph"]["weights"] = [weight] * len(doc["graph"]["edges"])
    doc["protocol"].update(dt=0.1, substeps=1)


@pytest.mark.parametrize("command, scenario, backend", [
    ("consensus", "consensus3", "bloch"), ("consensus", "consensus3", "phase"),
    ("ac", "ac15", "phase")])
def test_cli_step_that_leaves_the_bloch_ball_is_runtime_error(tmp_path, capsys, command,
                                                              scenario, backend):
    path = edited_scenario(tmp_path, scenario, stiffen)
    code, _, err = run_cli([command, "--scenario", str(path), "--backend", backend],
                           tmp_path, capsys)
    assert code == 2
    assert err.startswith("runtime error: step ") and "use more substeps" in err


@pytest.mark.parametrize("command, scenario, backend", [
    ("consensus", "consensus3", "bloch"), ("ac", "ac15", "phase")])
def test_cli_overflowing_step_prints_only_the_runtime_error(tmp_path, capsys, command,
                                                           scenario, backend):
    # numpy's overflow and invalid-value warnings (errors under -W error)
    # must not reach stderr
    path = edited_scenario(tmp_path, scenario, lambda doc: stiffen(doc, 1e100))
    code, _, err = run_cli([command, "--scenario", str(path), "--backend", backend], tmp_path,
                           capsys)
    assert (code, err) == (2, "runtime error: step 0: integration left the Bloch ball "
                              "(coherence nan); use more substeps\n")


def test_cli_one_der_dc_plant_runs(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "kind": "dc",
        "name": "one_der",
        "horizon": 1.0,
        "graph": {"nodes": 1, "edges": []},
        "protocol": {"dt": 0.01, "backend": "phase", "seed": 1},
        "dc": {"ders": [{"droop_m": 1.0, "line_r": 0.01, "rated_current": 5.0}],
               "r_load": 10.0},
    }
    path = tmp_path / "one_der.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["dc", "--scenario", str(path)], tmp_path, capsys)
    assert (code, err) == (0, "")
    header = (tmp_path / "one_der_timeseries.csv").read_text().splitlines()[0]
    assert {"phi_0", "pinner_0", "online_0", "vbus", "V"} <= set(header.split(","))


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


@pytest.mark.parametrize("error, code, prefix", [
    (ScenarioError("bad input"), 1, "validation error"),
    (GraphValidationError("bad input", "edges"), 1, "validation error"),
    (RateRegionError("bad input"), 1, "validation error"),
    (CapacityError("bad input"), 2, "runtime error"),
    (PartitionError("bad input"), 2, "runtime error"),
    (InvalidStateError("bad input"), 2, "runtime error"),
    (ValueError("bad input"), 2, "runtime error"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_cli_maps_each_error_class_to_its_exit_code(tmp_path, capsys, monkeypatch, error,
                                                   code, prefix):
    def fail(args, sc):
        raise error

    monkeypatch.setattr(cli, "cmd_rate", fail)
    got, _, err = run_cli(["rate", "--scenario", str(SCENARIOS / "consensus3.json")],
                          tmp_path, capsys)
    assert (got, err) == (code, f"{prefix}: bad input\n")


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

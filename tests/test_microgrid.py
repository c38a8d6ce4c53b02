import copy
import io
import math
from pathlib import Path

import numpy as np
import pytest

from qsdcsim import consensus, microgrid
from qsdcsim.consensus import (
    MixingEvent,
    ProtocolConfig,
    ProtocolState,
    ThetaConfig,
    qsdc_step,
)
from qsdcsim.microgrid import (
    AcDer,
    AcNetwork,
    AcPlantState,
    DcDer,
    DcNetwork,
    DcPlantState,
    Event,
    MicrogridError,
    PartitionError,
    _passive_table,
    _solve_passive_buses,
    ac_power_flow,
    ac_step,
    dc_solve,
    dc_step,
    default_ac_scaling,
    default_dc_scaling,
    run_plant,
)
from qsdcsim.netgraph import build_graph
from qsdcsim.scenario import parse_scenario

PI = math.pi
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def phase_cfg(seed=4, mode="qsdc", dt=0.01):
    return ProtocolConfig(dt=dt, substeps=2, shots=None, backend="phase",
                          mode=mode, seed=seed)


def ac3():
    ders = [AcDer(droop=5e-3, rated_kw=40.0),
            AcDer(droop=2.5e-3, rated_kw=40.0),
            AcDer(droop=2.5e-3, rated_kw=40.0)]
    net = AcNetwork(lines=((0, 1, 200.0), (1, 2, 200.0), (0, 2, 200.0)),
                    bus_loads=np.array([20.0, 20.0, 20.0]))
    comm = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    return ders, net, comm


def dc3(r_load=100.0, line_r=0.002):
    ders = [DcDer(droop_m=1.0, line_r=line_r, rated_current=6.0),
            DcDer(droop_m=1.25, line_r=line_r, rated_current=6.0),
            DcDer(droop_m=0.8, line_r=line_r, rated_current=6.0)]
    net = DcNetwork(v_nominal=48.0, r_load=r_load)
    comm = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    return ders, net, comm


# -- AC power flow -----------------------------------------------------------


def test_power_flow_equal_angles():
    p = ac_power_flow([0.2, 0.2, 0.2], ((0, 1, 200.0), (1, 2, 200.0)),
                      [30.0, 10.0, 5.0])
    assert np.allclose(p, [30.0, 10.0, 5.0])


def test_power_flow_two_der_example():
    p = ac_power_flow([0.1, 0.0], ((0, 1, 100.0),), [30.0, 30.0])
    assert p[0] == pytest.approx(30.0 + 100.0 * math.sin(0.1), abs=1e-12)
    assert p[1] == pytest.approx(30.0 - 100.0 * math.sin(0.1), abs=1e-12)
    assert p[0] == pytest.approx(39.98, abs=5e-3)
    assert p[1] == pytest.approx(20.02, abs=5e-3)


def test_power_flow_balance_random():
    rng = np.random.default_rng(2)
    lines = ((0, 1, 150.0), (1, 2, 80.0), (0, 3, 120.0), (2, 3, 60.0))
    loads = [12.0, 7.0, 20.0, 5.0]
    for _ in range(25):
        deltas = rng.uniform(-0.5, 0.5, 4)
        p = ac_power_flow(deltas, lines, loads)
        assert abs(p.sum() - sum(loads)) <= 1e-9


def loop_power_flow(deltas, lines, bus_loads):
    """The per-line loop the incidence form replaced."""
    p = np.array(bus_loads, dtype=float)
    for i, j, b in lines:
        flow = b * math.sin(deltas[i] - deltas[j])
        p[i] += flow
        p[j] -= flow
    return p


def test_power_flow_matches_per_line_loop():
    rng = np.random.default_rng(21)
    for n in (2, 5, 15):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = rng.choice(len(pairs), size=min(len(pairs), 2 * n), replace=False)
        lines = tuple((*pairs[k], float(rng.uniform(20.0, 400.0))) for k in sorted(picked))
        for _ in range(20):
            deltas = rng.uniform(-0.6, 0.6, n)
            loads = rng.uniform(0.0, 60.0, n)
            p = ac_power_flow(deltas, lines, loads)
            want = loop_power_flow(deltas, lines, loads)
            assert np.max(np.abs(p - want)) <= 1e-12 * np.max(np.abs(want))


def test_passive_buses_inject_nothing_after_ac_step():
    ring = tuple((i, (i + 1) % 5, 150.0 + 10.0 * i) for i in range(5))
    ders = [AcDer(droop=4e-3, rated_kw=40.0) for _ in range(5)]
    net = AcNetwork(lines=ring, bus_loads=np.array([20.0, 12.0, 18.0, 9.0, 15.0]))
    net.apply_default_k(ders)
    ders[1].online = ders[3].online = False
    comm = build_graph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (2, 4)])
    plant = AcPlantState(deltas=np.array([0.05, -0.02, 0.01, 0.03, -0.04]),
                         protocol=ProtocolState(phis=np.full(5, 0.3)))
    _, out = ac_step(plant, ders, net, comm, phase_cfg())
    assert np.max(np.abs(out["power"][[1, 3]])) <= 1e-9
    assert abs(out["power"].sum() - net.bus_loads.sum()) <= 1e-9


def dict_rebuild_passive_buses(deltas, lines, bus_loads, passive, tol=1e-11, max_sweeps=200):
    """The solve before its neighbour lists were cached: a dict rebuilt on
    every call and sweeps over numpy scalars."""
    deltas = deltas.copy()
    neigh = {i: [] for i in passive}
    for i, j, b in lines:
        if i in neigh:
            neigh[i].append((j, b))
        if j in neigh:
            neigh[j].append((i, b))
    for _ in range(max_sweeps):
        worst = 0.0
        for i in passive:
            f = bus_loads[i]
            fp = 0.0
            for j, b in neigh[i]:
                f += b * math.sin(deltas[i] - deltas[j])
                fp += b * math.cos(deltas[i] - deltas[j])
            worst = max(worst, abs(f))
            if abs(fp) > 1e-9:
                deltas[i] -= f / fp
        if worst < tol:
            return deltas
    raise AssertionError("the reference solve did not settle")


def test_passive_buses_match_dict_rebuild_loop():
    rng = np.random.default_rng(33)
    n = 15
    for _ in range(30):
        edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
        while len(edges) < 2 * n:
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            edges.add((i, j))
        lines = tuple((i, j, float(rng.uniform(50.0, 400.0))) for i, j in sorted(edges))
        loads = rng.uniform(0.0, 30.0, n)
        passive = sorted(rng.choice(n, int(rng.integers(1, 4)), replace=False).tolist())
        deltas = rng.uniform(-0.2, 0.2, n)
        for _ in range(3):  # then warm starts near the last solution
            got = _solve_passive_buses(deltas, _passive_table(lines, loads, passive))
            want = dict_rebuild_passive_buses(deltas, lines, loads, passive)
            assert got.tobytes() == want.tobytes()
            deltas = got + rng.normal(0.0, 0.01, n)


def test_pnp_run_builds_constants_once_per_segment(monkeypatch):
    sc = parse_scenario(SCENARIOS / "ac15_pnp.json")
    ders, net = sc.ac_plant()
    events = [Event(time=0.5, kind="unplug", payload={"node": 7}),
              Event(time=1.0, kind="plug", payload={"node": 7}),
              Event(time=1.5, kind="unplug", payload={"node": 7})]
    calls = {"laplacian": 0, "_passive_table": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(consensus, "laplacian", counted(consensus.laplacian))
    monkeypatch.setattr(microgrid, "_passive_table", counted(microgrid._passive_table))
    run_plant("ac", ders, net, sc.graph(), sc.protocol(), horizon=2.0, events=events)
    assert calls == {"laplacian": 4, "_passive_table": 4}  # 4 segments of 50 steps


def test_passive_bus_overload_is_a_runtime_error():
    # bus 2 hangs off one 200 kW line but carries 500 kW: once its DER is
    # unplugged no angle gives zero injection
    ders = [AcDer(droop=5e-3, rated_kw=40.0) for _ in range(3)]
    net = AcNetwork(lines=((0, 1, 200.0), (1, 2, 200.0)),
                    bus_loads=np.array([20.0, 20.0, 500.0]))
    comm = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    events = [Event(time=0.5, kind="unplug", payload={"node": 2})]
    with pytest.raises(MicrogridError, match=r"passive buses \[2\] did not settle"):
        run_plant("ac", ders, net, comm, phase_cfg(), horizon=1.0, events=events)


def test_run_plant_rejects_horizon_below_one_step():
    ders, net, comm = ac3()
    with pytest.raises(ValueError, match="shorter than one step"):
        run_plant("ac", ders, net, comm, phase_cfg(), horizon=0.004)


def test_one_der_ac_plant_keeps_per_der_columns():
    # a width-1 series other than vbus stays (T, 1), so V is formed per row
    ders = [AcDer(droop=5e-3, rated_kw=40.0)]
    net = AcNetwork(lines=(), bus_loads=np.array([20.0]))
    ts = run_plant("ac", ders, net, build_graph(1, []), phase_cfg(), horizon=0.5)
    assert ts.data["phi"].shape == ts.data["online"].shape == (50, 1)
    assert ts.lyapunov.shape == (50,)


def test_plant_csv_matches_per_value_writer():
    sc = parse_scenario(SCENARIOS / "ac15.json")
    ders, net = sc.ac_plant()
    events = [Event(time=1.0, kind="unplug", payload={"node": 3}),
              Event(time=2.0, kind="plug", payload={"node": 3})]
    ts = run_plant("ac", ders, net, sc.graph(), sc.protocol(), horizon=3.0, events=events)
    fh = io.StringIO()
    ts.write_csv(fh)
    text = fh.getvalue()
    header = text[:text.index("\n") + 1]
    block = np.column_stack([ts.times] + [ts.data[name] for name in sorted(ts.data)]
                            + [ts.lyapunov])
    assert header.startswith("t,omega_0,") and block.shape == (300, 77)
    want = header + "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in block)
    assert len({text, want}) == 1  # not text == want: a diff of two CSVs takes minutes


# -- AC closed loop ----------------------------------------------------------


def test_ac_three_der_power_sharing():
    ders, net, comm = ac3()
    ts = run_plant("ac", ders, net, comm, phase_cfg(), horizon=20.0)
    # sum(x/n_i) = 60 kW => n_i P_i = 0.06, P = (12, 24, 24), omega = 60
    assert np.allclose(ts.data["power"][-1], [12.0, 24.0, 24.0], atol=1e-3)
    assert np.allclose(ts.data["omega"][-1], 60.0, atol=1e-4)
    k = ts.meta["k"]
    share = ts.data["pinner"][-1] / k
    assert np.allclose(share, 0.06 * k / k, atol=1e-5)


def test_ac_equilibrium_is_stationary():
    ders, net, comm = ac3()
    cfg = phase_cfg()
    ts = run_plant("ac", ders, net, comm, cfg, horizon=20.0)
    # restart from the converged operating point: one step must not move it
    deltas = np.zeros(3)
    # reconstruct the angles by integrating the recorded frequencies
    deltas = 2.0 * PI * cfg.dt * np.sum(ts.data["omega"] - 60.0, axis=0)
    plant = AcPlantState(deltas=deltas,
                         protocol=ProtocolState(phis=ts.data["phi"][-1].copy()))
    net.k = ts.meta["k"]
    plant2, out = ac_step(plant, ders, net, comm, cfg)
    assert np.max(np.abs(out["omega"] - 60.0)) <= 1e-4
    assert np.max(np.abs(plant2.protocol.phis - plant.protocol.phis)) <= 1e-5


def test_ac_droop_change_resolves_common_value():
    ders, net, comm = ac3()
    events = [Event(time=10.0, kind="droop_change",
                    payload={"node": 0, "droop": 4.0e-3})]
    ts = run_plant("ac", ders, net, comm, phase_cfg(), horizon=25.0, events=events)
    x_star = ts.data["pinner"][-1].mean() / ts.meta["k"]
    droops = np.array([4.0e-3, 2.5e-3, 2.5e-3])
    assert abs(np.sum(x_star / droops) - 60.0) <= 0.1 * 0.01 * 60.0  # 0.1%
    assert np.allclose(ts.data["omega"][-1], 60.0, atol=1e-3)


def test_ac_step_load_conservation_every_step():
    ders, net, comm = ac3()
    events = [Event(time=5.0, kind="step_load", payload={"node": 1, "delta_kw": 15.0})]
    ts = run_plant("ac", ders, net, comm, phase_cfg(), horizon=10.0, events=events)
    # the sample at t=5.0 closes the step taken before the event applies
    total = np.where(ts.times <= 5.0 + 1e-9, 60.0, 75.0)
    assert np.max(np.abs(ts.data["power"].sum(axis=1) - total)) <= 1e-9


def test_ac_unplug_reshare_and_replug():
    ders, net, comm = ac3()
    events = [Event(time=8.0, kind="unplug", payload={"node": 0}),
              Event(time=16.0, kind="plug", payload={"node": 0})]
    ts = run_plant("ac", ders, net, comm, phase_cfg(), horizon=28.0, events=events)
    k_mid = np.argmin(np.abs(ts.times - 15.9))
    # remaining DERs pick up the full 60 kW incl. the offline unit's bus load
    assert ts.data["power"][k_mid, 0] == pytest.approx(0.0, abs=1e-6)
    assert ts.data["power"][k_mid, 1:].sum() == pytest.approx(60.0, abs=1e-6)
    assert np.allclose(ts.data["omega"][k_mid, 1:], 60.0, atol=1e-3)
    # after replug all three share again
    assert np.allclose(ts.data["power"][-1], [12.0, 24.0, 24.0], atol=0.05)
    assert "t=8 unplug node=0" in ts.events_applied


def test_ac_unplug_with_per_der_fixed_theta():
    # A per-DER theta list stays valid while a DER is offline.
    ders, net, comm = ac3()
    cfg = ProtocolConfig(dt=0.01, substeps=2, backend="phase", seed=4,
                         theta=ThetaConfig.fixed(1.2, 1.3, 1.4))
    events = [Event(time=2.0, kind="unplug", payload={"node": 0}),
              Event(time=4.0, kind="plug", payload={"node": 0})]
    ts = run_plant("ac", ders, net, comm, cfg, horizon=6.0, events=events)
    assert len(ts.times) == 600
    assert ts.events_applied == ["t=2 unplug node=0", "t=4 plug node=0"]


def test_offline_der_keeps_its_streams():
    # With DER 0 offline, DERs 1 and 2 still draw theta and shots from their
    # own index, exactly as on the full graph with node 0 isolated.
    ders, net, comm = ac3()
    ders[0].online = False
    net.apply_default_k(ders)
    cfg = ProtocolConfig(dt=0.01, substeps=2, shots=64, backend="phase", seed=4)
    plant = AcPlantState(deltas=np.zeros(3),
                         protocol=ProtocolState(phis=np.full(3, 0.5), step=7))
    plant2, out = ac_step(plant, ders, net, comm, cfg)
    assert np.array_equal(plant2.protocol.thetas[1:], cfg.theta.draw(4, 7, 3)[1:])
    isolated = qsdc_step(ProtocolState(phis=np.full(3, 0.5), step=7),
                         build_graph(3, [(1, 2)]), cfg, out["pinner"])
    assert np.array_equal(plant2.protocol.phis[1:], isolated.phis[1:])
    assert plant2.protocol.phis[0] == 0.5


def test_ac_partition_detected():
    ders, net, _ = ac3()
    chain = build_graph(3, [(0, 1), (1, 2)])
    events = [Event(time=2.0, kind="unplug", payload={"node": 1})]
    with pytest.raises(PartitionError):
        run_plant("ac", ders, net, chain, phase_cfg(), horizon=5.0, events=events)


def test_ac_scaling_rule_checked():
    ders, net, comm = ac3()
    net.k = 10.0  # k * max(n*rated) = 10 * 0.2 = 2 >= pi/2
    with pytest.raises(ValueError, match="pi/2"):
        run_plant("ac", ders, net, comm, phase_cfg(), horizon=1.0)


def test_ac_default_scaling_rule():
    ders, _, _ = ac3()
    k = default_ac_scaling(ders)
    assert k == pytest.approx(0.8 * (PI / 2) / 0.2)


def test_ac_pinners_stay_in_range():
    ders, net, comm = ac3()
    events = [Event(time=5.0, kind="step_load", payload={"node": 2, "delta_kw": 30.0})]
    ts = run_plant("ac", ders, net, comm, phase_cfg(), horizon=15.0, events=events)
    assert ts.data["pinner"].min() >= 0.0
    assert ts.data["pinner"].max() < PI / 2
    assert len(ts.warnings) == 0


def test_ac_zero_event_run_is_flat_after_transient():
    ders, net, comm = ac3()
    ts = run_plant("ac", ders, net, comm, phase_cfg(), horizon=20.0)
    late = ts.times >= 15.0
    for name in ("omega", "power", "phi"):
        series = ts.data[name][late]
        assert np.max(series.max(axis=0) - series.min(axis=0)) <= 1e-4


# -- DC solve ----------------------------------------------------------------


def test_dc_solve_no_load():
    ders, _, _ = dc3()
    vb, cur = dc_solve([48.0, 48.0, 48.0], [d.line_r for d in ders], math.inf, [0, 1, 2])
    assert vb == pytest.approx(48.0, abs=1e-12)
    assert np.allclose(cur, 0.0)


def test_dc_solve_two_der_closed_form():
    vb, cur = dc_solve([48.0, 48.0], [0.1, 0.1], 3.0, [0, 1])
    assert vb == pytest.approx(47.2131, abs=1e-4)
    assert np.allclose(cur, 7.8689, atol=1e-4)
    # nodal residuals of both defining equations
    for i in range(2):
        assert abs(vb - (48.0 - 0.1 * cur[i])) <= 1e-9
    assert abs(cur.sum() - vb / 3.0) <= 1e-9


def test_dc_solve_unplug_recomputes():
    vb, cur = dc_solve([48.0, 48.0], [0.1, 0.1], 3.0, [0])
    assert cur[1] == 0.0
    assert vb == pytest.approx(48.0 * 10.0 / (1.0 / 3.0 + 10.0), abs=1e-9)


def test_dc_solve_errors():
    r = [d.line_r for d in dc3()[0]]
    with pytest.raises(MicrogridError, match="online"):
        dc_solve([48.0] * 3, r, 3.0, [])
    with pytest.raises(MicrogridError, match="positive"):
        dc_solve([48.0] * 3, r, -3.0, [0])


def test_dc_solve_is_the_closed_loop_oracle():
    # the droop-closed step must satisfy the open-loop Kirchhoff solve at its
    # own reference voltages V* - m_i I_i + phi_i/c
    ders, net, comm = dc3(r_load=8.0)
    ders[1].online = False
    net.apply_default_c(ders)
    state = DcPlantState(protocol=ProtocolState(phis=np.array([0.3, 0.5, 0.4])),
                         currents=np.array([2.0, 0.0, 1.5]))
    _, out = dc_step(state, ders, net, comm, phase_cfg(seed=3))
    vb, cur = dc_solve(out["vref"], [d.line_r for d in ders], net.r_load, [0, 2])
    assert abs(vb - out["vbus"][0]) <= 1e-9
    assert np.max(np.abs(cur - out["current"])) <= 1e-9
    assert out["current"][1] == 0.0 and out["current"][0] > 1.0


# -- DC closed loop ----------------------------------------------------------


def test_dc_steady_state_light_load():
    ders, net, comm = dc3(r_load=100.0)
    ts = run_plant("dc", ders, net, comm, phase_cfg(seed=2), horizon=20.0)
    assert abs(ts.data["vbus"][-1] - 48.0) <= 1e-3
    share = ts.data["pinner"][-1] / ts.meta["c"]
    assert (share.max() - share.min()) / share.mean() <= 0.01
    # bus relation V_b = V_ref - R I holds per online DER
    vb = ts.data["vbus"][-1]
    for i in range(3):
        res = vb - (ts.data["vref"][-1][i] - ders[i].line_r * ts.data["current"][-1][i])
        assert abs(res) <= 1e-9


def test_dc_current_shares_inverse_to_droop():
    ders, net, comm = dc3(r_load=10.0)
    ts = run_plant("dc", ders, net, comm, phase_cfg(seed=2), horizon=20.0)
    cur = ts.data["current"][-1]
    assert cur[0] / cur[1] == pytest.approx(1.25 / 1.0, rel=1e-3)
    assert cur[0] / cur[2] == pytest.approx(0.8 / 1.0, rel=1e-3)


def test_dc_step_load_dips_then_recovers():
    ders, net, comm = dc3(r_load=math.inf)
    events = [Event(time=5.0, kind="step_load", payload={"r_load": 6.0})]
    ts = run_plant("dc", ders, net, comm, phase_cfg(seed=2), horizon=25.0,
                   events=events)
    k_dip = np.argmin(ts.data["vbus"])
    # the primary droop alone drops the bus hard; the secondary restores it
    assert 5.0 <= ts.times[k_dip] <= 7.0
    assert ts.data["vbus"][k_dip] < 47.0
    assert abs(ts.data["vbus"][-1] - 48.0) <= 1e-2


def test_dc_mixing_dichotomy():
    mixing = [MixingEvent(nodes=(1,), t_start=5.0, t_end=20.0, p=0.1)]
    events = [Event(time=2.0, kind="step_load", payload={"r_load": 6.0})]
    ders, net, comm = dc3()
    qsdc = run_plant("dc", ders, net, comm, phase_cfg(seed=2), horizon=20.0,
                     events=events, mixing=mixing)
    ders2, net2, comm2 = dc3()
    qdc = run_plant("dc", ders2, net2, comm2, phase_cfg(seed=2, mode="qdc_legacy"),
                    horizon=20.0, events=events, mixing=mixing)
    err_qsdc = abs(qsdc.data["vbus"][-1] - 48.0)
    err_qdc = abs(qdc.data["vbus"][-1] - 48.0)
    assert err_qsdc <= 1e-2
    assert err_qdc >= 0.1  # persistent offset under the legacy estimator


def test_run_plant_leaves_its_inputs_alone():
    # dc9 steps the load resistance at t=20 and unplugs and replugs a DER
    sc = parse_scenario(SCENARIOS / "dc9.json")
    ders, net = sc.dc_plant()
    csvs = []
    for _ in range(2):
        ts = run_plant("dc", ders, net, sc.graph(), sc.protocol(), horizon=sc.horizon,
                       events=sc.plant_events(), mixing=sc.mixing_events())
        fh = io.StringIO()
        ts.write_csv(fh)
        csvs.append(fh.getvalue())
    assert len(set(csvs)) == 1  # not csvs[0] == csvs[1]: a diff of two CSVs takes minutes
    assert (ders, net) == sc.dc_plant()
    assert ts.meta["c"] == net.c > 0.0


def chained_steps(kind, ders, net, comm, cfg, horizon, events):
    """run_plant's record, stepped by hand through the one-step API."""
    ders, net = copy.deepcopy((ders, net))
    n = len(ders)
    protocol = ProtocolState(phis=np.zeros(n))
    if kind == "ac":
        net.apply_default_k(ders)
        plant, step = AcPlantState(deltas=np.zeros(n), protocol=protocol), ac_step
    else:
        net.apply_default_c(ders)
        plant, step = DcPlantState(protocol=protocol, currents=np.zeros(n)), dc_step
    rows = []
    for k in range(int(round(horizon / cfg.dt))):
        for ev in events:
            if int(round(ev.time / cfg.dt)) == k:
                microgrid._apply_event(ev, ders, net, kind)
        plant, out = step(plant, ders, net, comm, cfg)
        rows.append(out)
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


@pytest.mark.parametrize("kind", ["ac", "dc"])
def test_run_plant_matches_chained_steps(kind):
    # a stale per-segment constant (online flags, droops, loads, r_load)
    # would make the segmented run drift from the one-step API
    cfg = ProtocolConfig(dt=0.01, substeps=2, shots=64, backend="phase", seed=8)
    if kind == "ac":
        ders, net, comm = ac3()
        events = [Event(time=0.1, kind="unplug", payload={"node": 2}),
                  Event(time=0.2, kind="plug", payload={"node": 2}),
                  Event(time=0.3, kind="step_load", payload={"node": 1, "delta_kw": 8.0}),
                  Event(time=0.4, kind="droop_change", payload={"node": 0, "droop": 4e-3})]
    else:
        ders, net, comm = dc3()
        events = [Event(time=0.1, kind="unplug", payload={"node": 1}),
                  Event(time=0.3, kind="step_load", payload={"r_load": 40.0})]
    ts = run_plant(kind, ders, net, comm, cfg, horizon=0.5, events=events)
    want = chained_steps(kind, ders, net, comm, cfg, 0.5, events)
    assert list(ts.data) == list(want)
    for name, arr in want.items():  # vbus: (T,) against (T, 1), the same bytes
        assert ts.data[name].tobytes() == arr.tobytes(), name


def test_dc_partition_detected():
    ders, net, _ = dc3()
    chain = build_graph(3, [(0, 1), (1, 2)])
    events = [Event(time=1.0, kind="unplug", payload={"node": 1})]
    with pytest.raises(PartitionError):
        run_plant("dc", ders, net, chain, phase_cfg(seed=2), horizon=3.0,
                  events=events)


def test_dc_default_scaling_rule():
    ders, _, _ = dc3()
    assert default_dc_scaling(ders) == pytest.approx(0.8 * (PI / 2) / (1.25 * 6.0))


def test_event_validation():
    with pytest.raises(ValueError, match="unknown event kind"):
        Event(time=1.0, kind="meteor_strike")
    ders, net, comm = ac3()
    events = [Event(time=99.0, kind="unplug", payload={"node": 0})]
    with pytest.raises(ValueError, match="horizon"):
        run_plant("ac", ders, net, comm, phase_cfg(), horizon=10.0, events=events)


def test_timeseries_csv(tmp_path):
    ders, net, comm = ac3()
    ts = run_plant("ac", ders, net, comm, phase_cfg(), horizon=0.2)
    path = tmp_path / "ts.csv"
    with open(path, "w") as fh:
        ts.write_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,")
    assert lines[0].endswith(",V")
    assert len(lines) == len(ts.times) + 1

"""Acceptance suite: one test per criterion, each printing a pass line with
the measured figure next to its tolerance (run with -s to see them live).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oracles import (bloch_rhs, exact_probability, pauli_on, phase_rhs, polar_bloch,
                     random_angles, random_connected_graph, rz_jump, swap_jump)
from qsdcsim.cli import fitted_decay_rate
from qsdcsim.consensus import (
    MixingEvent,
    ProtocolConfig,
    ProtocolState,
    RateRegionError,
    StepPlan,
    ThetaConfig,
    convergence_rate,
    qsdc_step,
    run_consensus,
)
from qsdcsim.engine import (
    _rk4,
    build_jump_set,
    evolve,
    local_bloch,
    product_state,
    rk4_coefficients,
)
from qsdcsim.measurement import (
    constant_phase_stream,
    eve_intercept,
    sample_basis,
    stream_rng,
)
from qsdcsim.microgrid import run_plant
from qsdcsim.netgraph import build_graph
from qsdcsim.scenario import parse_scenario

PI = math.pi
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_three_node_consensus():
    sc = parse_scenario(SCENARIOS / "consensus3.json")
    cfg = sc.protocol()
    assert cfg.backend == "full" and cfg.exact and cfg.dt == 0.01
    start = time.perf_counter()
    traj = run_consensus(
        sc.raw["consensus"]["initial_phi"], sc.raw["consensus"]["pinner"],
        sc.graph(), cfg, horizon=10.0)
    elapsed = time.perf_counter() - start
    final_err = float(np.max(np.abs(traj.phis[-1] - PI / 3)))
    eps = max(abs(p - PI / 3) for p in sc.raw["consensus"]["initial_phi"])
    mu = convergence_rate(sc.graph(), eps)
    rate = fitted_decay_rate(traj.times, traj.lyapunov)
    assert final_err <= 1e-3
    assert rate >= 0.95 * 2.0 * mu
    assert elapsed < 5.0
    report(1, f"final error {final_err:.2e} <= 1e-3, fitted rate {rate:.3f} >= "
              f"{0.95 * 2 * mu:.3f}, runtime {elapsed:.2f}s < 5s")


def test_criterion_2_backend_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_xyz = 0.0
    worst_phi = 0.0
    for _case in range(20):
        n = int(rng.integers(2, 5))
        g = random_connected_graph(rng, n)
        init = rng.uniform(0.05, PI / 2 - 0.05, n)
        pinners = rng.uniform(0.1, 1.4, n)
        theta = ThetaConfig.fixed(*rng.uniform(0.4, PI - 0.4, n))
        states = {}
        for backend in ("full", "bloch", "phase"):
            states[backend] = ProtocolState(phis=init.copy())
        cfgs = {
            b: ProtocolConfig(dt=1e-3, substeps=2, shots=None, theta=theta,
                              backend=b, seed=77)
            for b in states
        }
        # every step prepares z = cos(theta) afresh, and dz/dt = -L z does
        # not see the phases, so full's z after each step is this one
        zero, cfg = np.zeros(n), cfgs["full"]
        z_want = _rk4(np.cos(theta.values), [
            lambda u, c=c: c * bloch_rhs(zero, zero, u, None, g)[2]
            for c in rk4_coefficients(cfg.dt / cfg.substeps)], cfg.substeps)
        for _step in range(25):
            for b in states:
                states[b] = qsdc_step(states[b], StepPlan(g), cfgs[b], pinners)
            full, bloch = states["full"], states["bloch"]
            fx = full.s * np.cos(full.phis)
            fy = full.s * np.sin(full.phis)
            bx = bloch.s * np.cos(bloch.phis)
            by = bloch.s * np.sin(bloch.phis)
            worst_xyz = max(
                worst_xyz,
                float(np.max(np.abs(fx - bx))),
                float(np.max(np.abs(fy - by))),
                float(np.max(np.abs(local_bloch(full.rho)[:, 2] - z_want))),
            )
            worst_phi = max(worst_phi, float(np.max(np.abs(
                states["full"].phis - states["phase"].phis))))
    elapsed = time.perf_counter() - start
    assert worst_xyz <= 1e-6
    assert worst_phi <= 1e-6
    assert elapsed < 60.0
    report(2, f"20 cases: worst expectation gap {worst_xyz:.2e} <= 1e-6, "
              f"worst phase gap {worst_phi:.2e} <= 1e-6, runtime {elapsed:.1f}s < 60s")


def test_criterion_3_theorem_rate_identity():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _case in range(100):
        n = int(rng.integers(2, 5))
        g = random_connected_graph(rng, n)
        phis = rng.uniform(0.1, 1.4, n)
        thetas = rng.uniform(0.4, PI - 0.4, n)
        pinners = rng.uniform(0.1, 1.4, n)
        rho = product_state(thetas, phis)
        jumps = build_jump_set(g, pinners - phis)
        h = 1e-6
        mid = evolve(rho, jumps, h, 1)
        end = evolve(mid, jumps, h, 1)

        def node_phi(state):
            x, y, _ = local_bloch(state).T
            return np.arctan2(y, x)

        fd = (node_phi(end) - node_phi(rho)) / (2.0 * h)
        s_mid = np.hypot(*local_bloch(mid)[:, :2].T)
        pred = phase_rhs(node_phi(mid), s_mid, pinners, g)
        rel = float(np.max(np.abs(fd - pred) / np.maximum(np.abs(pred), 1e-6)))
        worst = max(worst, rel)
    assert worst <= 1e-3
    report(3, f"finite-difference dphi/dt vs phase dynamics at 100 states: "
              f"worst rel err {worst:.2e} <= 1e-3")


def test_criterion_4_measurement_histogram():
    bloch = polar_bloch(1.0, PI / 2, PI / 6)
    p0 = exact_probability(bloch, "X")
    assert p0 == pytest.approx(0.9330127018922194, abs=1e-9)
    sigma = math.sqrt(p0 * (1.0 - p0) / 2000.0)
    hits = 0
    for seed in range(100):
        h = sample_basis(bloch, "X", 2000, seed)
        hits += abs(h.p0 - p0) <= 3.0 * sigma
    assert hits >= 99
    report(4, f"exact p0 = {p0:.4f} (0.9330), {hits}/100 seeds within 3 sigma "
              "at 2000 shots")


def test_criterion_5_eve_bias_and_z_randomness():
    thetas = stream_rng(7, 4).uniform(0.0, PI, 30000)
    stream = constant_phase_stream(PI / 6, thetas, 1.0)
    exact = eve_intercept(stream, bases_policy="cycle", shots_per_step=1, seed=7,
                          exact=True)
    bias = abs(exact.naive_phi - PI / 6)
    assert bias >= 0.3
    assert exact.naive_phi == pytest.approx(0.987, abs=0.02)
    sampled = eve_intercept(stream, bases_policy="cycle", shots_per_step=1, seed=7)
    z = sampled.histograms["Z"]
    assert z.shots == 10000
    pvalue = stats.binomtest(z.zeros, z.shots, 0.5).pvalue
    assert pvalue > 0.01
    report(5, f"naive estimator {exact.naive_phi:.4f} vs true {PI / 6:.4f} "
              f"(bias {bias:.3f} >= 0.3); Z counts pass p=0.5 binomial test "
              f"(p-value {pvalue:.3f} > 0.01) at 1e4 shots")


def test_criterion_6_mixed_state_dichotomy():
    events = [MixingEvent(nodes=(1,), t_start=2.0, t_end=10.0, p=0.1)]
    init = [0.0, PI / 8, PI / 2]
    qdc_cfg = ProtocolConfig(dt=0.01, substeps=4, shots=None, mode="qdc_legacy",
                             backend="full", seed=1)
    qdc = run_consensus(init, PI / 3, TRIANGLE, qdc_cfg, 10.0, events)
    qdc_err = float(np.max(np.abs(qdc.phis[-1] - PI / 3)))
    qsdc_cfg = ProtocolConfig(dt=0.01, substeps=4, shots=None, mode="qsdc",
                              theta=ThetaConfig.fixed(1.96, 1.49, 2.07),
                              backend="full", seed=1)
    qsdc = run_consensus(init, PI / 3, TRIANGLE, qsdc_cfg, 10.0, events)
    qsdc_err = float(np.max(np.abs(qsdc.phis[-1] - PI / 3)))
    assert qdc_err >= 0.03
    assert qsdc_err <= 1e-3

    # AC plant under mixing at nodes {0, 4, 8, 10}
    freq_err = {}
    for name in ("ac15_mixed", "ac15_mixed_qdc"):
        sc = parse_scenario(SCENARIOS / f"{name}.json")
        ders, network = sc.ac_plant()
        ts = run_plant("ac", ders, network, sc.graph(), sc.protocol(),
                       horizon=sc.horizon, events=sc.plant_events(),
                       mixing=sc.mixing_events())
        win = ts.times >= 0.9 * sc.horizon
        freq_err[name] = float(np.max(np.abs(ts.data["omega"][win] - 60.0)))
    assert freq_err["ac15_mixed"] <= 1e-3
    assert freq_err["ac15_mixed_qdc"] >= 10.0 * max(freq_err["ac15_mixed"], 1e-12)
    report(6, f"legacy estimator error {qdc_err:.3f} >= 0.03 vs twin estimator "
              f"{qsdc_err:.2e} <= 1e-3; AC steady error legacy "
              f"{freq_err['ac15_mixed_qdc']:.3e} Hz >= 10x "
              f"{freq_err['ac15_mixed']:.3e} Hz")


def test_criterion_7_ac_scenario_properties():
    sc = parse_scenario(SCENARIOS / "ac15.json")
    ders, network = sc.ac_plant()
    start = time.perf_counter()
    ts = run_plant("ac", ders, network, sc.graph(), sc.protocol(),
                   horizon=sc.horizon, events=sc.plant_events(),
                   mixing=sc.mixing_events())
    elapsed = time.perf_counter() - start
    # settles to 60 Hz +- 1e-3 within 5 s of the t=10 step (droop event at 17)
    win = (ts.times >= 15.0) & (ts.times < 17.0)
    settle_err = float(np.max(np.abs(ts.data["omega"][win] - 60.0)))
    assert settle_err <= 1e-3
    # final-window sharing spread <= 1 %
    sharing = ts.data["pinner"] / network.k
    tail = sharing[ts.times >= 0.9 * sc.horizon]
    spread = float(np.max((tail.max(axis=1) - tail.min(axis=1)) / tail.mean(axis=1)))
    assert spread <= 0.01
    # common value re-solves sum(x*/n_i) = sum(P_L) after the droop changes;
    # the run leaves `ders` and `network` alone, so the post-event droops come
    # from pinner = k n_i P_i and the load from sum(P) = sum(P_L)
    power = ts.data["power"][-1]
    droops = sharing[-1] / power
    x_star = float(tail[-1].mean())
    total_load = float(np.sum(power))
    resid = abs(np.sum(x_star / droops) - total_load) / total_load
    assert resid <= 1e-3
    assert elapsed < 30.0
    report(7, f"freq error {settle_err:.2e} Hz <= 1e-3 within 5s, spread "
              f"{100 * spread:.4f}% <= 1%, sharing equation residual "
              f"{100 * resid:.4f}% <= 0.1%, runtime {elapsed:.1f}s < 30s")


def test_criterion_8_dc_scenario_properties():
    sc = parse_scenario(SCENARIOS / "dc9.json")
    ders, network = sc.dc_plant()
    start = time.perf_counter()
    ts = run_plant("dc", ders, network, sc.graph(), sc.protocol(),
                   horizon=sc.horizon, events=sc.plant_events(),
                   mixing=sc.mixing_events())
    elapsed = time.perf_counter() - start
    vb = ts.data["vbus"]
    # settled windows: the last second before each following event, and the tail
    windows = {"after step load": (27.0, 28.0), "after unplug": (34.0, 35.0),
               "after replug": (44.0, 45.0)}
    errs = {}
    for label, (a, b) in windows.items():
        sel = (ts.times >= a) & (ts.times < b)
        errs[label] = float(np.max(np.abs(vb[sel] - 48.0)))
        assert errs[label] <= 1e-2, label
    sharing = ts.data["pinner"] / network.c
    online = ts.data["online"] > 0.5
    sel = ts.times >= 44.0
    tail = sharing[sel]
    spread = float(np.max((tail.max(axis=1) - tail.min(axis=1)) / tail.mean(axis=1)))
    assert spread <= 0.01
    assert elapsed < 30.0
    report(8, "max |Vb - 48| V: "
              + ", ".join(f"{k} {v:.2e}" for k, v in errs.items())
              + f" (all <= 1e-2), sharing spread {100 * spread:.3f}% <= 1%, "
              f"runtime {elapsed:.1f}s < 30s")


def test_criterion_9_convergence_rate_values():
    graphs = [TRIANGLE,
              build_graph(4, [(0, 1), (1, 2), (2, 3)]),
              build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])]
    for g in graphs:
        assert convergence_rate(g, 0.0) == pytest.approx(1.0, abs=1e-9)
    mu = convergence_rate(TRIANGLE, PI / 3)
    assert mu == pytest.approx(0.8270, abs=1e-3)
    with pytest.raises(RateRegionError):
        convergence_rate(TRIANGLE, PI / 2)
    with pytest.raises(RateRegionError):
        convergence_rate(TRIANGLE, 2.0)
    report(9, f"mu(eps=0) = 1.0 on 3 connected graphs, mu(triangle, pi/3) = "
              f"{mu:.4f} = 0.8270 +- 1e-3, eps >= pi/2 rejected")


def test_criterion_10_engine_invariant_fuzz():
    rng = np.random.default_rng(1000)
    for _case in range(1000):
        n = int(rng.integers(1, 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6]
        g = build_graph(n, edges)
        rho = product_state(*random_angles(rng, n))
        jumps = build_jump_set(g, rng.uniform(-PI / 2, PI / 2, n))
        out = evolve(rho, jumps, float(rng.uniform(0.005, 0.05)),
                     int(rng.integers(1, 5)))
        m = out.matrix
        assert abs(np.trace(m).real - 1.0) <= 1e-9
        assert np.max(np.abs(m - m.conj().T)) <= 1e-9
        assert np.linalg.eigvalsh(m).min() >= -1e-6

    # unitarity and conjugation identities, exact to 1e-12
    for n in (2, 3, 4):
        for i in range(n):
            for alpha in (0.3, -1.1, PI / 2):
                c = rz_jump(i, alpha, n)
                assert np.max(np.abs(c.conj().T @ c - np.eye(2**n))) <= 1e-12
        for i in range(n):
            for j in range(i + 1, n):
                c = swap_jump(i, j, n)
                assert np.max(np.abs(c.conj().T @ c - np.eye(2**n))) <= 1e-12
                for which in ("x", "y", "z"):
                    lhs = c.conj().T @ pauli_on(i, which, n) @ c
                    assert np.max(np.abs(lhs - pauli_on(j, which, n))) <= 1e-12
    report(10, "1000 random evolutions hold trace/Hermiticity/positivity; "
               "jump unitarity and swap conjugation exact to 1e-12")

import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import bloch_rhs, lyapunov, phase_rhs, random_connected_graph
from qsdcsim import consensus
from qsdcsim.consensus import (
    MixingEvent,
    ProtocolConfig,
    ProtocolState,
    RateRegionError,
    StepPlan,
    ThetaConfig,
    convergence_rate,
    lyapunov_rows,
    qsdc_step,
    run_consensus,
    write_csv_rows,
)
from qsdcsim.engine import (CapacityError, DensityMatrix, IntegrationDivergedError, local_bloch,
                            rk4_coefficients, swap_groups)
from qsdcsim.measurement import _STREAM_TAG, stream_rng
from qsdcsim.netgraph import build_graph
from qsdcsim.scenario import parse_scenario

PI = math.pi
TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])
PAPER_INIT = [0.0, PI / 8, PI / 2]
PAPER_THETA = ThetaConfig.fixed(1.96, 1.49, 2.07)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def exact_cfg(backend="phase", theta=None, **kw):
    return ProtocolConfig(
        dt=kw.pop("dt", 0.01),
        substeps=kw.pop("substeps", 4),
        shots=None,
        theta=theta or ThetaConfig.fixed(PI / 2),
        backend=backend,
        **kw,
    )


# -- configuration -----------------------------------------------------------


def test_theta_config_validation():
    with pytest.raises(ValueError):
        ThetaConfig.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        ThetaConfig.uniform(1.0, PI)
    with pytest.raises(ValueError):
        ThetaConfig.fixed(PI)
    with pytest.raises(ValueError):
        ThetaConfig(kind="gaussian")


def test_theta_fixed_per_node_draw():
    t = ThetaConfig.fixed(1.0, 1.2, 1.4)
    assert np.array_equal(t.draw(0, 5, 3), [1.0, 1.2, 1.4])
    with pytest.raises(ValueError):
        t.draw(0, 0, 4)


def test_theta_uniform_draw_in_bounds_and_deterministic():
    t = ThetaConfig.uniform(0.2, PI - 0.2)
    a = t.draw(9, 3, 6)
    b = t.draw(9, 3, 6)
    assert np.array_equal(a, b)
    assert np.all((a > 0.2) & (a < PI - 0.2))
    assert not np.array_equal(a, t.draw(9, 4, 6))


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(dt=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(dt=0.2)
    with pytest.raises(ValueError):
        ProtocolConfig(substeps=0)
    with pytest.raises(ValueError):
        ProtocolConfig(backend="gpu")
    with pytest.raises(ValueError):
        ProtocolConfig(shots=0)


@pytest.mark.parametrize("field, value", [("substeps", 2.5), ("shots", 1.5)])
def test_protocol_config_rejects_a_fractional_count(field, value):
    # 2.5 substeps used to fail inside the run with a bare TypeError, and
    # 1.5 shots ran as a sampled run
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ProtocolConfig(**{field: value})


@pytest.mark.parametrize("t_start, t_end", [(math.nan, 1.0), (0.0, math.nan)])
def test_mixing_event_rejects_a_nan_window_end(t_start, t_end):
    with pytest.raises(ValueError, match="event window"):
        MixingEvent(nodes=(0,), t_start=t_start, t_end=t_end, p=0.1)


def test_qdc_mode_forces_equator_theta():
    cfg = ProtocolConfig(mode="qdc_legacy", theta=ThetaConfig.uniform(0.3, 2.0))
    assert cfg.theta.kind == "fixed"
    assert cfg.theta.values == (PI / 2,)


# -- right-hand sides --------------------------------------------------------


def test_phase_rhs_fixed_point():
    out = phase_rhs([0.7, 0.7, 0.7], [1.0, 1.0, 1.0], [0.7, 0.7, 0.7], TRIANGLE)
    assert np.max(np.abs(out)) == 0.0


def test_phase_rhs_two_node_example():
    g = build_graph(2, [(0, 1)])
    out = phase_rhs([0.0, PI / 2], [1.0, 1.0], [PI / 4, PI / 4], g)
    assert out[0] == pytest.approx(math.sin(PI / 4) + 1.0, abs=1e-12)   # 1.7071
    assert out[1] == pytest.approx(-math.sin(PI / 4) - 1.0, abs=1e-12)


def test_phase_rhs_coherence_ratio_weights():
    g = build_graph(2, [(0, 1)])
    out = phase_rhs([0.0, PI / 2], [0.5, 1.0], [PI / 4, PI / 4], g)
    assert out[0] == pytest.approx(math.sin(PI / 4) + 2.0, abs=1e-12)   # 2.7071


def test_phase_rhs_zero_coherence_error():
    with pytest.raises(ZeroDivisionError, match="node 1"):
        phase_rhs([0.1, 0.2], [1.0, 0.0], [0.3, 0.3], build_graph(2, [(0, 1)]))


def test_bloch_rhs_swap_coupling_no_pinning():
    g = build_graph(2, [(0, 1)])
    dx, dy, dz = bloch_rhs([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], None, g)
    assert np.allclose(dx, [-1.0, 1.0])
    assert np.allclose(dy, [1.0, -1.0])
    assert np.allclose(dz, [0.0, 0.0])


def test_bloch_rhs_consensus_fixed_point():
    x = [0.6, 0.6]
    y = [0.4, 0.4]
    phi = math.atan2(0.4, 0.6)
    dx, dy, dz = bloch_rhs(x, y, [0.1, 0.1], [phi, phi], build_graph(2, [(0, 1)]))
    assert np.max(np.abs(dx)) < 1e-12 and np.max(np.abs(dy)) < 1e-12


def test_bloch_rhs_single_node_pinner():
    g = build_graph(1, [])
    dx, dy, _ = bloch_rhs([1.0], [0.0], [0.0], [PI / 2], g)
    assert dx[0] == pytest.approx(-1.0) and dy[0] == pytest.approx(1.0)


# -- protocol step -----------------------------------------------------------


def test_step_fixed_point_exact():
    for backend in ("full", "bloch", "phase"):
        cfg = exact_cfg(backend, theta=PAPER_THETA)
        state = ProtocolState(phis=np.full(3, PI / 3))
        out = qsdc_step(state, StepPlan(TRIANGLE), cfg, np.full(3, PI / 3))
        assert np.max(np.abs(out.phis - PI / 3)) <= 1e-9


def test_step_pinner_clamp_warning():
    cfg = exact_cfg("phase")
    state = ProtocolState(phis=np.full(3, 0.8))
    out = qsdc_step(state, StepPlan(TRIANGLE), cfg, np.array([2.0, 0.5, 0.5]))
    assert any("clamped" in w for w in out.warnings)
    assert out.pinners[0] == PI / 2
    # an offline node's pinner is clamped too, but no warning names it
    off = qsdc_step(state, StepPlan(TRIANGLE, [False, True, True]), cfg,
                    np.array([2.0, 0.5, 0.5]))
    assert off.pinners[0] == PI / 2
    assert not off.warnings


def test_step_online_flags_need_one_per_node():
    with pytest.raises(ValueError, match="3 online flags"):
        StepPlan(TRIANGLE, [False])


def test_step_full_backend_capacity():
    g = build_graph(11, [(i, i + 1) for i in range(10)])
    cfg = exact_cfg("full")
    with pytest.raises(CapacityError):
        qsdc_step(ProtocolState(phis=np.full(11, 0.4)), StepPlan(g), cfg, np.full(11, 0.4))


def test_full_step_keeps_the_sign_of_a_zero_y(monkeypatch):
    # the evolved state reads x < 0 and y = -0.0: atan2 gives -pi, which the
    # clip takes to 0; a y turned into +0.0, as x + 1j*y turns it, gives +pi
    # and pi/2
    m = np.array([[0.5, -0.5], [-0.5 + 2.0**-54, 0.5]], dtype=complex)
    monkeypatch.setattr(consensus.engine, "evolve",
                        lambda rho, jumps, dt, substeps: DensityMatrix(matrix=m, qubit_count=1))
    out = qsdc_step(ProtocolState(phis=np.array([0.4])), StepPlan(build_graph(1, [])),
                    exact_cfg("full"), [0.4])
    assert out.phis[0] == 0.0 and not out.warnings


def test_step_mixing_aborts_node_when_coherence_collapses():
    cfg = exact_cfg("phase")
    ev = MixingEvent(nodes=(0,), t_start=0.0, t_end=1.0, p=0.75)  # shrink to 0
    state = ProtocolState(phis=np.full(3, 0.5))
    out = qsdc_step(state, StepPlan(TRIANGLE), cfg, np.full(3, 0.7), events=[ev])
    assert out.phis[0] == 0.5  # held at its previous estimate
    assert any("node 0" in w for w in out.warnings)
    assert out.phis[1] != 0.5


def test_step_node_state_view():
    cfg = exact_cfg("phase", theta=ThetaConfig.fixed(1.1, 1.2, 1.3))
    out = qsdc_step(ProtocolState(phis=np.full(3, 0.5)), StepPlan(TRIANGLE), cfg,
                    np.full(3, 0.6))
    assert out.thetas[2] == 1.3
    assert out.pinners[2] == 0.6
    assert 0.0 < out.s[2] <= 1.0


def test_step_sampled_mode_deterministic():
    cfg = ProtocolConfig(dt=0.01, substeps=2, shots=500,
                         theta=ThetaConfig.uniform(0.5, 2.5), seed=21,
                         backend="phase")
    a = qsdc_step(ProtocolState(phis=np.full(3, 0.4)), StepPlan(TRIANGLE), cfg, np.full(3, 0.9))
    b = qsdc_step(ProtocolState(phis=np.full(3, 0.4)), StepPlan(TRIANGLE), cfg, np.full(3, 0.9))
    assert np.array_equal(a.phis, b.phis)


def counting(monkeypatch, name, calls, record):
    """Wrap consensus.<name> so that each call appends record(*args) to calls."""
    real = getattr(consensus, name)

    def counted(*args):
        calls.append(record(*args))
        return real(*args)

    monkeypatch.setattr(consensus, name, counted)


def test_step_draws_one_theta_stream_and_one_shot_draw(monkeypatch):
    consensus._theta_block.cache_clear()  # a cached block would need no stream
    streams, draws = [], []
    counting(monkeypatch, "stream_rng", streams, lambda *key: key)
    counting(monkeypatch, "_sample_zeros", draws, lambda rng, shots, e: np.shape(e))
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    state = ProtocolState(phis=np.full(6, 0.4), step=3)
    uniform = ThetaConfig.uniform(0.5, 2.5)
    qsdc_step(state, StepPlan(g), exact_cfg("phase", theta=uniform), np.full(6, 0.9))
    assert (streams, draws) == ([(0, _STREAM_TAG["theta"], 0)], [])
    for mode, shape in (("qsdc", (2, 6)), ("qdc_legacy", (1, 6))):
        streams.clear()
        draws.clear()
        sampled = ProtocolConfig(dt=0.01, substeps=2, shots=64, theta=uniform, seed=8,
                                 mode=mode)
        qsdc_step(state, StepPlan(g, [True, False] * 3), sampled, np.full(6, 0.9))
        # qdc_legacy fixes theta, so it draws no theta block
        assert streams == ([(8, _STREAM_TAG["theta"], 0)] if mode == "qsdc" else [])
        assert draws == [shape]  # every basis and node, offline ones too


def test_sampled_run_draws_once_per_step(monkeypatch):
    draws = []
    counting(monkeypatch, "_sample_zeros", draws, lambda rng, shots, e: np.shape(e))
    cfg = ProtocolConfig(dt=0.01, substeps=2, shots=32, seed=3, backend="bloch")
    run_consensus(PAPER_INIT, PI / 3, TRIANGLE, cfg, horizon=0.5)
    assert draws == [(2, 3)] * 50


def test_shot_draws_are_a_pure_function_of_seed_and_step():
    # (seed, shots tag, step)'s fresh stream, whatever was measured before
    xs, ys = np.linspace(-0.9, 0.9, 5), np.linspace(0.8, -0.2, 5)
    cfg = {seed: ProtocolConfig(shots=100, seed=seed) for seed in (4, 5)}
    keys = [(4, 7), (5, 7), (4, 8), (4, 7), (5, 2**33)]
    got = [consensus._measure_node(xs + 1j * ys, cfg[seed], step) for seed, step in keys]
    for (seed, step), (sx, sy) in zip(keys, got):
        zeros = stream_rng(seed, _STREAM_TAG["shots"], step).binomial(
            100, 0.5 * (1.0 + np.stack((xs, ys))))
        assert np.array_equal(np.stack((sx, sy)), zeros / 50.0 - 1.0)
    assert np.array_equal(np.stack(got[0]), np.stack(got[3]))
    assert not np.array_equal(np.stack(got[0]), np.stack(got[2]))


@pytest.mark.parametrize("mode", ["qsdc", "qdc_legacy"])
def test_measure_node_samples_strided_w_like_a_stacked_copy(mode):
    # the (2, n) rows are a view of w's own memory; they must draw bitwise
    # what the stacked copy of (x, y) draws, however w is laid out
    xs = np.array([-1.0, -0.6, 0.0, 0.35, 1.0, 0.9])
    ys = np.array([0.2, -1.0, 0.5, -0.0, 0.0, 1.0])
    buf = np.zeros((3, 6), dtype=complex)
    buf[:, 1] = xs[:3] + 1j * ys[:3]
    for w in (xs + 1j * ys, buf[:, 1], (xs + 1j * ys)[::-2], np.stack((xs + 1j * ys, xs))[0]):
        cfg = ProtocolConfig(shots=50, seed=6, mode=mode)
        sx, sy = consensus._measure_node(w, cfg, 11)
        e = np.stack((w.real, w.imag))[:1 if mode == "qdc_legacy" else 2]
        zeros = stream_rng(6, _STREAM_TAG["shots"], 11).binomial(50, 0.5 * (1.0 + np.clip(e, -1, 1)))
        want = 2.0 * zeros / 50 - 1.0
        assert sx.tobytes() == want[0].tobytes()
        if mode == "qsdc":
            assert sy.tobytes() == want[1].tobytes()
        else:
            assert np.isnan(sy).all() and sy.shape == sx.shape


def test_theta_blocks_match_fresh_draws():
    # each row is (seed, theta tag, step // THETA_BLOCK)'s block row
    # step % THETA_BLOCK, whatever order the steps come in and whatever the
    # cache holds
    theta, b = ThetaConfig.uniform(0.3, 2.8), consensus.THETA_BLOCK
    steps = (5000, 3, 1024, 1023, 5000)
    consensus._theta_block.cache_clear()
    rows = [theta.draw(6, step, 7).copy() for step in steps]
    for step, row in zip(steps, rows):
        consensus._theta_block.cache_clear()
        assert np.array_equal(row, theta.draw(6, step, 7))
        block = stream_rng(6, _STREAM_TAG["theta"], step // b).uniform(0.3, 2.8, (b, 7))
        assert np.array_equal(row, block[step % b])


def test_theta_rows_are_read_only():
    theta = ThetaConfig.uniform(0.3, 2.8)
    row = theta.draw(6, 10, 4)
    want = row.copy()
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0
    assert np.array_equal(theta.draw(6, 10, 4), want)


def test_pinner_clamp_keeps_np_clip_bits():
    # -0.0 stays -0.0 and nan stays nan, as np.clip leaves them; a nan
    # pinner counts as clamped, an offline node is not named
    pinners = np.array([-0.0, np.nan, 2.0, -1.0, 0.7, 0.0])
    online = np.array([True, True, True, False, True, True])
    warnings = []
    clamped = consensus._clamp_pinners(pinners, online, warnings)
    assert clamped.tobytes() == np.clip(pinners, 0.0, PI / 2).tobytes()
    assert warnings == ["pinners clamped to [0, pi/2] at nodes [1, 2]"]


def test_sampled_estimate_ignores_isolated_node_going_offline():
    # node 0 has no edges, so whether it is online must not move the others,
    # although all nodes draw from the same per-step streams
    g = build_graph(4, [(1, 2), (2, 3), (1, 3)])
    cfg = ProtocolConfig(dt=0.01, substeps=2, shots=256,
                         theta=ThetaConfig.uniform(0.5, 2.5), seed=5)
    state = ProtocolState(phis=np.array([0.3, 0.4, 0.6, 0.8]), step=2)
    pinners = np.full(4, 0.7)
    on = qsdc_step(state, StepPlan(g), cfg, pinners)
    off = qsdc_step(state, StepPlan(g, [False, True, True, True]), cfg, pinners)
    assert np.array_equal(on.phis[1:], off.phis[1:])
    assert off.phis[0] == 0.3 and on.phis[0] != 0.3


def test_offline_node_step_equals_hand_pruned_graph():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 7)
    g = build_graph(7, g.edges, rng.uniform(0.5, 2.0, len(g.edges)))
    pruned = build_graph(7, [e for e in g.edges if 4 not in e],
                         [w for e, w in zip(g.edges, g.weights) if 4 not in e])
    state = ProtocolState(phis=rng.uniform(0.1, 1.4, 7), step=9)
    pinners = rng.uniform(0.2, 1.3, 7)
    online = np.arange(7) != 4
    for backend in ("phase", "bloch"):
        cfg = exact_cfg(backend, theta=ThetaConfig.uniform(0.4, 2.6), seed=3)
        masked = qsdc_step(state, StepPlan(g, online), cfg, pinners)
        by_hand = qsdc_step(state, StepPlan(pruned), cfg, pinners)
        assert np.max(np.abs(masked.phis - by_hand.phis)[online]) <= 1e-14
        assert masked.phis[4] == state.phis[4]


def test_sampled_degenerate_node_holds_phase():
    # two shots per basis give sx, sy in {-1, 0, 1}, so both are often zero
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    cfg = ProtocolConfig(shots=2, theta=ThetaConfig.uniform(0.5, 2.5), seed=11)
    online = np.arange(6) != 5
    state = ProtocolState(phis=np.array([0.2, 1.9, 0.6, -0.3, 1.1, 1.7]))
    degenerate = 0
    plan = StepPlan(g, online)
    for _ in range(40):
        out = qsdc_step(state, plan, cfg, np.full(6, 0.8))
        assert out.phis[5] == 1.7
        held = state.phis.clip(0.0, PI / 2)
        for w in out.warnings:
            node = int(re.match(r"node (\d+): ", w)[1])
            assert node != 5
            if w == f"node {node}: degenerate coherence; step aborted for this node":
                degenerate += 1
                assert out.phis[node] == held[node]
        state = out
    assert degenerate


def test_step_plan_prunes_offline_edges():
    plan = StepPlan(TRIANGLE, [True, False, True])
    core = plan.core
    assert plan.graph.edges == ((0, 2),)
    assert np.array_equal(plan.offline, [1])
    lap = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.array_equal(core, -lap)
    with pytest.raises(ValueError, match="read-only"):
        core[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        core += 1.0


def test_step_plan_reuse_matches_fresh_plans_bitwise():
    # a step writes only the diagonals of the plan's stage matrices: every
    # other entry stays c times the core's, and ten steps through one plan
    # equal ten that each build their own
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)], weights=[1, 2, 1, 0.5, 1, 3])
    online = np.arange(5) != 2
    events = (MixingEvent((1, 4), 0.02, 0.05, 0.1),)
    off = ~np.eye(5, dtype=bool)
    for shots in (None, 64):
        cfg = ProtocolConfig(dt=0.01, substeps=3, shots=shots, backend="bloch", seed=4,
                             theta=ThetaConfig.uniform(0.4, 2.7))
        plan = StepPlan(g, online)
        shared = fresh = ProtocolState(phis=np.array([0.1, 1.2, 0.7, 0.3, 1.5]))
        for k in range(10):
            pinners = np.linspace(0.2, 1.3, 5) + 0.05 * k
            shared = qsdc_step(shared, plan, cfg, pinners, events)
            fresh = qsdc_step(fresh, StepPlan(g, online), cfg, pinners, events)
            for c, m in zip(rk4_coefficients(cfg.dt / cfg.substeps), plan.mats):
                assert m[off].tobytes() == (c * plan.core)[off].tobytes()
            for got, want in ((shared.phis, fresh.phis), (shared.s, fresh.s)):
                assert got.tobytes() == want.tobytes()


def test_step_plan_rebuilds_its_stages_when_the_substep_changes():
    # one plan stepped under a second substep length h = dt/substeps and
    # then the first again must match fresh plans bitwise at every step
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)], weights=[1, 0.5, 2, 1.5])
    theta = ThetaConfig.uniform(0.4, 2.7)
    cfgs = [ProtocolConfig(dt=0.01, substeps=4, backend="bloch", seed=2, theta=theta),
            ProtocolConfig(dt=0.02, substeps=3, backend="bloch", seed=2, theta=theta)]
    plan = StepPlan(g)
    shared = fresh = ProtocolState(phis=np.array([0.1, 1.2, 0.7, 0.3]))
    for k, cfg in enumerate(cfgs + cfgs[:1] + cfgs):
        pinners = np.linspace(0.2, 1.3, 4) + 0.05 * k
        shared = qsdc_step(shared, plan, cfg, pinners)
        fresh = qsdc_step(fresh, StepPlan(g), cfg, pinners)
        assert shared.phis.tobytes() == fresh.phis.tobytes(), k
        assert shared.s.tobytes() == fresh.s.tobytes(), k


def test_full_run_builds_its_swap_indices_once_per_plan(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return swap_groups(*args)

    monkeypatch.setattr(consensus.engine, "swap_groups", counted)
    traj = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, exact_cfg("full", theta=PAPER_THETA), 0.1)
    assert len(traj.times) == 11 and calls == [(3, TRIANGLE.edges, TRIANGLE.weights)]


# -- backend equivalence -----------------------------------------------------


def test_backend_equivalence_small():
    rng = np.random.default_rng(17)
    for _ in range(4):
        n = int(rng.integers(2, 5))
        g = random_connected_graph(rng, n)
        init = rng.uniform(0.05, PI / 2 - 0.05, n)
        pinners = rng.uniform(0.1, 1.4, n)
        theta = ThetaConfig.fixed(*rng.uniform(0.4, PI - 0.4, n))
        results = {}
        for backend in ("full", "bloch", "phase"):
            cfg = exact_cfg(backend, theta=theta, dt=0.001, substeps=2, seed=3)
            state = ProtocolState(phis=init.copy())
            trace = []
            for _step in range(20):
                state = qsdc_step(state, StepPlan(g), cfg, pinners)
                trace.append(state.phis.copy())
            results[backend] = np.array(trace)
        assert np.max(np.abs(results["full"] - results["bloch"])) <= 1e-6
        assert np.max(np.abs(results["full"] - results["phase"])) <= 1e-6


def test_full_backend_local_expectations_match_bloch_rhs_integration():
    # one protocol step, compare reduced Bloch components against the closed
    # linear ODE integrated with the same RK4 grid
    rng = np.random.default_rng(23)
    n = 3
    g = random_connected_graph(rng, n)
    phis = rng.uniform(0.1, 1.4, n)
    thetas = rng.uniform(0.4, PI - 0.4, n)
    pinners = rng.uniform(0.1, 1.4, n)
    cfg = exact_cfg("full", theta=ThetaConfig.fixed(*thetas), dt=0.001, substeps=4)
    out = qsdc_step(ProtocolState(phis=phis.copy()), StepPlan(g), cfg, pinners)

    alphas = pinners - phis
    from qsdcsim.netgraph import adjacency_matrix

    a = adjacency_matrix(g)
    deg = a.sum(axis=1)
    v = np.concatenate([np.sin(thetas) * np.cos(phis),
                        np.sin(thetas) * np.sin(phis),
                        np.cos(thetas)])

    def rhs(u):
        x, y, z = u[:n], u[n:2 * n], u[2 * n:]
        dx = np.cos(alphas) * x - np.sin(alphas) * y - x + a @ x - deg * x
        dy = np.sin(alphas) * x + np.cos(alphas) * y - y + a @ y - deg * y
        dz = a @ z - deg * z
        return np.concatenate([dx, dy, dz])

    h = cfg.dt / cfg.substeps
    for _ in range(cfg.substeps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    assert np.max(np.abs(local_bloch(out.rho).T.ravel() - v)) <= 1e-9


def test_full_step_matches_bloch_step_to_rounding():
    # RK4 on a linear ODE commutes with the linear map from rho to local
    # Bloch vectors, and depolarizing shrinks them exactly, so one step of
    # `full` and `bloch` agree to rounding, not merely to integrator precision.
    # The second input takes one node offline: both backends isolate it and
    # must still agree, and its phase must come back unchanged.  For even n
    # the offline node is the one being depolarized.
    rng = np.random.default_rng(29)
    for n in range(3, 7):
        base = random_connected_graph(rng, n)
        g = build_graph(n, base.edges, rng.uniform(0.5, 2.0, len(base.edges)))
        phis = rng.uniform(0.1, 1.4, n)
        pinners = rng.uniform(0.1, 1.4, n)
        theta = ThetaConfig.fixed(*rng.uniform(0.4, PI - 0.4, n))
        events = (MixingEvent(nodes=(int(rng.integers(0, n)),), t_start=0.0,
                              t_end=1.0, p=0.1),)
        offline = (events[0].nodes[0] + n % 2) % n
        for online in (None, np.arange(n) != offline):
            out = {}
            for backend in ("full", "bloch"):
                cfg = exact_cfg(backend, theta=theta, seed=5)
                out[backend] = qsdc_step(ProtocolState(phis=phis.copy()),
                                         StepPlan(g, online), cfg, pinners, events)
            for name in ("phis", "s"):
                gap = np.max(np.abs(getattr(out["full"], name) - getattr(out["bloch"], name)))
                assert gap <= 1e-12, (n, online, name, gap)
            if online is not None:
                assert out["bloch"].phis[offline] == phis[offline]


def test_phase_matches_bloch_at_low_coherence():
    # theta_0 = 1e-6 starts node 0 at the pole with coherence 1e-6; its
    # neighbours lift it to about 0.018 within the step.  A polar (phi, s)
    # integrator divides by s there and lands 0.2 rad off, with s still
    # above S_FLOOR and so without a warning.
    theta = ThetaConfig.fixed(1e-6, 1.2, 1.3)
    out = {}
    for backend in ("bloch", "phase"):
        out[backend] = qsdc_step(ProtocolState(phis=np.array([0.2, 0.8, 1.2])),
                                 StepPlan(TRIANGLE), exact_cfg(backend, theta=theta),
                                 np.full(3, 1.0))
    assert out["bloch"].s[0] < 0.02
    assert not out["phase"].warnings
    for name in ("phis", "s"):
        gap = np.max(np.abs(getattr(out["phase"], name) - getattr(out["bloch"], name)))
        assert gap <= 1e-12, (name, gap)


def test_phase_and_bloch_run_the_same_core():
    sc = parse_scenario(SCENARIOS / "ac15.json")
    graph = sc.graph()
    init = np.linspace(0.1, 1.4, graph.node_count)
    trajs = {backend: run_consensus(init, 0.8, graph, sc.protocol(backend=backend), 1.0)
             for backend in ("phase", "bloch")}
    assert np.array_equal(trajs["phase"].phis, trajs["bloch"].phis)


def test_full_backend_builds_no_dense_operator(monkeypatch):
    import qsdcsim.engine as engine
    from qsdcsim import measurement

    oracle_names = {"PAULI_X", "PAULI_Y", "PAULI_Z", "_embed_single", "pauli_on", "rz_jump",
                    "swap_jump", "JumpSet", "_rhs_raw", "lindblad_rhs", "bloch_rhs", "phase_rhs",
                    "lyapunov", "_H", "_S_DAG", "_gate_level_p0", "exact_probability"}
    for module in (engine, consensus, measurement):  # the oracles live in tests/oracles.py
        assert not oracle_names & set(vars(module)), module.__name__
    assert not hasattr(engine.DensityMatrix, "from_matrix")
    assert not {"all_ops", "_explicit"} & set(vars(engine.IndexJumpSet))
    calls = []
    depolarize = engine.depolarize_local

    def counting_depolarize(rho, i, p):
        calls.append(i)
        return depolarize(rho, i, p)

    monkeypatch.setattr(engine, "depolarize_local", counting_depolarize)
    n = 7
    ring = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    cfg = exact_cfg("full", theta=ThetaConfig.uniform(0.3, PI - 0.3), seed=2)
    event = MixingEvent(nodes=(3,), t_start=0.0, t_end=0.03, p=0.1)
    traj = run_consensus(np.linspace(0.1, 1.4, n), 0.8, ring, cfg, 0.03, (event,))
    assert traj.phis.shape == (4, n)
    assert np.all(np.isfinite(traj.phis))
    assert calls == [3, 3, 3]


# -- full runs ---------------------------------------------------------------


def test_run_three_node_all_backends_converge():
    trajs = {}
    for backend in ("full", "bloch", "phase"):
        cfg = exact_cfg(backend, theta=PAPER_THETA, seed=1)
        trajs[backend] = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, cfg, horizon=10.0)
        assert np.max(np.abs(trajs[backend].phis[-1] - PI / 3)) <= 1e-3
    diff = np.max(np.abs(trajs["full"].phis - trajs["phase"].phis))
    assert diff <= 0.02


def test_run_single_node_matches_scalar_ode():
    # dphi/dt = sin(a - phi) has closed form a - 2 atan(tan((a - phi0)/2) e^-t)
    g = build_graph(1, [])
    a, phi0 = 1.1, 0.2
    cfg = exact_cfg("phase", dt=1e-4, substeps=1)
    traj = run_consensus([phi0], a, g, cfg, horizon=5.0)
    ref = a - 2.0 * np.arctan(np.tan((a - phi0) / 2.0) * np.exp(-traj.times))
    assert np.max(np.abs(traj.phis[:, 0] - ref)) <= 1e-4


def test_run_disconnected_components_track_own_pinners():
    g = build_graph(4, [(0, 1), (2, 3)])
    pinners = np.array([0.3, 0.3, 1.1, 1.1])
    cfg = exact_cfg("phase", theta=ThetaConfig.uniform(0.4, PI - 0.4), seed=2)
    traj = run_consensus([0.5, 0.6, 0.5, 0.6], pinners, g, cfg, horizon=12.0)
    assert np.max(np.abs(traj.phis[-1] - pinners)) <= 1e-3


def test_run_invariant_set_never_expands():
    cfg = exact_cfg("phase", theta=PAPER_THETA, seed=1)
    traj = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, cfg, horizon=10.0)
    zeta_max = np.max(np.abs(traj.phis - PI / 3), axis=1)
    assert np.all(np.diff(zeta_max) <= 1e-12)


def test_run_lyapunov_exponential_bound():
    # common pinner, equal coherences: V(t) <= V(0) exp(-2 mu t) (1 + 1e-6)
    cfg = exact_cfg("phase", theta=ThetaConfig.fixed(PI / 2), seed=1)
    traj = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, cfg, horizon=10.0)
    eps = max(abs(p - PI / 3) for p in PAPER_INIT)
    mu = convergence_rate(TRIANGLE, eps)
    bound = traj.lyapunov[0] * np.exp(-2.0 * mu * traj.times) * (1.0 + 1e-6)
    assert np.all(traj.lyapunov <= bound + 1e-300)


def test_run_fitted_decay_rate_meets_bound():
    from qsdcsim.cli import fitted_decay_rate

    cfg = exact_cfg("phase", theta=ThetaConfig.fixed(PI / 2), seed=1)
    traj = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, cfg, horizon=10.0)
    mu = convergence_rate(TRIANGLE, PI / 3)
    assert fitted_decay_rate(traj.times, traj.lyapunov) >= 2.0 * mu - 0.05


def test_run_mixing_dichotomy_three_node():
    events = [MixingEvent(nodes=(1,), t_start=2.0, t_end=10.0, p=0.1)]
    qdc_cfg = ProtocolConfig(dt=0.01, substeps=4, shots=None, mode="qdc_legacy",
                             backend="phase", seed=1)
    qdc = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, qdc_cfg, 10.0, events)
    assert abs(qdc.phis[-1, 1] - PI / 3) > 0.05

    qsdc_cfg = exact_cfg("phase", theta=PAPER_THETA, seed=1)
    qsdc = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, qsdc_cfg, 10.0, events)
    assert np.max(np.abs(qsdc.phis[-1] - PI / 3)) <= 1e-3


def test_run_sampled_mode_converges_with_noise():
    # measured estimates feed back into re-initialization, so the stationary
    # jitter is sigma_shot / sqrt(2 * rate * dt), not the single-step sigma
    cfg = ProtocolConfig(dt=0.05, substeps=2, shots=2000,
                         theta=ThetaConfig.fixed(PI / 2),
                         backend="phase", seed=6)
    traj = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, cfg, horizon=25.0)
    tail = traj.phis[-200:]
    assert np.max(np.abs(tail - PI / 3)) <= 0.25
    assert abs(np.mean(tail) - PI / 3) <= 0.05


def test_run_rejects_bad_args():
    cfg = exact_cfg("phase")
    with pytest.raises(ValueError):
        run_consensus([0.1], 0.5, build_graph(1, []), cfg, horizon=0.0)
    with pytest.raises(ValueError):
        run_consensus([0.1, 0.2], 0.5, build_graph(1, []), cfg, horizon=1.0)


def test_run_rejects_a_non_finite_horizon():
    # a ValueError, which the CLI reports, not an OverflowError from int(round(inf))
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not a finite step count"):
            run_consensus(PAPER_INIT, PI / 3, TRIANGLE, exact_cfg("phase"), horizon=horizon)


def test_run_rejects_horizon_below_one_step():
    # run_plant's rule: a run records at least one step
    with pytest.raises(ValueError, match="shorter than one step"):
        run_consensus(PAPER_INIT, PI / 3, TRIANGLE, exact_cfg("phase"), horizon=0.004)


@pytest.mark.parametrize("backend", ["bloch", "phase"])
@pytest.mark.parametrize("weight", [10.0, 100.0, 1e100])
def test_step_that_leaves_the_bloch_ball_fails(backend, weight):
    # dt times the spectral radius of the flow lies outside RK4's stability
    # region, so the coherences grow past 1, which the exact flow never does;
    # at 1e100 the step overflows to nan
    graph = build_graph(3, [(0, 1), (1, 2), (0, 2)], [weight] * 3)
    cfg = exact_cfg(backend, theta=PAPER_THETA, dt=0.1, substeps=1)
    state = ProtocolState(phis=np.array(PAPER_INIT))
    with pytest.raises(IntegrationDivergedError, match="use more substeps"):
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(100):
                state = qsdc_step(state, StepPlan(graph), cfg, PI / 3)


def test_stiff_but_stable_step_runs():
    # weight 5 at dt 0.1 stays inside the stability region: no false alarm
    graph = build_graph(3, [(0, 1), (1, 2), (0, 2)], [5.0] * 3)
    state = ProtocolState(phis=np.array(PAPER_INIT))
    for _ in range(100):
        state = qsdc_step(state, StepPlan(graph),
                          exact_cfg("bloch", PAPER_THETA, dt=0.1, substeps=1), PI / 3)
    assert np.max(state.s) <= 1.0
    assert np.max(np.abs(state.phis - PI / 3)) <= 1e-4


def test_trajectory_csv_shape(tmp_path):
    cfg = exact_cfg("phase", theta=ThetaConfig.fixed(PI / 2), seed=1)
    traj = run_consensus(PAPER_INIT, PI / 3, TRIANGLE, cfg, horizon=0.5)
    path = tmp_path / "traj.csv"
    with open(path, "w") as fh:
        traj.write_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi_0,phi_1,phi_2,pinner_0,pinner_1,pinner_2,V"
    assert len(lines) == len(traj.times) + 1


def test_csv_number_format_is_pinned():
    fh = io.StringIO()
    write_csv_rows(fh, ["a", "b", "c"],
                   np.array([[1 / 3, 60.000007598933855, 1e-17], [-0.0, 1e21, 3.0]]))
    assert fh.getvalue() == "a,b,c\n0.333333333,60.0000076,1e-17\n-0,1e+21,3\n"


# -- convergence rate --------------------------------------------------------


def test_convergence_rate_examples():
    assert convergence_rate(TRIANGLE, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert convergence_rate(build_graph(5, [(i, i + 1) for i in range(4)]), 0.0) \
        == pytest.approx(1.0, abs=1e-9)
    assert convergence_rate(TRIANGLE, PI / 3) == pytest.approx(0.8270, abs=1e-3)
    assert convergence_rate(build_graph(2, [(0, 1)]), PI / 4) \
        == pytest.approx(0.9003, abs=1e-3)


def test_convergence_rate_rejects_outside_region():
    with pytest.raises(RateRegionError):
        convergence_rate(TRIANGLE, PI / 2)
    with pytest.raises(RateRegionError):
        convergence_rate(TRIANGLE, -0.1)


def test_convergence_rate_custom_weights():
    mu = convergence_rate(build_graph(3, TRIANGLE.edges, [2.0, 2.0, 2.0]), PI / 3)
    # lambda_min is still set by the Laplacian kernel
    assert mu == pytest.approx(math.sin(PI / 3) / (PI / 3), abs=1e-9)
    with pytest.raises(ValueError):
        build_graph(3, TRIANGLE.edges, [1.0])
    # -5 would give mu < 0, nan an eigensolver failure
    for weights in ([-5.0, 1.0, 1.0], [0.0, 1.0, 1.0], [math.nan, 1.0, 1.0]):
        with pytest.raises(ValueError, match="non-positive weight"):
            build_graph(3, TRIANGLE.edges, weights)


def test_lyapunov_values():
    assert lyapunov([0.5, 0.5], 0.5) == 0.0
    assert lyapunov([0.6, 0.4, 0.7], 0.5) == pytest.approx(0.03)


def test_lyapunov_rows_match_scalar_form():
    rng = np.random.default_rng(11)
    phis = rng.uniform(0.0, PI / 2, (50, 7))
    pinners = rng.uniform(0.0, PI / 2, (50, 7))
    online = rng.random((50, 7)) < 0.7
    online[:, 0] = True
    rows = lyapunov_rows(phis, pinners, online)
    for k in range(50):
        on = online[k]
        assert abs(rows[k] - lyapunov(phis[k, on], pinners[k, on].mean())) <= 1e-15


def test_run_lyapunov_column_is_v_against_mean_pinner():
    sc = parse_scenario(SCENARIOS / "consensus3.json")
    traj = run_consensus(PAPER_INIT, [0.5, 0.9, 1.2], TRIANGLE,
                         sc.protocol(backend="phase", shots=50), 0.5)
    assert len(traj.lyapunov) == len(traj.times) == 51
    for k in range(len(traj.times)):
        v = lyapunov(traj.phis[k], traj.data["pinner"][k].mean())
        assert abs(traj.lyapunov[k] - v) <= 1e-15 * max(1.0, v)

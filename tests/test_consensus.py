import io
import math
from pathlib import Path

import numpy as np
import pytest

from qsdcsim import consensus
from qsdcsim.consensus import (
    MixingEvent,
    ProtocolConfig,
    ProtocolState,
    RateRegionError,
    ThetaConfig,
    bloch_rhs,
    convergence_rate,
    lyapunov,
    lyapunov_rows,
    phase_rhs,
    qsdc_step,
    run_consensus,
    write_csv_rows,
)
from qsdcsim.engine import CapacityError, local_bloch
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


def random_connected_graph(rng, n):
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    for _ in range(n):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return build_graph(n, sorted(edges))


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
        out = qsdc_step(state, TRIANGLE, cfg, np.full(3, PI / 3))
        assert np.max(np.abs(out.phis - PI / 3)) <= 1e-9


def test_step_pinner_clamp_warning():
    cfg = exact_cfg("phase")
    state = ProtocolState(phis=np.full(3, 0.8))
    out = qsdc_step(state, TRIANGLE, cfg, np.array([2.0, 0.5, 0.5]))
    assert any("clamped" in w for w in out.warnings)
    assert out.pinners[0] == PI / 2
    # an offline node's pinner is clamped too, but no warning names it
    off = qsdc_step(state, TRIANGLE, cfg, np.array([2.0, 0.5, 0.5]),
                    online=[False, True, True])
    assert off.pinners[0] == PI / 2
    assert not off.warnings


def test_step_online_flags_need_one_per_node():
    with pytest.raises(ValueError, match="3 online flags"):
        qsdc_step(ProtocolState(phis=np.full(3, 0.5)), TRIANGLE, exact_cfg(),
                  np.full(3, 0.5), online=[False])


def test_step_full_backend_capacity():
    g = build_graph(11, [(i, i + 1) for i in range(10)])
    cfg = exact_cfg("full")
    with pytest.raises(CapacityError):
        qsdc_step(ProtocolState(phis=np.full(11, 0.4)), g, cfg, np.full(11, 0.4))


def test_step_mixing_aborts_node_when_coherence_collapses():
    cfg = exact_cfg("phase")
    ev = MixingEvent(nodes=(0,), t_start=0.0, t_end=1.0, p=0.75)  # shrink to 0
    state = ProtocolState(phis=np.full(3, 0.5))
    out = qsdc_step(state, TRIANGLE, cfg, np.full(3, 0.7), events=[ev])
    assert out.phis[0] == 0.5  # held at its previous estimate
    assert any("node 0" in w for w in out.warnings)
    assert out.phis[1] != 0.5


def test_step_node_state_view():
    cfg = exact_cfg("phase", theta=ThetaConfig.fixed(1.1, 1.2, 1.3))
    out = qsdc_step(ProtocolState(phis=np.full(3, 0.5)), TRIANGLE, cfg,
                    np.full(3, 0.6))
    assert out.thetas[2] == 1.3
    assert out.pinners[2] == 0.6
    assert 0.0 < out.s[2] <= 1.0


def test_step_sampled_mode_deterministic():
    cfg = ProtocolConfig(dt=0.01, substeps=2, shots=500,
                         theta=ThetaConfig.uniform(0.5, 2.5), seed=21,
                         backend="phase")
    a = qsdc_step(ProtocolState(phis=np.full(3, 0.4)), TRIANGLE, cfg, np.full(3, 0.9))
    b = qsdc_step(ProtocolState(phis=np.full(3, 0.4)), TRIANGLE, cfg, np.full(3, 0.9))
    assert np.array_equal(a.phis, b.phis)


def test_step_draws_one_stream_per_step_and_basis(monkeypatch):
    consensus._theta_block.cache_clear()  # a cached block would need no stream
    calls = []

    def counted(*key):
        calls.append(key)
        return np.random.default_rng(list(key))

    monkeypatch.setattr(consensus, "stream_rng", counted)
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    state = ProtocolState(phis=np.full(6, 0.4), step=3)
    uniform = ThetaConfig.uniform(0.5, 2.5)
    qsdc_step(state, g, exact_cfg("phase", theta=uniform), np.full(6, 0.9))
    assert len(calls) == 1
    calls.clear()
    sampled = ProtocolConfig(dt=0.01, substeps=2, shots=64, theta=uniform, seed=8)
    qsdc_step(state, g, sampled, np.full(6, 0.9), online=[True, False] * 3)
    assert len(calls) <= 3


def test_theta_blocks_match_fresh_draws():
    # each row is (seed, step // THETA_BLOCK, theta tag)'s block row
    # step % THETA_BLOCK, whatever order the steps come in and whatever the
    # cache holds
    theta, b = ThetaConfig.uniform(0.3, 2.8), consensus.THETA_BLOCK
    steps = (5000, 3, 1024, 1023, 5000)
    consensus._theta_block.cache_clear()
    rows = [theta.draw(6, step, 7).copy() for step in steps]
    for step, row in zip(steps, rows):
        consensus._theta_block.cache_clear()
        assert np.array_equal(row, theta.draw(6, step, 7))
        block = stream_rng(6, step // b, _STREAM_TAG["theta"]).uniform(0.3, 2.8, (b, 7))
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
    on = qsdc_step(state, g, cfg, pinners)
    off = qsdc_step(state, g, cfg, pinners, online=[False, True, True, True])
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
        masked = qsdc_step(state, g, cfg, pinners, online=online)
        by_hand = qsdc_step(state, pruned, cfg, pinners)
        assert np.max(np.abs(masked.phis - by_hand.phis)[online]) <= 1e-14
        assert masked.phis[4] == state.phis[4]


def test_online_core_is_cached_read_only():
    online = np.array([True, False, True])
    graph, core = consensus._online_core(TRIANGLE, online.tobytes())
    assert graph.edges == ((0, 2),)
    assert consensus._online_core(TRIANGLE, online.tobytes())[1] is core
    lap = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.array_equal(core, -np.kron(np.eye(2), lap))
    with pytest.raises(ValueError, match="read-only"):
        core[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        core += 1.0


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
                state = qsdc_step(state, g, cfg, pinners)
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
    out = qsdc_step(ProtocolState(phis=phis.copy()), g, cfg, pinners)

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

    for i in range(n):
        b = local_bloch(out.rho, i)
        assert abs(b.x - v[i]) <= 1e-9
        assert abs(b.y - v[n + i]) <= 1e-9
        assert abs(b.z - v[2 * n + i]) <= 1e-9


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
                out[backend] = qsdc_step(ProtocolState(phis=phis.copy()), g, cfg,
                                         pinners, events, online=online)
            for name in ("phis", "s", "zs"):
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
                                 TRIANGLE, exact_cfg(backend, theta=theta),
                                 np.full(3, 1.0))
    assert out["bloch"].s[0] < 0.02
    assert not out["phase"].warnings
    for name in ("phis", "s", "zs"):
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

    def forbidden(*args, **kwargs):
        raise AssertionError("dense operator built on the production path")

    for name in ("rz_jump", "swap_jump", "pauli_on"):
        monkeypatch.setattr(engine, name, forbidden)
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
    mu = convergence_rate(TRIANGLE, PI / 3, weights=[2.0, 2.0, 2.0])
    # lambda_min is still set by the Laplacian kernel
    assert mu == pytest.approx(math.sin(PI / 3) / (PI / 3), abs=1e-9)
    with pytest.raises(ValueError):
        convergence_rate(TRIANGLE, 0.1, weights=[1.0])


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
        v = lyapunov(traj.phis[k], traj.pinners[k].mean())
        assert abs(traj.lyapunov[k] - v) <= 1e-15 * max(1.0, v)

"""The phase-consensus protocol loop over three interchangeable backends,
plus the convergence-rate bound and Lyapunov monitoring.

One protocol step: draw fresh theta per node, prepare the product state from
(theta_i, phi_i), set each rotation-Z angle to pinner_i - phi_i, evolve the
master equation for dt, apply any active mixing event, measure, and feed the
twin-qubit estimate atan2(<Y>, <X>) back as the next phi_i.

Backends:
  full  - dense density matrix driven by the jump operators, applied as a
          phase mask (rotation-Z) and a flat gather per edge (swap, 8 * 4^n
          bytes of index per edge) with no 2^n x 2^n operator; its
          explicit-matrix oracle is in `tests/oracles.py`.  A step builds
          rho from the theta and phi arrays in one call and reads every
          node's x and y back in one gather (`engine.local_bloch`), with w
          a view of those two columns;
  bloch - the per-node local expectations.  Rotation-Z and swap conjugation
          map local Pauli observables to local Pauli observables, so with
          w_i = x_i + i*y_i they obey the closed linear flow

              dw/dt = (e^{i*alpha} - 1) * w - L w,

          with alpha_i = pinner_i - phi_i and L the weighted Laplacian.  The
          z components follow dz/dt = -L z, which no estimate reads: only
          the `full` oracle carries them, in rho;
  phase - another name for the bloch core, kept for existing scenarios.

Nodes keep their labels when some go offline (the online flags of the
`StepPlan` a step takes): an offline node loses its edges, so both backends
see it isolated.

Random streams are keyed per step, not per node (`measurement.stream_rng`
lists the keys): with shots the stream (seed, shots tag, step) draws the X
and Y counts of all n nodes in one (2, n) binomial draw, entry i for physical
node i.  Thetas come in blocks of THETA_BLOCK steps: the stream
(seed, theta tag, step // THETA_BLOCK) draws a (THETA_BLOCK, n) block and
step reads its row step % THETA_BLOCK, so the thetas stay a pure function of
(seed, step, n, lo, hi).  Offline and aborted nodes draw and discard, so no
node's draws depend on another node's state.

Within a step the rotation angle stays frozen (it is set once per step from
the measured phase), so the flow is one n x n matrix on w:
w' = A w with A = diag(e^{i*alpha} - 1) - L.  A run builds one `StepPlan`
per segment (`run_plant`: per event segment), which holds A's RK4 stage
matrices with their fixed off-diagonal entries.  `full` and `bloch` share
one integrator, `engine._rk4` (Horner-form RK4 over four stage maps
u -> c*f(u)), on rho and on w; it commutes with the linear map from rho to
local Bloch vectors, so the two agree to rounding.  The reference
equations, the instantaneous-pinner forms `bloch_rhs` and `phase_rhs` that
coincide with the flow at the step start, are in `tests/oracles.py`.

Every run, consensus or plant (`microgrid.run_plant`), is recorded in one
`Trajectory`, whose V, meta and time-prefixed warnings `run_record` builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import engine
from .engine import _rk4
from .measurement import (
    _STREAM_TAG,
    _sample_zeros,
    qdc_from_expectation,
    rekeyed_rng,
    stream_rng,
)
from .netgraph import (
    CommGraph,
    incidence_matrix,
    lambda_min_sym,
    laplacian,
)

BACKENDS = ("full", "bloch", "phase")
MODES = ("qsdc", "qdc_legacy")

S_FLOOR = 1e-3
# Steps per theta stream: one Generator serves this many steps' thetas.
THETA_BLOCK = 1024


class RateRegionError(ValueError):
    """epsilon outside [0, pi/2): the invariant-set argument does not apply."""


@dataclass(frozen=True)
class ThetaConfig:
    """Distribution of the per-step polar angle theta.

    kind "uniform": fresh draw per node per step from (lo, hi); step reads
    row step % THETA_BLOCK of the block that the stream
    (seed, theta tag, step // THETA_BLOCK) draws, as a read-only view;
    kind "fixed": constant, either one scalar for all nodes or one value per
    node (used to reproduce pinned example runs deterministically).
    """

    kind: str = "uniform"
    lo: float = 0.2
    hi: float = math.pi - 0.2
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "uniform":
            if not (0.0 < self.lo < self.hi < math.pi):
                raise ValueError(
                    f"uniform theta needs 0 < lo < hi < pi, got ({self.lo}, {self.hi})"
                )
        elif self.kind == "fixed":
            vals = self.values or (math.pi / 2,)
            object.__setattr__(self, "values", tuple(float(v) for v in vals))
            for v in self.values:
                if not (0.0 < v < math.pi):
                    raise ValueError(f"fixed theta {v} outside (0, pi)")
        else:
            raise ValueError(f"theta kind must be uniform or fixed, got {self.kind!r}")

    @classmethod
    def fixed(cls, *values: float) -> "ThetaConfig":
        return cls(kind="fixed", values=tuple(values))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ThetaConfig":
        return cls(kind="uniform", lo=lo, hi=hi)

    def draw(self, seed: int, step: int, n: int) -> np.ndarray:
        if self.kind == "fixed":
            if len(self.values) == 1:
                return np.full(n, self.values[0])
            if len(self.values) != n:
                raise ValueError(f"{len(self.values)} values for {n} nodes")
            return np.array(self.values, dtype=float)
        return _theta_block(seed, step // THETA_BLOCK, n, self.lo, self.hi)[step % THETA_BLOCK]


@functools.lru_cache(maxsize=2)
def _theta_block(seed: int, block: int, n: int, lo: float, hi: float) -> np.ndarray:
    """Read-only thetas of steps block*THETA_BLOCK onwards, one row per step."""
    rows = stream_rng(seed, _STREAM_TAG["theta"], block).uniform(lo, hi, (THETA_BLOCK, n))
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class ProtocolConfig:
    """Settings of one consensus run.

    shots=None selects exact-expectation mode (infinite-shot limit).
    qdc_legacy mode forces theta fixed at pi/2 and the arccos estimator.
    """

    dt: float = 0.01
    substeps: int = 4
    shots: int | None = None
    theta: ThetaConfig = field(default_factory=ThetaConfig)
    backend: str = "phase"
    mode: str = "qsdc"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.1):
            raise ValueError(f"dt must lie in (0, 0.1], got {self.dt}")
        if not (isinstance(self.substeps, Integral) and self.substeps >= 1):
            raise ValueError(f"substeps must be an integer >= 1, got {self.substeps}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (self.shots is None or isinstance(self.shots, Integral) and self.shots >= 1):
            raise ValueError(f"shots must be an integer >= 1 or None, got {self.shots}")
        if self.mode == "qdc_legacy":
            object.__setattr__(self, "theta", ThetaConfig.fixed())

    @property
    def exact(self) -> bool:
        return self.shots is None


@dataclass(frozen=True)
class MixingEvent:
    """Depolarize the listed nodes with strength p at every step whose start
    time falls inside [t_start, t_end)."""

    nodes: tuple[int, ...]
    t_start: float
    t_end: float
    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not self.t_start <= self.t_end:  # also false for a nan end
            raise ValueError(f"event window [{self.t_start}, {self.t_end}) needs t_start <= t_end")
        object.__setattr__(self, "nodes", tuple(int(i) for i in self.nodes))

    def active(self, t: float, dt: float) -> bool:
        return self.t_start - 0.5 * dt <= t < self.t_end - 0.5 * dt

    @property
    def bloch_shrink(self) -> float:
        return 1.0 - 4.0 * self.p / 3.0


@dataclass
class ProtocolState:
    """State carried across protocol steps plus last-step diagnostics."""

    phis: np.ndarray
    step: int = 0
    thetas: np.ndarray | None = None
    s: np.ndarray | None = None
    pinners: np.ndarray | None = None
    rho: engine.DensityMatrix | None = None
    warnings: list = field(default_factory=list)


def _clamp_pinners(pinners: np.ndarray, online: np.ndarray, warnings: list) -> np.ndarray:
    clamped = pinners.clip(0.0, math.pi / 2)
    changed = (clamped != pinners) & online
    if changed.any():
        bad = np.flatnonzero(changed).tolist()
        warnings.append(f"pinners clamped to [0, pi/2] at nodes {bad}")
    return clamped


def _measure_node(w: np.ndarray, config: ProtocolConfig, step: int):
    """Measured <X> and <Y> of all n nodes, from w = <X> + i*<Y>.

    Exact mode returns (w.real, w.imag).  With shots, one binomial draw from
    the stream (seed, shots tag, step) takes config.shots shots in X (row 0)
    and in Y (row 1) on every node; the rows are a strided (2, n) view of
    w's own memory, not a copy.  qdc_legacy measures X only, a (1, n) draw,
    and reads <Y> as nan.
    """
    if config.exact:
        return w.real, w.imag
    legacy = config.mode == "qdc_legacy"
    rng = rekeyed_rng(config.seed, _STREAM_TAG["shots"], step)
    xy = w[:, None].view(float).T  # [:, None]: w itself may be strided
    e = 2.0 * _sample_zeros(rng, config.shots, xy[:1] if legacy else xy)
    e /= config.shots  # in place, the roundings of 2.0 * zeros / shots - 1.0
    e -= 1.0
    return e[0], (np.full(len(w), np.nan) if legacy else e[1])


def _mixing_factors(n: int, events, t: float, dt: float) -> np.ndarray:
    f = np.ones(n)
    for ev in events:
        if ev.active(t, dt):
            for i in ev.nodes:
                f[i] *= ev.bloch_shrink
    return f


class StepPlan:
    """The topology every `qsdc_step` of a run or plant segment takes: the
    bool mask `online` over `graph`'s nodes (None: all online), the offline
    nodes' indices, `graph` without their edges, and what its steps reuse.

    For `full`, `swaps`: the flat swap indices of the pruned graph
    (`engine.swap_groups`), built on first use.  For `bloch` and `phase`,
    the read-only core -L (n x n, complex) of the pruned graph, and per
    RK4 substep h the four stage matrices c * (core + diag(e^{i*alpha} - 1))
    for c in `engine.rk4_coefficients(h)`, one (4, n, n) array built on
    first use and rebuilt only when h changes.  Their off-diagonal entries
    never change; a step writes only the four diagonals."""

    def __init__(self, graph: CommGraph, online=None):
        n = graph.node_count
        online = np.ones(n, dtype=bool) if online is None else np.asarray(online, dtype=bool)
        if online.shape != (n,):
            raise ValueError(f"need {n} online flags, got shape {online.shape}")
        self.online, self.offline = online, np.flatnonzero(~online)
        kept = [k for k, (i, j) in enumerate(graph.edges) if online[i] and online[j]]
        self.graph = CommGraph(n, tuple(graph.edges[k] for k in kept),
                               tuple(graph.weights[k] for k in kept))
        self.core = (-laplacian(self.graph)).astype(complex)
        self.core.setflags(write=False)
        self.shift = self.core.diagonal() - 1.0  # A's diagonal is e^{i*alpha} + shift
        self.h = None

    @functools.cached_property
    def swaps(self) -> list:
        return engine.swap_groups(self.graph.node_count, self.graph.edges, self.graph.weights)

    def stages(self, h: float, alphas: np.ndarray) -> tuple:
        """The `_rk4` stages of one substep h with rotation angles alphas."""
        if h != self.h:
            n = len(self.core)
            self.h, self.coef = h, np.array(engine.rk4_coefficients(h))[:, None]
            self.mats = self.coef[:, :, None] * self.core
            self.diags = self.mats.reshape(4, n * n)[:, ::n + 1]
            self.maps = tuple(m.dot for m in self.mats)
        np.multiply(self.coef, np.exp(1j * alphas) + self.shift, out=self.diags)
        return self.maps


def qsdc_step(state: ProtocolState, plan: StepPlan, config: ProtocolConfig, pinners,
              events=()) -> ProtocolState:
    """One full protocol iteration on `plan`; deterministic given config.seed.

    An offline node of `plan` has no edges; its measurement is discarded,
    no warning names it and its phase comes back unchanged.  Thetas and
    shots are drawn for all nodes, and mixing events use physical node
    indices.  An online node below S_FLOOR, or whose sampled <X> and <Y> are
    both zero, keeps its phase and gets a warning.
    """
    online = plan.online
    n = len(online)
    warnings: list = []
    pt = _clamp_pinners(np.asarray(pinners, dtype=float), online, warnings)
    prev = np.asarray(state.phis, dtype=float)
    phis = prev.clip(0.0, math.pi / 2)
    thetas = config.theta.draw(config.seed, state.step, n)
    alphas = pt - phis
    t_now = state.step * config.dt

    if config.backend == "full":
        rho = engine.product_state(thetas, phis)
        jumps = engine.build_jump_set(plan.graph, alphas, plan.swaps)
        rho = engine.evolve(rho, jumps, config.dt, config.substeps)
        for ev in events:
            if ev.active(t_now, config.dt):
                for i in ev.nodes:
                    rho = engine.depolarize_local(rho, i, ev.p)
        # a view of the x and y columns: x + 1j*y would turn a y of -0.0 into +0.0
        w = engine.local_bloch(rho)[:, :2].view(complex)[:, 0]
        final_rho = rho
    else:  # bloch and phase: w' = A w, w = x + i*y
        stages = plan.stages(config.dt / config.substeps, alphas)
        w = _rk4(np.sin(thetas) * np.exp(1j * phis), stages, config.substeps)
        if events:
            w *= _mixing_factors(n, events, t_now, config.dt)
        final_rho = None

    s_after = np.hypot(w.real, w.imag)
    # the exact flow keeps s_i <= sin(theta_i) <= 1.  A list's max is the
    # cheaper reduction at these sizes; "not <=" fails a nan that it returns,
    # as after an overflow, which turns every connected node to nan
    if not max(s_after.tolist()) <= 1.0 + 1e-9:
        raise engine.IntegrationDivergedError(
            f"step {state.step}: integration left the Bloch ball (coherence "
            f"{s_after.max():.3g}); use more substeps")
    sx, sy = _measure_node(w, config, state.step)
    new_phis = (qdc_from_expectation(sx) if config.mode == "qdc_legacy"
                else np.arctan2(sy, sx)).clip(0.0, math.pi / 2)
    aborted = s_after < S_FLOOR  # exact mode: sx, sy both zero means s_after == 0
    if not config.exact:
        aborted |= (sx == 0.0) & (sy == 0.0)
    if aborted.any():
        aborted &= online
        for i in np.flatnonzero(aborted).tolist():
            warnings.append(
                f"node {i}: coherence {s_after[i]:.2e} below {S_FLOOR}; step aborted for this node"
                if s_after[i] < S_FLOOR
                else f"node {i}: degenerate coherence; step aborted for this node"
            )
        new_phis[aborted] = phis[aborted]
    new_phis[plan.offline] = prev[plan.offline]

    return ProtocolState(
        phis=new_phis,
        step=state.step + 1,
        thetas=thetas,
        s=s_after,
        pinners=pt,
        rho=final_rho,
        warnings=warnings,
    )


def lyapunov_rows(phis: np.ndarray, pinners: np.ndarray, online: np.ndarray) -> np.ndarray:
    """V = 1/2 sum_i (phi_i - phi*)^2 of every row of phis over the nodes
    that the bool mask `online` marks, with phi* the mean of their pinners
    (the scalar reference `lyapunov` is in `tests/oracles.py`)."""
    z = np.where(online, phis - np.mean(pinners, axis=1, where=online, keepdims=True), 0.0)
    return 0.5 * np.einsum("ij,ij->i", z, z)


def convergence_rate(graph: CommGraph, epsilon: float) -> float:
    """Exponential synchronization rate mu = lambda_min(s1*I + s2*B W B^T)
    with s1 = sinc(eps), s2 = sinc(2*eps) and W the weights of `graph`,
    valid for initial deviations bounded by eps < pi/2.  Other weights are
    bounded on the graph `netgraph.build_graph` makes with them."""
    if not (0.0 <= epsilon < math.pi / 2):
        raise RateRegionError(
            f"epsilon must lie in [0, pi/2) for the invariant set to hold, got {epsilon}"
        )
    # numpy sinc is sin(pi x)/(pi x); rescale and it handles 0 analytically.
    s1 = float(np.sinc(epsilon / math.pi))
    s2 = float(np.sinc(2.0 * epsilon / math.pi))
    b = incidence_matrix(graph)
    m = s1 * np.eye(graph.node_count) + s2 * (b @ np.diag(graph.weights) @ b.T)
    return lambda_min_sym(m)


@dataclass
class Trajectory:
    """The record of one run, consensus or plant.

    `data` maps a series name to its (T,) or (T, n) rows: a consensus run
    records "phi" and "pinner" (row 0 holds the initial phases at t = 0), a
    plant run adds its plant signals and "online" (rows from t = dt).
    `lyapunov` is V per row, `meta` holds kind, backend, mode, seed and dt
    (a plant run adds omega_nominal, v_nominal, k and c), and `warnings`
    and `events_applied` are prefixed with their time.
    """

    times: np.ndarray
    data: dict
    lyapunov: np.ndarray
    meta: dict
    warnings: list = field(default_factory=list)
    events_applied: list = field(default_factory=list)

    @property
    def phis(self) -> np.ndarray:
        return self.data["phi"]

    def write_csv(self, fh) -> None:
        """Columns t, the series in name order (name_i per node), then V."""
        cols, series = ["t"], [self.times]
        for name in sorted(self.data):
            arr = self.data[name]
            cols += [name] if arr.ndim == 1 else [f"{name}_{i}" for i in range(arr.shape[1])]
            series.append(arr)
        write_csv_rows(fh, cols + ["V"], np.column_stack(series + [self.lyapunov]))


def write_csv_rows(fh, cols, block: np.ndarray) -> None:
    """The header, then one line per row of `block`, each value as %.9g;
    every CSV the package writes goes through here."""
    fh.write(",".join(cols) + "\n")
    line = ",".join(["%.9g"] * block.shape[1]) + "\n"
    for row in block:
        fh.write(line % tuple(row.tolist()))


def step_count(horizon: float, dt: float) -> int:
    """Steps of dt in `horizon`; ValueError if that is not at least one."""
    if not math.isfinite(horizon / dt):
        raise ValueError(f"horizon {horizon} over dt {dt} is not a finite step count")
    steps = int(round(horizon / dt))
    if steps < 1:
        raise ValueError(f"horizon {horizon} is shorter than one step of {dt}")
    return steps


def run_record(kind: str, times, data: dict, config: ProtocolConfig, noted,
               events_applied=(), **meta) -> Trajectory:
    """The `Trajectory` of a run with series `data`: V over each row's
    online nodes (every node when `data` has no "online"), the meta of
    `config` plus `meta`, and the warnings of the (step, warnings) pairs
    `noted`, each prefixed with its step's start time."""
    online = data["online"] > 0.5 if "online" in data else np.ones(data["phi"].shape, dtype=bool)
    return Trajectory(
        times=times, data=data, lyapunov=lyapunov_rows(data["phi"], data["pinner"], online),
        meta={"kind": kind, "backend": config.backend, "mode": config.mode,
              "seed": config.seed, "dt": config.dt, **meta},
        warnings=[f"t={k * config.dt:.6g}: {w}" for k, ws in noted for w in ws],
        events_applied=list(events_applied),
    )


def run_consensus(
    init_phis,
    pinner_signal,
    graph: CommGraph,
    config: ProtocolConfig,
    horizon: float,
    events=(),
) -> Trajectory:
    """Iterate the protocol for horizon/dt steps recording phi, pinners, V.

    pinner_signal is a scalar or a per-node array, held for the whole run.
    """
    n = graph.node_count
    steps = step_count(horizon, config.dt)
    pt = np.broadcast_to(np.asarray(pinner_signal, dtype=float), (n,))
    state = ProtocolState(phis=np.asarray(init_phis, dtype=float).copy())
    if state.phis.shape != (n,):
        raise ValueError(f"need {n} initial phases, got shape {state.phis.shape}")

    phis = np.empty((steps + 1, n))
    pinners = np.empty((steps + 1, n))
    phis[0] = state.phis
    pinners[0] = pt
    noted: list = []
    plan = StepPlan(graph)  # one segment: every node online throughout
    for k in range(steps):
        state = qsdc_step(state, plan, config, pt, events)
        if state.warnings:
            noted.append((k, state.warnings))
        phis[k + 1] = state.phis
        pinners[k + 1] = state.pinners

    return run_record("consensus", np.arange(steps + 1) * config.dt,
                      {"phi": phis, "pinner": pinners}, config, noted)

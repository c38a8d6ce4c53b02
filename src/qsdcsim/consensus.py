"""The phase-consensus protocol loop over three interchangeable backends,
plus the convergence-rate bound and Lyapunov monitoring.

One protocol step: draw fresh theta per node, prepare the product state from
(theta_i, phi_i), set each rotation-Z angle to pinner_i - phi_i, evolve the
master equation for dt, apply any active mixing event, measure, and feed the
estimate back as the next phi_i.

Backends:
  full  - dense density matrix driven by the jump operators, applied as a
          phase mask (rotation-Z) and axis swaps (swap) with no 2^n x 2^n
          operator; `engine.rz_jump`, `swap_jump`, `pauli_on` and
          `lindblad_rhs` keep the explicit-matrix form as its oracle;
  bloch - the per-node local expectations.  Rotation-Z and swap conjugation
          map local Pauli observables to local Pauli observables, so with
          w_i = x_i + i*y_i they obey the closed linear flow

              dw/dt = (e^{i*alpha} - 1) * w - L w,    dz/dt = -L z,

          with alpha_i = pinner_i - phi_i and L the weighted Laplacian;
  phase - another name for the bloch core, kept for existing scenarios.

Nodes keep their labels when some go offline (`qsdc_step`'s `online`
flags): an offline node loses its edges, so both backends see it isolated.

Random streams are keyed per step, not per node (`measurement.stream_rng`):
with shots one stream per basis draws all n counts of a step, entry i for
physical node i.  Thetas come in blocks of THETA_BLOCK steps: the stream
(seed, step // THETA_BLOCK, theta tag) draws a (THETA_BLOCK, n) block and
step reads its row step % THETA_BLOCK, so the thetas stay a pure function of
(seed, step, n, lo, hi).  Offline and aborted nodes draw and discard, so no
node's draws depend on another node's state.

Within a step the rotation angle stays frozen (it is set once per step from
the measured phase), so the flow is one matrix on v = [w; z]:
v' = A v with A = blockdiag(diag(e^{i*alpha} - 1) - L, -L).  `_online_core`
caches -blockdiag(L, L), read-only, per graph and online set; a step adds
the gains to its first n diagonal entries.  `full` and `bloch` share one
integrator, `engine._rk4` (Horner-form RK4), on rho and on v; it commutes
with the linear map from rho to local Bloch vectors, so the two agree to
rounding.  The instantaneous-pinner forms `bloch_rhs` and `phase_rhs` are
the reference equations; they coincide with the flow at the step start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import PureQubitSpec, _rk4
from .measurement import (
    _STREAM_TAG,
    _sample_zeros,
    phase_from_expectations,
    qdc_from_expectation,
    stream_rng,
)
from .netgraph import (
    CommGraph,
    adjacency_matrix,
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
    (seed, step // THETA_BLOCK, theta tag) draws, as a read-only view;
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
            vals = self.values if self.values is not None else (math.pi / 2,)
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
                raise ValueError(
                    f"fixed theta list has {len(self.values)} entries for {n} nodes"
                )
            return np.array(self.values, dtype=float)
        return _theta_block(seed, step // THETA_BLOCK, n, self.lo, self.hi)[step % THETA_BLOCK]


@functools.lru_cache(maxsize=2)
def _theta_block(seed: int, block: int, n: int, lo: float, hi: float) -> np.ndarray:
    """Read-only thetas of steps block*THETA_BLOCK onwards, one row per step."""
    rows = stream_rng(seed, block, _STREAM_TAG["theta"]).uniform(lo, hi, (THETA_BLOCK, n))
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
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1 or None, got {self.shots}")
        if self.mode == "qdc_legacy":
            object.__setattr__(self, "theta", ThetaConfig.fixed(math.pi / 2))

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
            raise ValueError(f"depolarizing strength must lie in [0,1], got {self.p}")
        if self.t_end < self.t_start:
            raise ValueError("event window is reversed")
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
    zs: np.ndarray | None = None
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


def bloch_rhs(x, y, z, pinners, graph: CommGraph):
    """Exact local-expectation dynamics in instantaneous-pinner form:

        dx_i = s_i cos(pt_i) - x_i + sum_j a_ij (x_j - x_i)
        dy_i = s_i sin(pt_i) - y_i + sum_j a_ij (y_j - y_i)
        dz_i = sum_j a_ij (z_j - z_i)

    with s_i = sqrt(x_i^2 + y_i^2).  pinners=None drops the pinning term.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    a = adjacency_matrix(graph)
    deg = a.sum(axis=1)
    dx = a @ x - deg * x
    dy = a @ y - deg * y
    dz = a @ z - deg * z
    if pinners is not None:
        pt = np.asarray(pinners, dtype=float)
        s = np.hypot(x, y)
        dx += s * np.cos(pt) - x
        dy += s * np.sin(pt) - y
    return dx, dy, dz


def phase_rhs(phi, s, pinners, graph: CommGraph) -> np.ndarray:
    """Phase dynamics with coherence-ratio coupling weights:

        dphi_i = sin(pt_i - phi_i) + sum_j a_ij (s_j / s_i) sin(phi_j - phi_i)

    With all s equal this is the unit-weight pinned oscillator network.
    """
    phi = np.asarray(phi, dtype=float)
    s = np.asarray(s, dtype=float)
    for i, si in enumerate(s):
        if si <= 0.0:
            raise ZeroDivisionError(f"node {i} has non-positive coherence s={si}")
    a = adjacency_matrix(graph)
    pt = np.asarray(pinners, dtype=float)
    dphi = np.sin(pt - phi)
    diff = np.subtract.outer(phi, phi)  # diff[i, j] = phi_i - phi_j
    ratio = np.divide.outer(1.0 / s, 1.0 / s)  # ratio[i, j] = s_j / s_i
    dphi += np.sum(a * ratio * np.sin(-diff), axis=1)
    return dphi


def _measure_node(xs: np.ndarray, ys: np.ndarray, config: ProtocolConfig, step: int):
    """Measured <X> and <Y> of all n nodes.

    Exact mode returns (xs, ys).  With shots, each basis draws config.shots
    shots on every node in one binomial draw from the stream (seed, step,
    basis tag).  qdc_legacy measures X only and reads <Y> as nan.
    """
    if config.exact:
        return xs, ys

    def measure(e, basis):
        rng = stream_rng(config.seed, step, _STREAM_TAG[basis])
        return 2.0 * _sample_zeros(rng, config.shots, e) / config.shots - 1.0

    if config.mode == "qdc_legacy":
        return measure(xs, "X"), np.full(len(xs), np.nan)
    return measure(xs, "X"), measure(ys, "Y")


def _mixing_factors(n: int, events, t: float, dt: float) -> np.ndarray:
    f = np.ones(n)
    for ev in events:
        if ev.active(t, dt):
            for i in ev.nodes:
                f[i] *= ev.bloch_shrink
    return f


@functools.lru_cache(maxsize=64)
def _online_core(graph: CommGraph, online: bytes) -> tuple[CommGraph, np.ndarray]:
    """`graph` without the edges of nodes offline in the bool mask `online`,
    and -blockdiag(L, L) of it: the read-only linear core before the gains."""
    mask = np.frombuffer(online, dtype=bool)
    kept = [k for k, (i, j) in enumerate(graph.edges) if mask[i] and mask[j]]
    graph = CommGraph(graph.node_count, tuple(graph.edges[k] for k in kept),
                      tuple(graph.weights[k] for k in kept))
    core = -np.kron(np.eye(2), laplacian(graph)).astype(complex)
    core.setflags(write=False)
    return graph, core


def qsdc_step(
    state: ProtocolState,
    graph: CommGraph,
    config: ProtocolConfig,
    pinners,
    events=(),
    online=None,
) -> ProtocolState:
    """One full protocol iteration; deterministic given config.seed.

    `online` has one bool per node (None: all online).  An offline node's
    edges are dropped; its measurement is discarded, no warning names it and
    its phase comes back unchanged.  Thetas and shots are drawn for all
    nodes, and mixing events use physical node indices.  An online node
    below S_FLOOR, or whose sampled <X> and <Y> are both zero, keeps its
    phase and gets a warning.
    """
    n = graph.node_count
    online = np.ones(n, dtype=bool) if online is None else np.asarray(online, dtype=bool)
    if online.shape != (n,):
        raise ValueError(f"need {n} online flags, got shape {online.shape}")
    graph, core = _online_core(graph, online.tobytes())
    warnings: list = []
    pt = _clamp_pinners(np.asarray(pinners, dtype=float), online, warnings)
    phis = np.asarray(state.phis, dtype=float).clip(0.0, math.pi / 2)
    thetas = config.theta.draw(config.seed, state.step, n)
    alphas = pt - phis
    t_now = state.step * config.dt

    if config.backend == "full":
        rho = engine.product_state(
            [PureQubitSpec(theta=float(th), phi=float(ph)) for th, ph in zip(thetas, phis)]
        )
        jumps = engine.build_jump_set(graph, alphas)
        rho = engine.evolve(rho, jumps, config.dt, config.substeps)
        for ev in events:
            if ev.active(t_now, config.dt):
                for i in ev.nodes:
                    rho = engine.depolarize_local(rho, i, ev.p)
        xs = np.empty(n)
        ys = np.empty(n)
        zs = np.empty(n)
        for i in range(n):
            b = engine.local_bloch(rho, i)
            xs[i], ys[i], zs[i] = b.x, b.y, b.z
        final_rho = rho
    else:  # bloch and phase: v' = A v on v = [w; z], w = x + i*y
        a = core.copy()
        a.ravel()[:n * (2 * n + 1):2 * n + 1] += np.exp(1j * alphas) - 1.0  # w's diagonal
        v0 = np.empty(2 * n, dtype=complex)
        np.multiply(np.sin(thetas), np.exp(1j * phis), out=v0[:n])
        v0[n:] = np.cos(thetas)
        out = _rk4(v0, a.dot, config.dt, config.substeps).reshape(2, n)
        if events:
            out *= _mixing_factors(n, events, t_now, config.dt)
        xs, ys, zs = out[0].real, out[0].imag, out[1].real
        final_rho = None

    s_after = np.hypot(xs, ys)
    sx, sy = _measure_node(xs, ys, config, state.step)
    aborted = online & ((s_after < S_FLOOR) | ((sx == 0.0) & (sy == 0.0)))
    if aborted.any():
        for i in np.flatnonzero(aborted).tolist():
            warnings.append(
                f"node {i}: coherence {s_after[i]:.2e} below {S_FLOOR}; step aborted for this node"
                if s_after[i] < S_FLOOR
                else f"node {i}: degenerate coherence; step aborted for this node"
            )
    estimated = online & ~aborted
    est = (qdc_from_expectation(sx[estimated]) if config.mode == "qdc_legacy"
           else phase_from_expectations(sx[estimated], sy[estimated]))
    new_phis = np.where(online, phis, state.phis)
    new_phis[estimated] = est.clip(0.0, math.pi / 2)

    return ProtocolState(
        phis=new_phis,
        step=state.step + 1,
        thetas=thetas,
        s=s_after,
        zs=zs,
        pinners=pt,
        rho=final_rho,
        warnings=warnings,
    )


def lyapunov(phis, pinner_star: float) -> float:
    """V = 1/2 sum_i (phi_i - phi*)^2 against a common pinner."""
    z = np.asarray(phis, dtype=float) - float(pinner_star)
    return float(0.5 * np.dot(z, z))


def lyapunov_rows(phis: np.ndarray, pinners: np.ndarray, online: np.ndarray) -> np.ndarray:
    """`lyapunov` of every row of phis over the nodes that the bool mask
    `online` marks, against the mean of their pinners."""
    z = np.where(online, phis - np.mean(pinners, axis=1, where=online, keepdims=True), 0.0)
    return 0.5 * np.einsum("ij,ij->i", z, z)


def convergence_rate(graph: CommGraph, epsilon: float, weights=None) -> float:
    """Exponential synchronization rate mu = lambda_min(s1*I + s2*B W B^T)
    with s1 = sinc(eps), s2 = sinc(2*eps), valid for initial deviations
    bounded by eps < pi/2."""
    if not (0.0 <= epsilon < math.pi / 2):
        raise RateRegionError(
            f"epsilon must lie in [0, pi/2) for the invariant set to hold, got {epsilon}"
        )
    # numpy sinc is sin(pi x)/(pi x); rescale and it handles 0 analytically.
    s1 = float(np.sinc(epsilon / math.pi))
    s2 = float(np.sinc(2.0 * epsilon / math.pi))
    b = incidence_matrix(graph)
    w = np.asarray(weights, dtype=float) if weights is not None else np.asarray(graph.weights)
    if w.shape != (len(graph.edges),):
        raise ValueError(f"need {len(graph.edges)} edge weights, got {w.shape}")
    m = s1 * np.eye(graph.node_count) + s2 * (b @ np.diag(w) @ b.T)
    return lambda_min_sym(m)


@dataclass
class Trajectory:
    """Recorded consensus run: phase and pinner series plus V(t)."""

    times: np.ndarray
    phis: np.ndarray      # shape (steps+1, n)
    pinners: np.ndarray   # shape (steps+1, n)
    lyapunov: np.ndarray  # V against the mean pinner, shape (steps+1,)
    backend: str
    mode: str
    seed: int
    dt: float
    warnings: list = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return self.phis.shape[1]

    def write_csv(self, fh) -> None:
        n = self.node_count
        cols = (["t"] + [f"phi_{i}" for i in range(n)]
                + [f"pinner_{i}" for i in range(n)] + ["V"])
        write_csv_rows(fh, cols, np.column_stack(
            [self.times, self.phis, self.pinners, self.lyapunov]))


def write_csv_rows(fh, cols, block: np.ndarray) -> None:
    """The header, then one line per row of `block`, each value as %.9g;
    every CSV the package writes goes through here."""
    fh.write(",".join(cols) + "\n")
    line = ",".join(["%.9g"] * block.shape[1]) + "\n"
    for row in block:
        fh.write(line % tuple(row.tolist()))


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
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    n = graph.node_count
    steps = int(round(horizon / config.dt))
    pt = np.broadcast_to(np.asarray(pinner_signal, dtype=float), (n,))
    state = ProtocolState(phis=np.asarray(init_phis, dtype=float).copy())
    if state.phis.shape != (n,):
        raise ValueError(f"need {n} initial phases, got shape {state.phis.shape}")

    phis = np.empty((steps + 1, n))
    pinners = np.empty((steps + 1, n))
    phis[0] = state.phis
    pinners[0] = pt
    all_warnings: list = []
    for k in range(steps):
        state = qsdc_step(state, graph, config, pt, events)
        if state.warnings:
            all_warnings.extend(f"t={k * config.dt:.6g}: {w}" for w in state.warnings)
        phis[k + 1] = state.phis
        pinners[k + 1] = state.pinners

    return Trajectory(
        times=np.arange(steps + 1) * config.dt, phis=phis, pinners=pinners,
        lyapunov=lyapunov_rows(phis, pinners, np.ones((steps + 1, n), dtype=bool)),
        backend=config.backend, mode=config.mode, seed=config.seed,
        dt=config.dt, warnings=all_warnings,
    )

"""AC frequency-regulation and DC voltage-regulation plants closed around
the phase-consensus secondary controller.

AC: quasi-static sine-coupled power flow over DER buses, droop
omega_i = omega* - n_i P_i + phi_i/k, pinner k n_i P_i.  Each online DER
integrates its angle against the nominal frame; a bus whose DER is offline
keeps serving its local load and its angle is solved algebraically (zero
injection) by sweeps over the `_passive_table` its `PlantSegment` builds.

DC: single-bus star network, V_i_ref = V* - m_i I_i + phi_i/c, pinner
c m_i I_i.  The droop acts inside the power-electronics fast loop, so the
co-simulation closes it algebraically each step (the one-step-delayed
alternative is unstable for m_i >> R_i, which is exactly the regime the
droop accuracy condition requires).

An offline DER keeps its index: each step runs `qsdc_step` on the full
communication graph with the `StepPlan` of the DERs' online flags that its
`PlantSegment` holds, which isolates the DER and holds its phase.  It
carries no current (DC); its bus is passive (AC).

`run_plant` records a run in the same `consensus.Trajectory` as a consensus
run, with the plant series beside "phi", "pinner" and "online".
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import (ProtocolConfig, ProtocolState, StepPlan, Trajectory, qsdc_step,
                        run_record, step_count)
from .netgraph import CommGraph, incidence_matrix, is_connected


class MicrogridError(Exception):
    pass


class PartitionError(MicrogridError):
    """An unplug event left the communication graph disconnected."""


@dataclass
class AcDer:
    """One AC distributed energy resource."""

    droop: float          # Hz per kW
    rated_kw: float
    online: bool = True

    def __post_init__(self):
        if self.droop <= 0.0:
            raise ValueError(f"droop must be positive, got {self.droop}")
        if self.rated_kw <= 0.0:
            raise ValueError(f"rated power must be positive, got {self.rated_kw}")


@dataclass
class AcNetwork:
    """Electrical couplings and loads of the AC plant."""

    lines: tuple          # ((i, j, b_kw), ...) sine-coupling strengths
    bus_loads: np.ndarray  # kW per DER bus
    omega_nominal: float = 60.0
    k: float = 0.0        # rad per Hz; 0 means "apply the default rule"

    def apply_default_k(self, ders) -> None:
        if self.k <= 0.0:
            self.k = default_ac_scaling(ders)

    def check_scaling(self, ders) -> None:
        worst = max(d.droop * d.rated_kw for d in ders)
        if self.k * worst >= math.pi / 2:
            raise ValueError(
                f"scaling violated: k*max(n_i*rated_i) = {self.k * worst:.4f} "
                ">= pi/2; lower k or the droop gains"
            )


def default_ac_scaling(ders) -> float:
    """k = 0.8*(pi/2)/max(n_i * rated_i), keeping pinners inside (0, pi/2)."""
    return 0.8 * (math.pi / 2) / max(d.droop * d.rated_kw for d in ders)


@dataclass
class DcDer:
    """One DC distributed energy resource."""

    droop_m: float        # V per A
    line_r: float         # ohm, DER terminal to bus
    rated_current: float  # A
    online: bool = True

    def __post_init__(self):
        if self.droop_m <= 0.0 or self.line_r <= 0.0 or self.rated_current <= 0.0:
            raise ValueError("droop_m, line_r and rated_current must be positive")


@dataclass
class DcNetwork:
    v_nominal: float = 48.0
    r_load: float = math.inf
    c: float = 0.0        # rad per V; 0 means "apply the default rule"

    def apply_default_c(self, ders) -> None:
        if self.c <= 0.0:
            self.c = default_dc_scaling(ders)

    def check_scaling(self, ders) -> None:
        worst = max(d.droop_m * d.rated_current for d in ders)
        if self.c * worst >= math.pi / 2:
            raise ValueError(
                f"scaling violated: c*max(m_i*I_rated) = {self.c * worst:.4f} >= pi/2"
            )


def default_dc_scaling(ders) -> float:
    return 0.8 * (math.pi / 2) / max(d.droop_m * d.rated_current for d in ders)


@dataclass(frozen=True)
class Event:
    """Timed change to the plant or the protocol."""

    time: float
    kind: str   # step_load | droop_change | plug | unplug
    payload: dict = field(default_factory=dict)

    KINDS = ("step_load", "droop_change", "plug", "unplug")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


def _line_operators(lines: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Incidence matrix B (+1 at i, -1 at j of line (i, j, b)) and strengths
    b of a `lines` tuple over n buses."""
    inc = incidence_matrix(CommGraph(n, tuple((i, j) for i, j, _b in lines), ()))
    return inc, np.array([b for _i, _j, b in lines], dtype=float)


def ac_power_flow(deltas, lines, bus_loads, operators=None) -> np.ndarray:
    """Injections P = P_L + B (b * sin(B^T delta)), i.e.
    P_i = P_L,i + sum_j b_ij sin(delta_i - delta_j), with `operators` the
    `_line_operators` of `lines` (None: build them).

    The sine terms cancel pairwise, so sum(P) = sum(P_L) identically.
    """
    inc, strength = _line_operators(lines, len(bus_loads)) if operators is None else operators
    return np.asarray(bus_loads, dtype=float) + inc @ (strength * np.sin(inc.T @ deltas))


def _passive_table(lines, bus_loads, passive) -> tuple:
    """(bus, load as a float, (neighbour, b) pairs in `lines` order) of each
    bus in the list `passive`."""
    neigh = {i: [] for i in passive}
    for i, j, b in lines:
        if i in neigh:
            neigh[i].append((j, b))
        if j in neigh:
            neigh[j].append((i, b))
    return tuple((i, float(bus_loads[i]), tuple(neigh[i])) for i in passive)


def _solve_passive_buses(deltas, buses, tol=1e-11, max_sweeps=200):
    """Zero-injection angles for the buses of the `_passive_table` `buses`,
    whose DERs are offline (1-D Newton per bus, Gauss-Seidel sweeps);
    MicrogridError if the injections stay above tol after max_sweeps
    sweeps, as when a load exceeds what its lines carry."""
    if not buses:
        return deltas
    d, sin, cos = deltas.tolist(), math.sin, math.cos
    for _ in range(max_sweeps):
        worst = 0.0
        for i, f, neigh in buses:
            di, fp = d[i], 0.0
            for j, b in neigh:
                x = di - d[j]
                f += b * sin(x)
                fp += b * cos(x)
            worst = max(worst, abs(f))
            if abs(fp) > 1e-9:
                d[i] = di - f / fp
        if worst < tol:
            return np.array(d)
    raise MicrogridError(f"passive buses {[bus[0] for bus in buses]} did not settle: "
                         f"injection residual {worst:.3g} kW after {max_sweeps} sweeps")


def _record(kind: str, rows: int, n: int) -> dict:
    """Unfilled output arrays of `rows` steps: name -> (rows, width)."""
    names = ("omega", "power") if kind == "ac" else ("vbus", "current", "vref")
    return {name: np.empty((rows, 1 if name == "vbus" else n))
            for name in names + ("phi", "pinner", "online")}


class PlantSegment:
    """What the steps up to the next event read: the `StepPlan` of the DERs'
    online flags, their droops n_i or m_i and pinner gains k*n_i or c*m_i,
    and copies of the network arrays (AC: float bus loads, line operators
    and the `_passive_table` of the offline DERs' buses; DC: R_i + m_i and
    the online DERs' indices)."""

    def __init__(self, kind: str, ders, network, comm: CommGraph):
        online = np.array([d.online for d in ders])
        self.plan = StepPlan(comm, online)
        self.droops = np.array([d.droop if kind == "ac" else d.droop_m for d in ders])
        self.gains = (network.k if kind == "ac" else network.c) * self.droops
        if kind == "ac":
            self.loads = np.array(network.bus_loads, dtype=float)
            self.operators = _line_operators(network.lines, len(self.loads))
            self.buses = _passive_table(network.lines, self.loads, self.plan.offline.tolist())
        else:
            self.r_series = np.array([d.line_r for d in ders]) + self.droops
            self.online_idx = np.flatnonzero(online)


@dataclass
class AcPlantState:
    deltas: np.ndarray
    protocol: ProtocolState


def ac_step(
    plant: AcPlantState,
    ders,
    network: AcNetwork,
    comm: CommGraph,
    config: ProtocolConfig,
    mixing=(),
    segment: PlantSegment | None = None,
    record: dict | None = None, row: int = 0,
) -> tuple[AcPlantState, dict | None]:
    """One co-simulation step of dt: power flow, consensus update with
    pinners k*n_i*P_i, droop frequencies, angle integration.  A run passes
    its `segment` and writes the outputs into row `row` of its `_record`;
    without a record they come back as a dict."""
    seg = PlantSegment("ac", ders, network, comm) if segment is None else segment
    rec = _record("ac", 1, len(ders)) if record is None else record
    nominal = network.omega_nominal

    deltas = _solve_passive_buses(plant.deltas, seg.buses)
    power = ac_power_flow(deltas, network.lines, seg.loads, seg.operators)
    rec["pinner"][row] = pinners = seg.gains * power

    protocol = qsdc_step(plant.protocol, comm, config, pinners, mixing, plan=seg.plan)

    omega = nominal - seg.droops * power + protocol.phis / network.k
    omega[seg.plan.offline] = nominal
    deltas = deltas + config.dt * 2.0 * math.pi * (omega - nominal)

    rec["omega"][row], rec["power"][row], rec["phi"][row] = omega, power, protocol.phis
    rec["online"][row] = seg.plan.online
    return (AcPlantState(deltas=deltas, protocol=protocol),
            None if record is not None else {name: arr[0] for name, arr in rec.items()})


def dc_solve(v_src, r_series, r_load: float, online) -> tuple[float, np.ndarray]:
    """Kirchhoff solution of the star network, source v_i behind r_i:
    V_b = (sum v_i/r_i) / (1/R_L + sum 1/r_i) over the `online` index array,
    I_i = (v_i - V_b)/r_i online, 0 otherwise.  `dc_step` closes the droop
    through it with v_i = V* + phi_i/c and r_i = R_i + m_i."""
    if not len(online):
        raise MicrogridError("no online DER; the bus is dead")
    if not (r_load > 0.0):
        raise MicrogridError(f"load resistance must be positive, got {r_load}")
    v_on = np.asarray(v_src, dtype=float)[online]
    r_on = np.asarray(r_series, dtype=float)[online]
    den = 0.0 if math.isinf(r_load) else 1.0 / r_load
    vb = np.sum(v_on / r_on) / (den + np.sum(1.0 / r_on))
    currents = np.zeros(len(r_series))
    currents[online] = (v_on - vb) / r_on
    return float(vb), currents


@dataclass
class DcPlantState:
    protocol: ProtocolState
    currents: np.ndarray


def dc_step(
    plant: DcPlantState,
    ders,
    network: DcNetwork,
    comm: CommGraph,
    config: ProtocolConfig,
    mixing=(),
    segment: PlantSegment | None = None,
    record: dict | None = None, row: int = 0,
) -> tuple[DcPlantState, dict | None]:
    """One co-simulation step: consensus with pinners c*m_i*I_i, then the
    droop-closed bus solve with the updated phases; the rest as in `ac_step`."""
    seg = PlantSegment("dc", ders, network, comm) if segment is None else segment
    rec = _record("dc", 1, len(ders)) if record is None else record
    rec["pinner"][row] = pinners = seg.gains * plant.currents

    protocol = qsdc_step(plant.protocol, comm, config, pinners, mixing, plan=seg.plan)
    phis = protocol.phis

    v_src = network.v_nominal + phis / network.c
    vb, currents = dc_solve(v_src, seg.r_series, network.r_load, seg.online_idx)
    v_refs = v_src - seg.droops * currents
    v_refs[seg.plan.offline] = network.v_nominal

    rec["vbus"][row], rec["current"][row], rec["vref"][row] = vb, currents, v_refs
    rec["phi"][row], rec["online"][row] = phis, seg.plan.online
    return (DcPlantState(protocol=protocol, currents=currents),
            None if record is not None else {name: arr[0] for name, arr in rec.items()})


def _check_comm_connected(comm: CommGraph, ders, when: str) -> None:
    online = {i for i, d in enumerate(ders) if d.online}
    if not online:
        raise PartitionError(f"{when}: no DER remains online")
    if not is_connected(comm.subgraph(online)):
        raise PartitionError(
            f"{when}: communication graph over online DERs {sorted(online)} "
            "is disconnected"
        )


def _apply_event(ev: Event, ders, network, kind: str) -> str:
    pl = ev.payload
    if ev.kind == "step_load":
        if kind == "ac":
            node = int(pl["node"])
            network.bus_loads[node] += float(pl["delta_kw"])
            return f"step_load node={node} delta_kw={pl['delta_kw']}"
        network.r_load = float(pl["r_load"])
        return f"step_load r_load={network.r_load}"
    if ev.kind == "droop_change":
        node = int(pl["node"])
        if kind == "ac":
            ders[node].droop = float(pl["droop"])
            return f"droop_change node={node} droop={ders[node].droop}"
        ders[node].droop_m = float(pl["droop"])
        return f"droop_change node={node} droop_m={ders[node].droop_m}"
    node = int(pl["node"])
    ders[node].online = ev.kind == "plug"
    return f"{ev.kind} node={node}"


def run_plant(
    kind: str,
    ders,
    network,
    comm: CommGraph,
    config: ProtocolConfig,
    horizon: float,
    events=(),
    mixing=(),
) -> Trajectory:
    """Fixed-step co-simulation of an AC or DC scenario.

    Plant and protocol share the same dt; events snap to the nearest step.
    The run works on copies of `ders` and `network`, so events and the
    default k (AC) or c (DC) never reach the caller's objects.  The record
    holds one row per step from t = dt, the series of `_record` (vbus as
    (T,)); its `meta` has the k or c and the nominal frequency or voltage.
    """
    n = len(ders)
    steps = step_count(horizon, config.dt)
    ders, network = copy.deepcopy((ders, network))
    if kind == "ac":
        network.apply_default_k(ders)
    else:
        network.apply_default_c(ders)
    network.check_scaling(ders)
    _check_comm_connected(comm, ders, "initial topology")

    by_step: dict[int, list[Event]] = {}
    for ev in events:
        idx = int(round(ev.time / config.dt))
        if not (0 <= idx <= steps):
            raise ValueError(f"event at t={ev.time} outside the horizon")
        by_step.setdefault(idx, []).append(ev)

    protocol = ProtocolState(phis=np.zeros(n))
    if kind == "ac":
        plant, step = AcPlantState(deltas=np.zeros(n), protocol=protocol), ac_step
    else:
        plant, step = DcPlantState(protocol=protocol, currents=np.zeros(n)), dc_step

    data = _record(kind, steps, n)
    applied: list = []
    noted: list = []

    starts = sorted({0, *by_step} - {steps})  # event steps split the horizon
    for start, stop in zip(starts, starts[1:] + [steps]):
        for ev in by_step.get(start, ()):
            applied.append(f"t={ev.time:g} {_apply_event(ev, ders, network, kind)}")
            if ev.kind in ("plug", "unplug"):
                _check_comm_connected(comm, ders, f"after {ev.kind} at t={ev.time:g}")
        segment = PlantSegment(kind, ders, network, comm)
        for kstep in range(start, stop):
            plant, _ = step(plant, ders, network, comm, config, mixing, segment, data, kstep)
            if plant.protocol.warnings:
                noted.append((kstep, plant.protocol.warnings))

    if kind == "dc":
        data["vbus"] = data["vbus"][:, 0]
    return run_record(kind, np.arange(1, steps + 1) * config.dt, data, config, noted, applied,
                      **{key: getattr(network, key, None)
                         for key in ("omega_nominal", "v_nominal", "k", "c")})

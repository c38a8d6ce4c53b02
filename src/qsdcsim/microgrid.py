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

`run_plant` splits the horizon at its events and builds one `PlantSegment`
per part.  `ac_step` and `dc_step` read only that segment, take and return
(protocol state, carry), the carry being the bus angles (AC) or the DER
currents (DC), and write one row of the run's `_record`.  An offline DER
keeps its index: the segment's `StepPlan` isolates it in the full
communication graph, and `qsdc_step` holds its phase.  It carries no
current (DC); its bus is passive (AC).

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


def _check_positive(der, *names: str) -> None:
    for name in names:
        if not getattr(der, name) > 0.0:  # also false for nan
            raise ValueError(f"{name} must be positive, got {getattr(der, name)}")


@dataclass
class AcDer:
    """One AC distributed energy resource."""

    droop: float          # Hz per kW
    rated_kw: float
    online: bool = True

    def __post_init__(self):
        _check_positive(self, "droop", "rated_kw")


@dataclass
class AcNetwork:
    """Electrical couplings and loads of the AC plant."""

    lines: tuple          # ((i, j, b_kw), ...) sine-coupling strengths
    bus_loads: np.ndarray  # kW per DER bus
    omega_nominal: float = 60.0
    k: float = 0.0        # rad per Hz; 0 means the `pinner_gain` default

    def __post_init__(self):
        self.bus_loads = np.array(self.bus_loads, dtype=float)  # a step_load adds floats


@dataclass
class DcDer:
    """One DC distributed energy resource."""

    droop: float          # V per A, m_i
    line_r: float         # ohm, DER terminal to bus
    rated_current: float  # A
    online: bool = True

    def __post_init__(self):
        _check_positive(self, "droop", "line_r", "rated_current")


@dataclass
class DcNetwork:
    v_nominal: float = 48.0
    r_load: float = math.inf
    c: float = 0.0        # rad per V; 0 means the `pinner_gain` default


def pinner_gain(gain: float, spans) -> float:
    """The pinner gain k (AC) or c (DC) of DERs whose droop spans n_i*rated_i
    or m_i*I_rated_i are `spans`: `gain`, or 0.8*(pi/2)/max span when `gain`
    is not positive.  Every pinner gain*span then stays inside (0, pi/2), as
    the twin-qubit phase estimate needs; ValueError if gain*max span is not
    below pi/2."""
    worst = max(spans)
    if gain <= 0.0:
        return 0.8 * (math.pi / 2) / worst
    if not gain * worst < math.pi / 2:
        raise ValueError(f"gain {gain:g} times the largest droop span {worst:g} is "
                         f"{gain * worst:.4f} >= pi/2; keep the gain below "
                         f"{math.pi / 2 / worst:.4g}")
    return gain


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


def ac_power_flow(deltas, operators, bus_loads) -> np.ndarray:
    """Injections P = P_L + B (b * sin(B^T delta)), i.e.
    P_i = P_L,i + sum_j b_ij sin(delta_i - delta_j), with `operators` the
    `_line_operators` (B, b) of the lines.

    The sine terms cancel pairwise, so sum(P) = sum(P_L) identically.
    """
    inc, strength = operators
    return bus_loads + inc @ (strength * np.sin(inc.T @ deltas))


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


PASSIVE_TOL_KW, PASSIVE_SWEEPS = 1e-11, 200


def _solve_passive_buses(deltas, buses):
    """Zero-injection angles for the buses of the `_passive_table` `buses`,
    whose DERs are offline (1-D Newton per bus, Gauss-Seidel sweeps);
    MicrogridError if the injections stay above PASSIVE_TOL_KW after
    PASSIVE_SWEEPS sweeps, as when a load exceeds what its lines carry."""
    if not buses:
        return deltas
    d, sin, cos = deltas.tolist(), math.sin, math.cos
    for _ in range(PASSIVE_SWEEPS):
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
        if worst < PASSIVE_TOL_KW:
            return np.array(d)
    raise MicrogridError(f"passive buses {[bus[0] for bus in buses]} did not settle: "
                         f"injection residual {worst:.3g} kW after {PASSIVE_SWEEPS} sweeps")


def _record(kind: str, rows: int, n: int) -> dict:
    """Unfilled output arrays of `rows` steps: vbus (rows,), online (rows, n)
    bool, the rest (rows, n) float."""
    names = ("omega", "power") if kind == "ac" else ("vbus", "current", "vref")
    return {name: np.empty((rows,) if name == "vbus" else (rows, n),
                           dtype=bool if name == "online" else float)
            for name in names + ("phi", "pinner", "online")}


def _gain(kind: str, ders, network) -> float:
    """`pinner_gain` of the network's k (AC) or c (DC) and the DERs' spans."""
    gain, rated = (network.k, "rated_kw") if kind == "ac" else (network.c, "rated_current")
    return pinner_gain(gain, [d.droop * getattr(d, rated) for d in ders])


class PlantSegment:
    """All that the steps up to the next event read, taken at the segment
    start: the `StepPlan` of `config`, `mixing` and the DERs' online flags,
    their droops n_i or m_i, the gain k or c (`_gain`; ValueError if a droop
    breaks its bound), the pinner gains k*n_i or c*m_i, the nominal
    frequency or voltage, and copies of the network arrays (AC: bus loads,
    line operators and the `_passive_table` of the offline DERs' buses; DC:
    R_i + m_i, R_L and the online DERs' indices)."""

    def __init__(self, kind: str, ders, network, comm: CommGraph, config, mixing=()):
        online = np.array([d.online for d in ders])
        self.plan = StepPlan(comm, config, online, mixing)
        self.droops = np.array([d.droop for d in ders])
        # a droop_change can break the bound the run's gain met at its start
        self.gain = _gain(kind, ders, network)
        self.pinner_gains = self.gain * self.droops
        if kind == "ac":
            self.nominal = network.omega_nominal
            self.loads = network.bus_loads.copy()
            self.operators = _line_operators(network.lines, len(self.loads))
            self.buses = _passive_table(network.lines, self.loads, self.plan.offline.tolist())
        else:
            self.nominal, self.r_load = network.v_nominal, network.r_load
            self.r_series = np.array([d.line_r for d in ders]) + self.droops
            self.online_idx = np.flatnonzero(online)


def ac_step(protocol: ProtocolState, deltas: np.ndarray, segment: PlantSegment, record: dict,
            row: int) -> tuple[ProtocolState, np.ndarray]:
    """One co-simulation step of dt on `segment` from bus angles `deltas`:
    power flow, consensus update with pinners k*n_i*P_i, droop frequencies,
    angle integration.  Writes row `row` of `record` but "online"."""
    nominal, offline = segment.nominal, segment.plan.offline
    deltas = _solve_passive_buses(deltas, segment.buses)
    power = ac_power_flow(deltas, segment.operators, segment.loads)
    pinners = np.multiply(segment.pinner_gains, power, out=record["pinner"][row])

    protocol = qsdc_step(protocol, segment.plan, pinners)

    # nominal - droops * power + phis / gain, in that order, in the record's row
    omega = np.multiply(segment.droops, power, out=record["omega"][row])
    np.subtract(nominal, omega, out=omega)
    omega += protocol.phis / segment.gain
    if len(offline):
        omega[offline] = nominal
    deltas = deltas + segment.plan.config.dt * 2.0 * math.pi * (omega - nominal)

    record["power"][row], record["phi"][row] = power, protocol.phis
    return protocol, deltas


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


def dc_step(protocol: ProtocolState, currents: np.ndarray, segment: PlantSegment, record: dict,
            row: int) -> tuple[ProtocolState, np.ndarray]:
    """One co-simulation step from DER currents `currents`: consensus with
    pinners c*m_i*I_i, then the droop-closed bus solve with the updated
    phases; the rest as in `ac_step`."""
    pinners = np.multiply(segment.pinner_gains, currents, out=record["pinner"][row])

    protocol = qsdc_step(protocol, segment.plan, pinners)
    phis = protocol.phis

    v_src = segment.nominal + phis / segment.gain
    vb, currents = dc_solve(v_src, segment.r_series, segment.r_load, segment.online_idx)
    v_refs = np.multiply(segment.droops, currents, out=record["vref"][row])
    np.subtract(v_src, v_refs, out=v_refs)
    if len(segment.plan.offline):
        v_refs[segment.plan.offline] = segment.nominal

    record["vbus"][row], record["current"][row], record["phi"][row] = vb, currents, phis
    return protocol, currents


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
        ders[node].droop = float(pl["droop"])
        key = "droop" if kind == "ac" else "droop_m"  # the scenario file's name
        return f"droop_change node={node} {key}={ders[node].droop}"
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

    Plant and protocol share the same dt; events snap to the nearest step
    start, and one that snaps outside steps 0 .. steps - 1 or names a node
    outside 0 .. n - 1 raises ValueError.
    The run works on copies of `ders` and `network`, so events and the
    default k (AC) or c (DC) never reach the caller's objects.  The record
    holds one row per step from t = dt, the series of `_record`; its `meta`
    has the k or c and the nominal frequency or voltage.
    """
    n = len(ders)
    steps = step_count(horizon, config.dt)
    ders, network = copy.deepcopy((ders, network))
    setattr(network, "k" if kind == "ac" else "c", _gain(kind, ders, network))
    step = ac_step if kind == "ac" else dc_step
    protocol, carry = ProtocolState(phis=np.zeros(n)), np.zeros(n)  # angles or currents
    _check_comm_connected(comm, ders, "initial topology")

    by_step: dict[int, list[Event]] = {}
    for ev in events:
        idx = int(round(ev.time / config.dt))
        if not (0 <= idx < steps):  # step `steps` would start after the last row
            raise ValueError(f"event at t={ev.time} outside the horizon")
        if "node" in ev.payload and int(ev.payload["node"]) not in range(n):
            raise ValueError(f"event at t={ev.time} names node {ev.payload['node']} "
                             f"outside 0 .. {n - 1}")
        by_step.setdefault(idx, []).append(ev)

    data = _record(kind, steps, n)
    applied: list = []
    noted: list = []

    starts = sorted({0, *by_step})  # event steps split the horizon
    for start, stop in zip(starts, starts[1:] + [steps]):
        for ev in by_step.get(start, ()):
            applied.append(f"t={ev.time:g} {_apply_event(ev, ders, network, kind)}")
            if ev.kind in ("plug", "unplug"):
                _check_comm_connected(comm, ders, f"after {ev.kind} at t={ev.time:g}")
        segment = PlantSegment(kind, ders, network, comm, config, mixing)
        data["online"][start:stop] = segment.plan.online
        for kstep in range(start, stop):
            protocol, carry = step(protocol, carry, segment, data, kstep)
            if protocol.warnings:
                noted.append((kstep, protocol.warnings))

    return run_record(kind, np.arange(1, steps + 1) * config.dt, data, config, noted, applied,
                      **{key: getattr(network, key, None)
                         for key in ("omega_nominal", "v_nominal", "k", "c")})

"""AC frequency-regulation and DC voltage-regulation plants closed around
the phase-consensus secondary controller.

AC: quasi-static sine-coupled power flow over DER buses, droop
omega_i = omega* - n_i P_i + phi_i/k, pinner k n_i P_i.  Each online DER
integrates its angle against the nominal frame; a bus whose DER is offline
keeps serving its local load and its angle is solved algebraically (zero
injection).

DC: single-bus star network, V_i_ref = V* - m_i I_i + phi_i/c, pinner
c m_i I_i.  The droop acts inside the power-electronics fast loop, so the
co-simulation closes it algebraically each step (the one-step-delayed
alternative is unstable for m_i >> R_i, which is exactly the regime the
droop accuracy condition requires).

An offline DER keeps its index: each step runs `qsdc_step` on the full
communication graph with the DERs' online flags, which isolates the DER and
holds its phase.  It carries no current (DC); its bus is passive (AC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import ProtocolConfig, ProtocolState, lyapunov, qsdc_step
from .netgraph import CommGraph, is_connected


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
    voltage_nominal: float = 380.0  # metadata only
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

    @property
    def droop_accuracy_ratio(self) -> float:
        """m_i / R_i; sharing accuracy needs this to be large."""
        return self.droop_m / self.line_r


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


def ac_power_flow(deltas, lines, bus_loads) -> np.ndarray:
    """Injections P_i = P_L,i + sum_j b_ij sin(delta_i - delta_j).

    The sine terms cancel pairwise, so sum(P) = sum(P_L) identically.
    """
    deltas = np.asarray(deltas, dtype=float)
    p = np.array(bus_loads, dtype=float)
    for i, j, b in lines:
        flow = b * math.sin(deltas[i] - deltas[j])
        p[i] += flow
        p[j] -= flow
    return p


def _solve_passive_buses(deltas, lines, bus_loads, passive, tol=1e-11, max_sweeps=200):
    """Zero-injection angles for buses whose DER is offline (1-D Newton per
    bus, Gauss-Seidel sweeps)."""
    if not passive:
        return deltas
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
            break
    return deltas


@dataclass
class AcPlantState:
    deltas: np.ndarray
    protocol: ProtocolState
    last_power: np.ndarray | None = None


def ac_step(
    plant: AcPlantState,
    ders,
    network: AcNetwork,
    comm: CommGraph,
    config: ProtocolConfig,
    mixing=(),
) -> tuple[AcPlantState, dict]:
    """One co-simulation step of dt: power flow, consensus update with
    pinners k*n_i*P_i, droop frequencies, angle integration."""
    n = len(ders)
    online = [i for i in range(n) if ders[i].online]
    passive = [i for i in range(n) if not ders[i].online]

    deltas = _solve_passive_buses(plant.deltas, network.lines, network.bus_loads, passive)
    power = ac_power_flow(deltas, network.lines, network.bus_loads)

    droops = np.array([d.droop for d in ders])
    pinners_full = network.k * droops * power

    protocol = qsdc_step(plant.protocol, comm, config, pinners_full, mixing,
                         online=[d.online for d in ders])

    omega = np.full(n, network.omega_nominal)
    omega[online] = (network.omega_nominal - droops[online] * power[online]
                     + protocol.phis[online] / network.k)

    deltas = deltas.copy()
    deltas[online] += config.dt * 2.0 * math.pi * (omega[online] - network.omega_nominal)

    new_plant = AcPlantState(deltas=deltas, protocol=protocol, last_power=power)
    outputs = {
        "omega": omega,
        "power": power,
        "phi": protocol.phis,
        "pinner": pinners_full,
        "online": np.array([d.online for d in ders], dtype=float),
    }
    return new_plant, outputs


def dc_solve(v_refs, ders, r_load: float, online=None) -> tuple[float, np.ndarray]:
    """Kirchhoff solution of the star network for given reference voltages.

    V_b = (sum V_ref_i / R_i) / (1/R_L + sum 1/R_i) over online DERs;
    I_i = (V_ref_i - V_b)/R_i online, 0 otherwise.
    """
    n = len(ders)
    if online is None:
        online = [i for i in range(n) if ders[i].online]
    if not online:
        raise MicrogridError("no online DER; the bus is dead")
    if not (r_load > 0.0):
        raise MicrogridError(f"load resistance must be positive, got {r_load}")
    g_load = 0.0 if math.isinf(r_load) else 1.0 / r_load
    num = sum(v_refs[i] / ders[i].line_r for i in online)
    den = g_load + sum(1.0 / ders[i].line_r for i in online)
    vb = num / den
    currents = np.zeros(n)
    for i in online:
        currents[i] = (v_refs[i] - vb) / ders[i].line_r
    return float(vb), currents


def _dc_droop_solve(phis, ders, network: DcNetwork, online):
    """Operating point with the droop closed algebraically:
    I_i = (V* + phi_i/c - V_b)/(R_i + m_i), V_b from current balance."""
    if not online:
        raise MicrogridError("no online DER; the bus is dead")
    g_load = 0.0 if math.isinf(network.r_load) else 1.0 / network.r_load
    num = 0.0
    den = g_load
    for i in online:
        u = network.v_nominal + phis[i] / network.c
        z = ders[i].line_r + ders[i].droop_m
        num += u / z
        den += 1.0 / z
    vb = num / den
    n = len(ders)
    currents = np.zeros(n)
    for i in online:
        u = network.v_nominal + phis[i] / network.c
        currents[i] = (u - vb) / (ders[i].line_r + ders[i].droop_m)
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
) -> tuple[DcPlantState, dict]:
    """One co-simulation step: consensus with pinners c*m_i*I_i, then the
    droop-closed bus solve with the updated phases."""
    n = len(ders)
    online = [i for i in range(n) if ders[i].online]

    droop_m = np.array([d.droop_m for d in ders])
    pinners_full = network.c * droop_m * plant.currents

    protocol = qsdc_step(plant.protocol, comm, config, pinners_full, mixing,
                         online=[d.online for d in ders])
    phis = protocol.phis

    vb, currents = _dc_droop_solve(phis, ders, network, online)
    v_refs = np.full(n, network.v_nominal)
    for i in online:
        v_refs[i] = (network.v_nominal - ders[i].droop_m * currents[i]
                     + phis[i] / network.c)

    new_plant = DcPlantState(protocol=protocol, currents=currents)
    outputs = {
        "vbus": np.array([vb]),
        "current": currents,
        "vref": v_refs,
        "phi": phis,
        "pinner": pinners_full,
        "online": np.array([d.online for d in ders], dtype=float),
    }
    return new_plant, outputs


@dataclass
class TimeSeries:
    """Recorded plant run: per-step signal arrays keyed by name."""

    times: np.ndarray
    data: dict            # name -> array of shape (T,) or (T, n)
    kind: str             # "ac" or "dc"
    events_applied: list = field(default_factory=list)
    lyapunov: np.ndarray | None = None
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def write_csv(self, fh) -> None:
        cols = ["t"]
        series = []
        for name in sorted(self.data):
            arr = self.data[name]
            if arr.ndim == 1:
                cols.append(name)
                series.append(arr[:, np.newaxis])
            else:
                cols.extend(f"{name}_{i}" for i in range(arr.shape[1]))
                series.append(arr)
        if self.lyapunov is not None:
            cols.append("V")
            series.append(self.lyapunov[:, np.newaxis])
        block = np.hstack([self.times[:, np.newaxis]] + series)
        fh.write(",".join(cols) + "\n")
        for row in block:
            fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


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
    init_phis=None,
) -> TimeSeries:
    """Fixed-step co-simulation of an AC or DC scenario.

    Plant and protocol share the same dt; events snap to the nearest step.
    """
    n = len(ders)
    steps = int(round(horizon / config.dt))
    if kind == "ac":
        network.apply_default_k(ders)
        network.check_scaling(ders)
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

    phis0 = np.zeros(n) if init_phis is None else np.asarray(init_phis, dtype=float)
    protocol = ProtocolState(phis=phis0.copy())
    if kind == "ac":
        plant = AcPlantState(deltas=np.zeros(n), protocol=protocol)
        stepper = lambda p, mix: ac_step(p, ders, network, comm, config, mix)
    else:
        plant = DcPlantState(protocol=protocol, currents=np.zeros(n))
        stepper = lambda p, mix: dc_step(p, ders, network, comm, config, mix)

    times = np.empty(steps)
    collected: dict[str, list] = {}
    vs = np.empty(steps)
    applied: list = []
    warnings: list = []

    for kstep in range(steps):
        for ev in by_step.get(kstep, ()):
            applied.append(f"t={ev.time:g} {_apply_event(ev, ders, network, kind)}")
            if ev.kind in ("plug", "unplug"):
                _check_comm_connected(comm, ders, f"after {ev.kind} at t={ev.time:g}")
        plant, out = stepper(plant, mixing)
        if plant.protocol.warnings:
            warnings.extend(f"t={kstep * config.dt:.6g}: {w}"
                            for w in plant.protocol.warnings)
        times[kstep] = (kstep + 1) * config.dt
        for name, arr in out.items():
            collected.setdefault(name, []).append(arr)
        online_idx = [i for i, d in enumerate(ders) if d.online]
        vs[kstep] = lyapunov(out["phi"][online_idx],
                             float(out["pinner"][online_idx].mean()))

    data = {name: np.array(rows) for name, rows in collected.items()}
    for name in list(data):
        if data[name].ndim == 2 and data[name].shape[1] == 1:
            data[name] = data[name][:, 0]
    return TimeSeries(times=times, data=data, kind=kind, events_applied=applied,
                      lyapunov=vs, warnings=warnings,
                      meta={"dt": config.dt, "seed": config.seed,
                            "backend": config.backend, "mode": config.mode})

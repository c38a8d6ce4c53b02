"""Scenario-file ingestion: JSON schema validation, defaults, physics checks
and construction of the runtime objects a run needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import jsonschema

from .consensus import MixingEvent, ProtocolConfig, ThetaConfig
from .microgrid import AcDer, AcNetwork, DcDer, DcNetwork, Event
from .netgraph import CommGraph, GraphValidationError, build_graph

class ScenarioError(ValueError):
    """Schema or physics violation in a scenario file."""


def _load_schema() -> dict:
    with resources.files("qsdcsim.schemas").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


_SCHEMA = _load_schema()
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)

_PROTOCOL_DEFAULTS = {
    "dt": 0.01,
    "substeps": 4,
    "exact": True,
    "shots": None,
    "theta": {"kind": "uniform", "lo": 0.2, "hi": math.pi - 0.2},
    "backend": "phase",
    "mode": "qsdc",
    "seed": 0,
}


@dataclass
class Scenario:
    """Validated scenario with defaults applied; `raw` round-trips to JSON."""

    kind: str
    raw: dict
    name: str = ""

    @property
    def horizon(self) -> float:
        return float(self.raw.get("horizon", 0.0))

    # -- builders ---------------------------------------------------------

    def protocol(self, **overrides) -> ProtocolConfig:
        p = dict(self.raw.get("protocol", {}))
        for key, val in overrides.items():
            if val is not None:
                p[key] = val
        if overrides.get("exact"):
            p["shots"] = None
        theta = p.pop("theta")
        exact = p.pop("exact", True)
        if p.get("shots") is None and not exact:
            raise ScenarioError("protocol: exact=false requires shots")
        kwargs = dict(p)
        if theta["kind"] == "fixed":
            vals = theta.get("values", math.pi / 2)
            vals = (vals,) if isinstance(vals, (int, float)) else tuple(vals)
            kwargs["theta"] = ThetaConfig.fixed(*vals)
        else:
            kwargs["theta"] = ThetaConfig.uniform(theta["lo"], theta["hi"])
        try:
            return ProtocolConfig(**kwargs)
        except ValueError as exc:
            raise ScenarioError(f"protocol: {exc}") from exc

    def graph(self) -> CommGraph:
        if "graph" not in self.raw:
            raise ScenarioError(f"{self.kind} scenario has no graph section")
        g = self.raw["graph"]
        try:
            return build_graph(g["nodes"], [tuple(e) for e in g["edges"]],
                               g.get("weights"))
        except GraphValidationError as exc:
            raise ScenarioError(f"graph: {exc}") from exc

    def mixing_events(self) -> list[MixingEvent]:
        section = self.raw.get(self.kind, {})
        out = []
        for i, ev in enumerate(section.get("mixing", [])):
            try:
                out.append(MixingEvent(nodes=tuple(ev["nodes"]), t_start=ev["t_start"],
                                       t_end=ev["t_end"], p=ev["p"]))
            except ValueError as exc:
                raise ScenarioError(f"{self.kind}.mixing[{i}]: {exc}") from exc
        return out

    def plant_events(self) -> list[Event]:
        section = self.raw.get(self.kind, {})
        out = []
        for i, ev in enumerate(section.get("events", [])):
            payload = {k: v for k, v in ev.items() if k not in ("time", "kind")}
            if "r_load" in payload and payload["r_load"] == "inf":
                payload["r_load"] = math.inf
            out.append(Event(time=float(ev["time"]), kind=ev["kind"], payload=payload))
        return out

    def ac_plant(self) -> tuple[list[AcDer], AcNetwork]:
        import numpy as np

        sec = self.raw["ac"]
        ders = [AcDer(droop=d["droop"], rated_kw=d["rated_kw"]) for d in sec["ders"]]
        loads = np.array([d.get("bus_load_kw", 0.0) for d in sec["ders"]])
        net = AcNetwork(
            lines=tuple((int(i), int(j), float(b)) for i, j, b in sec["lines"]),
            bus_loads=loads,
            omega_nominal=sec["omega_nominal"],
            k=sec.get("k", 0.0),
        )
        net.apply_default_k(ders)
        return ders, net

    def dc_plant(self) -> tuple[list[DcDer], DcNetwork]:
        sec = self.raw["dc"]
        ders = [
            DcDer(droop_m=d["droop_m"], line_r=d["line_r"],
                  rated_current=d["rated_current"])
            for d in sec["ders"]
        ]
        net = DcNetwork(
            v_nominal=sec["v_nominal"],
            r_load=math.inf if sec["r_load"] == "inf" else float(sec["r_load"]),
            c=sec.get("c", 0.0),
        )
        net.apply_default_c(ders)
        return ders, net


def _apply_defaults(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))  # deep copy, normalizes tuples
    proto = dict(_PROTOCOL_DEFAULTS)
    proto.update(doc.get("protocol", {}))
    if proto.get("shots") is not None:
        proto["exact"] = False
    doc["protocol"] = proto
    if doc["kind"] == "eve":
        eve = doc["eve"]
        eve.setdefault("r", 1.0)
        eve.setdefault("theta", {"kind": "uniform", "lo": 0.0, "hi": math.pi})
        eve.setdefault("shots_per_step", 1)
        eve.setdefault("bases_policy", "cycle")
    if doc["kind"] == "ac":
        doc["ac"].setdefault("omega_nominal", 60.0)
        doc["ac"].setdefault("events", [])
        doc["ac"].setdefault("mixing", [])
    if doc["kind"] == "dc":
        doc["dc"].setdefault("v_nominal", 48.0)
        doc["dc"].setdefault("r_load", "inf")
        doc["dc"].setdefault("events", [])
        doc["dc"].setdefault("mixing", [])
    if doc["kind"] == "consensus":
        doc["consensus"].setdefault("mixing", [])
    return doc


def _physics_checks(doc: dict) -> None:
    kind = doc["kind"]
    horizon = doc.get("horizon")

    def fail(path: str, msg: str, hint: str = ""):
        raise ScenarioError(f"{path}: {msg}" + (f" ({hint})" if hint else ""))

    theta = doc["protocol"]["theta"]
    if theta["kind"] == "uniform" and not (0.0 < theta["lo"] < theta["hi"] < math.pi):
        fail("$.protocol.theta", f"uniform bounds ({theta['lo']}, {theta['hi']}) "
             "must satisfy 0 < lo < hi < pi")
    values = theta.get("values", math.pi / 2) if theta["kind"] == "fixed" else []
    values = values if isinstance(values, list) else [values]
    for v in values:
        if not (0.0 < v < math.pi):
            fail("$.protocol.theta.values", f"fixed theta {v} outside (0, pi)")
    if kind in ("consensus", "ac", "dc") and len(values) > 1:
        n = doc["graph"]["nodes"] if kind == "consensus" else len(doc[kind]["ders"])
        if len(values) != n:
            fail("$.protocol.theta.values", f"{len(values)} values for {n} nodes")

    if kind == "consensus":
        n = doc["graph"]["nodes"]
        sec = doc["consensus"]
        for key, noun in (("initial_phi", "phases"), ("pinner", "pinners")):
            vals = sec[key] if isinstance(sec[key], list) else [sec[key]]
            # one pinner may serve every node; the phases are per node
            if len(vals) != n and (key == "initial_phi" or len(vals) > 1):
                fail(f"$.consensus.{key}", f"{len(vals)} {noun} for {n} nodes")
            for p in vals:
                if not (0.0 <= p <= math.pi / 2):
                    fail(f"$.consensus.{key}", f"{key} {p} outside [0, pi/2]")
        _check_mixing(sec, n, horizon, "$.consensus")

    if kind == "ac":
        sec = doc["ac"]
        n = len(sec["ders"])
        if doc["graph"]["nodes"] != n:
            fail("$.ac.ders", f"{n} DERs but the graph has {doc['graph']['nodes']} nodes")
        for col, (i, j, _b) in enumerate(sec["lines"]):
            if not (0 <= i < n and 0 <= j < n) or i == j:
                fail(f"$.ac.lines[{col}]", f"bad endpoint pair ({i},{j})")
        worst = max(d["droop"] * d["rated_kw"] for d in sec["ders"])
        k = sec.get("k")
        if k is not None and k * worst >= math.pi / 2:
            fail("$.ac.k", f"k*max(n_i*rated_i) = {k * worst:.4f} >= pi/2",
                 "lower k below (pi/2)/max(n_i*rated_i) so pinners stay in range")
        _check_plant_events(sec, n, horizon, "$.ac")

    if kind == "dc":
        sec = doc["dc"]
        n = len(sec["ders"])
        if doc["graph"]["nodes"] != n:
            fail("$.dc.ders", f"{n} DERs but the graph has {doc['graph']['nodes']} nodes")
        worst = max(d["droop_m"] * d["rated_current"] for d in sec["ders"])
        c = sec.get("c")
        if c is not None and c * worst >= math.pi / 2:
            fail("$.dc.c", f"c*max(m_i*I_rated) = {c * worst:.4f} >= pi/2",
                 "lower c below (pi/2)/max(m_i*I_rated)")
        _check_plant_events(sec, n, horizon, "$.dc")

    if kind == "eve":
        th = doc["eve"]["theta"]
        if th["kind"] == "uniform" and not (0.0 <= th["lo"] < th["hi"] <= math.pi):
            fail("$.eve.theta", "uniform bounds must satisfy 0 <= lo < hi <= pi")
        if th["kind"] == "fixed":
            vals = th.get("values", math.pi / 2)
            vals = vals if isinstance(vals, list) else [vals]
            if len(vals) > 1:
                fail("$.eve.theta.values", f"{len(vals)} values; the stream has one fixed theta")
            if not (0.0 <= vals[0] <= math.pi):
                fail("$.eve.theta.values", f"fixed theta {vals[0]} outside [0, pi]")

    rate = doc.get("rate", {})
    if kind == "rate":
        eps = rate.get("epsilon")
        if eps is not None and not (0.0 <= eps < math.pi / 2):
            fail("$.rate.epsilon", f"epsilon {eps} outside [0, pi/2)")
    if "weights" in rate and "graph" in doc:
        edges = len(doc["graph"]["edges"])
        if len(rate["weights"]) != edges:
            fail("$.rate.weights", f"{len(rate['weights'])} weights for {edges} edges")


def _check_plant_events(sec: dict, n: int, horizon: float, prefix: str) -> None:
    needed = {"step_load": (), "droop_change": ("node", "droop"),
              "plug": ("node",), "unplug": ("node",)}
    for idx, ev in enumerate(sec.get("events", [])):
        path = f"{prefix}.events[{idx}]"
        if ev["time"] > horizon:
            raise ScenarioError(f"{path}.time: event at {ev['time']} beyond horizon")
        for key in needed[ev["kind"]]:
            if key not in ev:
                raise ScenarioError(f"{path}: {ev['kind']} needs field {key!r}")
        if ev["kind"] == "step_load":
            if prefix == "$.ac" and ("node" not in ev or "delta_kw" not in ev):
                raise ScenarioError(f"{path}: ac step_load needs node and delta_kw")
            if prefix == "$.dc" and "r_load" not in ev:
                raise ScenarioError(f"{path}: dc step_load needs r_load")
        if "node" in ev and not (0 <= ev["node"] < n):
            raise ScenarioError(f"{path}.node: {ev['node']} out of range")
    _check_mixing(sec, n, horizon, prefix)


def _check_mixing(sec: dict, n: int, horizon: float, prefix: str) -> None:
    for idx, ev in enumerate(sec.get("mixing", [])):
        path = f"{prefix}.mixing[{idx}]"
        if ev["t_end"] > horizon:
            raise ScenarioError(f"{path}.t_end: window exceeds the horizon")
        for node in ev["nodes"]:
            if not (0 <= node < n):
                raise ScenarioError(f"{path}.nodes: {node} out of range")


def validate_scenario(doc: dict) -> dict:
    """Schema-validate, apply defaults, run physics checks; returns the
    normalized document."""
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        raise ScenarioError(f"{err.json_path}: {err.message}")
    doc = _apply_defaults(doc)
    _physics_checks(doc)
    return doc


def parse_scenario(path) -> Scenario:
    """Load, validate and normalize a scenario JSON file."""
    path = str(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    doc = validate_scenario(doc)
    name = doc.get("name") or path.rsplit("/", 1)[-1].removesuffix(".json")
    return Scenario(kind=doc["kind"], raw=doc, name=name)


def scenario_from_dict(doc: dict, name: str = "inline") -> Scenario:
    doc = validate_scenario(doc)
    return Scenario(kind=doc["kind"], raw=doc, name=doc.get("name") or name)

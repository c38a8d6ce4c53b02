"""Scenario-file ingestion: JSON schema validation, defaults, physics checks
and construction of the runtime objects a run needs.

`schemas/scenario.schema.json` is the one declarative source of the file
format.  `_errors` interprets the subset of JSON Schema 2020-12 (Core and
Validation) that the file uses: `$ref` (local `#/...` pointers only),
`allOf`, `oneOf`, `if`/`then`, `const`, `enum`, `type`, `properties`,
`required`, `additionalProperties: false`, `items` (a schema or `false`),
`prefixItems`, `minItems`, `maxItems`, `minimum`, `exclusiveMinimum` and
`maximum`; `$schema`, `$id`, `title` and `$defs` are annotations.  As in
2020-12, a bool is neither a `number` nor an `integer`, an integer-valued
float such as 3.0 is an `integer`, and `const: 1` does not match `true`.
The validator only reads the document; `_apply_defaults` normalizes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from . import consensus, microgrid  # lazy: only the builders that need them run them
from .netgraph import CommGraph, GraphValidationError, build_graph


class ScenarioError(ValueError):
    """Schema or physics violation in a scenario file."""


def _load_schema() -> dict:
    with resources.files("qsdcsim.schemas").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


_SCHEMA = _load_schema()
BACKENDS = tuple(_SCHEMA["$defs"]["protocol"]["properties"]["backend"]["enum"])

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

    def protocol_options(self, **overrides) -> dict:
        """The protocol section with the command-line options that are not
        None put in place of its fields, each checked against the schema."""
        p = dict(self.raw.get("protocol", {}))
        for key, val in overrides.items():
            if val is not None:
                _check_option(key, val)
                p[key] = val
        if overrides.get("exact"):
            p["shots"] = None
        if p.get("shots") is None and not p.get("exact", True):
            raise ScenarioError("$.protocol.exact: exact=false requires shots")
        return p

    def protocol(self, **overrides) -> consensus.ProtocolConfig:
        kwargs = self.protocol_options(**overrides)
        theta = kwargs.pop("theta")
        kwargs.pop("exact", None)
        if theta["kind"] == "fixed":
            vals = theta.get("values", math.pi / 2)
            vals = (vals,) if isinstance(vals, (int, float)) else tuple(vals)
            kwargs["theta"] = consensus.ThetaConfig.fixed(*vals)
        else:
            kwargs["theta"] = consensus.ThetaConfig.uniform(theta["lo"], theta["hi"])
        # the schema and physics checks cover each field
        return consensus.ProtocolConfig(**kwargs)

    def graph(self) -> CommGraph:
        if "graph" not in self.raw:
            raise ScenarioError(f"{self.kind} scenario has no graph section")
        g = self.raw["graph"]
        try:
            return build_graph(g["nodes"], [tuple(e) for e in g["edges"]],
                               g.get("weights"))
        except GraphValidationError as exc:
            raise ScenarioError(f"$.graph.{exc.field}: {exc}") from exc

    def mixing_events(self) -> list[consensus.MixingEvent]:
        section = self.raw.get(self.kind, {})
        out = []
        for i, ev in enumerate(section.get("mixing", [])):
            try:
                out.append(consensus.MixingEvent(nodes=tuple(ev["nodes"]),
                                                 t_start=ev["t_start"], t_end=ev["t_end"],
                                                 p=ev["p"]))
            except ValueError as exc:
                raise ScenarioError(f"$.{self.kind}.mixing[{i}]: {exc}") from exc
        return out

    def plant_events(self) -> list[microgrid.Event]:
        section = self.raw.get(self.kind, {})
        out = []
        for i, ev in enumerate(section.get("events", [])):
            payload = {k: v for k, v in ev.items() if k not in ("time", "kind")}
            if "r_load" in payload and payload["r_load"] == "inf":
                payload["r_load"] = math.inf
            out.append(microgrid.Event(time=float(ev["time"]), kind=ev["kind"],
                                       payload=payload))
        return out

    def ac_plant(self) -> tuple[list[microgrid.AcDer], microgrid.AcNetwork]:
        import numpy as np

        sec = self.raw["ac"]
        ders = [microgrid.AcDer(droop=d["droop"], rated_kw=d["rated_kw"])
                for d in sec["ders"]]
        loads = np.array([d.get("bus_load_kw", 0.0) for d in sec["ders"]])
        net = microgrid.AcNetwork(
            lines=tuple((int(i), int(j), float(b)) for i, j, b in sec["lines"]),
            bus_loads=loads,
            omega_nominal=sec["omega_nominal"],
            k=sec.get("k", 0.0),
        )
        net.apply_default_k(ders)
        return ders, net

    def dc_plant(self) -> tuple[list[microgrid.DcDer], microgrid.DcNetwork]:
        sec = self.raw["dc"]
        ders = [
            microgrid.DcDer(droop_m=d["droop_m"], line_r=d["line_r"],
                            rated_current=d["rated_current"])
            for d in sec["ders"]
        ]
        net = microgrid.DcNetwork(
            v_nominal=sec["v_nominal"],
            r_load=math.inf if sec["r_load"] == "inf" else float(sec["r_load"]),
            c=sec.get("c", 0.0),
        )
        net.apply_default_c(ders)
        return ders, net


def _integers(schema: dict, inst):
    """`inst` with every integer-valued float at an `integer` position of
    `schema` made an int, so that 3.0 nodes or 2.0 substeps run as 3 and 2;
    lists and dicts are changed in place."""
    schema = _resolve(schema["$ref"]) if "$ref" in schema else schema
    if isinstance(inst, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in inst:
                inst[key] = _integers(sub, inst[key])
    elif isinstance(inst, list):
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(inst):
            sub = prefix[i] if i < len(prefix) else schema.get("items", False)
            if sub is not False:
                inst[i] = _integers(sub, item)
    elif isinstance(inst, float) and inst.is_integer() and "integer" in _type_names(schema):
        return int(inst)
    return inst


def _apply_defaults(doc: dict) -> dict:
    # a deep copy; the schema admits no tuples, so the round trip changes nothing else
    doc = _integers(_SCHEMA, json.loads(json.dumps(doc)))
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


# -- schema validation ------------------------------------------------------


class _Error(NamedTuple):
    path: tuple          # from the instance the error list was made for
    keyword: str
    matches_type: bool   # the instance has a type its (sub)schema allows
    message: str
    context: tuple = ()  # the branch errors of a failed oneOf

    def rank(self) -> tuple:
        """max() prefers a shallow error, then the later of two siblings, then
        any keyword over oneOf, then one whose instance has a type its schema
        rejects."""
        return (-len(self.path), self.path, self.keyword != "oneOf", not self.matches_type)


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _is_type(inst, name: str) -> bool:
    if name in ("number", "integer"):
        if isinstance(inst, bool) or not isinstance(inst, (int, float)):
            return False
        return name == "number" or isinstance(inst, int) or inst.is_integer()
    return isinstance(inst, _TYPES[name])


def _type_names(schema: dict) -> list:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else types


def _matches_type(schema: dict, inst) -> bool:
    return any(_is_type(inst, t) for t in _type_names(schema))


def _equal(a, b) -> bool:
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


def _resolve(ref: str) -> dict:
    node = _SCHEMA
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def _errors(schema: dict, inst, path: tuple = ()):
    """Every error of `inst` under `schema`, keyword by keyword in schema
    order.  A keyword check yields its own errors as messages and passes on
    those of its subschemas."""
    for kw, val in schema.items():
        if kw in _KEYWORDS:
            for err in _KEYWORDS[kw](val, inst, schema, path):
                yield err if isinstance(err, _Error) else _Error(
                    path, kw, _matches_type(schema, inst), err)


def _subschemas(subs, inst, schema, path):
    for sub in subs:
        yield from _errors(sub, inst, path)


def _one_of(subs, inst, schema, path):
    found = [tuple(_errors(sub, inst)) for sub in subs]
    valid = [sub for sub, errs in zip(subs, found) if not errs]
    if not valid:
        yield _Error(path, "oneOf", _matches_type(schema, inst),
                     f"{inst!r} is not valid under any of the given schemas", sum(found, ()))
    elif len(valid) > 1:
        yield f"{inst!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"


def _if(cond, inst, schema, path):
    if "then" in schema and next(_errors(cond, inst, path), None) is None:
        yield from _errors(schema["then"], inst, path)


def _type(types, inst, schema, path):
    if not _matches_type(schema, inst):
        yield f"{inst!r} is not of type {', '.join(map(repr, _type_names(schema)))}"


def _properties(props, inst, schema, path):
    if isinstance(inst, dict):
        for key, sub in props.items():
            if key in inst:
                yield from _errors(sub, inst[key], path + (key,))


def _required(keys, inst, schema, path):
    if isinstance(inst, dict):
        yield from (f"{key!r} is a required property" for key in keys if key not in inst)


def _additional_properties(allowed, inst, schema, path):
    if isinstance(inst, dict) and allowed is False:
        extra = sorted((k for k in inst if k not in schema.get("properties", {})), key=str)
        if extra:
            yield (f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                   f"{'was' if len(extra) == 1 else 'were'} unexpected)")


def _prefix_items(subs, inst, schema, path):
    if isinstance(inst, list):
        for i, (item, sub) in enumerate(zip(inst, subs)):
            yield from _errors(sub, item, path + (i,))


def _items(sub, inst, schema, path):
    start = len(schema.get("prefixItems", ()))
    if not isinstance(inst, list) or len(inst) <= start:
        return
    if sub is False:
        extra = len(inst) - start
        rest = inst[start] if extra == 1 else inst[start:]
        yield (f"Expected at most {start} item{'' if start == 1 else 's'} "
               f"but found {extra} extra: {rest!r}")
    else:
        for i in range(start, len(inst)):
            yield from _errors(sub, inst[i], path + (i,))


def _const(val, inst, schema, path):
    if not _equal(inst, val):
        yield f"{val!r} was expected"


def _enum(vals, inst, schema, path):
    if not any(_equal(inst, v) for v in vals):
        yield f"{inst!r} is not one of {vals!r}"


def _min_items(n, inst, schema, path):
    if isinstance(inst, list) and len(inst) < n:
        yield f"{inst!r} {'should be non-empty' if n == 1 else 'is too short'}"


def _max_items(n, inst, schema, path):
    if isinstance(inst, list) and len(inst) > n:
        yield f"{inst!r} is too long"


def _bound(fails, words):
    """A check that yields `inst words bound` for a number that fails it."""
    def check(bound, inst, schema, path):
        if _is_type(inst, "number") and fails(inst, bound):
            yield f"{inst!r} {words} {bound!r}"
    return check


_KEYWORDS = {
    "$ref": lambda ref, inst, schema, path: _errors(_resolve(ref), inst, path),
    "allOf": _subschemas,
    "oneOf": _one_of,
    "if": _if,
    "const": _const,
    "enum": _enum,
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "prefixItems": _prefix_items,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _bound(lambda x, b: x < b, "is less than the minimum of"),
    "exclusiveMinimum": _bound(lambda x, b: x <= b, "is less than or equal to the minimum of"),
    "maximum": _bound(lambda x, b: x > b, "is greater than the maximum of"),
}


def _best_error(doc: dict) -> _Error | None:
    """The most relevant schema error of `doc`, with its path from the root.

    That is the best by rank, descending into a failed oneOf's branch errors
    unless the two best of them tie: the reference validator's `best_match`.
    """
    best = max(_errors(_SCHEMA, doc), key=_Error.rank, default=None)
    if best is None:
        return None
    path = best.path
    while best.context:
        first, *second = sorted(best.context, key=_Error.rank)[:2]
        if second and first.rank() == second[0].rank():
            break
        best, path = first, path + first.path
    return best._replace(path=path)


def _check_option(key: str, value) -> None:
    """Hold the command-line option --key to the schema of protocol.key,
    which its value replaces, and name the option in the error."""
    sub = _resolve("#/$defs/protocol")["properties"][key]
    error = max(_errors(sub, value), key=_Error.rank, default=None)
    if error is not None:
        raise ScenarioError(f"--{key}: {error.message}")


def _json_path(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def validate_scenario(doc: dict) -> dict:
    """Schema-validate, apply defaults, run physics checks; returns the
    normalized document and leaves `doc` as it was."""
    error = _best_error(doc)
    if error is not None:
        raise ScenarioError(f"{_json_path(error.path)}: {error.message}")
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

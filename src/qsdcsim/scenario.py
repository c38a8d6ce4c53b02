"""Scenario-file ingestion: JSON schema validation, defaults, physics checks
and construction of the runtime objects a run needs.

`schemas/scenario.schema.json` is the one declarative source of the file
format.  `_valid` decides whether a document meets it, by the subset of JSON
Schema 2020-12 (Core and Validation) that the file uses: `$ref` (local `#/...`
pointers only), `allOf`, `oneOf`, `if`/`then`, `const`, `enum`, `type`,
`properties`, `required`, `additionalProperties: false`, `items` (a schema or
`false`), `prefixItems`, `minItems`, `maxItems`, `minimum`,
`exclusiveMinimum` and `maximum`; `$schema`, `$id`, `title` and `$defs` are
annotations.  As in 2020-12, a bool is neither a `number` nor an `integer`,
an integer-valued float such as 3.0 is an `integer`, and `const: 1` does not
match `true`; unlike it, nan and +-inf are not numbers.  Only a rejected
document imports jsonschema: `_reference_error` asks it, with the same
numbers, which error explains the rejection, so a valid file's set-up loads
no schema library.  The validator only reads the document; `_apply_defaults`
normalizes it.

Each rule has one home.  The schema holds the file format: types, keys and
the ranges no runtime object needs (`seed >= 0`, `horizon > 0`, the eve
fields).  The constructors hold the rest: ProtocolConfig (dt, substeps, shots,
backend, mode), ThetaConfig (bounds, values, one per node), MixingEvent (p,
window), AcDer and DcDer (positivity), Event (kinds), pinner_gain, build_graph,
convergence_rate (the rate epsilon).
`_physics_checks` builds them, and checks the rules that tie fields together.
Defaults are the dataclass fields; an eve file that sets no protocol field but
the seed loads no `consensus`.  `ac.voltage_nominal` is accepted and unused.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources

from . import consensus, microgrid  # lazy: run only by the builders and checks that use them
from .netgraph import CommGraph, GraphValidationError, build_graph


class ScenarioError(ValueError):
    """Schema or physics violation in a scenario file."""


def _load_schema() -> dict:
    with resources.files("qsdcsim.schemas").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


_SCHEMA = _load_schema()


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
                _check_option(key, val, f"#/$defs/protocol/properties/{key}")
                p[key] = val
        if overrides.get("exact"):
            p["shots"] = None
        if p.get("shots") is None and not p.get("exact", True):
            raise ScenarioError("$.protocol.exact: exact=false requires shots")
        return p

    def protocol(self, **overrides) -> consensus.ProtocolConfig:
        kwargs = self.protocol_options(**overrides)
        kwargs.pop("exact", None)
        if "theta" in kwargs:
            kwargs["theta"] = _theta(kwargs["theta"])
        options = {key: f"--{key}" for key, val in overrides.items() if val is not None}
        return _built("$.protocol", consensus.ProtocolConfig, names=options, **kwargs)

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
        return [_built(f"$.{self.kind}.mixing[{i}]", consensus.MixingEvent,
                       nodes=tuple(ev["nodes"]), t_start=ev["t_start"], t_end=ev["t_end"],
                       p=ev["p"])
                for i, ev in enumerate(section.get("mixing", []))]

    def plant_events(self) -> list[microgrid.Event]:
        section = self.raw.get(self.kind, {})
        return [_built(f"$.{self.kind}.events[{i}].kind", microgrid.Event,
                       time=float(ev["time"]), kind=ev["kind"],
                       payload={k: math.inf if v == "inf" else v  # r_load may be "inf"
                                for k, v in ev.items() if k not in ("time", "kind")})
                for i, ev in enumerate(section.get("events", []))]

    def ac_plant(self) -> tuple[list[microgrid.AcDer], microgrid.AcNetwork]:
        sec = self.raw["ac"]
        ders = [_built(f"$.ac.ders[{i}]", microgrid.AcDer, droop=d["droop"],
                       rated_kw=d["rated_kw"])
                for i, d in enumerate(sec["ders"])]
        net = microgrid.AcNetwork(
            lines=tuple((int(i), int(j), float(b)) for i, j, b in sec["lines"]),
            bus_loads=[d.get("bus_load_kw", 0.0) for d in sec["ders"]],
            omega_nominal=sec["omega_nominal"],
            k=_built("$.ac.k", microgrid.pinner_gain, sec.get("k", 0.0),
                     [d.droop * d.rated_kw for d in ders]),
        )
        return ders, net

    def dc_plant(self) -> tuple[list[microgrid.DcDer], microgrid.DcNetwork]:
        sec = self.raw["dc"]
        ders = [_built(f"$.dc.ders[{i}]", microgrid.DcDer,
                       names={"droop": f"$.dc.ders[{i}].droop_m"}, droop=d["droop_m"],
                       line_r=d["line_r"], rated_current=d["rated_current"])
                for i, d in enumerate(sec["ders"])]
        net = microgrid.DcNetwork(
            v_nominal=sec["v_nominal"],
            r_load=math.inf if sec["r_load"] == "inf" else float(sec["r_load"]),
            c=_built("$.dc.c", microgrid.pinner_gain, sec.get("c", 0.0),
                     [d.droop * d.rated_current for d in ders]),
        )
        return ders, net


def _built(path: str, make, *args, names: dict | None = None, **kwargs):
    """make(*args, **kwargs), with its ValueError raised as a ScenarioError
    at `path`; or, if the message starts with keyword argument `key`, at
    names[key] when given, else at path.key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        key = str(exc).split()[0]
        where = (names or {}).get(key, f"{path}.{key}") if key in kwargs else path
        raise ScenarioError(f"{where}: {exc}") from exc


def _theta(spec: dict) -> consensus.ThetaConfig:
    """The ThetaConfig of a protocol's theta section."""
    if spec["kind"] == "uniform":
        return _built("$.protocol.theta", consensus.ThetaConfig.uniform, spec["lo"], spec["hi"])
    values = spec.get("values", [])
    return _built("$.protocol.theta.values", consensus.ThetaConfig.fixed,
                  *(values if isinstance(values, list) else [values]))


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
    kind, proto = doc["kind"], doc.setdefault("protocol", {})
    if proto.get("shots") is not None and proto.get("exact"):
        raise ScenarioError("$.protocol.exact: exact=true excludes shots")
    proto["exact"] = proto.get("shots") is None and proto.get("exact", True)
    if kind == "eve":
        proto.setdefault("seed", 0)  # an eve run reads only the seed
        doc["eve"] = {"r": 1.0, "theta": {"kind": "uniform", "lo": 0.0, "hi": math.pi},
                      "shots_per_step": 1, "bases_policy": "cycle", **doc["eve"]}
    else:
        defaults = dataclasses.asdict(consensus.ProtocolConfig())
        defaults["theta"] = {k: v for k, v in defaults["theta"].items() if v is not None}
        doc["protocol"] = {**defaults, **proto}
    if kind == "consensus":
        doc["consensus"].setdefault("mixing", [])
    if kind in ("ac", "dc"):
        ac, dc = microgrid.AcNetwork, microgrid.DcNetwork  # a file spells infinity "inf"
        network = {"omega_nominal": ac.omega_nominal} if kind == "ac" else {
            "v_nominal": dc.v_nominal, "r_load": "inf" if dc.r_load == math.inf else dc.r_load}
        doc[kind] = {**network, "events": [], "mixing": [], **doc[kind]}
    return doc


def _physics_checks(sc: Scenario) -> None:
    doc, kind = sc.raw, sc.kind
    horizon = doc.get("horizon")

    def fail(path: str, msg: str):
        raise ScenarioError(f"{path}: {msg}")

    if kind != "eve" or doc["protocol"].keys() - {"seed", "exact"}:
        sc.protocol()
    if kind in ("consensus", "ac", "dc"):
        n = doc["graph"]["nodes"] if kind == "consensus" else len(doc[kind]["ders"])
        if doc["protocol"]["theta"]["kind"] == "fixed":
            _built("$.protocol.theta.values", _theta(doc["protocol"]["theta"]).draw, 0, 0, n)
    sc.mixing_events()

    if kind == "consensus":
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

    if kind in ("ac", "dc"):
        sec = doc[kind]
        if doc["graph"]["nodes"] != n:
            fail(f"$.{kind}.ders", f"{n} DERs but the graph has {doc['graph']['nodes']} nodes")
        for col, (i, j, _b) in enumerate(sec.get("lines", [])):
            if not (0 <= i < n and 0 <= j < n) or i == j:
                fail(f"$.ac.lines[{col}]", f"bad endpoint pair ({i},{j})")
        ders, network = sc.ac_plant() if kind == "ac" else sc.dc_plant()
        sc.plant_events()
        _check_plant_events(sec, n, horizon, f"$.{kind}")
        # the run holds the one gain to every droop_change, in time order
        gain, rated = ("k", "rated_kw") if kind == "ac" else ("c", "rated_current")
        spans = [d.droop * getattr(d, rated) for d in ders]
        for idx, ev in sorted(enumerate(sec["events"]), key=lambda item: item[1]["time"]):
            if ev["kind"] == "droop_change":
                spans[ev["node"]] = ev["droop"] * getattr(ders[ev["node"]], rated)
                _built(f"$.{kind}.events[{idx}].droop", microgrid.pinner_gain,
                       getattr(network, gain), spans)

    if kind == "eve":
        th = doc["eve"]["theta"]
        if th["kind"] == "uniform" and not (0.0 <= th["lo"] < th["hi"] <= math.pi):
            fail("$.eve.theta", "uniform bounds must satisfy 0 <= lo < hi <= pi")
        vals = th.get("values", []) if th["kind"] == "fixed" else []
        vals = vals if isinstance(vals, list) else [vals]
        if len(vals) > 1:
            fail("$.eve.theta.values", f"{len(vals)} values; the stream has one fixed theta")
        if vals and not (0.0 <= vals[0] <= math.pi):
            fail("$.eve.theta.values", f"fixed theta {vals[0]} outside [0, pi]")

    rate = doc.get("rate", {})
    if "weights" in rate and "graph" in doc:
        try:
            graph = build_graph(doc["graph"]["nodes"], doc["graph"]["edges"], rate["weights"])
        except GraphValidationError as exc:
            fail("$.rate.weights" if exc.field == "weights" else f"$.graph.{exc.field}", str(exc))
    elif kind == "rate":
        graph = sc.graph()
    if kind == "rate" and "epsilon" in rate:
        _built("$.rate", consensus.convergence_rate, graph, epsilon=rate["epsilon"])


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


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _is_type(inst, name: str) -> bool:
    if name in ("number", "integer"):
        # RFC 8259 has no nan or infinity; Python's json reads them all the same
        if isinstance(inst, bool) or not isinstance(inst, (int, float)) or (
                isinstance(inst, float) and not math.isfinite(inst)):
            return False
        return name == "number" or isinstance(inst, int) or inst.is_integer()
    return isinstance(inst, _TYPES[name])


def _type_names(schema: dict) -> list:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else types


def _equal(a, b) -> bool:
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


def _resolve(ref: str) -> dict:
    node = _SCHEMA
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def _valid(schema: dict, inst) -> bool:
    """Whether `inst` meets every keyword of `schema`."""
    return all(_KEYWORDS[kw](val, inst, schema) for kw, val in schema.items() if kw in _KEYWORDS)


def _items(sub, inst, schema) -> bool:
    rest = inst[len(schema.get("prefixItems", ())):] if isinstance(inst, list) else []
    return all(sub is not False and _valid(sub, item) for item in rest)


# keyword -> check(value, inst, schema); a check passes an instance it does not apply to
_KEYWORDS = {
    "$ref": lambda ref, inst, schema: _valid(_resolve(ref), inst),
    "allOf": lambda subs, inst, schema: all(_valid(sub, inst) for sub in subs),
    "oneOf": lambda subs, inst, schema: sum(_valid(sub, inst) for sub in subs) == 1,
    "if": lambda cond, inst, schema: (
        "then" not in schema or not _valid(cond, inst) or _valid(schema["then"], inst)),
    "const": lambda val, inst, schema: _equal(inst, val),
    "enum": lambda vals, inst, schema: any(_equal(inst, v) for v in vals),
    "type": lambda types, inst, schema: any(_is_type(inst, t) for t in _type_names(schema)),
    "properties": lambda props, inst, schema: not isinstance(inst, dict) or all(
        _valid(sub, inst[key]) for key, sub in props.items() if key in inst),
    "required": lambda keys, inst, schema: not isinstance(inst, dict) or all(
        key in inst for key in keys),
    "additionalProperties": lambda allowed, inst, schema: (
        allowed is not False or not isinstance(inst, dict)
        or all(key in schema.get("properties", {}) for key in inst)),
    "prefixItems": lambda subs, inst, schema: not isinstance(inst, list) or all(
        _valid(sub, item) for sub, item in zip(subs, inst)),
    "items": _items,
    "minItems": lambda n, inst, schema: not isinstance(inst, list) or len(inst) >= n,
    "maxItems": lambda n, inst, schema: not isinstance(inst, list) or len(inst) <= n,
    "minimum": lambda bound, inst, schema: not _is_type(inst, "number") or inst >= bound,
    "exclusiveMinimum": lambda bound, inst, schema: not _is_type(inst, "number") or inst > bound,
    "maximum": lambda bound, inst, schema: not _is_type(inst, "number") or inst <= bound,
}


def _reference_error(schema: dict, inst):
    """jsonschema's `best_match` among the errors of `inst`, which `_valid`
    rejected, under `schema`: the scenario schema, or a part of it with no
    `$ref`.  Its type checker takes numbers from `_is_type`, so that nan and
    +-inf fail `type` here as well."""
    import jsonschema  # ~75 ms; only a rejected document pays for it

    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine_many({
        "number": lambda _checker, x: _is_type(x, "number"),
        "integer": lambda _checker, x: _is_type(x, "integer")})
    errors = jsonschema.validators.extend(base, type_checker=checker)(schema).iter_errors(inst)
    return jsonschema.exceptions.best_match(errors)


def _check_option(option: str, value, ref: str) -> None:
    """Hold the command-line option --`option` to the schema at `ref`, of the
    field its value replaces, and name the option in the error."""
    sub = _resolve(ref)
    if not _valid(sub, value):
        raise ScenarioError(f"--{option}: {_reference_error(sub, value).message}")


def validate_scenario(doc: dict) -> dict:
    """Schema-validate, apply defaults, run physics checks; returns the
    normalized document and leaves `doc` as it was."""
    if not _valid(_SCHEMA, doc):
        error = _reference_error(_SCHEMA, doc)
        raise ScenarioError(f"{error.json_path}: {error.message}")
    doc = _apply_defaults(doc)
    _physics_checks(Scenario(kind=doc["kind"], raw=doc))
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

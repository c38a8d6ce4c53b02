"""The scenario validator against the schema file and against the
`jsonschema` package as a reference implementation.

The differential tests require the reference's accept/reject decision from
`_valid` and, for a rejected document, the JSON path and keyword of a plain
`jsonschema.exceptions.best_match` from `_reference_error`, on every bundled
scenario, on the benchmark's generated documents and on corpora of one- and
two-field mutations of them.

`PYTHONPATH=src python tests/test_scenario_schema.py OUT.json` writes the
parse outcome of every single-field mutant of the bundled, generated (seeds
0-1) and `scenarios/rate/` documents, as `{"<doc>|<path>|<change>": "ok" or
"<$.path of the error>"}`, so that two trees' outcomes can be compared.
"""

import copy
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsdcsim.scenario import _KEYWORDS, _SCHEMA, _reference_error, _valid, validate_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# Keywords the validator reads without applying them: annotations, and
# `then`, which `if` applies.
PASSIVE = {"$schema", "$id", "title", "$defs", "then"}
MUTANTS = (None, True, 0, -1, 2.5, "x", [], {})


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bundled_documents() -> dict:
    paths = sorted(SCENARIOS.glob("*.json")) + [ROOT / "perfbench" / "ac15_pnp.json"]
    return {f"{p.parent.name}/{p.name}": json.loads(p.read_text()) for p in paths}


def rate_documents() -> dict:
    return {f"scenarios/rate/{p.name}": json.loads(p.read_text())
            for p in sorted((SCENARIOS / "rate").glob("*.json"))}


def generated_documents(seeds=range(5)) -> dict:
    workloads = load_workloads()
    return {f"{name}:{seed}": workloads.make_scenario(name, seed)
            for name in workloads.WORKLOADS for seed in seeds}


def subschemas(schema: dict):
    yield schema
    for kw, val in schema.items():
        if kw in ("properties", "$defs"):
            subs = val.values()
        elif kw in ("allOf", "oneOf", "prefixItems"):
            subs = val
        elif kw in ("if", "then", "items", "additionalProperties"):
            subs = [val]
        else:
            continue
        for sub in subs:
            if isinstance(sub, dict):
                yield from subschemas(sub)


def as_floats(doc):
    """doc with every integer a float: 2020-12 counts 3.0 as an integer."""
    if isinstance(doc, dict):
        return {key: as_floats(val) for key, val in doc.items()}
    if isinstance(doc, list):
        return [as_floats(val) for val in doc]
    return float(doc) if type(doc) is int else doc


def slots(doc, path=(), shape=()):
    """(path, shape) of every value in doc, depth first.  The shape names a
    list index by its place: 0, 1, "mid" or "last"."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, val in items:
        place = key
        if isinstance(doc, list) and key > 1:
            place = "last" if key == len(doc) - 1 else "mid"
        yield path + (key,), shape + (place,)
        if isinstance(val, (dict, list)):
            yield from slots(val, path + (key,), shape + (place,))


def mutations(doc):
    """(path, shape, change) for each field deleted, each field set to each
    of MUTANTS, each object given an extra key and each key misspelt."""
    for path, shape in [((), ())] + list(slots(doc)):
        if path:
            for change in ("delete",) + MUTANTS:
                yield path, shape, change
        if path and isinstance(path[-1], str):
            yield path, shape, "misspell"
        if isinstance(_at(doc, path), dict):
            yield path, shape, "extra"


def mutant(doc, path, change):
    out = copy.deepcopy(doc)
    if change == "extra":
        _at(out, path)["extra"] = 1
    elif change == "misspell":
        parent = _at(out, path[:-1])
        parent[path[-1] + "_"] = parent.pop(path[-1])
    elif change == "delete":
        del _at(out, path[:-1])[path[-1]]
    else:
        _at(out, path[:-1])[path[-1]] = copy.deepcopy(change)
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def reference():
    """(json_path, keyword) of the reference validator's best match, or None
    if `doc` is valid."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(_SCHEMA)

    def best(doc):
        errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
        if not errors:
            return None
        error = jsonschema.exceptions.best_match(errors)
        return error.json_path, error.validator

    return best


def ours(doc):
    if _valid(_SCHEMA, doc):
        return None
    error = _reference_error(_SCHEMA, doc)
    return error.json_path, error.validator


def test_schema_uses_only_supported_keywords():
    for schema in subschemas(_SCHEMA):
        assert set(schema) <= set(_KEYWORDS) | PASSIVE, schema
        assert schema.get("additionalProperties", False) is False, schema
        assert schema.get("$ref", "#/").startswith("#/"), schema


def test_validate_scenario_leaves_doc_unchanged():
    docs = list(bundled_documents().values())
    invalid = copy.deepcopy(docs[0])
    invalid["graph"]["nodes"] = True
    for doc in docs + [as_floats(doc) for doc in docs] + [invalid]:
        before = copy.deepcopy(doc)
        try:
            validate_scenario(doc)
        except ValueError:
            pass
        assert repr(doc) == repr(before)


@pytest.mark.parametrize("name, doc", [
    *bundled_documents().items(),
    *((f"{name} as floats", as_floats(doc)) for name, doc in bundled_documents().items()),
    *generated_documents().items(),
    # last, so that a file there renumbers no other case's id
    *rate_documents().items(),
])
def test_valid_documents_match_reference(reference, name, doc):
    assert reference(doc) is None
    assert ours(doc) is None


def test_mutations_match_reference(reference):
    # The other fields of a mutant are valid, so one mutant per document
    # kind, shape and change is enough: the others repeat it.
    seen, mismatches = set(), []
    for name, doc in [*bundled_documents().items(), *generated_documents(range(1)).items()]:
        for path, shape, change in mutations(doc):
            if (doc["kind"], shape, repr(change)) in seen:
                continue
            seen.add((doc["kind"], shape, repr(change)))
            bad = mutant(doc, path, change)
            expected, got = reference(bad), ours(bad)
            if expected != got:
                mismatches.append(f"{name} {shape} {change!r}: reference {expected}, got {got}")
    assert len(seen) > 2000
    assert mismatches == [], f"{len(mismatches)} mismatches, first: {mismatches[:5]}"


@pytest.mark.parametrize("scenario", ["eve_pi6", "consensus3_mixed"])
def test_two_field_mutations_match_reference(reference, scenario):
    # Two bad fields give errors at two places, so these mutants test which
    # error is reported, where one bad field mostly tests whether one is.
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    paths = [path for path, _ in slots(doc)]
    mismatches = []
    for a, b in itertools.combinations(paths, 2):
        if b[:len(a)] != a:
            bad = mutant(mutant(doc, a, "x"), b, None)
            expected, got = reference(bad), ours(bad)
            if expected != got:
                mismatches.append(f"{a} 'x', {b} None: reference {expected}, got {got}")
    assert mismatches == [], f"{len(mismatches)} mismatches, first: {mismatches[:5]}"


def test_cli_import_loads_no_schema_library():
    # set-up (importing the CLI, parsing every bundled scenario) loads neither
    # a schema library nor numpy.random, which only a run that draws needs
    code = (
        "import sys, qsdcsim.cli\n"
        "from qsdcsim.scenario import parse_scenario\n"
        f"for path in {sorted(map(str, SCENARIOS.rglob('*.json')))!r}:\n"
        "    parse_scenario(path)\n"
        "roots = {'jsonschema', 'referencing', 'attrs', 'attr', 'rpds', 'numpy.random'}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if {m.split('.')[0], '.'.join(m.split('.')[:2])} & roots))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def test_rejected_file_explains_itself_in_a_fresh_interpreter(tmp_path):
    # the in-process tests have imported jsonschema already, so only a new
    # interpreter shows that the error path imports it on its own
    doc = json.loads((SCENARIOS / "consensus3.json").read_text())
    doc["protocol"]["dt"] = "x"
    path = tmp_path / "consensus3.json"
    path.write_text(json.dumps(doc))
    out = subprocess.run([sys.executable, "-m", "qsdcsim.cli", "consensus", "--scenario",
                          str(path), "--out", str(tmp_path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 1
    assert out.stderr == "validation error: $.protocol.dt: 'x' is not of type 'number'\n"


def parse_outcome(doc) -> str:
    """"ok", or the JSON path that `validate_scenario`'s error names."""
    try:
        validate_scenario(doc)
    except ValueError as exc:
        return str(exc).split(": ", 1)[0]
    return "ok"


if __name__ == "__main__":
    docs = {**bundled_documents(), **generated_documents(range(2)), **rate_documents()}
    outcomes = {f"{name}|{'/'.join(map(str, path))}|{change!r}":
                parse_outcome(mutant(doc, path, change))
                for name, doc in docs.items() for path, _, change in mutations(doc)}
    Path(sys.argv[1]).write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")

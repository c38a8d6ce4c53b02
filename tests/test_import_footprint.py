"""Each command runs only the modules it uses, and runs them all in set-up.

Every check runs in a fresh interpreter, because the test session itself has
long since run every module.  `import qsdcsim` puts every submodule but `cli`
in `sys.modules` as a lazy module, whose code has not run until its first
attribute read; such a module is an instance of a `ModuleType` subclass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

# the package's modules whose code has run
LOADED = ("sorted(m for m, mod in sys.modules.items()\n"
          "       if m.startswith('qsdcsim') and type(mod) is types.ModuleType)")


def run_python(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return out.stdout


def test_package_root_loads_nothing_and_imports_submodules_on_access():
    out = run_python(
        "import sys, types, qsdcsim\n"
        f"print({LOADED})\n"
        "print(qsdcsim.microgrid.run_plant.__name__)\n"
        "try:\n"
        "    qsdcsim.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == [
        "['qsdcsim']", "run_plant", "module 'qsdcsim' has no attribute 'no_such_name'"]


def test_eve_command_loads_no_consensus_plant_or_engine(tmp_path):
    out = run_python(
        "import json, sys, types\n"
        "from qsdcsim import cli\n"
        f"code = cli.main(['eve', '--scenario', {str(SCENARIOS / 'eve_pi6.json')!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    )
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert not {"qsdcsim.consensus", "qsdcsim.microgrid", "qsdcsim.engine"} & set(loaded)


def test_consensus_builders_load_no_plant():
    out = run_python(
        "import json, sys, types\n"
        "from qsdcsim.scenario import parse_scenario\n"
        f"sc = parse_scenario({str(SCENARIOS / 'consensus3.json')!r})\n"
        "sc.protocol(), sc.graph(), sc.mixing_events()\n"
        f"print(json.dumps({LOADED}))\n"
    )
    loaded = json.loads(out)
    assert "qsdcsim.consensus" in loaded
    assert "qsdcsim.microgrid" not in loaded


# The set-up a command's run needs: parse, then build what the run takes,
# as the benchmark's worker does before its timed region.
SETUP = {
    "consensus": "sc.protocol(), sc.graph(), sc.mixing_events()",
    "ac": "sc.protocol(), sc.graph(), sc.mixing_events(), sc.ac_plant(), sc.plant_events()",
    "dc": "sc.protocol(), sc.graph(), sc.mixing_events(), sc.dc_plant(), sc.plant_events()",
    "eve": "None",
}


@pytest.mark.parametrize("command, scenario", [
    ("consensus", "consensus3"), ("ac", "ac15"), ("dc", "dc9"), ("eve", "eve_pi6")])
def test_no_module_is_imported_inside_a_run(tmp_path, command, scenario):
    path = str(SCENARIOS / f"{scenario}.json")
    out = run_python(
        "import json, sys, types\n"
        "from qsdcsim import cli\n"
        f"sc = cli.parse_scenario({path!r})\n"
        f"{SETUP[command]}\n"
        f"before = {LOADED}\n"
        f"code = cli.main([{command!r}, '--scenario', {path!r}, '--out', {str(tmp_path)!r}])\n"
        f"print(json.dumps([code, before, {LOADED}]))\n"
    )
    code, before, after = json.loads(out.splitlines()[-1])
    assert code == 0
    assert after == before


def test_layer_tracer_wraps_modules_that_no_command_has_run_yet(tmp_path):
    # perfbench/tracer.py lists the package's modules once `qsdcsim.cli` is
    # imported and wraps the traced functions in them, so the lazy modules
    # must be listed too
    tracer = str(ROOT / "perfbench")
    out = run_python(
        "import json, sys\n"
        f"sys.path.insert(0, {tracer!r})\n"
        "import qsdcsim.cli\n"
        "from tracer import Tracer\n"
        "t = Tracer()\n"
        "t.install()\n"
        f"qsdcsim.cli.main(['consensus', '--scenario', {str(SCENARIOS / 'consensus3.json')!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "t.uninstall()\n"
        "calls = {k: v['calls'] for k, v in t.layers().items()}\n"
        "print(json.dumps([t.absent, calls]))\n"
    )
    absent, calls = json.loads(out.splitlines()[-1])
    assert absent == []
    for name in ("consensus.run_consensus", "consensus.qsdc_step", "consensus._rk4",
                 "cli.summarize", "cli.write_csv"):
        assert calls[name] > 0, name

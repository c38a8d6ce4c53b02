"""Every layer the benchmark traces must still exist under its traced name.

`perfbench/tracer.py` finds each function by the name its caller looks up
and reports a missing one as absent, which the benchmark would read as a
layer with 0 calls.  This test fails instead when a rename or a removal
drops a traced name.
"""

import importlib.util
from pathlib import Path

import qsdcsim.cli  # noqa: F401  (loads every layer module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_present():
    t = load_tracer().Tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        t.uninstall()

"""qsdcsim: quantum-secure distributed control simulator for microgrids.

Simulates a network of qubits under a Hamiltonian-free Lindblad master
equation with swap and rotation-Z jump operators, extracts phase-consensus
signals via shot-based measurement, closes the loop around AC-frequency and
DC-voltage plant models, and quantifies what an interceptor can learn from
the exchanged qubits.

`import qsdcsim` runs no submodule and re-exports no name: names are
imported from their submodule (`from qsdcsim.consensus import
run_consensus`).  It registers every submodule but `cli` as a lazy module
(`importlib.util.LazyLoader`): `qsdcsim.microgrid` and `from . import
microgrid` give the module object at once, and its code runs on the first
attribute read or `import qsdcsim.microgrid`.  So a command runs only the
modules it uses, while every module is in `sys.modules` from the start, where
a tool that wraps the package's functions (`perfbench/tracer.py`) finds it.
`cli` is imported as usual, so that `python -m qsdcsim.cli` runs it once.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


consensus, engine, measurement, microgrid, netgraph, scenario = map(
    _lazy, ("consensus", "engine", "measurement", "microgrid", "netgraph", "scenario"))

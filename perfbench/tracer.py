"""Outside-in layer trace of qsdcsim.

`Tracer.install` wraps module-level functions and methods of the package at
the names their callers look up (a function imported with `from .x import f`
is wrapped in every module that holds it), records one span per call in
memory, and `Tracer.uninstall` puts the originals back.  Nothing here is
imported by the untraced run, which therefore runs unmodified code.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans and minus the speed probes (`exclude`)
that ran while the span was innermost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "qsdcsim"

# metric prefix -> attribute paths inside the package that it wraps.  The
# prefix is "<module>.<function>" or "<module>.<Class>.<method>"; the modules
# are the package's layers.
TRACED = {
    "scenario.parse_scenario": ("scenario.parse_scenario",),
    "netgraph.CommGraph.subgraph": ("netgraph.CommGraph.subgraph",),
    "netgraph.adjacency_matrix": ("netgraph.adjacency_matrix",),
    "consensus.run_consensus": ("consensus.run_consensus",),
    "consensus.qsdc_step": ("consensus.qsdc_step",),
    "consensus.ThetaConfig.draw": ("consensus.ThetaConfig.draw",),
    "consensus._rk4": ("consensus._rk4",),
    "consensus._measure_node": ("consensus._measure_node",),
    "measurement.stream_rng": ("measurement.stream_rng",),
    "measurement.sample_basis": ("measurement.sample_basis",),
    "measurement.constant_phase_stream": ("measurement.constant_phase_stream",),
    "measurement.eve_intercept": ("measurement.eve_intercept",),
    "engine.product_state": ("engine.product_state",),
    "engine.build_jump_set": ("engine.build_jump_set",),
    "engine.evolve": ("engine.evolve",),
    "engine.DensityMatrix.check": ("engine.DensityMatrix.check",),
    "engine.depolarize_local": ("engine.depolarize_local",),
    "engine.local_bloch": ("engine.local_bloch",),
    "microgrid.run_plant": ("microgrid.run_plant",),
    "microgrid.ac_step": ("microgrid.ac_step",),
    "microgrid.ac_power_flow": ("microgrid.ac_power_flow",),
    "microgrid._solve_passive_buses": ("microgrid._solve_passive_buses",),
    "cli.summarize": ("cli.summarize",),
    "cli.write_csv": ("consensus.Trajectory.write_csv", "microgrid.TimeSeries.write_csv"),
}

ROOT_SPANS = ("setup", "run")


class Tracer:
    """In-memory span recorder: spans are (name, start, end, parent index)."""

    def __init__(self):
        self.names: list[str] = list(ROOT_SPANS) + list(TRACED)
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self._excluded: dict[int, float] = {}
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one root span (setup or run) around the block."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self.names.index(name), start, end, parent)

    def exclude(self, seconds: float) -> None:
        """Take `seconds` spent outside the program out of the innermost span."""
        if self._stack:
            top = self._stack[-1]
            self._excluded[top] = self._excluded.get(top, 0.0) + seconds

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED target that exists; record the missing ones."""
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for metric, targets in TRACED.items():
            name_id = self.names.index(metric)
            found = False
            for target in targets:
                found |= self._install_one(name_id, target, modules)
            if not found:
                self.absent.append(metric)

    def _install_one(self, name_id: int, target: str, modules) -> bool:
        module_name, *owner, attr = target.split(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return False
        if owner:
            cls = getattr(module, owner[0], None)
            original = getattr(cls, "__dict__", {}).get(attr)
            if not callable(original):
                return False
            setattr(cls, attr, self._wrap(name_id, original))
            self._restore.append((cls, attr, original))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(name_id, original)
        # Wrap the name in every module that imported the same object, so
        # that callers using `from .module import attr` see the wrapper.
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def layers(self) -> dict:
        """{name: {"calls": int, "self_s": float}} for roots and TRACED names."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for k, (name_id, start, end, _parent) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[k] - self._excluded.get(k, 0.0)
        return out

    def write(self, path) -> None:
        """Spans as CSV: name, start and end in seconds from the first span,
        and the row index of the parent span (-1 for a root)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]},{start - t0:.9f},{end - t0:.9f},{parent}\n")

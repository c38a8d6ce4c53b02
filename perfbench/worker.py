"""One benchmark operation in a fresh interpreter.

    python3 worker.py SRC SCENARIO OUTDIR RESULT [--setup-only] [--trace]

Imports qsdcsim from SRC, parses and validates SCENARIO and builds the run
objects (set-up), then runs the scenario the way the command line does and
writes its outputs to OUTDIR (run).  After the timed region it checks the
outputs and writes a JSON result to RESULT.  With --setup-only it stops after
set-up and reports the versions of the software it ran.  With --trace the
package's layers are wrapped by tracer.Tracer; without it nothing is wrapped.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate

T_START = time.perf_counter()


class Run:
    """Scenario objects built in set-up; `run` produces the output files."""

    def __init__(self, qsdcsim, scenario_path: str):
        from qsdcsim import scenario

        self.q = qsdcsim
        self.sc = scenario.parse_scenario(scenario_path)
        sc = self.sc
        if sc.kind in ("consensus", "ac"):
            self.config = sc.protocol()
            self.graph = sc.graph()
            self.mixing = sc.mixing_events()
        if sc.kind == "ac":
            self.ders, self.network = sc.ac_plant()
            self.events = sc.plant_events()

    def run(self, outdir: str) -> tuple[float, float, int]:
        """Run and write outputs; returns the start and end (perf_counter)
        of the call to the simulator's run function, and the steps simulated."""
        return getattr(self, "_run_" + self.sc.kind)(outdir)

    def _run_ac(self, outdir):
        microgrid, cli = self.q.microgrid, self.q.cli
        sc, network = self.sc, self.network
        t0 = time.perf_counter()
        ts = microgrid.run_plant("ac", self.ders, network, self.graph, self.config,
                                 horizon=sc.horizon, events=self.events, mixing=self.mixing)
        t1 = time.perf_counter()
        ts.meta.update(omega_nominal=network.omega_nominal, v_nominal=None,
                       k=network.k, c=None)
        cli._emit(_emit_args(outdir), f"{sc.name}_timeseries", ts, cli.summarize(ts))
        return t0, t1, len(ts.times)

    def _run_consensus(self, outdir):
        consensus, cli = self.q.consensus, self.q.cli
        sc = self.sc
        sec = sc.raw["consensus"]
        t0 = time.perf_counter()
        traj = consensus.run_consensus(
            init_phis=sec["initial_phi"], pinner_signal=sec["pinner"], graph=self.graph,
            config=self.config, horizon=sc.horizon, events=self.mixing)
        t1 = time.perf_counter()
        cli._emit(_emit_args(outdir), f"{sc.name}_trajectory", traj, cli.summarize(traj))
        return t0, t1, len(traj.times) - 1

    def _run_eve(self, outdir):
        measurement, cli = self.q.measurement, self.q.cli
        sc = self.sc
        sec = sc.raw["eve"]
        seed = sc.raw["protocol"]["seed"]
        theta = sec["theta"]
        # Same stream as `qsdcsim eve` draws for a uniform theta.
        thetas = measurement.stream_rng(seed, cli._EVE_THETA_TAG).uniform(
            theta["lo"], theta["hi"], sec["steps"])
        stream = measurement.constant_phase_stream(sec["phi"], thetas, r=sec["r"])
        t0 = time.perf_counter()
        report = measurement.eve_intercept(stream, bases_policy=sec["bases_policy"],
                                           shots_per_step=sec["shots_per_step"], seed=seed)
        t1 = time.perf_counter()
        payload = report.to_json_dict()
        payload["phi_true"] = sec["phi"]
        payload["seed"] = seed
        cli._write_json(os.path.join(outdir, f"{sc.name}_eve.json"), payload)
        return t0, t1, len(stream)

    def check(self, outdir: str) -> None:
        """Raise checks.CheckFailed unless the output files are correct."""
        import checks

        sc = self.sc
        doc = sc.raw
        base = os.path.join(outdir, sc.name)
        if sc.kind == "ac":
            checks.check_plant(doc, f"{base}_timeseries.csv",
                               f"{base}_timeseries_summary.json")
        elif sc.kind == "eve":
            checks.check_eve(doc, f"{base}_eve.json")
        elif self.config.backend == "full":
            reference = self.q.consensus.run_consensus(
                doc["consensus"]["initial_phi"], doc["consensus"]["pinner"], self.graph,
                sc.protocol(backend="bloch"), sc.horizon, self.mixing)
            checks.check_dense(doc, f"{base}_trajectory.csv", reference.phis)
        else:
            checks.check_consensus_sampled(doc, f"{base}_trajectory.csv")


def _emit_args(outdir: str) -> argparse.Namespace:
    """The command-line options under which `cli._emit` writes CSV and JSON to outdir."""
    return argparse.Namespace(out=outdir, format="both")


def _versions(qsdcsim) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "qsdcsim": getattr(qsdcsim, "__version__", "?"),
    }


def main(argv) -> int:
    src, scenario_path, outdir, result_path, *flags = argv
    os.environ.pop("QSDC_OUT_DIR", None)  # it would redirect cli._emit's output
    sys.path.insert(0, src)
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer()

    import qsdcsim
    import qsdcsim.cli  # noqa: F401  (the command line's summary and output code)

    if not os.path.abspath(qsdcsim.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qsdcsim imported from {qsdcsim.__file__}, not from {src}")
    if tracer is not None:
        tracer.install()
        with tracer.span("setup"):
            job = Run(qsdcsim, scenario_path)
    else:
        job = Run(qsdcsim, scenario_path)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s,
              "setup_scale": calibrate.REFERENCE_KERNEL_S / calibrate.kernel()}
    if "--setup-only" in flags:
        result["versions"] = _versions(qsdcsim)
        Path(result_path).write_text(json.dumps(result))
        return 0

    os.makedirs(outdir, exist_ok=True)
    with calibrate.Probe(tracer.exclude if tracer is not None else None) as probe:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("run"):
                c0, c1, steps = job.run(outdir)
        else:
            c0, c1, steps = job.run(outdir)
        t1 = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    result.update(
        run_s=(t1 - t0) - probe.busy(t0, t1),
        core_s=(c1 - c0) - probe.busy(c0, c1),
        steps=steps,
        peak_rss_mib=peak_kib / 1024.0,
        probes=len(probe.samples),
        run_scale=probe.scale() or calibrate.REFERENCE_KERNEL_S / calibrate.kernel(),
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layers()
        result["absent"] = tracer.absent
        tracer.write(os.path.join(outdir, "spans.csv"))

    import checks

    try:
        job.check(outdir)
        result["ok"] = True
    except checks.CheckFailed as exc:
        result.update(ok=False, reason=str(exc))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

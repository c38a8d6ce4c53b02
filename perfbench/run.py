"""qsdcsim benchmark: times scenario runs from outside, one fresh interpreter
per operation, and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

--trace 0 reports the end-to-end metrics of untraced operations; --trace 1
alternates untraced and traced operations and reports the per-layer metrics.
--all runs every workload both ways, one at a time, and prints a table.  The
last line of a single-workload run is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED
from workloads import WORKLOADS, make_scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must exit within 180 s; no child outlives this

END_TO_END = {"setup_s": "s", "run_s": "s", "steps_per_s": "steps/s", "peak_rss_mib": "MiB"}
PER_LAYER = {}
for _name in TRACED:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({"trace.run_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s"})


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Spawns worker processes for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.dir = WORK / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.dir / "scenario.json"
        self.scenario.write_text(json.dumps(make_scenario(workload, seed), indent=2))
        self.deadline = deadline
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})

    def spawn(self, *flags: str) -> dict | None:
        """Run one worker; its result dict, or None if it failed."""
        result = self.dir / "result.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(self.scenario),
               str(self.dir / "out"), str(result), *flags]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker {' '.join(flags)} killed after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-5:]
            print(f"worker failed (exit {proc.returncode}): " + " | ".join(tail),
                  file=sys.stderr)
            return None
        return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Operations until `seconds` have passed (at least one of each kind)."""
    start = time.monotonic()
    runner = Runner(workload, seed, start + RUN_LIMIT_S)
    # Untimed warm-up: compiles bytecode the way a first use would, once.
    warm = runner.spawn("--setup-only")
    if warm is None:
        raise BenchError("the set-up of qsdcsim failed")
    plain, traced = [], []
    attempted = failed = 0
    modes = ((), ("--trace",)) if trace else ((),)
    end = time.monotonic() + seconds
    while True:
        for flags in modes:
            attempted += 1
            res = runner.spawn(*flags)
            if res is None:
                failed += 1
                continue
            if not res["ok"]:
                failed += 1
                print(f"check failed: {res['reason']}", file=sys.stderr)
            (traced if flags else plain).append(res)
        if time.monotonic() >= end or time.monotonic() >= runner.deadline:
            break
    if not plain or (trace and not traced):
        raise BenchError(f"no operation of {workload} completed")
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "attempted": attempted, "failed": failed, "versions": warm["versions"],
            "plain": plain, "traced": traced}


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metric_samples(res: dict) -> dict[str, list[float]]:
    """Samples of every reported metric of one run_workload result; times are
    scaled to the reference host speed (see calibrate.py)."""
    plain, traced = res["plain"], res["traced"]
    if not res["trace"]:
        return {
            "setup_s": [r["setup_s"] * r["setup_scale"] for r in plain],
            "run_s": [r["run_s"] * r["run_scale"] for r in plain],
            "steps_per_s": [r["steps"] / (r["core_s"] * r["run_scale"]) for r in plain],
            "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        }
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = [r["layers"][name]["calls"] for r in traced]
        out[f"{name}.self_s"] = [r["layers"][name]["self_s"] * r["run_scale"] for r in traced]
    out["trace.run_s"] = [r["run_s"] * r["run_scale"] for r in traced]
    out["trace.unattributed_s"] = [r["layers"]["run"]["self_s"] * r["run_scale"]
                                   for r in traced]
    plain_run = statistics.median(r["run_s"] * r["run_scale"] for r in plain)
    out["trace.overhead_s"] = [r["run_s"] * r["run_scale"] - plain_run for r in traced]
    return out


def environment() -> dict:
    """Machine, thread settings and source version the numbers belong to."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsdcsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {var: "1" for var in THREAD_VARS},
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def report(res: dict, env: dict) -> dict:
    """Print one workload's metrics; returns the contract's result object."""
    units = PER_LAYER if res["trace"] else END_TO_END
    samples = metric_samples(res)
    stats = {name: _summary(samples[name]) for name in units}
    error_rate = res["failed"] / res["attempted"]
    print(f"== {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"error_rate {error_rate:.3f} fraction")
    if res["trace"]:
        run_s = stats["trace.run_s"]["median"]
        rows = sorted(TRACED, key=lambda n: -stats[f"{n}.self_s"]["median"])
        print(f"  {'layer.function':36s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
        for name in rows + ["trace.unattributed_s", "trace.overhead_s", "trace.run_s"]:
            if name in TRACED:
                calls = stats[f"{name}.calls"]["median"]
                self_s = stats[f"{name}.self_s"]["median"]
                print(f"  {name:36s} {calls:9.0f} {self_s:10.4f} {self_s / run_s:7.1%}")
            else:
                val = stats[name]["median"]
                print(f"  {name:36s} {'':9s} {val:10.4f} {val / run_s:7.1%}")
        absent = sorted({a for r in res["traced"] for a in r["absent"]})
        if absent:
            print(f"  absent (renamed or removed): {', '.join(absent)}")
    else:
        for name, unit in units.items():
            s = stats[name]
            print(f"  {name:14s} median {s['median']:.6g} {unit}  "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        raw = statistics.median(r["run_s"] for r in res["plain"])
        slow = statistics.median(1.0 / r["run_scale"] for r in res["plain"])
        print(f"  unscaled run_s median {raw:.6g} s; host slower than reference by "
              f"x{slow:.3f} (median over operations)")
    print("  env " + json.dumps(dict(env, **res["versions"]), sort_keys=True))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsdcsim" / "__init__.py").is_file():
        print(f"error: no qsdcsim source under {SRC}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    env = environment()
    try:
        if args.workload:
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(report(res, env)))
            return 0
        table = []
        for workload in WORKLOADS:
            for trace in (False, True):
                res = run_workload(workload, args.seed, args.seconds, trace)
                table.append((workload, trace, report(res, env)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"\n{'workload':20s} {'trace':>5s} {'error_rate':>10s}  metrics")
    for workload, trace, out in table:
        shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in out["metrics"].items()
                          if not trace or k.startswith("trace."))
        print(f"{workload:20s} {int(trace):5d} {out['failed'] / out['attempted']:10.3f}  {shown}")
    return 0 if all(out["correct"] for _, _, out in table) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: scenario execution, batch determinism, and
result serialization.

Every subcommand takes --scenario FILE, --out DIR and --format csv|json|both.
consensus, ac and dc run a scenario of their own kind and also take --backend,
--shots or --exact (not both), --seed and --dt; eve runs an eve scenario and
also takes --shots or --exact, and --seed; rate bounds the convergence rate
over the graph of any scenario that has one and also takes --epsilon.
consensus, ac and dc are one command, `cmd_run`: it writes the run's
`consensus.Trajectory` as CSV and its `summarize` summary as JSON.
Identical scenario + seed produce byte-identical CSV/JSON outputs.

Each command runs only the modules it uses; `consensus`, `engine` and
`microgrid` are lazy modules (see the package docstring) until then.  Every
command runs `cli`, `scenario`, `netgraph` and `measurement`, and eve nothing
else.  consensus and rate add `consensus` and the `engine` it imports; ac and
dc add `microgrid` on top of those.

Exit codes: 0 success; 1 validation error, the input is at fault
(ScenarioError, GraphValidationError, RateRegionError); 2 runtime error
(EngineError, MicrogridError, MeasurementError or any other ValueError) or
argparse usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, consensus, engine, microgrid
from .measurement import (_STREAM_TAG, MeasurementError, constant_phase_stream, eve_intercept,
                          stream_rng)
from .netgraph import GraphValidationError
from .scenario import BACKENDS, Scenario, ScenarioError, parse_scenario

_EVE_THETA_TAG = _STREAM_TAG["eve_theta"]


def settling_time(times: np.ndarray, err: np.ndarray, tol: float):
    """First time the error drops below tol and stays there; None if never."""
    below = err < tol
    if not below.any():
        return None
    # last index where the error is still at/above tol
    above = np.flatnonzero(~below)
    if len(above) == 0:
        return float(times[0])
    idx = above[-1] + 1
    if idx >= len(times):
        return None
    return float(times[idx])


def fitted_decay_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares exponential rate of a decaying positive series.

    Fits ln(v) over the span from the start until v falls below 1e-10 of its
    initial value (the fit window excludes the floating-point noise floor).
    """
    v0 = values[0]
    if v0 <= 0.0:
        return 0.0
    mask = values > v0 * 1e-10
    # use the contiguous head of the series only
    end = int(np.argmin(mask)) if not mask.all() else len(values)
    if end < 3:
        return 0.0
    t = times[:end]
    logs = np.log(values[:end])
    slope = np.polyfit(t, logs, 1)[0]
    return float(-slope)


def summarize(record: consensus.Trajectory) -> dict:
    """Summary statistics of a run record: kind, backend, mode, seed, dt and
    the warning count, then the consensus, AC or DC block over the final
    10% of the run."""
    meta, times, data = record.meta, record.times, record.data
    if len(times) < 10:
        raise ValueError("series too short for a steady-state window (need >= 10 samples)")
    win = slice(int(math.floor(len(times) * 0.9)), len(times))
    out = {key: meta[key] for key in ("kind", "backend", "mode", "seed", "dt")}
    out["warnings"] = len(record.warnings)
    if meta["kind"] == "consensus":
        zeta = np.max(np.abs(data["phi"] - data["pinner"]), axis=1)
        out.update({
            "settling_time": settling_time(times, zeta, 1e-2),
            "steady_phi": [float(v) for v in data["phi"][win].mean(axis=0)],
            "steady_max_abs_zeta": float(zeta[win].max()),
            "fitted_decay_rate": fitted_decay_rate(times, record.lyapunov),
        })
        return out
    online_rows = data["online"] > 0.5
    if meta["kind"] == "ac":
        omega = data["omega"]
        err = np.max(np.abs(omega - meta["omega_nominal"]), axis=1, where=online_rows,
                     initial=0.0)
        out["settling_time_s"] = settling_time(times, err, 1e-3)
        out["steady_freq_hz"] = float(np.mean(omega[win], axis=1, where=online_rows[win]).mean())
        sharing = data["pinner"] / meta["k"]  # recovers n_i * P_i
    else:
        vbus = data["vbus"]
        out["settling_time_s"] = settling_time(times, np.abs(vbus - meta["v_nominal"]), 1e-2)
        out["steady_vbus_v"] = float(vbus[win].mean())
        sharing = data["pinner"] / meta["c"]  # recovers m_i * I_i
    # the worst relative spread (%) of the online DERs' shares over the
    # window; a row whose mean share is not above 1e-9 counts as 0
    shares = np.where(online_rows[win], sharing[win], np.nan)
    spread = np.nanmax(shares, axis=1) - np.nanmin(shares, axis=1)
    mean_share = np.nanmean(shares, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(mean_share > 1e-9, spread / mean_share, 0.0)
    out["sharing_spread_pct"] = float(100.0 * np.max(rel))
    out["events_applied"] = record.events_applied
    return out


# -- output plumbing -------------------------------------------------------


def _out_dir(args) -> Path:
    env = os.environ.get("QSDC_OUT_DIR")
    out = Path(env) if env else Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _emit(args, name: str, result, summary: dict) -> list[str]:
    out = _out_dir(args)
    written = []
    if args.format in ("csv", "both"):
        csv_path = out / f"{name}.csv"
        with open(csv_path, "w") as fh:
            result.write_csv(fh)
        written.append(str(csv_path))
    if args.format in ("json", "both"):
        json_path = out / f"{name}_summary.json"
        _write_json(json_path, summary)
        written.append(str(json_path))
    return written


# -- subcommands -----------------------------------------------------------


def _protocol_overrides(args) -> dict:
    return {
        "backend": args.backend,
        "shots": args.shots,
        "exact": True if args.exact else None,
        "seed": args.seed,
        "dt": args.dt,
    }


def cmd_run(args, sc: Scenario) -> int:
    """Run a consensus, ac or dc scenario; write its record and summary."""
    config = sc.protocol(**_protocol_overrides(args))
    if sc.kind == "consensus":
        sec = sc.raw["consensus"]
        record = consensus.run_consensus(sec["initial_phi"], sec["pinner"], sc.graph(), config,
                                         sc.horizon, sc.mixing_events())
    else:
        ders, network = sc.ac_plant() if sc.kind == "ac" else sc.dc_plant()
        record = microgrid.run_plant(sc.kind, ders, network, sc.graph(), config, sc.horizon,
                                     sc.plant_events(), sc.mixing_events())
    s = summarize(record)
    stem = "trajectory" if sc.kind == "consensus" else "timeseries"
    files = ", ".join(_emit(args, f"{sc.name}_{stem}", record, s)) or "no files"
    if sc.kind == "consensus":
        line = (f"backend={config.backend} mode={config.mode} settling={s['settling_time']} "
                f"steady_max_zeta={s['steady_max_abs_zeta']:.3e} "
                f"rate={s['fitted_decay_rate']:.4f}")
    else:
        headline = (f"steady_freq={s['steady_freq_hz']:.4f} Hz" if sc.kind == "ac"
                    else f"steady_vbus={s['steady_vbus_v']:.4f} V")
        line = (f"mode={config.mode} {headline} spread={s['sharing_spread_pct']:.3f}% "
                f"settling={s['settling_time_s']}")
    print(f"{sc.kind} {sc.name}: {line} -> {files}")
    return 0


def _angle(v) -> str:
    return "null" if v is None else f"{v:.4f}"


def cmd_eve(args, sc: Scenario) -> int:
    sec = sc.raw["eve"]
    seed = sc.protocol_options(seed=args.seed)["seed"]
    shots = args.shots if args.shots is not None else sec["shots_per_step"]
    if shots < 1:
        raise ScenarioError(f"--shots: {shots} shots per step, need at least 1")
    theta = sec["theta"]
    steps = sec["steps"]
    if theta["kind"] == "fixed":
        # a scalar or, by the physics checks, a one-value list
        thetas = np.full(steps, theta.get("values", math.pi / 2), dtype=float)
    else:
        thetas = stream_rng(seed, _EVE_THETA_TAG).uniform(theta["lo"], theta["hi"], steps)
    stream = constant_phase_stream(sec["phi"], thetas, r=sec["r"])
    report = eve_intercept(
        stream,
        bases_policy=sec["bases_policy"],
        shots_per_step=shots,
        seed=seed,
        exact=bool(args.exact),
    )
    out = _out_dir(args)
    payload = report.to_json_dict()
    payload["phi_true"] = sec["phi"]
    payload["seed"] = seed
    files = []
    if args.format in ("json", "both"):
        path = out / f"{sc.name}_eve.json"
        _write_json(path, payload)
        files.append(str(path))
    print(
        f"eve {sc.name}: naive_phi={_angle(report.naive_phi)} "
        f"informed_phi={_angle(report.informed_phi)} phi_true={sec['phi']:.4f} "
        f"entropy_bits={{{', '.join(f'{b}: {e:.3f}' for b, e in sorted(report.entropy_bits.items()))}}} "
        f"-> {', '.join(files) or 'no files'}"
    )
    return 0


def cmd_rate(args, sc: Scenario) -> int:
    graph = sc.graph()
    rate_sec = sc.raw.get("rate", {})
    epsilon = args.epsilon if args.epsilon is not None else rate_sec.get("epsilon")
    if epsilon is None:
        raise ScenarioError("rate needs --epsilon or a rate.epsilon field")
    weights = rate_sec.get("weights")
    mu = consensus.convergence_rate(graph, float(epsilon), weights)
    print(f"mu = {mu:.4f} (epsilon = {float(epsilon):.6g}, n = {graph.node_count})")
    if args.format in ("json", "both"):
        out = _out_dir(args)
        path = out / f"{sc.name}_rate.json"
        _write_json(path, {"epsilon": float(epsilon), "mu": mu,
                           "nodes": graph.node_count})
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdcsim",
        description="Quantum-secure distributed control simulator for microgrids",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory "
                       "(env QSDC_OUT_DIR overrides)")
        p.add_argument("--format", choices=["csv", "json", "both"], default="both")
        p.set_defaults(func=func)
        return p

    for name in ("consensus", "ac", "dc", "eve"):
        p = add(name, cmd_eve if name == "eve" else cmd_run, f"run a {name} scenario")
        if name != "eve":
            p.add_argument("--backend", choices=BACKENDS)
            p.add_argument("--dt", type=float)
        shots = p.add_mutually_exclusive_group()
        shots.add_argument("--shots", type=int)
        shots.add_argument("--exact", action="store_true",
                           help="exact-expectation mode (infinite-shot limit)")
        p.add_argument("--seed", type=int)

    p = add("rate", cmd_rate, "Lyapunov convergence-rate bound of a scenario graph")
    p.add_argument("--epsilon", type=float, help="max initial phase deviation (rad)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # an except clause reads its classes only once the command has raised, so
    # a run that succeeds runs none of the modules that define them
    try:
        sc = parse_scenario(args.scenario)
        if args.command != "rate" and sc.kind != args.command:
            raise ScenarioError(
                f"{args.scenario} is a {sc.kind!r} scenario, expected {args.command}")
        return args.func(args, sc)
    except (ScenarioError, GraphValidationError, consensus.RateRegionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, engine.EngineError, microgrid.MicrogridError, MeasurementError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: scenario execution, batch determinism, and
result serialization.

Every subcommand takes --scenario FILE, --out DIR and --format csv|json|both.
consensus, ac and dc run a scenario of their own kind and also take --backend,
--shots or --exact (not both), --seed and --dt; eve runs an eve scenario and
also takes --shots or --exact, and --seed; rate bounds the convergence rate
over the graph of any scenario that has one and also takes --epsilon.
Identical scenario + seed produce byte-identical CSV/JSON outputs.

Exit codes: 0 success; 1 validation error, the input is at fault
(ScenarioError, GraphValidationError, RateRegionError); 2 runtime error
(EngineError, MicrogridError or any other ValueError) or argparse usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .consensus import (
    BACKENDS,
    RateRegionError,
    Trajectory,
    convergence_rate,
    run_consensus,
)
from .engine import EngineError
from .measurement import _STREAM_TAG, constant_phase_stream, eve_intercept, stream_rng
from .microgrid import MicrogridError, TimeSeries, run_plant
from .netgraph import GraphValidationError
from .scenario import Scenario, ScenarioError, parse_scenario

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


def summarize(result) -> dict:
    """Summary statistics of a Trajectory or a plant TimeSeries."""
    if isinstance(result, Trajectory):
        return _summarize_trajectory(result)
    if isinstance(result, TimeSeries):
        return _summarize_timeseries(result)
    raise TypeError(f"cannot summarize {type(result).__name__}")


def _final_window(length: int) -> slice:
    if length < 10:
        raise ValueError("series too short for a steady-state window (need >= 10 samples)")
    return slice(int(math.floor(length * 0.9)), length)


def _summarize_trajectory(traj: Trajectory) -> dict:
    zeta = np.max(np.abs(traj.phis - traj.pinners), axis=1)
    win = _final_window(len(traj.times))
    return {
        "kind": "consensus",
        "backend": traj.backend,
        "mode": traj.mode,
        "seed": traj.seed,
        "dt": traj.dt,
        "settling_time": settling_time(traj.times, zeta, 1e-2),
        "steady_phi": [float(v) for v in traj.phis[win].mean(axis=0)],
        "steady_max_abs_zeta": float(zeta[win].max()),
        "fitted_decay_rate": fitted_decay_rate(traj.times, traj.lyapunov),
        "warnings": len(traj.warnings),
    }


def _sharing_spread_pct(sharing: np.ndarray, online: np.ndarray) -> float:
    """Worst relative spread (%) of the online DERs' shares over the window;
    a row whose mean share is not above 1e-9 counts as 0."""
    shares = np.where(online, sharing, np.nan)
    spread = np.nanmax(shares, axis=1) - np.nanmin(shares, axis=1)
    mean_share = np.nanmean(shares, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(mean_share > 1e-9, spread / mean_share, 0.0)
    return float(100.0 * np.max(rel))


def _summarize_timeseries(ts: TimeSeries) -> dict:
    win = _final_window(len(ts.times))
    online_rows = ts.data["online"] > 0.5
    online = online_rows[win]
    out = {
        "kind": ts.kind,
        "backend": ts.meta.get("backend"),
        "mode": ts.meta.get("mode"),
        "seed": ts.meta.get("seed"),
        "dt": ts.meta.get("dt"),
        "events_applied": ts.events_applied,
        "warnings": len(ts.warnings),
    }
    if ts.kind == "ac":
        omega = ts.data["omega"]
        nominal = ts.meta["omega_nominal"]
        err = np.max(np.abs(omega - nominal), axis=1, where=online_rows, initial=0.0)
        sharing = ts.data["pinner"] / ts.meta["k"]  # recovers n_i * P_i
        out.update({
            "settling_time_s": settling_time(ts.times, err, 1e-3),
            "steady_freq_hz": float(np.mean(omega[win], axis=1, where=online).mean()),
            "sharing_spread_pct": _sharing_spread_pct(sharing[win], online),
        })
    else:
        vbus = ts.data["vbus"]
        nominal = ts.meta["v_nominal"]
        err = np.abs(vbus - nominal)
        sharing = ts.data["pinner"] / ts.meta["c"]  # recovers m_i * I_i
        out.update({
            "settling_time_s": settling_time(ts.times, err, 1e-2),
            "steady_vbus_v": float(vbus[win].mean()),
            "sharing_spread_pct": _sharing_spread_pct(sharing[win], online),
        })
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


def cmd_consensus(args, sc: Scenario) -> int:
    config = sc.protocol(**_protocol_overrides(args))
    sec = sc.raw["consensus"]
    traj = run_consensus(
        init_phis=sec["initial_phi"],
        pinner_signal=sec["pinner"],
        graph=sc.graph(),
        config=config,
        horizon=sc.horizon,
        events=sc.mixing_events(),
    )
    summary = summarize(traj)
    files = _emit(args, f"{sc.name}_trajectory", traj, summary)
    print(
        f"consensus {sc.name}: backend={config.backend} mode={config.mode} "
        f"settling={summary['settling_time']} "
        f"steady_max_zeta={summary['steady_max_abs_zeta']:.3e} "
        f"rate={summary['fitted_decay_rate']:.4f} -> {', '.join(files) or 'no files'}"
    )
    return 0


def cmd_plant(args, sc: Scenario) -> int:
    config = sc.protocol(**_protocol_overrides(args))
    ders, network = sc.ac_plant() if sc.kind == "ac" else sc.dc_plant()
    ts = run_plant(
        sc.kind, ders, network, sc.graph(), config,
        horizon=sc.horizon,
        events=sc.plant_events(),
        mixing=sc.mixing_events(),
    )
    summary = summarize(ts)
    files = _emit(args, f"{sc.name}_timeseries", ts, summary)
    headline = (f"steady_freq={summary['steady_freq_hz']:.4f} Hz" if sc.kind == "ac"
                else f"steady_vbus={summary['steady_vbus_v']:.4f} V")
    print(
        f"{sc.kind} {sc.name}: mode={config.mode} {headline} "
        f"spread={summary['sharing_spread_pct']:.3f}% "
        f"settling={summary['settling_time_s']} -> {', '.join(files) or 'no files'}"
    )
    return 0


def _angle(v) -> str:
    return "null" if v is None else f"{v:.4f}"


def cmd_eve(args, sc: Scenario) -> int:
    sec = sc.raw["eve"]
    seed = sc.protocol(seed=args.seed).seed
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
    mu = convergence_rate(graph, float(epsilon), weights)
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

    for name, func in (("consensus", cmd_consensus), ("ac", cmd_plant), ("dc", cmd_plant),
                       ("eve", cmd_eve)):
        p = add(name, func, f"run a {name} scenario")
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
    try:
        sc = parse_scenario(args.scenario)
        if args.command != "rate" and sc.kind != args.command:
            raise ScenarioError(
                f"{args.scenario} is a {sc.kind!r} scenario, expected {args.command}")
        return args.func(args, sc)
    except (ScenarioError, GraphValidationError, RateRegionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, EngineError, MicrogridError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

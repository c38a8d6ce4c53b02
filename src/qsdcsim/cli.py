"""Command-line front end: scenario execution, batch determinism, and
result serialization.

Every subcommand takes --scenario FILE, --out DIR and --format csv|json|both.
consensus, ac and dc run a scenario of their own kind and also take --backend,
--shots or --exact (not both), --seed and --dt; eve runs an eve scenario and
also takes --shots or --exact, and --seed; rate bounds the convergence rate
over the graph of any scenario that has one and also takes --epsilon.
consensus, ac and dc are one command, `cmd_run`: it writes the run's
`consensus.Trajectory` as CSV and its `summarize` summary as JSON.
Identical scenario + seed produce byte-identical CSV/JSON outputs.  A file
field that a command does not read is a validation error (exit 1), as an
option it does not read is a usage error (exit 2).

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
from .scenario import Scenario, ScenarioError, _check_option, parse_scenario

_EVE_THETA_TAG = _STREAM_TAG["eve_theta"]


def settling_time(times: np.ndarray, err: np.ndarray, tol: float):
    """First time the error drops below tol and stays there; None if never."""
    settled = err < tol  # a nan error counts as unsettled
    # one past the last unsettled row: the first False of the reversed mask
    idx = 0 if settled.all() else len(settled) - int(np.argmin(settled[::-1]))
    return float(times[idx]) if idx < len(times) else None


def fitted_decay_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares exponential rate of a decaying positive series.

    Fits ln(v) over the span from the start until v falls below 1e-10 of its
    initial value (the fit window excludes the floating-point noise floor).
    The slope of a fitted line has a closed form, two dot products of the
    centered series; a LAPACK least-squares call (`np.polyfit`) would add
    about 1 MiB of workspace to the run's peak memory.
    """
    v0 = values[0]
    if v0 <= 0.0:
        return 0.0
    mask = values > v0 * 1e-10
    # use the contiguous head of the series only
    end = int(np.argmin(mask)) if not mask.all() else len(values)
    if end < 3:
        return 0.0
    t = times[:end] - times[:end].mean()
    logs = np.log(values[:end])
    logs -= logs.mean()
    return float(-t.dot(logs) / t.dot(t))


def _max_abs_gap(a: np.ndarray, b, where=True) -> np.ndarray:
    """max |a - b| of each row over the entries `where` marks (0 if none)."""
    gap = a - b
    return np.max(np.abs(gap, out=gap), axis=1, where=where, initial=0.0)


def _relative_spread(shares: np.ndarray, online: np.ndarray) -> np.ndarray:
    """The relative spread of each row's online shares; a row whose mean
    share is not above 1e-9 counts as 0."""
    shares = np.where(online, shares, np.nan)
    spread = np.nanmax(shares, axis=1) - np.nanmin(shares, axis=1)
    mean_share = np.nanmean(shares, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(mean_share > 1e-9, spread / mean_share, 0.0)


def summarize(record: consensus.Trajectory) -> dict:
    """Summary statistics of a run record: kind, backend, mode, seed, dt and
    the warning count, then the consensus, AC or DC block over the final
    10% of the run.  Each reduction over nodes walks the rows one chunk at a
    time (`consensus.per_row`), so no temporary is longer than a (T,) series."""
    meta, times, data = record.meta, record.times, record.data
    if len(times) < 10:
        raise ValueError("series too short for a steady-state window (need >= 10 samples)")
    win = slice(int(math.floor(len(times) * 0.9)), len(times))
    out = {key: meta[key] for key in ("kind", "backend", "mode", "seed", "dt")}
    out["warnings"] = len(record.warnings)
    if meta["kind"] == "consensus":
        zeta = consensus.per_row(_max_abs_gap, data["phi"], data["pinner"])
        out.update({
            "settling_time": settling_time(times, zeta, 1e-2),
            "steady_phi": [float(v) for v in data["phi"][win].mean(axis=0)],
            "steady_max_abs_zeta": float(zeta[win].max()),
            "fitted_decay_rate": fitted_decay_rate(times, record.lyapunov),
        })
        return out
    online_rows = data["online"]
    if meta["kind"] == "ac":
        omega, nominal = data["omega"], meta["omega_nominal"]
        # the (T,) error series is freed before the window's reductions run
        out["settling_time_s"] = settling_time(times, consensus.per_row(
            lambda om, on: _max_abs_gap(om, nominal, on), omega, online_rows), 1e-3)
        row_freq = consensus.per_row(lambda om, on: np.mean(om, axis=1, where=on),
                                     omega[win], online_rows[win])
        out["steady_freq_hz"] = float(row_freq.mean())
        scale = meta["k"]  # pinner / k recovers n_i * P_i
    else:
        vbus = data["vbus"]
        out["settling_time_s"] = settling_time(times, np.abs(vbus - meta["v_nominal"]), 1e-2)
        out["steady_vbus_v"] = float(vbus[win].mean())
        scale = meta["c"]  # pinner / c recovers m_i * I_i
    # the worst relative spread (%) of the online DERs' shares over the window
    rel = consensus.per_row(lambda pin, on: _relative_spread(pin / scale, on),
                            data["pinner"][win], online_rows[win])
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
    # a step that overflows turns into nan, which the step's own Bloch-ball
    # check reports as a runtime error; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        if sc.kind == "consensus":
            sec = sc.raw["consensus"]
            record = consensus.run_consensus(sec["initial_phi"], sec["pinner"], sc.graph(),
                                             config, sc.horizon, sc.mixing_events())
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
    shots = sec["shots_per_step"] if args.shots is None else args.shots
    _check_option("shots", shots, "#/$defs/eve/properties/shots_per_step")
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
    graph = sc.rate_graph()
    epsilon = args.epsilon if args.epsilon is not None else sc.raw.get("rate", {}).get("epsilon")
    if epsilon is None:
        raise ScenarioError("rate needs --epsilon or a rate.epsilon field")
    mu = consensus.convergence_rate(graph, float(epsilon))
    print(f"mu = {mu:.4f} (epsilon = {float(epsilon):.6g}, n = {graph.node_count})")
    if args.format in ("json", "both"):
        out = _out_dir(args)
        path = out / f"{sc.name}_rate.json"
        _write_json(path, {"epsilon": float(epsilon), "mu": mu,
                           "nodes": graph.node_count})
    return 0


# -- parser ----------------------------------------------------------------


def _backend(name: str) -> str:
    # not `choices`: argparse lists them for every command, which would run `consensus`
    if name in consensus.BACKENDS:
        return name
    choices = ", ".join(map(repr, consensus.BACKENDS))
    raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {choices})")


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
            p.add_argument("--backend", type=_backend)
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

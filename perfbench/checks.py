"""Correctness checks of the files a workload writes.

Each check reads the output files, never the program's in-memory objects, and
raises CheckFailed with a reason when an invariant does not hold.  The checks
are invariants with the tolerances the test suite states, not byte equality:
later changes may legitimately alter rounding and sampled draws.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Thresholds for the statistical checks.  The benchmark runs thousands of
# seeded operations, so a check that fails by chance once in a hundred runs
# (the p > 0.01 of the acceptance test) would show as a false failure; these
# are set so that a chance failure is below one in a million operations.
EVE_NAIVE_MIN_BIAS = 0.3      # rad, acceptance criterion 5
EVE_INFORMED_MAX_SE = 5.0     # standard errors of the atan2 estimate
EVE_Z_MIN_PVALUE = 1e-6       # two-sided binomial test of the Z counts at p=0.5
CONSENSUS_MAX_SE = 8.0        # batch-mean standard errors of each node's mean phase
CONSENSUS_BATCHES = 10
DENSE_MAX_PHASE_GAP = 1e-6    # acceptance criterion 2
AC_MAX_FREQ_ERR_HZ = 1e-3     # acceptance criterion 7
AC_MAX_SPREAD = 0.01          # acceptance criterion 7


class CheckFailed(Exception):
    """The outputs of an operation violate the workload's invariant."""


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a qsdcsim CSV by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise CheckFailed(f"{path}: {data.shape[1]} columns for {len(header)} names")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite values")
    return {name: data[:, k] for k, name in enumerate(header)}


def node_columns(cols: dict, prefix: str) -> np.ndarray:
    names = sorted((k for k in cols if k.startswith(prefix + "_")),
                   key=lambda k: int(k.rsplit("_", 1)[1]))
    return np.column_stack([cols[k] for k in names])


def _expect_rows(cols: dict, rows: int, path) -> None:
    got = len(cols["t"])
    if got != rows:
        raise CheckFailed(f"{path}: {got} rows, expected {rows}")


def check_plant(doc: dict, csv_path, summary_path) -> None:
    """AC plug-and-play run: every event applied, frequency restored to
    nominal and power shared within 1% over the final 10% of the run."""
    steps = round(doc["horizon"] / doc["protocol"]["dt"])
    cols = read_csv(csv_path)
    _expect_rows(cols, steps, csv_path)
    with open(summary_path) as fh:
        summary = json.load(fh)

    events = doc["ac"]["events"]
    applied = summary["events_applied"]
    if len(applied) != len(events):
        raise CheckFailed(f"{len(applied)} events applied, expected {len(events)}")
    for ev, line in zip(events, applied):
        if f"{ev['kind']} node={ev['node']}" not in line:
            raise CheckFailed(f"event {ev} reported as {line!r}")
    online = node_columns(cols, "online") > 0.5
    expected = np.ones_like(online)
    for ev in sorted(events, key=lambda e: e["time"]):
        if ev["kind"] in ("plug", "unplug"):
            expected[round(ev["time"] / doc["protocol"]["dt"]):, ev["node"]] = ev["kind"] == "plug"
    if not np.array_equal(online, expected):
        raise CheckFailed("online columns do not follow the plug/unplug events")

    win = slice(int(math.floor(steps * 0.9)), steps)
    omega = node_columns(cols, "omega")[win]
    nominal = doc["ac"].get("omega_nominal", 60.0)
    freq_err = float(np.max(np.abs(omega[online[win]] - nominal)))
    if freq_err > AC_MAX_FREQ_ERR_HZ:
        raise CheckFailed(f"steady frequency error {freq_err:.3e} Hz > {AC_MAX_FREQ_ERR_HZ}")
    # pinner_i = k * n_i * P_i, so the relative spread of the pinners is the
    # relative spread of the shares n_i * P_i.
    shares = np.where(online[win], node_columns(cols, "pinner")[win], np.nan)
    spread = float(np.max((np.nanmax(shares, axis=1) - np.nanmin(shares, axis=1))
                          / np.nanmean(shares, axis=1)))
    if not spread <= AC_MAX_SPREAD:
        raise CheckFailed(f"sharing spread {spread:.3e} > {AC_MAX_SPREAD}")
    if abs(summary["steady_freq_hz"] - nominal) > AC_MAX_FREQ_ERR_HZ:
        raise CheckFailed(f"summary steady_freq_hz {summary['steady_freq_hz']}")
    if not summary["sharing_spread_pct"] <= 100.0 * AC_MAX_SPREAD:
        raise CheckFailed(f"summary sharing_spread_pct {summary['sharing_spread_pct']}")


def _trajectory_phis(doc: dict, csv_path) -> np.ndarray:
    steps = round(doc["horizon"] / doc["protocol"]["dt"])
    cols = read_csv(csv_path)
    _expect_rows(cols, steps + 1, csv_path)
    phis = node_columns(cols, "phi")
    if phis.shape[1] != doc["graph"]["nodes"]:
        raise CheckFailed(f"{csv_path}: {phis.shape[1]} phase columns")
    return phis


def check_consensus_sampled(doc: dict, csv_path) -> None:
    """Shot-sampled consensus: each node's mean phase over the second half of
    the run lies within CONSENSUS_MAX_SE standard errors of the pinner.  The
    standard error comes from batch means, because successive phases are
    correlated through the feedback loop."""
    phis = _trajectory_phis(doc, csv_path)
    pinner = doc["consensus"]["pinner"]
    win = phis[len(phis) // 2:]
    size = len(win) // CONSENSUS_BATCHES
    batch_means = win[:size * CONSENSUS_BATCHES].reshape(
        CONSENSUS_BATCHES, size, -1).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / math.sqrt(CONSENSUS_BATCHES)
    dev = np.abs(win.mean(axis=0) - pinner)
    if not np.all(se > 0.0):
        raise CheckFailed("a node's phase is constant in the steady window")
    worst = int(np.argmax(dev / se))
    if dev[worst] > CONSENSUS_MAX_SE * se[worst]:
        raise CheckFailed(f"node {worst}: steady mean off the pinner by {dev[worst]:.4f} rad "
                          f"= {dev[worst] / se[worst]:.1f} SE > {CONSENSUS_MAX_SE}")


def check_dense(doc: dict, csv_path, reference_phis) -> None:
    """Dense-engine run: phases match the bloch backend on the same inputs."""
    phis = _trajectory_phis(doc, csv_path)
    gap = float(np.max(np.abs(phis - np.asarray(reference_phis))))
    if not gap <= DENSE_MAX_PHASE_GAP:
        raise CheckFailed(f"full vs bloch phase gap {gap:.3e} > {DENSE_MAX_PHASE_GAP}")


def _pooled(report: dict, basis: str) -> tuple[float, int]:
    counts = report["bases"][basis]
    shots = counts["zeros"] + counts["ones"]
    return (counts["zeros"] - counts["ones"]) / shots, shots


def check_eve(doc: dict, report_path) -> None:
    """Interception of a constant phase (acceptance criterion 5): the naive
    arccos estimate is biased, the informed atan2 estimate finds phi, and the
    Z outcomes are fair coin flips."""
    with open(report_path) as fh:
        report = json.load(fh)
    sec = doc["eve"]
    phi = sec["phi"]
    if report["shots_total"] != sec["steps"] * sec["shots_per_step"]:
        raise CheckFailed(f"{report['shots_total']} shots for {sec['steps']} steps")
    bias = abs(report["naive_phi"] - phi)
    if not bias >= EVE_NAIVE_MIN_BIAS:
        raise CheckFailed(f"naive estimator bias {bias:.4f} < {EVE_NAIVE_MIN_BIAS}")
    ex, nx = _pooled(report, "X")
    ey, ny = _pooled(report, "Y")
    var = (ex**2 * (1.0 - ey**2) / ny + ey**2 * (1.0 - ex**2) / nx) / (ex**2 + ey**2) ** 2
    err = abs(report["informed_phi"] - phi)
    if not err <= EVE_INFORMED_MAX_SE * math.sqrt(var):
        raise CheckFailed(f"informed estimate off phi by {err:.4f} rad "
                          f"> {EVE_INFORMED_MAX_SE} SE ({math.sqrt(var):.4f})")
    ez, nz = _pooled(report, "Z")
    # normal approximation of the two-sided binomial test; nz is ~20000
    pvalue = math.erfc(abs(ez) * math.sqrt(nz) / math.sqrt(2.0))
    if not pvalue > EVE_Z_MIN_PVALUE:
        raise CheckFailed(f"Z counts fail the p=0.5 binomial test (p-value {pvalue:.2e})")

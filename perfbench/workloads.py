"""Benchmark workloads: scenario documents generated from a seed.

Each workload puts its heavy work on a different layer of qsdcsim, so an
optimisation of one layer shows on one workload and predicts no change on
the others (see README.md).  Inputs come from `random.Random(seed)` only, so
the same seed gives the same scenario file on every machine.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Frozen copy of the bundled ac15_pnp scenario, so that later edits to the
# repository's scenarios do not change what the benchmark measures.
AC15_PNP = json.loads((HERE / "ac15_pnp.json").read_text())

EVE_PHI = math.pi / 6
CONSENSUS_PINNER_RANGE = (0.6, 0.97)  # keeps the steady noise clear of the [0, pi/2] clip


def plant_ac15_pnp(rng: random.Random, seed: int) -> dict:
    doc = copy.deepcopy(AC15_PNP)
    doc["name"] = "plant_ac15_pnp"
    doc["protocol"]["seed"] = seed
    return doc


def consensus_sampled(rng: random.Random, seed: int) -> dict:
    n = AC15_PNP["graph"]["nodes"]
    return {
        "schema_version": 1,
        "kind": "consensus",
        "name": "consensus_sampled",
        "horizon": 20.0,
        "graph": copy.deepcopy(AC15_PNP["graph"]),
        "protocol": {
            "dt": 0.01, "substeps": 2, "backend": "bloch", "mode": "qsdc",
            "shots": 1024, "seed": seed,
            "theta": {"kind": "uniform", "lo": 0.2, "hi": math.pi - 0.2},
        },
        "consensus": {
            "initial_phi": [rng.uniform(0.0, math.pi / 2) for _ in range(n)],
            "pinner": rng.uniform(*CONSENSUS_PINNER_RANGE),
        },
    }


def dense_ring6(rng: random.Random, seed: int) -> dict:
    n = 6
    edges = [[i, (i + 1) % n] for i in range(n)]
    a = rng.randrange(n)
    chord = sorted((a, (a + rng.choice((2, 3))) % n))
    return {
        "schema_version": 1,
        "kind": "consensus",
        "name": "dense_ring6",
        "horizon": 0.4,
        "graph": {"nodes": n, "edges": edges + [chord]},
        "protocol": {
            "dt": 0.01, "substeps": 4, "backend": "full", "mode": "qsdc",
            "exact": True, "seed": seed,
            "theta": {"kind": "uniform", "lo": 0.2, "hi": math.pi - 0.2},
        },
        "consensus": {
            "initial_phi": [rng.uniform(0.0, math.pi / 2) for _ in range(n)],
            "pinner": rng.uniform(0.3, 1.2),
            "mixing": [{"nodes": [rng.randrange(n)], "t_start": 0.1, "t_end": 0.3,
                        "p": 0.05}],
        },
    }


def eve_intercept(rng: random.Random, seed: int) -> dict:
    return {
        "schema_version": 1,
        "kind": "eve",
        "name": "eve_intercept",
        "protocol": {"seed": seed},
        "eve": {
            "phi": EVE_PHI, "r": 1.0,
            "theta": {"kind": "uniform", "lo": 0.0, "hi": math.pi},
            "steps": 60000, "shots_per_step": 1, "bases_policy": "cycle",
        },
    }


WORKLOADS = {
    "plant-ac15-pnp": plant_ac15_pnp,
    "consensus-sampled": consensus_sampled,
    "dense-ring6": dense_ring6,
    "eve-intercept": eve_intercept,
}


def make_scenario(workload: str, seed: int) -> dict:
    """Scenario document of `workload` for `seed` (a non-negative integer)."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, seed % 2**31)

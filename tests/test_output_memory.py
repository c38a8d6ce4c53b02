"""Memory bounds of a run's output path: `lyapunov_rows`, `summarize` and
`Trajectory.write_csv` on a 6000-step, 15-DER AC record, measured with
tracemalloc (numpy reports its array buffers to it)."""

import os
import tracemalloc

import numpy as np
import pytest

from qsdcsim import cli, consensus, microgrid

STEPS, NODES = 6000, 15
FLOAT_SERIES = STEPS * NODES * 8  # one (T, n) float64 array: 0.69 MiB
MASK = STEPS * NODES  # its (T, n) bool mask


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ac_record():
    rng = np.random.default_rng(5)
    data = microgrid._record("ac", STEPS, NODES)
    for name in ("omega", "power", "phi", "pinner"):
        data[name][:] = rng.uniform(0.0, 1.0, (STEPS, NODES))
    data["omega"] += 60.0
    data["online"][:] = True
    data["online"][1000:3000, 3] = data["online"][2000:4000, 7] = False
    config = consensus.ProtocolConfig()
    record = consensus.run_record("ac", np.arange(1, STEPS + 1) * config.dt, data, config, [],
                                  omega_nominal=60.0, v_nominal=None, k=0.5, c=None)
    return record


def test_write_csv_makes_no_run_length_copy(ac_record):
    # the whole record stacked at once is 3.5 MiB
    with open(os.devnull, "w") as fh:
        assert traced_peak(lambda: ac_record.write_csv(fh)) < 0.5 * 2**20


def test_lyapunov_and_summary_hold_one_float_series(ac_record):
    data = ac_record.data
    bound = FLOAT_SERIES + MASK + 128 * 2**10  # two float series would be 1.37 MiB
    assert traced_peak(lambda: consensus.lyapunov_rows(
        data["phi"], data["pinner"], data["online"])) < bound
    assert traced_peak(lambda: cli.summarize(ac_record)) < bound

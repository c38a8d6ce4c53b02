"""Memory bounds of a run's output path: `lyapunov_rows`, `summarize` and
`Trajectory.write_csv` on a 6000-step, 15-DER AC record, and of
`eve_intercept` on a 60000-step stream, measured with tracemalloc (numpy
reports its array buffers to it)."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from qsdcsim import cli, consensus, measurement, microgrid

STEPS, NODES = 6000, 15
MASK = STEPS * NODES  # a (T, n) bool mask, the smallest (T, n) array: 88 KiB


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


def test_lyapunov_and_summary_hold_no_run_length_node_array(ac_record):
    # each holds its (T,) float series (47 KiB) and one chunk's temporaries
    data = ac_record.data
    assert traced_peak(lambda: consensus.lyapunov_rows(
        data["phi"], data["pinner"], data["online"])) < MASK
    assert traced_peak(lambda: cli.summarize(ac_record)) < MASK


def test_eve_intercept_holds_no_copy_of_its_stream():
    # each basis's shots are drawn from a strided view of the stream
    thetas = np.random.default_rng(3).uniform(0.0, math.pi, 60000)
    stream = measurement.constant_phase_stream(math.pi / 6, thetas, r=1.0)
    peak = traced_peak(lambda: measurement.eve_intercept(stream, "cycle", 1, seed=7))
    assert peak < stream.nbytes / 2

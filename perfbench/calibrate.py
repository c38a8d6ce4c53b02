"""Host-speed calibration.

The benchmark host is shared: measured with a spin loop, its speed switches
between two levels about a factor 1.6-1.8 apart, for seconds to minutes at a
time, so raw wall times of the same operation spread by 20-60% between runs.
The benchmark therefore times a fixed piece of work, `work`, while it
measures, and scales each operation's times to the reference speed:

- `Probe` runs `work` from a SIGALRM handler every PROBE_PERIOD_S of the
  timed region: one chunk of PROBE_REPS to warm the caches the program left
  cold, then PROBE_CHUNKS timed chunks whose median is the sample.  The
  probes' own time is subtracted from the region, and the region's net time
  is multiplied by the mean of REFERENCE_PROBE_S / sample.  Probes sample the
  speed all through the region, which one measurement before and after does
  not.
- `kernel` runs `work(KERNEL_REPS)` once, right after set-up, to scale the
  set-up time, which ends before any probe could run.

Scaled times are host seconds at the speed at which a probe takes
REFERENCE_PROBE_S.  `work` does the same kinds of work as qsdcsim's hot paths
(Generator construction, small-array numpy calls and interpreter arithmetic,
plus a small complex matrix product like the dense engine's) but does not
touch qsdcsim, so a change to the program moves the scaled times and leaves
the probes alone.  Without the matrix product the probes under-correct the
dense engine, whose BLAS calls slow down more than interpreter code when the
host is busy.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

KERNEL_REPS = 4000
PROBE_REPS = 10
PROBE_CHUNKS = 5
PROBE_PERIOD_S = 0.1
# Seconds at the fast level of the 2-vCPU Xeon host the baseline was measured on.
REFERENCE_KERNEL_S = 0.14
REFERENCE_PROBE_S = 2.9e-4


def work(reps: int) -> float:
    """Seconds taken by `reps` repetitions of a fixed piece of work."""
    import numpy as np

    a = np.full((15, 15), 0.1)
    x = np.linspace(0.0, 1.0, 15)
    c = np.full((24, 24), 0.01 + 0.02j)
    acc = 0.0
    start = time.perf_counter()
    for i in range(reps):
        u = np.random.default_rng([7, i, 3]).uniform(0.2, 2.9)
        y = np.sin(a @ x - 2.0 * x) * u
        acc += float(y.sum()) + math.atan2(u, 1.0) + float((c @ c)[0, 0].real)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration work produced a non-finite value")
    return elapsed


def kernel() -> float:
    return work(KERNEL_REPS)


class Probe:
    """Context manager sampling the host speed during the block it wraps.

    `samples` holds the median chunk seconds of each probe, and `busy` the
    (start, seconds) of each probe as a whole, on the perf_counter clock.
    `on_busy`, if given, is called with the seconds of each probe.
    """

    def __init__(self, on_busy=None):
        self.samples: list[float] = []
        self.busy_spans: list[tuple[float, float]] = []
        self.on_busy = on_busy

    def _handler(self, signum, frame):
        start = time.perf_counter()
        work(PROBE_REPS)
        self.samples.append(statistics.median(work(PROBE_REPS) for _ in range(PROBE_CHUNKS)))
        self.busy_spans.append((start, time.perf_counter() - start))
        if self.on_busy is not None:
            self.on_busy(self.busy_spans[-1][1])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy(self, start: float, end: float) -> float:
        """Probe seconds spent inside [start, end]."""
        return sum(s for t, s in self.busy_spans if start <= t <= end)

    def scale(self) -> float | None:
        """Factor from host seconds to reference seconds; None without samples."""
        if not self.samples:
            return None
        return statistics.fmean(REFERENCE_PROBE_S / s for s in self.samples)

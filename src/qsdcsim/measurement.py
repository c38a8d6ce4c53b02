"""Shot-based measurement of Bloch components, the legacy arccos estimator,
and the eavesdropper experiment.  The twin-qubit atan2 phase estimator is
`np.arctan2(<Y>, <X>)` in `consensus.qsdc_step`: the common r*sin(theta)
factor cancels, so it is exact for any state with in-plane coherence.

A qubit is given by its Bloch components (x, y, z): a triple, or a row of
an (n, 3) array such as `engine.local_bloch` returns.  Basis changes are
folded into closed-form Bernoulli probabilities p0 = (1 + e)/2 with e the
X, Y or Z component (Hadamard for X, S-dagger then Hadamard for Y, nothing
for Z).  `_gate_level_p0` in `tests/oracles.py` applies the actual 2x2
circuit, the oracle of the closed form.

Everything measures arrays: one draw of `_draw_zeros` (numpy's binomial
draw, made at one shot from one uniform per entry) takes the counts of all
nodes in every measured basis of a protocol step, or of all intercepted
steps in one basis, and a node that is offline or aborted draws and
discards, never shifting another's draws.  Every random stream is a Philox
counter-based generator (Salmon et al., SC'11) whose key and counter
`stream_rng` lists, so each is a pure function of (seed, tag, step).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

BASES = ("X", "Y", "Z")
# The second key word of every random stream: one table, so that no two
# callers share a stream by accident (see `stream_rng` for the full keys).
_STREAM_TAG = {"X": 0, "Y": 1, "Z": 2, "theta": 3, "eve_theta": 4, "shots": 5}
# The bases an interceptor measures at step t: entry t mod length.
_EVE_SCHEDULE = {"cycle": ("X", "Y", "Z"), "xy": ("X", "Y"), "all": ("XYZ",),
                 "x": ("X",), "y": ("Y",), "z": ("Z",)}

class MeasurementError(Exception):
    pass


class InvalidStateError(MeasurementError):
    """Bloch component outside [-1, 1] beyond tolerance."""


def _philox_words(seed: int, tag: int, step: int):
    """Key (seed mod 2^64, tag) and counter (0, step, 0, 0) of a stream.

    numpy's Philox adds 1 to counter word 0 every 4 outputs, so a step in
    word 0 would make step k+1's stream step k's shifted by 4 draws; in word
    1 the streams of two steps lie 2^64 blocks apart."""
    return (np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, tag], dtype=np.uint64),
            np.array([0, step, 0, 0], dtype=np.uint64))


def stream_rng(seed: int, tag: int, step: int = 0) -> np.random.Generator:
    """Independent, order-insensitive random stream: the Philox generator
    with key (seed, tag) and counter (0, step, 0, 0).

    Streams are keyed per step (thetas: per block of B steps), never per
    node: one Generator draws the values of all nodes (or all intercepted
    steps) at once, entry i for node i.  The keys in use, as (seed, tag,
    step), with T = `_STREAM_TAG` and B = `consensus.THETA_BLOCK`:

      (seed, T["theta"], step // B)  protocol thetas of all n nodes for B
                                     steps, one row per step (row step % B);
      (seed, T["shots"], step)       protocol shots of one step: one
                                     `_sample_zeros` draw of shape (2, n),
                                     row 0 in X and row 1 in Y
                                     (qdc_legacy: (1, n), X only), made by
                                     the generator `rekeyed_rng` returns;
      (seed, T["eve_theta"], 0)      polar angles of the `qsdcsim eve` stream;
      (seed, T[basis], 0)            the interceptor's shots in one basis over
                                     all its steps, and `sample_basis` given an int.
    """
    key, counter = _philox_words(seed, tag, step)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@functools.cache
def _reused_generator():
    """The Generator that `rekeyed_rng` re-keys, and the state dict it sets:
    built on first use, so numpy.random stays out of the import."""
    rng = stream_rng(0, 0)
    return rng, rng.bit_generator.state  # buffer_pos 4: nothing buffered


def rekeyed_rng(seed: int, tag: int, step: int = 0) -> np.random.Generator:
    """One reused Generator, set to draw exactly what a fresh
    `stream_rng(seed, tag, step)` draws; the next call re-keys it again.

    Each call writes the key (seed mod 2^64, tag) and counter word 1 (step)
    of `_philox_words`' layout into the one kept state dict and assigns it;
    Philox's state setter copies the values, and the dict's other counter
    words and empty buffer never change."""
    rng, state = _reused_generator()
    key, counter = state["state"]["key"], state["state"]["counter"]
    key[0], key[1], counter[1] = int(seed) & 0xFFFFFFFFFFFFFFFF, tag, step
    rng.bit_generator.state = state
    return rng


@dataclass(frozen=True)
class CountHistogram:
    """0/1 outcome counts of repeated single-qubit measurements."""

    zeros: int
    ones: int

    def __post_init__(self):
        if self.zeros < 0 or self.ones < 0:
            raise ValueError("counts must be non-negative")
        if self.zeros + self.ones == 0:
            raise ValueError("histogram must contain at least one shot")

    @property
    def shots(self) -> int:
        return self.zeros + self.ones

    @property
    def p0(self) -> float:
        return self.zeros / self.shots

    @property
    def p1(self) -> float:
        return self.ones / self.shots


def _component(bloch, basis: str) -> float:
    """The `basis` entry of an (x, y, z) triple."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    return bloch[BASES.index(basis)]


def _clamped(e) -> np.ndarray:
    """Bloch components clamped to [-1, 1]; one beyond it by more than 1e-9,
    or a nan, is not a state.

    Two reductions test the range, so input that needs no clip comes back
    itself, with no copy and no mask: no caller writes to the result."""
    e = np.asarray(e, dtype=float)
    if not e.size or e.min() >= -1.0 and e.max() <= 1.0:  # a nan fails both
        return e
    bad = ~(np.abs(e) <= 1.0 + 1e-9)  # a nan is bad
    if bad.any():
        raise InvalidStateError(f"Bloch component {e[bad].flat[0]} lies outside [-1, 1]")
    return e.clip(-1.0, 1.0)


def _sample_zeros(rng: np.random.Generator, shots: int, e):
    """Zero outcomes of `shots` shots on each qubit whose component in the
    measured basis is `e`: the package's one validated sampler.  It raises
    `InvalidStateError` on a nan or on a component beyond [-1, 1] by more
    than 1e-9 (`_clamped`), then draws with `_draw_zeros`."""
    return _draw_zeros(rng, shots, _clamped(e))


def _draw_zeros(rng: np.random.Generator, shots: int, e):
    """The draw of `_sample_zeros` on components `e` that the caller has
    already checked: an ndarray, every entry in [-1, 1] and none a nan, as
    `_clamped` returns.  It draws what `rng.binomial(shots, p)` draws,
    p = 0.5 * (1.0 + e), one count per entry.

    At one shot (a bool per entry) it makes binomial's own event from the
    same uniforms without binomial's per-entry cost: numpy inverts the CDF
    (Kachitvichyanukul and Schmeiser, CACM 31(2), 1988) from one uniform U
    per entry in C order, but caches its set-up per (n, p), so each new p
    pays a log, an exp and a sqrt.  With q = 1.0 - p, an entry is a zero
    when U > q for p <= 0.5, and when U <= 1.0 - q for p > 0.5, where
    1.0 - q is p itself (both subtractions are exact there); an entry with
    p == 0 is no zero and takes no uniform.  `rng.random` gives the same U
    from the same stream position.  numpy compares U with exp(log(t)) for
    the threshold t, which can lie an ulp from t, so an outcome can differ
    only when U falls between the two: about 1e-16 per draw."""
    p = e + 1.0
    p *= 0.5  # bitwise 0.5 * (1.0 + e)
    if shots != 1:
        return rng.binomial(shots, p)
    p = np.asarray(p)  # a 0-d e made p a scalar; the threshold is written in p
    if p.all():
        u = rng.random(p.shape)
    else:
        u = np.zeros(p.shape)
        u[p != 0.0] = rng.random(np.count_nonzero(p))
    high = p > 0.5
    np.subtract(1.0, p, out=p, where=~high)  # the threshold: q, or p above 0.5
    zeros = u > p
    zeros ^= high  # above 0.5 a zero is U <= p
    return zeros


def sample_basis(bloch, basis: str, shots: int, seed) -> CountHistogram:
    """Draw independent shots in the given basis of a qubit whose Bloch
    components are the triple `bloch` = (x, y, z).

    `seed` is either a numpy Generator or an integer, which selects the
    stream (seed, basis tag).
    """
    e = _component(bloch, basis)
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(seed, _STREAM_TAG[basis])
    zeros = int(_sample_zeros(rng, shots, e))
    return CountHistogram(zeros=zeros, ones=shots - zeros)


def qdc_from_expectation(sx) -> np.ndarray:
    """Legacy arccos estimator, elementwise, of sx clipped to [-1, 1];
    unbiased only when r*sin(theta) = 1."""
    return np.arccos(np.clip(sx, -1.0, 1.0))


def binary_entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass
class EveReport:
    """What an interceptor learns from measuring exchanged qubits."""

    histograms: dict = field(default_factory=dict)  # basis -> CountHistogram
    exact_p0: dict = field(default_factory=dict)    # basis -> averaged exact p0
    # None where an input basis was never measured (informed_phi: or where
    # the X and Y estimates are both 0, so atan2 has no angle)
    naive_phi: float | None = None
    informed_phi: float | None = None
    avg_bloch: tuple = (None, None, None)  # mean (x, y, z); None: not measured
    entropy_bits: dict = field(default_factory=dict)
    shots_total: int = 0

    def to_json_dict(self) -> dict:
        bases = {
            b: {"zeros": h.zeros, "ones": h.ones}
            for b, h in sorted(self.histograms.items())
        }
        return {
            "bases": bases,
            "naive_phi": self.naive_phi,
            "informed_phi": self.informed_phi,
            "avg_bloch": list(self.avg_bloch),
            "entropy_bits": {b: self.entropy_bits[b] for b in sorted(self.entropy_bits)},
            "shots_total": self.shots_total,
        }


def constant_phase_stream(phi: float, thetas, r: float) -> np.ndarray:
    """Bloch components (x, y, z), one row per step, of a qubit with fixed
    phase and varying theta and Bloch length r, as seen by an interceptor on
    one channel; a scenario's r defaults in `scenario._apply_defaults`.

    The rows are x = (r sin theta) cos phi, y = (r sin theta) sin phi and
    z = r cos theta.  They come as the (steps, 3) transpose of a (3, steps)
    block, so each component is contiguous: a basis view of `eve_intercept`
    strides 8 bytes a step, not 24."""
    thetas = np.asarray(thetas, dtype=float)
    x, y, z = out = np.empty((len(BASES), thetas.size))
    np.multiply(np.sin(thetas, out=x), r, out=x)  # r sin(theta)
    np.multiply(x, math.sin(phi), out=y)
    x *= math.cos(phi)
    np.multiply(np.cos(thetas, out=z), r, out=z)
    return out.T


def eve_intercept(stream, bases_policy: str, shots_per_step: int, seed: int,
                  exact: bool = False) -> EveReport:
    """Aggregate interception statistics over a stream of exchanged qubits.

    `stream` has one row of Bloch components (x, y, z) per protocol step,
    as `constant_phase_stream` returns.  The policy selects the bases
    measured at each step; each basis draws the shots of all its steps at
    once from the stream (seed, basis tag) and pools them.  The naive
    estimate applies arccos to the pooled X expectation, the informed one
    takes atan2 of pooled X and Y estimates.  In exact mode the infinite-shot
    expectations are averaged over the same steps instead of sampling.  An
    estimate or mean whose basis the policy never measures is None.  Each
    policy names a basis in at most one slot, so its steps are one strided
    view; a mean sums its view left to right from +0.0 (`np.cumsum`): the
    pinned bundled outputs carry that rounding, and a pairwise `sum` moves it.
    A scenario's policy, shots and seed default in `scenario._apply_defaults`.

    The whole stream is range-checked once, by `_clamped`, so a nan or an
    out-of-range component raises `InvalidStateError` even in a column the
    policy never reads; the draws then take the checked views as they are
    (`_draw_zeros`, not `_sample_zeros`, which would check them again).
    """
    comps = _clamped(stream)
    if comps.ndim != 2 or comps.shape[1] != len(BASES) or not len(comps):
        raise ValueError(f"stream must be a nonempty (steps, 3) stack, got shape {comps.shape}")
    if bases_policy not in _EVE_SCHEDULE:
        raise ValueError(f"unknown bases policy {bases_policy!r}")
    if not exact and shots_per_step < 1:
        raise ValueError(f"shots_per_step must be at least 1 to sample, got {shots_per_step}")
    schedule = _EVE_SCHEDULE[bases_policy]
    views = {basis: comps[slot::len(schedule), BASES.index(basis)]
             for slot, bases in enumerate(schedule[:len(comps)]) for basis in bases}
    means = {basis: float(np.cumsum(v)[-1] + 0.0) / len(v) for basis, v in views.items()}
    hist: dict[str, CountHistogram] = {}
    if not exact:
        for b, v in views.items():
            shots = len(v) * shots_per_step
            counts = _draw_zeros(stream_rng(seed, _STREAM_TAG[b]), shots_per_step, v)
            # an int64 sum wraps beyond 2**63 - 1 shots; Python ints do not
            zeros = int(counts.sum(dtype=object if shots >= 2**63 else None))
            hist[b] = CountHistogram(zeros, shots - zeros)
    ex, ey = (hist[b].p0 - hist[b].p1 if b in hist else means.get(b) for b in "XY")
    naive = None if ex is None else math.acos(max(-1.0, min(1.0, ex)))
    informed = None if None in (ex, ey) or ex == ey == 0.0 else math.atan2(ey, ex)

    exact_p0 = {basis: 0.5 * (1.0 + mean) for basis, mean in means.items()}
    entropy = {
        basis: binary_entropy_bits(hist[basis].p0 if basis in hist else p0)
        for basis, p0 in exact_p0.items()
    }
    return EveReport(
        histograms=hist,
        exact_p0=exact_p0,
        naive_phi=naive,
        informed_phi=informed,
        avg_bloch=tuple(means.get(basis) for basis in BASES),
        entropy_bits=entropy,
        shots_total=sum(h.shots for h in hist.values()),
    )

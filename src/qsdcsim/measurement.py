"""Shot-based measurement of Bloch components, the twin-qubit atan2 phase
estimator, the legacy arccos estimator, and the eavesdropper experiment.

Basis changes are folded into closed-form Bernoulli probabilities
p0 = (1 + e)/2 with e the X, Y or Z Bloch component (Hadamard for X,
S-dagger then Hadamard for Y, nothing for Z).  `_gate_level_p0` applies the
actual 2x2 circuit; the tests check the closed form against it.

Everything measures arrays: one random stream per step and basis draws the
counts of all nodes (or of all intercepted steps) at once, and a node that
is offline or aborted draws and discards, never shifting another's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import BlochVector

BASES = ("X", "Y", "Z")
# The last key of every random stream: one table, so that no two callers
# share a stream by accident (see `stream_rng` for the full keys).
_STREAM_TAG = {"X": 0, "Y": 1, "Z": 2, "theta": 3, "eve_theta": 4}
# The bases an interceptor measures at step t: entry t mod length.
_EVE_SCHEDULE = {"cycle": ("X", "Y", "Z"), "xy": ("X", "Y"), "all": ("XYZ",),
                 "x": ("X",), "y": ("Y",), "z": ("Z",)}

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_S_DAG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)


class MeasurementError(Exception):
    pass


class InvalidStateError(MeasurementError):
    """Bloch component outside [-1, 1] beyond tolerance."""


class DegenerateCoherenceError(MeasurementError):
    """Both in-plane expectations vanished; the node's phase signal is lost."""


def stream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent, order-insensitive random stream keyed by integer tags.

    Streams are keyed per step (thetas: per block of B steps) and basis,
    never per node: one Generator draws the values of all nodes (or all
    intercepted steps) at once, entry i for node i.  The keys in use, with
    T = `_STREAM_TAG` and B = `consensus.THETA_BLOCK`:

      (seed, step // B, T["theta"])  protocol thetas of all n nodes for B
                                     steps, one row per step (row step % B);
      (seed, step, T[basis])         protocol shots in basis X or Y, all n nodes;
      (seed, T["eve_theta"])         polar angles of the `qsdcsim eve` stream;
      (seed, T[basis])               the interceptor's shots in one basis over
                                     all its steps, and `sample_basis` given an int.
    """
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *[int(t) for t in tags]])


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


def _component(bloch: BlochVector, basis: str) -> float:
    try:
        return {"X": bloch.x, "Y": bloch.y, "Z": bloch.z}[basis]
    except KeyError:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}") from None


def _clamped(e) -> np.ndarray:
    """Bloch components clamped to [-1, 1]; one beyond it by more than 1e-9
    is not a state."""
    e = np.asarray(e, dtype=float)
    bad = np.abs(e) > 1.0 + 1e-9
    if bad.any():
        raise InvalidStateError(f"Bloch component {e[bad].flat[0]} lies outside [-1, 1]")
    return np.clip(e, -1.0, 1.0)


def exact_probability(bloch: BlochVector, basis: str) -> float:
    """Infinite-shot limit of p0 for the chosen measurement circuit."""
    return float(0.5 * (1.0 + _clamped(_component(bloch, basis))))


def _gate_level_p0(bloch: BlochVector, basis: str) -> float:
    """Apply the actual basis-change circuit to the 2x2 state, then read the
    Z-basis 0 probability.  Oracle path for the closed form above."""
    rho = 0.5 * np.array(
        [[1.0 + bloch.z, bloch.x - 1j * bloch.y],
         [bloch.x + 1j * bloch.y, 1.0 - bloch.z]],
        dtype=complex,
    )
    if basis == "X":
        u = _H
    elif basis == "Y":
        u = _H @ _S_DAG
    elif basis == "Z":
        u = np.eye(2, dtype=complex)
    else:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    rot = u @ rho @ u.conj().T
    return float(rot[0, 0].real)


def _sample_zeros(rng: np.random.Generator, shots: int, e):
    """Zero outcomes of `shots` shots on each qubit whose component in the
    measured basis is `e`, in one binomial draw: the package's one sampler."""
    return rng.binomial(shots, 0.5 * (1.0 + _clamped(e)))


def sample_basis(bloch: BlochVector, basis: str, shots: int, seed) -> CountHistogram:
    """Draw independent shots in the given basis.

    `seed` is either a numpy Generator or an integer, which selects the
    stream (seed, basis tag).
    """
    e = _component(bloch, basis)
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(seed, _STREAM_TAG[basis])
    zeros = int(_sample_zeros(rng, shots, e))
    return CountHistogram(zeros=zeros, ones=shots - zeros)


def phase_from_expectations(sx, sy) -> np.ndarray:
    """atan2 twin estimator from expectation values, elementwise; the common
    r*sin(theta) factor cancels, so it is exact for any state with in-plane
    coherence.  Raises if any entry has both expectations zero."""
    if (np.hypot(sx, sy) == 0.0).any():
        raise DegenerateCoherenceError("sx and sy both vanished; no phase signal")
    return np.arctan2(sy, sx)


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
    naive_phi: float = float("nan")
    informed_phi: float = float("nan")
    avg_bloch: BlochVector = None
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
            "avg_bloch": [self.avg_bloch.x, self.avg_bloch.y, self.avg_bloch.z],
            "entropy_bits": {b: self.entropy_bits[b] for b in sorted(self.entropy_bits)},
            "shots_total": self.shots_total,
        }


def constant_phase_stream(phi: float, thetas, r: float = 1.0) -> np.ndarray:
    """Bloch components (x, y, z), one row per step, of a qubit with fixed
    phase and varying theta, as seen by an interceptor on one channel."""
    thetas = np.asarray(thetas, dtype=float)
    s = r * np.sin(thetas)
    return np.column_stack([s * math.cos(phi), s * math.sin(phi), r * np.cos(thetas)])


def eve_intercept(
    stream,
    bases_policy: str = "cycle",
    shots_per_step: int = 1,
    seed: int = 0,
    exact: bool = False,
) -> EveReport:
    """Aggregate interception statistics over a stream of exchanged qubits.

    `stream` has one row of Bloch components (x, y, z) per protocol step,
    as `constant_phase_stream` returns.  The policy selects the bases
    measured at each step; each basis draws the shots of all its steps at
    once from the stream (seed, basis tag) and pools them.  The naive
    estimate applies arccos to the pooled X expectation, the informed one
    takes atan2 of pooled X and Y estimates.  In exact mode the infinite-shot
    expectations are averaged over the same steps instead of sampling.
    """
    comps = _clamped(np.reshape(stream, (-1, len(BASES))))
    if not len(comps):
        raise ValueError("stream must be nonempty")
    if bases_policy not in _EVE_SCHEDULE:
        raise ValueError(f"unknown bases policy {bases_policy!r}")
    schedule = np.array([[b in bases for b in BASES] for bases in _EVE_SCHEDULE[bases_policy]])
    mask = schedule[np.arange(len(comps)) % len(schedule)]  # (steps, basis)

    measured = mask.sum(axis=0).tolist()
    means = (np.where(mask, comps, 0.0).sum(axis=0) / np.maximum(measured, 1)).tolist()
    hist: dict[str, CountHistogram] = {}
    if not exact:
        for k, basis in enumerate(BASES):
            if measured[k]:
                zeros = int(_sample_zeros(stream_rng(seed, _STREAM_TAG[basis]),
                                          shots_per_step, comps[mask[:, k], k]).sum())
                hist[basis] = CountHistogram(zeros, measured[k] * shots_per_step - zeros)
    ex, ey = (hist[basis].p0 - hist[basis].p1 if basis in hist else means[k]
              for k, basis in enumerate("XY"))
    naive = math.acos(max(-1.0, min(1.0, ex)))
    informed = math.atan2(ey, ex) if (ex, ey) != (0.0, 0.0) else float("nan")

    exact_p0 = {basis: 0.5 * (1.0 + means[k]) for k, basis in enumerate(BASES) if measured[k]}
    entropy = {
        basis: binary_entropy_bits(hist[basis].p0 if basis in hist else p0)
        for basis, p0 in exact_p0.items()
    }
    return EveReport(
        histograms=hist,
        exact_p0=exact_p0,
        naive_phi=naive,
        informed_phi=informed,
        avg_bloch=BlochVector(*means),
        entropy_bits=entropy,
        shots_total=sum(h.shots for h in hist.values()),
    )

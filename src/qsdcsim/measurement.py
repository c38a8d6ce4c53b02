"""Shot-based measurement of Bloch components, the twin-qubit atan2 phase
estimator, the legacy arccos estimator, and the eavesdropper experiment.

Basis changes are folded into closed-form Bernoulli probabilities
p0 = (1 + e)/2 with e the X, Y or Z Bloch component (Hadamard for X,
S-dagger then Hadamard for Y, nothing for Z).  `_gate_level_p0` applies the
actual 2x2 circuit; the tests check the closed form against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .engine import BlochVector

BASES = ("X", "Y", "Z")
_BASIS_TAG = {"X": 0, "Y": 1, "Z": 2}

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

    One stream per (node, step, basis) keeps shot sampling reproducible and
    embarrassingly parallel.
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

    def frequencies(self) -> tuple[Fraction, Fraction]:
        """(p0, p1) as exact rationals; they sum to 1 exactly."""
        return Fraction(self.zeros, self.shots), Fraction(self.ones, self.shots)

    @property
    def p0(self) -> float:
        return self.zeros / self.shots

    @property
    def p1(self) -> float:
        return self.ones / self.shots

    def merge(self, other: "CountHistogram") -> "CountHistogram":
        return CountHistogram(self.zeros + other.zeros, self.ones + other.ones)


def _component(bloch: BlochVector, basis: str) -> float:
    try:
        e = {"X": bloch.x, "Y": bloch.y, "Z": bloch.z}[basis]
    except KeyError:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}") from None
    if abs(e) > 1.0 + 1e-9:
        raise InvalidStateError(f"{basis} component {e} lies outside [-1, 1]")
    return max(-1.0, min(1.0, e))


def exact_probability(bloch: BlochVector, basis: str) -> float:
    """Infinite-shot limit of p0 for the chosen measurement circuit."""
    return 0.5 * (1.0 + _component(bloch, basis))


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


def sample_basis(
    bloch: BlochVector,
    basis: str,
    shots: int,
    seed,
) -> CountHistogram:
    """Draw independent shots in the given basis.

    `seed` is either an integer or a numpy Generator (the protocol passes a
    per-(node, step, basis) stream).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p0 = exact_probability(bloch, basis)
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(seed, _BASIS_TAG[basis])
    zeros = int(rng.binomial(shots, min(1.0, max(0.0, p0))))
    return CountHistogram(zeros=zeros, ones=shots - zeros)


@dataclass(frozen=True)
class PhaseEstimate:
    """Estimated azimuthal phase of one node for one protocol step."""

    phi_hat: float
    method: str  # "qsdc_atan2" or "qdc_arccos"
    sx_hat: float
    sy_hat: float
    shots_used: int
    clamped: bool = False


def phase_from_expectations(sx: float, sy: float, shots_used: int = 0) -> PhaseEstimate:
    """atan2 twin estimator from expectation values; the common r*sin(theta)
    factor cancels, so it is exact for any state with in-plane coherence."""
    if sx == 0.0 and sy == 0.0:
        raise DegenerateCoherenceError("sx and sy both vanished; no phase signal")
    return PhaseEstimate(
        phi_hat=math.atan2(sy, sx),
        method="qsdc_atan2",
        sx_hat=sx,
        sy_hat=sy,
        shots_used=shots_used,
    )


def qdc_from_expectation(sx: float, shots_used: int = 0) -> PhaseEstimate:
    """Legacy arccos estimator; unbiased only when r*sin(theta) = 1."""
    clamped = abs(sx) > 1.0
    x = max(-1.0, min(1.0, sx))
    return PhaseEstimate(
        phi_hat=math.acos(x),
        method="qdc_arccos",
        sx_hat=sx,
        sy_hat=0.0,
        shots_used=shots_used,
        clamped=clamped,
    )


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


def constant_phase_stream(phi: float, thetas, r: float = 1.0) -> list[BlochVector]:
    """Per-step Bloch vectors of a qubit with fixed phase and varying theta,
    as seen by an interceptor on one channel."""
    return [BlochVector.from_polar(r, float(th), phi) for th in thetas]


def _policy_bases(policy: str, step: int) -> tuple[str, ...]:
    if policy == "cycle":
        return (BASES[step % 3],)
    if policy == "all":
        return BASES
    if policy in ("x", "y", "z"):
        return (policy.upper(),)
    if policy == "xy":
        return ("X", "Y")[step % 2],
    raise ValueError(f"unknown bases policy {policy!r}")


def eve_intercept(
    stream,
    bases_policy: str = "cycle",
    shots_per_step: int = 1,
    steps: int | None = None,
    seed: int = 0,
    exact: bool = False,
) -> EveReport:
    """Aggregate interception statistics over a stream of exchanged qubits.

    Each stream entry is the Bloch vector of the qubit at one protocol step
    (theta re-randomized by the protocol).  Counts are pooled per basis over
    all intercepted steps; the naive estimate applies arccos to the pooled X
    expectation, the informed one takes atan2 of pooled X and Y estimates.
    In exact mode the infinite-shot p0 is averaged instead of sampling.
    """
    stream = list(stream)
    if not stream:
        raise ValueError("stream must be nonempty")
    if steps is not None:
        stream = stream[:steps]

    hist: dict[str, CountHistogram] = {}
    p0_sums: dict[str, float] = {b: 0.0 for b in BASES}
    p0_counts: dict[str, int] = {b: 0 for b in BASES}
    comp_sums = {"X": 0.0, "Y": 0.0, "Z": 0.0}

    for t, bloch in enumerate(stream):
        for basis in _policy_bases(bases_policy, t):
            p0_sums[basis] += exact_probability(bloch, basis)
            comp_sums[basis] += _component(bloch, basis)
            p0_counts[basis] += 1
            if not exact:
                h = sample_basis(
                    bloch, basis, shots_per_step,
                    stream_rng(seed, t, _BASIS_TAG[basis]),
                )
                hist[basis] = hist[basis].merge(h) if basis in hist else h

    def pooled_expectation(basis: str) -> float:
        if exact or basis not in hist:
            if p0_counts[basis] == 0:
                return 0.0
            return 2.0 * (p0_sums[basis] / p0_counts[basis]) - 1.0
        h = hist[basis]
        return h.p0 - h.p1

    ex = pooled_expectation("X")
    ey = pooled_expectation("Y")
    ez = pooled_expectation("Z")
    naive = math.acos(max(-1.0, min(1.0, ex)))
    informed = math.atan2(ey, ex) if (ex, ey) != (0.0, 0.0) else float("nan")

    entropy = {}
    exact_p0 = {}
    for basis in BASES:
        if p0_counts[basis] == 0:
            continue
        exact_p0[basis] = p0_sums[basis] / p0_counts[basis]
        p_obs = hist[basis].p0 if (not exact and basis in hist) else exact_p0[basis]
        entropy[basis] = binary_entropy_bits(p_obs)

    avg = BlochVector(
        x=comp_sums["X"] / max(1, p0_counts["X"]),
        y=comp_sums["Y"] / max(1, p0_counts["Y"]),
        z=comp_sums["Z"] / max(1, p0_counts["Z"]),
    )
    return EveReport(
        histograms=hist,
        exact_p0=exact_p0,
        naive_phi=naive,
        informed_phi=informed,
        avg_bloch=avg,
        entropy_bits=entropy,
        shots_total=sum(h.shots for h in hist.values()),
    )

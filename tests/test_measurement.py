import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qsdcsim.engine import BlochVector
from qsdcsim.measurement import (
    CountHistogram,
    DegenerateCoherenceError,
    InvalidStateError,
    binary_entropy_bits,
    constant_phase_stream,
    estimate_phase_qdc,
    estimate_phase_qsdc,
    eve_intercept,
    exact_probability,
    phase_from_expectations,
    qdc_from_expectation,
    sample_basis,
    stream_rng,
    _gate_level_p0,
)


def equator(phi, r=1.0):
    return BlochVector.from_polar(r, math.pi / 2, phi)


# -- histograms --------------------------------------------------------------


def test_histogram_frequencies_exact():
    h = CountHistogram(zeros=621, ones=379)
    p0, p1 = h.frequencies()
    assert p0 + p1 == Fraction(1)
    assert p0 == Fraction(621, 1000)
    assert h.shots == 1000


def test_histogram_validation():
    with pytest.raises(ValueError):
        CountHistogram(zeros=-1, ones=5)
    with pytest.raises(ValueError):
        CountHistogram(zeros=0, ones=0)


def test_histogram_merge():
    a = CountHistogram(3, 1)
    b = CountHistogram(1, 2)
    m = a.merge(b)
    assert (m.zeros, m.ones) == (4, 3)


# -- basis sampling ----------------------------------------------------------


def test_exact_probability_pi6_x():
    # the paper's single-qubit experiment: p0 = (1 + cos(pi/6))/2
    assert exact_probability(equator(math.pi / 6), "X") == pytest.approx(
        0.9330127018922194, abs=1e-12
    )


def test_exact_probability_z_example():
    b = BlochVector.from_polar(1.0, math.pi / 3, 0.0)
    assert exact_probability(b, "Z") == pytest.approx(0.75, abs=1e-12)


def test_sample_maximally_mixed_near_half():
    b = BlochVector(0.0, 0.0, 0.0)
    for basis in "XYZ":
        h = sample_basis(b, basis, 2000, seed=9)
        sigma = math.sqrt(0.25 / 2000)
        assert abs(h.p0 - 0.5) <= 3 * sigma


def test_sample_rejects_invalid_state():
    with pytest.raises(InvalidStateError):
        exact_probability(BlochVector(1.2, 0.0, 0.0), "X")


def test_sample_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sample_basis(equator(0.1), "X", 0, seed=1)
    with pytest.raises(ValueError):
        exact_probability(equator(0.1), "Q")


def test_gate_level_path_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(50):
        b = BlochVector.from_polar(rng.uniform(0.0, 1.0),
                                   rng.uniform(0.0, math.pi),
                                   rng.uniform(0.0, math.pi / 2))
        for basis in "XYZ":
            assert _gate_level_p0(b, basis) == pytest.approx(
                exact_probability(b, basis), abs=1e-12
            )


def test_sampling_deterministic_per_stream():
    h1 = sample_basis(equator(0.3), "X", 100, stream_rng(42, 1, 2, 0))
    h2 = sample_basis(equator(0.3), "X", 100, stream_rng(42, 1, 2, 0))
    assert h1.zeros == h2.zeros


# -- twin estimator ----------------------------------------------------------


def test_qsdc_estimator_exact_equator():
    est = phase_from_expectations(math.cos(math.pi / 6), math.sin(math.pi / 6))
    assert est.phi_hat == pytest.approx(math.pi / 6, abs=1e-15)
    assert est.method == "qsdc_atan2"


def test_qsdc_estimator_cancels_coherence_magnitude():
    # mixed state r=0.8, theta=pi/3, phi=1: atan2 recovers phi exactly
    s = 0.8 * math.sin(math.pi / 3)
    sx, sy = s * math.cos(1.0), s * math.sin(1.0)
    assert sx == pytest.approx(0.3743, abs=5e-5)
    assert sy == pytest.approx(0.5830, abs=5e-5)
    est = phase_from_expectations(sx, sy)
    assert est.phi_hat == pytest.approx(1.0, abs=1e-12)


def test_qsdc_estimator_sampled_accuracy():
    # 2000-shot trials at phi=pi/3: within 0.08 rad for >= 99/100 seeds
    b = equator(math.pi / 3)
    hits = 0
    for seed in range(100):
        cx = sample_basis(b, "X", 2000, stream_rng(seed, 0))
        cy = sample_basis(b, "Y", 2000, stream_rng(seed, 1))
        est = estimate_phase_qsdc(cx, cy)
        hits += abs(est.phi_hat - math.pi / 3) <= 0.08
    assert hits >= 99


def test_qsdc_estimator_degenerate():
    with pytest.raises(DegenerateCoherenceError):
        phase_from_expectations(0.0, 0.0)


def test_qsdc_estimator_from_histograms():
    cx = CountHistogram(zeros=1500, ones=500)   # sx = 0.5
    cy = CountHistogram(zeros=1933, ones=67)    # sy ~ 0.933
    est = estimate_phase_qsdc(cx, cy)
    assert est.sx_hat == pytest.approx(0.5)
    assert est.shots_used == 4000
    assert est.phi_hat == pytest.approx(math.atan2(0.933, 0.5), abs=1e-12)


# -- legacy estimator --------------------------------------------------------


def test_qdc_estimator_equator_cases():
    assert qdc_from_expectation(math.cos(math.pi / 6)).phi_hat == pytest.approx(
        math.pi / 6, abs=1e-12
    )
    assert qdc_from_expectation(1.0).phi_hat == 0.0


def test_qdc_estimator_mixed_bias():
    est = qdc_from_expectation(0.8 * 0.5)
    assert est.phi_hat == pytest.approx(1.1593, abs=1e-4)
    assert est.phi_hat - math.pi / 3 == pytest.approx(0.112, abs=1e-3)


def test_qdc_estimator_clamps():
    est = qdc_from_expectation(1.0 + 1e-6)
    assert est.clamped and est.phi_hat == 0.0


def test_qdc_bias_law_grid():
    # |arccos(s cos(phi)) - phi| over (s, phi) in [0.5,1]x[0.1,1.4]
    for s in np.linspace(0.5, 1.0, 6):
        for phi in np.linspace(0.1, 1.4, 8):
            est = qdc_from_expectation(s * math.cos(phi))
            expected = abs(math.acos(s * math.cos(phi)) - phi)
            assert abs(est.phi_hat - phi) == pytest.approx(expected, abs=1e-12)
            if s < 1.0:
                assert est.phi_hat > phi  # shrunken x reads as a larger angle


def test_estimator_error_scales_as_inverse_sqrt_shots():
    b = equator(math.pi / 3)
    shots_list = [100, 1000, 10000, 100000]
    errs = []
    for shots in shots_list:
        trial = []
        for seed in range(40):
            cx = sample_basis(b, "X", shots, stream_rng(seed, 0))
            cy = sample_basis(b, "Y", shots, stream_rng(seed, 1))
            trial.append(abs(estimate_phase_qsdc(cx, cy).phi_hat - math.pi / 3))
        errs.append(np.mean(trial))
    slope = np.polyfit(np.log(shots_list), np.log(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


# -- eavesdropper ------------------------------------------------------------


def test_eve_succeeds_against_equator_scheme():
    # theta pinned to pi/2 (legacy mode): arccos works for Eve
    stream = constant_phase_stream(math.pi / 6, np.full(2000, math.pi / 2))
    rep = eve_intercept(stream, bases_policy="x", shots_per_step=1, seed=1)
    assert abs(rep.naive_phi - math.pi / 6) <= 0.03
    assert rep.shots_total == 2000


def test_eve_naive_estimator_biased_under_theta_randomization():
    # theta ~ U(0, pi): E[p0 - p1] = (2/pi) cos(phi) -> naive estimate 0.987
    rng = stream_rng(7, 4)
    thetas = rng.uniform(0.0, math.pi, 30000)
    stream = constant_phase_stream(math.pi / 6, thetas)
    rep = eve_intercept(stream, bases_policy="cycle", seed=7, exact=True)
    assert rep.naive_phi == pytest.approx(0.9868, abs=0.02)
    assert abs(rep.naive_phi - math.pi / 6) >= 0.3
    # the informed atan2 estimator is not defeated (documented honestly)
    assert abs(rep.informed_phi - math.pi / 6) <= 0.05


def test_eve_z_outcomes_indistinguishable_from_coin():
    rng = stream_rng(7, 4)
    thetas = rng.uniform(0.0, math.pi, 30000)
    stream = constant_phase_stream(math.pi / 6, thetas)
    rep = eve_intercept(stream, bases_policy="cycle", shots_per_step=1, seed=7)
    z = rep.histograms["Z"]
    assert z.shots == 10000
    assert stats.binomtest(z.zeros, z.shots, 0.5).pvalue > 0.01
    assert rep.entropy_bits["Z"] >= 0.999


def test_eve_z_expectation_near_half_exact():
    rng = stream_rng(3, 4)
    thetas = rng.uniform(0.0, math.pi, 20000)
    stream = constant_phase_stream(0.9, thetas)
    rep = eve_intercept(stream, bases_policy="z", seed=3, exact=True)
    sigma = math.sqrt(0.5 / len(thetas))  # var(cos theta) = 1/2 under U(0,pi)
    assert abs(rep.exact_p0["Z"] - 0.5) <= 3 * sigma


def test_eve_entropy_bounds_and_json():
    rng = stream_rng(2, 4)
    thetas = rng.uniform(0.2, math.pi - 0.2, 999)
    rep = eve_intercept(constant_phase_stream(0.4, thetas), bases_policy="cycle",
                        shots_per_step=3, seed=2)
    for bits in rep.entropy_bits.values():
        assert 0.0 <= bits <= 1.0
    d = rep.to_json_dict()
    assert set(d) == {"bases", "naive_phi", "informed_phi", "avg_bloch",
                      "entropy_bits", "shots_total"}
    assert set(d["bases"]) == {"X", "Y", "Z"}
    assert len(d["avg_bloch"]) == 3


def test_eve_deterministic_given_seed():
    stream = constant_phase_stream(0.6, np.linspace(0.3, 2.8, 300))
    a = eve_intercept(stream, bases_policy="all", shots_per_step=5, seed=13)
    b = eve_intercept(stream, bases_policy="all", shots_per_step=5, seed=13)
    assert a.to_json_dict() == b.to_json_dict()


def test_eve_empty_stream_rejected():
    with pytest.raises(ValueError):
        eve_intercept([])


def test_binary_entropy_edges():
    assert binary_entropy_bits(0.0) == 0.0
    assert binary_entropy_bits(1.0) == 0.0
    assert binary_entropy_bits(0.5) == pytest.approx(1.0)

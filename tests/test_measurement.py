import json
import math

import numpy as np
import pytest
from scipy import stats

from oracles import _gate_level_p0, exact_probability, polar_bloch
from qsdcsim import measurement
from qsdcsim.measurement import (
    _EVE_SCHEDULE,
    _STREAM_TAG,
    BASES,
    CountHistogram,
    EveReport,
    InvalidStateError,
    binary_entropy_bits,
    constant_phase_stream,
    eve_intercept,
    qdc_from_expectation,
    rekeyed_rng,
    sample_basis,
    stream_rng,
    _clamped,
    _sample_zeros,
)


def equator(phi, r=1.0):
    return polar_bloch(r, math.pi / 2, phi)


def estimate_from_counts(cx, cy):
    """The twin-qubit estimate from X and Y histograms, as the protocol forms it."""
    return np.arctan2(cy.p0 - cy.p1, cx.p0 - cx.p1)


# -- histograms --------------------------------------------------------------


def test_histogram_validation():
    with pytest.raises(ValueError):
        CountHistogram(zeros=-1, ones=5)
    with pytest.raises(ValueError):
        CountHistogram(zeros=0, ones=0)


# -- basis sampling ----------------------------------------------------------


def test_exact_probability_pi6_x():
    # the paper's single-qubit experiment: p0 = (1 + cos(pi/6))/2
    assert exact_probability(equator(math.pi / 6), "X") == pytest.approx(
        0.9330127018922194, abs=1e-12
    )


def test_exact_probability_z_example():
    b = polar_bloch(1.0, math.pi / 3, 0.0)
    assert exact_probability(b, "Z") == pytest.approx(0.75, abs=1e-12)


def test_sample_maximally_mixed_near_half():
    b = (0.0, 0.0, 0.0)
    for basis in "XYZ":
        h = sample_basis(b, basis, 2000, seed=9)
        sigma = math.sqrt(0.25 / 2000)
        assert abs(h.p0 - 0.5) <= 3 * sigma


def test_sample_rejects_invalid_state():
    with pytest.raises(InvalidStateError):
        exact_probability((1.2, 0.0, 0.0), "X")


def test_sample_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sample_basis(equator(0.1), "X", 0, seed=1)
    with pytest.raises(ValueError):
        exact_probability(equator(0.1), "Q")


def test_gate_level_path_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(50):
        b = polar_bloch(rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi),
                        rng.uniform(0.0, math.pi / 2))
        for basis in "XYZ":
            assert _gate_level_p0(b, basis) == pytest.approx(
                exact_probability(b, basis), abs=1e-12
            )


def test_sampling_deterministic_per_stream():
    h1 = sample_basis(equator(0.3), "X", 100, stream_rng(42, _STREAM_TAG["shots"], 2))
    h2 = sample_basis(equator(0.3), "X", 100, stream_rng(42, _STREAM_TAG["shots"], 2))
    assert h1.zeros == h2.zeros


# -- stream keys ---------------------------------------------------------------


def test_rekeyed_generator_draws_what_a_fresh_stream_draws():
    # whatever the reused generator drew before (a half-used Philox block, a
    # pending 32-bit half), re-keying makes it the fresh stream's equal
    keys = [(42, 5, 7), (42, 5, 8), (42, 4, 7), (-1, 5, 7), (2**64 - 1, 0, 0),
            (3, 2, 2**40), (42, 5, 7)]
    for seed, tag, step in keys:
        rng = rekeyed_rng(seed, tag, step)
        fresh = stream_rng(seed, tag, step)
        assert rng.bit_generator.state["state"]["key"].tolist() == [seed % 2**64, tag]
        assert rng.bit_generator.state["state"]["counter"].tolist() == [0, step, 0, 0]
        assert np.array_equal(rng.binomial(64, np.linspace(0.1, 0.9, 30).reshape(2, 15)),
                              fresh.binomial(64, np.linspace(0.1, 0.9, 30).reshape(2, 15)))
        assert np.array_equal(rng.random(5), fresh.random(5))
        assert rng.integers(0, 2**31, 3, dtype=np.uint32).tolist() == \
            fresh.integers(0, 2**31, 3, dtype=np.uint32).tolist()
    assert rekeyed_rng(1, 2, 3) is rekeyed_rng(4, 5, 6)  # one generator, re-keyed


def test_rekey_in_place_leaks_no_state_between_streams():
    # the one state dict is rewritten in place on every call: a pending
    # 32-bit half, or writes into the state arrays a caller read back, must
    # not carry over into the next key
    p = np.linspace(0.1, 0.9, 30).reshape(2, 15)
    for seed, tag, step in [(42, 5, 7), (43, 4, 2**40), (42, 5, 7)]:
        rng = rekeyed_rng(seed, tag, step)
        fresh = stream_rng(seed, tag, step)
        assert np.array_equal(rng.binomial(64, p), fresh.binomial(64, p))
        assert rng.integers(0, 2**31, dtype=np.uint32) == fresh.integers(0, 2**31, dtype=np.uint32)
        read = rng.bit_generator.state
        assert read["has_uint32"] == 1  # the other half stays pending
        for words in (read["state"]["key"], read["state"]["counter"], read["buffer"]):
            words[:] = 99


def test_clamped_is_np_clip_and_raises_exactly_beyond_tolerance():
    # in range, or within 1e-9 of it, the result is np.clip's bitwise (-0.0
    # stays -0.0); beyond the tolerance, or at a nan, it raises
    edge = [1.0, -1.0, 1 + 5e-10, -(1 + 5e-10), 1 + 2e-9, -(1 + 2e-9), -0.0, math.nan]
    for value in edge:
        e = np.array([0.25, value, -0.5, 0.75])
        grid = np.zeros((4, 6))
        grid[:, 3] = e
        for view in (e, grid[:, 3], np.stack((e, e[::-1])).T, e[::-2]):
            if not (np.abs(view) <= 1 + 1e-9).all():
                with pytest.raises(InvalidStateError, match="lies outside"):
                    measurement._clamped(view)
            else:
                assert measurement._clamped(view).tobytes() == np.clip(view, -1.0, 1.0).tobytes()


def test_clamped_returns_input_in_range_without_a_copy():
    e = np.array([0.25, 1.0, -1.0, -0.0, 0.75])
    grid = np.zeros((5, 6))
    grid[:, 3] = e
    for view in (e, grid[:, 3], np.stack((e, e[::-1])).T, e[::-2]):
        assert np.shares_memory(measurement._clamped(view), view)
    assert measurement._clamped(np.array([0.5, 1 + 5e-10])).tolist() == [0.5, 1.0]


@pytest.mark.parametrize("shots", [1, 16])
def test_sampler_rejects_a_nan_component(shots):
    # one shot would read a nan as a one, binomial as "p contains NaNs"
    for e in ([0.2, math.nan], np.array([[0.5, -0.1], [math.nan, 1.0]]).T, math.nan):
        with pytest.raises(InvalidStateError, match="nan"):
            _sample_zeros(stream_rng(1, 0), shots, e)
    with pytest.raises(InvalidStateError, match="nan"):
        sample_basis((math.nan, 0.0, 0.0), "X", shots, seed=1)


def one_shot_edges():
    """Components whose p = 0.5 * (1.0 + e) sits at an edge of numpy's
    inversion: 0 (no uniform taken), 1, 0.5 and both its neighbours, and the
    smallest p above 0 and the largest below 1.  No component gives a p
    between 0 and 2**-54, such as 1e-300: 1.0 + e rounds it to 0."""
    e = np.array([-1.0, 1.0, 0.0, -2.0**-53, 2.0**-52, -1.0 + 2.0**-53, 1.0 - 2.0**-52,
                  -0.0, 1e-300 - 1.0])
    p = 0.5 * (1.0 + e)
    assert p.tolist() == [0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                          2.0**-54, np.nextafter(1.0, 0.0), 0.5, 0.0]
    return e


def test_one_shot_draws_are_numpys_binomial_draws():
    # the edges, the eve stream's three components at phi = pi/6 and uniform
    # components, shuffled: each entry and the stream position after the
    # draw equal binomial(1, p)'s, for a contiguous and a strided (2, m) e
    rng = np.random.default_rng(33)
    stream = constant_phase_stream(math.pi / 6, rng.uniform(0.0, math.pi, 2000), 1.0)
    e = np.concatenate((np.repeat(one_shot_edges(), 300), stream.ravel(),
                        rng.uniform(-1.0, 1.0, 4000)))
    rng.shuffle(e)
    rows = np.zeros((e.size // 2, 3))
    rows[:, 2] = e[: e.size // 2]
    rows[:, 0] = e[e.size // 2:]
    for seed in range(8):
        for comps in (e, rows[:, ::2].T):
            got, want = stream_rng(seed, 5), stream_rng(seed, 5)
            zeros = _sample_zeros(got, 1, comps)
            assert zeros.shape == comps.shape
            assert np.array_equal(zeros, want.binomial(1, 0.5 * (1.0 + comps)))
            assert got.random() == want.random()
            # more shots stay numpy's binomial, bitwise and in dtype
            got, want = stream_rng(seed, 5), stream_rng(seed, 5)
            zeros = _sample_zeros(got, 2, comps)
            assert zeros.dtype == np.int64
            assert np.array_equal(zeros, want.binomial(2, 0.5 * (1.0 + comps)))
            assert got.random() == want.random()


def test_one_shot_basis_sample_is_numpys_binomial_draw():
    # a single component, a 0-d draw, from a Generator and from an int seed
    for seed in range(4):
        for e in one_shot_edges().tolist() + [0.3, -0.7]:
            got, want = stream_rng(seed, 5), stream_rng(seed, 5)
            h = sample_basis((0.0, e, 0.0), "Y", 1, got)
            assert h.zeros == want.binomial(1, 0.5 * (1.0 + e))
            assert got.random() == want.random()
            assert sample_basis((0.0, 0.0, e), "Z", 1, seed).zeros == \
                stream_rng(seed, _STREAM_TAG["Z"]).binomial(1, 0.5 * (1.0 + e))


def binomial_sampler(rng, shots, e):
    """The sampler as one binomial draw, the one-shot path's reference."""
    return rng.binomial(shots, 0.5 * (1.0 + _clamped(e)))


def test_one_shot_eve_report_equals_the_binomial_reference(monkeypatch):
    thetas = stream_rng(2, _STREAM_TAG["eve_theta"]).uniform(0.0, math.pi, 9001)
    stream = constant_phase_stream(math.pi / 6, thetas, 1.0)
    got = eve_intercept(stream, "cycle", shots_per_step=1, seed=4)
    monkeypatch.setattr(measurement, "_draw_zeros", binomial_sampler)
    want = eve_intercept(stream, "cycle", shots_per_step=1, seed=4)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


@pytest.mark.parametrize("step", [0, 1, 1023])
def test_step_streams_are_not_shifted_copies(step):
    # numpy's Philox adds 1 to counter word 0 every 4 outputs: with the step
    # there, step k+1's stream would be step k's without its first 4 outputs
    def raw(counter):
        bits = np.random.Philox(key=[9, _STREAM_TAG["shots"]], counter=counter)
        return bits.random_raw(12)

    assert np.array_equal(raw([step + 1, 0, 0, 0])[:8], raw([step, 0, 0, 0])[4:])
    now = stream_rng(9, _STREAM_TAG["shots"], step).bit_generator.random_raw(4000)
    later = stream_rng(9, _STREAM_TAG["shots"], step + 1).bit_generator.random_raw(4000)
    assert not np.isin(later[:4], now).any()


# -- twin estimator ----------------------------------------------------------


def test_qsdc_estimator_exact_equator():
    est = np.arctan2(math.sin(math.pi / 6), math.cos(math.pi / 6))
    assert est == pytest.approx(math.pi / 6, abs=1e-15)


def test_qsdc_estimator_cancels_coherence_magnitude():
    # mixed state r=0.8, theta=pi/3, phi=1: atan2 recovers phi exactly
    s = 0.8 * math.sin(math.pi / 3)
    sx, sy = s * math.cos(1.0), s * math.sin(1.0)
    assert sx == pytest.approx(0.3743, abs=5e-5)
    assert sy == pytest.approx(0.5830, abs=5e-5)
    est = np.arctan2(sy, sx)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_qsdc_estimator_sampled_accuracy():
    # 2000-shot trials at phi=pi/3: within 0.08 rad for >= 99/100 seeds
    b = equator(math.pi / 3)
    hits = 0
    for seed in range(100):
        cx = sample_basis(b, "X", 2000, stream_rng(seed, 0))
        cy = sample_basis(b, "Y", 2000, stream_rng(seed, 1))
        est = estimate_from_counts(cx, cy)
        hits += abs(est - math.pi / 3) <= 0.08
    assert hits >= 99


def test_qsdc_estimator_from_histograms():
    cx = CountHistogram(zeros=1500, ones=500)   # sx = 0.5
    cy = CountHistogram(zeros=1933, ones=67)    # sy ~ 0.933
    est = estimate_from_counts(cx, cy)
    assert est == pytest.approx(math.atan2(0.933, 0.5), abs=1e-12)


# -- legacy estimator --------------------------------------------------------


def test_qdc_estimator_equator_cases():
    assert qdc_from_expectation(math.cos(math.pi / 6)) == pytest.approx(
        math.pi / 6, abs=1e-12
    )
    assert qdc_from_expectation(1.0) == 0.0


def test_qdc_estimator_mixed_bias():
    est = qdc_from_expectation(0.8 * 0.5)
    assert est == pytest.approx(1.1593, abs=1e-4)
    assert est - math.pi / 3 == pytest.approx(0.112, abs=1e-3)


def test_qdc_estimator_clamps():
    assert qdc_from_expectation(1.0 + 1e-6) == 0.0


def test_qdc_bias_law_grid():
    # |arccos(s cos(phi)) - phi| over (s, phi) in [0.5,1]x[0.1,1.4]
    for s in np.linspace(0.5, 1.0, 6):
        for phi in np.linspace(0.1, 1.4, 8):
            est = qdc_from_expectation(s * math.cos(phi))
            expected = abs(math.acos(s * math.cos(phi)) - phi)
            assert abs(est - phi) == pytest.approx(expected, abs=1e-12)
            if s < 1.0:
                assert est > phi  # shrunken x reads as a larger angle


def test_estimator_error_scales_as_inverse_sqrt_shots():
    b = equator(math.pi / 3)
    shots_list = [100, 1000, 10000, 100000]
    errs = []
    for shots in shots_list:
        trial = []
        for seed in range(40):
            cx = sample_basis(b, "X", shots, stream_rng(seed, 0))
            cy = sample_basis(b, "Y", shots, stream_rng(seed, 1))
            trial.append(abs(estimate_from_counts(cx, cy) - math.pi / 3))
        errs.append(np.mean(trial))
    slope = np.polyfit(np.log(shots_list), np.log(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


# -- eavesdropper ------------------------------------------------------------


def test_eve_succeeds_against_equator_scheme():
    # theta pinned to pi/2 (legacy mode): arccos works for Eve
    stream = constant_phase_stream(math.pi / 6, np.full(2000, math.pi / 2), 1.0)
    rep = eve_intercept(stream, bases_policy="x", shots_per_step=1, seed=1)
    assert abs(rep.naive_phi - math.pi / 6) <= 0.03
    assert rep.shots_total == 2000


def test_eve_naive_estimator_biased_under_theta_randomization():
    # theta ~ U(0, pi): E[p0 - p1] = (2/pi) cos(phi) -> naive estimate 0.987
    rng = stream_rng(7, 4)
    thetas = rng.uniform(0.0, math.pi, 30000)
    stream = constant_phase_stream(math.pi / 6, thetas, 1.0)
    rep = eve_intercept(stream, bases_policy="cycle", shots_per_step=1, seed=7, exact=True)
    assert rep.naive_phi == pytest.approx(0.9868, abs=0.02)
    assert abs(rep.naive_phi - math.pi / 6) >= 0.3
    # the informed atan2 estimator is not defeated (documented honestly)
    assert abs(rep.informed_phi - math.pi / 6) <= 0.05


def test_eve_z_outcomes_indistinguishable_from_coin():
    rng = stream_rng(7, 4)
    thetas = rng.uniform(0.0, math.pi, 30000)
    stream = constant_phase_stream(math.pi / 6, thetas, 1.0)
    rep = eve_intercept(stream, bases_policy="cycle", shots_per_step=1, seed=7)
    z = rep.histograms["Z"]
    assert z.shots == 10000
    assert stats.binomtest(z.zeros, z.shots, 0.5).pvalue > 0.01
    assert rep.entropy_bits["Z"] >= 0.999


def test_eve_z_expectation_near_half_exact():
    rng = stream_rng(3, 4)
    thetas = rng.uniform(0.0, math.pi, 20000)
    stream = constant_phase_stream(0.9, thetas, 1.0)
    rep = eve_intercept(stream, bases_policy="z", shots_per_step=1, seed=3, exact=True)
    sigma = math.sqrt(0.5 / len(thetas))  # var(cos theta) = 1/2 under U(0,pi)
    assert abs(rep.exact_p0["Z"] - 0.5) <= 3 * sigma


def test_eve_entropy_bounds_and_json():
    rng = stream_rng(2, 4)
    thetas = rng.uniform(0.2, math.pi - 0.2, 999)
    rep = eve_intercept(constant_phase_stream(0.4, thetas, 1.0), bases_policy="cycle",
                        shots_per_step=3, seed=2)
    for bits in rep.entropy_bits.values():
        assert 0.0 <= bits <= 1.0
    d = rep.to_json_dict()
    assert set(d) == {"bases", "naive_phi", "informed_phi", "avg_bloch",
                      "entropy_bits", "shots_total"}
    assert set(d["bases"]) == {"X", "Y", "Z"}
    assert len(d["avg_bloch"]) == 3


@pytest.mark.parametrize("policy, null_fields", [
    ("x", {"informed_phi", "avg_bloch[1]", "avg_bloch[2]"}),
    ("y", {"naive_phi", "informed_phi", "avg_bloch[0]", "avg_bloch[2]"}),
    ("z", {"naive_phi", "informed_phi", "avg_bloch[0]", "avg_bloch[1]"}),
    ("xy", {"avg_bloch[2]"}),
])
@pytest.mark.parametrize("exact", [False, True])
def test_eve_unmeasured_estimates_are_null(policy, null_fields, exact):
    stream = constant_phase_stream(0.6, np.linspace(0.3, 2.8, 300), 1.0)
    d = eve_intercept(stream, bases_policy=policy, shots_per_step=5, seed=7,
                      exact=exact).to_json_dict()
    fields = {"naive_phi": d["naive_phi"], "informed_phi": d["informed_phi"],
              **{f"avg_bloch[{k}]": v for k, v in enumerate(d["avg_bloch"])}}
    assert {name for name, v in fields.items() if v is None} == null_fields
    assert all(math.isfinite(v) for v in fields.values() if v is not None)
    json.dumps(d, allow_nan=False)


def test_eve_deterministic_given_seed():
    stream = constant_phase_stream(0.6, np.linspace(0.3, 2.8, 300), 1.0)
    a = eve_intercept(stream, bases_policy="all", shots_per_step=5, seed=13)
    b = eve_intercept(stream, bases_policy="all", shots_per_step=5, seed=13)
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize("policy, measured", [
    ("all", {"X": 7, "Y": 7, "Z": 7}),
    ("xy", {"X": 4, "Y": 3}),
    ("z", {"Z": 7}),
])
def test_eve_basis_totals_follow_policy(monkeypatch, policy, measured):
    calls = []

    def counted(*key):
        calls.append(key)
        return np.random.default_rng(list(key))

    monkeypatch.setattr(measurement, "stream_rng", counted)
    stream = constant_phase_stream(0.6, np.linspace(0.3, 2.8, 7), 1.0)
    rep = eve_intercept(stream, bases_policy=policy, shots_per_step=5, seed=4)
    assert {b: h.shots for b, h in rep.histograms.items()} == {
        b: 5 * steps for b, steps in measured.items()}
    assert rep.shots_total == 5 * sum(measured.values())
    assert len(calls) == len(measured)  # one stream per measured basis, at most 3


@pytest.mark.parametrize("exact", [False, True])
def test_eve_rejects_a_nan_component(exact):
    # exact mode reported informed_phi and a mean of nan; cycle measures Y at
    # step 4, so its Z component is never read, and must still be a state
    for column, value, message in ((1, math.nan, "nan"), (2, math.nan, "nan"),
                                   (2, 1 + 1e-6, "lies outside")):
        stream = constant_phase_stream(0.4, np.full(7, 1.0), 1.0)
        stream[4, column] = value
        with pytest.raises(InvalidStateError, match=message):
            eve_intercept(stream, "cycle", shots_per_step=1, seed=1, exact=exact)


def test_eve_checks_the_stream_once(monkeypatch):
    # one range check of the whole stream; the draws take its basis views as
    # they are, unchecked again
    checked = []

    def counted(e):
        checked.append(np.shape(e))
        return _clamped(e)

    monkeypatch.setattr(measurement, "_clamped", counted)
    stream = constant_phase_stream(0.6, np.linspace(0.3, 2.8, 300), 1.0)
    for shots in (1, 3):
        checked.clear()
        eve_intercept(stream, "cycle", shots_per_step=shots, seed=2)
        assert checked == [(300, 3)]


def test_constant_phase_stream_is_the_row_formula_in_component_rows():
    # x = (r sin theta) cos phi, y = (r sin theta) sin phi, z = r cos theta,
    # bit for bit, each component one contiguous row of a (3, steps) block
    thetas = np.concatenate(([0.0, math.pi / 2, math.pi],
                             stream_rng(6, _STREAM_TAG["eve_theta"]).uniform(0.0, math.pi, 997)))
    for phi, r in ((math.pi / 6, 1.0), (0.6, 0.9), (math.pi, 0.3)):
        stream = constant_phase_stream(phi, thetas, r)
        rs = r * np.sin(thetas)
        want = np.stack((rs * math.cos(phi), rs * math.sin(phi), r * np.cos(thetas)), axis=1)
        assert stream.shape == want.shape and stream.tobytes() == want.tobytes()
        assert stream.T.flags.c_contiguous


def test_eve_empty_stream_rejected():
    with pytest.raises(ValueError):
        eve_intercept([], "cycle", 1, 0)


def test_eve_transposed_stream_rejected():
    # a (3, steps) stack is not (steps, 3) rows read in another order
    stream = constant_phase_stream(0.6, np.linspace(0.3, 2.8, 12), 1.0)
    with pytest.raises(ValueError, match="stream"):
        eve_intercept(stream.T, "cycle", 1, 0)


@pytest.mark.parametrize("shots", [0, -1])
def test_eve_sampling_needs_a_shot_per_step(shots):
    stream = constant_phase_stream(0.6, np.linspace(0.3, 2.8, 12), 1.0)
    with pytest.raises(ValueError, match="shots_per_step"):
        eve_intercept(stream, "cycle", shots, 0)
    assert eve_intercept(stream, "cycle", shots, 0, exact=True).shots_total == 0


def test_eve_counts_past_an_int64_stay_exact():
    # 2**63 - 1 shots a step: the int64 sum of three steps' counts wrapped,
    # reporting p0 0.2663, or raised "counts must be non-negative"
    stream = constant_phase_stream(math.pi / 6, np.full(30, math.pi / 2), 1.0)
    for steps in (3, 6, 30):
        rep = eve_intercept(stream[:steps], "x", 2**63 - 1, seed=7)
        assert rep.histograms["X"].shots == steps * (2**63 - 1)
        assert rep.histograms["X"].p0 == pytest.approx(rep.exact_p0["X"], abs=1e-6)


def test_eve_schedule_names_each_basis_in_at_most_one_slot():
    # eve_intercept reads the steps of a basis as one strided view
    for policy, schedule in _EVE_SCHEDULE.items():
        named = [basis for bases in schedule for basis in bases]
        assert len(named) == len(set(named)) and set(named) <= set(BASES), policy


def masked_eve_report(stream, bases_policy, shots_per_step, seed, exact):
    """The interception report through a (steps, basis) mask of the measured
    bases: counts by `mask.sum(axis=0)`, totals by an axis-0 sum of
    `np.where(mask, comps, 0.0)`, sampled components by boolean selection."""
    comps = _clamped(np.reshape(stream, (-1, len(BASES))))
    schedule = np.array([[b in bases for b in BASES] for bases in _EVE_SCHEDULE[bases_policy]])
    mask = schedule[np.arange(len(comps)) % len(schedule)]
    measured = mask.sum(axis=0).tolist()
    means = [total / count if count else None
             for total, count in zip(np.where(mask, comps, 0.0).sum(axis=0).tolist(), measured)]
    hist = {}
    if not exact:
        for k, basis in enumerate(BASES):
            if measured[k]:
                zeros = int(_sample_zeros(stream_rng(seed, _STREAM_TAG[basis]),
                                          shots_per_step, comps[mask[:, k], k]).sum())
                hist[basis] = CountHistogram(zeros, measured[k] * shots_per_step - zeros)
    ex, ey = (hist[basis].p0 - hist[basis].p1 if basis in hist else means[k]
              for k, basis in enumerate("XY"))
    exact_p0 = {basis: 0.5 * (1.0 + means[k]) for k, basis in enumerate(BASES) if measured[k]}
    return EveReport(
        histograms=hist,
        exact_p0=exact_p0,
        naive_phi=None if ex is None else math.acos(max(-1.0, min(1.0, ex))),
        informed_phi=None if None in (ex, ey) or ex == ey == 0.0 else math.atan2(ey, ex),
        avg_bloch=tuple(means),
        entropy_bits={basis: binary_entropy_bits(hist[basis].p0 if basis in hist else p0)
                      for basis, p0 in exact_p0.items()},
        shots_total=sum(h.shots for h in hist.values()),
    )


@pytest.mark.parametrize("policy", sorted(_EVE_SCHEDULE))
@pytest.mark.parametrize("exact", [False, True])
def test_eve_matches_the_masked_reference_exactly(policy, exact):
    # lengths below the longest period and not a multiple of it; the second
    # stream's x components are all -0.0 (theta 0, phi pi)
    for steps in (1, 2, 4, 7, 3001):
        thetas = stream_rng(5, _STREAM_TAG["eve_theta"]).uniform(0.0, math.pi, steps)
        for returned in (constant_phase_stream(0.6, thetas, r=0.9),
                         constant_phase_stream(math.pi, np.zeros(steps), 1.0)):
            # as returned and in C order: the layout changes no report
            for stream in (returned, np.ascontiguousarray(returned)):
                got = eve_intercept(stream, policy, shots_per_step=3, seed=11, exact=exact)
                want = masked_eve_report(stream, policy, 3, 11, exact)
                assert got.to_json_dict() == want.to_json_dict()
                assert got.exact_p0 == want.exact_p0
                # the text too: == does not tell -0.0 from 0.0
                assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def test_binary_entropy_edges():
    assert binary_entropy_bits(0.0) == 0.0
    assert binary_entropy_bits(1.0) == 0.0
    assert binary_entropy_bits(0.5) == pytest.approx(1.0)

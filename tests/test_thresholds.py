"""Threshold formulas, regime classification, and their structural properties."""

import math

import numpy as np
import pytest

import chemlevy as cl
from chemlevy import (
    CrispModel,
    IntervalNumber,
    JumpMark,
    JumpSpec,
    Regime,
    beta,
    classify,
    p_sweep,
    r0s,
    r1s,
)
from conftest import make_extinction, make_persistence, make_prey_only, random_crisp_model

I = IntervalNumber


def test_beta_vanishes_without_noise():
    model = make_extinction().with_sigmas(0.0, 0.0, 0.0)
    assert beta(model, 1) == 0.0
    assert beta(model, 2) == 0.0
    assert beta(model, 3) == 0.0


def test_beta_closed_form_with_jump():
    jumps = JumpSpec((JumpMark(1.0, 0.5, 0.5, 0.5),))
    model = make_extinction(jumps=jumps).with_sigmas(0.2, 0.2, 0.2)
    expected = 0.5 * 0.2 ** 2 + (0.5 - math.log(1.5))
    assert beta(model, 2) == pytest.approx(expected, rel=1e-12)
    assert beta(model, 2) == pytest.approx(0.114535, abs=1e-6)


def test_beta_jump_term_vanishes_at_zero_gamma():
    jumps = JumpSpec((JumpMark(1.0, 0.0, 0.0, 0.0),))
    model = make_extinction(jumps=jumps).with_sigmas(0.2, 0.2, 0.2)
    assert beta(model, 2) == pytest.approx(0.02, rel=1e-12)


def test_beta_index_validation():
    with pytest.raises(ValueError):
        beta(make_extinction(), 0)


def test_r0s_extinction_set():
    # independent recomputation: beta2 = sigma2^2/2, denominator D + beta2
    expected = 1.0 * 0.4 / (0.5 + 0.5 * 0.1 ** 2)
    value = r0s(make_extinction())
    assert value == pytest.approx(expected, rel=1e-13)
    assert value == pytest.approx(0.79208, abs=5e-6)


def test_r0s_persistence_set():
    expected = 4.0 * 1.0 / (0.2 + 0.005)
    assert r0s(make_persistence()) == pytest.approx(expected, rel=1e-13)
    assert r0s(make_persistence()) == pytest.approx(19.5122, abs=5e-5)


def test_r0s_noise_free_reduction():
    model = make_extinction().with_sigmas(0.0, 0.0, 0.0)
    assert r0s(model) == pytest.approx(model.S0 * model.m1 / model.D, rel=1e-14)


def test_r1s_persistence_set():
    expected = 4.0 * 1.0 * 0.6 * 0.5 / (0.6 * 0.5 * 0.205 + 1.0 * 0.205)
    value = r1s(make_persistence())
    assert value == pytest.approx(expected, rel=1e-13)
    assert value == pytest.approx(4.5028, abs=5e-5)


def test_r1s_extinction_set():
    expected = 1.0 * 0.4 * 0.3 * 0.5 / (0.3 * 0.5 * 0.505 + 0.4 * 0.505)
    value = r1s(make_extinction())
    assert value == pytest.approx(expected, rel=1e-13)
    assert value == pytest.approx(0.21602, abs=5e-6)


def test_r1s_approaches_r0s_for_large_m2():
    import dataclasses
    model = dataclasses.replace(make_persistence(), m2=1e6)
    assert r1s(model) == pytest.approx(r0s(model), rel=5e-5)
    assert r1s(model) < r0s(model)


def test_classify_extinction_regime():
    report = classify(make_extinction())
    assert report.regime is Regime.BOTH_EXTINCT
    preds = report.predictions
    # (D + beta2) * (R0s - 1) collapses to S0*m1 - (D + beta2) = -0.105 exactly
    assert preds.x_lyapunov_bound == pytest.approx(-0.105, rel=1e-12)
    assert preds.y_lyapunov_bound == pytest.approx(-0.505, rel=1e-12)
    assert preds.S_mean_limit == 1.0
    assert preds.x_mean_limit is None
    assert preds.y_mean_lower_bound is None


def test_classify_persistent_regime():
    report = classify(make_persistence())
    assert report.regime is Regime.PERSISTENT
    r1 = r1s(make_persistence())
    expected = (1.0 * 0.5 / (1.0 * 0.6 + 0.6 ** 2 * 0.5)) \
        * (0.6 * 0.5 * 0.205 / 1.0 + 0.205) * (r1 - 1.0)
    assert report.predictions.y_mean_lower_bound == pytest.approx(expected, rel=1e-12)
    assert report.predictions.y_mean_lower_bound == pytest.approx(0.598397435897, rel=1e-9)
    assert report.predictions.x_lyapunov_bound is None


def test_classify_prey_only_regime():
    report = classify(make_prey_only())
    assert report.regime is Regime.PREY_ONLY
    preds = report.predictions
    assert preds.S_mean_limit == pytest.approx(0.205, rel=1e-12)
    assert preds.x_mean_limit == pytest.approx(0.5 * (4.0 - 0.205), rel=1e-12)
    # bracket * (R1s - 1) collapses to (numerator - denominator)/m1 = -0.110125
    assert preds.y_lyapunov_bound == pytest.approx(-0.110125, rel=1e-12)
    assert preds.y_mean_lower_bound is None


def test_classify_boundary_at_threshold_one():
    import dataclasses
    base = make_extinction()
    s0 = (base.D + beta(base, 2)) / base.m1  # tunes R0s to 1 up to rounding
    report = classify(dataclasses.replace(base, S0=s0))
    assert report.regime is Regime.BOUNDARY
    assert report.predictions.present() == {}


def test_classify_is_deterministic_and_single_regime():
    rng = np.random.default_rng(5)
    for _ in range(200):
        model = random_crisp_model(rng)
        a = classify(model)
        b = classify(model)
        assert a == b
        assert isinstance(a.regime, Regime)


def test_beta_nonnegative_and_zero_iff_noise_free():
    rng = np.random.default_rng(17)
    for _ in range(500):
        model = random_crisp_model(rng)
        for i in (1, 2, 3):
            b = beta(model, i)
            assert b >= 0.0
            sigma = (model.sigma1, model.sigma2, model.sigma3)[i - 1]
            noise_free = sigma == 0.0 and all(m.gamma(i) == 0.0 for m in model.jumps.marks)
            assert (b == 0.0) == noise_free


def test_r1s_below_r0s_randomized():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        model = random_crisp_model(rng)
        assert r1s(model) < r0s(model)


def test_thresholds_decrease_in_sigma2_and_gamma2():
    base = make_persistence()
    sigmas = [0.0, 0.1, 0.3, 0.6, 1.0]
    r0_vals = [r0s(base.with_sigmas(0.1, s, 0.1)) for s in sigmas]
    r1_vals = [r1s(base.with_sigmas(0.1, s, 0.1)) for s in sigmas]
    assert all(a > b for a, b in zip(r0_vals, r0_vals[1:]))
    assert all(a > b for a, b in zip(r1_vals, r1_vals[1:]))

    def with_gamma2(g):
        return make_persistence(jumps=JumpSpec((JumpMark(1.0, 0.0, g, 0.0),)))

    r0_zero = r0s(with_gamma2(0.0))
    for g in (-0.5, -0.2, 0.3, 1.0):
        assert r0s(with_gamma2(g)) < r0_zero
        assert r1s(with_gamma2(g)) < r1s(with_gamma2(0.0))


def imprecise_for_sweep():
    return cl.ImpreciseModel(
        S0=1.0, D=I(0.4, 0.6), m1=I(0.3, 0.7), delta1=I(0.4, 0.6),
        sigma1=I(0.05, 0.15), m2=I(0.2, 0.4), delta2=I(0.4, 0.6),
        sigma2=I(0.05, 0.15), sigma3=I(0.05, 0.15))


def test_threshold_continuity_in_p():
    model = imprecise_for_sweep()
    grid = np.linspace(0.0, 1.0, 101)
    rows = p_sweep(model, grid, None, 0)
    r0_vals = np.array([row.report.R0s for row in rows])
    r1_vals = np.array([row.report.R1s for row in rows])
    assert np.max(np.abs(np.diff(r0_vals))) < 0.05
    assert np.max(np.abs(np.diff(r1_vals))) < 0.05


def test_threshold_sweep_ordering_and_endpoints():
    model = imprecise_for_sweep()
    rows = p_sweep(model, [1.0, 0.0, 0.5], None, 0)
    assert [row.p for row in rows] == [0.0, 0.5, 1.0]
    crisp0 = cl.crispify(model, 0.0)
    assert rows[0].report == classify(crisp0)

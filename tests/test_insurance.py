"""Tests for the exponential-hazard insurance valuation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from longplan.insurance import (
    HazardModel,
    McEstimate,
    analytic_discount_factor,
    estimate_discount_factor,
    expected_strike_year,
    spread_linear_coefficient,
    spread_variance_coefficient,
    strike_time_from_latent,
    survival_prob,
)
from longplan.lifecycle import LifecycleConfig, RiskyAssetSummary, solve_lifecycle

BASE = HazardModel(h=0.06, r=0.03, L=30.0, s=0.5, horizon_M=30)


def _geometric_sum(q: float, n: int) -> float:
    # sum_{i=1..n} q^i
    return q * (1.0 - q**n) / (1.0 - q)


def test_strike_time_median_latent():
    # y=0 maps to the median strike time ln(2)/h
    assert strike_time_from_latent(0.0, 0.06) == pytest.approx(
        math.log(2) / 0.06, rel=1e-12)


def test_strike_time_deep_left_tail():
    assert strike_time_from_latent(-3.0, 0.06) == pytest.approx(0.02251, abs=5e-6)


def test_strike_time_scales_inversely_with_hazard():
    rng = np.random.default_rng(2)
    ys = rng.standard_normal(50)
    t1 = strike_time_from_latent(ys, 0.05)
    t2 = strike_time_from_latent(ys, 0.10)
    np.testing.assert_allclose(t1, 2.0 * t2, rtol=1e-12)


def test_strike_time_far_right_tail_is_finite():
    # the survival-function formulation stays accurate where 1-Phi(y)
    # underflows naive computation
    t = strike_time_from_latent(8.0, 0.06)
    assert np.isfinite(t)
    assert t > 100.0


def test_survival_examples():
    assert survival_prob(BASE, 0.0) == 1.0
    assert survival_prob(BASE, 1.0) == pytest.approx(math.exp(-0.06), rel=1e-12)
    assert survival_prob(BASE, 30.0) == pytest.approx(math.exp(-1.8), rel=1e-12)
    with pytest.raises(ValueError):
        survival_prob(BASE, -1.0)


def test_analytic_discount_factor():
    assert analytic_discount_factor(BASE) == pytest.approx(2.0 / 3.0, rel=1e-14)
    zero_r = HazardModel(h=0.06, r=0.0, L=30.0, s=0.5, horizon_M=30)
    assert analytic_discount_factor(zero_r) == pytest.approx(1.0, rel=1e-14)


def test_estimate_matches_analytic_within_three_se():
    est = estimate_discount_factor(BASE, n_draws=10_000, seed=0)
    assert abs(est.value - 2.0 / 3.0) <= 3.0 * est.std_error
    assert est.n_draws == 10_000 and est.seed == 0


def test_estimate_zero_rate_is_exactly_one():
    model = HazardModel(h=0.06, r=0.0, L=30.0, s=0.5, horizon_M=30)
    est = estimate_discount_factor(model, n_draws=100, seed=5)
    assert est.value == pytest.approx(1.0, rel=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)


def test_estimate_deterministic_given_seed():
    a = estimate_discount_factor(BASE, n_draws=2_000, seed=123)
    b = estimate_discount_factor(BASE, n_draws=2_000, seed=123)
    c = estimate_discount_factor(BASE, n_draws=2_000, seed=124)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.value != c.value


@pytest.mark.parametrize("name, call", [
    ("n_draws", lambda: estimate_discount_factor(BASE, 10.5, 0)),
    ("n_draws", lambda: estimate_discount_factor(BASE, float("nan"), 0)),
    ("n_draws", lambda: estimate_discount_factor(BASE, 0, 0)),
    ("n_draws", lambda: estimate_discount_factor(BASE, "100", 0)),
    ("seed", lambda: expected_strike_year(BASE, 100, float("inf"))),
    ("seed", lambda: expected_strike_year(BASE, 100, None)),
    ("seed", lambda: expected_strike_year(BASE, 100, 1.5)),
    ("seed", lambda: expected_strike_year(BASE, 100, -1)),
    ("n_draws", lambda: solve_lifecycle(LifecycleConfig(), RiskyAssetSummary(0.08, 0.012),
                                        mc_kstart=True, mc_draws=100.5)),
], ids=["fractional_draws", "nan_draws", "no_draws", "text_draws", "infinite_seed", "no_seed",
        "fractional_seed", "negative_seed", "solve_lifecycle"])
def test_draw_counts_and_seeds_must_be_integers(name, call):
    # a fractional or negative value fails at the boundary, naming the
    # argument, not deep in numpy
    with pytest.raises(ValueError, match=name):
        call()


def test_whole_draw_counts_and_seeds_become_ints():
    est = estimate_discount_factor(BASE, 100.0, np.int64(5))
    assert type(est.n_draws) is int and type(est.seed) is int
    assert est == estimate_discount_factor(BASE, np.int64(100), 5.0)
    assert est == estimate_discount_factor(BASE, 100, 5)
    # numpy takes a seed of any size
    assert estimate_discount_factor(BASE, 100, 2**80).seed == 2**80


def test_estimate_coverage_over_many_seeds():
    hits = sum(
        abs(estimate_discount_factor(BASE, 10_000, seed).value - 2 / 3)
        <= 3 * estimate_discount_factor(BASE, 10_000, seed).std_error
        for seed in range(100)
    )
    assert hits >= 99


def test_strike_times_pass_ks_against_exponential():
    from numpy.random import default_rng
    from scipy.stats import norm
    rng = default_rng(0)
    y = norm.ppf(rng.random(10_000))
    t = strike_time_from_latent(y, 0.06)
    grid = np.sort(t)
    empirical = np.arange(1, t.size + 1) / t.size
    model_cdf = 1.0 - np.exp(-0.06 * grid)
    ks = np.abs(empirical - model_cdf).max()
    assert ks < 1.6276 / math.sqrt(t.size)  # 1% critical value


def test_value_monotone_in_rates():
    # analytic: decreasing in r, increasing in h
    for r1, r2 in [(0.01, 0.02), (0.03, 0.05)]:
        m1 = HazardModel(h=0.06, r=r1, L=30, s=0.5, horizon_M=30)
        m2 = HazardModel(h=0.06, r=r2, L=30, s=0.5, horizon_M=30)
        assert analytic_discount_factor(m1) > analytic_discount_factor(m2)
    for h1, h2 in [(0.04, 0.06), (0.06, 0.10)]:
        m1 = HazardModel(h=h1, r=0.03, L=30, s=0.5, horizon_M=30)
        m2 = HazardModel(h=h2, r=0.03, L=30, s=0.5, horizon_M=30)
        assert analytic_discount_factor(m1) < analytic_discount_factor(m2)
    # paired MC with common random numbers preserves the ordering
    lo = estimate_discount_factor(
        HazardModel(h=0.06, r=0.05, L=30, s=0.5, horizon_M=30), 5_000, 7)
    hi = estimate_discount_factor(
        HazardModel(h=0.06, r=0.01, L=30, s=0.5, horizon_M=30), 5_000, 7)
    assert hi.value > lo.value


def test_expected_strike_year_default_model():
    assert expected_strike_year(BASE, n_draws=10_000, seed=0) == 17
    assert expected_strike_year(BASE, n_draws=10_000, seed=0) == 17  # stable


def test_expected_strike_year_unit_hazard():
    model = HazardModel(h=1.0, r=0.03, L=1.0, s=0.1, horizon_M=5)
    year = expected_strike_year(model, n_draws=20_000, seed=3)
    assert year in (1, 2)


def test_spread_linear_coefficient_geometric_series():
    expected = (2.0 / 3.0) * 30.0 - 0.5 * _geometric_sum(math.exp(-0.06), 30)
    assert spread_linear_coefficient(BASE) == pytest.approx(expected, rel=1e-12)
    # the survival series itself: e^{-0.06}(1-e^{-1.8})/(1-e^{-0.06}) ~= 13.499
    assert _geometric_sum(math.exp(-0.06), 30) == pytest.approx(13.499, abs=5e-4)
    assert spread_linear_coefficient(BASE) == pytest.approx(13.2507, abs=5e-5)


def test_spread_linear_coefficient_no_spread():
    model = HazardModel(h=0.06, r=0.03, L=30.0, s=0.0, horizon_M=30)
    assert spread_linear_coefficient(model) == pytest.approx(20.0, rel=1e-12)
    nil = HazardModel(h=0.06, r=0.03, L=0.0, s=0.0, horizon_M=30)
    assert spread_linear_coefficient(nil) == 0.0


def test_spread_linear_coefficient_injectable_discount():
    got = spread_linear_coefficient(BASE, v_discount=0.6629)
    expected = 0.6629 * 30.0 - 0.5 * _geometric_sum(math.exp(-0.06), 30)
    assert got == pytest.approx(expected, rel=1e-12)


def test_spread_variance_coefficient_two_series():
    survival = _geometric_sum(math.exp(-0.06), 30)
    squared = _geometric_sum(math.exp(-0.12), 30)
    expected = 0.25 * (survival - squared)
    assert spread_variance_coefficient(BASE) == pytest.approx(expected, rel=1e-12)
    assert spread_variance_coefficient(BASE) == pytest.approx(1.467371, abs=1e-6)
    none = HazardModel(h=0.06, r=0.03, L=30.0, s=0.0, horizon_M=30)
    assert spread_variance_coefficient(none) == 0.0


def test_spread_variance_vanishes_for_huge_hazard():
    model = HazardModel(h=50.0, r=0.03, L=30.0, s=0.5, horizon_M=30)
    assert spread_variance_coefficient(model) < 1e-20


def test_model_validation():
    with pytest.raises(ValueError):
        HazardModel(h=0.0, r=0.03, L=30.0, s=0.5, horizon_M=30)
    with pytest.raises(ValueError):
        HazardModel(h=0.06, r=-0.01, L=30.0, s=0.5, horizon_M=30)
    with pytest.raises(ValueError):
        HazardModel(h=0.06, r=0.03, L=-1.0, s=0.5, horizon_M=30)
    with pytest.raises(ValueError):
        HazardModel(h=0.06, r=0.03, L=30.0, s=0.5, horizon_M=0)


@pytest.mark.parametrize("field, value", [
    ("h", math.inf), ("h", math.nan), ("r", math.inf), ("r", math.nan),
    ("L", math.inf), ("L", math.nan), ("s", math.inf), ("s", math.nan),
])
def test_model_rejects_a_non_finite_field(field, value):
    terms = dict(h=0.06, r=0.03, L=30.0, s=0.5, horizon_M=30)
    terms[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        HazardModel(**terms)


@pytest.mark.parametrize("build, message", [
    (lambda: McEstimate(value=0.5, std_error=-0.1, n_draws=10, seed=0),
     "std_error must be nonnegative"),
    (lambda: McEstimate(value=0.5, std_error=0.1, n_draws=0, seed=0), "n_draws must be positive"),
    (lambda: strike_time_from_latent(0.0, 0.0), "hazard rate h must be positive"),
    (lambda: strike_time_from_latent(0.0, -0.06), "hazard rate h must be positive"),
])
def test_boundary_errors_name_their_cause(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()

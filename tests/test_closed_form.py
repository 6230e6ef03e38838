"""Tests for the closed-form mean-variance quantities."""

from __future__ import annotations

import numpy as np
import pytest

from longplan.market import AssetStats
from longplan.closed_form import (
    DegenerateFrontierError,
    SingularCovarianceError,
    TangencyUndefinedError,
    frontier_constants,
    tangency_expected_return,
    tangency_portfolio,
    unconstrained_frontier_variance,
)


def _stats(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    ids = [f"A{i}" for i in range(mu.size)]
    return AssetStats(asset_ids=ids, mu=mu, sigma=sigma)


IDENTITY = _stats([0.10, 0.05], np.eye(2))
DIAG = _stats([0.10, 0.05], np.diag([0.04, 0.09]))


def test_constants_identity_sigma():
    k = frontier_constants(IDENTITY, 0.02)
    assert k.A == pytest.approx(0.15, abs=1e-12)
    assert k.B == pytest.approx(0.0125, abs=1e-12)
    assert k.C == pytest.approx(2.0, abs=1e-12)
    assert k.D == pytest.approx(0.0025, abs=1e-12)
    assert k.H == pytest.approx(0.0073, abs=1e-12)


def test_constants_diagonal_sigma():
    k = frontier_constants(DIAG, 0.02)
    assert k.A == pytest.approx(3.0556, abs=1e-4)
    assert k.B == pytest.approx(0.27778, abs=1e-5)
    assert k.C == pytest.approx(36.111, abs=1e-3)
    assert k.H == pytest.approx(0.17, abs=1e-10)


def test_h_zero_when_no_excess():
    stats = _stats([0.02, 0.02], np.diag([0.04, 0.09]))
    k = frontier_constants(stats, 0.02)
    assert abs(k.H) < 1e-14


def test_tangency_two_asset_hand_computed():
    p = tangency_portfolio(DIAG, 0.02)
    np.testing.assert_allclose(p.weights, [6 / 7, 1 / 7], atol=1e-10)
    assert p.mean == pytest.approx(0.0928571428, abs=1e-9)
    assert p.sharpe == pytest.approx(np.sqrt(0.17), abs=1e-10)


def test_tangency_single_asset():
    p = tangency_portfolio(_stats([0.08], [[0.05]]), 0.02)
    np.testing.assert_allclose(p.weights, [1.0], atol=1e-12)


def test_tangency_symmetric_assets_split_evenly():
    stats = _stats([0.08, 0.08], np.diag([0.05, 0.05]))
    p = tangency_portfolio(stats, 0.02)
    np.testing.assert_allclose(p.weights, [0.5, 0.5], atol=1e-12)


def test_tangency_undefined_when_rf_at_gmv_mean():
    k = frontier_constants(DIAG, 0.02)
    gmv_mean = k.A / k.C
    with pytest.raises(TangencyUndefinedError):
        tangency_portfolio(DIAG, gmv_mean)
    with pytest.raises(TangencyUndefinedError):
        tangency_portfolio(DIAG, gmv_mean + 0.01)


def test_tangency_undefined_when_every_asset_earns_r_f():
    # H = 0 with r_f one ulp below A/C, so the A/C test lets it through
    stats = _stats([0.1], [[1.0]])
    with pytest.raises(TangencyUndefinedError, match="^H = 0: all assets earn exactly r_f$"):
        tangency_portfolio(stats, np.nextafter(0.1, 0.0))


def test_singular_sigma_rejected():
    sigma = np.array([[0.04, 0.04], [0.04, 0.04]])
    with pytest.raises(SingularCovarianceError):
        frontier_constants(_stats([0.10, 0.05], sigma), 0.02)


def test_frontier_variance_identity_sigma():
    k = frontier_constants(IDENTITY, 0.02)
    assert unconstrained_frontier_variance(k, 0.075) == pytest.approx(0.5, abs=1e-12)
    assert unconstrained_frontier_variance(k, 0.10) == pytest.approx(1.0, abs=1e-12)


def test_frontier_variance_parabola_symmetry():
    k = frontier_constants(DIAG, 0.02)
    center = k.A / k.C
    for delta in (0.005, 0.01, 0.02):
        lo = unconstrained_frontier_variance(k, center - delta)
        hi = unconstrained_frontier_variance(k, center + delta)
        assert lo == pytest.approx(hi, rel=1e-12)
    assert unconstrained_frontier_variance(k, center) == pytest.approx(
        1.0 / k.C, rel=1e-12)


def test_frontier_degenerate_when_means_collinear():
    stats = _stats([0.07, 0.07], np.diag([0.04, 0.09]))
    k = frontier_constants(stats, 0.02)
    with pytest.raises(DegenerateFrontierError):
        unconstrained_frontier_variance(k, 0.08)


def test_random_instances_identities():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n + 2, n))
        sigma = g.T @ g / (n + 2) + 0.05 * np.eye(n)
        mu = rng.uniform(0.02, 0.15, size=n)
        stats = _stats(mu, sigma)
        k = frontier_constants(stats, 0.0)
        r_f = k.A / k.C - abs(k.A / k.C) * 0.5 - 0.01
        k = frontier_constants(stats, r_f)
        p = tangency_portfolio(stats, r_f)
        assert abs(p.weights.sum() - 1.0) <= 1e-10
        assert p.sharpe**2 == pytest.approx(k.H, rel=1e-8)
        # rational form of the tangency mean agrees with the reported mean
        rational = (k.B - k.A * r_f) / (k.A - k.C * r_f)
        assert tangency_expected_return(k) == pytest.approx(rational, rel=1e-10)
        assert p.mean == pytest.approx(rational, rel=1e-8)


def test_sigma_rescaling_invariance():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 4))
    sigma = g.T @ g / 6 + 0.05 * np.eye(4)
    mu = rng.uniform(0.03, 0.12, size=4)
    stats = _stats(mu, sigma)
    scaled = _stats(mu, 3.0 * sigma)
    p1 = tangency_portfolio(stats, 0.01)
    p2 = tangency_portfolio(scaled, 0.01)
    np.testing.assert_allclose(p1.weights, p2.weights, atol=1e-10)
    k1 = frontier_constants(stats, 0.01)
    k2 = frontier_constants(scaled, 0.01)
    assert unconstrained_frontier_variance(k2, 0.06) == pytest.approx(
        3.0 * unconstrained_frontier_variance(k1, 0.06), rel=1e-10)


def test_uncorrected_weight_formula_needs_offset():
    """The naive weights Σ⁻¹e·(E_M − r_f)/H do not sum to one in general;
    the implemented offset form Σ⁻¹(e − r_f·1)·(E_M − r_f)/H does."""
    stats = DIAG
    r_f = 0.02
    k = frontier_constants(stats, r_f)
    e_m = tangency_expected_return(k)
    inv = np.linalg.inv(stats.sigma)
    naive = inv @ stats.mu * (e_m - r_f) / k.H
    offset = inv @ (stats.mu - r_f) * (e_m - r_f) / k.H
    assert abs(naive.sum() - 1.0) > 1e-3
    assert abs(offset.sum() - 1.0) <= 1e-10
    np.testing.assert_allclose(
        tangency_portfolio(stats, r_f).weights, offset, atol=1e-10)

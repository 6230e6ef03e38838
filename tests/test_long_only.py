"""Tests for long-only Sharpe maximization and frontier tracing."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from longplan.market import AssetStats, estimate_stats, load_returns
from longplan import long_only, qp
from longplan.report import SAMPLE_RETURNS
from longplan.closed_form import frontier_constants, tangency_portfolio
from longplan.long_only import (
    ConstrainedFrontier,
    DegenerateSupportError,
    FrontierPoint,
    InfeasibleTargetError,
    NoExcessReturnError,
    long_only_gmv,
    max_sharpe_long_only,
    min_variance_at_return,
    trace_frontier,
)
from oracles import simplex_grid_best_sharpe


def _stats(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return AssetStats(asset_ids=[f"A{i}" for i in range(mu.size)],
                      mu=mu, sigma=sigma)


DIAG = _stats([0.10, 0.05], np.diag([0.04, 0.09]))


def test_interior_optimum_matches_unconstrained_tangency():
    fund = max_sharpe_long_only(DIAG, 0.02)
    np.testing.assert_allclose(fund.weights, [6 / 7, 1 / 7], atol=1e-8)
    assert fund.sharpe == pytest.approx(np.sqrt(0.17), abs=1e-8)


def test_corner_optimum_when_second_asset_drags():
    stats = _stats([0.10, 0.01], np.diag([0.04, 0.09]))
    fund = max_sharpe_long_only(stats, 0.02)
    np.testing.assert_allclose(fund.weights, [1.0, 0.0], atol=1e-9)
    assert fund.sharpe == pytest.approx(0.40, abs=1e-9)


def test_identical_assets_get_equal_weights():
    sigma = np.full((3, 3), 0.02) + np.diag([0.03, 0.03, 0.03])
    stats = _stats([0.08, 0.08, 0.08], sigma)
    fund = max_sharpe_long_only(stats, 0.02)
    np.testing.assert_allclose(fund.weights, [1 / 3] * 3, atol=1e-8)


def test_no_asset_beats_riskless_rate():
    stats = _stats([0.02, 0.01], np.diag([0.04, 0.09]))
    with pytest.raises(NoExcessReturnError):
        max_sharpe_long_only(stats, 0.05)


def test_weights_clamped_and_renormalized():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 5))
    stats = _stats(rng.uniform(0.02, 0.12, 5), g.T @ g / 8 + 0.02 * np.eye(5))
    fund = max_sharpe_long_only(stats, 0.01)
    assert (fund.weights >= 0.0).all()           # never dust below zero
    assert fund.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert ((fund.weights == 0.0) | (fund.weights > 1e-9)).all()


def test_sharpe_never_exceeds_unconstrained():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n + 2, n))
        sigma = g.T @ g / (n + 2) + 0.03 * np.eye(n)
        stats = _stats(rng.uniform(0.02, 0.15, n), sigma)
        k = frontier_constants(stats, 0.01)
        fund = max_sharpe_long_only(stats, 0.01)
        assert fund.sharpe <= np.sqrt(k.H) + 1e-8
        tang = tangency_portfolio(stats, 0.01)
        if (tang.weights >= 0).all():
            np.testing.assert_allclose(fund.weights, tang.weights, atol=1e-6)


def test_grid_search_oracle_three_assets():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = rng.standard_normal((5, 3))
        sigma = g.T @ g / 5 + 0.03 * np.eye(3)
        stats = _stats(rng.uniform(0.03, 0.18, 3), sigma)
        fund = max_sharpe_long_only(stats, 0.01)
        grid = simplex_grid_best_sharpe(stats.mu, stats.sigma, 0.01)
        assert fund.sharpe >= grid - 5e-4


def test_support_restriction_is_subuniverse_tangency():
    rng = np.random.default_rng(37)
    for _ in range(10):
        g = rng.standard_normal((7, 4))
        sigma = g.T @ g / 7 + 0.03 * np.eye(4)
        stats = _stats(rng.uniform(0.02, 0.15, 4), sigma)
        fund = max_sharpe_long_only(stats, 0.01)
        support = fund.weights > 0
        if support.sum() < 2:
            continue
        sub = AssetStats(
            asset_ids=[a for a, s in zip(stats.asset_ids, support) if s],
            mu=stats.mu[support],
            sigma=stats.sigma[np.ix_(support, support)])
        sub_tangency = tangency_portfolio(sub, 0.01)
        np.testing.assert_allclose(fund.weights[support],
                                   sub_tangency.weights, atol=1e-6)


def test_min_variance_forced_corner_at_max_mean():
    point = min_variance_at_return(DIAG, 0.10)
    np.testing.assert_allclose(point.weights, [1.0, 0.0], atol=1e-9)
    assert point.variance == pytest.approx(0.04, abs=1e-9)


def test_min_variance_below_gmv_returns_gmv_point():
    # the mean constraint is one-sided (achieved mean >= target), so any
    # target below the long-only GMV mean yields the GMV portfolio
    gmv = long_only_gmv(DIAG)
    np.testing.assert_allclose(gmv.weights, [0.692308, 0.307692], atol=1e-6)
    assert gmv.variance == pytest.approx(0.027692, abs=1e-6)
    for target in (0.06, 0.075):
        point = min_variance_at_return(DIAG, target)
        np.testing.assert_allclose(point.weights, gmv.weights, atol=1e-8)
        assert point.variance == pytest.approx(gmv.variance, abs=1e-10)


def test_min_variance_above_max_mean_infeasible():
    with pytest.raises(InfeasibleTargetError):
        min_variance_at_return(DIAG, 0.11)


def test_trace_frontier_grid_and_monotonicity():
    frontier = trace_frontier(DIAG, 3)
    targets = [p.mu_target for p in frontier.points]
    np.testing.assert_allclose(targets, [0.084615, 0.092308, 0.10], atol=1e-6)
    variances = [p.variance for p in frontier.points]
    assert variances == sorted(variances)
    assert frontier.gmv_point.variance <= min(variances) + 1e-9


def test_trace_frontier_two_points_endpoints():
    frontier = trace_frontier(DIAG, 2)
    assert len(frontier.points) == 2
    assert frontier.points[0].mu_target == pytest.approx(0.0846153846, abs=1e-9)
    assert frontier.points[-1].mu_target == pytest.approx(0.10, abs=1e-12)


def test_trace_frontier_single_asset_degenerate():
    stats = _stats([0.07], [[0.05]])
    frontier = trace_frontier(stats, 4)
    assert len(frontier.points) == 1
    np.testing.assert_allclose(frontier.points[0].weights, [1.0])


def test_frontier_point_mean_attained():
    rng = np.random.default_rng(51)
    g = rng.standard_normal((6, 4))
    stats = _stats(rng.uniform(0.02, 0.12, 4), g.T @ g / 6 + 0.03 * np.eye(4))
    for point in trace_frontier(stats, 8).points:
        achieved = float(stats.mu @ point.weights)
        assert achieved >= point.mu_target - 1e-9
        assert point.weights.min() >= -1e-9
        assert point.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_sample_fund_and_frontier_solve_no_lp():
    # every QP starts from a point known to be feasible: the fund and the
    # GMV from the least-variance vertex of the budget row a'y = 1, the path
    # from the GMV; the fund is one QP, and the frontier is one GMV solve
    # plus one path, not a QP per target
    stats = estimate_stats(load_returns(SAMPLE_RETURNS, 12))
    with mock.patch("longplan.qp._phase1", wraps=qp._phase1) as phase1:
        with mock.patch("longplan.long_only.solve_qp", wraps=long_only.solve_qp) as fund_qp:
            max_sharpe_long_only(stats, 0.025)
        with mock.patch("longplan.long_only.solve_qp", wraps=long_only.solve_qp) as solve_qp, \
                mock.patch("longplan.long_only.solve_qp_path",
                           wraps=long_only.solve_qp_path) as solve_qp_path:
            frontier = trace_frontier(stats, 30)
    assert len(frontier.points) == 30
    assert phase1.call_count == 0
    assert fund_qp.call_count == 1
    assert solve_qp.call_count == 1
    assert solve_qp_path.call_count == 1


def test_one_convexity_check_per_frontier():
    # the GMV is the target QP's optimum at min(e), and the path moves that
    # same problem's target, so one QpProblem checks Q once
    stats = estimate_stats(load_returns(SAMPLE_RETURNS, 12))
    with mock.patch("numpy.linalg.eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        trace_frontier(stats, 30)
    assert eigvalsh.call_count == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_gmv_is_the_target_qp_at_the_least_mean(n, seed):
    # on a positive-definite Sigma no two assets are copies, so the GMV and
    # the target QP at min(e) are one solve of one problem from one start
    rng = np.random.default_rng(seed)
    g = rng.normal(1.0, 0.3, (3, n)) * 0.05
    stats = _stats(rng.uniform(0.02, 0.12, n), g.T @ g + np.diag(rng.uniform(0.0005, 0.004, n)))
    gmv = long_only_gmv(stats)
    point = min_variance_at_return(stats, float(stats.mu.min()))
    np.testing.assert_array_equal(gmv.weights, point.weights)
    assert gmv.variance == pytest.approx(point.variance, rel=1e-12, abs=0)


def test_sample_frontier_verifies_each_segment_in_one_batch():
    # the critical-line pass has no stop, so its targets wait for the
    # path's end and are verified in one _finish call, whatever segment
    # each falls on
    stats = estimate_stats(load_returns(SAMPLE_RETURNS, 12))
    batches, finish = [], qp._finish

    def recording(problem, points):
        batches.append(sum(group.xs.shape[0] for group in points))
        return finish(problem, points)

    with mock.patch("longplan.qp._finish", recording):
        trace_frontier(stats, 30)
    # the GMV's solve_qp is a batch of one, and the path's 29 points follow
    assert batches == [1, 29]


def _uniform_start_gmv(stats):
    """The GMV's QP solved from uniform weights, its weight shared among
    exact copies as long_only_gmv shares it."""
    n = stats.mu.shape[0]
    problem = long_only._budget_problem(stats, np.ones(n))
    x = qp.solve_qp(problem, start=np.full(n, 1.0 / n)).x
    return long_only._clamp_and_renormalize(long_only._copy_sharing(stats.sigma) @ x)


@st.composite
def gmv_covariances(draw):
    """(stats, pair): a PD factor-model Sigma with N in 2..12 and pair None,
    or, half the time, a PD Sigma on N - 1 assets with one of them copied
    (a singular Sigma) and pair the indexes of the two copies."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    copied = draw(st.booleans())
    base = n - 1 if copied else n
    g = rng.normal(1.0, 0.3, (3, base)) * 0.05
    sigma = g.T @ g + np.diag(rng.uniform(0.0005, 0.004, base))
    pair = None
    if copied:
        copy = rng.integers(base)
        order = rng.permutation(np.r_[0:base, copy])
        sigma = sigma[np.ix_(order, order)]
        pair = np.flatnonzero(order == copy)
    return _stats(rng.uniform(0.02, 0.12, n), sigma), pair


def _gmv_copied_case(seed):
    """(stats, pair): a PD factor-model Sigma on N - 1 assets, N in 3..12,
    with one asset copied, pair the indexes of the two copies, and means
    drawn for all N assets, so the copies' means differ."""
    rng = np.random.default_rng(seed)
    base = int(rng.integers(3, 13)) - 1
    g = rng.normal(1.0, 0.3, (3, base)) * 0.05
    sigma = g.T @ g + np.diag(rng.uniform(0.0005, 0.004, base))
    copy = rng.integers(base)
    order = rng.permutation(np.r_[0:base, copy])
    return (_stats(rng.uniform(0.02, 0.12, base + 1), sigma[np.ix_(order, order)]),
            np.flatnonzero(order == copy))


# Seeds whose GMV holds copies of one Sigma row unequally unless the
# sharing ignores the means, which the GMV's QP never sees.
@example(_gmv_copied_case(5373))
@example(_gmv_copied_case(19239))
@settings(max_examples=150, deadline=None)
@given(gmv_covariances())
def test_gmv_start_reaches_the_uniform_start_gmv(case):
    # the start changes the path, not the GMV; the start, a vertex, holds
    # one copy of an asset alone, and the copy sharing evens them out
    stats, pair = case
    w = long_only_gmv(stats).weights
    np.testing.assert_allclose(w, _uniform_start_gmv(stats), rtol=0, atol=1e-10)
    if pair is not None:
        assert w[pair[0]] == pytest.approx(w[pair[1]], rel=0, abs=1e-10)


def test_gmv_start_takes_fewer_events_than_uniform_weights():
    # a seeded 3-factor model with N = 30: the GMV holds 7 assets and the
    # fund at r_f = 0.02 holds 5; from uniform weights the other 23 leave
    # one event at a time, and from the least-variance vertex the GMV takes
    # 7 events and the fund 5
    rng = np.random.default_rng(2)
    returns = (rng.normal(0.0, 0.03, (120, 3)) @ rng.normal(1.0, 0.3, (3, 30))
               + rng.uniform(0.003, 0.012, 30) + rng.normal(0.0, 1.0, (120, 30))
               * rng.uniform(0.02, 0.06, 30))
    centered = returns - returns.mean(axis=0)
    stats = _stats(returns.mean(axis=0) * 12.0, centered.T @ centered / 119 * 12.0)
    solutions = []

    def recording(problem, *, start):
        solutions.append(qp.solve_qp(problem, start=start))
        return solutions[-1]

    with mock.patch("longplan.long_only.solve_qp", recording):
        w = long_only_gmv(stats).weights
        fund = max_sharpe_long_only(stats, 0.02).weights
    uniform = qp.solve_qp(long_only._budget_problem(stats, np.ones(30)),
                          start=np.full(30, 1.0 / 30))
    assert np.count_nonzero(w) == 7 and np.count_nonzero(fund) == 5
    np.testing.assert_allclose(w, _uniform_start_gmv(stats), rtol=0, atol=1e-12)
    assert solutions[0].iterations < uniform.iterations
    assert solutions[0].iterations <= 7 and solutions[1].iterations <= 5


# Sigma on three assets, the first and last copies of one another: the
# fund's optimal face is the segment between them, and its midpoint is
# the best point of a 0.001-step simplex grid
COPIED_PAIR = _stats([0.05, 0.04, 0.05],
                     np.array([[1.33, 1.0, 1.33], [1.0, 1.88, 1.0], [1.33, 1.0, 1.33]]) / 100)


@example((COPIED_PAIR, np.array([0, 2])), 0.01)
@settings(max_examples=150, deadline=None)
@given(gmv_covariances(), st.floats(0.0, 0.1))
def test_fund_gives_copies_equal_weights_and_beats_the_frontier(case, r_f):
    # the fund is one QP, its weight on exact copies of one asset shared
    # equally; it is the best Sharpe ratio on the simplex, so no frontier
    # point beats it
    stats, pair = case
    if pair is not None:
        # a copy has its original's mean too
        mu = stats.mu.copy()
        mu[pair[1]] = mu[pair[0]]
        stats = _stats(mu, stats.sigma)
    assume(float(stats.mu.max()) > r_f)
    fund = max_sharpe_long_only(stats, r_f)
    if pair is not None:
        assert fund.weights[pair[0]] == pytest.approx(fund.weights[pair[1]], rel=0, abs=1e-10)
    for point in trace_frontier(stats, 12).points:
        sharpe = (float(stats.mu @ point.weights) - r_f) / np.sqrt(point.variance)
        assert fund.sharpe >= sharpe - 1e-9


def test_fund_on_a_copied_pair_is_the_grid_optimum():
    fund = max_sharpe_long_only(COPIED_PAIR, 0.01)
    np.testing.assert_allclose(fund.weights, [0.5, 0.0, 0.5], rtol=0, atol=1e-10)
    assert fund.sharpe == pytest.approx(0.3468440, abs=1e-7)
    grid = simplex_grid_best_sharpe(COPIED_PAIR.mu, COPIED_PAIR.sigma, 0.01, step=0.001)
    assert fund.sharpe == pytest.approx(grid, rel=0, abs=1e-12)


def _copied_asset_case(seed):
    """(stats, pair, r_f): a PD factor-model Sigma and means on N - 1 assets,
    N in 3..12, with one asset and its mean copied, pair the indexes of the
    two copies, and r_f in [0, 0.1)."""
    rng = np.random.default_rng(seed)
    base = int(rng.integers(3, 13)) - 1
    g = rng.normal(1.0, 0.3, (3, base)) * 0.05
    sigma = g.T @ g + np.diag(rng.uniform(0.0005, 0.004, base))
    mu = rng.uniform(0.02, 0.12, base)
    copy = rng.integers(base)
    order = rng.permutation(np.r_[0:base, copy])
    return (_stats(mu[order], sigma[np.ix_(order, order)]), np.flatnonzero(order == copy),
            rng.uniform(0.0, 0.1))


@example(2997)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_frontier_points_share_weight_among_copies(seed):
    # every point of the one-pass frontier holds exact copies equally, as
    # min_variance_at_return does at its target; on case 2997 the pass
    # ends at max(e) holding one copy alone
    stats, pair, _ = _copied_asset_case(seed)
    for point in trace_frontier(stats, 6).points:
        w = point.weights
        assert w[pair[0]] == pytest.approx(w[pair[1]], rel=0, abs=1e-12)


def test_exact_copies_share_their_weight():
    # on each of these the solver reaches an optimum that holds one copy
    # alone: the GMV of case 5373; the fund of case 3944, whose start holds
    # neither copy, and of case 1782, whose start is the first copy's
    # vertex; and the target QP at the best mean, which starts there too
    stats, pair, _ = _copied_asset_case(5373)
    results = [(long_only_gmv(stats).weights, pair)]
    for seed in (3944, 1782):
        stats, pair, r_f = _copied_asset_case(seed)
        results.append((max_sharpe_long_only(stats, r_f).weights, pair))
    results.append((min_variance_at_return(COPIED_PAIR, 0.05).weights, [0, 2]))
    for w, pair in results:
        assert w[pair[0]] > 0.0
        assert w[pair[0]] == pytest.approx(w[pair[1]], rel=0, abs=1e-12)


def test_fund_keeps_its_sharpe_where_the_start_exposed_a_drop_cycle():
    # the data of tests/test_qp.py::test_newton_drop_rate_is_relative_to_the_step
    returns = np.array([
        [2.5, -0.5, 0.8, 0.6, -0.5, -1.3, -2.2, -0.7, 0.6],
        [-0.7, -2.2, -1.1, -1.5, 0.0, -0.4, 0.9, -0.5, -0.9],
        [3.5, 3.6, 2.7, 2.9, -0.1, -1.4, 0.7, -1.0, -1.6],
        [2.8, 2.1, 1.6, 1.4, 1.5, 0.9, -0.6, -0.9, 0.6],
        [1.6, 0.6, 2.2, 2.7, 0.8, 0.3, -1.2, -1.1, 0.5]])
    centered = returns - returns.mean(axis=0)
    stats = _stats([0.56, 0.97, 0.47, 0.8, 0.16, 0.67, 0.17, 0.4, 0.39], centered.T @ centered)
    assert max_sharpe_long_only(stats, 0.3).sharpe == pytest.approx(3.8608233, abs=1e-7)


@pytest.mark.parametrize("r_f", [np.nan, np.inf, -np.inf])
def test_fund_rejects_a_non_finite_riskless_rate(r_f):
    with pytest.raises(ValueError, match="^r_f must be finite") as raised:
        max_sharpe_long_only(DIAG, r_f)
    assert not isinstance(raised.value, qp.QpError)


@pytest.mark.parametrize("mu_target", [np.nan, np.inf, -np.inf])
def test_min_variance_rejects_a_non_finite_target(mu_target):
    with pytest.raises(ValueError, match="^mu_target must be finite") as raised:
        min_variance_at_return(DIAG, mu_target)
    assert not isinstance(raised.value, qp.QpError)


@st.composite
def frontier_stats(draw):
    """AssetStats with N in 1..40: a sample covariance of T > N factor-model
    returns (PD), of T <= N returns (rank-deficient), or a PD covariance in
    which every asset loads on asset 0 with beta > 1, so the long-only GMV
    is the single-asset vertex e_0; some instances tie the maximum mean."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("pd", "rank_deficient", "vertex")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "vertex":
        beta = np.r_[1.0, rng.uniform(1.2, 2.0, n - 1)]
        sigma = 0.02 * np.outer(beta, beta) + np.diag(rng.uniform(0.001, 0.004, n))
        sigma[0, 0] = 0.0201
        mu = rng.uniform(0.02, 0.15, n)
    else:
        periods = draw(st.integers(n + 1, n + 40)) if kind == "pd" or n == 1 \
            else draw(st.integers(2, n))
        mu, sigma = _sample_moments(rng, n, periods)
    if n > 1 and draw(st.booleans()):
        best = int(np.argmax(mu))
        mu[(best + 1) % n] = mu[best]
    return _stats(mu, sigma)


def _sample_moments(rng, n, periods):
    """(mu, Sigma) annualized from `periods` monthly 3-factor returns on n
    assets, Sigma of rank min(n, periods - 1)."""
    returns = (rng.normal(0.008, 0.03, (periods, 3)) @ rng.normal(1.0, 0.3, (3, n))
               + rng.normal(0.0, 1.0, (periods, n)) * rng.uniform(0.02, 0.06, n))
    centered = returns - returns.mean(axis=0)
    sigma = centered.T @ centered / (periods - 1) * 12.0
    return returns.mean(axis=0) * 12.0, (sigma + sigma.T) / 2.0


# The GMV at a single-asset vertex: on that one-asset face the budget and
# target rows are dependent, and the path must let asset 1 enter there.
@example(_stats([0.05, 0.10], [[0.01, 0.015], [0.015, 0.09]]), 7)
# A rank-3 Sigma on 28 assets: on a near-singular face of the path, where
# the step reaches 5e4, a bound's multiplier falls at a rate of -2.8e-9,
# rounding that a drop rule blind to the step's size takes for a drop;
# the next face adds the bound back at once, and the two repeat until the
# event cap.
@example(_stats(*_sample_moments(np.random.default_rng(4), 28, 4)), 2)
@settings(max_examples=60, deadline=None)
@given(frontier_stats(), st.integers(2, 30))
def test_frontier_matches_per_target_solves(stats, n_points):
    # Where Sigma is singular on the optimal face the optimum is not
    # unique: the path returns the point it reaches from the GMV, and only
    # the variance is compared
    frontier = trace_frontier(stats, n_points)
    scale = float(np.abs(stats.sigma).max())
    lam_max = float(np.linalg.eigvalsh(stats.sigma).max())
    max_e = float(stats.mu.max())
    for point in frontier.points:
        # when all means are equal the frontier is the GMV alone, whose
        # mean can exceed max(e) by rounding
        ref = min_variance_at_return(stats, min(point.mu_target, max_e))
        assert point.variance == pytest.approx(ref.variance, rel=1e-9, abs=1e-12 * scale)
        support = (point.weights > 0.0) | (ref.weights > 0.0)
        block = stats.sigma[np.ix_(support, support)]
        if np.linalg.eigvalsh(block).min() > 1e-6 * lam_max:
            np.testing.assert_allclose(point.weights, ref.weights, rtol=0, atol=1e-7)


def _gmv_of_diag():
    return FrontierPoint(mu_target=0.084615, variance=0.027692, weights=[0.7, 0.3])


@pytest.mark.parametrize("build, error, message", [
    (lambda: FrontierPoint(0.1, 0.04, [[1.0]]), ValueError, "weights must be a vector"),
    (lambda: FrontierPoint(0.1, 0.04, [1.1, -0.1]), ValueError,
     r"weights must be nonnegative \(within 1e-9\)"),
    (lambda: FrontierPoint(0.1, 0.04, [0.5, 0.4]), ValueError, "weights must sum to 1 within 1e-9"),
    (lambda: FrontierPoint(0.1, -1e-9, [1.0, 0.0]), ValueError, "variance must be nonnegative"),
    (lambda: ConstrainedFrontier(points=(), gmv_point=_gmv_of_diag()), ValueError,
     "frontier must contain at least one point"),
    (lambda: ConstrainedFrontier(points=(_gmv_of_diag(), _gmv_of_diag()), gmv_point=_gmv_of_diag()),
     ValueError, "mu_targets must be strictly ascending"),
    (lambda: ConstrainedFrontier(points=(FrontierPoint(0.09, 0.02, [0.8, 0.2]),),
                                 gmv_point=_gmv_of_diag()),
     ValueError, "no frontier point may beat the GMV variance"),
    # a riskless asset that beats r_f makes the Sharpe ratio unbounded
    (lambda: max_sharpe_long_only(_stats([0.10, 0.05], np.diag([0.0, 0.04])), 0.02),
     DegenerateSupportError, "covariance is singular on the optimal support"),
])
def test_boundary_errors_name_their_cause(build, error, message):
    with pytest.raises(error, match=f"^{message}"):
        build()

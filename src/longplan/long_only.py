"""Sharpe maximization and efficient frontiers under a no-short-sale rule.

Both portfolios are one solve of the budget QP

    minimize y' Sigma y   subject to  a'y = 1,  y >= 0

The global-minimum-variance (GMV) portfolio has a = 1.  By the standard
homogenization of the quasiconcave Sharpe ratio, whenever some asset beats
r_f the optimum with a = e - r_f 1, normalized by its sum, is the global
Sharpe maximizer over the simplex {w : 1'w = 1, w >= 0}.  Every budget QP
starts from the vertex y = e_k / a_k (a_k > 0) of least variance
Sigma_kk / a_k^2 that meets its other rows, the least k on a tie: a
long-only optimum holds few assets, so few events lead there.  Where the
optimum is not unique the point returned is the one reached from that
start, its weight shared equally among exact copies of one asset, the
assets the QP cannot tell apart: equal rows of Sigma for the GMV, and
equal means too for the fund and the frontier.

Frontier points add the row e'w >= mu_target to a = 1, whose ">=" makes
the curve flat below the GMV mean instead of bending back.  trace_frontier
solves it for every target in one critical-line pass: from the GMV, the
target's right-hand side runs up to max(e) (qp.solve_qp_path), and between
turning points, where an asset enters or leaves the support, the weights
are affine in the target.  min_variance_at_return solves one target alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import PortfolioWeights
from .market import AssetStats
from .qp import QpProblem, STATUS_OPTIMAL, QpError, solve_qp, solve_qp_path

# Reported weights below this are solver dust and get clamped to zero.
WEIGHT_CLAMP = 1e-9


class NoExcessReturnError(ValueError):
    """No asset expected return exceeds the riskless rate."""


class InfeasibleTargetError(ValueError):
    """Requested mean exceeds every asset's expected return."""


class DegenerateSupportError(RuntimeError):
    """Covariance is singular on the optimal support; Sharpe is unbounded."""


@dataclass(frozen=True)
class FrontierPoint:
    """One traced frontier point: minimal variance at a target mean."""

    mu_target: float
    variance: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if float(w.min(initial=0.0)) < -WEIGHT_CLAMP:
            raise ValueError("weights must be nonnegative (within 1e-9)")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 within 1e-9")
        if self.variance < -1e-12:
            raise ValueError("variance must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mu_target", float(self.mu_target))
        object.__setattr__(self, "variance", float(self.variance))


@dataclass(frozen=True)
class ConstrainedFrontier:
    """Ordered long-only frontier plus its global-minimum-variance point."""

    points: tuple[FrontierPoint, ...]
    gmv_point: FrontierPoint

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("frontier must contain at least one point")
        targets = [p.mu_target for p in points]
        if any(b <= a for a, b in zip(targets, targets[1:])):
            raise ValueError("mu_targets must be strictly ascending")
        floor = self.gmv_point.variance - 1e-9
        if any(p.variance < floor for p in points):
            raise ValueError("no frontier point may beat the GMV variance")
        object.__setattr__(self, "points", points)


def _budget_problem(stats: AssetStats, a: np.ndarray, a_in=None, b_in=None) -> QpProblem:
    """Minimize y'Sigma y subject to a'y = 1, y >= 0 and any rows a_in y >= b_in."""
    n = stats.mu.shape[0]
    return QpProblem(
        Q=2.0 * stats.sigma,
        c=np.zeros(n),
        a_eq=a[None, :],
        b_eq=np.array([1.0]),
        a_in=a_in,
        b_in=b_in,
        lb=np.zeros(n),
    )


def _copy_sharing(problem: QpProblem) -> np.ndarray:
    """The matrix that shares weight equally among the exact copies of one
    asset, the variables with equal columns of [Q; a_eq; a_in]: a budget QP
    (c = 0, y >= 0) cannot tell them apart, so sharing moves neither its
    objective nor any of its rows."""
    columns = np.vstack([problem.Q, problem.a_eq, problem.a_in]).T
    copies = (columns[:, None, :] == columns[None, :, :]).all(axis=2)
    return copies / copies.sum(axis=1, keepdims=True)


def _vertex_start(problem: QpProblem) -> np.ndarray:
    """The vertex y = e_k / a_k of the budget row a'y = 1 (a_k > 0) that
    meets every other row a_in y >= b_in and has the least variance
    Sigma_kk / a_k^2, the least k on a tie; every caller has such a k."""
    a = problem.a_eq[0]
    inverse = np.divide(1.0, a, out=np.zeros_like(a), where=a > 0.0)
    meets = (a > 0.0) & np.all(problem.a_in * inverse >= problem.b_in[:, None], axis=0)
    k = int(np.argmin(np.where(meets, np.diag(problem.Q) * inverse**2, np.inf)))
    return np.eye(a.shape[0])[k] * inverse[k]


def _budget_min_variance(stats: AssetStats, a: np.ndarray, a_in=None, b_in=None) -> np.ndarray:
    """The budget QP's optimum from its least-variance vertex, its weight
    shared equally among exact copies of one asset."""
    problem = _budget_problem(stats, a, a_in, b_in)
    sol = solve_qp(problem, start=_vertex_start(problem))
    if sol.status != STATUS_OPTIMAL:
        raise QpError(f"minimum-variance QP returned status {sol.status!r}")
    return _copy_sharing(problem) @ sol.x


def _clamp_and_renormalize(w: np.ndarray) -> np.ndarray:
    """w with its entries below WEIGHT_CLAMP set to zero, rescaled to sum
    to 1; each row on its own for a stack of weight vectors."""
    w = np.where(w < WEIGHT_CLAMP, 0.0, w)
    total = w.sum(axis=-1, keepdims=True)
    if not (total > 0.0).all():
        raise QpError("all weights clamped to zero; solution is degenerate")
    return w / total


def max_sharpe_long_only(stats: AssetStats, r_f: float) -> PortfolioWeights:
    """Globally maximize (e'w - r_f) / sqrt(w'Sigma w) over the simplex.

    Parameters
    ----------
    stats : AssetStats
        Annualized means and covariance.
    r_f : float
        Riskless rate in the same (annualized) units.

    Returns
    -------
    PortfolioWeights
        Optimal long-only weights with recomputed mean, variance and Sharpe.

    Raises
    ------
    NoExcessReturnError
        If no asset beats the riskless rate (the homogenization is invalid
        and the maximal Sharpe would be nonpositive).
    DegenerateSupportError
        If the optimum has zero variance, making the ratio unbounded.
    ValueError
        If r_f is not finite.

    Notes
    -----
    One solve of the budget QP with a = e - r_f from the best-Sharpe asset.
    Where its optimal face holds more than one point (singular Sigma,
    copied assets), the point returned is the one reached from the start,
    with its weight on exact copies of one asset shared equally.
    """
    r_f = float(r_f)
    if not np.isfinite(r_f):
        raise ValueError(f"r_f must be finite, got {r_f!r}")
    excess = stats.mu - r_f
    if float(excess.max()) <= 0.0:
        raise NoExcessReturnError("no asset beats the riskless rate")
    w = _clamp_and_renormalize(_budget_min_variance(stats, excess))
    mean = float(stats.mu @ w)
    variance = float(w @ stats.sigma @ w)
    if variance <= 1e-14 * max(1.0, float(np.abs(stats.sigma).max())):
        raise DegenerateSupportError(
            "covariance is singular on the optimal support; "
            "the Sharpe ratio is unbounded"
        )
    sharpe = (mean - r_f) / np.sqrt(variance)
    return PortfolioWeights(weights=w, mean=mean, variance=variance,
                            sharpe=float(sharpe))


def min_variance_at_return(stats: AssetStats, mu_target: float) -> FrontierPoint:
    """Minimum-variance long-only portfolio with mean at least mu_target.

    The target enters as e'w >= mu_target, so for targets below the
    long-only GMV mean the constraint is slack and the GMV point comes back.
    It starts from the least-variance asset whose mean reaches mu_target.

    Raises
    ------
    InfeasibleTargetError
        If mu_target exceeds max(e): no fully-invested long-only portfolio
        can attain it.
    ValueError
        If mu_target is not finite.
    """
    mu_target = float(mu_target)
    if not np.isfinite(mu_target):
        raise ValueError(f"mu_target must be finite, got {mu_target!r}")
    max_e = float(stats.mu.max())
    if mu_target > max_e:
        raise InfeasibleTargetError(
            f"target mean {mu_target:.6g} exceeds the best asset mean "
            f"{max_e:.6g}; no long-only portfolio attains it"
        )
    x = _budget_min_variance(stats, np.ones_like(stats.mu), a_in=stats.mu[None, :],
                             b_in=np.array([mu_target]))
    return _frontier_points(stats, np.array([mu_target]), x[None])[0]


def _frontier_points(stats: AssetStats, targets: np.ndarray,
                     xs: np.ndarray) -> list[FrontierPoint]:
    """The frontier points of the QP optima xs, one per row, at targets,
    clamped, all priced in one pass."""
    ws = _clamp_and_renormalize(xs)
    variances = np.einsum("ij,ij->i", ws @ stats.sigma, ws)
    achieved = ws @ stats.mu
    short = np.flatnonzero(achieved < targets - 1e-9)
    if short.size:
        j = short[0]
        raise QpError(
            f"achieved mean {achieved[j]:.9g} fell below target {targets[j]:.9g}"
        )
    return [FrontierPoint(mu_target=t, variance=v, weights=w)
            for t, v, w in zip(targets, variances, ws)]


def long_only_gmv(stats: AssetStats) -> FrontierPoint:
    """Global minimum-variance point of the simplex-constrained frontier.

    The budget QP with a = 1, from the fund's start rule: the single asset
    of least variance.
    """
    w = _clamp_and_renormalize(_budget_min_variance(stats, np.ones_like(stats.mu)))
    return FrontierPoint(mu_target=float(stats.mu @ w),
                         variance=float(w @ stats.sigma @ w), weights=w)


def trace_frontier(stats: AssetStats, n_points: int) -> ConstrainedFrontier:
    """Trace the long-only frontier on an even mean grid in one pass.

    Targets are evenly spaced on [long-only GMV mean, max(e)].  The first
    point is the GMV itself, and one critical-line pass from it gives the
    others: the target row's right-hand side runs from the GMV mean to
    max(e) (solve_qp_path), and between turning points the weights are
    affine in the target.  Each point is the optimum min_variance_at_return
    finds for its target; where Sigma is singular on the optimal face, it
    is the point the pass reaches from the GMV, its weight shared equally
    among exact copies of one asset.  When the two endpoints coincide
    (single asset, or all means equal) the frontier degenerates to the
    single GMV point.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    gmv = long_only_gmv(stats)
    max_e = float(stats.mu.max())
    if max_e - gmv.mu_target <= 1e-12 * max(1.0, abs(max_e)):
        return ConstrainedFrontier(points=(gmv,), gmv_point=gmv)
    targets = np.linspace(gmv.mu_target, max_e, n_points)[1:]
    problem = _budget_problem(stats, np.ones_like(stats.mu), stats.mu[None, :],
                              np.array([gmv.mu_target]))
    path = solve_qp_path(problem, np.array([max_e - gmv.mu_target]),
                         np.linspace(0.0, 1.0, n_points)[1:], start=gmv.weights)
    xs = np.stack([sol.x for sol in path]) @ _copy_sharing(problem).T
    return ConstrainedFrontier(points=(gmv, *_frontier_points(stats, targets, xs)), gmv_point=gmv)

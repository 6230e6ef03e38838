"""Sharpe maximization and efficient frontiers under a no-short-sale rule.

Each portfolio is one solve of a budget QP of one of two shapes:

    fund:    minimize y' Sigma y  subject to  a'y = 1,  y >= 0
    target:  minimize w' Sigma w  subject to  1'w = 1,  e'w >= b,  w >= 0

By the standard homogenization of the quasiconcave Sharpe ratio, whenever
some asset beats r_f the fund's optimum with a = e - r_f 1, normalized by
its sum, is the global Sharpe maximizer over the simplex.  The target
row's ">=" makes the frontier flat below the global-minimum-variance (GMV)
mean instead of bending back; at b = min(e) the row is slack on the whole
simplex, so that QP's optimum is the GMV.  Every QP starts from the vertex
y = e_k / a_k (a_k > 0) of least variance Sigma_kk / a_k^2 that meets its
target row, the least k on a tie: a long-only optimum holds few assets, so
few events lead there.  Where the optimum is not unique the point returned
is the one reached from that start, its weight shared equally among exact
copies of one asset, the assets the QP cannot tell apart: equal columns of
Sigma for the GMV, whose target row does not bind, else of [Sigma; e].

trace_frontier solves the target QP for every target in one critical-line
pass (Markowitz 1956): from the GMV, b runs from min(e) up to max(e)
(qp.solve_qp_path), and between turning points, where an asset enters or
leaves the support, the weights are affine in the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._counts import whole
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


def _budget_problem(stats: AssetStats, a: np.ndarray, b_in=None) -> QpProblem:
    """Minimize y'Sigma y subject to a'y = 1, y >= 0 and any target row e'y >= b_in."""
    n = stats.mu.shape[0]
    return QpProblem(
        Q=2.0 * stats.sigma,
        c=np.zeros(n),
        a_eq=a[None, :],
        b_eq=np.array([1.0]),
        a_in=None if b_in is None else stats.mu[None, :],
        b_in=None if b_in is None else np.array([b_in]),
        lb=np.zeros(n),
    )


def _copy_sharing(columns: np.ndarray) -> np.ndarray:
    """The matrix that shares weight equally among the assets with equal
    columns of `columns`, those a budget QP cannot tell apart, so sharing
    moves neither its objective nor any row that binds."""
    copies = (columns.T[:, None, :] == columns.T[None, :, :]).all(axis=2)
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


def _budget_min_variance(problem: QpProblem, columns: np.ndarray) -> np.ndarray:
    """The budget QP's optimum from its least-variance vertex, its weight
    shared equally among the assets with equal columns of columns."""
    sol = solve_qp(problem, start=_vertex_start(problem))
    if sol.status != STATUS_OPTIMAL:
        raise QpError(f"minimum-variance QP returned status {sol.status!r}")
    return _copy_sharing(columns) @ sol.x


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
    w = _clamp_and_renormalize(_budget_min_variance(_budget_problem(stats, excess),
                                                    np.vstack([stats.sigma, stats.mu])))
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
    x = _budget_min_variance(_budget_problem(stats, np.ones_like(stats.mu), mu_target),
                             np.vstack([stats.sigma, stats.mu]))
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

    The target QP at mu_target = min(e), where the target row is slack on
    the whole simplex, from its least-variance vertex.  Its weight is
    shared equally among assets with equal columns of Sigma, whatever
    their means: that row does not bind, so the QP cannot tell them apart.
    """
    return _gmv_point(stats, _budget_problem(stats, np.ones_like(stats.mu), stats.mu.min()))


def _gmv_point(stats: AssetStats, problem: QpProblem) -> FrontierPoint:
    """The GMV point: the optimum of problem, the target QP at min(e)."""
    w = _clamp_and_renormalize(_budget_min_variance(problem, stats.sigma))
    return FrontierPoint(mu_target=float(stats.mu @ w),
                         variance=float(w @ stats.sigma @ w), weights=w)


def trace_frontier(stats: AssetStats, n_points: int) -> ConstrainedFrontier:
    """Trace the long-only frontier on an even mean grid in one pass.

    Targets are evenly spaced on [long-only GMV mean, max(e)].  One target
    QP gives every point: its optimum at b_in = min(e) is the GMV, the
    first point, and one critical-line pass (solve_qp_path) moves b_in from
    there up to max(e), the row binding from the GMV mean on.  Each point
    is the optimum min_variance_at_return finds for its target; where Sigma
    is singular on the optimal face, it is the point the pass reaches from
    the GMV, its weight shared equally among exact copies of one asset.
    When the two endpoints coincide (single asset, or all means equal) the
    frontier degenerates to the single GMV point.  n_points is a whole
    number >= 2.
    """
    n_points = whole("n_points", n_points, 2)
    min_e, max_e = float(stats.mu.min()), float(stats.mu.max())
    problem = _budget_problem(stats, np.ones_like(stats.mu), min_e)
    gmv = _gmv_point(stats, problem)
    if max_e - gmv.mu_target <= 1e-12 * max(1.0, abs(max_e)):
        return ConstrainedFrontier(points=(gmv,), gmv_point=gmv)
    targets = np.linspace(gmv.mu_target, max_e, n_points)[1:]
    path = solve_qp_path(problem, np.array([max_e - min_e]),
                         (targets - min_e) / (max_e - min_e), start=gmv.weights)
    xs = np.stack([sol.x for sol in path]) @ _copy_sharing(np.vstack([stats.sigma, stats.mu])).T
    return ConstrainedFrontier(points=(gmv, *_frontier_points(stats, targets, xs)), gmv_point=gmv)

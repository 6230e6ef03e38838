"""Sharpe maximization and efficient frontiers under a no-short-sale rule.

The feasible set is the simplex {w : 1'w = 1, w >= 0}.  Maximizing the
Sharpe ratio over it is a quasiconcave ratio problem; instead of a direct
nonlinear solve we use the standard homogenization: whenever some asset has
positive excess return, the solution of

    minimize y' Sigma y   subject to  (e - r_f 1)' y = 1,  y >= 0

normalized by its coordinate sum is the global Sharpe maximizer.  Frontier
points come from the direct quadratic program

    minimize w' Sigma w   subject to  e'w >= mu_target, 1'w = 1, w >= 0

whose ">=" target constraint makes the curve flat below the long-only
global-minimum-variance mean instead of bending back.  trace_frontier
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


def _simplex_problem(stats: AssetStats, a_in=None, b_in=None) -> QpProblem:
    """Minimize w'Sigma w over the simplex, optionally with extra rows."""
    n = stats.mu.shape[0]
    return QpProblem(
        Q=2.0 * stats.sigma,
        c=np.zeros(n),
        a_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        a_in=a_in,
        b_in=b_in,
        lb=np.zeros(n),
    )


def _simplex_min_variance(stats: AssetStats, start: np.ndarray,
                          a_in=None, b_in=None) -> np.ndarray:
    """The simplex QP's optimum from a start that is feasible for it."""
    sol = solve_qp(_simplex_problem(stats, a_in, b_in), start=start)
    if sol.status != STATUS_OPTIMAL:
        raise QpError(f"simplex variance QP returned status {sol.status!r}")
    return sol.x


def _clamp_and_renormalize(w: np.ndarray) -> np.ndarray:
    w = np.where(w < WEIGHT_CLAMP, 0.0, w)
    total = float(w.sum())
    if total <= 0.0:
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

    Notes
    -----
    When the optimal face of the homogenized QP contains more than one point
    (exchangeable assets, repeated columns), a second solve picks the
    minimum-norm point of that face, so symmetric instances return the
    symmetric (equal-weight) answer rather than an arbitrary vertex.
    """
    excess = stats.mu - r_f
    if float(excess.max()) <= 0.0:
        raise NoExcessReturnError("no asset beats the riskless rate")
    n = excess.shape[0]
    zeros = np.zeros(n)
    homogenized = QpProblem(
        Q=2.0 * stats.sigma,
        c=zeros,
        a_eq=excess[None, :],
        b_eq=np.array([1.0]),
        lb=zeros,
    )
    # All weight on the asset with the largest excess return meets the row.
    best = int(np.argmax(excess))
    sol = solve_qp(homogenized, start=np.eye(n)[best] / excess[best])
    if sol.status != STATUS_OPTIMAL:
        raise QpError(f"homogenized Sharpe QP returned status {sol.status!r}")
    y = sol.x

    # Averaging step: the optimal set is {y >= 0 : excess'y = 1,
    # Sigma y = Sigma y*}; its minimum-norm point is unique and respects
    # any permutation symmetry of the instance.
    face = QpProblem(
        Q=2.0 * np.eye(n),
        c=zeros,
        a_eq=np.vstack([excess[None, :], stats.sigma]),
        b_eq=np.concatenate([[1.0], stats.sigma @ y]),
        lb=zeros,
    )
    refined = solve_qp(face, start=y)
    if refined.status == STATUS_OPTIMAL:
        y = refined.x

    w = _clamp_and_renormalize(y)
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

    Raises
    ------
    InfeasibleTargetError
        If mu_target exceeds max(e): no fully-invested long-only portfolio
        can attain it.
    """
    mu_target = float(mu_target)
    max_e = float(stats.mu.max())
    if mu_target > max_e:
        raise InfeasibleTargetError(
            f"target mean {mu_target:.6g} exceeds the best asset mean "
            f"{max_e:.6g}; no long-only portfolio attains it"
        )
    # The best-mean vertex attains every admissible target.
    best = np.eye(stats.mu.shape[0])[int(np.argmax(stats.mu))]
    x = _simplex_min_variance(stats, best, a_in=stats.mu[None, :],
                              b_in=np.array([mu_target]))
    return _frontier_point(stats, mu_target, x)


def _frontier_point(stats: AssetStats, mu_target: float, x: np.ndarray) -> FrontierPoint:
    """The frontier point of the QP optimum x at mu_target, clamped."""
    w = _clamp_and_renormalize(x)
    variance = float(w @ stats.sigma @ w)
    achieved = float(stats.mu @ w)
    if achieved < mu_target - 1e-9:
        raise QpError(
            f"achieved mean {achieved:.9g} fell below target {mu_target:.9g}"
        )
    return FrontierPoint(mu_target=mu_target, variance=variance, weights=w)


def long_only_gmv(stats: AssetStats) -> FrontierPoint:
    """Global minimum-variance point of the simplex-constrained frontier.

    The QP starts from the positive part of Sigma^+ 1 (least squares, so a
    singular Sigma is fine), renormalized, or uniform weights if that is
    zero: a long-only GMV holds few assets, so few leave on the way.
    """
    n = stats.mu.shape[0]
    start = np.maximum(np.linalg.lstsq(stats.sigma, np.ones(n), rcond=None)[0], 0.0)
    total = float(start.sum())
    start = start / total if total > 0.0 else np.full(n, 1.0 / n)
    w = _clamp_and_renormalize(_simplex_min_variance(stats, start))
    return FrontierPoint(mu_target=float(stats.mu @ w),
                         variance=float(w @ stats.sigma @ w), weights=w)


def trace_frontier(stats: AssetStats, n_points: int) -> ConstrainedFrontier:
    """Trace the long-only frontier on an even mean grid in one pass.

    Targets are evenly spaced on [long-only GMV mean, max(e)].  One
    critical-line pass from the GMV gives them all: the target row's
    right-hand side runs from the GMV mean to max(e) (solve_qp_path), and
    between turning points the weights are affine in the target.  Each
    point is the optimum min_variance_at_return finds for its target; where
    Sigma is singular on the optimal face, it is the point the pass reaches
    from the GMV.  When the two endpoints coincide (single asset, or all
    means equal) the frontier degenerates to the single GMV point.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    gmv = long_only_gmv(stats)
    max_e = float(stats.mu.max())
    if max_e - gmv.mu_target <= 1e-12 * max(1.0, abs(max_e)):
        return ConstrainedFrontier(points=(gmv,), gmv_point=gmv)
    targets = np.linspace(gmv.mu_target, max_e, n_points)
    problem = _simplex_problem(stats, stats.mu[None, :], np.array([gmv.mu_target]))
    path = solve_qp_path(problem, np.array([max_e - gmv.mu_target]),
                         np.linspace(0.0, 1.0, n_points), start=gmv.weights)
    points = tuple(_frontier_point(stats, t, sol.x) for t, sol in zip(targets, path))
    return ConstrainedFrontier(points=points, gmv_point=gmv)

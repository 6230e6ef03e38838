"""Closed-form unconstrained mean-variance quantities.

With invertible covariance ``sigma`` and expected returns ``e`` the classic
frontier constants are

    A = 1' sigma^-1 e        B = e' sigma^-1 e       C = 1' sigma^-1 1
    D = B*C - A^2            H = B - 2*A*r_f + C*r_f^2

The fully-invested tangency portfolio (maximum Sharpe ratio, shorting
allowed) is proportional to sigma^-1 (e - r_f*1); its expected return is
A/C - D / (C^2 (r_f - A/C)), equivalently (B - A*r_f)/(A - C*r_f).  The
risky-only frontier is the parabola var(mu) = (C*mu^2 - 2*A*mu + B) / D.

All inverse-covariance products are computed through numpy's Cholesky
factor L, as two solves with L and L'; a failed factorization or a
condition estimate above 1e12 is reported as a singular covariance rather
than silently returning inaccurate numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import AssetStats

# Refuse covariance matrices with 2-norm condition estimates beyond this.
CONDITION_LIMIT = 1e12


class SingularCovarianceError(ValueError):
    """Covariance matrix is singular or too ill-conditioned to invert."""


class TangencyUndefinedError(ValueError):
    """No tangency portfolio on the efficient branch (r_f >= A/C or H = 0)."""


class DegenerateFrontierError(ValueError):
    """Frontier parabola undefined: D ~ 0 (all assets collinear in mean)."""


@dataclass(frozen=True)
class FrontierConstants:
    A: float
    B: float
    C: float
    D: float
    H: float
    r_f: float


@dataclass(frozen=True)
class PortfolioWeights:
    """A fully-invested portfolio with its achieved moments."""

    weights: np.ndarray
    mean: float
    variance: float
    sharpe: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)


def _solve_spd(sigma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """sigma^-1 @ rhs via Cholesky; raises SingularCovarianceError."""
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            "covariance Cholesky factorization failed (singular matrix)"
        ) from exc
    cond = np.linalg.cond(sigma)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularCovarianceError(
            f"covariance condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def frontier_constants(stats: AssetStats, r_f: float) -> FrontierConstants:
    """Compute A, B, C, D, H for the given stats and riskless rate."""
    e = stats.mu
    one = np.ones_like(e)
    sol = _solve_spd(stats.sigma, np.column_stack([e, one]))
    sig_inv_e, sig_inv_one = sol[:, 0], sol[:, 1]
    a = float(one @ sig_inv_e)
    b = float(e @ sig_inv_e)
    c = float(one @ sig_inv_one)
    d = b * c - a * a
    h = b - 2.0 * a * r_f + c * r_f * r_f
    return FrontierConstants(A=a, B=b, C=c, D=d, H=h, r_f=float(r_f))


def tangency_expected_return(constants: FrontierConstants) -> float:
    """Expected return of the tangency portfolio, A/C - D/(C^2 (r_f - A/C))."""
    a, c, d, r_f = constants.A, constants.C, constants.D, constants.r_f
    return a / c - d / (c * c * (r_f - a / c))


def tangency_portfolio(stats: AssetStats, r_f: float) -> PortfolioWeights:
    """Maximum-Sharpe fully-invested portfolio (short selling allowed).

    Computed as sigma^-1 (e - r_f*1) normalized to unit sum, which is the
    unique fully-invested portfolio proportional to the excess-return
    solution; its mean coincides with ``tangency_expected_return`` and its
    Sharpe ratio with sqrt(H).

    Raises
    ------
    TangencyUndefinedError
        If r_f >= A/C (the tangency leaves the efficient branch) or H = 0
        (all expected returns equal r_f).
    """
    constants = frontier_constants(stats, r_f)
    if r_f >= constants.A / constants.C:
        raise TangencyUndefinedError(
            f"r_f={r_f:g} >= A/C={constants.A / constants.C:g}: "
            "tangency undefined on the efficient branch"
        )
    if constants.H <= 0.0:
        raise TangencyUndefinedError("H = 0: all assets earn exactly r_f")
    excess = stats.mu - r_f
    z = _solve_spd(stats.sigma, excess)
    w = z / z.sum()
    mean = float(stats.mu @ w)
    variance = float(w @ stats.sigma @ w)
    sharpe = (mean - r_f) / np.sqrt(variance) if variance > 0 else np.inf
    return PortfolioWeights(weights=w, mean=mean, variance=variance, sharpe=float(sharpe))


def unconstrained_frontier_variance(
    constants: FrontierConstants, mu_target: float
) -> float:
    """Minimum variance at expected return ``mu_target`` (shorting allowed)."""
    if constants.D <= 1e-14:
        raise DegenerateFrontierError(
            f"D={constants.D:g}: frontier degenerate (means collinear with 1)"
        )
    a, b, c, d = constants.A, constants.B, constants.C, constants.D
    return (c * mu_target * mu_target - 2.0 * a * mu_target + b) / d

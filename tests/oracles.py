"""Independent oracles used by the unit and acceptance tests.

Everything here is deliberately written by a different method than the
library code it checks: exhaustive enumeration instead of active sets,
grid search instead of homogenization, variable substitution instead of
bound pinning, HiGHS's simplex instead of the library's own LP.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from longplan.lifecycle import (
    LifecycleConfig,
    RiskyAssetSummary,
    assemble_constraints,
    assemble_linear_coefficients,
    assemble_quadratic,
)
from longplan.qp import QpProblem, solve_qp


def boxed_qp_oracle(Q, c, lb, ub, tol=1e-9):
    """Global minimum of 0.5 x'Qx + c'x on [lb, ub] with Q PD.

    Enumerates all 3^n assignments of each variable to {lower, upper,
    free}, solves the free block exactly, and keeps the best KKT point
    that satisfies the bounds and gradient signs.  Returns (x, objective).
    """
    n = len(c)
    best_x, best_obj = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.array(pattern)
        free = pattern == 2
        x = np.where(pattern == 0, lb, ub).astype(float)
        if free.any():
            rhs = -(c[free] + Q[np.ix_(free, ~free)] @ x[~free])
            try:
                x[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
        if (x < lb - tol).any() or (x > ub + tol).any():
            continue
        g = Q @ x + c
        at_lb = pattern == 0
        at_ub = pattern == 1
        if (g[at_lb] < -tol).any() or (g[at_ub] > tol).any():
            continue
        obj = 0.5 * x @ Q @ x + c @ x
        if obj < best_obj - 1e-15:
            best_obj, best_x = obj, x.copy()
    return best_x, best_obj


def chebyshev_violation_highs(problem: QpProblem) -> float:
    """Least worst-case row violation over the bounds, by HiGHS.

    Solves min t subject to -a_in x - t <= -b_in, |a_eq x - b_eq| <= t,
    lb <= x <= ub and t >= 0 with scipy.optimize.linprog, on the rows as
    given (HiGHS scales them its own way).
    """
    n = problem.n
    a_ub = np.vstack([-problem.a_in, problem.a_eq, -problem.a_eq])
    a_ub = np.hstack([a_ub, -np.ones((a_ub.shape[0], 1))])
    b_ub = np.concatenate([-problem.b_in, problem.b_eq, -problem.b_eq])
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(problem.lb, problem.ub)]
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=bounds + [(0.0, None)], method="highs")
    assert res.success, res.message
    return float(res.x[n])


def simplex_grid_best_sharpe(mu, sigma, r_f, step=0.01):
    """Best Sharpe ratio over the 3-asset probability simplex grid."""
    k = round(1.0 / step)
    ii, jj = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    mask = ii + jj <= k
    w = np.stack([ii[mask], jj[mask], k - ii[mask] - jj[mask]], axis=1) / k
    means = w @ mu
    variances = np.einsum("ij,jk,ik->i", w, sigma, w)
    sd = np.sqrt(np.maximum(variances, 1e-18))
    return float(((means - r_f) / sd).max())


def lifecycle_brute_force(config: LifecycleConfig, asset: RiskyAssetSummary,
                          kstart: int):
    """Best plan over all house assignments by variable substitution.

    Unlike the library's enumeration (which pins the binary with equal
    bounds inside the full QP), each branch here removes the house block
    from the decision vector entirely and moves the chosen column into
    the right-hand side, then solves the reduced QP.  Returns
    (house_year_or_None, objective).
    """
    M = config.years_M
    c = assemble_linear_coefficients(config, asset)
    Q = assemble_quadratic(config, asset)
    a, b = assemble_constraints(config, asset, kstart)
    a_cons, b_cons = a[:M], b[:M]          # consumption rows; cap row dropped
    keep = np.r_[np.arange(3 * M), [4 * M]]

    best = (None, -np.inf)
    for year in [None, *range(1, M - config.house_years + 1)]:
        b_branch = b_cons.copy()
        const = 0.0
        if year is not None:
            col = 3 * M + year - 1
            b_branch = b_cons - a_cons[:, col]
            const = c[col]                 # house diagonal of Q is zero
        problem = QpProblem(                # maximize via the negation
            Q=-Q[np.ix_(keep, keep)], c=-c[keep],
            a_in=a_cons[:, keep], b_in=b_branch,
            lb=np.zeros(keep.size),
        )
        sol = solve_qp(problem)
        if sol.status != "optimal":
            continue
        total = -sol.objective + const
        if total > best[1]:
            best = (year, total)
    return best

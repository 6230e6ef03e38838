"""Dense convex quadratic programming by a primal active-set method.

Problems have the form

    minimize    0.5 x' Q x + c' x
    subject to  a_eq x  = b_eq
                a_in x >= b_in
                lb <= x <= ub

with Q symmetric positive semidefinite.  The solver is built for the small
dense problems produced by the portfolio and lifetime-planning layers
(n up to a few hundred):

* a variable pinned by equal bounds is a bound that the active set holds
  from the start and never drops; the PSD check and the curvature floor
  below look at the unpinned variables only;
* feasibility is decided by a phase-1 linear program that minimizes the
  Chebyshev (max) constraint violation, so an infeasible verdict comes with
  the smallest achievable violation as a certificate.  Rows that vanish
  on the unpinned variables are judged only there, so it covers them too;
* a caller that holds a feasible point, such as the plan of a
  neighbouring problem repaired to meet its rows, passes it as ``start``.
  A point that keeps every bound and meets every row within the
  feasibility tolerance settles feasibility, so no LP runs: the active set
  begins there, with everything active at that point in the working set.
  Any other ``start`` is ignored and the Chebyshev LP runs as without it,
  so verdicts and certificates never depend on ``start``;
* constraint rows are normalized internally (over the unpinned
  variables), so solutions are invariant under positive rescaling of any
  row;
* a bound enters the active set by fixing its variable at the bound, not
  as a constraint row, so the null-space solves only see the equality rows
  and the working general rows restricted to the free variables.  Every
  bound multiplier, for pinned and fixed variables alike, is read off the
  stationarity residual Qx + c - a_eq'lam - a_in'mu;
* one column-pivoted QR of the working rows gives the null-space basis Z
  and, by triangular solves with R, the multipliers and a least-norm step
  onto the rows; a row that the pivoting finds dependent on the others
  gets a zero multiplier;
* each step solves with the reduced Hessian Z'QZ of the true Q.  An
  eigenvalue of Z'QZ at rounding level (dim * eps * lambda_max(Q)) counts
  as zero curvature.  Minus the reduced gradient's component along those
  eigenvectors descends without curvature and is followed to the first
  row or bound that blocks it; if none does, it is a ray, checked (Qd = 0,
  c'd < 0, every row and finite bound kept) before "unbounded" is
  returned.  Without such a component the step is the minimum-norm Newton
  step; a Cholesky factor gives it without an eigendecomposition when it
  proves every eigenvalue above max(1e-14, 1e-10 * lambda_max(Q));
* a least-norm step from the final face's QR puts the working rows back
  on their right-hand sides, the multipliers fit Qx + c, and the result
  must pass a KKT check.

When the optimal face has a direction of zero curvature, the optimum is
not unique and the solver returns the point its path reaches; ``start``
changes that path and can select a different optimal point with the same
objective.  Otherwise the optimum is unique and ``start`` changes only the
path, up to the iterations' own tolerances.

Ties are broken deterministically.  The ratio test scans general rows,
then lower bounds, then upper bounds, each in index order, and takes the
first near-minimal candidate; a drop takes the first most negative
multiplier in the order working rows (as added), lower bounds, upper
bounds.  Together with the deterministic phase-1 this makes results
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"

# Constraint violations above 1e-7 * (1 + |b|_inf) mean "infeasible".
FEASIBILITY_TOL = 1e-7
# Internal KKT acceptance thresholds (scaled by problem magnitudes).
STATIONARITY_TOL = 1e-6
COMPLEMENTARITY_TOL = 1e-6


class QpError(Exception):
    """Base class for quadratic-program solver failures."""


class QpInputError(QpError, ValueError):
    """Malformed problem data: dimension mismatch, asymmetric or indefinite Q."""


class QpIterationLimitError(QpError):
    """Active-set iteration cap exceeded (distinct from infeasibility)."""


def _as_matrix(a, rows: int | None, cols: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, cols))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != cols or (rows is not None and a.shape[0] != rows):
        raise QpInputError(f"{name} has shape {a.shape}, expected (*, {cols})")
    return a


@dataclass(frozen=True)
class QpProblem:
    """Immutable convex QP data; validated on construction."""

    Q: np.ndarray
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.Q, dtype=float)
        c = np.asarray(self.c, dtype=float).ravel()
        n = c.shape[0]
        if q.shape != (n, n):
            raise QpInputError(f"Q has shape {q.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(q)) or not np.all(np.isfinite(c)):
            raise QpInputError("Q and c must be finite")
        qscale = max(1.0, float(np.abs(q).max())) if n else 1.0
        if n and float(np.abs(q - q.T).max()) > 1e-12 * qscale:
            raise QpInputError("Q must be symmetric (within 1e-12 relative)")
        q = (q + q.T) / 2.0

        a_eq = _as_matrix(self.a_eq, None, n, "a_eq")
        b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        a_in = _as_matrix(self.a_in, None, n, "a_in")
        b_in = np.zeros(0) if self.b_in is None else np.asarray(self.b_in, dtype=float).ravel()
        if a_eq.shape[0] != b_eq.shape[0]:
            raise QpInputError("a_eq and b_eq row counts differ")
        if a_in.shape[0] != b_in.shape[0]:
            raise QpInputError("a_in and b_in row counts differ")
        if not (np.all(np.isfinite(a_eq)) and np.all(np.isfinite(b_eq))
                and np.all(np.isfinite(a_in)) and np.all(np.isfinite(b_in))):
            raise QpInputError("constraint data must be finite")

        lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float).ravel()
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float).ravel()
        if lb.shape[0] != n or ub.shape[0] != n:
            raise QpInputError("lb/ub length must equal len(c)")
        if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
            raise QpInputError("bounds must not be NaN")
        if np.any(lb > ub):
            bad = int(np.argmax(lb > ub))
            raise QpInputError(f"lb > ub at index {bad}")

        for name, arr in (("Q", q), ("c", c), ("a_eq", a_eq), ("b_eq", b_eq),
                          ("a_in", a_in), ("b_in", b_in), ("lb", lb), ("ub", ub)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.c @ x)

    def max_violation(self, x: np.ndarray) -> float:
        """Largest absolute violation of any constraint or bound at x."""
        x = np.asarray(x, dtype=float)
        worst = 0.0
        if self.a_eq.shape[0]:
            worst = max(worst, float(np.abs(self.a_eq @ x - self.b_eq).max()))
        if self.a_in.shape[0]:
            worst = max(worst, float(np.maximum(self.b_in - self.a_in @ x, 0.0).max()))
        finite_lb = np.isfinite(self.lb)
        if finite_lb.any():
            worst = max(worst, float(np.maximum(self.lb[finite_lb] - x[finite_lb], 0.0).max()))
        finite_ub = np.isfinite(self.ub)
        if finite_ub.any():
            worst = max(worst, float(np.maximum(x[finite_ub] - self.ub[finite_ub], 0.0).max()))
        return worst

    def rhs_scale(self) -> float:
        scale = 0.0
        if self.b_eq.shape[0]:
            scale = max(scale, float(np.abs(self.b_eq).max()))
        if self.b_in.shape[0]:
            scale = max(scale, float(np.abs(self.b_in).max()))
        return scale


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    objective: float
    status: str
    max_violation: float
    eq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    in_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lower_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    upper_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    ray: np.ndarray | None = None


def kkt_report(problem: QpProblem, sol: QpSolution) -> dict[str, float]:
    """Stationarity / complementarity / dual-feasibility residuals at sol.

    Stationarity is || Qx + c - a_eq'lam - a_in'mu - mu_lb + mu_ub ||_inf.
    """
    x = sol.x
    grad = problem.Q @ x + problem.c
    if problem.a_eq.shape[0]:
        grad = grad - problem.a_eq.T @ sol.eq_multipliers
    if problem.a_in.shape[0]:
        grad = grad - problem.a_in.T @ sol.in_multipliers
    grad = grad - sol.lower_multipliers + sol.upper_multipliers
    comp = 0.0
    if problem.a_in.shape[0]:
        slack = problem.a_in @ x - problem.b_in
        comp = max(comp, float(np.abs(sol.in_multipliers * slack).max()))
    finite_lb = np.isfinite(problem.lb)
    if finite_lb.any():
        comp = max(comp, float(np.abs(sol.lower_multipliers[finite_lb]
                                      * (x - problem.lb)[finite_lb]).max()))
    finite_ub = np.isfinite(problem.ub)
    if finite_ub.any():
        comp = max(comp, float(np.abs(sol.upper_multipliers[finite_ub]
                                      * (problem.ub - x)[finite_ub]).max()))
    duals = np.concatenate([sol.in_multipliers, sol.lower_multipliers,
                            sol.upper_multipliers, [0.0]])
    return {
        "stationarity": float(np.abs(grad).max()),
        "complementarity": comp,
        "dual_feasibility": float(duals.min()),
    }


# ---------------------------------------------------------------------------
# internal machinery
# ---------------------------------------------------------------------------

class _UnitRows(NamedTuple):
    """The general rows scaled to unit norm on the unpinned variables.

    eq_norm/in_norm unscale the multipliers.  A row that vanishes on the
    unpinned variables keeps norm 1: it never blocks a step and gets a zero
    multiplier, so only the phase-1 LP, which reads the rows as given,
    judges it.
    """

    eq: np.ndarray
    b_eq: np.ndarray
    ineq: np.ndarray
    b_in: np.ndarray
    eq_norm: np.ndarray
    in_norm: np.ndarray


def _unit_rows(problem: QpProblem, pinned: np.ndarray) -> _UnitRows:
    def scaled(a, b):
        norm = np.linalg.norm(a[:, ~pinned], axis=1)
        norm[norm <= 1e-300] = 1.0
        return a / norm[:, None], b / norm, norm

    eq, b_eq, eq_norm = scaled(problem.a_eq, problem.b_eq)
    ineq, b_in, in_norm = scaled(problem.a_in, problem.b_in)
    return _UnitRows(eq, b_eq, ineq, b_in, eq_norm, in_norm)


def _phase1(problem: QpProblem):
    """Chebyshev feasibility LP: minimize the max constraint violation t.

    Returns (x0, t_star).  Bounds are kept hard; equality and inequality
    rows are softened by t, so the LP is always solvable and t_star is the
    smallest achievable worst-case violation -- the infeasibility certificate.
    """
    n = problem.n
    # -a_in x - t <= -b_in and |a_eq x - b_eq| <= t
    a_ub = np.vstack([-problem.a_in, problem.a_eq, -problem.a_eq])
    if a_ub.shape[0] == 0:
        return np.clip(np.zeros(n), problem.lb, problem.ub), 0.0
    # Imported here: scipy.optimize is slow to import, and a caller that
    # passes feasible starts never needs it.
    from scipy.optimize import linprog

    a_ub = np.hstack([a_ub, -np.ones((a_ub.shape[0], 1))])
    b_ub = np.concatenate([-problem.b_in, problem.b_eq, -problem.b_eq])
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(problem.lb, problem.ub)]
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=bounds + [(0.0, None)], method="highs")
    if not res.success:
        raise QpError(f"phase-1 feasibility LP failed: {res.message}")
    x0 = np.clip(res.x[:n], problem.lb, problem.ub)
    return x0, float(res.x[n])


def _face(a_w: np.ndarray):
    """Null-space basis of the working rows a_w and two solves with them.

    One column-pivoted QR of a_w' gives all three.  Returns (z, multipliers,
    restore): z is an orthonormal basis of {p : a_w p = 0}; multipliers(g)
    solves a_w' nu = g on the rows the pivoting finds independent, by a
    triangular solve with R, giving every dependent row a zero multiplier;
    restore(r) is the least-norm step s with a_w s = r on those rows.
    """
    m, n = a_w.shape
    if not (m and n):
        return np.eye(n), lambda g: np.zeros(m), lambda r: np.zeros(n)
    # The working set is often rank-deficient (rows dependent on each other
    # or on the fixed variables), and without pivoting the R-diagonal does
    # not reveal rank, which would leak null-space directions that violate
    # working constraints.
    qfull, r, piv = scipy.linalg.qr(a_w.T, mode="full", pivoting=True)
    diag = np.abs(np.diag(r))
    thresh = max(m, n) * np.finfo(float).eps * diag.max(initial=0.0)
    rank = int((diag > max(thresh, 1e-13)).sum())
    basis, r_top, independent = qfull[:, :rank], r[:rank, :rank], piv[:rank]

    def multipliers(g: np.ndarray) -> np.ndarray:
        nu = np.zeros(m)
        nu[independent] = scipy.linalg.solve_triangular(r_top, basis.T @ g)
        return nu

    def restore(resid: np.ndarray) -> np.ndarray:
        return basis @ scipy.linalg.solve_triangular(r_top, resid[independent], trans="T")

    return qfull[:, rank:], multipliers, restore


def _ratio_test(problem: QpProblem, rows: _UnitRows, x: np.ndarray, p: np.ndarray,
                working: list[int], free: np.ndarray, cap: float):
    """Longest step alpha <= cap from x along p, and what blocks it.

    Candidates are the general rows outside the working list, then the
    finite lower and upper bounds of free variables, each in index order;
    the first near-minimal ratio blocks.  Returns (alpha, kind, i) with kind
    "row", "lower" or "upper", or (cap, None, -1) when nothing blocks first.
    """
    a_in, b_in, lb, ub = rows.ineq, rows.b_in, problem.lb, problem.ub
    in_working = np.zeros(a_in.shape[0], dtype=bool)
    in_working[working] = True
    ap = a_in @ p
    blocking = np.flatnonzero(~in_working & (ap < -1e-12))
    lows = np.flatnonzero(free & np.isfinite(lb) & (p < -1e-12))
    ups = np.flatnonzero(free & np.isfinite(ub) & (p > 1e-12))
    ratios = np.concatenate([
        np.maximum(a_in[blocking] @ x - b_in[blocking], 0.0) / -ap[blocking],
        np.maximum(x[lows] - lb[lows], 0.0) / -p[lows],
        np.maximum(ub[ups] - x[ups], 0.0) / p[ups],
    ])
    if not ratios.size or ratios.min() >= cap:
        return cap, None, -1
    alpha = float(ratios.min())
    k = int(np.argmax(ratios <= alpha * (1.0 + 1e-9) + 1e-15))
    kind = "row" if k < blocking.size else "lower" if k < blocking.size + lows.size else "upper"
    return alpha, kind, int(np.concatenate([blocking, lows, ups])[k])


def _face_step(h_red: np.ndarray, g_red: np.ndarray, lam_max: float, tol: float):
    """(p, flat): the step on a face with reduced Hessian h_red, gradient g_red.

    An eigenvalue of h_red at or below dim * eps * lam_max, lam_max the
    largest eigenvalue of Q on the unpinned variables, is rounding: zero
    curvature.  If g_red has a component above tol along those
    eigenvectors, p is that component negated and flat is True; otherwise
    p is the minimum-norm Newton step on the other eigenvectors.  When the
    Cholesky factor L shows every eigenvalue to be above the floor
    max(1e-14, 1e-10 * lam_max), by |L^-1|_F^2 = trace(h_red^-1) < 1/floor,
    p is the Newton step from L and no eigendecomposition is needed.
    """
    floor = max(1e-14, 1e-10 * lam_max)
    try:
        inv = scipy.linalg.lapack.dtrtri(scipy.linalg.cholesky(h_red, lower=True), lower=1)[0]
        if np.sum(inv * inv) < 1.0 / floor:
            return -(inv.T @ (inv @ g_red)), False
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(h_red)
    flat = eigvals <= h_red.shape[0] * np.finfo(float).eps * lam_max
    g_flat = eigvecs[:, flat].T @ g_red
    if np.abs(g_flat).max(initial=0.0) > tol:
        return -(eigvecs[:, flat] @ g_flat), True
    return -(eigvecs[:, ~flat] @ (eigvecs[:, ~flat].T @ g_red / eigvals[~flat])), False


def _active_set(problem: QpProblem, rows: _UnitRows, pinned: np.ndarray,
                lam_max: float, x0: np.ndarray, max_iter: int) -> QpSolution:
    """Primal active-set iterations from the feasible point x0.

    A bound becomes active by fixing its variable (at_lower / at_upper) and
    snapping it to the bound; only general inequality rows enter the
    working list.  A pinned variable is at its lower bound from the start
    and is never dropped.  Returns the optimum from _finish, or the ray
    from _unbounded when a step of zero curvature meets no block.
    """
    q, lb, ub = problem.Q, problem.lb, problem.ub
    m_eq = rows.eq.shape[0]
    x = x0.copy()
    # Warm start: every row and bound active at x0.
    working = [int(i) for i in np.flatnonzero(rows.ineq @ x - rows.b_in <= 1e-8)]
    at_lower = pinned | (x - lb <= 1e-8)
    at_upper = (ub - x <= 1e-8) & ~at_lower
    x[at_lower] = lb[at_lower]
    x[at_upper] = ub[at_upper]
    for iteration in range(1, max_iter + 1):
        grad = q @ x + problem.c
        mu_tol = 1e-9 * (1.0 + np.abs(grad).max(initial=0.0))
        free = ~(at_lower | at_upper)
        a_w = np.vstack([rows.eq, rows.ineq[working]])
        face = _face(a_w[:, free])
        z, multipliers, _ = face
        p, flat = np.zeros(problem.n), False
        if z.shape[1]:
            p_z, flat = _face_step(z.T @ q[np.ix_(free, free)] @ z, z.T @ grad[free],
                                   lam_max, mu_tol)
            p[free] = z @ p_z

        if not flat and np.abs(p).max(initial=0.0) <= 1e-10 * (1.0 + np.abs(x).max(initial=0.0)):
            nu = multipliers(grad[free])
            resid = grad - a_w.T @ nu
            lower_idx, upper_idx = np.flatnonzero(at_lower & ~pinned), np.flatnonzero(at_upper)
            # Candidates in order: working rows, lower bounds, upper bounds.
            mults = np.concatenate([nu[m_eq:], resid[lower_idx], -resid[upper_idx]])
            if mults.size == 0 or mults.min() >= -mu_tol:
                return _finish(problem, rows, pinned, x, working, at_lower, at_upper,
                               face, iteration)
            # Drop the most negative multiplier; ties go to the first.
            drop = int(np.argmin(mults))
            if drop < len(working):
                working.pop(drop)
            elif drop < len(working) + lower_idx.size:
                at_lower[lower_idx[drop - len(working)]] = False
            else:
                at_upper[upper_idx[drop - len(working) - lower_idx.size]] = False
            continue

        if flat:
            p /= np.abs(p).max()
        alpha, kind, i = _ratio_test(problem, rows, x, p, working, free,
                                     np.inf if flat else 1.0)
        if kind is None and flat:
            return _unbounded(problem, rows, pinned, lam_max, x, p, iteration)
        x = x + alpha * p
        if kind == "row":
            working.append(i)
        elif kind == "lower":
            at_lower[i], x[i] = True, lb[i]
        elif kind == "upper":
            at_upper[i], x[i] = True, ub[i]
    raise QpIterationLimitError(f"active-set iteration cap {max_iter} exceeded")


def _unbounded(problem: QpProblem, rows: _UnitRows, pinned: np.ndarray, lam_max: float,
               x: np.ndarray, ray: np.ndarray, iterations: int) -> QpSolution:
    """The unbounded verdict at x along ray, after checking the ray.

    With |ray|_inf = 1 it must have |Q ray|_inf within 1e-8 * max(1,
    lam_max), as in the PSD check, c'ray < 0, a_eq ray = 0 and a_in ray >= 0
    within 1e-9 on the unit rows, and the sign of every finite bound of an
    unpinned variable; otherwise QpError is raised.
    """
    unpinned, tol = ~pinned, 1e-9
    failed = [name for name, bad in (
        ("Qd = 0", np.abs(problem.Q @ ray).max() > 1e-8 * max(1.0, lam_max)),
        ("c'd < 0", problem.c @ ray >= 0.0),
        ("a_eq d = 0", np.abs(rows.eq @ ray).max(initial=0.0) > tol),
        ("a_in d >= 0", (rows.ineq @ ray).min(initial=0.0) < -tol),
        ("lower bounds", ray[unpinned & np.isfinite(problem.lb)].min(initial=0.0) < -tol),
        ("upper bounds", ray[unpinned & np.isfinite(problem.ub)].max(initial=0.0) > tol),
    ) if bad]
    if failed:
        raise QpError(f"internal ray verification failed: {', '.join(failed)}")
    return QpSolution(x=x, objective=-np.inf, status=STATUS_UNBOUNDED,
                      max_violation=problem.max_violation(x), iterations=iterations, ray=ray)


def _finish(problem: QpProblem, rows: _UnitRows, pinned: np.ndarray,
            x: np.ndarray, working: list[int], at_lower: np.ndarray, at_upper: np.ndarray,
            face, iterations: int) -> QpSolution:
    """The verified optimal solution on the active set's final face.

    A least-norm step from the face's QR first puts the working rows back
    on their right-hand sides: the iterations leave them off by rounding in
    proportion to |x|, which a large multiplier turns into a false
    complementarity failure.  The multipliers fit the gradient Qx + c
    through the same QR, every bound dual (both of a pinned variable) is
    read off the stationarity residual, and the result must pass the KKT
    check.
    """
    free = ~(at_lower | at_upper)
    _, multipliers, restore = face
    b_w = np.concatenate([rows.b_eq, rows.b_in[working]])
    x[free] += restore(b_w - np.vstack([rows.eq, rows.ineq[working]]) @ x)
    x = np.clip(x, problem.lb, problem.ub)
    nu = multipliers((problem.Q @ x + problem.c)[free])
    m_eq = rows.eq.shape[0]
    eq_mult = nu[:m_eq] / rows.eq_norm
    in_mult = np.zeros(problem.a_in.shape[0])
    in_mult[working] = np.maximum(nu[m_eq:] / rows.in_norm[working], 0.0)
    resid = problem.Q @ x + problem.c - problem.a_eq.T @ eq_mult - problem.a_in.T @ in_mult
    sol = QpSolution(
        x=x,
        objective=problem.objective_value(x),
        status=STATUS_OPTIMAL,
        max_violation=problem.max_violation(x),
        eq_multipliers=eq_mult,
        in_multipliers=in_mult,
        lower_multipliers=np.where(at_lower, np.maximum(resid, 0.0), 0.0),
        upper_multipliers=np.where(at_upper | pinned, np.maximum(-resid, 0.0), 0.0),
        iterations=iterations,
    )
    report = kkt_report(problem, sol)
    grad_scale = 1.0 + float(np.abs(problem.c).max(initial=0.0))
    rhs_scale = 1.0 + problem.rhs_scale()
    if report["stationarity"] > STATIONARITY_TOL * grad_scale or \
            report["complementarity"] > COMPLEMENTARITY_TOL * grad_scale * rhs_scale:
        raise QpError("internal KKT verification failed: "
                      f"stationarity={report['stationarity']:.3e}, "
                      f"complementarity={report['complementarity']:.3e}")
    return sol


def solve_qp(problem: QpProblem, *, start=None,
             _max_iter: int | None = None) -> QpSolution:
    """Minimize 0.5 x'Qx + c'x subject to the problem's constraints.

    start, when given, is any finite point of length n.  If it keeps every
    bound and violates no row by more than the feasibility tolerance
    1e-7 * (1 + |b|_inf), the active set begins there and no LP is solved;
    a start near the optimum (the plan of a neighbouring problem) also
    shortens the path.  Any other start is ignored and the Chebyshev
    phase-1 LP runs exactly as without it, so start never changes the
    verdict.  Where the optimum is unique, start changes the returned point
    only within the solver's tolerances; where Q leaves a face of optima,
    it can select a different point of that face, with the same objective.

    Returns a solution with status "optimal", "infeasible" or "unbounded".
    Raises QpInputError for malformed data or start, or for a Q that is
    not positive semidefinite on the unpinned variables, and
    QpIterationLimitError if the active-set cap of 50*n iterations is
    exceeded.
    """
    if start is not None:
        start = np.asarray(start, dtype=float).ravel()
        if start.shape[0] != problem.n or not np.all(np.isfinite(start)):
            raise QpInputError(
                f"start must be a finite vector of length {problem.n}")
    pinned = problem.lb == problem.ub
    rows = _unit_rows(problem, pinned)
    feas_tol = FEASIBILITY_TOL * (1.0 + problem.rhs_scale())
    eigvals = np.linalg.eigvalsh(problem.Q[np.ix_(~pinned, ~pinned)])
    lam_max = float(eigvals.max(initial=0.0))
    if eigvals.min(initial=0.0) < -1e-8 * max(1.0, lam_max):
        raise QpInputError("Q is not positive semidefinite")

    if start is not None and np.all((problem.lb <= start) & (start <= problem.ub)) \
            and problem.max_violation(start) <= feas_tol:
        x0 = start
    else:
        x0, t_star = _phase1(problem)
        if t_star > feas_tol:
            return QpSolution(x=x0, objective=np.nan, status=STATUS_INFEASIBLE,
                              max_violation=t_star)

    max_iter = _max_iter if _max_iter is not None else 50 * problem.n
    return _active_set(problem, rows, pinned, lam_max, x0, max_iter)

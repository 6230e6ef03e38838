"""Dense convex quadratic programming by a primal active-set method.

Problems have the form

    minimize    0.5 x' Q x + c' x
    subject to  a_eq x  = b_eq
                a_in x >= b_in
                lb <= x <= ub

with Q symmetric positive semidefinite.  The solver is built for the small
dense problems produced by the portfolio and lifetime-planning layers
(n up to a few hundred):

* feasibility is decided by a phase-1 linear program that minimizes the
  Chebyshev (max) constraint violation, so an infeasible verdict comes with
  the smallest achievable violation as a certificate;
* a caller that holds a feasible point, such as the plan of a
  neighbouring problem repaired to meet its rows, passes it as ``start``.
  A point that keeps every bound and meets every row within the
  feasibility tolerance settles feasibility, so no LP runs: the active set
  begins there.  Any other ``start`` is ignored and the Chebyshev LP runs
  as without it, so verdicts and certificates never depend on ``start``;
* constraint rows are normalized internally, so solutions are invariant
  under positive rescaling of any row;
* a bound enters the active set by fixing its variable at the bound, not
  as a constraint row, so the null-space solves only see the equality rows
  and the working general rows restricted to the free variables.  Equal
  bounds are two ordinary bounds.  Every bound multiplier is read off the
  stationarity residual Qx + c - a_eq'lam - a_in'mu;
* one unpivoted QR of the working rows gives the null-space basis Z
  and, by triangular solves with R, the multipliers and a least-norm step
  onto the rows.  Its diagonal shows a row dependent on the rows before
  it; such a face takes one more QR without the dependent rows, which get
  zero multipliers;
* the working set stays linearly independent, so that one QR suffices.
  An equality row that depends on the other equality rows holds wherever
  they do, so it is left out once.  The start keeps the equality rows,
  then the bounds active at it and then the rows active at it, each only
  if it is independent of those kept before it; one left out lies in
  their span and cannot block while they work.  A row or bound that
  blocks a step p has a'p != 0 where every working row and bound has
  a'p = 0, so it is independent of them, and a drop keeps the rest
  independent;
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

solve_qp_path follows one right-hand-side path, b_in + tau * db_in for tau
in [0, 1], from the tau = 0 optimum that the same active set finds (the
parametric active-set method of Best 1996 and of qpOASES, Ferreau, Bock &
Diehl 2008; for the long-only frontier it is Markowitz's critical line):

* between breakpoints the working set is fixed and x and the multipliers
  are affine in tau; the derivative of x is the least-norm step from the
  face's QR onto the working rows' moving right-hand sides plus a
  minimum-norm reduced-Hessian solve on Z, exact for a PSD Q because its
  right-hand side lies in the range of Z'QZ;
* at a breakpoint the first row or bound that blocks enters or else the
  first working row or bound whose multiplier reaches zero leaves.  A rate
  within rounding of zero, 1e-12 of the step's size, never blocks: at
  |x| ~ 1e4 such rates added and dropped the same bounds at one tau until
  the breakpoint cap;
* the working rows stay linearly independent on the free variables, so
  the multipliers and their rates are unique.  The tau = 0 face is
  independent, as above.  When an added row or bound makes the rows
  dependent, which the next face's QR shows, the multipliers move along
  the dependency, the added one's rising, until the first other one
  reaches zero, and that row or bound leaves (qpOASES's ensureLI).  If
  none falls, the rows cannot be met past that tau;
* ties go to the least index in the order general rows, lower bounds,
  upper bounds.  At a zero-length step every candidate ties, so this is
  Bland's least-index rule, the classical guard against cycling through
  degenerate vertices;
* every returned point passes the same restore step and KKT check.

When the optimal face has a direction of zero curvature, the optimum is
not unique and the solver returns the point its path reaches; ``start``
changes that path and can select a different optimal point with the same
objective.  Otherwise the optimum is unique and ``start`` changes only the
path, up to the iterations' own tolerances.

Ties are broken deterministically.  The ratio test scans general rows,
then lower bounds, then upper bounds, each in index order, and takes the
first near-minimal candidate; within one QP a drop takes the first most
negative multiplier in the order working rows (as added), lower bounds,
upper bounds.  Together with the deterministic phase-1 this makes results
reproducible run to run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    """The general rows scaled to unit norm; a zero row keeps norm 1.

    eq keeps the equality rows eq_index of the problem, those independent
    of the ones before them; eq_norm/in_norm unscale the multipliers.
    """

    eq: np.ndarray
    b_eq: np.ndarray
    ineq: np.ndarray
    b_in: np.ndarray
    eq_norm: np.ndarray
    in_norm: np.ndarray
    eq_index: np.ndarray


def _unit_rows(problem: QpProblem) -> _UnitRows:
    def scaled(a, b):
        norm = np.linalg.norm(a, axis=1)
        norm[norm <= 1e-300] = 1.0
        return a / norm[:, None], b / norm, norm

    eq, b_eq, eq_norm = scaled(problem.a_eq, problem.b_eq)
    ineq, b_in, in_norm = scaled(problem.a_in, problem.b_in)
    # An equality row that depends on the others holds wherever they do,
    # within the feasibility tolerance, so it is left out once.
    eq_index = np.sort(_independent_rows(eq)[2])
    return _UnitRows(eq[eq_index], b_eq[eq_index], ineq, b_in, eq_norm[eq_index], in_norm,
                     eq_index)


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


def _independent_rows(a: np.ndarray):
    """(q, r, independent, dependent): a maximal set of linearly independent
    rows of a, the complete QR q r = a[independent]' and the other rows.

    The k-th diagonal entry of an unpivoted QR of a' is the distance of row
    k from the rows before it while those are independent; after a
    dependent row it can be smaller.  So one QR names candidates, the rows
    whose entry is at or below max(max(m, n) * eps * its largest entry,
    1e-13) and every row past the n-th, and the others, independent of
    every row before them, take a second QR.  A candidate those rows span
    is dependent.  One they do not span, possible only after a dependent
    row in exact data, joins them with one more QR.
    """
    m, n = a.shape
    if not (m and n):
        return np.eye(n), np.zeros((n, m)), np.arange(0), np.arange(m if n == 0 else 0)
    q, r = np.linalg.qr(a.T, mode="complete")
    diag = np.zeros(m)
    diag[:min(m, n)] = np.abs(np.diagonal(r))
    thresh = max(max(m, n) * np.finfo(float).eps * diag.max(initial=0.0), 1e-13)
    independent, dependent = np.flatnonzero(diag > thresh), np.flatnonzero(diag <= thresh)
    while dependent.size:
        q, r = np.linalg.qr(a[independent].T, mode="complete")
        basis = q[:, :independent.size]
        off = a[dependent] - (a[dependent] @ basis) @ basis.T
        loose = np.linalg.norm(off, axis=1) > thresh
        if not loose.any():
            break
        k = int(np.argmax(loose))
        independent, dependent = np.append(independent, dependent[k]), np.delete(dependent, k)
    return q, r, independent, dependent


def _face(a_w: np.ndarray):
    """Null-space basis of the working rows a_w, two solves with them and
    the rows found dependent.

    The QR of _independent_rows gives all four.  Returns (z, multipliers,
    restore, dependent): z is an orthonormal basis of {p : a_w p = 0};
    multipliers(g) solves a_w' nu = g on the independent rows, by a
    triangular solve with R, giving every dependent row a zero multiplier;
    restore(r) is the least-norm step s with a_w s = r on those rows;
    dependent indexes the other rows.
    """
    m = a_w.shape[0]
    q, r, independent, dependent = _independent_rows(a_w)
    rank = independent.size
    basis, r_top = q[:, :rank], r[:rank, :rank]

    def multipliers(g: np.ndarray) -> np.ndarray:
        nu = np.zeros(m)
        nu[independent] = np.linalg.solve(r_top, basis.T @ g)
        return nu

    def restore(resid: np.ndarray) -> np.ndarray:
        return basis @ np.linalg.solve(r_top.T, resid[independent])

    return q[:, rank:], multipliers, restore, dependent


def _near(ratios, least: float):
    """Which ratios are within rounding of the least one."""
    return ratios <= least * (1.0 + 1e-9) + 1e-15


def _first_min(ratios: np.ndarray, least: float) -> int:
    """Index of the first ratio within rounding of the least one."""
    return int(np.argmax(_near(ratios, least)))


def _ratio_test(problem: QpProblem, rows: _UnitRows, x: np.ndarray, p: np.ndarray,
                working: list[int], free: np.ndarray, cap: float, d_in=None):
    """Longest step alpha <= cap from x along p, and what blocks it.

    On a path the inequality right-hand sides move by d_in per unit step;
    within one QP they stay put (d_in None).  Candidates are the general
    rows outside the working list, then the finite lower and upper bounds
    of free variables, each in index order, that the step approaches at a
    rate above rounding (1e-12 of the largest entry of p and d_in); the
    first near-minimal ratio blocks.  Returns
    (alpha, kind, i) with kind "row", "lower" or "upper", or (cap, None, -1)
    when nothing blocks first.
    """
    a_in, b_in, lb, ub = rows.ineq, rows.b_in, problem.lb, problem.ub
    in_working = np.zeros(a_in.shape[0], dtype=bool)
    in_working[working] = True
    ap = a_in @ p
    # a rate within rounding of zero, relative to the step, never blocks
    tol = 1e-12 * (1.0 + np.abs(p).max(initial=0.0))
    if d_in is not None:
        ap -= d_in
        tol += 1e-12 * np.abs(d_in).max(initial=0.0)
    blocking = np.flatnonzero(~in_working & (ap < -tol))
    lows = np.flatnonzero(free & np.isfinite(lb) & (p < -tol))
    ups = np.flatnonzero(free & np.isfinite(ub) & (p > tol))
    ratios = np.concatenate([
        np.maximum(a_in[blocking] @ x - b_in[blocking], 0.0) / -ap[blocking],
        np.maximum(x[lows] - lb[lows], 0.0) / -p[lows],
        np.maximum(ub[ups] - x[ups], 0.0) / p[ups],
    ])
    if not ratios.size or ratios.min() >= cap:
        return cap, None, -1
    alpha = float(ratios.min())
    k = _first_min(ratios, alpha)
    kind = "row" if k < blocking.size else "lower" if k < blocking.size + lows.size else "upper"
    return alpha, kind, int(np.concatenate([blocking, lows, ups])[k])


def _face_step(h_red: np.ndarray, g_red: np.ndarray, lam_max: float, tol: float):
    """(p, flat): the step on a face with reduced Hessian h_red, gradient g_red.

    An eigenvalue of h_red at or below dim * eps * lam_max, lam_max the
    largest eigenvalue of Q on the variables whose bounds differ, is
    rounding: zero curvature.  If g_red has a component above tol along
    those eigenvectors, p is that component negated and flat is True;
    otherwise p is the minimum-norm Newton step on the other eigenvectors.
    When the Cholesky factor L shows every eigenvalue to be above the floor
    max(1e-14, 1e-10 * lam_max), by |L^-1|_F^2 = trace(h_red^-1) < 1/floor,
    p is the Newton step from L and no eigendecomposition is needed.
    """
    floor = max(1e-14, 1e-10 * lam_max)
    try:
        inv = np.linalg.inv(np.linalg.cholesky(h_red))
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


class _Optimum(NamedTuple):
    """Where the active set stops: x on the face of the working rows and
    fixed bounds, that face's _face factorization and the iterations."""

    x: np.ndarray
    working: list[int]
    at_lower: np.ndarray
    at_upper: np.ndarray
    face: tuple
    iterations: int


def _release(k: int, working: list[int], lower_idx: np.ndarray, upper_idx: np.ndarray,
             at_lower: np.ndarray, at_upper: np.ndarray) -> None:
    """Drop candidate k of the order working rows, lower bounds, upper bounds."""
    if k < len(working):
        working.pop(k)
    elif k < len(working) + lower_idx.size:
        at_lower[lower_idx[k - len(working)]] = False
    else:
        at_upper[upper_idx[k - len(working) - lower_idx.size]] = False


def _enter(problem: QpProblem, kind: str | None, i: int, x: np.ndarray, working: list[int],
           at_lower: np.ndarray, at_upper: np.ndarray) -> None:
    """Add what _ratio_test found blocking; a bound snaps x[i] onto it."""
    if kind == "row":
        working.append(i)
    elif kind == "lower":
        at_lower[i], x[i] = True, problem.lb[i]
    elif kind == "upper":
        at_upper[i], x[i] = True, problem.ub[i]


def _active_set(problem: QpProblem, rows: _UnitRows, lam_max: float,
                x0: np.ndarray, max_iter: int) -> _Optimum | QpSolution:
    """Primal active-set iterations from the feasible point x0.

    A bound becomes active by fixing its variable (at_lower / at_upper) and
    snapping it to the bound; only general inequality rows enter the
    working list; a variable with equal bounds starts at its lower one.
    Returns the stationary _Optimum for _finish, or the ray from _unbounded
    when a step of zero curvature meets no block.
    """
    q, lb, ub = problem.Q, problem.lb, problem.ub
    m_eq = rows.eq.shape[0]
    x = x0.copy()
    # Warm start: the equality rows, then the bounds and then the rows
    # active at x0, each only if independent of those kept before it.
    active = np.flatnonzero(rows.ineq @ x - rows.b_in <= 1e-8)
    at_lower = x - lb <= 1e-8
    at_upper = (ub - x <= 1e-8) & ~at_lower
    fixed = np.flatnonzero(at_lower | at_upper)
    if m_eq and fixed.size:     # bounds alone are always independent
        kept = _independent_rows(np.vstack([rows.eq, np.eye(problem.n)[fixed]]))[2]
        spanned = np.delete(fixed, kept[kept >= m_eq] - m_eq)
        at_lower[spanned] = at_upper[spanned] = False
    x[at_lower] = lb[at_lower]
    x[at_upper] = ub[at_upper]
    free = ~(at_lower | at_upper)
    independent = _independent_rows(np.vstack([rows.eq, rows.ineq[active]])[:, free])[2]
    working = [int(i) for i in active[np.sort(independent[independent >= m_eq]) - m_eq]]
    for iteration in range(1, max_iter + 1):
        grad = q @ x + problem.c
        mu_tol = 1e-9 * (1.0 + np.abs(grad).max(initial=0.0))
        free = ~(at_lower | at_upper)
        a_w = np.vstack([rows.eq, rows.ineq[working]])
        face = _face(a_w[:, free])
        z, multipliers, _, _ = face
        p, flat = np.zeros(problem.n), False
        if z.shape[1]:
            p_z, flat = _face_step(z.T @ q[np.ix_(free, free)] @ z, z.T @ grad[free],
                                   lam_max, mu_tol)
            p[free] = z @ p_z

        if not flat and np.abs(p).max(initial=0.0) <= 1e-10 * (1.0 + np.abs(x).max(initial=0.0)):
            nu = multipliers(grad[free])
            resid = grad - a_w.T @ nu
            lower_idx, upper_idx = np.flatnonzero(at_lower), np.flatnonzero(at_upper)
            # Candidates in order: working rows, lower bounds, upper bounds.
            mults = np.concatenate([nu[m_eq:], resid[lower_idx], -resid[upper_idx]])
            if mults.size == 0 or mults.min() >= -mu_tol:
                return _Optimum(x, working, at_lower, at_upper, face, iteration)
            # Drop the most negative multiplier; ties go to the first.
            _release(int(np.argmin(mults)), working, lower_idx, upper_idx, at_lower, at_upper)
            continue

        if flat:
            p /= np.abs(p).max()
        alpha, kind, i = _ratio_test(problem, rows, x, p, working, free,
                                     np.inf if flat else 1.0)
        if kind is None and flat:
            return _unbounded(problem, rows, lam_max, x, p, iteration)
        x = x + alpha * p
        _enter(problem, kind, i, x, working, at_lower, at_upper)
    raise QpIterationLimitError(f"active-set iteration cap {max_iter} exceeded")


def _unbounded(problem: QpProblem, rows: _UnitRows, lam_max: float, x: np.ndarray,
               ray: np.ndarray, iterations: int) -> QpSolution:
    """The unbounded verdict at x along ray, after checking the ray.

    With |ray|_inf = 1 it must have |Q ray|_inf within 1e-8 * max(1,
    lam_max), as in the PSD check, c'ray < 0, a_eq ray = 0 and a_in ray >= 0
    within 1e-9 on the unit rows, and the sign of every finite bound;
    otherwise QpError is raised.
    """
    tol = 1e-9
    failed = [name for name, bad in (
        ("Qd = 0", np.abs(problem.Q @ ray).max() > 1e-8 * max(1.0, lam_max)),
        ("c'd < 0", problem.c @ ray >= 0.0),
        ("a_eq d = 0", np.abs(rows.eq @ ray).max(initial=0.0) > tol),
        ("a_in d >= 0", (rows.ineq @ ray).min(initial=0.0) < -tol),
        ("lower bounds", ray[np.isfinite(problem.lb)].min(initial=0.0) < -tol),
        ("upper bounds", ray[np.isfinite(problem.ub)].max(initial=0.0) > tol),
    ) if bad]
    if failed:
        raise QpError(f"internal ray verification failed: {', '.join(failed)}")
    return QpSolution(x=x, objective=-np.inf, status=STATUS_UNBOUNDED,
                      max_violation=problem.max_violation(x), iterations=iterations, ray=ray)


def _finish(problem: QpProblem, rows: _UnitRows, optimum: _Optimum) -> QpSolution:
    """The verified optimal solution on the active set's final face.

    A least-norm step from the face's QR first puts the working rows back
    on their right-hand sides: the iterations leave them off by rounding in
    proportion to |x|, which a large multiplier turns into a false
    complementarity failure.  The multipliers fit the gradient Qx + c
    through the same QR, every bound dual is read off the stationarity
    residual, and the result must pass the KKT check; a non-finite x or
    multiplier fails it too, since it would slip through the comparisons.
    """
    x, working, at_lower, at_upper, (_, multipliers, restore, _), iterations = optimum
    free = ~(at_lower | at_upper)
    b_w = np.concatenate([rows.b_eq, rows.b_in[working]])
    x = x.copy()
    x[free] += restore(b_w - np.vstack([rows.eq, rows.ineq[working]]) @ x)
    x = np.clip(x, problem.lb, problem.ub)
    nu = multipliers((problem.Q @ x + problem.c)[free])
    m_eq = rows.eq.shape[0]
    eq_mult = np.zeros(problem.a_eq.shape[0])
    eq_mult[rows.eq_index] = nu[:m_eq] / rows.eq_norm
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
        upper_multipliers=np.where(at_upper, np.maximum(-resid, 0.0), 0.0),
        iterations=iterations,
    )
    if not all(np.all(np.isfinite(v)) for v in (x, eq_mult, in_mult, resid)):
        raise QpError("internal KKT verification failed: non-finite solution or multiplier")
    report = kkt_report(problem, sol)
    grad_scale = 1.0 + float(np.abs(problem.c).max(initial=0.0))
    rhs_scale = 1.0 + problem.rhs_scale()
    if report["stationarity"] > STATIONARITY_TOL * grad_scale or \
            report["complementarity"] > COMPLEMENTARITY_TOL * grad_scale * rhs_scale:
        raise QpError("internal KKT verification failed: "
                      f"stationarity={report['stationarity']:.3e}, "
                      f"complementarity={report['complementarity']:.3e}")
    return sol


def _solve(problem: QpProblem, start, max_iter: int | None):
    """solve_qp up to the active set's stop: (rows, lam_max, result).

    result is the infeasible or unbounded QpSolution, or the _Optimum that
    _finish turns into the optimal one.
    """
    if start is not None:
        start = np.asarray(start, dtype=float).ravel()
        if start.shape[0] != problem.n or not np.all(np.isfinite(start)):
            raise QpInputError(
                f"start must be a finite vector of length {problem.n}")
    rows = _unit_rows(problem)
    feas_tol = FEASIBILITY_TOL * (1.0 + problem.rhs_scale())
    # Equal bounds fix a variable, so Q need only be PSD on the others.
    movable = problem.lb < problem.ub
    eigvals = np.linalg.eigvalsh(problem.Q[np.ix_(movable, movable)])
    lam_max = float(eigvals.max(initial=0.0))
    if eigvals.min(initial=0.0) < -1e-8 * max(1.0, lam_max):
        raise QpInputError("Q is not positive semidefinite")

    if start is not None and np.all((problem.lb <= start) & (start <= problem.ub)) \
            and problem.max_violation(start) <= feas_tol:
        x0 = start
    else:
        x0, t_star = _phase1(problem)
        if t_star > feas_tol:
            return rows, lam_max, QpSolution(
                x=x0, objective=np.nan, status=STATUS_INFEASIBLE, max_violation=t_star)

    max_iter = max_iter if max_iter is not None else 50 * problem.n
    return rows, lam_max, _active_set(problem, rows, lam_max, x0, max_iter)


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
    not positive semidefinite on the variables whose bounds differ, and
    QpIterationLimitError if the active-set cap of 50*n iterations is
    exceeded.
    """
    rows, _, result = _solve(problem, start, _max_iter)
    if isinstance(result, QpSolution):
        return result
    return _finish(problem, rows, result)


def _multiplier_test(mults: np.ndarray, rates: np.ndarray, keys: np.ndarray, tol: float):
    """(beta, k): the least beta >= 0 at which mults + beta * rates first
    reaches zero, and the candidate k that does, the one with the least key
    among near-ties; (inf, -1) if none falls faster than tol."""
    falling = np.flatnonzero(rates < -tol)
    if not falling.size:
        return np.inf, -1
    ratios = np.maximum(mults[falling], 0.0) / -rates[falling]
    least = float(ratios.min())
    tied = falling[_near(ratios, least)]
    return least, int(tied[np.argmin(keys[tied])])


def _carrying(face, a_f: np.ndarray, nu: np.ndarray):
    """face with multipliers that keep nu's part in the null space of a_f'.

    The QR's own multipliers give a row it finds dependent a zero; these
    fit the gradient the same way but start from nu, the path's carried
    multipliers, so a dependency keeps the share nu gave it.
    """
    z, multipliers, restore, dependent = face
    return z, lambda g: nu + multipliers(g - a_f.T @ nu), restore, dependent


def _at_tau(problem: QpProblem, rows: _UnitRows, db_in: np.ndarray, d_in: np.ndarray,
            tau: float):
    """The problem and its unit rows with b_in moved to b_in + tau * db_in.

    The copy skips __post_init__: a finite b_in is all that changes, and
    validating the rest again would cost more than the KKT check it feeds.
    """
    b_in = problem.b_in + tau * db_in
    b_in.setflags(write=False)
    problem_t = copy.copy(problem)
    object.__setattr__(problem_t, "b_in", b_in)
    return problem_t, rows._replace(b_in=rows.b_in + tau * d_in)


def solve_qp_path(problem: QpProblem, db_in, taus, *, start) -> list[QpSolution]:
    """Optima of the problem with b_in moved to b_in + tau * db_in, per tau.

    The problem's own b_in is the path's start, tau = 0.  start is checked
    there exactly as solve_qp checks it (one that fails runs the phase-1
    LP), and the same active-set iterations give the tau = 0 optimum, so
    that point's x equals solve_qp(problem, start=start).x bit for bit.
    From there the path is followed, as the module docstring describes, to
    each tau of taus, a nondecreasing sequence in [0, 1].  If a row or
    bound that enters leaves the working rows dependent and no other
    multiplier falls along the dependency, the rows cannot be met past that
    tau: a requested tau whose rows the point still meets within the
    feasibility tolerance gets the point (the frontier's last target,
    max(e) up to rounding, ends at such a vertex), and a later one raises
    QpError.  The path ends through these rules alone: nothing is retried.

    Every returned point passes _finish's restore step and KKT check at
    its own tau.  Its iterations are those of tau = 0 plus the breakpoints
    passed.  Where Q leaves a face of optima, the path returns the points
    it reaches from the tau = 0 optimum.

    Raises QpInputError for a malformed db_in or taus (and as solve_qp
    does), QpError if the QP at tau = 0 is infeasible or unbounded or the
    rows cannot be met at a requested tau, and QpIterationLimitError past
    50*n breakpoints.
    """
    db_in = np.asarray(db_in, dtype=float).ravel()
    taus = np.asarray(taus, dtype=float).ravel()
    if db_in.shape != problem.b_in.shape or not np.all(np.isfinite(db_in)):
        raise QpInputError(f"db_in must be a finite vector of length {problem.b_in.shape[0]}")
    if not (taus.size and np.all((taus >= 0.0) & (taus <= 1.0)) and np.all(np.diff(taus) >= 0.0)):
        raise QpInputError("taus must be a nonempty nondecreasing sequence in [0, 1]")
    rows, lam_max, result = _solve(problem, start, None)
    if isinstance(result, QpSolution):
        raise QpError(f"the path needs an optimum at tau = 0, where the QP is {result.status}")
    x, working, at_lower, at_upper, _, iterations = result
    q, n, m_eq, m_in = problem.Q, problem.n, rows.eq.shape[0], rows.ineq.shape[0]
    d_in = db_in / rows.in_norm
    # multipliers of the rows of a_w: the equality rows, then the working rows
    tau, path, nu, entered = 0.0, [], np.zeros(m_eq + len(working)), -1
    for events in range(50 * n + 1):
        free = ~(at_lower | at_upper)
        a_w = np.vstack([rows.eq, rows.ineq[working]])
        a_f, d_w = a_w[:, free], np.concatenate([np.zeros(m_eq), d_in[working]])
        face = _face(a_f)
        z, multipliers, restore, dependent = face
        grad = q @ x + problem.c
        nu = nu + multipliers(grad[free] - a_f.T @ nu)    # refit the part a_f' sees
        resid = grad - a_w.T @ nu
        lower_idx, upper_idx = np.flatnonzero(at_lower), np.flatnonzero(at_upper)
        # Candidates in order: working rows, lower bounds, upper bounds; a
        # key orders every row and bound of the problem by index.
        mults = np.concatenate([nu[m_eq:], resid[lower_idx], -resid[upper_idx]])
        keys = np.concatenate([working, m_in + lower_idx, m_in + n + upper_idx])
        for j in dependent:
            # y'a_f = 0: moving nu along y keeps the free variables stationary
            y = multipliers(a_f[j])
            y[j] -= 1.0
            ay = a_w.T @ y
            rates = np.concatenate([y[m_eq:], -ay[lower_idx], ay[upper_idx]])
            tol = 1e-12 * (1.0 + np.abs(y).max())
            if np.abs(rates).max(initial=0.0) > tol:
                break
        else:
            j = -1      # no dependency, or one among equality rows only
        if j >= 0:
            # The working set is dependent: what entered last keeps a rising
            # multiplier and the first other one to reach zero leaves.
            k = np.flatnonzero(keys == entered)
            signs = (1.0, -1.0) if not k.size else (1.0 if rates[k[0]] >= 0.0 else -1.0,)
            theta, drop, sign = min((*_multiplier_test(mults, s * rates, keys, tol), s)
                                    for s in signs)
            if drop < 0:
                # nothing leaves: the rows cannot be met past tau
                for t in taus[len(path):]:
                    problem_t, rows_t = _at_tau(problem, rows, db_in, d_in, t)
                    if problem_t.max_violation(x) > FEASIBILITY_TOL * (1.0 + problem_t.rhs_scale()):
                        raise QpError(f"the rows cannot be met past tau = {tau!r}")
                    path.append(_finish(problem_t, rows_t, _Optimum(
                        x, working, at_lower, at_upper, _carrying(face, a_f, nu),
                        iterations + events)))
                return path
            nu = nu + theta * sign * y
        else:
            dx = np.zeros(n)
            dx[free] = restore(d_w)
            if z.shape[1]:
                q_ff = q[np.ix_(free, free)]
                v, _ = _face_step(z.T @ q_ff @ z, z.T @ (q_ff @ dx[free]), lam_max, np.inf)
                dx[free] += z @ v
            q_dx = q @ dx
            d_nu = multipliers(q_dx[free])
            d_resid = q_dx - a_w.T @ d_nu
            # A multiplier falling slower than the active set's tolerance
            # on it stays within that tolerance for the rest of the path.
            beta, drop = _multiplier_test(
                mults, np.concatenate([d_nu[m_eq:], d_resid[lower_idx], -d_resid[upper_idx]]),
                keys, 1e-9 * (1.0 + np.abs(grad).max(initial=0.0)))
            alpha, kind, i = _ratio_test(problem, rows._replace(b_in=rows.b_in + tau * d_in), x,
                                         dx, working, free, taus[-1] - tau, d_in)
            step = min(alpha, beta)
            while len(path) < taus.size and taus[len(path)] - tau <= step:
                t = taus[len(path)]
                path.append(_finish(*_at_tau(problem, rows, db_in, d_in, t), _Optimum(
                    x + (t - tau) * dx, working, at_lower, at_upper,
                    _carrying(face, a_f, nu + (t - tau) * d_nu), iterations + events)))
            if len(path) == taus.size:
                return path
            x, tau, nu = x + step * dx, tau + step, nu + step * d_nu
            if kind is not None:
                key = {"row": i, "lower": m_in + i, "upper": m_in + n + i}[kind]
                tied = drop >= 0 and _near(max(alpha, beta), step)
                if (key < keys[drop]) if tied else (alpha < beta):
                    nu = np.append(nu, 0.0) if kind == "row" else nu
                    _enter(problem, kind, i, x, working, at_lower, at_upper)
                    entered = key
                    continue
        entered = -1
        if drop < len(working):
            nu = np.delete(nu, m_eq + drop)
        _release(drop, working, lower_idx, upper_idx, at_lower, at_upper)
    raise QpIterationLimitError(f"path breakpoint cap {50 * n} exceeded")

"""Dense convex quadratic programming by one parametric active-set method.

Problems have the form

    minimize    0.5 x' Q x + c' x
    subject to  a_eq x  = b_eq
                a_in x >= b_in
                lb <= x <= ub

with Q symmetric positive semidefinite, small and dense (n up to a few
hundred), as the portfolio and lifetime-planning layers produce them:

* feasibility is decided by a phase-1 LP, solved by this same method, that
  minimizes the Chebyshev (max) constraint violation, so an infeasible
  verdict comes with the smallest achievable violation as a certificate.
  A ``start`` that keeps every bound and meets every row within the
  feasibility tolerance settles feasibility without it; any other
  ``start`` is ignored, so verdicts and certificates never depend on it;
* rows are normalized internally, so solutions are invariant under
  positive rescaling of any row.  A bound enters the working set by fixing
  its variable, so the null-space solves see only the equality and working
  rows on the free variables, and every bound multiplier is read off the
  stationarity residual Qx + c - a_eq'lam - a_in'mu.

Every solve follows one path of optima, a chain of legs in a parameter t
along which the working set changes only at events, with x and the
multipliers affine in t in between (the parametric active-set method of
Best 1996 and qpOASES, Ferreau, Kirches, Potschka, Bock & Diehl 2014; on
the long-only frontier, Markowitz's critical line).  The path's state is
x, the working rows and one side per bound, lower, upper or free:

* the start keeps the equality rows, then the bounds and then the rows
  active at the feasible x0, each only if it is independent of those kept
  before it; one unpivoted QR both names the dependent ones and factors
  the first face, and the bounds take a search of their own only when
  that QR names an equality row dependent;
* on the gradient leg, t from -1 to 0, the gradient moves to c from c0 =
  a_w'y0 + mu_lb - mu_ub - Q x0, for which x0 is optimal: y0 and mu are
  the first face's fit of Qx0 + c, every inequality and bound multiplier
  clipped at a ramp of distinct values near zero (qpOASES's ramping).
  solve_qp is this leg alone.  On right-hand-side leg j, t from j - 1 to
  j, b_in moves by row j of solve_qp_path's db_in; a leg's end changes the
  direction, not the face;
* on a face, x moves by the least-norm step onto the working rows' moving
  right-hand sides plus a minimum-norm solve with the reduced Hessian Z'QZ
  of the true Q.  An eigenvalue of Z'QZ at rounding level (dim * eps *
  lambda_max(Q)) is zero curvature.  Where the moving gradient descends
  along such an eigenvector by more than the multiplier tolerance over the
  rest of the leg, x moves at fixed t to the first row or bound that
  blocks, and if none does the direction is a ray, checked (Qd = 0,
  c'd < 0, every row and finite bound kept) before "unbounded" is
  returned; a smaller descent is dropped from the gradient's motion.  A
  Cholesky factor gives the step when it proves every eigenvalue above
  max(1e-14, 1e-10 * lambda_max(Q)).  Z'QZ is factored once, when its face
  opens, and every pass on the face, a leg's end included, solves with
  that factor; a zero Z'QZ, as on every face of an LP, is flat throughout
  and takes no factor;
* an event is the first row or bound that blocks x, which enters, or the
  first working multiplier that reaches zero, whose row or bound leaves.
  A rate within 1e-12 times 1 + the step's size blocks nothing; a
  multiplier leaves only if over the rest of the leg it would fall below
  minus its tolerance, at a rate above 1e-12 (1 + lambda_max(Q)) times
  1 + the step's size; and an event within rounding of a leg's end waits
  for the next leg;
* what blocks a step p has a'p != 0 where every working row and bound has
  a'p = 0, and a drop keeps the rest independent, so the working rows stay
  linearly independent on the free variables, but for an equality row that
  depends on the other equality rows: it holds wherever they do, and the
  face's QR gives it a zero multiplier.  In exact arithmetic only a
  moving right-hand side adds a dependent row; then the multipliers move
  along the dependency, the added one's rising, until another reaches zero
  and leaves (qpOASES's ensureLI).  If none falls, the rows cannot be met
  past that t, except on the gradient leg, where such an add is rounding:
  the rates then move along the dependency so that its multiplier stays;
* one tie rule: ties go to the least index in the order general rows,
  then bounds in variable order, which at a zero-length step is Bland's
  rule;
* every returned point passes a restore step, a least-norm step from the
  face's QR back onto the working rows, and a KKT check; its objective,
  violation and KKT residuals are all read off one Qx + c and one set of
  row slacks.

When the optimal face has a direction of zero curvature, the optimum is
not unique and the solver returns the point its path reaches; ``start``
changes that path and can select another optimal point with the same
objective.  Otherwise ``start`` changes the result only within the
tolerances.  With the deterministic tie rule and phase 1, results are
reproducible run to run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    """Active-set event cap exceeded (distinct from infeasibility)."""


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
    # which bounds are finite, found once per problem
    _finite_lb: np.ndarray = field(init=False, repr=False, compare=False)
    _finite_ub: np.ndarray = field(init=False, repr=False, compare=False)

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
                          ("a_in", a_in), ("b_in", b_in), ("lb", lb), ("ub", ub),
                          ("_finite_lb", np.isfinite(lb)), ("_finite_ub", np.isfinite(ub))):
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
        return _residuals(self, np.asarray(x, dtype=float))["max_violation"]

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
    report = _residuals(problem, sol.x, (sol.eq_multipliers, sol.in_multipliers,
                                         sol.lower_multipliers, sol.upper_multipliers))
    return {key: report[key] for key in ("stationarity", "complementarity", "dual_feasibility")}


def _residuals(problem: QpProblem, x: np.ndarray, multipliers=None,
               grad=None) -> dict[str, float]:
    """max_violation at x and, given the multipliers (eq, in, lower, upper),
    the objective and kkt_report's residuals.

    The row slacks and Qx + c (grad, when the caller has it already) are
    computed once, and every residual is read off them.
    """
    finite_lb, finite_ub = problem._finite_lb, problem._finite_ub
    slack = problem.a_in @ x - problem.b_in
    lb_gap = x[finite_lb] - problem.lb[finite_lb]
    ub_gap = problem.ub[finite_ub] - x[finite_ub]
    report = {"max_violation": float(max(
        0.0, np.abs(problem.a_eq @ x - problem.b_eq).max(initial=0.0),
        -slack.min(initial=0.0), -lb_gap.min(initial=0.0), -ub_gap.min(initial=0.0)))}
    if multipliers is None:
        return report
    eq_mult, in_mult, lower, upper = multipliers
    if grad is None:
        grad = problem.Q @ x + problem.c
    stationarity = grad - problem.a_eq.T @ eq_mult - problem.a_in.T @ in_mult - lower + upper
    report.update(
        objective=float(0.5 * x @ (grad + problem.c)),
        stationarity=float(np.abs(stationarity).max(initial=0.0)),
        complementarity=float(max(0.0, np.abs(in_mult * slack).max(initial=0.0),
                                  np.abs(lower[finite_lb] * lb_gap).max(initial=0.0),
                                  np.abs(upper[finite_ub] * ub_gap).max(initial=0.0))),
        dual_feasibility=float(min(0.0, in_mult.min(initial=0.0), lower.min(initial=0.0),
                                   upper.min(initial=0.0))),
    )
    return report


# ---------------------------------------------------------------------------
# internal machinery
# ---------------------------------------------------------------------------

class _UnitRows(NamedTuple):
    """The general rows scaled to unit norm, a zero row keeping norm 1;
    eq_norm and in_norm unscale the multipliers."""

    eq: np.ndarray
    b_eq: np.ndarray
    ineq: np.ndarray
    b_in: np.ndarray
    eq_norm: np.ndarray
    in_norm: np.ndarray


def _unit_rows(problem: QpProblem) -> _UnitRows:
    def scaled(a, b):
        norm = np.linalg.norm(a, axis=1)
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
    It is one solve_qp over (x, t) with Q = 0, from the feasible start
    x = clip(0, lb, ub) with t its largest violation.
    """
    n = problem.n
    a = np.vstack([problem.a_in, problem.a_eq, -problem.a_eq])
    b = np.concatenate([problem.b_in, problem.b_eq, -problem.b_eq])
    x0 = np.clip(np.zeros(n), problem.lb, problem.ub)
    if not b.size:
        return x0, 0.0
    lp = QpProblem(Q=np.zeros((n + 1, n + 1)), c=np.r_[np.zeros(n), 1.0],
                   a_in=np.c_[a, np.ones(b.size)], b_in=b,
                   lb=np.r_[problem.lb, 0.0], ub=np.r_[problem.ub, np.inf])
    try:
        sol = solve_qp(lp, start=np.r_[x0, max(0.0, float((b - a @ x0).max()))])
        if sol.status != STATUS_OPTIMAL:    # a ray within the ray check's tolerance
            raise QpError(f"the LP is {sol.status}")
    except QpError as exc:
        raise QpError(f"phase-1 feasibility LP failed: {exc}") from exc
    return sol.x[:n], float(sol.x[n])


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


def _face(a_w: np.ndarray, factors=None):
    """(z, multipliers, restore, dependent) for the working rows a_w, from
    the QR of _independent_rows (factors, when that is at hand already).

    z is an orthonormal basis of {p : a_w p = 0}; multipliers(g) solves
    a_w' nu = g on the independent rows, with R inverted once, giving every
    dependent row a zero multiplier; restore(r) is the least-norm step s
    with a_w s = r on those rows, through the same inverse; dependent
    indexes the other rows.
    """
    m = a_w.shape[0]
    q, r, independent, dependent = _independent_rows(a_w) if factors is None else factors
    rank = independent.size
    to_nu = np.linalg.inv(r[:rank, :rank]) @ q[:, :rank].T

    def multipliers(g: np.ndarray) -> np.ndarray:
        nu = np.zeros(m)
        nu[independent] = to_nu @ g
        return nu

    def restore(resid: np.ndarray) -> np.ndarray:
        return resid[independent] @ to_nu

    return q[:, rank:], multipliers, restore, dependent


def _near(ratios, least: float):
    """Which ratios are within rounding of the least one."""
    return ratios <= least * (1.0 + 1e-9) + 1e-15


def _ratio_test(problem: QpProblem, face: _Face, a_in: np.ndarray, b_in: np.ndarray,
                x: np.ndarray, p: np.ndarray, cap: float, d_in=None):
    """Longest step alpha <= cap from x along p, and what blocks it.

    a_in and b_in are the unit rows, b_in where the leg puts it.  On a path
    the inequality right-hand sides move by d_in per unit step; within one
    QP they stay put (d_in None).  Candidates are the general rows outside
    the face's working list, in index order, then the free variables, in
    index order, at the finite bound that the step approaches at a rate
    above rounding (1e-12 of the largest entry of p and d_in); the first
    near-minimal ratio blocks.  Returns (alpha, key, side): key is i for
    row i and m_in + i for a bound of variable i, and side is 1 for its
    lower bound and -1 for its upper one; (cap, -1, 0) when nothing blocks
    first.
    """
    ap = a_in @ p
    # a rate within rounding of zero, relative to the step, never blocks
    tol = 1e-12 * (1.0 + np.abs(p).max(initial=0.0))
    if d_in is not None:
        ap -= d_in
        tol += 1e-12 * np.abs(d_in).max(initial=0.0)
    blocking = face.outside[ap[face.outside] < -tol]
    free = face.free
    down = (p[free] < -tol) & problem._finite_lb[free]
    hits = down | ((p[free] > tol) & problem._finite_ub[free])
    bounds, side = free[hits], np.where(down[hits], 1.0, -1.0)
    value = np.where(side > 0, problem.lb[bounds], problem.ub[bounds])
    ratios = np.concatenate([
        np.maximum(a_in[blocking] @ x - b_in[blocking], 0.0) / -ap[blocking],
        np.maximum(side * (x[bounds] - value), 0.0) / (-side * p[bounds]),
    ])
    if not ratios.size or ratios.min() >= cap:
        return cap, -1, 0.0
    alpha = float(ratios.min())
    k = int(np.argmax(_near(ratios, alpha)))
    if k < blocking.size:
        return alpha, int(blocking[k]), 0.0
    k -= blocking.size
    return alpha, a_in.shape[0] + int(bounds[k]), float(side[k])


def _reduced_step(h_red: np.ndarray, lam_max: float):
    """step(g_red) -> (p, p_flat): the steps on a face with reduced Hessian
    h_red for a reduced gradient g_red, from one factorization of h_red.

    An eigenvalue of h_red at or below dim * eps * lam_max, lam_max the
    largest eigenvalue of Q on the variables whose bounds differ, is
    rounding: zero curvature.  p is the minimum-norm Newton step on the
    other eigenvectors, and p_flat is g_red's component along the flat
    ones, negated, or None when there are none.  A zero h_red is flat
    everywhere: p = 0 and p_flat = -g_red, with nothing to factor.  When
    the Cholesky factor L shows every eigenvalue to be above the floor
    max(1e-14, 1e-10 * lam_max), by |L^-1|_F^2 = trace(h_red^-1) < 1/floor,
    p is the Newton step from L and no eigendecomposition is needed.
    """
    if not h_red.any():
        return lambda g_red: (np.zeros_like(g_red), -g_red)
    floor = max(1e-14, 1e-10 * lam_max)
    try:
        inv = np.linalg.inv(np.linalg.cholesky(h_red))
        if np.sum(inv * inv) < 1.0 / floor:
            return lambda g_red: (-(inv.T @ (inv @ g_red)), None)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(h_red)
    flat = eigvals <= h_red.shape[0] * np.finfo(float).eps * lam_max
    curved, flat_vecs, curvature = eigvecs[:, ~flat], eigvecs[:, flat], eigvals[~flat]

    def step(g_red: np.ndarray):
        p = -(curved @ (curved.T @ g_red / curvature))
        return p, -(flat_vecs @ (flat_vecs.T @ g_red)) if flat_vecs.shape[1] else None

    return step


class _Face(NamedTuple):
    """A face of the path, factored once when it opens (_open_face).

    free indexes the free variables, a_w stacks the equality and working
    rows and a_f is a_w on free; z, multipliers, restore and dependent are
    _face's for a_f, zq is z'Q on free and step the _reduced_step of z'Qz
    (None when z has no column).  For the event tests, fixed indexes the
    fixed variables and side their bounds' sides, keys orders the working
    rows and those bounds as _solve's candidates, and outside indexes the
    general rows not in the working list.
    """

    free: np.ndarray
    a_w: np.ndarray
    a_f: np.ndarray
    z: np.ndarray
    multipliers: Callable
    restore: Callable
    dependent: np.ndarray
    zq: np.ndarray
    step: Callable | None
    fixed: np.ndarray
    side: np.ndarray
    keys: np.ndarray
    outside: np.ndarray


def _open_face(problem: QpProblem, rows: _UnitRows, lam_max: float, working: list[int],
               side: np.ndarray, factors=None) -> _Face:
    """The _Face of the working rows and the bounds side fixes; factors is
    the QR of the working rows on the free variables when _start has it."""
    m_in = rows.ineq.shape[0]
    free, fixed = np.flatnonzero(side == 0.0), np.flatnonzero(side)
    a_w = np.vstack([rows.eq, rows.ineq[working]])
    a_f = a_w[:, free]
    z, multipliers, restore, dependent = _face(a_f, factors)
    zq = z.T @ problem.Q.take(free, axis=0).take(free, axis=1)
    outside = np.ones(m_in, dtype=bool)
    outside[working] = False
    return _Face(free, a_w, a_f, z, multipliers, restore, dependent, zq,
                 _reduced_step(zq @ z, lam_max) if z.shape[1] else None, fixed, side[fixed],
                 np.concatenate([working, m_in + fixed]), np.flatnonzero(outside))


def _start(problem: QpProblem, rows: _UnitRows, x0: np.ndarray):
    """The working set at the feasible point x0, and the QR of its rows.

    The equality rows, then the bounds and then the rows active at x0 are
    kept, each only if it is independent of those kept before it; a kept
    bound puts x on its value, and a variable with equal bounds starts at
    its lower one.  The bounds and the equality rows are independent
    together exactly when the equality rows are independent on the free
    variables, so the bounds take a search of their own only when the QR
    of the face names an equality row dependent.  Returns (x, working,
    side, factors): side is 1 at a kept lower bound, -1 at a kept upper
    one and 0 elsewhere, and factors is the last dependency search's QR,
    for _face, when that is the QR of the kept rows in their order, and
    None otherwise.
    """
    lb, ub, m_eq = problem.lb, problem.ub, rows.eq.shape[0]
    active = np.flatnonzero(rows.ineq @ x0 - rows.b_in <= 1e-8)
    side = np.where(x0 - lb <= 1e-8, 1.0, np.where(ub - x0 <= 1e-8, -1.0, 0.0))
    a_active = np.vstack([rows.eq, rows.ineq[active]])
    q, r, independent, dependent = _independent_rows(a_active[:, side == 0.0])
    if (dependent < m_eq).any():
        fixed = np.flatnonzero(side)
        kept = _independent_rows(np.vstack([rows.eq, np.eye(problem.n)[fixed]]))[2]
        side[np.delete(fixed, kept[kept >= m_eq] - m_eq)] = 0.0
        q, r, independent, _ = _independent_rows(a_active[:, side == 0.0])
    x = np.where(side > 0, lb, np.where(side < 0, ub, x0))
    kept = np.sort(independent)
    working = [int(i) for i in active[kept[kept >= m_eq] - m_eq]]
    reuse = np.array_equal(kept, independent) and np.array_equal(kept[:m_eq], np.arange(m_eq))
    return x, working, side, (q, r, np.arange(kept.size), kept[:0]) if reuse else None


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


def _finish(problem: QpProblem, rows: _UnitRows, x: np.ndarray, working: list[int],
            side: np.ndarray, face: _Face, nu: np.ndarray, iterations: int) -> QpSolution:
    """The verified optimal solution at the point x of a path, on face,
    with the path's multipliers nu of the face's rows.

    A least-norm step from the face's QR first puts the working rows back
    on their right-hand sides: the events leave them off by rounding in
    proportion to |x|, which a large multiplier turns into a false
    complementarity failure.  The multipliers refit nu to the gradient
    Qx + c through the same QR, so a row the QR finds dependent keeps the
    share nu gave it, every bound dual is read off the stationarity
    residual, and the result must pass the KKT check; a non-finite x or
    multiplier fails it too, since it would slip through the comparisons.
    The objective, the violation and the KKT residuals come from one Qx + c
    and one set of row slacks (_residuals).
    """
    x = x.copy()
    x[face.free] += face.restore(np.concatenate([rows.b_eq, rows.b_in[working]]) - face.a_w @ x)
    x = np.clip(x, problem.lb, problem.ub)
    grad = problem.Q @ x + problem.c
    nu = nu + face.multipliers(grad[face.free] - face.a_f.T @ nu)
    m_eq = rows.eq.shape[0]
    eq_mult = nu[:m_eq] / rows.eq_norm
    in_mult = np.zeros(problem.a_in.shape[0])
    in_mult[working] = np.maximum(nu[m_eq:] / rows.in_norm[working], 0.0)
    resid = grad - problem.a_eq.T @ eq_mult - problem.a_in.T @ in_mult
    if not np.all(np.isfinite(resid)):     # x and every multiplier feed it
        raise QpError("internal KKT verification failed: non-finite solution or multiplier")
    bound_mult = np.maximum(side * resid, 0.0)
    lower = np.where(side > 0, bound_mult, 0.0)
    upper = np.where(side < 0, bound_mult, 0.0)
    report = _residuals(problem, x, (eq_mult, in_mult, lower, upper), grad)
    grad_scale = 1.0 + float(np.abs(problem.c).max(initial=0.0))
    rhs_scale = 1.0 + problem.rhs_scale()
    if report["stationarity"] > STATIONARITY_TOL * grad_scale or \
            report["complementarity"] > COMPLEMENTARITY_TOL * grad_scale * rhs_scale:
        raise QpError("internal KKT verification failed: "
                      f"stationarity={report['stationarity']:.3e}, "
                      f"complementarity={report['complementarity']:.3e}")
    return QpSolution(x=x, objective=report["objective"], status=STATUS_OPTIMAL,
                      max_violation=report["max_violation"], eq_multipliers=eq_mult,
                      in_multipliers=in_mult, lower_multipliers=lower,
                      upper_multipliers=upper, iterations=iterations)


def solve_qp(problem: QpProblem, *, start=None,
             _max_iter: int | None = None) -> QpSolution:
    """Minimize 0.5 x'Qx + c'x subject to the problem's constraints.

    start, when given, is any finite point of length n.  If it keeps every
    bound and violates no row by more than the feasibility tolerance
    1e-7 * (1 + |b|_inf), the gradient leg begins there and no LP is
    solved; a start near the optimum (the plan of a neighbouring problem)
    also shortens the leg.  Any other start is ignored and phase 1, the
    Chebyshev LP on this solver, runs as without it: start never changes
    the verdict.  Where the optimum is unique, start changes the returned
    point only within the tolerances; where Q leaves a face of optima, it
    can select a different point of that face, with the same objective.

    Returns a solution with status "optimal", "infeasible" or "unbounded".
    Raises QpInputError for malformed data or start, or for a Q that is
    not positive semidefinite on the variables whose bounds differ, and
    QpIterationLimitError past 50*n events.
    """
    return _solve(problem, start, np.zeros((0, problem.b_in.shape[0])), np.zeros(1),
                  50 * problem.n if _max_iter is None else _max_iter)[0]


def _multiplier_test(mults: np.ndarray, rates: np.ndarray, keys: np.ndarray, tol):
    """(beta, k): the least beta >= 0 at which mults + beta * rates first
    reaches zero, and the candidate k that does, the one with the least key
    among near-ties; (inf, -1) if none falls faster than tol, a scalar or
    one per candidate."""
    falling = np.flatnonzero(rates < -tol)
    if not falling.size:
        return np.inf, -1
    ratios = np.maximum(mults[falling], 0.0) / -rates[falling]
    least = float(ratios.min())
    tied = falling[_near(ratios, least)]
    return least, int(tied[np.argmin(keys[tied])])


def _solve(problem: QpProblem, start, legs: np.ndarray, taus: np.ndarray,
           max_events: int) -> list[QpSolution]:
    """The verified optima at taus along the legs, or a one-element list
    holding the infeasible or unbounded verdict.

    The path starts at start if it is feasible, else at phase 1's point.
    Leg 0 runs t from -1 to 0, the gradient c + t dc moving from c0, for
    which that point is optimal, to c; leg j >= 1 runs t from j - 1 to j,
    b_in moving by legs[j - 1].  The module docstring describes the events.
    The state is x, the working rows and side, each bound's side (1 lower,
    -1 upper, 0 free).  Each face is factored once, when it opens
    (_open_face); a pass on it only solves with those factors.
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
            return [QpSolution(x=x0, objective=np.nan, status=STATUS_INFEASIBLE,
                               max_violation=t_star)]

    q, c, n = problem.Q, problem.c, problem.n
    m_eq, m_in = rows.eq.shape[0], rows.ineq.shape[0]
    b_starts = problem.b_in + np.cumsum(np.vstack([np.zeros(m_in), legs]), axis=0)
    d_legs = legs / rows.in_norm
    unit_starts = b_starts / rows.in_norm

    def unit_b_in(t: float, leg: int) -> np.ndarray:
        """The unit rows' b_in where leg puts it at t."""
        return rows.b_in if leg == 0 else unit_starts[leg - 1] + (t - leg + 1) * d_legs[leg - 1]

    def at(t: float, leg: int):
        """The problem and its unit rows with b_in where leg puts it at t
        (the copy skips __post_init__: a finite b_in is all that changes)."""
        if leg == 0:
            return problem, rows
        b_in = b_starts[leg - 1] + (t - leg + 1) * legs[leg - 1]
        b_in.setflags(write=False)
        problem_t = copy.copy(problem)
        object.__setattr__(problem_t, "b_in", b_in)
        return problem_t, rows._replace(b_in=unit_b_in(t, leg))

    x, working, side, factors = _start(problem, rows, x0)
    t, leg, path, entered, face, dc = -1.0, 0, [], -1, None, None
    for passes in range(1, max_events + 2):
        if face is None:
            face, factors = _open_face(problem, rows, lam_max, working, side, factors), None
        free, a_w, a_f, multipliers = face.free, face.a_w, face.a_f, face.multipliers
        g_true = q @ x + c
        if dc is None:
            # x0 is optimal for c0 = a_w'nu + side * mu - Q x0, where nu and
            # mu are the first face's fit of the true gradient, and dc =
            # c - c0.  Every inequality and bound multiplier is clipped at a
            # ramp of distinct values near zero (qpOASES's ramping), not at
            # zero, where every drop would tie at t = -1: least-index ties
            # alone cycled there.  The ramp spaces m_in + 2n slots and a
            # bound takes its variable's slot on either side: spaced over
            # m_in + n slots instead, the values moved, and that failed more
            # tied-means solves (50 against 43 of 3,000 from the best vertex,
            # 84 against 60 cold) and changed a digit of the sample plan.
            ramp = (1e-6 * (1.0 + np.abs(g_true).max(initial=0.0))
                    * (1.0 + np.arange(m_in + n) / (m_in + 2 * n)))
            nu = multipliers(g_true[free])
            nu[m_eq:] = np.maximum(nu[m_eq:], ramp[working])
            resid = g_true - a_w.T @ nu
            dc = np.where(side != 0.0, side * np.minimum(side * resid - ramp[m_in:], 0.0), resid)
        grad = g_true + t * dc if leg == 0 else g_true
        mu_tol = 1e-9 * (1.0 + np.abs(g_true).max(initial=0.0))
        nu = nu + multipliers(grad[free] - a_f.T @ nu)    # refit the part a_f' sees
        resid = grad - a_w.T @ nu
        # Candidates in order: working rows, then fixed bounds; a key orders
        # every row and bound of the problem by index.
        mults = np.concatenate([nu[m_eq:], face.side * resid[face.fixed]])
        keys = face.keys
        for j in face.dependent:
            # y'a_f = 0: moving nu along y keeps the free variables stationary
            y = multipliers(a_f[j])
            y[j] -= 1.0
            rates = np.concatenate([y[m_eq:], -face.side * (a_w.T @ y)[face.fixed]])
            tol = 1e-12 * (1.0 + np.abs(y).max())
            if np.abs(rates).max(initial=0.0) > tol:
                break
        else:
            j = -1      # no dependency, or one among equality rows only
        if j >= 0:
            # The working set is dependent: what entered last keeps a rising
            # multiplier and the first other one to reach zero leaves.
            last = np.flatnonzero(keys == entered)
            signs = (1.0, -1.0) if not last.size else (1.0 if rates[last[0]] >= 0.0 else -1.0,)
            theta, drop, sign = min((*_multiplier_test(mults, s * rates, keys, tol), s)
                                    for s in signs)
            if drop < 0 and leg:
                # nothing leaves: the rows cannot be met past t on this leg.
                # Requested points up to its end, and the next leg, start
                # from x while x meets their rows.
                for tau in [*taus[len(path):][taus[len(path):] <= leg], leg]:
                    problem_t, rows_t = at(tau, leg)
                    if problem_t.max_violation(x) > FEASIBILITY_TOL * (1.0 + problem_t.rhs_scale()):
                        raise QpError(f"the rows cannot be met past tau = {t!r}")
                    if len(path) < taus.size and taus[len(path)] == tau:
                        path.append(_finish(problem_t, rows_t, x, working, side, face, nu, passes))
                if len(path) == taus.size:
                    return path
                t, leg, entered = float(leg), leg + 1, -1
                continue
        if j >= 0 and drop >= 0:
            nu, key = nu + theta * sign * y, -1
        else:
            d_in = d_legs[leg - 1] if leg else None
            dx = np.zeros(n)
            if leg:
                dx[free] = face.restore(np.concatenate([np.zeros(m_eq), d_in[working]]))
            v_flat = None
            if face.step is not None:
                # x moves on the face so that the gradient's rate at fixed x
                # stays in the span of the working rows
                v, v_flat = face.step(face.z.T @ dc[free] if leg == 0 else face.zq @ dx[free])
                if v_flat is not None and leg == 0 and -t * np.abs(v_flat).max() <= mu_tol:
                    # over the rest of the leg that descent moves the gradient
                    # by less than the tolerance on it: dc leaves it out, so
                    # that the multipliers' rates agree with x's
                    dc[free] += face.z @ v_flat
                    v_flat = None
                dx[free] += face.z @ v
            if v_flat is not None and leg == 0:
                # the moving gradient descends where the face has no
                # curvature: x moves at fixed t to the first block, or the
                # leg ends on a ray
                p = np.zeros(n)
                p[free] = face.z @ v_flat
                p /= np.abs(p).max()
                alpha, key, s = _ratio_test(problem, face, rows.ineq, rows.b_in, x, p, np.inf)
                if key < 0:
                    return [_unbounded(problem, rows, lam_max, x, p, passes)]
                x = x + alpha * p
            else:
                q_dx = q @ dx + dc if leg == 0 else q @ dx
                d_nu = multipliers(q_dx[free])
                d_resid = q_dx - a_w.T @ d_nu
                d_mults = np.concatenate([d_nu[m_eq:], face.side * d_resid[face.fixed]])
                if j >= 0 and last.size and abs(rates[last[0]]) > tol:
                    # a gradient leg's dependent add is rounding: it keeps
                    # its multiplier, the rates moving along the dependency
                    shift = d_mults[last[0]] / rates[last[0]]
                    d_nu, d_mults = d_nu - shift * y, d_mults - shift * rates
                # A multiplier drops only if, over the rest of the leg, it
                # would fall below minus the tolerance on it, at a rate above
                # the rounding of Q dx: a slower fall stays within that
                # tolerance until the leg ends, and on a near-singular face,
                # whose step is large, a rate at rounding level would drop a
                # bound that the next face adds back at once, in a cycle.
                rounding = 1e-12 * (1.0 + lam_max) * (1.0 + np.abs(dx).max())
                beta, drop = _multiplier_test(mults, d_mults, keys, np.maximum(
                    (np.maximum(mults, 0.0) + mu_tol) / (leg - t), rounding))
                alpha, key, s = _ratio_test(problem, face, rows.ineq, unit_b_in(t, leg), x, dx,
                                            leg - t, d_in)
                # an event within rounding of the leg's end waits for the
                # next leg, whose direction can differ
                ends = _near(leg - t, min(alpha, beta))
                step = leg - t if ends else min(alpha, beta)
                while len(path) < taus.size and taus[len(path)] - t <= step:
                    tau = taus[len(path)]
                    path.append(_finish(*at(tau, leg), x + (tau - t) * dx, working, side, face,
                                        nu + (tau - t) * d_nu, passes))
                if len(path) == taus.size:
                    return path
                x, t, nu = x + step * dx, t + step, nu + step * d_nu
                if ends:
                    t, leg = float(leg), leg + 1        # the next leg, on the same face
                    continue
                tied = drop >= 0 and _near(max(alpha, beta), step)
                if key >= 0 and not ((key < keys[drop]) if tied else (alpha < beta)):
                    key = -1
            if key >= 0:
                # what blocks enters; a bound puts x[i] on its value
                if key < m_in:
                    working.append(key)
                    nu = np.append(nu, 0.0)
                else:
                    i = key - m_in
                    side[i], x[i] = s, problem.lb[i] if s > 0 else problem.ub[i]
                entered, face = key, None
                continue
        entered, face, key = -1, None, int(keys[drop])
        if key < m_in:
            working.pop(drop)
            nu = np.delete(nu, m_eq + drop)
        else:
            side[key - m_in] = 0.0
    raise QpIterationLimitError(f"event cap {max_events} exceeded")


def solve_qp_path(problem: QpProblem, db_in, taus, *, start) -> list[QpSolution]:
    """Optima of the problem with b_in moved along legs, one per tau.

    db_in is one leg, a vector of length m_in, or k consecutive legs, an
    array of shape (k, m_in): at tau in [j - 1, j], b_in has moved by
    db_in[0] + ... + db_in[j - 2] + (tau - j + 1) db_in[j - 1].  start is
    checked as solve_qp checks it, and the same gradient leg gives the
    tau = 0 optimum, so that point's x is solve_qp(problem, start=start).x
    bit for bit.  From there the legs are followed, as the module docstring
    describes, to each tau of taus, a nondecreasing sequence in [0, k].
    Where the rows cannot be met past some tau, a requested tau up to that
    leg's end whose rows the point still meets within the feasibility
    tolerance gets the point (the frontier's last target, max(e) up to
    rounding, ends at such a vertex), and the next leg starts from it; any
    other raises QpError.  Nothing is retried.

    Every returned point passes the restore step and KKT check at its own
    tau, and its iterations count the events from start to it.  Where Q
    leaves a face of optima, the path returns the points it reaches.

    Raises QpInputError for a malformed db_in or taus (and as solve_qp
    does), QpError if the QP at tau = 0 is infeasible or unbounded or the
    rows cannot be met at a requested tau, and QpIterationLimitError past
    50*n events per leg, the gradient leg included.
    """
    m_in = problem.b_in.shape[0]
    db_in = np.asarray(db_in, dtype=float)
    legs = db_in.reshape(1, -1) if db_in.ndim == 1 else db_in
    k = legs.shape[0] if legs.ndim == 2 else 0
    if not (k and legs.shape[1] == m_in and np.all(np.isfinite(legs))):
        raise QpInputError(
            f"db_in must be a finite vector of length {m_in} or a (k, {m_in}) array, k >= 1")
    taus = np.asarray(taus, dtype=float).ravel()
    if not (taus.size and np.all((taus >= 0.0) & (taus <= k)) and np.all(np.diff(taus) >= 0.0)):
        raise QpInputError(f"taus must be a nonempty nondecreasing sequence in [0, {k}]")
    path = _solve(problem, start, legs, taus, 50 * problem.n * (k + 1))
    if path[0].status != STATUS_OPTIMAL:
        raise QpError(f"the path needs an optimum at tau = 0, where the QP is {path[0].status}")
    return path

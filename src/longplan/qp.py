"""Dense convex quadratic programming by one parametric active-set method.

Problems have the form

    minimize    0.5 x' Q x + c' x
    subject to  a_eq x  = b_eq
                a_in x >= b_in
                lb <= x <= ub

with Q symmetric positive semidefinite, small and dense (n up to a few
hundred), as the portfolio and lifetime-planning layers produce them:

* a QpProblem is checked once, when it is built, Q's convexity included
  (one eigvalsh on the variables whose bounds differ), and that pass also
  derives the unit rows and lambda_max(Q) that every solve of it reads;
* feasibility is decided by a phase-1 LP, solved by this same method, that
  minimizes the Chebyshev (max) constraint violation, so an infeasible
  verdict comes with the smallest achievable violation as a certificate.
  A ``start`` that keeps every bound and meets every row within the
  feasibility tolerance settles feasibility without it; any other
  ``start`` is ignored, so verdicts and certificates never depend on it;
* rows are normalized to unit norm, so solutions are invariant under
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
  before it; one unpivoted QR names the dependent ones, and the bounds
  take a search of their own only when that QR names an equality row
  dependent;
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
  max(1e-14, 1e-10 * lambda_max(Q));
* a solve factors its first face from scratch, a QR of the working rows
  on the free variables and a factor of Z'QZ.  Each event then updates
  the face's null-space basis Z, its multiplier map T and (Z'QZ)^-1 in
  O(n^2), with no QR, inverse or Cholesky factor: a row or bound that
  leaves borders them, and one that enters splits Z by a Householder
  reflection (the updates of Goldfarb & Idnani 1983 and qpOASES).  Z and
  T live in the coordinates of every variable and every general row,
  with exact zeros at the fixed variables and at the rows outside the
  working list, so an event neither gathers nor scatters: a bound that
  leaves adds e_i to the new direction, one that enters zeroes its row
  of Z and column of T, and a row's row of T is set or zeroed.  Every
  pass on a face, a leg's end included, solves with its factors.  A face
  is factored afresh only where an update is unsafe: the face before it
  has a dependent row or no Cholesky certificate, or the update's pivot
  is too small for its rounding (_next_face).  A zero Z'QZ, as on every
  face of an LP, is flat throughout and takes no factor;
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
  the rates then move along the dependency so that its multiplier stays.
  Where the working set comes back to one met before at the same t of the
  gradient leg, the dependency moves have cycled, and such an add is taken
  back and set aside until t moves;
* one tie rule: ties go to the least index in the order general rows,
  then bounds in variable order, which at a zero-length step is Bland's
  rule.  The ratio test's candidates are the unit rows and each
  variable's lower and upper bound rows, e_i and -e_i, whose values are
  read off x and the step without a product, with a mask of the
  candidates that each event flips; only those that block are compared;
* a path with no stop keeps its requested points until it exits, at its
  end, where the rows cannot be met or at the event cap, and verifies
  them all together, as one stack of points; each waits as x, its
  multipliers, b_in, its face's bound sides and a reference to its face's
  map T, which no event writes in place: O(points * (n + m)) floats and
  one T per face that holds points.  A path with stop verifies the points
  of each face, those before the next event or the leg's end, as it
  reaches them.  Each point still passes a restore step, a least-norm
  step through its face's map T back onto the working rows and a clip to
  the bounds, taken twice, and a KKT check, feasibility included; its
  objective, violation and KKT residuals come from one Qx + c and one set
  of row slacks.  Every product on the stack is taken row by row
  (_by_rows), those through T once per face that holds points, so a
  point's bits do not depend on the other points verified with it.

When the optimal face has a direction of zero curvature, the optimum is
not unique and the solver returns the point its path reaches; ``start``
changes that path and can select another optimal point with the same
objective.  Otherwise ``start`` changes the result only within the
tolerances.  With the deterministic tie rule and phase 1, results are
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

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


def _as_matrix(a, cols: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, cols))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != cols:
        raise QpInputError(f"{name} has shape {a.shape}, expected (*, {cols})")
    return a


class _UnitRows(NamedTuple):
    """The general rows scaled to unit norm, a zero row keeping norm 1;
    norm, eq_norm over in_norm, unscales the multipliers.  a stacks the
    equality rows over the inequality rows, and eq and ineq are its two
    blocks."""

    a: np.ndarray
    eq: np.ndarray
    b_eq: np.ndarray
    eq_norm: np.ndarray
    ineq: np.ndarray
    b_in: np.ndarray
    in_norm: np.ndarray
    norm: np.ndarray


@dataclass(frozen=True)
class QpProblem:
    """Immutable convex QP data, checked and prepared on construction.

    Raises QpInputError for malformed data or for a Q that is not positive
    semidefinite on the variables whose bounds differ (equal bounds fix a
    variable).  The private fields hold what every solve reads.
    """

    Q: np.ndarray
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    _finite_lb: np.ndarray = field(init=False, repr=False, compare=False)
    _finite_ub: np.ndarray = field(init=False, repr=False, compare=False)
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: _UnitRows = field(init=False, repr=False, compare=False)
    _lam_max: float = field(init=False, repr=False, compare=False)
    _grad_scale: float = field(init=False, repr=False, compare=False)
    _b_eq_scale: float = field(init=False, repr=False, compare=False)

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

        a_eq = _as_matrix(self.a_eq, n, "a_eq")
        b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        a_in = _as_matrix(self.a_in, n, "a_in")
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
            raise QpInputError(f"lb > ub at index {int(np.argmax(lb > ub))}")

        eigvals = np.linalg.eigvalsh(q[np.ix_(lb < ub, lb < ub)])
        lam_max = float(eigvals.max(initial=0.0))
        if eigvals.min(initial=0.0) < -1e-8 * max(1.0, lam_max):
            raise QpInputError("Q is not positive semidefinite")

        unit = []
        for a, b in ((a_eq, b_eq), (a_in, b_in)):
            norm = np.linalg.norm(a, axis=1)
            norm[norm <= 1e-300] = 1.0
            unit += [a / norm[:, None], b / norm, norm]
        a = np.vstack([unit[0], unit[3]])
        unit[0], unit[3] = a[:a_eq.shape[0]], a[a_eq.shape[0]:]
        for name, arr in (("Q", q), ("c", c), ("a_eq", a_eq), ("b_eq", b_eq),
                          ("a_in", a_in), ("b_in", b_in), ("lb", lb), ("ub", ub),
                          ("_a", np.vstack([a_eq, a_in])),
                          ("_finite_lb", np.isfinite(lb)), ("_finite_ub", np.isfinite(ub))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_rows", _UnitRows(a, *unit, np.concatenate(unit[2::3])))
        object.__setattr__(self, "_lam_max", lam_max)
        # the KKT check's scale of the gradient, 1 + |c|_inf, and |b_eq|_inf
        object.__setattr__(self, "_grad_scale", 1.0 + float(np.abs(c).max(initial=0.0)))
        object.__setattr__(self, "_b_eq_scale", float(np.abs(b_eq).max(initial=0.0)))

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.c @ x)

    def max_violation(self, x: np.ndarray) -> float:
        """Largest absolute violation of any constraint or bound at x."""
        x = np.asarray(x, dtype=float)
        return float(_residuals(self, self.b_in[None], x[None])["max_violation"][0])

    def rhs_scale(self) -> float:
        return float(_rhs_scale(self, self.b_in))


def _rhs_scale(problem: QpProblem, b_in: np.ndarray):
    """|(b_eq, b_in)|_inf, with b_in where a path has moved it; one per row
    of a stack b_in."""
    return np.abs(b_in).max(axis=-1, initial=problem._b_eq_scale)


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


class QpPath(list):
    """solve_qp_path's points in tau order, each a QpSolution."""

    @property
    def iterations(self) -> int:
        """The events from the start to the last point."""
        return self[-1].iterations


def kkt_report(problem: QpProblem, sol: QpSolution) -> dict[str, float]:
    """Stationarity / complementarity / dual-feasibility residuals at sol.

    Stationarity is || Qx + c - a_eq'lam - a_in'mu - mu_lb + mu_ub ||_inf.
    Raises QpInputError unless sol is optimal.
    """
    if sol.status != STATUS_OPTIMAL:
        raise QpInputError(f"kkt_report needs an optimal solution, not an {sol.status!r} one")
    mults = np.concatenate([sol.eq_multipliers, sol.in_multipliers])
    report = _residuals(problem, problem.b_in[None], sol.x[None], (
        mults[None], sol.lower_multipliers[None], sol.upper_multipliers[None]))
    return {key: float(report[key][0])
            for key in ("stationarity", "complementarity", "dual_feasibility")}


def _by_rows(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """xs @ a for a stack xs of vectors, one per row, each row rounded as
    it would be alone.  A BLAS matrix product xs @ a rounds a row
    differently with the number of rows around it; np.matmul over a stack
    of 1 x n matrices runs the same vector-matrix product on each, chosen
    by the shapes and strides of one row, so xs is made C-ordered.  That is
    the product xs @ a runs for a single C-ordered row, which skips the
    stack's indexing."""
    xs = np.ascontiguousarray(xs)
    return xs @ a if xs.shape[0] == 1 else np.matmul(xs[:, None, :], a)[:, 0]


def _residuals(problem: QpProblem, b_in: np.ndarray, xs: np.ndarray, multipliers=None,
               fit=None) -> dict[str, np.ndarray]:
    """max_violation at each point of the stack xs, one per row, with the
    inequality rows' right-hand side b_in there (a row each), and, given
    the multipliers (general rows, equality rows first, lower and upper
    bounds), a row each too, the objective and kkt_report's residuals: one
    entry per point.

    The row values, Qx + c and its residual Qx + c - a'mults (fit, the
    pair, when the caller has them already) are computed once, and every
    residual is read off them.  Each product runs row by row (_by_rows),
    so a point's residuals do not depend on the other points in the
    stack.
    """
    m_eq = problem.a_eq.shape[0]
    values = _by_rows(xs, problem._a.T)
    # the slacks of the rows, then of the finite bounds, 0 at an infinite one
    slack = np.concatenate([values[:, m_eq:] - b_in,
                            np.where(problem._finite_lb, xs - problem.lb, 0.0),
                            np.where(problem._finite_ub, problem.ub - xs, 0.0)], axis=1)
    # 0.0 - the least slack, not its negation: no violation reads 0.0, not -0.0
    report = {"max_violation": np.maximum(
        np.abs(values[:, :m_eq] - problem.b_eq).max(axis=1, initial=0.0),
        0.0 - slack.min(axis=1, initial=0.0))}
    if multipliers is None:
        return report
    mults, lower, upper = multipliers
    if fit is None:
        grad = _by_rows(xs, problem.Q) + problem.c
        fit = grad, grad - _by_rows(mults, problem._a)
    grad, resid = fit
    duals = np.concatenate([mults[:, m_eq:], lower, upper], axis=1)
    report.update(
        objective=0.5 * np.einsum("ij,ij->i", xs, grad + problem.c),
        stationarity=np.abs(resid - lower + upper).max(axis=1, initial=0.0),
        complementarity=np.abs(duals * slack).max(axis=1, initial=0.0),
        dual_feasibility=duals.min(axis=1, initial=0.0),
    )
    return report


# ---------------------------------------------------------------------------
# internal machinery
# ---------------------------------------------------------------------------

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


def _null_space(a_w: np.ndarray):
    """(z, t, dependent) for the working rows a_w, from the QR of
    _independent_rows.

    z is an orthonormal basis of {p : a_w p = 0}, dependent indexes the
    rows that depend on the others, and t, with R inverted once, is the
    multiplier map: t a_w' = I on the independent rows, t z = 0, and a zero
    row for each dependent row.  So t g solves a_w' nu = g on the
    independent rows, giving every dependent row a zero multiplier, and
    r t is the least-norm step s with a_w s = r on those rows.
    """
    q, r, independent, dependent = _independent_rows(a_w)
    rank = independent.size
    t = np.zeros(a_w.shape)
    t[independent] = np.linalg.inv(r[:rank, :rank]) @ q[:, :rank].T
    return q[:, rank:], t, dependent


def _near(ratios, least: float):
    """Which ratios are within rounding of the least one."""
    return ratios <= least * (1.0 + 1e-9) + 1e-15


def _candidates(ineq: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g'v for each ratio-test candidate g: the unit rows ineq, then per
    variable i its lower bound row e_i and its upper bound row -e_i, whose
    products are v_i and -v_i exactly."""
    m_in = ineq.shape[0]
    out = np.empty(m_in + 2 * v.size)
    np.matmul(ineq, v, out=out[:m_in])
    out[m_in::2] = v
    np.negative(v, out=out[m_in + 1::2])
    return out


def _ratio_test(ineq: np.ndarray, eligible: np.ndarray, h: np.ndarray, x: np.ndarray,
                p: np.ndarray, cap: float, d=None, moved: float = 0.0, d_tol: float = 0.0):
    """Longest step alpha <= cap from x along p, and what blocks it.

    The candidates, g'x >= h, are the m_in unit rows ineq, then per
    variable i its lower bound e_i and its upper bound -e_i (_candidates),
    and h their right-hand sides at the leg's start (0 at an infinite
    bound).  On a path the rows' right-hand sides move by d per unit step,
    and have moved by moved * d since the leg's start, and d_tol is 1e-12
    of d's largest entry; within one QP they stay put (d None).  A
    candidate blocks if eligible, a row outside the working list or a
    finite bound of a free variable, and if the step approaches it at a
    rate above rounding (1e-12 of the largest entry of p, plus d_tol); the
    first near-minimal ratio blocks, which puts rows first, then bounds in
    variable order.  Returns (alpha, key, side): key is i for row i and
    m_in + i for a bound of variable i, and side is 1 for its lower bound
    and -1 for its upper one; (cap, -1, 0) when nothing blocks first.
    """
    rate = _candidates(ineq, p)
    # a rate within rounding of zero, relative to the step, never blocks
    tol = 1e-12 * (1.0 + np.abs(p).max(initial=0.0))
    if d is not None:
        rate -= d
        tol += d_tol
    blocks = (eligible & (rate < -tol)).nonzero()[0]
    if not blocks.size:
        return cap, -1, 0.0
    # only the candidates that block are read; each row's slack is taken
    # from the full product ineq @ x, which a product of the gathered rows
    # may round otherwise
    h = h[blocks] if d is None else h[blocks] + moved * d[blocks]
    ratios = np.maximum(_candidates(ineq, x)[blocks] - h, 0.0) / -rate[blocks]
    alpha = float(ratios.min())
    if alpha >= cap:
        return cap, -1, 0.0
    k = int(blocks[_near(ratios, alpha).argmax()])
    m_in = ineq.shape[0]
    if k < m_in:
        return alpha, k, 0.0
    return alpha, m_in + (k - m_in) // 2, 1.0 - 2.0 * ((k - m_in) % 2)


def _floor(problem: QpProblem) -> float:
    """The least eigenvalue of Z'QZ that the Cholesky certificate accepts."""
    return max(1e-14, 1e-10 * problem._lam_max)


def _newton(h_inv: np.ndarray):
    return lambda g_red: (-(h_inv @ g_red), None)


def _reduced_step(problem: QpProblem, h_red: np.ndarray):
    """(step, h_inv): step(g_red) -> (p, p_flat) gives the steps on a face
    of problem with reduced Hessian h_red for a reduced gradient g_red,
    from one factorization of it, and h_inv is h_red's inverse when the
    Cholesky certificate holds, else None.

    An eigenvalue of h_red at or below dim * eps * lam_max, lam_max the
    problem's largest eigenvalue of Q on the variables whose bounds differ,
    is rounding: zero curvature.  p is the minimum-norm Newton step on the
    other eigenvectors, and p_flat is g_red's component along the flat
    ones, negated, or None when there are none.  A zero h_red is flat
    everywhere: p = 0 and p_flat = -g_red, with nothing to factor.  When
    the Cholesky factor L shows every eigenvalue to be above the floor
    max(1e-14, 1e-10 * lam_max), by |L^-1|_F^2 = trace(h_red^-1) < 1/floor,
    p is the Newton step -h_inv g_red and no eigendecomposition is needed.
    """
    if not h_red.any():
        return (lambda g_red: (np.zeros_like(g_red), -g_red)), None
    try:
        inv = np.linalg.inv(np.linalg.cholesky(h_red))
        if np.sum(inv * inv) < 1.0 / _floor(problem):
            h_inv = inv.T @ inv
            return _newton(h_inv), h_inv
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(h_red)
    flat = eigvals <= h_red.shape[0] * np.finfo(float).eps * problem._lam_max
    curved, flat_vecs, curvature = eigvecs[:, ~flat], eigvecs[:, flat], eigvals[~flat]

    def step(g_red: np.ndarray):
        p = -(curved @ (curved.T @ g_red / curvature))
        return p, -(flat_vecs @ (flat_vecs.T @ g_red)) if flat_vecs.shape[1] else None

    return step, None


class _Face(NamedTuple):
    """A face of the path's factors, in the coordinates of every variable
    and every general row.

    z (n x k) is an orthonormal basis of the face's null space, the
    directions that keep the equality and working rows and fix the fixed
    variables; t (m_eq + m_in rows, n columns) is the multiplier map, with
    t a' = I on the independent working rows and t z = 0.  Both hold exact
    zeros at the fixed variables (z's rows, t's columns) and t at the rows
    outside the working list, so t g is the working rows' multipliers for a
    gradient g and r t the least-norm step that moves the rows by r, each
    without a gather or a scatter.  dependent indexes the rows (of t) that
    _null_space names dependent, whose rows of t are zero.  h_inv is
    (z'Qz)^-1 where the Cholesky certificate holds (0 x 0 when z has no
    column), else None, and step is the _reduced_step of z'Qz (None when z
    has no column).  _open_face factors a face from scratch; _next_face
    updates these factors by one event in O(n^2), which needs h_inv and no
    dependent row, into new arrays: t is read-only, since a path's pending
    points hold it.
    """

    z: np.ndarray
    t: np.ndarray
    dependent: np.ndarray
    h_inv: np.ndarray | None
    step: Callable | None


def _open_face(problem: QpProblem, working: list[int], side: np.ndarray) -> _Face:
    """The _Face of the working rows and the bounds side fixes, factored
    from scratch: a QR of the equality rows and then the working rows, in
    list order, on the free variables, and a factorization of z'Qz."""
    free = np.flatnonzero(side == 0.0)
    rows, m_eq = problem._rows, problem.a_eq.shape[0]
    index = np.concatenate([np.arange(m_eq), m_eq + np.asarray(working, dtype=int)])
    z_free, t_free, dependent = _null_space(rows.a[np.ix_(index, free)])
    z = np.zeros((problem.n, z_free.shape[1]))
    z[free] = z_free
    t = np.zeros((rows.a.shape[0], problem.n))
    t[np.ix_(index, free)] = t_free
    step, h_inv = None, np.zeros((0, 0))
    if z.shape[1]:
        step, h_inv = _reduced_step(
            problem, z_free.T @ problem.Q.take(free, axis=0).take(free, axis=1) @ z_free)
    t.setflags(write=False)     # a pending point holds it (_Points)
    return _Face(z, t, index[dependent], h_inv, step)


def _next_face(problem: QpProblem, face: _Face, key: int, working: list[int],
               side: np.ndarray) -> _Face | None:
    """The face after key, a row (key < m_in) or the bound of variable key -
    m_in, entered or left face, updated from face's factors in O(n^2)
    (Goldfarb & Idnani 1983; qpOASES); None where _open_face must factor
    it afresh.

    working and side are already the new face's.  face must hold h_inv and
    no dependent row.  An update's rounding grows as eps / |w|^2 for an
    entering row's or bound's pivot |w| = |z'a| (a sine: the rows have unit
    norm and z orthonormal columns) and as eps (d / s)^2 for a leaving one's
    Schur complement s = d - b'h_inv b, so both must exceed 1e-3 (s of d),
    which keeps it near 1e-10; and the new h_inv must keep the Cholesky
    certificate, trace(h_inv) < 1 / floor.
    """
    if face.h_inv is None or face.dependent.size:
        return None
    i = key - problem.a_in.shape[0]
    leaves = side[i] == 0.0 if i >= 0 else key not in working
    factors = _widened(problem, face, key, i) if leaves else _narrowed(problem, face, key, i)
    if factors is None or not factors[2].trace() < 1.0 / _floor(problem):
        return None
    z, t, h_inv = factors
    t.setflags(write=False)     # a pending point holds it (_Points)
    # face.dependent is empty, and so is the updated face's
    return _Face(z, t, face.dependent, h_inv, _newton(h_inv) if h_inv.shape[0] else None)


def _widened(problem: QpProblem, face: _Face, key: int, i: int):
    """(z, t, h_inv) after row key (i < 0) or the bound of variable i leaves
    face; None if s <= 1e-3 d.

    The new direction z_new is orthogonal to z and meets every other row:
    row j of t for row j, whose row of t becomes zero, and e_i - t'a_i for
    the bound, a_i its column of the rows.  t loses its component along
    z_new, and h_inv is bordered by b = z'Q z_new and d = z_new'Q z_new.
    """
    z, t, h_inv, k = face.z, face.t, face.h_inv, face.z.shape[1]
    if i < 0:
        j = problem.a_eq.shape[0] + key
        z_new = t[j]
    else:
        z_new = -(problem._rows.a[:, i] @ t)
        z_new[i] = 1.0
    z_new = z_new / np.sqrt(z_new @ z_new)
    t = t - (t @ z_new)[:, None] * z_new
    if i < 0:
        t[j] = 0.0
    qz = problem.Q @ z_new
    b = z.T @ qz
    hb = h_inv @ b
    d = float(z_new @ qz)
    s = d - float(b @ hb)
    if not s > 1e-3 * d:
        return None
    z_old, z = z, np.empty((z.shape[0], k + 1))
    z[:, :k], z[:, k] = z_old, z_new
    h_old, h_inv = h_inv, np.empty((k + 1, k + 1))
    h_inv[:k, :k] = h_old + hb[:, None] * (hb / s)
    h_inv[:k, k] = h_inv[k, :k] = -hb / s
    h_inv[k, k] = 1.0 / s
    return z, t, h_inv


def _narrowed(problem: QpProblem, face: _Face, key: int, i: int):
    """(z, t, h_inv) after row key (i < 0) or the bound of variable i enters
    face; None if its pivot |w| <= 1e-3.

    With a the unit row (e_i for the bound) and w = z'a, one Householder
    reflection splits z into zw / |w| and the rest, the new z.  The row's
    row of t becomes (zw)' / |w|^2, the other rows lose their a-component,
    and h_inv becomes the inverse of the compressed z'Qz,
    W'(h_inv - h_inv w w'h_inv / w'h_inv w)W, with W the reflection's other
    columns.  A bound's variable is fixed: its row of z and column of t
    become zero.
    """
    z, t, h_inv = face.z, face.t, face.h_inv
    if i < 0:
        a = problem._rows.ineq[key]
        w, t_a = z.T @ a, t @ a
    else:
        w, t_a = z[i], t[:, i]
    norm = float(np.sqrt(w @ w))
    if not norm > 1e-3:
        return None
    row = (z @ w) / (norm * norm)
    t = t - t_a[:, None] * row
    # the reflection I - beta v v' maps w onto -sign(w_0) |w| e_1: its
    # first column lies along w and the others span w's complement
    v = w.copy()
    v[0] += np.copysign(norm, w[0])
    beta = 2.0 / float(v @ v)
    z = z[:, 1:] - (z @ v)[:, None] * (beta * v[1:])
    # with X = h_inv - c hw hw' (c = 1 / w'hw) and u = X v, W'XW is
    # X[1:, 1:] - v1 g' - g v1' for g = beta u1 - beta^2 (v'u) v1 / 2: one
    # product of rank 3
    hw = h_inv @ w
    c = 1.0 / float(w @ hw)
    u = h_inv @ v - (c * float(hw @ v)) * hw
    v1 = v[1:]
    g = beta * u[1:] - (0.5 * beta * beta * float(v @ u)) * v1
    h_inv = h_inv[1:, 1:] - np.array([c * hw[1:], v1, g]).T @ np.array([hw[1:], g, v1])
    if i < 0:
        t[problem.a_eq.shape[0] + key] = row
    else:
        z[i] = 0.0
        t[:, i] = 0.0
    return z, t, h_inv


def _start(problem: QpProblem, x0: np.ndarray):
    """The working set at the feasible point x0.

    The equality rows, then the bounds and then the rows active at x0 are
    kept, each only if it is independent of those kept before it; a kept
    bound puts x on its value, and a variable with equal bounds starts at
    its lower one.  The bounds and the equality rows are independent
    together exactly when the equality rows are independent on the free
    variables, so the bounds take a search of their own only when the QR
    of the face names an equality row dependent.  Returns (x, working,
    side): side is 1 at a kept lower bound, -1 at a kept upper one and 0
    elsewhere.
    """
    rows, lb, ub, m_eq = problem._rows, problem.lb, problem.ub, problem.a_eq.shape[0]
    active = np.flatnonzero(rows.ineq @ x0 - rows.b_in <= 1e-8)
    side = np.where(x0 - lb <= 1e-8, 1.0, np.where(ub - x0 <= 1e-8, -1.0, 0.0))
    a_active = np.vstack([rows.eq, rows.ineq[active]])
    _, _, independent, dependent = _independent_rows(a_active[:, side == 0.0])
    if (dependent < m_eq).any():
        fixed = np.flatnonzero(side)
        kept = _independent_rows(np.vstack([rows.eq, np.eye(problem.n)[fixed]]))[2]
        side[np.delete(fixed, kept[kept >= m_eq] - m_eq)] = 0.0
        independent = _independent_rows(a_active[:, side == 0.0])[2]
    x = np.where(side > 0, lb, np.where(side < 0, ub, x0))
    kept = np.sort(independent)
    working = [int(i) for i in active[kept[kept >= m_eq] - m_eq]]
    return x, working, side


def _unbounded(problem: QpProblem, x: np.ndarray, ray: np.ndarray, iterations: int) -> QpSolution:
    """The unbounded verdict at x along ray, after checking the ray.

    With |ray|_inf = 1 it must have |Q ray|_inf within 1e-8 * max(1,
    lam_max), as in the PSD check, c'ray < 0, a_eq ray = 0 and a_in ray >= 0
    within 1e-9 on the unit rows, and the sign of every finite bound;
    otherwise QpError is raised.
    """
    tol, rows = 1e-9, problem._rows
    failed = [name for name, bad in (
        ("Qd = 0", np.abs(problem.Q @ ray).max() > 1e-8 * max(1.0, problem._lam_max)),
        ("c'd < 0", problem.c @ ray >= 0.0),
        ("a_eq d = 0", np.abs(rows.eq @ ray).max(initial=0.0) > tol),
        ("a_in d >= 0", (rows.ineq @ ray).min(initial=0.0) < -tol),
        ("lower bounds", ray[problem._finite_lb].min(initial=0.0) < -tol),
        ("upper bounds", ray[problem._finite_ub].max(initial=0.0) > tol),
    ) if bad]
    if failed:
        raise QpError(f"internal ray verification failed: {', '.join(failed)}")
    return QpSolution(x=x, objective=-np.inf, status=STATUS_UNBOUNDED,
                      max_violation=problem.max_violation(x), iterations=iterations, ray=ray)


class _Points(NamedTuple):
    """Requested points of a path on one face, a row each, waiting for
    _finish: x there, the path's multipliers nu of the general rows (zero
    outside the working list) and the inequality rows' right-hand side
    b_in, with the face's bound sides, its multiplier map t and the events
    from the start."""

    b_in: np.ndarray
    xs: np.ndarray
    nus: np.ndarray
    side: np.ndarray
    t: np.ndarray
    iterations: int


def _finish(problem: QpProblem, points: list[_Points]) -> Iterator[QpSolution]:
    """The verified optimal solutions at the points of a path, on one face
    or on several.

    The points are verified together, every product row by row (_by_rows)
    and each product through t on its own face's map, so each point's
    solution is bit for bit the one it gets alone.  This generator yields
    them in order and raises QpError at the first that fails its check,
    so a caller that stops earlier never sees that error.

    A least-norm step through the face's map t first puts the working rows
    back on their right-hand sides: the events leave them off by rounding
    in proportion to |x|, which a large multiplier turns into a false
    complementarity failure.  x is then clipped to its bounds, which moves
    the rows off again, so the restore and the clip run twice, a fixed
    second pass: it cut the complementarity failures of tied-means QPs
    (seeds 0-2,999 of test_gradient_leg_keeps_a_bound_added_by_rounding's
    construction) from 98/77/89 (cold, best vertex, least-variance vertex)
    to 55/46/54.  The multipliers refit nu to the gradient Qx + c through
    the same map, so a row the QR finds dependent keeps the share nu gave
    it, every bound dual is read off the stationarity residual, and the
    result must pass the KKT check, feasibility within a start's tolerance
    included; a non-finite x or multiplier fails it too, since it would
    slip through the comparisons.  The objective, the violation and the
    KKT residuals come from one Qx + c and one set of row slacks
    (_residuals).
    """
    rows, m_eq = problem._rows, problem.a_eq.shape[0]
    if len(points) == 1:
        b_in, xs, nus, side = points[0][:4]     # side broadcasts over the points
    else:
        b_in, xs, nus = (np.concatenate([group[i] for group in points]) for i in range(3))
        side = np.repeat([group.side for group in points],
                         [group.xs.shape[0] for group in points], axis=0)
    # each group's face map t and its rows of the stack, and each point's
    # event count
    faces, iterations = [], []
    for group in points:
        faces.append((group.t, slice(len(iterations), len(iterations) + group.xs.shape[0])))
        iterations += [group.iterations] * group.xs.shape[0]

    def through_t(vs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """vs @ t row by row, with each point's own face's t (t' with
        transpose)."""
        out = [_by_rows(vs[at], t.T if transpose else t) for t, at in faces]
        return out[0] if len(out) == 1 else np.concatenate(out)

    b = np.empty((len(iterations), rows.a.shape[0]))
    b[:, :m_eq] = rows.b_eq
    np.divide(b_in, rows.in_norm, out=b[:, m_eq:])
    for _ in range(2):
        xs = np.minimum(np.maximum(xs + through_t(b - _by_rows(xs, rows.a.T)), problem.lb),
                        problem.ub)
    grad = _by_rows(xs, problem.Q) + problem.c
    nus = nus + through_t(grad - _by_rows(nus, rows.a), transpose=True)
    mults = nus / rows.norm
    mults[:, m_eq:] = np.maximum(mults[:, m_eq:], 0.0)
    resid = grad - _by_rows(mults, problem._a)
    finite = np.isfinite(resid).all(axis=1)     # x and every multiplier feed it
    bound_mult = np.maximum(side * resid, 0.0)
    lower = np.where(side > 0, bound_mult, 0.0)
    upper = np.where(side < 0, bound_mult, 0.0)
    report = _residuals(problem, b_in, xs, (mults, lower, upper), (grad, resid))
    rhs_scale = 1.0 + _rhs_scale(problem, b_in)
    failed = ((report["max_violation"] > FEASIBILITY_TOL * rhs_scale)
              | (report["stationarity"] > STATIONARITY_TOL * problem._grad_scale)
              | (report["complementarity"]
                 > COMPLEMENTARITY_TOL * problem._grad_scale * rhs_scale))
    for j in range(len(iterations)):
        if not finite[j]:
            raise QpError("internal KKT verification failed: non-finite solution or multiplier")
        if failed[j]:
            raise QpError("internal KKT verification failed: " + ", ".join(
                f"{key}={report[key][j]:.3e}"
                for key in ("max_violation", "stationarity", "complementarity")))
        yield QpSolution(x=xs[j], objective=float(report["objective"][j]), status=STATUS_OPTIMAL,
                         max_violation=float(report["max_violation"][j]),
                         eq_multipliers=mults[j, :m_eq], in_multipliers=mults[j, m_eq:],
                         lower_multipliers=lower[j], upper_multipliers=upper[j],
                         iterations=iterations[j])


def solve_qp(problem: QpProblem, *, start=None) -> QpSolution:
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
    Raises QpInputError for a malformed start (QpProblem's constructor
    rejects malformed data and a Q that is not positive semidefinite), and
    QpIterationLimitError past 50*n events.
    """
    return _solve(problem, start, np.zeros((0, problem.b_in.size)), np.zeros(1), 50 * problem.n)[0]


def _multiplier_test(mults: np.ndarray, rates: np.ndarray, tol: float, rest=None):
    """(beta, key): the least beta >= 0 at which mults + beta * rates first
    reaches zero, and the candidate that does, the least key among
    near-ties; (inf, -1) if none falls faster than tol.  With rest, a pair
    (span, mu_tol), one falls only if it also would fall below -mu_tol over
    span: faster than (max(mult, 0) + mu_tol) / span.  The candidates are
    indexed by key: the m_in rows, then the n bounds, each zero where it is
    not working."""
    falls = (rates < -tol).nonzero()[0]
    if rest is not None and falls.size:
        span, mu_tol = rest
        falls = falls[rates[falls] < -((np.maximum(mults[falls], 0.0) + mu_tol) / span)]
    ratios = np.maximum(mults[falls], 0.0) / -rates[falls]
    least = float(ratios.min(initial=np.inf))
    if least == np.inf:
        return np.inf, -1
    return least, int(falls[_near(ratios, least).argmax()])


def _solve(problem: QpProblem, start, legs: np.ndarray, taus: np.ndarray,
           max_events: int, stop: Callable[[QpSolution], bool] | None = None
           ) -> list[QpSolution]:
    """The verified optima at taus along the legs, or a one-element list
    holding the infeasible or unbounded verdict; the optima up to the first
    for which stop, when given, returns True.  With stop the points of each
    face are verified as the path reaches them; without it they wait in
    pending and are verified in one batch at the path's exit.

    The path starts at start if it is feasible, else at phase 1's point.
    Leg 0 runs t from -1 to 0, the gradient c + t dc moving from c0, for
    which that point is optimal, to c; leg j >= 1 runs t from j - 1 to j,
    b_in moving by legs[j - 1].  The module docstring describes the events.
    The state is x, the working rows and side, each bound's side (1 lower,
    -1 upper, 0 free), and the multipliers nu of every general row, zero
    outside the working list.  The first face is factored from scratch
    (_open_face), and each event updates its factors to the next face's
    (_next_face), or factors that face afresh where an update is unsafe; a
    pass on a face only solves with its factors.  The ratio test's
    candidates have right-hand sides built here and an eligibility mask
    that each event flips.  The working sets met at one t are remembered,
    to tell a cycle of dependency moves on the gradient leg.
    """
    if start is not None:
        start = np.asarray(start, dtype=float).ravel()
        if start.shape[0] != problem.n or not np.all(np.isfinite(start)):
            raise QpInputError(
                f"start must be a finite vector of length {problem.n}")
    feas_tol = FEASIBILITY_TOL * (1.0 + problem.rhs_scale())
    if start is not None and np.all((problem.lb <= start) & (start <= problem.ub)) \
            and problem.max_violation(start) <= feas_tol:
        x0 = start
    else:
        x0, t_star = _phase1(problem)
        if t_star > feas_tol:
            return [QpSolution(x=x0, objective=np.nan, status=STATUS_INFEASIBLE,
                               max_violation=t_star)]

    q, c, n, rows = problem.Q, problem.c, problem.n, problem._rows
    a, m_eq, m_in = rows.a, rows.eq.shape[0], rows.ineq.shape[0]
    b_starts = problem.b_in + np.cumsum(np.vstack([np.zeros(m_in), legs]), axis=0)
    d_legs = legs / rows.in_norm
    # the ratio test's candidates g'x >= h: the unit rows, then per variable
    # e_i x >= lb_i and -e_i x >= -ub_i; h is 0 at an infinite bound, which
    # is never eligible, and only the rows' h moves along a leg
    finite = np.column_stack([problem._finite_lb, problem._finite_ub]).ravel()
    bound_h = np.where(finite, np.column_stack([problem.lb, -problem.ub]).ravel(), 0.0)
    h_starts = np.hstack([b_starts / rows.in_norm, np.tile(bound_h, (b_starts.shape[0], 1))])
    d_stack = np.hstack([d_legs, np.zeros((legs.shape[0], 2 * n))])
    d_tols = 1e-12 * np.abs(d_stack).max(axis=1, initial=0.0)

    def b_in_at(ts: np.ndarray, leg: int) -> np.ndarray:
        """b_in where leg puts it at each t of ts, a row each."""
        if leg == 0:
            return np.tile(problem.b_in, (ts.size, 1))
        return b_starts[leg - 1] + (ts - leg + 1)[:, None] * legs[leg - 1]

    def reach(points: _Points) -> bool:
        """Take the requested points on a face.  With stop they are verified
        at once, and True is returned once stop ends the path at one;
        without it they wait, to be verified in one batch at the path's
        exit."""
        pending.append(points)
        return stop is not None and settle()

    def settle() -> bool:
        """Verify the pending points and append them in tau order; True once
        stop ends the path at one."""
        batch = pending[:]
        pending.clear()
        for point in _finish(problem, batch) if batch else ():
            path.append(point)
            if stop is not None and stop(point):
                return True
        return False

    def leave(key: int) -> None:
        """Take row or bound key out of the working set."""
        if key < m_in:
            working.remove(key)
            nu[m_eq + key] = 0.0
        else:
            side[key - m_in] = 0.0

    def release(key: int) -> None:
        """Make row or bound key a ratio-test candidate again."""
        if key < m_in:
            eligible[key] = True
        else:
            i = key - m_in
            eligible[m_in + 2 * i:m_in + 2 * i + 2] = finite[2 * i:2 * i + 2]

    x, working, side = _start(problem, x0)
    eligible = np.concatenate([np.ones(m_in, dtype=bool), finite & np.repeat(side == 0.0, 2)])
    eligible[working] = False
    # the working sets met at t = t_seen, whether one came back, and the
    # adds set aside there
    seen, t_seen, cycling, aside = set(), None, False, []
    t, leg, path, pending, done, entered, face, dc = -1.0, 0, [], [], 0, -1, None, None
    for passes in range(1, max_events + 2):
        if t != t_seen:
            for key in aside:
                release(key)
            seen, t_seen, cycling, aside = set(), t, False, []
        else:
            state = (frozenset(working), side.tobytes())
            cycling = cycling or state in seen
            seen.add(state)
        if face is None:
            face = _open_face(problem, working, side)
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
            nu = face.t @ g_true
            nu[m_eq:] = np.where(eligible[:m_in], 0.0, np.maximum(nu[m_eq:], ramp[:m_in]))
            resid = g_true - a.T @ nu
            dc = np.where(side != 0.0, side * np.minimum(side * resid - ramp[m_in:], 0.0), resid)
        grad = g_true + t * dc if leg == 0 else g_true
        mu_tol = 1e-9 * (1.0 + np.abs(g_true).max(initial=0.0))
        nu = nu + face.t @ (grad - a.T @ nu)    # refit the part the face's rows see
        resid = grad - a.T @ nu
        # The candidates to leave, indexed by key: the rows, then the bounds;
        # a row outside the working list or a free variable has a zero
        # multiplier that never falls.
        mults = np.concatenate([nu[m_eq:], side * resid])
        for j in face.dependent:
            # y'a_w = 0 on the free variables: moving nu along y keeps them
            # stationary
            y = face.t @ a[j]
            y[j] -= 1.0
            rates = np.concatenate([y[m_eq:], -side * (a.T @ y)])
            tol = 1e-12 * (1.0 + np.abs(y).max())
            if np.abs(rates).max(initial=0.0) > tol:
                break
        else:
            j = -1      # no dependency, or one among equality rows only
        if j >= 0:
            # The working set is dependent: what entered last keeps a rising
            # multiplier and the first other one to reach zero leaves.
            signs = (1.0, -1.0) if entered < 0 else (1.0 if rates[entered] >= 0.0 else -1.0,)
            theta, drop, sign = min((*_multiplier_test(mults, s * rates, tol), s)
                                    for s in signs)
            if drop < 0 and leg:
                # nothing leaves: the rows cannot be met past t on this leg.
                # Requested points up to its end, and the next leg, start
                # from x while x meets their rows.
                rest = taus[done:]
                ends = np.append(rest[rest <= leg], leg)
                b_ends, xs = b_in_at(ends, leg), np.tile(x, (ends.size, 1))
                met = _residuals(problem, b_ends, xs)["max_violation"] \
                    <= FEASIBILITY_TOL * (1.0 + _rhs_scale(problem, b_ends))
                k = ends.size - 1 if met.all() else int(np.argmin(met))
                done += k
                if k and reach(_Points(b_ends[:k], xs[:k], np.tile(nu, (k, 1)), side.copy(),
                                       face.t, passes)):
                    return path
                if not met.all():
                    settle()    # a point before this one that fails its check fails first
                    raise QpError(f"the rows cannot be met past tau = {t!r}")
                if done == taus.size:
                    break
                t, leg, entered = float(leg), leg + 1, -1
                continue
        if j >= 0 and drop >= 0 and leg == 0 and entered >= 0 and cycling:
            # b stays put on the gradient leg, so an add that makes the
            # working set dependent came from a rate at rounding level.  Once
            # a working set comes back at one t, such an add is taken back
            # and set aside until t moves: the dependency moves had cycled
            leave(entered)
            aside.append(entered)
            entered, face = -1, None
            continue
        if j >= 0 and drop >= 0:
            nu, key = nu + theta * sign * y, -1
        else:
            dx = d_legs[leg - 1] @ face.t[m_eq:] if leg else np.zeros(n)
            v_flat = None
            if face.step is not None:
                # x moves on the face so that the gradient's rate at fixed x
                # stays in the span of the working rows
                v, v_flat = face.step(face.z.T @ (dc if leg == 0 else q @ dx))
                if v_flat is not None and leg == 0 and -t * np.abs(v_flat).max() <= mu_tol:
                    # over the rest of the leg that descent moves the gradient
                    # by less than the tolerance on it: dc leaves it out, so
                    # that the multipliers' rates agree with x's
                    dc += face.z @ v_flat
                    v_flat = None
                dx += face.z @ v
            if v_flat is not None and leg == 0:
                # the moving gradient descends where the face has no
                # curvature: x moves at fixed t to the first block, or the
                # leg ends on a ray
                p = face.z @ v_flat
                p /= np.abs(p).max()
                alpha, key, s = _ratio_test(rows.ineq, eligible, h_starts[0], x, p, np.inf)
                if key < 0:
                    return [_unbounded(problem, x, p, passes)]
                x = x + alpha * p
            else:
                q_dx = q @ dx + dc if leg == 0 else q @ dx
                d_nu = face.t @ q_dx
                d_mults = np.concatenate([d_nu[m_eq:], side * (q_dx - a.T @ d_nu)])
                if j >= 0 and entered >= 0 and abs(rates[entered]) > tol:
                    # a gradient leg's dependent add is rounding: it keeps
                    # its multiplier, the rates moving along the dependency
                    shift = d_mults[entered] / rates[entered]
                    d_nu, d_mults = d_nu - shift * y, d_mults - shift * rates
                # A multiplier drops only if, over the rest of the leg, it
                # would fall below minus the tolerance on it, at a rate above
                # the rounding of Q dx: a slower fall stays within that
                # tolerance until the leg ends, and on a near-singular face,
                # whose step is large, a rate at rounding level would drop a
                # bound that the next face adds back at once, in a cycle.
                rounding = 1e-12 * (1.0 + problem._lam_max) * (1.0 + np.abs(dx).max())
                beta, drop = _multiplier_test(mults, d_mults, rounding, (leg - t, mu_tol))
                moving = (d_stack[leg - 1], t - leg + 1, d_tols[leg - 1]) if leg else ()
                alpha, key, s = _ratio_test(rows.ineq, eligible, h_starts[max(leg - 1, 0)], x, dx,
                                            leg - t, *moving)
                # an event within rounding of the leg's end waits for the
                # next leg, whose direction can differ
                ends = _near(leg - t, min(alpha, beta))
                step = leg - t if ends else min(alpha, beta)
                if done < taus.size and taus[done] - t <= step:
                    # the requested points on this face
                    rest = taus[done:]
                    segment = rest[rest - t <= step]
                    done += segment.size
                    if reach(_Points(b_in_at(segment, leg), x + (segment - t)[:, None] * dx,
                                     nu + (segment - t)[:, None] * d_nu, side.copy(), face.t,
                                     passes)):
                        return path
                if done == taus.size:
                    break
                x, t, nu = x + step * dx, t + step, nu + step * d_nu
                if ends:
                    t, leg = float(leg), leg + 1        # the next leg, on the same face
                    continue
                tied = drop >= 0 and _near(max(alpha, beta), step)
                if key >= 0 and not ((key < drop) if tied else (alpha < beta)):
                    key = -1
            if key >= 0:
                # what blocks enters; a bound puts x[i] on its value
                if key < m_in:
                    working.append(key)
                    eligible[key] = False
                else:
                    i = key - m_in
                    side[i], x[i] = s, problem.lb[i] if s > 0 else problem.ub[i]
                    eligible[m_in + 2 * i:m_in + 2 * i + 2] = False
                entered, face = key, _next_face(problem, face, key, working, side)
                continue
        entered, key = -1, drop
        leave(key)
        release(key)
        face = _next_face(problem, face, key, working, side)
    else:
        settle()
        raise QpIterationLimitError(f"event cap {max_events} exceeded")
    settle()
    return path


def solve_qp_path(problem: QpProblem, db_in, taus, *, start,
                  stop: Callable[[QpSolution], bool] | None = None) -> QpPath:
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

    Without stop, every point waits until the path exits, at its end,
    where the rows cannot be met or at the event cap, and all are then
    verified together, in one batch; a point waits as x, its multipliers,
    b_in, its face's bound sides and a reference to its face's multiplier
    map, so the path holds O(len(taus) * (n + m)) floats more, the maps
    aside.  Each is still verified by the restore step and KKT check at its
    own tau and on its own face, bit for bit as it is when requested alone,
    so a point does not depend on the other taus.  A point that fails its
    check raises QpError before any error of the path past it.  Its
    iterations count the events from start to it, so the returned QpPath's
    iterations are those of its last point.  Where Q leaves a face of
    optima, the path returns the points it reaches.

    stop, when given, is called on each point in tau order once it is
    verified, and the points of each face are verified as the path
    reaches them; once stop returns True the path ends there and returns
    the points so far, the last one included, each bit for bit the point
    the full path returns.  A point that fails its check raises QpError
    only if stop has not ended the path at an earlier one.

    Raises QpInputError for a malformed db_in, taus or start (QpProblem's
    constructor rejects a Q that is not positive semidefinite), QpError if
    the QP at tau = 0 is infeasible or unbounded or the rows cannot be met
    at a requested tau, and QpIterationLimitError past 50*n events per
    leg, the gradient leg included.
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
    path = _solve(problem, start, legs, taus, 50 * problem.n * (k + 1), stop)
    if path[0].status != STATUS_OPTIMAL:
        raise QpError(f"the path needs an optimum at tau = 0, where the QP is {path[0].status}")
    return QpPath(path)

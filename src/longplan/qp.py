"""Dense convex quadratic programming by a primal active-set method.

Problems have the form

    minimize    0.5 x' Q x + c' x
    subject to  a_eq x  = b_eq
                a_in x >= b_in
                lb <= x <= ub

with Q symmetric positive semidefinite.  The solver is built for the small
dense problems produced by the portfolio and lifetime-planning layers
(n up to a few hundred):

* variables pinned by equal bounds are eliminated up front;
* feasibility is decided by a phase-1 linear program that minimizes the
  Chebyshev (max) constraint violation, so an infeasible verdict comes with
  the smallest achievable violation as a certificate;
* a caller that holds a point near the optimum, such as the plan of a
  neighbouring problem, passes it as ``start``.  Phase 1 then first solves
  a different LP: the feasible point nearest ``start`` in the 1-norm, with
  every row and bound hard.  The active set begins there, with everything
  active at that point in the working set, which shortens its path.  If
  that LP finds no feasible point, the Chebyshev LP runs as without
  ``start``, so verdicts and certificates never depend on it;
* when Q is singular, a second linear program searches the null space of Q
  for a feasible direction d with c'd < 0, which certifies unboundedness;
* the remaining bounded problem is made strictly convex with a Tikhonov
  term eps = 1e-10 * trace(Q)/n and solved by primal active-set iterations
  with null-space KKT solves.  Constraint rows are normalized internally,
  so solutions are invariant under positive rescaling of any row;
* a bound enters the active set by fixing its variable at the bound, not
  as a constraint row, so the null-space solves only see the equality rows
  and the working general rows restricted to the free variables.  Every
  bound multiplier, for pinned and fixed variables alike, is read off the
  stationarity residual Qx + c - a_eq'lam - a_in'mu;
* one column-pivoted QR of the working rows gives both the null-space
  basis and, by a triangular solve with R, the multipliers; a row that the
  pivoting finds dependent on the others gets a zero multiplier;
* when Q was regularized, one unregularized Newton step on the final
  working face always removes the Tikhonov bias, of order eps*|x|, in its
  curved directions.  The multipliers then fit the true gradient Qx + c,
  and the result must pass a KKT check of the true problem.

The regularized problem has a unique optimum, so ``start`` changes the
path of the iterations and not the point they reach, up to the
iterations' own tolerances.

Ties are broken deterministically.  The ratio test scans general rows,
then lower bounds, then upper bounds, each in index order, and takes the
first near-minimal candidate; a drop takes the first most negative
multiplier in the order working rows (as added), lower bounds, upper
bounds.  Together with the deterministic phase-1 this makes results
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

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

class _Reduced:
    """Problem with fixed variables (lb == ub) substituted out.

    Rows that vanish on the free variables are dropped, and null_violation
    records how far the worst of them is from holding.  The other rows are
    kept twice: a_eq/a_in as given, because the phase-1 and ray LPs read
    their violations as certificates, and unit_eq/unit_in (with unit_b_in)
    scaled to unit norm by eq_norm/in_norm, for the active set and for
    unscaling its multipliers.  eq_keep/in_keep map kept rows to the
    originals.
    """

    def __init__(self, problem: QpProblem):
        fixed = problem.lb == problem.ub
        self.problem = problem
        self.fixed = fixed
        self.free = ~fixed
        self.x_fixed = problem.lb[fixed]
        self.Q = problem.Q[np.ix_(self.free, self.free)]
        self.c = problem.c[self.free] + problem.Q[np.ix_(self.free, fixed)] @ self.x_fixed
        self.lb = problem.lb[self.free]
        self.ub = problem.ub[self.free]
        self.n = int(self.free.sum())

        a_eq = problem.a_eq[:, self.free]
        b_eq = problem.b_eq - problem.a_eq[:, fixed] @ self.x_fixed
        a_in = problem.a_in[:, self.free]
        b_in = problem.b_in - problem.a_in[:, fixed] @ self.x_fixed
        eq_norm = np.linalg.norm(a_eq, axis=1)
        in_norm = np.linalg.norm(a_in, axis=1)
        eq_zero, in_zero = eq_norm <= 1e-300, in_norm <= 1e-300
        self.null_violation = max(float(np.abs(b_eq[eq_zero]).max(initial=0.0)),
                                  float(b_in[in_zero].max(initial=0.0)))
        self.eq_keep, self.in_keep = np.flatnonzero(~eq_zero), np.flatnonzero(~in_zero)
        self.a_eq, self.b_eq = a_eq[self.eq_keep], b_eq[self.eq_keep]
        self.a_in, self.b_in = a_in[self.in_keep], b_in[self.in_keep]
        self.eq_norm, self.in_norm = eq_norm[self.eq_keep], in_norm[self.in_keep]
        self.unit_eq = self.a_eq / self.eq_norm[:, None]
        self.unit_in = self.a_in / self.in_norm[:, None]
        self.unit_b_in = self.b_in / self.in_norm

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        x = np.empty(self.problem.n)
        x[self.free] = x_free
        x[self.fixed] = self.x_fixed
        return x


def _hard_bounds(red: _Reduced) -> list:
    return [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
            for lo, hi in zip(red.lb, red.ub)]


def _phase1(red: _Reduced):
    """Chebyshev feasibility LP: minimize the max constraint violation t.

    Returns (x0, t_star).  Bounds are kept hard; equality and inequality
    rows are softened by t, so the LP is always solvable and t_star is the
    smallest achievable worst-case violation -- the infeasibility certificate.
    """
    n = red.n
    if red.a_eq.shape[0] == 0 and red.a_in.shape[0] == 0:
        return np.clip(np.zeros(n), red.lb, red.ub), 0.0
    n_in, n_eq = red.a_in.shape[0], red.a_eq.shape[0]
    a_ub = np.zeros((n_in + 2 * n_eq, n + 1))
    b_ub = np.zeros(n_in + 2 * n_eq)
    if n_in:
        a_ub[:n_in, :n] = -red.a_in
        a_ub[:n_in, n] = -1.0
        b_ub[:n_in] = -red.b_in
    if n_eq:
        a_ub[n_in:n_in + n_eq, :n] = red.a_eq
        a_ub[n_in:n_in + n_eq, n] = -1.0
        b_ub[n_in:n_in + n_eq] = red.b_eq
        a_ub[n_in + n_eq:, :n] = -red.a_eq
        a_ub[n_in + n_eq:, n] = -1.0
        b_ub[n_in + n_eq:] = -red.b_eq
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=_hard_bounds(red) + [(0.0, None)], method="highs")
    if not res.success:
        raise QpError(f"phase-1 feasibility LP failed: {res.message}")
    x0 = np.clip(res.x[:n], red.lb, red.ub)
    return x0, float(res.x[n])


def _nearest_feasible(red: _Reduced, start: np.ndarray, tol: float):
    """Feasible point nearest start in the 1-norm, every row and bound hard.

    Solves min sum(u) over (x, u) with -u <= x - start <= u.  Returns None
    unless HiGHS finds a point violating no row by more than tol; the
    caller then falls back to the Chebyshev LP, which alone decides
    infeasibility and certifies it, so the verdict never depends on start.
    """
    n, n_in = red.n, red.a_in.shape[0]
    if red.a_eq.shape[0] == 0 and n_in == 0:
        return np.clip(start, red.lb, red.ub)
    eye = np.eye(n)
    a_ub = np.block([[-red.a_in, np.zeros((n_in, n))], [eye, -eye], [-eye, -eye]])
    b_ub = np.concatenate([-red.b_in, start, -start])
    a_eq = np.hstack([red.a_eq, np.zeros_like(red.a_eq)]) if red.a_eq.shape[0] else None
    res = linprog(np.concatenate([np.zeros(n), np.ones(n)]), A_ub=a_ub, b_ub=b_ub,
                  A_eq=a_eq, b_eq=red.b_eq if a_eq is not None else None,
                  bounds=_hard_bounds(red) + [(0.0, None)] * n, method="highs")
    if not res.success:
        return None
    x0 = np.clip(res.x[:n], red.lb, red.ub)
    violation = max(np.abs(red.a_eq @ x0 - red.b_eq).max(initial=0.0),
                    (red.b_in - red.a_in @ x0).max(initial=0.0))
    return x0 if violation <= tol else None


def _null_space(q: np.ndarray):
    """Orthonormal basis of the (numerical) null space of PSD matrix q."""
    if q.shape[0] == 0:
        return np.zeros((0, 0))
    eigvals, eigvecs = np.linalg.eigh(q)
    lam_max = float(eigvals[-1])
    if eigvals[0] < -1e-8 * max(1.0, lam_max):
        raise QpInputError("Q is not positive semidefinite")
    null_mask = eigvals <= max(1e-14, 1e-10 * lam_max)
    return eigvecs[:, null_mask]


def _unbounded_ray(red: _Reduced, null_basis: np.ndarray):
    """Search null(Q) for a recession direction with c'd < 0.

    Any feasible z with c'Nz <= -1, a_eq N z = 0, a_in N z >= 0 and sign
    conditions from finite bounds gives an improving feasible ray d = Nz.
    """
    if null_basis.shape[1] == 0:
        return None
    nd = null_basis.shape[1]
    an = red.a_in @ null_basis
    rows = [red.c @ null_basis]
    rhs = [-1.0]
    for i in range(an.shape[0]):
        rows.append(-an[i])
        rhs.append(0.0)
    for i in range(red.n):
        if np.isfinite(red.lb[i]):
            rows.append(-null_basis[i])
            rhs.append(0.0)
        if np.isfinite(red.ub[i]):
            rows.append(null_basis[i])
            rhs.append(0.0)
    a_eq = red.a_eq @ null_basis if red.a_eq.shape[0] else None
    b_eq = np.zeros(red.a_eq.shape[0]) if red.a_eq.shape[0] else None
    res = linprog(np.zeros(nd), A_ub=np.array(rows), b_ub=np.array(rhs),
                  A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * nd, method="highs")
    if res.status == 0:
        return null_basis @ res.x
    if res.status == 2:  # certificate: no such direction exists
        return None
    raise QpError(f"unboundedness certificate LP failed: {res.message}")


def _face(a_w: np.ndarray):
    """Null-space basis of the working rows a_w and their multiplier fit.

    One column-pivoted QR of a_w' gives both.  Returns (z, multipliers):
    z is an orthonormal basis of {p : a_w p = 0}, and multipliers(g) solves
    a_w' nu = g on the rows the pivoting finds independent, by a triangular
    solve with R, giving every dependent row a zero multiplier.
    """
    m, n = a_w.shape
    if not (m and n):
        return np.eye(n), lambda g: np.zeros(m)
    # The working set is often rank-deficient (rows dependent on each other
    # or on the fixed variables), and without pivoting the R-diagonal does
    # not reveal rank, which would leak null-space directions that violate
    # working constraints.
    qfull, r, piv = scipy.linalg.qr(a_w.T, mode="full", pivoting=True)
    diag = np.abs(np.diag(r))
    thresh = max(m, n) * np.finfo(float).eps * diag.max(initial=0.0)
    rank = int((diag > max(thresh, 1e-13)).sum())

    def multipliers(g: np.ndarray) -> np.ndarray:
        nu = np.zeros(m)
        nu[piv[:rank]] = scipy.linalg.solve_triangular(r[:rank, :rank],
                                                       qfull[:, :rank].T @ g)
        return nu

    return qfull[:, rank:], multipliers


def _ratio_test(red: _Reduced, x: np.ndarray, p: np.ndarray,
                working: list[int], free: np.ndarray):
    """Longest step alpha <= 1 from x along p, and what blocks it.

    Candidates are the general rows outside the working list, then the
    finite lower and upper bounds of free variables, each in index order;
    the first near-minimal ratio blocks.  Returns (alpha, kind, i) with kind
    "row", "lower" or "upper", or kind None when the full step is feasible.
    """
    a_in, b_in, lb, ub = red.unit_in, red.unit_b_in, red.lb, red.ub
    in_working = np.zeros(a_in.shape[0], dtype=bool)
    in_working[working] = True
    ap = a_in @ p
    rows = np.flatnonzero(~in_working & (ap < -1e-12))
    lows = np.flatnonzero(free & np.isfinite(lb) & (p < -1e-12))
    ups = np.flatnonzero(free & np.isfinite(ub) & (p > 1e-12))
    ratios = np.concatenate([
        np.maximum(a_in[rows] @ x - b_in[rows], 0.0) / -ap[rows],
        np.maximum(x[lows] - lb[lows], 0.0) / -p[lows],
        np.maximum(ub[ups] - x[ups], 0.0) / p[ups],
    ])
    if not ratios.size or ratios.min() >= 1.0:
        return 1.0, None, -1
    alpha = float(ratios.min())
    k = int(np.argmax(ratios <= alpha * (1.0 + 1e-9) + 1e-15))
    kind = "row" if k < rows.size else "lower" if k < rows.size + lows.size else "upper"
    return alpha, kind, int(np.concatenate([rows, lows, ups])[k])


def _active_set(red: _Reduced, q: np.ndarray, x0: np.ndarray, max_iter: int):
    """Primal active-set iterations for a strictly convex reduced problem.

    A bound becomes active by fixing its variable (at_lower / at_upper) and
    snapping it to the bound; only general inequality rows enter the
    working list.  Returns (x, working, at_lower, at_upper, iterations).
    """
    lb, ub = red.lb, red.ub
    m_eq = red.unit_eq.shape[0]
    x = x0.copy()
    # Warm start: every row and bound active at x0.
    working = [int(i) for i in np.flatnonzero(red.unit_in @ x - red.unit_b_in <= 1e-8)]
    at_lower = x - lb <= 1e-8
    at_upper = (ub - x <= 1e-8) & ~at_lower
    x[at_lower] = lb[at_lower]
    x[at_upper] = ub[at_upper]
    for iteration in range(1, max_iter + 1):
        grad = q @ x + red.c
        free = ~(at_lower | at_upper)
        a_w = np.vstack([red.unit_eq, red.unit_in[working]])
        z, multipliers = _face(a_w[:, free])
        p = np.zeros(red.n)
        if z.shape[1]:
            h_red = z.T @ q[np.ix_(free, free)] @ z
            rhs = -(z.T @ grad[free])
            try:
                p_z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h_red), rhs)
            except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
                p_z = np.linalg.lstsq(h_red, rhs, rcond=None)[0]
            p[free] = z @ p_z

        if np.abs(p).max(initial=0.0) <= 1e-10 * (1.0 + np.abs(x).max(initial=0.0)):
            nu = multipliers(grad[free])
            resid = grad - a_w.T @ nu
            lower_idx, upper_idx = np.flatnonzero(at_lower), np.flatnonzero(at_upper)
            # Candidates in order: working rows, lower bounds, upper bounds.
            mults = np.concatenate([nu[m_eq:], resid[lower_idx], -resid[upper_idx]])
            mu_tol = 1e-9 * (1.0 + np.abs(grad).max(initial=0.0))
            if mults.size == 0 or mults.min() >= -mu_tol:
                return x, working, at_lower, at_upper, iteration
            # Drop the most negative multiplier; ties go to the first.
            drop = int(np.argmin(mults))
            if drop < len(working):
                working.pop(drop)
            elif drop < len(working) + lower_idx.size:
                at_lower[lower_idx[drop - len(working)]] = False
            else:
                at_upper[upper_idx[drop - len(working) - lower_idx.size]] = False
            continue

        alpha, kind, i = _ratio_test(red, x, p, working, free)
        x = x + alpha * p
        if kind == "row":
            working.append(i)
        elif kind == "lower":
            at_lower[i], x[i] = True, lb[i]
        elif kind == "upper":
            at_upper[i], x[i] = True, ub[i]
    raise QpIterationLimitError(f"active-set iteration cap {max_iter} exceeded")


def _finish(problem: QpProblem, red: _Reduced, x: np.ndarray,
            working: list[int], at_lower: np.ndarray, at_upper: np.ndarray,
            iterations: int, regularized: bool) -> QpSolution:
    """The verified optimal solution on the active set's final face.

    When the iterations ran on a Tikhonov-regularized Q, one Newton step of
    the true problem on that face first removes the O(eps*|x|) bias in its
    curved directions; directions of zero curvature keep the point eps
    selected, and the step is cut short at the first non-working row or
    free bound.  The multipliers fit the true gradient Qx + c through the
    face's QR, every bound dual is read off the stationarity residual, and
    the result must pass the KKT check of the true problem.
    """
    free = ~(at_lower | at_upper)
    z, multipliers = _face(np.vstack([red.unit_eq, red.unit_in[working]])[:, free])
    if regularized and z.shape[1]:
        grad = red.Q @ x + red.c
        h_red = z.T @ red.Q[np.ix_(free, free)] @ z
        p = np.zeros(red.n)
        p[free] = z @ np.linalg.lstsq(h_red, -(z.T @ grad[free]), rcond=None)[0]
        x = x + _ratio_test(red, x, p, working, free)[0] * p
    x = np.clip(x, red.lb, red.ub)
    nu = multipliers((red.Q @ x + red.c)[free])
    m_eq = red.unit_eq.shape[0]
    eq_mult = np.zeros(problem.a_eq.shape[0])
    eq_mult[red.eq_keep] = nu[:m_eq] / red.eq_norm
    in_mult = np.zeros(problem.a_in.shape[0])
    in_mult[red.in_keep[working]] = np.maximum(nu[m_eq:] / red.in_norm[working], 0.0)
    # Every variable at a bound, pinned or fixed by the active set, takes
    # its stationarity residual as that bound's dual.
    x = red.expand(x)
    lower, upper = red.fixed.copy(), red.fixed.copy()
    lower[red.free], upper[red.free] = at_lower, at_upper
    resid = problem.Q @ x + problem.c - problem.a_eq.T @ eq_mult - problem.a_in.T @ in_mult
    sol = QpSolution(
        x=x,
        objective=problem.objective_value(x),
        status=STATUS_OPTIMAL,
        max_violation=problem.max_violation(x),
        eq_multipliers=eq_mult,
        in_multipliers=in_mult,
        lower_multipliers=np.where(lower, np.maximum(resid, 0.0), 0.0),
        upper_multipliers=np.where(upper, np.maximum(-resid, 0.0), 0.0),
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

    start, when given, is any finite point of length n, feasible or not:
    phase 1 then begins from the feasible point nearest to it, which
    shortens the active-set path when start is close to the optimum (the
    plan of a neighbouring problem).  It never changes the verdict, and it
    changes the returned optimum only within the solver's tolerances.

    Returns a solution with status "optimal", "infeasible" or "unbounded".
    Raises QpInputError for malformed data or start and
    QpIterationLimitError if the active-set cap of 50*n iterations is
    exceeded.
    """
    if start is not None:
        start = np.asarray(start, dtype=float).ravel()
        if start.shape[0] != problem.n or not np.all(np.isfinite(start)):
            raise QpInputError(
                f"start must be a finite vector of length {problem.n}")
    red = _Reduced(problem)
    feas_tol = FEASIBILITY_TOL * (1.0 + problem.rhs_scale())
    if red.null_violation > feas_tol:
        return QpSolution(x=red.expand(np.clip(np.zeros(red.n), red.lb, red.ub)),
                          objective=np.nan, status=STATUS_INFEASIBLE,
                          max_violation=red.null_violation)

    null_basis = _null_space(red.Q)

    if red.n == 0:  # every variable pinned; zero rows were checked above
        none = np.zeros(0, dtype=bool)
        return _finish(problem, red, np.zeros(0), [], none, none, 0, False)

    x0 = None if start is None else _nearest_feasible(red, start[red.free], feas_tol)
    if x0 is None:
        x0, t_star = _phase1(red)
        if t_star > feas_tol:
            return QpSolution(x=red.expand(x0), objective=np.nan,
                              status=STATUS_INFEASIBLE, max_violation=t_star)

    eps = 0.0
    if null_basis.shape[1]:
        ray = _unbounded_ray(red, null_basis)
        if ray is not None:
            full_ray = np.zeros(problem.n)
            full_ray[red.free] = ray
            return QpSolution(x=red.expand(x0), objective=-np.inf,
                              status=STATUS_UNBOUNDED,
                              max_violation=problem.max_violation(red.expand(x0)),
                              ray=full_ray)
        trace = float(np.trace(red.Q))
        eps = 1e-10 * trace / red.n if trace > 0 else \
            1e-10 * (1.0 + float(np.abs(red.c).max(initial=0.0)))

    max_iter = _max_iter if _max_iter is not None else 50 * problem.n
    x, working, at_lower, at_upper, iterations = \
        _active_set(red, red.Q + eps * np.eye(red.n), x0, max_iter)
    return _finish(problem, red, x, working, at_lower, at_upper, iterations, eps > 0)

"""Tests for the dense convex QP solver."""

from __future__ import annotations

import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from longplan import lifecycle, qp
from longplan.insurance import HazardModel
from longplan.lifecycle import LifecycleConfig, RiskyAssetSummary, solve_lifecycle
from longplan.long_only import max_sharpe_long_only, trace_frontier
from longplan.market import estimate_stats, load_returns
from longplan.report import SAMPLE_RETURNS
from longplan.qp import (
    FEASIBILITY_TOL,
    QpError,
    QpInputError,
    QpIterationLimitError,
    QpProblem,
    kkt_report,
    solve_qp,
    solve_qp_path,
)
from oracles import boxed_qp_oracle, chebyshev_violation_highs


def test_active_bound():
    # min x^2 s.t. x >= 1
    p = QpProblem(Q=np.array([[2.0]]), c=np.zeros(1), lb=np.array([1.0]))
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_symmetric_projection():
    # min 0.5(x^2+y^2) s.t. x + y = 1
    p = QpProblem(Q=np.eye(2), c=np.zeros(2),
                  a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    sol = solve_qp(p)
    np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-10)
    assert sol.objective == pytest.approx(0.25, abs=1e-10)


def test_unbounded_linear():
    p = QpProblem(Q=np.zeros((1, 1)), c=np.array([-1.0]), lb=np.array([0.0]))
    sol = solve_qp(p)
    assert sol.status == "unbounded"
    assert sol.ray is not None
    # the ray is feasible and descends
    assert sol.ray[0] > 0
    assert float(np.array([-1.0]) @ sol.ray) < 0


def test_two_moment_constraints():
    # min 0.04 w1^2 + 0.09 w2^2 (as 0.5 x'Qx with Q=diag(0.08,0.18))
    # s.t. w1+w2=1 and 0.10 w1 + 0.05 w2 = 0.075
    p = QpProblem(
        Q=np.diag([0.08, 0.18]), c=np.zeros(2),
        a_eq=np.array([[1.0, 1.0], [0.10, 0.05]]),
        b_eq=np.array([1.0, 0.075]),
    )
    sol = solve_qp(p)
    np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-10)
    assert sol.objective == pytest.approx(0.0325, abs=1e-10)


def test_infeasible_certificate():
    # The certificate is the smallest achievable worst-case violation.
    cases = [
        # x >= 2 and x <= 1 cannot hold; the best max-violation point is
        # x = 1.5, violating each side by 0.5
        (QpProblem(Q=np.eye(1), c=np.zeros(1),
                   a_in=np.array([[1.0], [-1.0]]), b_in=np.array([2.0, -1.0])), 0.5),
        # x0 pinned at 0 breaks x0 >= 1 by 1, but x1 >= 5 and x1 <= 1 can
        # at best be broken by 2 each
        (QpProblem(Q=np.eye(2), c=np.zeros(2),
                   a_in=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                   b_in=np.array([1.0, 5.0, -1.0]),
                   lb=np.array([0.0, -np.inf]), ub=np.array([0.0, np.inf])), 2.0),
        # every variable pinned: x0 + x1 = 1.5 breaks x0 + x1 >= 3 by 1.5
        (QpProblem(Q=np.eye(2), c=np.zeros(2),
                   a_in=np.array([[1.0, 1.0]]), b_in=np.array([3.0]),
                   lb=np.array([0.5, 1.0]), ub=np.array([0.5, 1.0])), 1.5),
    ]
    for p, violation in cases:
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert sol.max_violation == pytest.approx(violation, abs=1e-6)


def test_iteration_limit_reported_distinctly():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 5))
    p = QpProblem(Q=g.T @ g + 0.1 * np.eye(5), c=rng.standard_normal(5),
                  lb=np.zeros(5), ub=np.ones(5))
    # solve_qp caps the events at 50 * n; the cap itself is _solve's
    with pytest.raises(QpIterationLimitError, match="event cap 0"):
        qp._solve(p, None, np.zeros((0, 0)), np.zeros(1), 0)


def test_finish_rejects_a_non_finite_point():
    # the factorizations do not check finiteness, and a NaN passes every
    # comparison of the KKT check, so _finish checks finiteness itself
    problem = QpProblem(Q=np.eye(2), c=np.ones(2), lb=np.zeros(2))
    side = np.array([0.0, 1.0])
    face = qp._open_face(problem, [], side)
    for x in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(QpError, match="non-finite"), np.errstate(invalid="ignore"):
            list(qp._finish(problem, problem.b_in[None], np.array([x]), side, face,
                            np.zeros((1, 0)), 1))


def test_finish_rejects_a_point_that_breaks_a_row():
    # x is stationary (Qx + c = 0) and no row is working, so only primal
    # feasibility tells that x + y >= 1 fails, by 0.6
    x = np.array([0.2, 0.2])
    problem = QpProblem(Q=np.eye(2), c=-x, a_in=np.ones((1, 2)), b_in=[1.0])
    side = np.zeros(2)
    face = qp._open_face(problem, [], side)
    with pytest.raises(QpError, match="max_violation=6.000e-01"):
        list(qp._finish(problem, problem.b_in[None], x[None], side, face, np.zeros((1, 1)), 1))


def test_finish_yields_each_point_before_a_later_one_fails():
    # a stack on one face: with the row x + y >= b working, the point at
    # b = 1 is optimal and the one at b = 0.2 needs a negative multiplier.
    # The first comes out before the second raises, so a path whose stop
    # ends at the first never sees that error
    problem = QpProblem(Q=np.eye(2), c=np.full(2, -0.2), a_in=np.ones((1, 2)), b_in=[1.0])
    side = np.zeros(2)
    face = qp._open_face(problem, [0], side)
    points = qp._finish(problem, np.array([[1.0], [0.2]]), np.array([[0.5, 0.5], [0.1, 0.1]]),
                        side, face, np.zeros((2, 1)), 1)
    first = next(points)
    np.testing.assert_allclose(first.x, [0.5, 0.5], rtol=0, atol=1e-15)
    assert first.in_multipliers[0] == pytest.approx(0.3)
    with pytest.raises(QpError, match="stationarity"):
        next(points)


def test_asymmetric_q_rejected():
    with pytest.raises(QpInputError):
        QpProblem(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), c=np.zeros(2))


def test_dimension_mismatch_rejected():
    with pytest.raises(QpInputError):
        QpProblem(Q=np.eye(2), c=np.zeros(3))


def test_bounds_inverted_rejected():
    with pytest.raises(QpInputError):
        QpProblem(Q=np.eye(1), c=np.zeros(1),
                  lb=np.array([1.0]), ub=np.array([0.0]))


def test_row_scaling_invariance():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((6, 4))
    Q = g.T @ g + 0.2 * np.eye(4)
    c = rng.standard_normal(4)
    a_in = rng.standard_normal((3, 4))
    b_in = rng.standard_normal(3) - 1.0
    base = solve_qp(QpProblem(Q=Q, c=c, a_in=a_in, b_in=b_in))
    scale = np.array([1e-4, 1.0, 1e5])
    scaled = solve_qp(QpProblem(Q=Q, c=c, a_in=a_in * scale[:, None],
                                b_in=b_in * scale))
    assert base.status == scaled.status == "optimal"
    np.testing.assert_allclose(base.x, scaled.x, atol=1e-8)
    np.testing.assert_allclose(base.objective, scaled.objective, rtol=1e-9)


def test_kkt_report_on_optimal_solutions():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n + 1, n))
        p = QpProblem(
            Q=g.T @ g + 0.1 * np.eye(n),
            c=rng.standard_normal(n),
            a_in=rng.standard_normal((2, n)),
            b_in=rng.standard_normal(2) - 2.0,
            lb=-np.ones(n), ub=np.ones(n),
        )
        sol = solve_qp(p)
        assert sol.status == "optimal"
        report = kkt_report(p, sol)
        assert report["stationarity"] <= 1e-6
        assert report["complementarity"] <= 1e-6
        assert report["dual_feasibility"] >= -1e-9


def test_kkt_report_rejects_a_verdict_that_is_not_optimal():
    # an infeasible or unbounded verdict has no multipliers to check
    infeasible = QpProblem(Q=np.eye(1), c=np.zeros(1),
                           a_in=np.array([[1.0], [-1.0]]), b_in=np.array([2.0, -1.0]))
    unbounded = QpProblem(Q=np.zeros((1, 1)), c=np.array([-1.0]), lb=np.array([0.0]))
    for p, status in ((infeasible, "infeasible"), (unbounded, "unbounded")):
        sol = solve_qp(p)
        assert sol.status == status
        with pytest.raises(QpInputError, match=f"not an '{status}' one"):
            kkt_report(p, sol)


def test_matches_boxed_enumeration_oracle():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        g = rng.standard_normal((n + 1, n))
        Q = g.T @ g + 0.05 * np.eye(n)
        c = rng.standard_normal(n)
        lb = rng.uniform(-2.0, -0.5, size=n)
        ub = rng.uniform(0.5, 2.0, size=n)
        sol = solve_qp(QpProblem(Q=Q, c=c, lb=lb, ub=ub))
        assert sol.status == "optimal"
        x_ref, obj_ref = boxed_qp_oracle(Q, c, lb, ub)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-8)
        np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)


def test_maximize_wrapper_examples():
    # max -x^2 + 2x  (Q=-2, c=2 in the 0.5 x'Qx + c'x convention),
    # solved as min x^2 - 2x
    p = QpProblem(Q=np.array([[2.0]]), c=np.array([-2.0]))
    sol = solve_qp(p)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert -sol.objective == pytest.approx(1.0, abs=1e-9)

    # max c'x over the unit box with Q=0 picks the sign pattern of c
    c = np.array([0.7, -0.3, 1.2, -0.9])
    p = QpProblem(Q=np.zeros((4, 4)), c=-c, lb=np.zeros(4), ub=np.ones(4))
    sol = solve_qp(p)
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-8)


@pytest.mark.parametrize("b_in", [3e4, 3e5])
def test_tikhonov_term_does_not_fail_kkt_at_large_scale(b_in):
    # min x0^2 s.t. x0 + x1 >= b_in, x1 >= 0: Q is singular and the optimum
    # x = (0, b_in) is large, so any error in proportion to |x| would show.
    # x1 costs nothing: rounding at |x| ~ b_in must not make that direction
    # a descent, which would end the solve on a ray that fails its check
    p = QpProblem(Q=np.diag([2.0, 0.0]), c=np.zeros(2),
                  a_in=np.array([[1.0, 1.0]]), b_in=np.array([b_in]),
                  lb=np.array([-np.inf, 0.0]))
    for start in (None, np.array([0.5, 0.5]) * b_in, np.array([1.0, 1.0]) * b_in):
        sol = solve_qp(p, start=start)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.0, b_in], rtol=0, atol=1e-9)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        report = kkt_report(p, sol)
        assert report["stationarity"] <= 1e-6
        assert report["dual_feasibility"] >= -1e-9


def test_large_multiplier_does_not_fail_complementarity():
    # Q is rank 1 and x0 is driven to about -4.8e4, where the one row is
    # active with a multiplier of about 3.6e8: rounding that leaves the row
    # off by 1e-10 would make mu * slack 4e-2 and fail the KKT check
    q = np.array([[4.908422463367529, 4.14815571658198, -2.9190344898359686],
                  [0.0, 3.5056468707476314, -2.4669045291602023],
                  [0.0, 0.0, 1.7359472246824654]])
    p = QpProblem(
        Q=np.triu(q) + np.triu(q, 1).T,
        c=np.array([-23.597723509240538, 3.202660656999765, -16.479100722151692]),
        a_in=np.array([[-6.4569094173715503e-4, -0.36600939256937892, 1.1506415645286205]]),
        b_in=np.array([309.26598570037254]),
        lb=np.array([-np.inf, 69.18420380379654, 39.99587491560208]),
        ub=np.array([75.16212776241939, 69.18420380379654, 263.96119478208016]))
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.x[2] == p.ub[2]
    assert sol.in_multipliers[0] > 1e8
    assert sol.max_violation <= 1e-9 * (1.0 + p.b_in[0])
    report = kkt_report(p, sol)
    assert report["complementarity"] <= 1e-6 * (1.0 + np.abs(p.c).max()) * (1.0 + p.b_in[0])
    assert report["dual_feasibility"] >= -1e-9


def test_start_validated():
    p = QpProblem(Q=np.eye(2), c=np.zeros(2))
    for bad in (np.zeros(3), np.array([0.0, np.nan]), np.array([np.inf, 0.0])):
        with pytest.raises(QpInputError, match="start"):
            solve_qp(p, start=bad)


def test_psd_check_reads_the_unpinned_variables():
    # Q = diag(-1, 1) is indefinite, but once x0 is pinned the solver sees
    # only its block on x1, which is positive definite; the constructor
    # checks, so the indefinite problem is never built
    q, c = np.diag([-1.0, 1.0]), np.array([0.0, -1.0])
    with pytest.raises(QpInputError, match="Q is not positive semidefinite"):
        QpProblem(Q=q, c=c, lb=np.array([1.0, -5.0]), ub=np.array([3.0, 5.0]))
    sol = solve_qp(QpProblem(Q=q, c=c, lb=np.array([2.0, -5.0]), ub=np.array([2.0, 5.0])))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 1.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("problem, start, status, objective", [
    # Q = 0: the step along -c has no curvature and runs to the bound x = 3
    (QpProblem(Q=np.zeros((1, 1)), c=np.array([-1.0]), lb=np.zeros(1), ub=np.array([3.0])),
     None, "optimal", -3.0),
    # every point of the face x0 + x1 = 1, x >= 0 is optimal; start picks one
    (QpProblem(Q=np.zeros((2, 2)), c=np.ones(2), a_in=np.array([[1.0, 1.0]]),
               b_in=np.array([1.0]), lb=np.zeros(2)),
     np.array([5.0, 5.0]), "optimal", 1.0),
    # unbounded along d = (2, 1, 0), which keeps x0 - 2 x1 + x2 = 1
    (QpProblem(Q=np.diag([0.0, 0.0, 1.0]), c=np.array([-1.0, 0.0, 0.0]),
               a_eq=np.array([[1.0, -2.0, 1.0]]), b_eq=np.array([1.0]), lb=np.zeros(3)),
     None, "unbounded", -np.inf),
    # x1 has curvature 2**-37, below 1e-10 * lambda_max but far above
    # rounding: it stops at its minimizer 2**37 (boxed or not) instead of
    # running to the bound and back, or off as a ray
    (QpProblem(Q=np.diag([1.0, 2.0**-37]), c=np.array([0.0, -1.0]),
               lb=np.array([-1.0, 0.0]), ub=np.array([1.0, 1e12])),
     None, "optimal", -2.0**36),
    (QpProblem(Q=np.diag([1.0, 2.0**-37]), c=np.array([0.0, -1.0]),
               lb=np.array([-1.0, 0.0])),
     None, "optimal", -2.0**36),
    # beside that curvature, a direction with none at all is a ray
    (QpProblem(Q=np.diag([1.0, 2.0**-37, 0.0]), c=np.array([0.0, -1.0, -1.0])),
     None, "unbounded", -np.inf),
], ids=["step_to_bound", "face_of_optima", "unbounded_with_equality",
        "tiny_curvature_boxed", "tiny_curvature_open", "ray_beside_tiny_curvature"])
def test_zero_curvature_steps(problem, start, status, objective):
    sol = solve_qp(problem, start=start)
    assert sol.status == status
    assert sol.objective == pytest.approx(objective, abs=1e-12)
    assert sol.max_violation <= 1e-12
    if status == "optimal":
        report = kkt_report(problem, sol)
        assert report["stationarity"] <= 1e-12
        assert report["complementarity"] <= 1e-12
        assert report["dual_feasibility"] >= 0.0
    else:
        ray = sol.ray
        assert problem.c @ ray < 0
        np.testing.assert_allclose(problem.Q @ ray, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(problem.a_eq @ ray, 0.0, rtol=0, atol=1e-12)
        assert ray.min() >= 0.0


def test_objective_recomputation_matches():
    rng = np.random.default_rng(43)
    g = rng.standard_normal((6, 4))
    p = QpProblem(Q=g.T @ g + 0.1 * np.eye(4), c=rng.standard_normal(4),
                  lb=np.zeros(4), ub=np.full(4, 2.0))
    sol = solve_qp(p)
    recomputed = 0.5 * sol.x @ p.Q @ sol.x + p.c @ sol.x
    assert sol.objective == pytest.approx(recomputed, rel=1e-9, abs=1e-12)


def test_equal_bounds_pin_variables():
    p = QpProblem(Q=np.eye(4), c=np.array([1.0, 1.0, 1.0, -3.0]),
                  lb=np.array([0.5, -np.inf, 0.0, 2.0]),
                  ub=np.array([0.5, np.inf, 0.0, 2.0]))
    sol = solve_qp(p)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.x[2] == pytest.approx(0.0, abs=1e-12)
    assert sol.x[1] == pytest.approx(-1.0, abs=1e-9)
    # the gradient x3 - 3 = -1 pushes x3 up against its pin: its upper
    # bound carries the dual
    assert sol.x[3] == 2.0
    assert sol.upper_multipliers[3] == pytest.approx(1.0, abs=1e-12)
    assert sol.lower_multipliers[3] == 0.0
    report = kkt_report(p, sol)
    assert report["stationarity"] <= 1e-12
    assert report["complementarity"] <= 1e-12
    assert report["dual_feasibility"] >= 0.0


@st.composite
def boxed_qps_in_mixed_form(draw, pd=None):
    """A boxed QP, its box restated as bounds, rescaled rows or both.

    Q is PD, or of rank 0 to n-1 unless pd is given as True.  Returns (pd,
    problem, Q, c, lb, ub) where the last four are the plain boxed form the
    enumeration oracle solves; some variables are pinned (lb == ub).
    """
    n = draw(st.integers(1, 6))
    pd = draw(st.booleans()) if pd is None else pd
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n + 1 if pd else draw(st.integers(0, n - 1)), n))
    Q = g.T @ g + (0.05 * np.eye(n) if pd else 0.0)
    c = rng.standard_normal(n)
    lb = rng.uniform(-2.0, -0.5, size=n)
    ub = rng.uniform(0.5, 2.0, size=n)
    pinned = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lb[pinned] = ub[pinned] = rng.uniform(lb, ub)[pinned]

    p_lb, p_ub = np.full(n, -np.inf), np.full(n, np.inf)
    p_lb[pinned], p_ub[pinned] = lb[pinned], ub[pinned]
    rows, rhs = [], []
    forms = st.sampled_from(("bound", "row", "both"))
    scales = st.floats(1e-3, 1e3)
    for i in np.flatnonzero(~pinned):
        for sign, bound, target in ((1.0, lb, p_lb), (-1.0, ub, p_ub)):
            form = draw(forms)
            if form != "row":
                target[i] = bound[i]
            if form != "bound":
                k = sign * draw(scales)
                rows.append(k * np.eye(n)[i])
                rhs.append(k * bound[i])
    problem = QpProblem(Q=Q, c=c, a_in=np.array(rows) if rows else None,
                        b_in=np.array(rhs) if rows else None, lb=p_lb, ub=p_ub)
    return pd, problem, Q, c, lb, ub


@settings(max_examples=150, deadline=None)
@given(boxed_qps_in_mixed_form())
def test_bounds_and_bound_rows_reach_the_same_optimum(case):
    # a singular Q can have a whole face of optima; only a PD Q fixes x
    pd, problem, Q, c, lb, ub = case
    sol = solve_qp(problem)
    assert sol.status == "optimal"
    x_ref, obj_ref = boxed_qp_oracle(Q, c, lb, ub)
    assert sol.objective == pytest.approx(obj_ref, abs=1e-8)
    if pd:
        np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)
    report = kkt_report(problem, sol)
    assert report["stationarity"] <= 1e-6
    assert report["complementarity"] <= 1e-6
    assert report["dual_feasibility"] >= -1e-9


@st.composite
def qps_with_any_verdict(draw):
    """(verdict, problem): the boxed mixed-form QPs above, infeasible systems
    of rows and bounds, and QPs with a descending recession direction, some
    with an equality row."""
    verdict = draw(st.sampled_from(("optimal", "infeasible", "unbounded")))
    if verdict == "optimal":
        return verdict, draw(boxed_qps_in_mixed_form(pd=True))[1]
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((int(rng.integers(0, 4)), n))
    if verdict == "infeasible":
        # a'x >= beta + gap and -a'x >= -beta contradict each other
        g = rng.standard_normal((n + 1, n))
        a = rng.standard_normal(n)
        beta, gap = rng.standard_normal(), rng.uniform(0.01, 1.0)
        lb = np.where(rng.random(n) < 0.5, -rng.uniform(0.5, 2.0, n), -np.inf)
        return verdict, QpProblem(
            Q=g.T @ g + 0.05 * np.eye(n), c=rng.standard_normal(n),
            a_in=np.vstack([a, -a, rows]),
            b_in=np.concatenate([[beta + gap, -beta],
                                 rng.standard_normal(rows.shape[0]) - 3.0]),
            lb=lb)
    # Q is singular along d and c'd < 0; every row and bound lets x move
    # along d for ever, so the problem is feasible and unbounded
    g = rng.standard_normal((n - 1, n))
    d = np.linalg.svd(np.vstack([g, np.zeros(n)]))[2][-1]
    c = rng.standard_normal(n)
    c -= (c @ d + rng.uniform(0.1, 1.0)) * d
    rows *= np.where(rows @ d < 0, -1.0, 1.0)[:, None]
    lb = np.where((d >= 0) & (rng.random(n) < 0.5), -rng.uniform(0.5, 2.0, n), -np.inf)
    ub = np.where((d <= 0) & (rng.random(n) < 0.5), rng.uniform(0.5, 2.0, n), np.inf)
    # an equality row orthogonal to d holds all along the ray
    a_eq = rng.standard_normal((1 if n > 1 and draw(st.booleans()) else 0, n))
    a_eq -= np.outer(a_eq @ d, d)
    return verdict, QpProblem(Q=g.T @ g, c=c, a_eq=a_eq, b_eq=rng.standard_normal(a_eq.shape[0]),
                              a_in=rows if rows.size else None,
                              b_in=rng.standard_normal(rows.shape[0]) if rows.size else None,
                              lb=lb, ub=ub)


@settings(max_examples=200, deadline=None)
@given(qps_with_any_verdict(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_warm_start_reaches_the_cold_result(case, seed, magnitude):
    # start is arbitrary: typically infeasible and outside the bounds
    verdict, problem = case
    start = np.random.default_rng(seed).standard_normal(problem.n) * 10.0 ** magnitude
    cold = solve_qp(problem)
    warm = solve_qp(problem, start=start)
    assert cold.status == warm.status == verdict
    if verdict == "optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-7)  # Q is PD
    elif verdict == "infeasible":
        assert warm.max_violation == cold.max_violation
    else:  # x is where the iterations found the ray, which start moves
        ray = warm.ray
        scale = np.abs(ray).max()
        assert problem.c @ ray < 0
        assert np.abs(problem.Q @ ray).max() <= 1e-8 * scale
        assert np.abs(problem.a_eq @ ray).max(initial=0.0) <= 1e-9 * scale
        assert (problem.a_in @ ray).min(initial=0.0) >= -1e-9 * scale
        assert ray[np.isfinite(problem.lb)].min(initial=0.0) >= -1e-9 * scale
        assert ray[np.isfinite(problem.ub)].max(initial=0.0) <= 1e-9 * scale


@st.composite
def boxed_qps_with_copied_rows(draw):
    """(pd, plain, copied, x_in): a QP kept bounded by a box, with Q PD or
    of rank 1-3 and some general rows, the same QP with copies of some of
    those rows appended, each scaled by a factor in [1e-2, 1e2], and a point
    inside the box that meets every row."""
    n = draw(st.integers(2, 7))
    pd = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n + 1 if pd else draw(st.integers(1, min(3, n))), n))
    Q = g.T @ g + (0.05 * np.eye(n) if pd else 0.0)
    c = rng.standard_normal(n) * 10.0 ** draw(st.integers(0, 2))
    # a wide box makes errors in proportion to |x| visible
    scale = 10.0 ** draw(st.integers(0, 3))
    lb, ub = scale * rng.uniform(-2.0, -0.5, n), scale * rng.uniform(0.5, 2.0, n)
    # rows through a point inside the box, some tight there, so the
    # problem is feasible and the rows are active at many optima
    x_in = rng.uniform(lb, ub)
    a_eq = rng.standard_normal((draw(st.integers(0, 1)), n))
    a_in = rng.standard_normal((draw(st.integers(1, 4)), n))
    b_eq = a_eq @ x_in
    slack = scale * rng.uniform(0.0, 0.5, a_in.shape[0]) * (rng.random(a_in.shape[0]) < 0.5)
    b_in = a_in @ x_in - slack
    plain = QpProblem(Q=Q, c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in, lb=lb, ub=ub)
    copies_eq = draw(st.lists(st.integers(0, a_eq.shape[0] - 1), max_size=2)) if a_eq.size else []
    copies_in = draw(st.lists(st.integers(0, a_in.shape[0] - 1), min_size=1, max_size=4))
    k_eq = np.array([draw(st.floats(1e-2, 1e2)) for _ in copies_eq])
    k_in = np.array([draw(st.floats(1e-2, 1e2)) for _ in copies_in])
    copied = QpProblem(
        Q=Q, c=c, lb=lb, ub=ub,
        a_eq=np.vstack([a_eq, k_eq[:, None] * a_eq[copies_eq]]),
        b_eq=np.concatenate([b_eq, k_eq * b_eq[copies_eq]]),
        a_in=np.vstack([a_in, k_in[:, None] * a_in[copies_in]]),
        b_in=np.concatenate([b_in, k_in * b_in[copies_in]]))
    return pd, plain, copied, x_in


@settings(max_examples=150, deadline=None)
@given(boxed_qps_with_copied_rows())
def test_copied_rows_leave_the_optimum_and_kkt_unchanged(case):
    # copies are dependent rows, which the working set leaves out, and
    # the optimum must not notice them
    pd, plain, copied, _ = case
    base, dup = solve_qp(plain), solve_qp(copied)
    assert base.status == dup.status == "optimal"
    assert dup.objective == pytest.approx(base.objective, rel=1e-9, abs=1e-12)
    if pd:
        np.testing.assert_allclose(dup.x, base.x, rtol=0, atol=1e-7)
    for problem, sol in ((plain, base), (copied, dup)):
        report = kkt_report(problem, sol)
        assert report["stationarity"] <= 1e-8 * (1.0 + np.abs(problem.c).max())
        assert report["complementarity"] <= 1e-6
        assert report["dual_feasibility"] >= -1e-9


@st.composite
def qps_at_a_degenerate_vertex(draw):
    """(pd, problem, v): a boxed QP, with Q PD or of rank 1-3, whose integer
    rows outnumber the variables and are all tight at the integer point v;
    some bounds are tight there too."""
    n = draw(st.integers(1, 9))
    pd = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n + 1 if pd else draw(st.integers(1, min(3, n))), n))
    Q = g.T @ g + (0.05 * np.eye(n) if pd else 0.0)
    c = rng.standard_normal(n) * 10.0 ** draw(st.integers(0, 2))
    v = rng.integers(-3, 4, n).astype(float)
    a_in = rng.integers(-3, 4, (n + draw(st.integers(1, 5)), n)).astype(float)
    a_in[~a_in.any(axis=1), 0] = 1.0
    lb = np.where(rng.random(n) < 0.3, v, v - rng.uniform(0.5, 2.0, n))
    ub = np.where(rng.random(n) < 0.3, v, v + rng.uniform(0.5, 2.0, n))
    return pd, QpProblem(Q=Q, c=c, a_in=a_in, b_in=a_in @ v, lb=lb, ub=ub), v


@settings(max_examples=150, deadline=None)
@given(st.one_of(boxed_qps_with_copied_rows().map(lambda case: (case[0], case[2], case[3])),
                 qps_at_a_degenerate_vertex()))
def test_feasible_start_skips_phase_1_and_reaches_the_cold_result(case):
    pd, problem, start = case
    # the same point moved across its first row by 1e4 times the
    # feasibility tolerance: not a feasible start
    a0, feas_tol = problem.a_in[0], FEASIBILITY_TOL * (1.0 + problem.rhs_scale())
    outside = start - (a0 @ start - problem.b_in[0] + 1e4 * feas_tol) * a0 / (a0 @ a0)
    cold = solve_qp(problem)
    with mock.patch("longplan.qp._phase1", wraps=qp._phase1) as phase1:
        warm = solve_qp(problem, start=start)
        assert phase1.call_count == 0
        ignored = solve_qp(problem, start=outside)
        assert phase1.call_count == 1
    # an infeasible start runs exactly the path of no start
    np.testing.assert_array_equal(ignored.x, cold.x)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
    assert warm.max_violation <= feas_tol
    if pd:
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-7)
    report = kkt_report(problem, warm)
    assert report["stationarity"] <= 1e-8 * (1.0 + np.abs(problem.c).max())
    assert report["complementarity"] <= 1e-6
    assert report["dual_feasibility"] >= -1e-9


@st.composite
def feasibility_problems(draw):
    """Problems for phase 1 alone, feasible or not: n <= 8, 1 to 10 rows,
    Gaussian or small-integer, some of them equalities, maybe a row copied
    with a scale in [1e-2, 1e2], and bounds that are finite, infinite or
    equal."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a, b = rng.integers(-3, 4, (m, n)).astype(float), rng.integers(-4, 5, m).astype(float)
    else:
        a, b = rng.standard_normal((m, n)), 2.0 * rng.standard_normal(m)
    if m > 1 and draw(st.booleans()):
        k = draw(st.floats(1e-2, 1e2))
        a[-1], b[-1] = k * a[0], k * b[0]
    m_eq = draw(st.integers(0, min(m, 3)))
    lb = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-2.0, 1.0, n))
    ub = np.where(rng.random(n) < 0.3, np.inf, np.maximum(lb, -1.0) + rng.uniform(0.0, 2.0, n))
    ub = np.where(rng.random(n) < 0.15, np.where(np.isfinite(lb), lb, ub), ub)
    return QpProblem(Q=np.eye(n), c=np.zeros(n), a_eq=a[:m_eq], b_eq=b[:m_eq],
                     a_in=a[m_eq:], b_in=b[m_eq:], lb=lb, ub=ub)


@settings(max_examples=200, deadline=None)
@given(feasibility_problems())
def test_phase_1_certificate_matches_highs(problem):
    # the least worst-case violation is one number, however an LP finds it
    x0, t_star = qp._phase1(problem)
    reference = chebyshev_violation_highs(problem)
    assert abs(t_star - reference) <= 1e-9 * (1.0 + reference)
    assert np.all((problem.lb <= x0) & (x0 <= problem.ub))
    assert abs(problem.max_violation(x0) - t_star) <= 1e-9 * (1.0 + t_star)


def test_phase_1_names_itself_when_its_lp_fails():
    problem = QpProblem(Q=np.eye(1), c=np.zeros(1), a_in=np.array([[1.0], [-1.0]]),
                        b_in=np.array([2.0, -1.0]))
    cap = QpIterationLimitError("event cap 100 exceeded")
    with mock.patch("longplan.qp.solve_qp", side_effect=cap), \
            pytest.raises(QpError, match="^phase-1 feasibility LP failed: event cap") as raised:
        qp._phase1(problem)
    assert raised.value.__cause__ is cap
    # the LP is bounded below by t >= 0; a ray the ray check passes within
    # its tolerance must not become a certificate
    ray = qp.QpSolution(x=np.zeros(2), objective=-np.inf, status="unbounded", max_violation=0.0)
    with mock.patch("longplan.qp.solve_qp", return_value=ray), \
            pytest.raises(QpError, match="^phase-1 feasibility LP failed: the LP is unbounded"):
        qp._phase1(problem)


def test_phase_1_lp_takes_no_factor_of_its_zero_reduced_hessian():
    # Q = 0, so Z'QZ is zero on every face and every direction is flat: no
    # Cholesky factor is tried and no eigendecomposition taken
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 8))
    problem = QpProblem(Q=np.eye(8), c=np.zeros(8), a_eq=a[:2], b_eq=2.0 * rng.standard_normal(2),
                        a_in=a[2:], b_in=2.0 * rng.standard_normal(10),
                        lb=np.full(8, -1.0), ub=np.full(8, 1.0))
    with mock.patch("numpy.linalg.cholesky", wraps=np.linalg.cholesky) as cholesky, \
            mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(qp, "_reduced_step", wraps=qp._reduced_step) as factor:
        x0, t_star = qp._phase1(problem)
    assert factor.call_count > 0
    assert cholesky.call_count == 0 and eigh.call_count == 0
    assert abs(t_star - chebyshev_violation_highs(problem)) <= 1e-9 * (1.0 + t_star)
    assert abs(problem.max_violation(x0) - t_star) <= 1e-9 * (1.0 + t_star)


def _degenerate_vertex_qp(seed):
    """A QP of Q rank 1-3 whose n + 1 to n + 5 integer rows are all tight at
    the integer point v, some bounds tight there too, and v."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 10)
    r = rng.integers(1, 4)
    g = rng.standard_normal((min(r, n), n))
    c = rng.standard_normal(n) * 10.0 ** rng.integers(0, 3)
    v = rng.integers(-3, 4, n).astype(float)
    a_in = rng.integers(-3, 4, (n + rng.integers(1, 6), n)).astype(float)
    a_in[~a_in.any(axis=1), 0] = 1.0
    lb = np.where(rng.random(n) < 0.3, v, v - rng.uniform(0.5, 2.0, n))
    ub = np.where(rng.random(n) < 0.3, v, v + rng.uniform(0.5, 2.0, n))
    return QpProblem(Q=g.T @ g, c=c, a_in=a_in, b_in=a_in @ v, lb=lb, ub=ub), v


# Seeds where a gradient leg from c0 = -Q x0, every multiplier zero, ran to
# the event cap (977 in a period-8 cycle at one t), and three where it did
# so from c0 with the fitted multipliers clipped at zero.
@pytest.mark.parametrize("seed", [977, 1211, 1228, 1304, 1685, 2618, 2698, 3263, 6667, 10807])
def test_gradient_leg_leaves_a_degenerate_vertex_of_zero_curvature(seed):
    problem, v = _degenerate_vertex_qp(seed)
    cold = solve_qp(problem)
    warm = solve_qp(problem, start=v)
    assert cold.status == warm.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
    for sol in (cold, warm):
        assert sol.max_violation <= FEASIBILITY_TOL * (1.0 + problem.rhs_scale())
        report = kkt_report(problem, sol)
        assert report["stationarity"] <= 1e-8 * (1.0 + np.abs(problem.c).max())
        assert report["complementarity"] <= 1e-6
        assert report["dual_feasibility"] >= -1e-9


def _tied_means_qp(seed):
    """Minimum variance at the largest mean, two means tied and a third up
    to 1e-4 below, of a singular covariance; (the QP, the best asset)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    r = rng.standard_normal((int(rng.integers(2, n + 1)), n)) * 0.05
    mu = rng.uniform(-0.5, 0.2, n)
    best = int(np.argmax(mu))
    mu[(best + 1) % n] = mu[best]
    if rng.random() < 0.7:
        mu[(best + 2) % n] = mu[best] - 10.0 ** rng.uniform(-8, -4)
    return QpProblem(Q=2.0 * r.T @ r, c=np.zeros(n), a_eq=np.ones((1, n)), b_eq=[1.0],
                     a_in=mu[None, :], b_in=[mu[best]], lb=np.zeros(n)), best


@pytest.mark.parametrize("seed", [1, 8, 9, 10])
def test_gradient_leg_keeps_a_bound_added_by_rounding(seed):
    # from the best vertex: on the support the budget and target rows can
    # span a bound exactly, so its rate is rounding, and a bound added by
    # it makes the working rows dependent.  It must keep its zero
    # multiplier, not end the leg or be dropped and added again until the
    # event cap
    problem, best = _tied_means_qp(seed)
    warm, cold = solve_qp(problem, start=np.eye(problem.n)[best]), solve_qp(problem)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
    report = kkt_report(problem, warm)
    assert report["stationarity"] <= 1e-8 and report["complementarity"] <= 1e-8
    assert report["dual_feasibility"] >= -1e-9


@pytest.mark.parametrize("seed", [19, 22, 33, 98])
def test_restore_lands_on_a_row_with_a_large_multiplier(seed):
    # cold solves of the tied-means QP whose target row carries a
    # multiplier of 1e5-7e5: one restore and clip left that row's slack at
    # 4e-12 to 5e-11, and their product failed the KKT check.  The cold
    # point may keep a weight at rounding level on an asset whose mean lies
    # 2e-8 below the target, which the row cannot see and which moves the
    # objective by the multiplier times the row's rounding (1.4e-9 relative
    # on seed 22), so the objectives agree within 1e-8
    problem, best = _tied_means_qp(seed)
    cold, warm = solve_qp(problem), solve_qp(problem, start=np.eye(problem.n)[best])
    assert cold.status == warm.status == "optimal"
    assert cold.in_multipliers[0] > 1e5
    assert cold.objective == pytest.approx(warm.objective, rel=1e-8)
    report = kkt_report(problem, cold)
    assert report["stationarity"] <= 1e-8 and report["complementarity"] <= 1e-8
    assert report["dual_feasibility"] >= -1e-9


def test_newton_drop_rate_is_relative_to_the_step():
    # the long-only fund's QP, min y'Sigma y s.t. (mu - r_f)'y = 1, y >= 0,
    # of a rank-4 sample covariance on 9 assets, from the positive part of
    # Sigma^+ (mu - r_f) scaled onto the row (the fund's start until the
    # least-variance vertex replaced it; kept as an engine case): on a
    # near-singular face a Newton step of size 3.3e3 gives a bound's
    # multiplier a rate of -4.4e-8 against a tolerance of 3.5e-8, so a drop
    # rule blind to the step's size drops the bound at once, the step blocks
    # on it again at once, and the two repeat until the event cap
    returns = np.array([
        [2.5, -0.5, 0.8, 0.6, -0.5, -1.3, -2.2, -0.7, 0.6],
        [-0.7, -2.2, -1.1, -1.5, 0.0, -0.4, 0.9, -0.5, -0.9],
        [3.5, 3.6, 2.7, 2.9, -0.1, -1.4, 0.7, -1.0, -1.6],
        [2.8, 2.1, 1.6, 1.4, 1.5, 0.9, -0.6, -0.9, 0.6],
        [1.6, 0.6, 2.2, 2.7, 0.8, 0.3, -1.2, -1.1, 0.5]])
    centered = returns - returns.mean(axis=0)
    sigma = centered.T @ centered
    excess = np.array([0.56, 0.97, 0.47, 0.8, 0.16, 0.67, 0.17, 0.4, 0.39]) - 0.3
    problem = QpProblem(Q=2.0 * sigma, c=np.zeros(9), a_eq=excess[None, :], b_eq=[1.0],
                        lb=np.zeros(9))
    start = np.maximum(np.linalg.lstsq(sigma, excess, rcond=None)[0], 0.0)
    start /= excess @ start
    warm, cold = solve_qp(problem, start=start), solve_qp(problem)
    assert warm.status == cold.status == "optimal"
    assert cold.objective == pytest.approx(0.0670872742592347, rel=1e-12)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    report = kkt_report(problem, warm)
    assert report["stationarity"] <= 1e-8 and report["complementarity"] <= 1e-8
    assert report["dual_feasibility"] >= -1e-9

def test_tiny_feasible_interval_keeps_its_rows():
    # min 0.179 x^2 - 0.413 x on 2.98e-8 <= x <= 3.874e-8 (and 3x <= 1.554e-7):
    # the optimum is the upper end, which a solve that keeps a row violation
    # within the feasibility tolerance once overshot by a third
    problem = QpProblem(Q=np.array([[0.358]]), c=np.array([-0.413]),
                        a_in=np.array([[-3.0], [-1.0], [1.0]]),
                        b_in=np.array([-1.554e-7, -3.874e-8, 2.98e-8]))
    for start in (None, np.array([3.0e-8])):
        sol = solve_qp(problem, start=start)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.874e-8, rel=1e-12)
        assert sol.objective == pytest.approx(-1.59996e-8, rel=1e-5)
        assert sol.max_violation == 0.0


def _at(problem, db_in, tau):
    """The problem with b_in moved to b_in + tau * db_in."""
    return QpProblem(Q=problem.Q, c=problem.c, a_eq=problem.a_eq, b_eq=problem.b_eq,
                     a_in=problem.a_in, b_in=problem.b_in + tau * db_in,
                     lb=problem.lb, ub=problem.ub)


def test_path_on_the_two_asset_frontier():
    # min w'Sigma w, Sigma = diag(0.04, 0.09), s.t. w0 + w1 = 1,
    # 0.10 w0 + 0.05 w1 >= b, w >= 0, with b from 0.07 to 0.10.  Below the
    # GMV mean 1.1/13 the target is slack and w is the GMV (9/13, 4/13);
    # above it both rows hold, w0 = (b - 0.05) / 0.05, until w = (1, 0)
    problem = QpProblem(Q=np.diag([0.08, 0.18]), c=np.zeros(2),
                        a_eq=np.ones((1, 2)), b_eq=np.array([1.0]),
                        a_in=np.array([[0.10, 0.05]]), b_in=np.array([0.07]),
                        lb=np.zeros(2))
    db_in = np.array([0.03])
    taus = np.linspace(0.0, 1.0, 13)
    path = solve_qp_path(problem, db_in, taus, start=np.array([1.0, 0.0]))
    assert len(path) == taus.size
    turn = (1.1 / 13 - 0.07) / 0.03
    for tau, sol in zip(taus, path):
        b = 0.07 + 0.03 * tau
        w0 = 9 / 13 if tau <= turn else (b - 0.05) / 0.05
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [w0, 1.0 - w0], rtol=0, atol=1e-12)
        report = kkt_report(_at(problem, db_in, tau), sol)
        assert report["stationarity"] <= 1e-14
        assert report["complementarity"] <= 1e-14
        assert report["dual_feasibility"] >= 0.0
    # the target row's multiplier is zero before the turning point, then
    # rises affinely: stationarity on w0 reads 0.08 w0 = lam + 0.10 mu
    mus = np.array([sol.in_multipliers[0] for sol in path])
    assert np.all(mus[taus < turn] == 0.0)
    above = taus > turn
    w0 = (0.07 + 0.03 * taus[above] - 0.05) / 0.05
    np.testing.assert_allclose(mus[above], (0.08 * w0 - 0.18 * (1.0 - w0)) / 0.05,
                               rtol=0, atol=1e-12)
    # one breakpoint at the turn, where the target row enters
    assert path[-1].iterations - path[0].iterations >= 1


def test_path_keeps_a_copied_equality_row():
    # the copy depends on the budget row alone, so no multiplier can leave
    # to undo the dependency: both rows stay and the path is unchanged
    plain = QpProblem(Q=np.diag([0.08, 0.18]), c=np.zeros(2),
                      a_eq=np.ones((1, 2)), b_eq=np.array([1.0]),
                      a_in=np.array([[0.10, 0.05]]), b_in=np.array([0.07]), lb=np.zeros(2))
    copied = QpProblem(Q=plain.Q, c=plain.c, a_eq=np.array([[1.0, 1.0], [2.0, 2.0]]),
                       b_eq=np.array([1.0, 2.0]), a_in=plain.a_in, b_in=plain.b_in,
                       lb=plain.lb)
    db_in, taus = np.array([0.03]), np.linspace(0.0, 1.0, 7)
    for sol, ref, tau in zip(solve_qp_path(copied, db_in, taus, start=np.array([1.0, 0.0])),
                             solve_qp_path(plain, db_in, taus, start=np.array([1.0, 0.0])), taus):
        np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-12)
        report = kkt_report(_at(copied, db_in, tau), sol)
        assert report["stationarity"] <= 1e-12 and report["complementarity"] <= 1e-12


@st.composite
def qps_on_a_feasible_path(draw):
    """(pd, problem, db_in, start): a boxed QP, Q PD or of rank 1-3, whose
    rows hold along x(tau) = start + tau (x_end - start) for tau in [0, 1]
    with slacks that move affinely from one random set to another.  start
    is inside the box, or an integer vertex where more rows than variables
    are tight."""
    n = draw(st.integers(1, 6))
    pd = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n + 1 if pd else draw(st.integers(1, min(3, n))), n))
    Q = g.T @ g + (0.05 * np.eye(n) if pd else 0.0)
    c = rng.standard_normal(n) * 10.0 ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        start = rng.integers(-3, 4, n).astype(float)
        a_in = rng.integers(-3, 4, (n + draw(st.integers(1, 4)), n)).astype(float)
        a_in[~a_in.any(axis=1), 0] = 1.0
        lb, ub = start - rng.uniform(0.5, 2.0, n), start + rng.uniform(0.5, 2.0, n)
        a_eq, slack0 = np.zeros((0, n)), np.zeros(a_in.shape[0])
    else:
        lb, ub = rng.uniform(-2.0, -0.5, n), rng.uniform(0.5, 2.0, n)
        start = rng.uniform(lb, ub)
        a_in = rng.standard_normal((draw(st.integers(1, 4)), n))
        a_eq = rng.standard_normal((draw(st.integers(0, min(1, n - 1))), n))
        slack0 = rng.uniform(0.0, 0.5, a_in.shape[0]) * (rng.random(a_in.shape[0]) < 0.5)
    # a move that keeps the equality rows, scaled to stay in the box
    move = rng.standard_normal(n)
    if a_eq.shape[0]:
        move -= a_eq.T @ np.linalg.lstsq(a_eq.T, move, rcond=None)[0]
    room = np.where(move > 0, (ub - start) / np.maximum(move, 1e-300),
                    (lb - start) / np.minimum(move, -1e-300))
    move *= rng.uniform(0.2, 1.0) * min(1.0, float(room.min()))
    slack1 = rng.uniform(0.0, 0.5, a_in.shape[0]) * (rng.random(a_in.shape[0]) < 0.5)
    problem = QpProblem(Q=Q, c=c, a_eq=a_eq, b_eq=a_eq @ start, a_in=a_in,
                        b_in=a_in @ start - slack0, lb=lb, ub=ub)
    return pd, problem, a_in @ move - (slack1 - slack0), start


@settings(max_examples=150, deadline=None)
@given(qps_on_a_feasible_path(), st.lists(st.integers(0, 16), min_size=1, max_size=8))
def test_path_matches_cold_solves(case, grid):
    # taus on a grid of sixteenths: at a tau like 1e-7, rows 1e-8 apart
    # are one row to the cold solve's feasibility tolerance, and its
    # optimum is off by that much
    pd, problem, db_in, start = case
    taus = np.sort(grid) / 16.0
    path = solve_qp_path(problem, db_in, taus, start=start)
    assert len(path) == taus.size
    for tau, sol in zip(taus, path):
        at_tau = _at(problem, db_in, tau)
        cold = solve_qp(at_tau)
        assert sol.status == cold.status == "optimal"
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
        if pd:
            np.testing.assert_allclose(sol.x, cold.x, rtol=0, atol=1e-7)
        assert sol.max_violation <= FEASIBILITY_TOL * (1.0 + at_tau.rhs_scale())
        # the point's own verification and the public checks read the
        # same residuals
        assert sol.max_violation == at_tau.max_violation(sol.x)
        assert sol.objective == pytest.approx(at_tau.objective_value(sol.x), rel=1e-12)
        report = kkt_report(at_tau, sol)
        assert report["stationarity"] <= 1e-8 * (1.0 + np.abs(problem.c).max())
        assert report["complementarity"] <= 1e-6
        assert report["dual_feasibility"] >= -1e-9


def _assert_prefix(stopped, full):
    assert 1 <= len(stopped) <= len(full)
    for sol, ref in zip(stopped, full):
        np.testing.assert_array_equal(sol.x, ref.x)
        np.testing.assert_array_equal(sol.in_multipliers, ref.in_multipliers)
        assert (sol.objective, sol.iterations) == (ref.objective, ref.iterations)


@settings(max_examples=50, deadline=None)
@given(qps_on_a_feasible_path(), st.lists(st.integers(0, 16), min_size=1, max_size=8),
       st.integers(1, 8))
def test_path_stop_returns_the_points_so_far(case, grid, k):
    # stop sees each point in tau order, and the path ends at the first
    # point it accepts with the full path's points, bit for bit
    _, problem, db_in, start = case
    taus = np.sort(grid) / 16.0
    full = solve_qp_path(problem, db_in, taus, start=start)
    seen = []
    stopped = solve_qp_path(problem, db_in, taus, start=start,
                            stop=lambda sol: seen.append(sol) or len(seen) == k)
    assert len(stopped) == min(k, taus.size)
    assert [id(sol) for sol in stopped] == [id(sol) for sol in seen]
    _assert_prefix(stopped, full)


def test_path_stop_ends_a_leg_whose_rows_cannot_be_met_further():
    # the point at tau = 1 is returned where the rows cannot be met past
    # it (as in test_path_goes_on_from_a_leg_end_met_within_tolerance);
    # stop ends the path there, before leg 2
    problem = QpProblem(Q=np.eye(1), c=np.zeros(1), a_in=np.array([[1.0]]),
                        b_in=np.array([0.0]), ub=np.array([1.0]))
    legs, taus = np.array([[1.0 + 5e-8], [-1.0]]), [1.0, 2.0]
    full = solve_qp_path(problem, legs, taus, start=np.zeros(1))
    stopped = solve_qp_path(problem, legs, taus, start=np.zeros(1), stop=lambda sol: True)
    assert len(stopped) == 1
    _assert_prefix(stopped, full)


def test_path_start_is_checked_as_solve_qp_checks_it():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 4))
    problem = QpProblem(Q=g.T @ g + 0.1 * np.eye(4), c=rng.standard_normal(4),
                        a_eq=np.ones((1, 4)), b_eq=np.array([1.0]),
                        a_in=rng.standard_normal((2, 4)), b_in=np.array([-1.0, -1.5]),
                        lb=np.zeros(4))
    db_in, taus = np.array([0.5, 0.2]), np.array([0.0, 0.5, 1.0])
    outside = np.array([2.0, -1.0, 0.0, 0.0])      # breaks a bound
    with mock.patch("longplan.qp._phase1", wraps=qp._phase1) as phase1:
        path = solve_qp_path(problem, db_in, taus, start=outside)
        assert phase1.call_count == 1
        cold = solve_qp(problem, start=outside)
        assert phase1.call_count == 2
        solve_qp_path(problem, db_in, taus, start=np.full(4, 0.25))
        assert phase1.call_count == 2
    # the tau = 0 point is solve_qp's, bit for bit
    np.testing.assert_array_equal(path[0].x, cold.x)
    assert path[0].iterations == cold.iterations
    # the path's own count is its last point's: every event from the start
    assert path.iterations == path[-1].iterations >= path[0].iterations
    with pytest.raises(QpInputError, match="start"):
        solve_qp_path(problem, db_in, taus, start=np.zeros(3))
    # no optimum at tau = 0: the path cannot start
    infeasible = QpProblem(Q=np.eye(1), c=np.zeros(1), a_in=np.array([[1.0], [-1.0]]),
                           b_in=np.array([2.0, -1.0]))
    with pytest.raises(QpError, match="infeasible"):
        solve_qp_path(infeasible, np.zeros(2), taus, start=np.zeros(1))


def test_path_input_validated_and_infeasible_tail_raises():
    # x >= b with x <= 1: the rows cannot be met past tau = 0.5
    problem = QpProblem(Q=np.eye(1), c=np.zeros(1), a_in=np.array([[1.0]]),
                        b_in=np.array([0.0]), ub=np.array([1.0]))
    for db_in, taus in ((np.ones(2), [0.0]), (np.array([np.nan]), [0.0]),
                        (np.ones(1), []), (np.ones(1), [0.5, 0.2]), (np.ones(1), [1.5])):
        with pytest.raises(QpInputError):
            solve_qp_path(problem, db_in, taus, start=np.zeros(1))
    path = solve_qp_path(problem, np.array([2.0]), [0.25, 0.5], start=np.zeros(1))
    np.testing.assert_allclose([sol.x[0] for sol in path], [0.5, 1.0], rtol=0, atol=1e-15)
    with pytest.raises(QpError, match="cannot be met"):
        solve_qp_path(problem, np.array([2.0]), [0.25, 0.75], start=np.zeros(1))


def test_path_goes_on_from_a_leg_end_met_within_tolerance():
    # leg 1 moves x >= b to b = 1 + 5e-8 with x <= 1, so the rows cannot be
    # met past tau = 1 - 5e-8; x = 1 still meets them within the
    # feasibility tolerance, as solve_qp accepts it there, so the path
    # returns it at tau = 1 and leg 2 starts from it, the row and the bound
    # dependent with neither entered last, and takes b back to 5e-8
    problem = QpProblem(Q=np.eye(1), c=np.zeros(1), a_in=np.array([[1.0]]),
                        b_in=np.array([0.0]), ub=np.array([1.0]))
    legs = np.array([[1.0 + 5e-8], [-1.0]])
    leg_end = solve_qp(QpProblem(Q=np.eye(1), c=np.zeros(1), a_in=np.array([[1.0]]),
                                 b_in=np.array([1.0 + 5e-8]), ub=np.array([1.0])))
    assert leg_end.status == "optimal" and leg_end.x[0] == 1.0
    for taus, expected in (([1.0, 2.0], [1.0, 5e-8]), ([2.0], [5e-8])):
        path = solve_qp_path(problem, legs, taus, start=np.zeros(1))
        np.testing.assert_allclose([sol.x[0] for sol in path], expected, rtol=0, atol=1e-15)
        # Qx + c = x rests on the row alone, none of it on the bound
        assert all(sol.in_multipliers[0] == pytest.approx(sol.x[0], rel=1e-9) for sol in path)


@st.composite
def qps_on_a_degenerate_path(draw):
    """(problem, db_in, start): a boxed QP whose rows, more than its
    variables, all stay tight along x(tau) = v0 + tau (v1 - v0) between two
    points of a grid of spacing 1 to 1000, with some bounds tight along it
    too and some columns without curvature, like the lifecycle's borrow and
    save.  The rows are small integers, half the time perturbed by up to 10%
    so that rates come out at rounding level; with the negated sum of the
    first n rows added the rows meet only at x(tau), so the path runs
    through degenerate vertices all the way."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, n))
    g[:, rng.random(n) < 0.4] = 0.0
    c = rng.standard_normal(n) * 10.0 ** draw(st.integers(0, 2))
    scale = 10.0 ** draw(st.integers(0, 3))
    v0 = scale * rng.integers(-3, 4, n).astype(float)
    v1 = v0 + scale * rng.integers(-2, 3, n)
    a_in = rng.integers(-3, 4, (n + draw(st.integers(1, 4)), n)).astype(float)
    a_in[~a_in.any(axis=1), 0] = 1.0
    if draw(st.booleans()):
        a_in *= 1.0 + rng.uniform(-0.1, 0.1, a_in.shape)
    if draw(st.booleans()):
        a_in = np.vstack([a_in, -a_in[:n].sum(axis=0)])
    lo, hi = np.minimum(v0, v1), np.maximum(v0, v1)
    lb = np.where(rng.random(n) < 0.3, lo, lo - scale * rng.uniform(0.5, 2.0, n))
    ub = np.where(rng.random(n) < 0.3, hi, hi + scale * rng.uniform(0.5, 2.0, n))
    problem = QpProblem(Q=g.T @ g, c=c, a_in=a_in, b_in=a_in @ v0, lb=lb, ub=ub)
    return problem, a_in @ v1 - a_in @ v0, v0


@settings(max_examples=200, deadline=None)
@given(qps_on_a_degenerate_path(), st.lists(st.integers(0, 16), min_size=1, max_size=8))
def test_path_through_degenerate_vertices_matches_cold_solves(case, grid):
    problem, db_in, start = case
    taus = np.sort(grid) / 16.0
    path = solve_qp_path(problem, db_in, taus, start=start)
    for tau, sol in zip(taus, path):
        at_tau = _at(problem, db_in, tau)
        cold = solve_qp(at_tau)
        assert sol.status == cold.status == "optimal"
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
        assert sol.max_violation <= FEASIBILITY_TOL * (1.0 + at_tau.rhs_scale())
        # slacks at rounding level of |b| times multipliers that reach 1e7
        # where rows are nearly parallel
        duals = np.concatenate([sol.in_multipliers, sol.lower_multipliers,
                                sol.upper_multipliers])
        report = kkt_report(at_tau, sol)
        assert report["stationarity"] <= 1e-8 * (1.0 + np.abs(problem.c).max())
        assert report["complementarity"] <= \
            1e-12 * (1.0 + at_tau.rhs_scale()) * (1.0 + np.abs(duals).max())
        assert report["dual_feasibility"] >= -1e-9


@settings(max_examples=150, deadline=None)
@given(st.one_of(qps_on_a_feasible_path().map(lambda case: case[1:]), qps_on_a_degenerate_path()),
       st.lists(st.integers(0, 16), min_size=1, max_size=8))
def test_path_points_do_not_depend_on_the_other_taus(case, grid):
    # the points on one face are verified together; each comes out bit for
    # bit as it does when its tau is the only one requested
    problem, db_in, start = case
    taus = np.sort(grid) / 16.0
    path = solve_qp_path(problem, db_in, taus, start=start)
    for tau, sol in zip(taus, path):
        alone, = solve_qp_path(problem, db_in, [tau], start=start)
        for field in ("x", "eq_multipliers", "in_multipliers", "lower_multipliers",
                      "upper_multipliers"):
            np.testing.assert_array_equal(getattr(sol, field), getattr(alone, field))
        assert (sol.objective, sol.max_violation, sol.iterations) == \
            (alone.objective, alone.max_violation, alone.iterations)


# Four M=30 lifecycle plans: the default config with these changes, the
# analytic V and kstart.  On the path from the "none" house branch to the
# year-1 branch, one that kept dependent working rows, or let a rate at
# rounding level block, added and dropped the same bounds at one tau until
# the breakpoint cap.
HOUSE_BRANCH_CYCLES = [
    # (risk_aversion_B, house_initial, house_annual, house_utility,
    #  h, L, s, r_stock, var_stock)
    (4.640985, 1452.6961, 123.8941, 3533.9756, 0.123548, 12.4318, 0.414058, 0.042123, 0.043446),
    (2.68815, 2037.1064, 107.7117, 2870.7264, 0.055145, 31.1522, 0.292171, 0.054025, 0.027926),
    (4.248181, 1509.5892, 127.3652, 4909.2248, 0.185089, 18.4764, 0.977976, 0.04229, 0.018436),
    (4.481373, 1884.2894, 190.575, 4053.6239, 0.158414, 13.4923, 0.716703, 0.042649, 0.031308),
]


def _house_branches(b_risk, house_initial, house_annual, house_utility, h, big_l, s,
                    r_stock, var_stock):
    """The "none" and year-1 branch QPs of one lifecycle plan, built as
    solve_lifecycle builds them: the house column moved to the right-hand
    side of the M floor rows."""
    hazard = HazardModel(h=h, r=lifecycle.LifecycleConfig().r, L=big_l, s=s, horizon_M=30)
    config = lifecycle.LifecycleConfig(risk_aversion_B=b_risk, house_initial=house_initial,
                                       house_annual=house_annual,
                                       house_utility=house_utility, hazard=hazard)
    asset = lifecycle.RiskyAssetSummary(r_stock=r_stock, var_stock=var_stock)
    m = config.years_M
    c = lifecycle.assemble_linear_coefficients(config, asset)
    q = lifecycle.assemble_quadratic(config, asset)
    a, b = lifecycle.assemble_constraints(config, asset, math.ceil(1.0 / h))
    rest = np.r_[0:3 * m, 4 * m]

    def branch(b_in):
        return QpProblem(Q=-q[np.ix_(rest, rest)], c=-c[rest], a_in=a[:m, rest], b_in=b_in,
                         lb=np.zeros(3 * m + 1))

    return branch(b[:m]), branch(b[:m] - a[:m, 3 * m])


@pytest.mark.parametrize("case", HOUSE_BRANCH_CYCLES)
def test_path_between_house_branches_terminates(case):
    none, year_1 = _house_branches(*case)
    start = solve_qp(none, start=np.zeros(none.n)).x
    # QpIterationLimitError here would be the cycle
    sol = solve_qp_path(none, year_1.b_in - none.b_in, [1.0], start=start)[0]
    cold = solve_qp(year_1)
    assert sol.status == cold.status == "optimal"
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
    assert sol.max_violation <= FEASIBILITY_TOL * (1.0 + year_1.rhs_scale())
    report = kkt_report(year_1, sol)
    assert report["stationarity"] <= 1e-8 * (1.0 + np.abs(year_1.c).max())
    assert report["complementarity"] <= 1e-6
    assert report["dual_feasibility"] >= -1e-9


@st.composite
def working_matrices(draw):
    """(a_w, appended): rows of full row rank, the same with one dependent
    row appended, or n_free + 1 rows; appended indexes the dependent row.
    Rows have norms in [0.1, 1], as unit rows restricted to the free
    variables do."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("independent", "appended", "one_too_many")))
    m = n if kind == "one_too_many" else draw(st.integers(0 if kind == "independent" else 1, n))
    a = rng.standard_normal((m, n))
    a *= rng.uniform(0.1, 1.0, (m, 1)) / np.linalg.norm(a, axis=1, keepdims=True)
    if kind == "independent":
        return a, None
    extra = (rng.standard_normal((1, n)) if kind == "one_too_many"
             else rng.standard_normal(m) @ a)
    return np.vstack([a, extra / max(1.0, np.linalg.norm(extra))]), m


def _check_face_contract(a_w, dependent_rows, rng):
    m, n = a_w.shape
    z, t, dependent = qp._null_space(a_w)
    np.testing.assert_array_equal(dependent, dependent_rows)
    rank = m - len(dependent_rows)
    assert z.shape == (n, n - rank)
    np.testing.assert_allclose(z.T @ z, np.eye(n - rank), atol=1e-12)
    scale = 1.0 + np.abs(a_w).max(initial=0.0)
    np.testing.assert_allclose(a_w @ z, 0.0, atol=1e-12 * scale)
    nu = rng.standard_normal(m)
    nu[dependent_rows] = 0.0
    np.testing.assert_allclose(t @ (a_w.T @ nu), nu,
                               atol=1e-8 * (1.0 + np.abs(nu).max(initial=0.0)))
    r = a_w @ rng.standard_normal(n)
    s = r @ t
    np.testing.assert_allclose(a_w @ s, r, atol=1e-9 * (1.0 + np.abs(r).max(initial=0.0)))
    np.testing.assert_allclose(z.T @ s, 0.0, atol=1e-9 * (1.0 + np.abs(s).max()))


@settings(max_examples=200, deadline=None)
@given(working_matrices(), st.integers(0, 2**32 - 1))
def test_face_contract(case, seed):
    # z spans the null space, t g (multipliers) and r t (the restore)
    # solve with the independent rows, and the QR names exactly the
    # dependent row
    a_w, appended = case
    sv = np.linalg.svd(np.delete(a_w, [] if appended is None else [appended], axis=0),
                       compute_uv=False)
    assume(sv.size == 0 or sv.max() < 1e6 * sv.min())
    _check_face_contract(a_w, [] if appended is None else [appended],
                         np.random.default_rng(seed))


def test_face_finds_a_row_that_follows_a_dependent_one():
    # after the dependent row 1 the unpivoted QR's diagonal entry for row 2
    # is 0 although row 2 is independent of the rows before it
    a_w = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert abs(np.linalg.qr(a_w[:3].T, mode="r")[2, 2]) < 1e-13
    _check_face_contract(a_w, [1, 3], np.random.default_rng(0))


def _basis_free(face):
    """z z', z h_inv z' and t: a face's factors, free of z's basis."""
    return face.z @ face.z.T, face.z @ face.h_inv @ face.z.T, face.t


def _assert_zero_outside_the_face(problem, face, working, side):
    """z's rows and t's columns at the fixed variables, and t's rows at the
    rows outside the working list, are exactly 0."""
    fixed = side != 0.0
    outside = np.ones(problem.a_eq.shape[0] + problem.a_in.shape[0], dtype=bool)
    outside[:problem.a_eq.shape[0]] = False
    outside[problem.a_eq.shape[0] + np.asarray(working, dtype=int)] = False
    assert not face.z[fixed].any() and not face.t[:, fixed].any() and not face.t[outside].any()


def _event(problem, face, working, side, rng):
    """Apply one random event to working and side; (key, the entering unit
    row or bound, or None when one leaves)."""
    m_in = problem.a_in.shape[0]
    outside = [i for i in range(m_in) if i not in working]
    kinds = [kind for kind, ok in (("row in", outside), ("row out", working),
                                   ("bound in", (side == 0.0).any()),
                                   ("bound out", side.any())) if ok]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "row in":
        key = outside[rng.integers(len(outside))]
        working.append(key)
        return key, problem._rows.ineq[key]
    if kind == "row out":
        return working.pop(rng.integers(len(working))), None
    if kind == "bound in":
        i = int(rng.choice(np.flatnonzero(side == 0.0)))
        side[i] = rng.choice([-1.0, 1.0])
        return m_in + i, np.eye(problem.n)[i]
    i = int(rng.choice(np.flatnonzero(side)))
    side[i] = 0.0
    return m_in + i, None


def _schur_ratio(problem, face, fresh):
    """s / d for the direction z_new that a leaving row or bound adds to
    face's null space, read off fresh: d = z_new'Q z_new and s = 1 /
    z_new'(z h_inv z')z_new, the Schur complement of the bordered z'Qz."""
    z_new = np.linalg.eigh(fresh.z @ fresh.z.T - face.z @ face.z.T)[1][:, -1]
    z_h_z = fresh.z @ fresh.h_inv @ fresh.z.T
    return 1.0 / (z_new @ z_h_z @ z_new * (z_new @ problem.Q @ z_new))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["definite", "singular", "zero"]),
       st.booleans())
def test_updated_faces_match_fresh_factors(seed, curvature, copied):
    # along a random chain of rows and bounds entering and leaving, each
    # face _next_face updates equals the one _open_face factors from
    # scratch, and _next_face declines only where an update is unsafe: a
    # face without h_inv or with a dependent row, an entering pivot at or
    # below 1e-3, a leaving direction's s at or below 1e-3 d, or a next face
    # that _open_face finds dependent or without its Cholesky certificate.
    # A row copied from two others and a singular or zero Q reach those
    # fallbacks.  Every face holds exact zeros at the fixed variables and
    # the rows outside the working list.  On a singular Q, z'Qz can be ill-conditioned, and the
    # rounding of its inverse carries into the faces updated from it (up
    # to 6e-9 relative in 1,500 chains), so z h_inv z' is compared only
    # where Q is definite or zero
    rng = np.random.default_rng(seed)
    n, m_eq, m_in = int(rng.integers(2, 9)), int(rng.integers(0, 2)), int(rng.integers(1, 7))
    g = rng.standard_normal((int(rng.integers(1, n)) if curvature == "singular" else n, n))
    q = {"definite": g.T @ g + 0.5 * np.eye(n), "singular": g.T @ g,
         "zero": np.zeros((n, n))}[curvature]
    a = rng.standard_normal((m_eq + m_in, n))
    if copied and m_in >= 3:
        a[-1] = a[-2] - 0.5 * a[-3]
    problem = QpProblem(Q=q, c=np.zeros(n), a_eq=a[:m_eq], b_eq=np.zeros(m_eq),
                        a_in=a[m_eq:], b_in=np.zeros(m_in))
    working, side = [], np.zeros(n)
    face = qp._open_face(problem, working, side)
    for _ in range(12):
        key, entering = _event(problem, face, working, side, rng)
        updated = qp._next_face(problem, face, key, working, side)
        fresh = qp._open_face(problem, working, side)
        _assert_zero_outside_the_face(problem, fresh, working, side)
        regular = fresh.h_inv is not None and not fresh.dependent.size
        if updated is None:
            assert (face.h_inv is None or face.dependent.size or not regular
                    or entering is not None and np.linalg.norm(face.z.T @ entering) <= 1e-3
                    or entering is None and _schur_ratio(problem, face, fresh) <= 1.001e-3)
        else:
            assert regular and not updated.dependent.size
            _assert_zero_outside_the_face(problem, updated, working, side)
            pairs = list(zip(_basis_free(updated), _basis_free(fresh)))
            if curvature == "singular":
                del pairs[1]
            for mine, theirs in pairs:
                np.testing.assert_allclose(
                    mine, theirs, rtol=0.0, atol=1e-10 * (1.0 + np.abs(theirs).max(initial=0.0)))
        face = fresh if updated is None else updated


def test_next_face_declines_an_unsafe_update():
    # a row that depends on the working rows (pivot 0), any update of a
    # face with a dependent row or without h_inv, and a bound that leaves
    # along a direction of zero curvature (s = 0) or of almost none beyond
    # the face's (s <= 1e-3 d): each next face is factored afresh
    a = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [2.0, 0.0, 0.0]])
    definite = QpProblem(Q=np.eye(3), c=np.zeros(3), a_in=a, b_in=np.zeros(3))
    flat = QpProblem(Q=np.diag([1.0, 1.0, 0.0]), c=np.zeros(3), a_in=a, b_in=np.zeros(3))
    free = np.zeros(3)
    face = qp._open_face(definite, [0, 1], free)
    assert face.h_inv.shape == (1, 1) and not face.dependent.size
    assert qp._next_face(definite, face, 2, [0, 1, 2], free) is None
    face = qp._open_face(definite, [0, 1, 2], free)
    assert face.dependent.size and face.h_inv is not None
    assert qp._next_face(definite, face, 1, [0, 2], free) is None
    face = qp._open_face(flat, [0], free)
    assert face.h_inv is None
    assert qp._next_face(flat, face, 1, [0, 1], free) is None
    face = qp._open_face(flat, [0, 1], np.array([0.0, 0.0, 1.0]))
    assert face.h_inv.shape == (0, 0)
    assert qp._next_face(flat, face, 5, [0, 1], free) is None
    # the same bound leaves the definite Q's vertex by an update
    face = qp._open_face(definite, [0, 1], np.array([0.0, 0.0, 1.0]))
    assert qp._next_face(definite, face, 5, [0, 1], free).h_inv.shape == (1, 1)
    # a bound that leaves along a direction whose curvature the face
    # nearly has already: s / d = 2e-5, though Q keeps the certificate
    near = QpProblem(Q=np.array([[1.0, 1.0 - 1e-5], [1.0 - 1e-5, 1.0]]), c=np.zeros(2))
    face = qp._open_face(near, [], np.array([0.0, 1.0]))
    assert face.h_inv.shape == (1, 1)
    assert qp._next_face(near, face, 1, [], np.zeros(2)) is None
    assert qp._open_face(near, [], np.zeros(2)).h_inv is not None


def _gradient_leg_dependencies(run):
    """Run run() and return, per face that a solve opens or updates on its
    gradient leg (leg 0), the number of working rows that face finds
    dependent."""
    counts = []

    def counting(factor):
        def counted(*args):
            face = factor(*args)
            frame = sys._getframe(1)
            while frame.f_code.co_name != "_solve":
                frame = frame.f_back
            if face is not None and frame.f_locals["leg"] == 0:
                counts.append(len(face.dependent))
            return face
        return counted

    with mock.patch.object(qp, "_open_face", counting(qp._open_face)), \
            mock.patch.object(qp, "_next_face", counting(qp._next_face)):
        run()
    return counts


def test_gradient_leg_faces_have_full_row_rank_on_the_sample_run():
    # the start keeps only independent rows and bounds, and what blocks a
    # step is independent of the working set, so no face is deficient
    stats = estimate_stats(load_returns(SAMPLE_RETURNS, 12))
    problems = []

    def recording(problem, *args, **kwargs):
        problems.append(problem)
        return solve_qp_path(problem, *args, **kwargs)

    def run():
        fund = max_sharpe_long_only(stats, 0.025)
        trace_frontier(stats, 30)
        # the sample fund and the six funds of acceptance criterion 9
        funds = [(fund.mean, fund.variance), *itertools.product((0.05, 0.09, 0.15), (0.01, 0.04))]
        with mock.patch.object(lifecycle, "solve_qp_path", recording):
            for r_stock, var_stock in funds:
                solve_lifecycle(LifecycleConfig(), RiskyAssetSummary(r_stock, var_stock))
        # a plan's path starts at its no-house optimum, so its gradient leg
        # is one face; the legs from the zero plan of each no-house QP
        for problem in problems:
            solve_qp(problem, start=np.zeros(problem.n))

    counts = _gradient_leg_dependencies(run)
    assert len(counts) > 50
    assert max(counts) == 0


def test_sample_plan_factors_each_face_once():
    # the plan's one path factors its first face from scratch; every later
    # face is updated from the one before it, with no QR, Cholesky or
    # eigendecomposition, and every pass on a face, a leg's end included,
    # solves with that face's factors
    stats = estimate_stats(load_returns(SAMPLE_RETURNS, 12))
    fund = max_sharpe_long_only(stats, 0.025)
    opened, updated, steps, factored = [], [], [], []
    open_face, next_face, newton = qp._open_face, qp._next_face, qp._newton

    def opening(*args):
        opened.append(open_face(*args))
        factored.append(qr.call_count + cholesky.call_count + eigh.call_count)
        return opened[-1]

    def updating(*args):
        updated.append(next_face(*args))
        return updated[-1]

    def solving(h_inv):
        step = newton(h_inv)

        def counted(g_red):
            steps.append(h_inv.shape[0])
            return step(g_red)
        return counted

    with mock.patch.object(qp, "_open_face", opening), \
            mock.patch.object(qp, "_next_face", updating), \
            mock.patch.object(qp, "_newton", solving), \
            mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr, \
            mock.patch("numpy.linalg.cholesky", wraps=np.linalg.cholesky) as cholesky, \
            mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
        plan = solve_lifecycle(LifecycleConfig(), RiskyAssetSummary(fund.mean, fund.variance))
    assert plan.house_year == 6
    # the path's start, and nothing factored after it
    assert len(opened) == 1
    assert qr.call_count + cholesky.call_count + eigh.call_count == factored[-1]
    assert len(updated) > 100 and all(face is not None for face in updated)
    # the path's legs end on faces already open: the gradient leg and one
    # leg per house year before the last it solves, 16 of the 20 (the bound
    # prunes house years 1-4)
    legs = sum(objective is not None for _, objective in plan.branch_objectives[1:])
    assert legs == 16
    with_null_space = sum(face.z.shape[1] > 0 for face in opened + updated)
    assert len(steps) >= with_null_space + legs


def test_start_at_a_vertex_with_more_active_rows_than_free_variables():
    # at v = (1, 1, 1) the equality row, the upper bound of x2 and all five
    # rows are active, on two variables that the bound leaves free
    a_in = np.array([[1.0, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0], [1, 2, 0]])
    v = np.ones(3)
    problem = QpProblem(Q=np.eye(3), c=np.array([-3.0, -0.5, 0.0]),
                        a_eq=np.ones((1, 3)), b_eq=[3.0], a_in=a_in, b_in=a_in @ v,
                        lb=np.zeros(3), ub=np.array([np.inf, np.inf, 1.0]))
    warm = []
    counts = _gradient_leg_dependencies(lambda: warm.append(solve_qp(problem, start=v)))
    cold = solve_qp(problem)
    assert warm[0].status == cold.status == "optimal"
    assert max(counts) == 0
    assert warm[0].objective == pytest.approx(cold.objective, rel=1e-9)
    np.testing.assert_allclose(warm[0].x, cold.x, atol=1e-9)
    for sol in (warm[0], cold):
        report = kkt_report(problem, sol)
        assert report["stationarity"] <= 1e-9
        assert report["complementarity"] <= 1e-9
        assert report["dual_feasibility"] >= -1e-9

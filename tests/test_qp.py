"""Tests for the dense convex QP solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longplan.qp import (
    QpInputError,
    QpProblem,
    kkt_report,
    solve_qp,
)
from oracles import boxed_qp_oracle


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
    # x >= 2 and x <= 1 cannot hold; the best max-violation point is
    # x = 1.5, violating each side by 0.5
    p = QpProblem(Q=np.eye(1), c=np.zeros(1),
                  a_in=np.array([[1.0], [-1.0]]), b_in=np.array([2.0, -1.0]))
    sol = solve_qp(p)
    assert sol.status == "infeasible"
    assert sol.max_violation == pytest.approx(0.5, abs=1e-6)


def test_iteration_limit_reported_distinctly():
    from longplan.qp import QpIterationLimitError
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 5))
    p = QpProblem(Q=g.T @ g + 0.1 * np.eye(5), c=rng.standard_normal(5),
                  lb=np.zeros(5), ub=np.ones(5))
    with pytest.raises(QpIterationLimitError):
        solve_qp(p, _max_iter=0)


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


def test_objective_recomputation_matches():
    rng = np.random.default_rng(43)
    g = rng.standard_normal((6, 4))
    p = QpProblem(Q=g.T @ g + 0.1 * np.eye(4), c=rng.standard_normal(4),
                  lb=np.zeros(4), ub=np.full(4, 2.0))
    sol = solve_qp(p)
    recomputed = 0.5 * sol.x @ p.Q @ sol.x + p.c @ sol.x
    assert sol.objective == pytest.approx(recomputed, rel=1e-9, abs=1e-12)


def test_equal_bounds_pin_variables():
    p = QpProblem(Q=np.eye(3), c=np.array([1.0, 1.0, 1.0]),
                  lb=np.array([0.5, -np.inf, 0.0]),
                  ub=np.array([0.5, np.inf, 0.0]))
    sol = solve_qp(p)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.x[2] == pytest.approx(0.0, abs=1e-12)
    assert sol.x[1] == pytest.approx(-1.0, abs=1e-9)


@st.composite
def boxed_qps_in_mixed_form(draw):
    """A PD boxed QP, its box restated as bounds, rescaled rows or both.

    Returns (problem, Q, c, lb, ub) where the last four are the plain boxed
    form the enumeration oracle solves; some variables are pinned (lb == ub).
    """
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n + 1, n))
    Q = g.T @ g + 0.05 * np.eye(n)
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
    return problem, Q, c, lb, ub


@settings(max_examples=150, deadline=None)
@given(boxed_qps_in_mixed_form())
def test_bounds_and_bound_rows_reach_the_same_optimum(case):
    problem, Q, c, lb, ub = case
    sol = solve_qp(problem)
    assert sol.status == "optimal"
    x_ref, obj_ref = boxed_qp_oracle(Q, c, lb, ub)
    assert sol.objective == pytest.approx(obj_ref, abs=1e-8)
    np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)
    report = kkt_report(problem, sol)
    assert report["stationarity"] <= 1e-6
    assert report["complementarity"] <= 1e-6
    assert report["dual_feasibility"] >= -1e-9

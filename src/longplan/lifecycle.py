"""Lifetime investment planning as a mixed-integer QP.

Over an M-year horizon the planner chooses, in units of 1,000 currency,

* theta1: money put into the risky fund each year,
* theta2: money borrowed at the (higher) riskless rate,
* theta3: money saved at the (lower) riskless rate,
* beta:   binary indicators for the single house-purchase year,
* theta4: a one-shot quantity of income insurance,

stacked as (stock 1..M, borrow 1..M, save 1..M, beta 1..M, insurance) of
length 4M + 1.  The objective is discounted mean-variance utility of
consumption plus a lump house utility and the insurance value; each year's
consumption floor D_k >= d_floor becomes one ">=" row built from the
cash-flow recursions.  The income drop (and the end of insurance spread
accrual) is handled deterministically at year kstart, the ceiling of the
expected strike time.

The binaries are settled by branch and bound over the house years: with
at most one house purchase and the last house_years years excluded, fixing
beta leaves one convex QP per admissible purchase year plus the no-house
case.  A fixed beta is a constant: its payments move to the right-hand
side of the floor rows and its utility to the objective, and the house cap
holds trivially.  So the branches share Q, c and A on the 3M + 1 other
columns and differ only in b.

That makes the branches one chain of right-hand-side legs, and one
qp.solve_qp_path call solves them all.  The no-house branch is its point
at tau = 0.  Q is diagonal, so the no-house utility is separable and its
maximizer over the bounds alone is max(0, c_i / -q_ii) on each column with
curvature and 0 elsewhere; the path starts at that point scaled back
towards the zero plan, which meets the no-house rows whenever income
covers the floor, until it meets them too.  Where the rows are slack there
(lambda = 1), that point is the no-house optimum and the gradient leg to
it is one pass.  The path then runs a leg per house year, from the last to
the first, along b_prev + tau (b_year - b_prev), so each leg passes only
the breakpoints where the two optimal working sets differ and no branch is
solved again from scratch.
Borrowing has no upper bound, so the rows can be met all along the path.

The optimal value V(b) of the minimization is convex in b, and a solved
branch's verified multipliers are a subgradient of it, so every solved
branch bounds the utility of every other (Lazimy 1982; Bonami & Lejeune
2009).  The chain stops, through the path's stop predicate, as soon as no
unsolved branch's bound comes within a margin of the KKT tolerances of the
best utility found; those branches are pruned, not solved, and the best
branch is still exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .insurance import (
    HazardModel,
    spread_linear_coefficient,
    spread_variance_coefficient,
    strike_time_estimates,
)
from .qp import QpError, QpProblem, solve_qp_path

# Reported plan values below this are solver dust and are clamped to zero.
VALUE_CLAMP = 1e-9


class LifecycleInfeasibleError(ValueError):
    """No admissible plan satisfies the consumption floor."""


class LifecycleBranchError(RuntimeError):
    """A branch QP failed; the message names the branch."""


@dataclass(frozen=True)
class LifecycleConfig:
    """Horizon, rates, incomes, house terms and the hazard model.

    All monetary quantities are in units of 1,000 currency.  Defaults are
    the reference configuration: a 30-year horizon, 3% utility discounting,
    6.5%/2.5% borrow/save rates, income 200 dropping to 10 at the strike,
    a 10-per-year consumption floor, 500 initial savings, risk aversion 3,
    and a 1800 + 10x150 house worth 3500 in utility terms.
    """

    years_M: int = 30
    r: float = 0.03
    r_borrow: float = 0.065
    r_save: float = 0.025
    income_high: float = 200.0
    income_low: float = 10.0
    d_floor: float = 10.0
    initial_saving: float = 500.0
    risk_aversion_B: float = 3.0
    house_initial: float = 1800.0
    house_annual: float = 150.0
    house_years: int = 10
    house_growth: float = 0.0
    house_utility: float = 3500.0
    hazard: HazardModel | None = None

    def __post_init__(self):
        for name in ("years_M", "house_years"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if int(self.years_M) != self.years_M or self.years_M < 2:
            raise ValueError("years_M must be an integer >= 2")
        object.__setattr__(self, "years_M", int(self.years_M))
        if int(self.house_years) != self.house_years or self.house_years < 0:
            raise ValueError("house_years must be a nonnegative integer")
        object.__setattr__(self, "house_years", int(self.house_years))
        if self.house_years >= self.years_M:
            raise ValueError("house_years must be smaller than years_M")
        for name in ("r", "r_borrow", "r_save", "income_high", "income_low",
                     "d_floor", "initial_saving", "risk_aversion_B",
                     "house_initial", "house_annual", "house_growth",
                     "house_utility"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.risk_aversion_B < 0:
            raise ValueError(f"risk_aversion_B must be nonnegative, got "
                             f"{self.risk_aversion_B!r} (0 is risk-neutral)")
        if self.r_borrow < self.r_save:
            raise ValueError("r_borrow must be >= r_save (no riskless arbitrage)")
        if self.d_floor > self.income_low + self.initial_saving:
            raise ValueError(
                "d_floor exceeds income_low + initial_saving; "
                "post-strike years cannot reach the consumption floor"
            )
        if self.hazard is None:
            object.__setattr__(
                self, "hazard",
                HazardModel(h=0.06, r=self.r, L=30.0, s=0.5,
                            horizon_M=self.years_M),
            )
        else:
            if self.hazard.horizon_M != self.years_M:
                raise ValueError("hazard.horizon_M must equal years_M")
            if abs(self.hazard.r - self.r) > 1e-12:
                raise ValueError("hazard.r must equal the utility discount rate r")


@dataclass(frozen=True)
class RiskyAssetSummary:
    """The chosen fund collapsed to one annualized (mean, variance) pair."""

    r_stock: float
    var_stock: float

    def __post_init__(self):
        for name in ("r_stock", "var_stock"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.var_stock < 0:
            raise ValueError("var_stock must be nonnegative")


@dataclass(frozen=True)
class DecisionVector:
    """A length-(4M+1) plan split into its named blocks."""

    stock: np.ndarray
    borrow: np.ndarray
    save: np.ndarray
    house: np.ndarray
    insurance: float

    def __post_init__(self):
        arrays = {}
        m = None
        for name in ("stock", "borrow", "save", "house"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if m is None:
                m = a.shape[0]
            elif a.shape[0] != m:
                raise ValueError("all blocks must have the same length M")
            arrays[name] = a
        if m is None or m < 1:
            raise ValueError("blocks must be nonempty")
        for name in ("stock", "borrow", "save"):
            if float(arrays[name].min()) < -VALUE_CLAMP:
                raise ValueError(f"{name} amounts must be nonnegative")
        house = arrays["house"]
        if np.abs(house - np.round(house)).max() > 1e-6:
            raise ValueError("house indicators must be binary")
        if float(house.sum()) > 1.0 + 1e-6:
            raise ValueError("at most one house purchase is allowed")
        if self.insurance < -VALUE_CLAMP:
            raise ValueError("insurance quantity must be nonnegative")
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "insurance", float(self.insurance))

    @property
    def years_M(self) -> int:
        return self.stock.shape[0]

    @classmethod
    def from_vector(cls, x: np.ndarray, years_M: int) -> "DecisionVector":
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != 4 * years_M + 1:
            raise ValueError(
                f"decision vector must have length {4 * years_M + 1}, "
                f"got {x.shape[0]}"
            )
        m = years_M
        return cls(stock=x[0:m], borrow=x[m:2 * m], save=x[2 * m:3 * m],
                   house=x[3 * m:4 * m], insurance=float(x[4 * m]))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.stock, self.borrow, self.save,
                               self.house, [self.insurance]])

    def house_year(self) -> int | None:
        """1-based purchase year, or None when no house is bought."""
        bought = np.flatnonzero(np.round(self.house) == 1)
        return int(bought[0]) + 1 if bought.size else None


@dataclass(frozen=True)
class LifecyclePlan:
    """An optimal plan with its implied consumption path.

    branch_objectives lists every admissible branch in label order ("none",
    then the house years) with its utility, or None where the branch was
    pruned: its utility bound lay below the winner's, so it was not solved.
    No branch is infeasible, since borrowing is unbounded.
    """

    decision: DecisionVector
    house_year: int | None
    objective: float
    consumption: np.ndarray
    feasibility_report: float
    branch_objectives: tuple[tuple[str, float | None], ...] = field(default=())

    def __post_init__(self):
        consumption = np.asarray(self.consumption, dtype=float)
        consumption.setflags(write=False)
        object.__setattr__(self, "consumption", consumption)
        object.__setattr__(self, "branch_objectives",
                           tuple(self.branch_objectives))


def house_payment_matrix(config: LifecycleConfig) -> np.ndarray:
    """M x M matrix whose column i is the payment stream of buying in year i.

    Buying in (1-based) year i costs house_initial * exp(i * house_growth)
    immediately and house_annual in each of the following house_years
    years, clipped to the horizon.
    """
    m = config.years_M
    payments = np.zeros((m, m))
    for i in range(1, m + 1):
        payments[i - 1, i - 1] = config.house_initial * math.exp(
            i * config.house_growth)
        stop = min(i + config.house_years, m)
        payments[i:stop, i - 1] = config.house_annual
    return payments


def _discounts(config: LifecycleConfig) -> np.ndarray:
    """exp(-i*r) for years i = 1..M."""
    return np.exp(-config.r * np.arange(1, config.years_M + 1))


def assemble_linear_coefficients(config: LifecycleConfig,
                                 asset: RiskyAssetSummary,
                                 v_discount: float | None = None) -> np.ndarray:
    """Linear part c of the maximization objective c'x + 0.5 x'Qx.

    Each flow contributes the discounted utility of the consumption it
    displaces this year and returns next year; final-year flows only cost
    (nothing matures inside the horizon), so their coefficients are all
    -exp(-M*r).  House columns combine the discounted payment stream with
    the discounted house utility; the insurance coefficient is the per-unit
    spread value from the hazard model.
    """
    m = config.years_M
    d = _discounts(config)
    c = np.zeros(4 * m + 1)
    c[0:m - 1] = -d[:-1] + d[1:] * (1.0 + asset.r_stock)
    c[m - 1] = -d[-1]
    c[m:2 * m - 1] = d[:-1] - d[1:] * (1.0 + config.r_borrow)
    c[2 * m - 1] = -d[-1]
    c[2 * m:3 * m - 1] = -d[:-1] + d[1:] * (1.0 + config.r_save)
    c[3 * m - 1] = -d[-1]
    payments = house_payment_matrix(config)
    c[3 * m:4 * m] = -(d @ payments) + d * config.house_utility
    c[4 * m] = spread_linear_coefficient(config.hazard, v_discount)
    return c


def assemble_quadratic(config: LifecycleConfig,
                       asset: RiskyAssetSummary) -> np.ndarray:
    """Quadratic part Q (negative semidefinite) of c'x + 0.5 x'Qx.

    Block diagonal: var_stock for each stock year, zeros for borrow, save
    and house, the spread variance sum for insurance -- all scaled by
    -2 * risk_aversion_B so that 0.5 x'Qx = -B * (decision variance).
    """
    m = config.years_M
    diag = np.zeros(4 * m + 1)
    diag[0:m] = asset.var_stock
    diag[4 * m] = spread_variance_coefficient(config.hazard)
    return np.diag(-2.0 * config.risk_aversion_B * diag)


def assemble_constraints(config: LifecycleConfig, asset: RiskyAssetSummary,
                         kstart: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraint system (a, b) with a @ x >= b.

    Rows 1..M encode the consumption floors D_k >= d_floor through the
    cash-flow recursions (buying reduces this year's consumption, maturing
    positions raise next year's); the final row is the house cap
    sum(beta) <= 1.  kstart is the income-drop year: rows k >= kstart use
    the low income and stop charging the insurance spread.
    """
    if not 1 <= kstart <= config.years_M + 1:
        raise ValueError("kstart must lie in 1..years_M+1")
    m = config.years_M
    a = np.zeros((m + 1, 4 * m + 1))
    sub = np.arange(1, m)
    a[0:m, 0:m][np.diag_indices(m)] = -1.0
    a[sub, sub - 1] = 1.0 + asset.r_stock
    a[0:m, m:2 * m][np.diag_indices(m)] = 1.0
    a[sub, m + sub - 1] = -(1.0 + config.r_borrow)
    a[0:m, 2 * m:3 * m][np.diag_indices(m)] = -1.0
    a[sub, 2 * m + sub - 1] = 1.0 + config.r_save
    a[0:m, 3 * m:4 * m] = -house_payment_matrix(config)
    a[0:kstart - 1, 4 * m] = -config.hazard.s
    a[m, 3 * m:4 * m] = -1.0

    b = np.full(m + 1, config.d_floor - config.income_high)
    b[kstart - 1:m] = config.d_floor - config.income_low
    b[0] -= config.initial_saving
    b[m] = -1.0
    return a, b


def implied_consumption(decision: DecisionVector, config: LifecycleConfig,
                        asset: RiskyAssetSummary, kstart: int) -> np.ndarray:
    """Recompute each year's consumption D_k from the budget identity.

    D_k = income_k (+ initial saving in year 1)
          - new stock/save outflows + new borrowing
          + matured stock/save inflows - borrowing repayment (from year 2)
          - house payments - insurance spread while employed (k < kstart).

    Written as an explicit year-by-year transcription, independent of the
    constraint assembly, so the two can cross-check each other.
    """
    m = config.years_M
    payments = house_payment_matrix(config)
    consumption = np.zeros(m)
    for k in range(1, m + 1):
        i = k - 1
        d_k = config.income_high if k < kstart else config.income_low
        if k == 1:
            d_k += config.initial_saving
        d_k -= decision.stock[i] + decision.save[i] - decision.borrow[i]
        d_k -= float(payments[i] @ decision.house)
        if k < kstart:
            d_k -= config.hazard.s * decision.insurance
        if k >= 2:
            d_k += (1.0 + asset.r_stock) * decision.stock[i - 1]
            d_k += (1.0 + config.r_save) * decision.save[i - 1]
            d_k -= (1.0 + config.r_borrow) * decision.borrow[i - 1]
        consumption[i] = d_k
    return consumption


def _branch_label(year: int | None) -> str:
    return "none" if year is None else f"house-year-{year}"


def solve_lifecycle(config: LifecycleConfig, asset: RiskyAssetSummary,
                    seed: int = 0, *, paper_faithful_v: bool = False,
                    mc_kstart: bool = False,
                    mc_draws: int = 10000) -> LifecyclePlan:
    """Solve the lifetime plan by branch and bound over the house-purchase year.

    The default pipeline is fully deterministic: V is the analytic
    h/(h+r) and kstart the analytic ceil(1/h).  With paper_faithful_v or
    mc_kstart, the respective quantity is Monte-Carlo estimated from the
    seeded generator instead; with both, one strike-time stream serves both.

    Raises
    ------
    LifecycleInfeasibleError
        If the zero-decision baseline already breaks the consumption floor
        (income does not cover d_floor).  Unbounded borrowing then makes
        every house branch feasible.
    LifecycleBranchError
        If the path through the branches fails; the message names the
        branch whose point or leg failed.
    """
    hazard = config.hazard
    v_discount = None
    kstart = math.ceil(1.0 / hazard.h)
    if paper_faithful_v or mc_kstart:
        estimate, mc_year = strike_time_estimates(hazard, mc_draws, seed)
        if paper_faithful_v:
            v_discount = estimate.value
        if mc_kstart:
            kstart = mc_year
    kstart = max(1, min(kstart, config.years_M + 1))

    m = config.years_M
    zero = DecisionVector(stock=np.zeros(m), borrow=np.zeros(m),
                          save=np.zeros(m), house=np.zeros(m), insurance=0.0)
    baseline = implied_consumption(zero, config, asset, kstart)
    if float(baseline.min()) < config.d_floor - 1e-9:
        year = int(np.argmin(baseline)) + 1
        raise LifecycleInfeasibleError(
            f"baseline (all-zero) plan breaks the consumption floor in year "
            f"{year}: income {baseline[year - 1]:.6g} < d_floor {config.d_floor:.6g}"
        )

    c = assemble_linear_coefficients(config, asset, v_discount)
    q = assemble_quadratic(config, asset)
    a, b = assemble_constraints(config, asset, kstart)

    candidates: list[int | None] = [None]
    candidates.extend(range(1, m - config.house_years + 1))

    # Stock, borrow, save and insurance; the cap row m is dropped.
    rest = np.r_[0:3 * m, 4 * m]
    q_rest, c_rest, a_rest = q[np.ix_(rest, rest)], c[rest], a[:m, rest]

    def house_of(year: int | None) -> np.ndarray:
        house = np.zeros(m)
        if year is not None:
            house[year - 1] = 1.0
        return house

    # The chain runs "none", then the house years from the last to the
    # first, which passes fewer breakpoints than the first to the last.
    chain = [None, *candidates[:0:-1]]
    b_chain = np.array([b[:m] - a[:m, 3 * m:4 * m] @ house_of(year) for year in chain])
    # Each solved branch i caps the utility of every branch k at
    # h_k - f_i - mu_i'(b_k - b_i), f_i its min-form objective and mu_i its
    # multipliers.  The chain stops once every unsolved branch's cap lies a
    # KKT-sized margin below the best utility, so a pruned branch can
    # neither win nor tie.
    utility = np.array([c[3 * m:4 * m] @ house_of(year) for year in chain])
    cap = np.full(len(chain), np.inf)
    sols = []

    def settled(point) -> bool:
        """Record the next branch's optimum; True once no other can win."""
        sols.append(point)
        solved = len(sols)
        np.minimum(cap, utility - point.objective
                   - (b_chain - b_chain[solved - 1]) @ point.in_multipliers, out=cap)
        best = float(np.max(utility[:solved] - [done.objective for done in sols]))
        return bool(np.all(cap[solved:] < best - 1e-6 * (1.0 + abs(best))))

    # The start is lambda * x_box: x_box maximizes the no-house utility over
    # the bounds alone, 0 where a column has no curvature, and lambda is the
    # largest value in [0, 1] at which the no-house rows still hold.  The zero
    # plan meets them (checked above, within 1e-9, hence the clamp at 0), so
    # every such point is feasible, whatever Q is.
    curvature = -np.diag(q_rest)
    x_box = np.divide(np.maximum(c_rest, 0.0), curvature,
                      out=np.zeros(3 * m + 1), where=curvature > 0.0)
    rise = a_rest @ x_box
    falls = rise < 0.0
    lam = max(float(np.min(b_chain[0][falls] / rise[falls], initial=1.0)), 0.0)

    # Maximize c'x + 0.5 x'qx as the minimization of its negation.  The
    # no-house branch is the path's point at tau = 0, and leg j moves b from
    # the branch before it to its own; house year 1 is always admissible
    # (house_years < years_M), so there is one.  The path runs only while
    # some house year can still win, and points come in chain order, so the
    # branch of a failed leg is the next one unsolved.
    problem = QpProblem(Q=-q_rest, c=-c_rest, a_in=a_rest, b_in=b_chain[0],
                        lb=np.zeros(3 * m + 1))
    try:
        solve_qp_path(problem, np.diff(b_chain, axis=0), np.arange(0.0, len(chain)),
                      start=lam * x_box, stop=settled)
    except QpError as exc:
        raise LifecycleBranchError(f"branch {_branch_label(chain[len(sols)])}: {exc}") from exc
    objectives = {year: float(utility[j] - branch.objective)
                  for j, (year, branch) in enumerate(zip(chain, sols))}

    # The first best branch in label order wins a tie; a pruned branch
    # reports None.
    best_year = max((year for year in candidates if year in objectives), key=objectives.get)
    best_x = np.insert(sols[chain.index(best_year)].x, 3 * m, house_of(best_year))
    x = np.where(best_x < VALUE_CLAMP, 0.0, best_x)
    decision = DecisionVector.from_vector(x, m)
    consumption = implied_consumption(decision, config, asset, kstart)
    objective = float(c @ x + 0.5 * x @ q @ x)
    violation = float(np.maximum(b - a @ x, 0.0).max())
    if float(consumption.min()) < config.d_floor - 1e-6:
        raise LifecycleBranchError(
            f"branch {_branch_label(best_year)}: returned plan breaks the "
            f"consumption floor by {config.d_floor - consumption.min():.3e}"
        )
    return LifecyclePlan(
        decision=decision,
        house_year=best_year,
        objective=objective,
        consumption=consumption,
        feasibility_report=violation,
        branch_objectives=tuple((_branch_label(year), objectives.get(year))
                                for year in candidates),
    )

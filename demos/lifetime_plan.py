"""Solve a 30-year plan over stock, borrowing, saving, a house and insurance.

The planner maximizes mean minus B times variance of discounted lifetime
wealth plus the utility of home ownership, subject to a consumption floor
each year and a single 0/1 house-purchase decision.  The binary is handled
by branch and bound over the admissible purchase years (plus never buying):
each branch is a convex quadratic program, and a branch whose utility bound
falls below the best solved branch is pruned, not solved.
"""

from __future__ import annotations

from longplan import (
    LifecycleConfig,
    RiskyAssetSummary,
    estimate_stats,
    load_returns,
    max_sharpe_long_only,
    solve_lifecycle,
)
from longplan.report import SAMPLE_RETURNS

config = LifecycleConfig()          # reference configuration, M = 30 years
stats = estimate_stats(load_returns(SAMPLE_RETURNS, periods_per_year=12))
fund = max_sharpe_long_only(stats, r_f=0.025)
asset = RiskyAssetSummary(r_stock=fund.mean, var_stock=fund.variance)
print(f"risky fund: mean {asset.r_stock:.4f}, variance {asset.var_stock:.4f}")

plan = solve_lifecycle(config, asset, seed=0)

print(f"\nobjective value        : {plan.objective:.4f}")
print(f"house bought in year   : {plan.house_year}")
print(f"insurance units held   : {plan.decision.insurance:.4f}")
print(f"worst constraint slack : {plan.feasibility_report:.2e}")

print("\nbranch objectives (house-purchase year -> value):")
for label, value in plan.branch_objectives:
    shown = f"{'pruned':>10}" if value is None else f"{value:10.4f}"
    print(f"  {label:14s} {shown}")

print("\n year     stock    borrow       save   consumption")
d = plan.decision
for i in range(config.years_M):
    print(f"  {i + 1:3d} {d.stock[i]:9.3f} {d.borrow[i]:9.3f} "
          f"{d.save[i]:10.3f} {plan.consumption[i]:13.3f}")

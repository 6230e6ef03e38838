"""Long-only portfolio selection and lifetime investment planning.

The package has three layers:

* closed-form mean-variance analysis and a long-only (no short sale)
  counterpart built on an internal convex quadratic-programming solver
  (:mod:`~longplan.market`, :mod:`~longplan.closed_form`,
  :mod:`~longplan.qp`, :mod:`~longplan.long_only`);
* Monte-Carlo valuation of an insurance contract whose strike time has an
  exponential hazard (:mod:`~longplan.insurance`);
* a multi-year plan over stock, borrowing, saving, a house purchase and
  the insurance position, solved by enumerating the house-purchase year
  (:mod:`~longplan.lifecycle`).

:mod:`~longplan.report` and :mod:`~longplan.cli` wire the layers into a
file-producing pipeline.
"""

from __future__ import annotations

from .closed_form import (
    CONDITION_LIMIT,
    DegenerateFrontierError,
    FrontierConstants,
    PortfolioWeights,
    SingularCovarianceError,
    TangencyUndefinedError,
    frontier_constants,
    tangency_expected_return,
    tangency_portfolio,
    unconstrained_frontier_variance,
)
from .insurance import (
    HazardModel,
    McEstimate,
    analytic_discount_factor,
    estimate_discount_factor,
    expected_strike_year,
    spread_linear_coefficient,
    spread_variance_coefficient,
    strike_time_from_latent,
    survival_prob,
)
from .lifecycle import (
    DecisionVector,
    LifecycleBranchError,
    LifecycleConfig,
    LifecycleInfeasibleError,
    LifecyclePlan,
    RiskyAssetSummary,
    implied_consumption,
    solve_lifecycle,
)
from .long_only import (
    ConstrainedFrontier,
    DegenerateSupportError,
    FrontierPoint,
    InfeasibleTargetError,
    NoExcessReturnError,
    long_only_gmv,
    max_sharpe_long_only,
    min_variance_at_return,
    trace_frontier,
)
from .market import (
    AssetStats,
    ReturnMatrix,
    ReturnsFormatError,
    estimate_stats,
    load_returns,
)
from .qp import (
    QpError,
    QpInputError,
    QpIterationLimitError,
    QpProblem,
    QpSolution,
    kkt_report,
    solve_qp,
)
from .report import RunConfig, parse_config, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "AssetStats",
    "CONDITION_LIMIT",
    "ConstrainedFrontier",
    "DecisionVector",
    "DegenerateFrontierError",
    "DegenerateSupportError",
    "FrontierConstants",
    "FrontierPoint",
    "HazardModel",
    "InfeasibleTargetError",
    "LifecycleBranchError",
    "LifecycleConfig",
    "LifecycleInfeasibleError",
    "LifecyclePlan",
    "McEstimate",
    "NoExcessReturnError",
    "PortfolioWeights",
    "QpError",
    "QpInputError",
    "QpIterationLimitError",
    "QpProblem",
    "QpSolution",
    "ReturnMatrix",
    "ReturnsFormatError",
    "RiskyAssetSummary",
    "RunConfig",
    "SingularCovarianceError",
    "TangencyUndefinedError",
    "analytic_discount_factor",
    "estimate_discount_factor",
    "estimate_stats",
    "expected_strike_year",
    "frontier_constants",
    "implied_consumption",
    "kkt_report",
    "load_returns",
    "long_only_gmv",
    "max_sharpe_long_only",
    "min_variance_at_return",
    "parse_config",
    "run_pipeline",
    "solve_lifecycle",
    "solve_qp",
    "spread_linear_coefficient",
    "spread_variance_coefficient",
    "strike_time_from_latent",
    "survival_prob",
    "tangency_expected_return",
    "tangency_portfolio",
    "trace_frontier",
    "unconstrained_frontier_variance",
]

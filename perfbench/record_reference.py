"""Record the cli_all reference values into reference.json.

usage: PYTHONPATH=src python3 perfbench/record_reference.py

Runs the default pipeline (``longplan all`` on the sample data) in-process
and stores what the cli_all checks compare against: the fund weights and
frontier rows as written, the fund's annualized moments and the plan's
house year and objective.  Rerun it only on purpose, when a change is meant
to move these values.
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import longplan as lp

from workloads import REFERENCE, read_frontier, read_fund_weights


def main() -> int:
    config = lp.RunConfig()
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as out:
        lp.run_pipeline(replace(config, output_dir=out))
        fund_weights = read_fund_weights(Path(out) / "fund_weights.csv")
        frontier = read_frontier(Path(out) / "frontier.csv")
    stats = lp.estimate_stats(lp.load_returns(config.returns_path,
                                              config.periods_per_year))
    fund = lp.max_sharpe_long_only(stats, config.r_f)
    asset = lp.RiskyAssetSummary(r_stock=fund.mean, var_stock=fund.variance)
    plan = lp.solve_lifecycle(config.lifecycle, asset, seed=config.mc_seed)
    reference = {
        "fund_weights": fund_weights,
        "frontier": frontier,
        "fund_mean": fund.mean,
        "fund_variance": fund.variance,
        "plan_house_year": plan.house_year,
        "plan_objective": plan.objective,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests for the benchmark: its checks catch bad outputs, and traced
runs repeat their solver counts.

usage: python3 -m pytest -q perfbench/test_perfbench.py   (from the repo root)

These are not part of the library's test suite: they take about a minute
and they test the benchmark, not longplan.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import longplan as lp  # noqa: E402
import workloads  # noqa: E402
from worker import PROBE_REF_S, Tally, run_op  # noqa: E402


class Fixed:
    """A workload whose only operation returns a given output."""

    def __init__(self, output, check):
        self.output, self.check_fn = output, check

    def op(self, i):
        return self.output

    def check(self, i, output):
        return self.check_fn(output)


def error_rate(output, check) -> float:
    tally = Tally()
    run_op(Fixed(output, check), 1, tally)
    return tally.failed / tally.attempted


# -- lifecycle_sweep ----------------------------------------------------------

@pytest.fixture(scope="module")
def small_plan():
    config = lp.LifecycleConfig(years_M=8, house_years=3)
    scenario = workloads.Scenario(
        config=config, asset=lp.RiskyAssetSummary(r_stock=0.09, var_stock=0.02),
        seed=3, paper_faithful_v=True, mc_kstart=True)
    plan = lp.solve_lifecycle(config, scenario.asset, seed=scenario.seed,
                              paper_faithful_v=True, mc_kstart=True)
    return scenario, plan


def test_good_plan_passes(small_plan):
    scenario, plan = small_plan
    assert workloads.check_plan(scenario, plan) == []


@pytest.mark.parametrize("corrupt, message", [
    # Consumption: buy far more stock in year 1 than income allows.
    (lambda p: replace(p, decision=replace(
        p.decision, stock=p.decision.stock + np.eye(len(p.decision.stock))[0] * 1e4)),
     "below d_floor"),
    # Winner: another branch claims a better objective.
    (lambda p: replace(p, branch_objectives=p.branch_objectives
                       + (("house-year-99", p.objective + 1.0),)),
     "not the best branch"),
    # Objective: the reported value drifts from the decision's.
    (lambda p: replace(p, objective=p.objective * (1 + 1e-6)),
     "recomputed objective"),
])
def test_bad_plan_counts_as_error(small_plan, corrupt, message):
    scenario, plan = small_plan
    bad = corrupt(plan)
    assert any(message in f for f in workloads.check_plan(scenario, bad))
    assert error_rate(bad, lambda out: workloads.check_plan(scenario, out)) == 1.0


# -- frontier_sweep -----------------------------------------------------------

@pytest.fixture(scope="module")
def frontier_case(tmp_path_factory):
    import random

    data, r_f = workloads.frontier_instance(random.Random(0), 6, tied=True)
    path = tmp_path_factory.mktemp("frontier") / "returns.csv"
    workloads.write_returns_csv(path, data)
    stats = lp.estimate_stats(lp.load_returns(path, 12))
    assert np.sort(stats.mu)[-1] == np.sort(stats.mu)[-2]   # tied maximum
    result = workloads.FrontierResult(
        stats, lp.frontier_constants(stats, r_f),
        lp.max_sharpe_long_only(stats, r_f), lp.trace_frontier(stats, 30))
    return r_f, result


def _points(result, edit):
    points = [SimpleNamespace(mu_target=p.mu_target, variance=p.variance,
                              weights=np.array(p.weights))
              for p in result.frontier.points]
    edit(points)
    return replace(result, frontier=SimpleNamespace(points=points))


def _lower_to_unconstrained(points, result_constants):
    p = points[len(points) // 2]
    p.variance = lp.unconstrained_frontier_variance(
        result_constants, p.mu_target) - 1e-6


def test_good_frontier_passes(frontier_case):
    r_f, result = frontier_case
    assert workloads.check_frontier(r_f, result) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: replace(r, fund=replace(r.fund, weights=r.fund.weights * 1.01)),
     "simplex"),
    (lambda r: _points(r, lambda ps: setattr(ps[-1], "variance",
                                             ps[-2].variance * 0.99)),
     "decreases"),
    (lambda r: _points(r, lambda ps: _lower_to_unconstrained(ps, r.constants)),
     "unconstrained"),
    (lambda r: replace(r, fund=replace(r.fund, sharpe=r.fund.sharpe - 0.05)),
     "Sharpe"),
])
def test_bad_frontier_counts_as_error(frontier_case, corrupt, message):
    r_f, result = frontier_case
    bad = corrupt(result)
    assert any(message in f for f in workloads.check_frontier(r_f, bad))
    assert error_rate(bad, lambda out: workloads.check_frontier(r_f, out)) == 1.0


# -- cli_all ------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "good"
    config = replace(lp.RunConfig(), output_dir=str(out), emit_svg=True,
                     mc_seed=11)
    lp.run_pipeline(config)
    return out


def _edit(path: Path, old: str, new: str):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _cli_case(cli_output, tmp_path, corrupt):
    out = tmp_path / "case"
    shutil.copytree(cli_output, out)
    result = workloads.CliResult(0, out, "", 11)
    return corrupt(result) or result


def _plan_with_more_saving(r):
    lines = (r.out_dir / "plan.csv").read_text(encoding="utf-8").splitlines()
    row = lines[4].split(",")
    row[3] = repr(float(row[3]) + 1.0)     # save one more unit in year 1
    lines[4] = ",".join(row)
    (r.out_dir / "plan.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: None, None),
    (lambda r: replace(r, returncode=1, stderr="boom"), "exit status 1"),
    (lambda r: (r.out_dir / "frontier.svg").unlink(), "missing artifacts"),
    (lambda r: _edit(r.out_dir / "fund_weights.csv", "0.67930", "0.67931"),
     "fund_weights.csv"),
    (lambda r: _edit(r.out_dir / "frontier.csv", "0.009848741817",
                     "0.009848751817"), "frontier.csv"),
    (lambda r: _edit(r.out_dir / "insurance.txt", "n_draws = 10000",
                     "n_draws = 9999"), "insurance.txt"),
    (lambda r: _edit(r.out_dir / "plan.csv", "house_year=6", "house_year=7"),
     "house year"),
    (_plan_with_more_saving, "plan objective"),
])
def test_cli_checks(cli_output, tmp_path, corrupt, message):
    cli = workloads.CliAll(0, tmp_path)
    result = _cli_case(cli_output, tmp_path, corrupt)
    failures = cli.check(1, result)
    if message is None:
        assert failures == []
    else:
        assert any(message in f for f in failures), failures
        again = _cli_case(cli_output, tmp_path / "again", corrupt)
        assert error_rate(again, lambda out: cli.check(1, out)) == 1.0


# -- whole runs ---------------------------------------------------------------

def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, seconds, counter", [
    ("frontier_sweep", "4", "qp.long_only.iterations"),
    ("lifecycle_sweep", "3", "qp.lifecycle.iterations"),
])
def test_traced_runs_repeat_iteration_counts(workload, seconds, counter):
    runs = [_run("--workload", workload, "--seed", "5", "--seconds", seconds,
                 "--trace", "1") for _ in range(2)]
    results = [json.loads(r.stdout.strip().splitlines()[-1]) for r in runs]
    counts = [r["metrics"][counter]["value"] for r in results]
    assert all(r["correct"] for r in results)
    assert counts[0] > 0 and counts[0] == counts[1]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = _run("--workload", "frontier_sweep", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


def test_norm_ops_per_s_scales_raw_throughput():
    run = _run("--workload", "frontier_sweep", "--seed", "2", "--seconds", "2",
               "--trace", "0")
    assert run.returncode == 0, run.stderr
    record_path = run.stdout.strip().splitlines()[-2].split("record: ")[1]
    record = json.loads((ROOT / record_path).read_text(encoding="utf-8"))
    probes, named = record["probes"], record["named"]
    assert probes and all(p > 0 for p in probes)
    assert named["probe_s.mean"]["value"] == pytest.approx(
        sum(probes) / len(probes))
    assert record["metrics"]["norm_ops_per_s"]["value"] == pytest.approx(
        named["ops_per_s"]["value"] * named["probe_s.mean"]["value"]
        / PROBE_REF_S)

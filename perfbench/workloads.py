"""The benchmark's three workloads: seeded inputs, one operation, its checks.

Each workload builds its inputs from the seed in ``__init__`` (part of
set-up), runs one operation per ``op(i)`` call (the timed part) and checks
that operation's output in ``check(i, output)``, which returns the failed
checks as strings.  Inputs are drawn in blocks of ``BLOCK`` with the
parameter that drives the cost most stratified inside each block, so that
runs with different seeds do comparable work.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import longplan as lp
from longplan import insurance, lifecycle

from tracer import import_times

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BLOCK = 8
# What the ``longplan`` console script runs (pyproject: longplan.cli:main).
CLI_ENTRY = "import sys; from longplan.cli import main; sys.exit(main())"
ARTIFACTS = ("fund_weights.csv", "frontier.csv", "insurance.txt", "plan.csv",
             "frontier.svg")
VALUE_TOL = 1e-9        # absolute, on values written with 10 significant digits
OBJECTIVE_RTOL = 1e-9   # relative, on lifecycle objectives
FLOOR_TOL = 1e-6        # the consumption-floor slack solve_lifecycle allows
MC_DRAWS = 10000        # Monte-Carlo draws for the scenarios that use them


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws from U[lo, hi), one from each of n equal strata, shuffled."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in strata]


def _pick(pool: list, i: int):
    """Input of operation i: pool[0] is the warm-up, 1.. cycle through the rest."""
    return pool[0] if i == 0 else pool[1 + (i - 1) % (len(pool) - 1)]


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def plan_objective(config, asset, x, v_discount=None) -> float:
    """c'x + 0.5 x'Qx from the lifecycle assembly, for a decision vector x."""
    c = lifecycle.assemble_linear_coefficients(config, asset, v_discount)
    q = lifecycle.assemble_quadratic(config, asset)
    return float(c @ x + 0.5 * x @ q @ x)


# ---------------------------------------------------------------------------
# cli_all
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    returncode: int
    out_dir: Path
    stderr: str
    mc_seed: int


def read_fund_weights(path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return {asset: float(weight) for asset, weight in rows}


def read_frontier(path) -> list[list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def read_plan(path):
    """(house_year, x, consumption) from plan.csv, x laid out as the solver's."""
    house_year, insurance_units, rows = None, 0.0, []
    with open(path, newline="", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# house_year="):
                value = line.split("=", 1)[1].strip()
                house_year = None if value == "none" else int(value)
            elif line.startswith("# insurance_units="):
                insurance_units = float(line.split("=", 1)[1])
            elif line[:1].isdigit():
                rows.append([float(v) for v in line.split(",")])
    _, stock, borrow, save, consumption = zip(*rows)
    house = [0.0] * len(rows)
    if house_year is not None:
        house[house_year - 1] = 1.0
    return (house_year, [*stock, *borrow, *save, *house, insurance_units],
            list(consumption))


class CliAll:
    """Cold ``longplan all --emit-svg`` on the sample data, one process each."""

    name = "cli_all"
    in_process = False
    nominal_ops_per_s = 0.2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.import_s: list[dict[str, float]] = []
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.run_config = lp.RunConfig()
        self.asset = lp.RiskyAssetSummary(
            r_stock=self.reference["fund_mean"],
            var_stock=self.reference["fund_variance"])

    def mc_seed(self, i: int) -> int:
        return random.Random(f"cli_all-{self.seed}-{i}").randrange(1 << 31)

    def op(self, i: int) -> CliResult:
        out_dir = self.workdir / f"invocation-{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        mc_seed = self.mc_seed(i)
        argv = ["all", "--out", str(out_dir), "--emit-svg", "--seed", str(mc_seed)]
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=150)
            return CliResult(proc.returncode, out_dir, proc.stderr, mc_seed)
        spans_path = self.workdir / f"invocation-{i}.spans.json"
        cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_traced.py"),
               str(spans_path), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        end = time.perf_counter()
        parent = self.tracer.add_span("cli.invocation", start, end)
        if spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh)["spans"], parent)
            spans_path.unlink()
        self.import_s.append(import_times(proc.stderr))
        return CliResult(proc.returncode, out_dir, proc.stderr, mc_seed)

    def check(self, i: int, result: CliResult) -> list[str]:
        try:
            return self._check(result)
        finally:
            shutil.rmtree(result.out_dir, ignore_errors=True)

    def _check(self, result: CliResult) -> list[str]:
        if result.returncode != 0:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit status {result.returncode}: {tail[0]}"]
        missing = [a for a in ARTIFACTS if not (result.out_dir / a).is_file()]
        if missing:
            return [f"missing artifacts: {', '.join(missing)}"]
        ref = self.reference
        failures = []
        fund = read_fund_weights(result.out_dir / "fund_weights.csv")
        if (fund.keys() != ref["fund_weights"].keys()
                or any(abs(fund[k] - v) > VALUE_TOL
                       for k, v in ref["fund_weights"].items())):
            failures.append("fund_weights.csv differs from the reference")
        frontier = read_frontier(result.out_dir / "frontier.csv")
        if (len(frontier) != len(ref["frontier"])
                or any(len(row) != len(want) or
                       any(abs(a - b) > VALUE_TOL for a, b in zip(row, want))
                       for row, want in zip(frontier, ref["frontier"]))):
            failures.append("frontier.csv differs from the reference")
        failures += self._check_insurance(result)
        failures += self._check_plan(result.out_dir / "plan.csv")
        return failures

    def _check_insurance(self, result: CliResult) -> list[str]:
        fields = {}
        with open(result.out_dir / "insurance.txt", encoding="utf-8") as fh:
            for line in fh:
                key, sep, value = line.partition(" = ")
                if sep:
                    fields[key] = value.strip()
        run = self.run_config
        want = insurance.estimate_discount_factor(
            run.lifecycle.hazard, run.mc_draws, result.mc_seed)
        try:
            ok = (abs(float(fields["estimate"]) - want.value) <= VALUE_TOL
                  and int(fields["n_draws"]) == run.mc_draws
                  and int(fields["seed"]) == result.mc_seed)
        except (KeyError, ValueError):
            ok = False
        return [] if ok else ["insurance.txt does not match the seeded estimate"]

    def _check_plan(self, path) -> list[str]:
        ref = self.reference
        house_year, x, consumption = read_plan(path)
        failures = []
        if house_year != ref["plan_house_year"]:
            failures.append(f"plan house year {house_year} != "
                            f"{ref['plan_house_year']}")
        config = self.run_config.lifecycle
        if len(x) != 4 * config.years_M + 1:
            return failures + [f"plan.csv has {len(consumption)} years"]
        objective = plan_objective(config, self.asset, np.array(x))
        if not _rel_close(objective, ref["plan_objective"], OBJECTIVE_RTOL):
            failures.append(f"plan objective {objective!r} != "
                            f"{ref['plan_objective']!r}")
        if min(consumption) < config.d_floor - FLOOR_TOL:
            failures.append("plan consumption below d_floor")
        return failures


# ---------------------------------------------------------------------------
# lifecycle_sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    config: lp.LifecycleConfig
    asset: lp.RiskyAssetSummary
    seed: int
    paper_faithful_v: bool
    mc_kstart: bool

    def kstart(self) -> int:
        hazard = self.config.hazard
        if self.mc_kstart:
            k = insurance.expected_strike_year(hazard, MC_DRAWS, self.seed)
        else:
            k = math.ceil(1.0 / hazard.h)
        return max(1, min(k, self.config.years_M + 1))

    def v_discount(self):
        if not self.paper_faithful_v:
            return None
        return insurance.estimate_discount_factor(
            self.config.hazard, MC_DRAWS, self.seed).value


# Which Monte-Carlo switches each scenario of a block sets: a minority.
_MC_PATTERN = ((False, False), (True, False), (False, False), (False, True),
               (False, False), (False, False), (True, True), (False, False))


WARMUP_SCENARIO = Scenario(
    config=lp.LifecycleConfig(),
    asset=lp.RiskyAssetSummary(r_stock=0.08, var_stock=0.012),
    seed=0, paper_faithful_v=False, mc_kstart=False)


def lifecycle_scenarios(seed: int) -> list[Scenario]:
    """BLOCK seeded M=30 plans, Latin-hypercube sampled.

    Every continuous input is stratified, so the block spans the same
    ranges whatever the seed; the hazard h moves kstart, the house terms
    and the fund moments move the winning branch.
    """
    rng = random.Random(f"lifecycle_sweep-{seed}")
    draws = {name: _stratified(rng, lo, hi, BLOCK) for name, (lo, hi) in (
        ("h", (0.03, 0.2)), ("L", (10.0, 60.0)), ("s", (0.2, 1.0)),
        ("risk_aversion_B", (1.0, 6.0)),
        ("house_initial", (1200.0, 2400.0)),
        ("house_annual", (100.0, 200.0)),
        ("house_utility", (2000.0, 5000.0)),
        ("r_stock", (0.04, 0.15)), ("var_stock", (0.005, 0.05)))}
    pattern = list(_MC_PATTERN)
    rng.shuffle(pattern)
    scenarios = []
    for k, (faithful, mc_kstart) in enumerate(pattern):
        d = {name: values[k] for name, values in draws.items()}
        base = lp.LifecycleConfig(
            risk_aversion_B=d["risk_aversion_B"],
            house_initial=d["house_initial"],
            house_annual=d["house_annual"],
            house_utility=d["house_utility"])
        hazard = lp.HazardModel(h=d["h"], r=base.r, L=d["L"], s=d["s"],
                                horizon_M=base.years_M)
        scenarios.append(Scenario(
            config=replace(base, hazard=hazard),
            asset=lp.RiskyAssetSummary(r_stock=d["r_stock"],
                                       var_stock=d["var_stock"]),
            seed=rng.randrange(1 << 31),
            paper_faithful_v=faithful, mc_kstart=mc_kstart))
    return scenarios


def check_plan(scenario: Scenario, plan) -> list[str]:
    """Seed-independent checks on one lifecycle plan."""
    failures = []
    config, asset = scenario.config, scenario.asset
    consumption = lifecycle.implied_consumption(
        plan.decision, config, asset, scenario.kstart())
    if float(consumption.min()) < config.d_floor - FLOOR_TOL:
        failures.append(f"consumption {consumption.min():.9g} below d_floor")
    objectives = dict(plan.branch_objectives)
    feasible = [v for v in objectives.values() if v is not None]
    label = "none" if plan.house_year is None else f"house-year-{plan.house_year}"
    if not feasible or objectives.get(label) != max(feasible):
        failures.append(f"winner {label} is not the best branch")
    elif not _rel_close(plan.objective, max(feasible), OBJECTIVE_RTOL):
        failures.append("plan objective differs from the best branch's")
    recomputed = plan_objective(config, asset, plan.decision.to_vector(),
                                scenario.v_discount())
    if not np.isfinite(recomputed) or not _rel_close(
            recomputed, plan.objective, OBJECTIVE_RTOL):
        failures.append(f"recomputed objective {recomputed!r} != "
                        f"{plan.objective!r}")
    return failures


class LifecycleSweep:
    """In-process solve_lifecycle on seeded M=30 scenarios."""

    name = "lifecycle_sweep"
    in_process = True
    nominal_ops_per_s = 0.3

    def __init__(self, seed: int, workdir: Path):
        # The warm-up is the same for every seed.  The timed operations
        # cycle through one Latin-hypercube block, so every run solves
        # the same mix of scenario kinds.
        self.scenarios = [WARMUP_SCENARIO, *lifecycle_scenarios(seed)]

    def op(self, i: int):
        s = _pick(self.scenarios, i)
        return lp.solve_lifecycle(s.config, s.asset, seed=s.seed,
                                  paper_faithful_v=s.paper_faithful_v,
                                  mc_kstart=s.mc_kstart, mc_draws=MC_DRAWS)

    def check(self, i: int, plan) -> list[str]:
        return check_plan(_pick(self.scenarios, i), plan)


# ---------------------------------------------------------------------------
# frontier_sweep
# ---------------------------------------------------------------------------

PERIODS = 120
FRONTIER_POINTS = 30
FRONTIER_BLOCKS = 16   # blocks of BLOCK timed instances each seed writes
QUANTUM = 2.0 ** -20   # returns on this grid sum exactly, so ties stay exact


def frontier_instance(rng: random.Random, n: int, tied: bool):
    """T x N monthly returns from a 3-factor model, quantized to QUANTUM.

    With ``tied`` one asset gets a permutation of the best asset's returns:
    a different series with exactly the same sample mean.
    """
    gen = np.random.default_rng(rng.randrange(1 << 63))
    while True:
        loadings = gen.normal(1.0, 0.3, (n, 3))
        factors = gen.normal(0.0, 0.03, (PERIODS, 3))
        alpha = gen.uniform(0.003, 0.012, n)
        noise = gen.normal(0.0, 1.0, (PERIODS, n)) * gen.uniform(0.02, 0.06, n)
        data = np.round((alpha + factors @ loadings.T + noise) / QUANTUM) * QUANTUM
        if tied:
            best = int(np.argmax(data.mean(axis=0)))
            data[:, (best + 1) % n] = gen.permutation(data[:, best])
        r_f = rng.uniform(0.0, 0.03)
        if data.mean(axis=0).max() * 12 > r_f + 0.01:
            return data, r_f


def write_returns_csv(path: Path, data) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"A{j:02d}" for j in range(data.shape[1])])
        writer.writerows([map(repr, row) for row in data.tolist()])


@dataclass
class FrontierResult:
    stats: object
    constants: object
    fund: object
    frontier: object


def check_frontier(r_f: float, result: FrontierResult) -> list[str]:
    """Simplex weights, monotone variance, domination and fund optimality."""
    failures = []
    stats, fund, points = result.stats, result.fund, result.frontier.points
    weights = [fund.weights] + [p.weights for p in points]
    if any(float(w.min()) < 0.0 or abs(float(w.sum()) - 1.0) > 1e-9
           for w in weights):
        failures.append("weights off the simplex")
    variances = [p.variance for p in points]
    if any(b < a for a, b in zip(variances, variances[1:])):
        failures.append("frontier variance decreases")
    if any(p.variance < lp.unconstrained_frontier_variance(
            result.constants, p.mu_target) - 1e-9 for p in points):
        failures.append("constrained variance below the unconstrained frontier")
    for p in points:
        var = float(p.weights @ stats.sigma @ p.weights)
        if var > 0 and (float(stats.mu @ p.weights) - r_f) / math.sqrt(var) \
                > fund.sharpe + 1e-9:
            failures.append(f"frontier point at {p.mu_target:.6g} beats the "
                            "fund's Sharpe ratio")
            break
    if not np.isfinite(fund.sharpe):
        failures.append("fund Sharpe ratio is not finite")
    return failures


class FrontierSweep:
    """In-process fund and 30-point frontier on seeded factor-model CSVs."""

    name = "frontier_sweep"
    in_process = True
    nominal_ops_per_s = 2.0

    def __init__(self, seed: int, workdir: Path):
        # The warm-up is the same for every seed.  The cost of one instance
        # varies by a third at a given N, so a run takes each timed
        # operation from a fresh instance (FRONTIER_BLOCKS * BLOCK of them,
        # more than a run gets through at the default length): the mean
        # cost then varies little from seed to seed.
        specs = [(random.Random("frontier_sweep-warmup"), 20, False)]
        rng = random.Random(f"frontier_sweep-{seed}")
        for _ in range(FRONTIER_BLOCKS):
            # N stratified over 5..40; two instances per block have tied
            # maximum means.
            specs += [(rng, int(n), k % 4 == 0)
                      for k, n in enumerate(_stratified(rng, 5, 41, BLOCK))]
        self.instances: list[tuple[Path, float]] = []
        for k, (gen, n, tied) in enumerate(specs):
            data, r_f = frontier_instance(gen, n, tied)
            path = workdir / f"returns-{k:03d}.csv"
            write_returns_csv(path, data)
            self.instances.append((path, r_f))

    def op(self, i: int) -> FrontierResult:
        path, r_f = _pick(self.instances, i)
        returns = lp.load_returns(path, 12)
        stats = lp.estimate_stats(returns)
        constants = lp.frontier_constants(stats, r_f)
        fund = lp.max_sharpe_long_only(stats, r_f)
        frontier = lp.trace_frontier(stats, FRONTIER_POINTS)
        return FrontierResult(stats, constants, fund, frontier)

    def check(self, i: int, result: FrontierResult) -> list[str]:
        return check_frontier(_pick(self.instances, i)[1], result)


WORKLOADS = {w.name: w for w in (CliAll, LifecycleSweep, FrontierSweep)}

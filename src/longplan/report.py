"""Pipeline orchestration: config parsing, artifact files, SVG frontier plot.

The run configuration is a flat key-value text file (``key = value``, ``#``
comments).  Keys are the RunConfig field names; lifecycle fields are given
by their own names (``years_M``, ``r_borrow``, ...) and the hazard model by
``hazard_h``, ``hazard_L``, ``hazard_s``.  Every key has a default equal to
the reference configuration, so an empty file (or no file) runs the whole
pipeline on the packaged sample data.

Artifacts, all written under ``output_dir``:

* fund_weights.csv -- asset id and weight of the long-only Sharpe fund,
  zero-weight assets omitted;
* frontier.csv     -- mean, constrained variance, unconstrained variance;
* insurance.txt    -- Monte-Carlo discount factor with its metadata;
* plan.csv         -- per-year stock/borrow/save amounts and consumption;
* frontier.svg     -- optional hand-emitted plot of both frontiers.

On any failure the files already written by the current run are removed,
so the output directory never holds a partial artifact set.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._counts import whole
from .closed_form import (
    FrontierConstants,
    frontier_constants,
    unconstrained_frontier_variance,
)
from .insurance import HazardModel, analytic_discount_factor, estimate_discount_factor
from .lifecycle import (
    LifecycleConfig,
    LifecyclePlan,
    RiskyAssetSummary,
    solve_lifecycle,
)
from .long_only import ConstrainedFrontier, max_sharpe_long_only, trace_frontier
from .market import estimate_stats, load_returns

SAMPLE_RETURNS = os.path.join(os.path.dirname(__file__), "data",
                              "sample_returns.csv")

FUND_FILE = "fund_weights.csv"
FRONTIER_FILE = "frontier.csv"
INSURANCE_FILE = "insurance.txt"
PLAN_FILE = "plan.csv"
SVG_FILE = "frontier.svg"

ALL_STEPS = ("fund", "frontier", "insure", "plan")


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs; defaults mirror the reference run."""

    returns_path: str = SAMPLE_RETURNS
    periods_per_year: int = 12
    r_f: float = 0.025
    frontier_points: int = 30
    mc_draws: int = 10000
    mc_seed: int = 0
    output_dir: str = "out"
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    paper_faithful_v: bool = False
    mc_kstart: bool = False
    emit_svg: bool = False

    def __post_init__(self):
        if not self.returns_path:
            raise ValueError("returns_path must be non-empty")
        if not self.output_dir:
            raise ValueError("output_dir must be non-empty")
        for name, least in (("periods_per_year", 1), ("frontier_points", 2),
                            ("mc_draws", 1), ("mc_seed", 0)):
            object.__setattr__(self, name, whole(name, getattr(self, name), least))
        if not math.isfinite(self.r_f):
            raise ValueError("r_f must be finite")


def _config_keys(cls, prefix: str = "", skip: tuple[str, ...] = ()) -> dict:
    """The config-file keys of cls's scalar fields, prefix + name, each
    with its type; fields in skip and nested configs are not keys."""
    kinds = {kind.__name__: kind for kind in (str, int, float, bool)}
    # the modules postpone annotations, so a field's type is its name
    return {prefix + f.name: kinds[f.type] for f in fields(cls)
            if f.type in kinds and f.name not in skip}


_RUN_KEYS = _config_keys(RunConfig)
_LIFECYCLE_KEYS = _config_keys(LifecycleConfig)
# the hazard's discount rate and horizon are the plan's r and years_M
_HAZARD_KEYS = _config_keys(HazardModel, "hazard_", ("r", "horizon_M"))

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _parse_value(raw: str, kind, key: str, where: str):
    """Typed value of one config line, where names it in errors; numbers
    written in ASCII alone, floats finite and integers digits alone."""
    try:
        if kind is bool:
            value = _BOOL_WORDS[raw.lower()]
        elif kind is int:
            value = int(raw) if raw.isascii() and raw.isdigit() else None
        elif kind is float:
            value = float(raw) if raw.isascii() else None
        else:
            value = kind(raw)
    except (ValueError, KeyError):
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        expected = {float: "finite float", int: "nonnegative int"}.get(
            kind, kind.__name__)
        raise ValueError(f"{where}: bad value {raw!r} for key {key!r} "
                         f"(expected {expected})")
    return value


def _run_config(settings: list) -> RunConfig:
    """The RunConfig of settings, (line, key, raw, value) in file order, a
    later line overriding an earlier one."""
    run_kwargs: dict = {}
    lc_kwargs: dict = {}
    hz_kwargs: dict = {}
    for _, key, _, value in settings:
        kwargs = (run_kwargs if key in _RUN_KEYS else
                  lc_kwargs if key in _LIFECYCLE_KEYS else hz_kwargs)
        kwargs[key] = value
    return RunConfig(lifecycle=_build_lifecycle(lc_kwargs, hz_kwargs), **run_kwargs)


def parse_config(path: str) -> RunConfig:
    """Parse a flat key-value config file into a RunConfig.

    Unknown keys, malformed lines and badly-typed values (including
    non-finite floats, floats not written in ASCII and integers not written
    in ASCII digits) raise ValueError naming the file, the line and the
    key.  So does a value that RunConfig, LifecycleConfig or HazardModel
    rejects: the error names the first line at which the lines read so far
    are rejected, with the constructor's reason.
    """
    keys = {**_RUN_KEYS, **_LIFECYCLE_KEYS, **_HAZARD_KEYS}
    settings = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{where}: expected 'key = value', got {text!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in keys:
                raise ValueError(f"{where}: unknown config key {key!r}")
            settings.append((lineno, key, raw, _parse_value(raw, keys[key], key, where)))
    try:
        return _run_config(settings)
    except ValueError:
        pass
    for count in range(1, len(settings) + 1):
        try:
            _run_config(settings[:count])
        except ValueError as exc:
            lineno, key, raw, _ = settings[count - 1]
            raise ValueError(f"{path}: line {lineno}: {key} = {raw}: {exc}") from None


def _build_lifecycle(lc_kwargs: dict, hz_kwargs: dict) -> LifecycleConfig:
    base = LifecycleConfig(**lc_kwargs)
    if not hz_kwargs:
        return base
    hazard = HazardModel(
        h=hz_kwargs.get("hazard_h", base.hazard.h),
        r=base.r,
        L=hz_kwargs.get("hazard_L", base.hazard.L),
        s=hz_kwargs.get("hazard_s", base.hazard.s),
        horizon_M=base.years_M,
    )
    return replace(base, hazard=hazard)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def write_fund_weights(path: str, asset_ids, weights: np.ndarray) -> None:
    """CSV of (asset_id, weight) for nonzero weights only."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asset_id", "weight"])
        for asset_id, weight in zip(asset_ids, weights):
            if weight != 0.0:
                writer.writerow([asset_id, "%.10g" % weight])


def write_frontier_csv(path: str, frontier: ConstrainedFrontier,
                       constants: FrontierConstants) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "variance_constrained", "variance_unconstrained"])
        for point in frontier.points:
            mu = point.mu_target
            unconstrained = unconstrained_frontier_variance(constants, mu)
            writer.writerow(["%.10g" % mu, "%.10g" % point.variance,
                             "%.10g" % unconstrained])


def write_insurance_txt(path: str, model: HazardModel, estimate) -> None:
    analytic = analytic_discount_factor(model)
    lines = [
        "discount factor V = E[exp(-r T)] for the insurance strike time",
        f"estimate = {estimate.value:.10f}",
        f"std_error = {estimate.std_error:.10f}",
        f"n_draws = {estimate.n_draws}",
        f"seed = {estimate.seed}",
        "method = exponential inverse-cdf T = -log1p(-u) / h on seeded uniforms",
        f"analytic = {analytic:.10f}",
        f"hazard_h = {model.h:.10g}",
        f"discount_r = {model.r:.10g}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plan_csv(path: str, plan: LifecyclePlan) -> None:
    """Plan table with house year and insurance units in comment headers."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# lifetime plan; money in units of 1,000 currency\n")
        house = "none" if plan.house_year is None else str(plan.house_year)
        fh.write(f"# house_year={house}\n")
        fh.write(f"# insurance_units={plan.decision.insurance:.12g}\n")
        writer = csv.writer(fh)
        writer.writerow(["year", "stock", "borrow", "save", "consumption"])
        decision = plan.decision
        for i in range(decision.years_M):
            writer.writerow([
                i + 1,
                "%.12g" % decision.stock[i],
                "%.12g" % decision.borrow[i],
                "%.12g" % decision.save[i],
                "%.12g" % plan.consumption[i],
            ])


# ---------------------------------------------------------------------------
# SVG frontier plot
# ---------------------------------------------------------------------------

def _svg_polyline(coords, color: str, width: float = 2.0) -> str:
    points = " ".join("%.2f,%.2f" % (x, y) for x, y in coords)
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}" points="{points}"/>')


def render_frontier_svg(frontier: ConstrainedFrontier,
                        constants: FrontierConstants, path: str) -> None:
    """Write an 800x600 SVG of both frontiers (x = std dev, y = mean).

    The output is deterministic: fixed viewport, fixed margins, fixed
    number formatting, no timestamps.
    """
    if not frontier.points:
        raise ValueError("frontier must be non-empty")
    width, height = 800.0, 600.0
    m_left, m_right, m_top, m_bottom = 70.0, 20.0, 20.0, 50.0

    mus = np.array([p.mu_target for p in frontier.points])
    con_sd = np.sqrt([p.variance for p in frontier.points])
    grid = np.linspace(mus.min(), mus.max(), 100) if mus.size > 1 else mus
    unc_var = [unconstrained_frontier_variance(constants, mu) for mu in grid]
    unc_sd = np.sqrt(np.maximum(unc_var, 0.0))

    x_min = 0.0
    x_max = float(max(con_sd.max(), unc_sd.max())) * 1.05 or 1.0
    y_min = float(grid.min())
    y_max = float(grid.max())
    y_pad = (y_max - y_min) * 0.05 or max(abs(y_max), 1e-3) * 0.05
    y_min, y_max = y_min - y_pad, y_max + y_pad

    def to_xy(sd, mu):
        px = m_left + (sd - x_min) / (x_max - x_min) * (width - m_left - m_right)
        py = height - m_bottom - (mu - y_min) / (y_max - y_min) * (
            height - m_top - m_bottom)
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        "<!-- viewport 800x600; margins: left 70, right 20, top 20, bottom 50 -->",
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        # axes
        f'<line x1="{m_left:.1f}" y1="{m_top:.1f}" x2="{m_left:.1f}" '
        f'y2="{height - m_bottom:.1f}" stroke="black"/>',
        f'<line x1="{m_left:.1f}" y1="{height - m_bottom:.1f}" '
        f'x2="{width - m_right:.1f}" y2="{height - m_bottom:.1f}" stroke="black"/>',
    ]
    parts.append(_svg_polyline(
        [to_xy(s, m) for s, m in zip(unc_sd, grid)], "#d62728"))
    parts.append(_svg_polyline(
        [to_xy(s, m) for s, m in zip(con_sd, mus)], "#1f77b4"))
    label_x = m_left + 16.0
    parts.extend([
        f'<text x="{label_x:.1f}" y="{m_top + 20:.1f}" fill="#1f77b4" '
        'font-size="14">long-only frontier</text>',
        f'<text x="{label_x:.1f}" y="{m_top + 40:.1f}" fill="#d62728" '
        'font-size="14">unconstrained frontier</text>',
        f'<text x="{(width / 2):.1f}" y="{height - 12:.1f}" fill="black" '
        'font-size="14" text-anchor="middle">standard deviation</text>',
        f'<text x="18" y="{(height / 2):.1f}" fill="black" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 18 {(height / 2):.1f})">'
        'expected return</text>',
        f'<text x="{m_left:.1f}" y="{height - m_bottom + 18:.1f}" '
        f'font-size="12" text-anchor="middle">{x_min:.4f}</text>',
        f'<text x="{width - m_right:.1f}" y="{height - m_bottom + 18:.1f}" '
        f'font-size="12" text-anchor="middle">{x_max:.4f}</text>',
        f'<text x="{m_left - 6:.1f}" y="{height - m_bottom:.1f}" '
        f'font-size="12" text-anchor="end">{y_min:.4f}</text>',
        f'<text x="{m_left - 6:.1f}" y="{m_top + 4:.1f}" '
        f'font-size="12" text-anchor="end">{y_max:.4f}</text>',
        "</svg>",
    ])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config: RunConfig, steps=ALL_STEPS) -> list[str]:
    """Run the requested pipeline steps and return the paths written.

    Steps are a subset of ("fund", "frontier", "insure", "plan"); the fund
    is computed only for the fund and plan steps, whose outputs use it.
    Module errors propagate unchanged; any files this call already wrote
    are removed first, so failures never leave partial output behind.
    """
    unknown = set(steps) - set(ALL_STEPS)
    if unknown:
        raise ValueError(f"unknown pipeline steps: {sorted(unknown)}")
    os.makedirs(config.output_dir, exist_ok=True)
    written: list[str] = []

    def target(name: str) -> str:
        path = os.path.join(config.output_dir, name)
        written.append(path)
        return path

    try:
        returns = load_returns(config.returns_path, config.periods_per_year)
        stats = estimate_stats(returns)

        fund = None
        if {"fund", "plan"} & set(steps):
            fund = max_sharpe_long_only(stats, config.r_f)
        if "fund" in steps:
            write_fund_weights(target(FUND_FILE), stats.asset_ids, fund.weights)
        if "frontier" in steps:
            constants = frontier_constants(stats, config.r_f)
            frontier = trace_frontier(stats, config.frontier_points)
            write_frontier_csv(target(FRONTIER_FILE), frontier, constants)
            if config.emit_svg:
                render_frontier_svg(frontier, constants, target(SVG_FILE))
        if "insure" in steps:
            model = config.lifecycle.hazard
            estimate = estimate_discount_factor(model, config.mc_draws,
                                                config.mc_seed)
            write_insurance_txt(target(INSURANCE_FILE), model, estimate)
        if "plan" in steps:
            asset = RiskyAssetSummary(r_stock=fund.mean,
                                      var_stock=fund.variance)
            plan = solve_lifecycle(
                config.lifecycle, asset, seed=config.mc_seed,
                paper_faithful_v=config.paper_faithful_v,
                mc_kstart=config.mc_kstart, mc_draws=config.mc_draws)
            write_plan_csv(target(PLAN_FILE), plan)
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    return written

"""Tests for config parsing, pipeline artifacts, SVG output and the CLI."""

from __future__ import annotations

import ast
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longplan
from longplan.cli import main
from longplan.lifecycle import DecisionVector, RiskyAssetSummary, \
    implied_consumption
from longplan.long_only import max_sharpe_long_only, trace_frontier
from longplan.closed_form import frontier_constants
from longplan.market import ReturnMatrix, estimate_stats, load_returns
from longplan.report import (
    ALL_STEPS,
    SAMPLE_RETURNS,
    RunConfig,
    parse_config,
    render_frontier_svg,
    run_pipeline,
)

FAST_CONFIG = """
# shrunk horizon so the full pipeline runs quickly
years_M = 8
house_years = 2
house_initial = 400
house_annual = 40
house_utility = 900
hazard_h = 0.3
frontier_points = 5
mc_draws = 2000
"""


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_plan_csv(path: str):
    """Re-parse plan.csv: returns (house_year, insurance, rows).

    rows is a list of dicts with year/stock/borrow/save/consumption, so
    reports can be validated against
    :func:`longplan.lifecycle.implied_consumption`.
    """
    house_year: int | None = None
    insurance = 0.0
    rows = []
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("house_year="):
                    value = body.split("=", 1)[1]
                    house_year = None if value == "none" else int(value)
                elif body.startswith("insurance_units="):
                    insurance = float(body.split("=", 1)[1])
                continue
            cells = line.split(",")
            if not header_seen:
                header_seen = True
                continue
            rows.append({
                "year": int(cells[0]),
                "stock": float(cells[1]),
                "borrow": float(cells[2]),
                "save": float(cells[3]),
                "consumption": float(cells[4]),
            })
    return house_year, insurance, rows


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_round_trip(tmp_path):
    path = _write_config(tmp_path, """
    # comment line
    r_f = 0.02          # trailing comment
    frontier_points = 7
    mc_seed = 42
    emit_svg = yes
    years_M = 12
    r_borrow = 0.07
    hazard_h = 0.1
    hazard_s = 0.25
    """)
    config = parse_config(path)
    assert config.r_f == 0.02
    assert config.frontier_points == 7
    assert config.mc_seed == 42
    assert config.emit_svg is True
    assert config.lifecycle.years_M == 12
    assert config.lifecycle.r_borrow == 0.07
    assert config.lifecycle.hazard.h == 0.1
    assert config.lifecycle.hazard.s == 0.25
    # hazard inherits the lifecycle discount rate and horizon
    assert config.lifecycle.hazard.r == config.lifecycle.r
    assert config.lifecycle.hazard.horizon_M == 12


def test_parse_config_empty_file_gives_defaults(tmp_path):
    config = parse_config(_write_config(tmp_path, "\n# nothing here\n"))
    assert config == RunConfig()
    assert config.returns_path == SAMPLE_RETURNS


def test_parse_config_strips_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text("r_f = 0.02\nmc_seed = 42\n", encoding="utf-8-sig")
    config = parse_config(str(path))
    assert config.r_f == 0.02 and config.mc_seed == 42


def test_parse_config_unknown_key(tmp_path):
    path = _write_config(tmp_path, "r_f = 0.02\nwibble = 3\n")
    with pytest.raises(ValueError, match="line 2.*wibble"):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = _write_config(tmp_path, "frontier_points = many\n")
    with pytest.raises(ValueError, match="line 1.*many"):
        parse_config(path)


def test_parse_config_malformed_line(tmp_path):
    path = _write_config(tmp_path, "this is not a key value pair\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config(path)


def test_parse_config_rejects_non_finite_r_f(tmp_path):
    path = _write_config(tmp_path, "frontier_points = 5\nr_f = nan\n")
    with pytest.raises(ValueError, match="line 2.*'r_f'.*finite"):
        parse_config(path)


def test_parse_config_rejects_negative_mc_seed(tmp_path):
    path = _write_config(tmp_path, "# seeds are nonnegative\nmc_seed = -1\n")
    with pytest.raises(ValueError, match="line 2.*'mc_seed'.*nonnegative"):
        parse_config(path)


@pytest.mark.parametrize("body, line, key, reason", [
    ("r_f = 0.02\nfrontier_points = 1\n", 2, "frontier_points", "frontier_points must be >= 2"),
    ("# hazard\nhazard_h = -0.5\n", 2, "hazard_h", "hazard rate h must be positive"),
    ("mc_draws = 0\n", 1, "mc_draws", "mc_draws must be >= 1"),
    # the lines read so far are rejected first at years_M, which the
    # default house_years (10) exceeds
    ("r_f = 0.02\nyears_M = 5\nhouse_years = 7\n", 2, "years_M",
     "house_years must be smaller than years_M"),
    # the utility discount rate r is also the hazard model's
    ("hazard_L = 3\nr = -0.1\n", 2, "r", "discount rate r must be nonnegative"),
    # a later line overrides an earlier one, and the later one is at fault
    ("risk_aversion_B = 2\nrisk_aversion_B = -1\n", 2, "risk_aversion_B",
     "risk_aversion_B must be nonnegative"),
])
def test_parse_config_names_the_line_a_constructor_rejects(tmp_path, body, line, key, reason):
    path = _write_config(tmp_path, body)
    with pytest.raises(ValueError) as info:
        parse_config(path)
    assert str(info.value).startswith(f"{path}: line {line}: {key} = ")
    assert reason in str(info.value)


@pytest.mark.parametrize("raw", ["\u0663", "\u00b2", "\uff11", "+3", "3_0"])
def test_parse_config_takes_integers_in_ascii_digits_only(tmp_path, raw):
    path = _write_config(tmp_path, f"mc_seed = {raw}\n")
    with pytest.raises(ValueError, match=f"{path}: line 1: bad value .*'mc_seed'"):
        parse_config(path)


# Arabic-Indic and fullwidth digits, which float() reads as 0.02 and 0.1
@pytest.mark.parametrize("key, raw", [("r_f", "\u0660.\u0660\u0662"),
                                      ("hazard_h", "\uff10.\uff11")])
def test_parse_config_takes_floats_in_ascii_only(tmp_path, key, raw):
    path = _write_config(tmp_path, f"frontier_points = 5\n{key} = {raw}\n")
    with pytest.raises(ValueError, match=f"{path}: line 2: bad value .*'{key}'.*finite float"):
        parse_config(path)


@pytest.mark.parametrize("raw", ["\u0663", "\u00b2", "+3"])
def test_cli_takes_a_seed_in_ascii_digits_only(raw, capsys):
    with pytest.raises(SystemExit):
        main(["insure", "--seed", raw])
    assert f"--seed: expected a nonnegative integer, got {raw!r}" in capsys.readouterr().err


def test_cli_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit):
        main(["insure", "--seed", "-1"])
    assert "--seed" in capsys.readouterr().err


def test_cli_rejects_negative_risk_aversion(tmp_path, capsys):
    config = _write_config(tmp_path, "risk_aversion_B = -1\n")
    assert main(["plan", "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("builtins.ValueError:")
    assert "risk_aversion_B" in err


def test_run_config_validation():
    with pytest.raises(ValueError, match="r_f"):
        RunConfig(r_f=float("nan"))
    with pytest.raises(ValueError, match="mc_seed"):
        RunConfig(mc_seed=-1)
    with pytest.raises(ValueError):
        RunConfig(frontier_points=1)
    with pytest.raises(ValueError):
        RunConfig(mc_draws=0)
    with pytest.raises(ValueError):
        RunConfig(returns_path="")
    with pytest.raises(ValueError):
        RunConfig(output_dir="")


@pytest.mark.parametrize("name, make", [
    ("periods_per_year", lambda: load_returns(SAMPLE_RETURNS, 12.5)),
    ("periods_per_year", lambda: ReturnMatrix(["A"], np.zeros((2, 1)), 12.5)),
    ("periods_per_year", lambda: RunConfig(periods_per_year=12.5)),
    ("frontier_points", lambda: RunConfig(frontier_points=2.5)),
    ("mc_draws", lambda: RunConfig(mc_draws=10.5)),
    ("mc_draws", lambda: RunConfig(mc_draws=float("nan"))),
    ("mc_seed", lambda: RunConfig(mc_seed=1.5)),
], ids=["load_returns", "ReturnMatrix", "periods_per_year", "frontier_points",
        "mc_draws", "mc_draws_nan", "mc_seed"])
def test_counts_must_be_integers(name, make):
    # a fractional count would be truncated, or fail deep in numpy
    with pytest.raises(ValueError, match=name):
        make()


@pytest.mark.parametrize("name, make", [
    ("mc_draws", lambda: RunConfig(mc_draws="100")),
    ("mc_seed", lambda: RunConfig(mc_seed=None)),
    ("frontier_points", lambda: RunConfig(frontier_points="30")),
    ("periods_per_year", lambda: ReturnMatrix(["A"], np.zeros((2, 1)), "12")),
    ("periods_per_year", lambda: load_returns(SAMPLE_RETURNS, None)),
], ids=["text_draws", "no_seed", "text_points", "ReturnMatrix", "load_returns"])
def test_counts_that_are_not_numbers_name_the_field(name, make):
    # one check for every count: a ValueError naming the field, not a
    # TypeError from deep inside it
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make()


@pytest.mark.parametrize("make, read", [
    (lambda: RunConfig(mc_seed=10**400), lambda made: made.mc_seed),
    (lambda: RunConfig(mc_draws=10**400), lambda made: made.mc_draws),
    (lambda: ReturnMatrix(["A"], np.zeros((2, 1)), 10**400), lambda made: made.periods_per_year),
], ids=["mc_seed", "mc_draws", "periods_per_year"])
def test_counts_past_the_float_range_are_whole(make, read):
    # an integer of any size is a whole number; the check does not convert
    # it to a float, which overflows
    assert read(make()) == 10**400


def test_whole_float_counts_become_ints():
    config = RunConfig(periods_per_year=12.0, frontier_points=5.0, mc_draws=10.0, mc_seed=3.0)
    assert [type(value) for value in (config.periods_per_year, config.frontier_points,
                                      config.mc_draws, config.mc_seed)] == [int] * 4
    assert type(ReturnMatrix(["A"], np.zeros((2, 1)), 12.0).periods_per_year) is int


# ---------------------------------------------------------------------------
# pipeline artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = RunConfig(output_dir=str(out), frontier_points=8,
                       mc_draws=4000, emit_svg=True)
    written = run_pipeline(config, ALL_STEPS)
    return out, config, written


def test_pipeline_writes_all_artifacts(pipeline_out):
    out, _, written = pipeline_out
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["frontier.csv", "frontier.svg", "fund_weights.csv",
                     "insurance.txt", "plan.csv"]
    for path in written:
        assert os.path.exists(path)


def test_fund_weights_sum_and_omit_zeros(pipeline_out):
    out, config, _ = pipeline_out
    with open(out / "fund_weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    weights = [float(r["weight"]) for r in rows]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert all(w > 0 for w in weights)
    # zero-weight assets are omitted entirely
    stats = estimate_stats(load_returns(config.returns_path, 12))
    fund = max_sharpe_long_only(stats, config.r_f)
    assert len(rows) == int((fund.weights > 0).sum())
    assert len(rows) < len(stats.asset_ids)


def test_frontier_csv_domination(pipeline_out):
    out, _, _ = pipeline_out
    with open(out / "frontier.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        con = float(row["variance_constrained"])
        unc = float(row["variance_unconstrained"])
        assert con - unc >= -1e-9


def test_insurance_txt_fields(pipeline_out):
    out, config, _ = pipeline_out
    text = (out / "insurance.txt").read_text()
    for key in ("estimate =", "std_error =", "n_draws = 4000", "seed = 0",
                "method = exponential inverse-cdf T = -log1p(-u) / h on seeded uniforms",
                "analytic ="):
        assert key in text
    analytic = float(text.split("analytic = ")[1].splitlines()[0])
    assert analytic == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_plan_round_trip_consumption(pipeline_out):
    out, config, _ = pipeline_out
    house_year, insurance, rows = read_plan_csv(str(out / "plan.csv"))
    lc = config.lifecycle
    stats = estimate_stats(load_returns(config.returns_path, 12))
    fund = max_sharpe_long_only(stats, config.r_f)
    asset = RiskyAssetSummary(r_stock=fund.mean, var_stock=fund.variance)
    house = np.zeros(lc.years_M)
    if house_year is not None:
        house[house_year - 1] = 1.0
    decision = DecisionVector(
        stock=np.array([r["stock"] for r in rows]),
        borrow=np.array([r["borrow"] for r in rows]),
        save=np.array([r["save"] for r in rows]),
        house=house, insurance=insurance)
    kstart = math.ceil(1.0 / lc.hazard.h)
    recomputed = implied_consumption(decision, lc, asset, kstart)
    reported = np.array([r["consumption"] for r in rows])
    np.testing.assert_allclose(recomputed, reported, atol=1e-6)


def test_plan_units_note(pipeline_out):
    out, _, _ = pipeline_out
    header = (out / "plan.csv").read_text().splitlines()[0]
    assert header.startswith("#") and "1,000" in header


def test_svg_deterministic_and_annotated(pipeline_out, tmp_path):
    out, config, _ = pipeline_out
    svg = (out / "frontier.svg").read_text()
    assert 'width="800" height="600"' in svg
    assert "margins" in svg.splitlines()[2]
    assert "long-only frontier" in svg and "unconstrained frontier" in svg
    assert svg.count("<polyline") == 2
    # byte-identical on re-render
    stats = estimate_stats(load_returns(config.returns_path, 12))
    constants = frontier_constants(stats, config.r_f)
    frontier = trace_frontier(stats, config.frontier_points)
    for name in ("a.svg", "b.svg"):
        render_frontier_svg(frontier, constants, str(tmp_path / name))
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_pipeline_cleans_partial_output(tmp_path):
    from longplan.lifecycle import LifecycleConfig, LifecycleInfeasibleError
    out = tmp_path / "broken"
    config = RunConfig(
        output_dir=str(out),
        lifecycle=LifecycleConfig(income_high=0.0, initial_saving=0.0))
    with pytest.raises(LifecycleInfeasibleError):
        run_pipeline(config, ("fund", "plan"))
    # the fund file was written before the plan failed, then removed
    assert os.path.isdir(out)
    assert os.listdir(out) == []


def test_pipeline_rejects_unknown_step():
    with pytest.raises(ValueError, match="unknown pipeline step"):
        run_pipeline(RunConfig(), ("fund", "retire"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_fund_only(tmp_path, capsys):
    out = tmp_path / "fund_out"
    assert main(["fund", "--out", str(out)]) == 0
    assert os.listdir(out) == ["fund_weights.csv"]
    assert "fund_weights.csv" in capsys.readouterr().out


def test_cli_all_with_config(tmp_path, capsys):
    config = _write_config(tmp_path, FAST_CONFIG)
    out = tmp_path / "all_out"
    code = main(["all", "--config", config, "--out", str(out), "--emit-svg"])
    assert code == 0
    assert sorted(os.listdir(out)) == ["frontier.csv", "frontier.svg",
                                       "fund_weights.csv", "insurance.txt",
                                       "plan.csv"]


def test_cli_seed_override(tmp_path):
    config = _write_config(tmp_path, FAST_CONFIG)
    out = tmp_path / "seeded"
    assert main(["insure", "--config", config, "--seed", "99",
                 "--out", str(out)]) == 0
    assert "seed = 99" in (out / "insurance.txt").read_text()


def test_cli_plan_subcommand(tmp_path):
    config = _write_config(tmp_path, FAST_CONFIG)
    out = tmp_path / "plan_out"
    assert main(["plan", "--config", config, "--out", str(out)]) == 0
    assert os.listdir(out) == ["plan.csv"]
    house_year, insurance, rows = read_plan_csv(str(out / "plan.csv"))
    assert len(rows) == 8


def test_cli_missing_returns_file(tmp_path, capsys):
    config = _write_config(tmp_path, "returns_path = /no/such/file.csv\n")
    assert main(["fund", "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "/no/such/file.csv" in err


def test_cli_bad_config_key_is_module_qualified(tmp_path, capsys):
    config = _write_config(tmp_path, "nonsense = 1\n")
    assert main(["fund", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("builtins.ValueError:")
    assert "nonsense" in err


def test_cli_degenerate_lifecycle_errors_cleanly(tmp_path, capsys):
    config = _write_config(tmp_path, "income_high = 0\ninitial_saving = 0\n")
    out = tmp_path / "bad_plan"
    assert main(["plan", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("longplan.lifecycle.LifecycleInfeasibleError:")
    assert os.listdir(out) == []


def test_cli_all_and_import_load_no_scipy(tmp_path):
    # the package is numpy alone: neither `longplan all` nor a cold solve,
    # whose phase-1 LP runs on the same solver, loads a scipy module
    code = ("import sys\n"
            "import numpy as np\n"
            "def scipy_loaded():\n"
            "    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
            "import longplan\n"
            "print(scipy_loaded())\n"
            "from longplan.cli import main\n"
            f"print(main(['all', '--emit-svg', '--out', {str(tmp_path)!r}]), scipy_loaded())\n"
            "from longplan.qp import QpProblem, solve_qp, solve_qp_path\n"
            "sol = solve_qp(QpProblem(Q=np.eye(1), c=np.zeros(1), a_in=[[1.0], [-1.0]],\n"
            "                         b_in=[2.0, -1.0]))\n"
            "print(sol.status, sol.max_violation, scipy_loaded())\n"
            "path = solve_qp_path(QpProblem(Q=np.eye(2), c=np.zeros(2), a_in=[[1.0, 1.0]],\n"
            "                               b_in=[1.0], lb=np.zeros(2)), [1.0], [0.0, 1.0],\n"
            "                     start=None)\n"
            "print(len(path), round(float(path[-1].x.sum()), 9), scipy_loaded())\n")
    src = str(Path(longplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    lines = done.stdout.splitlines()       # `longplan all` prints between them
    on_import, (cli, cold, path) = lines[0], lines[-3:]
    assert on_import == "False"
    assert cli == "0 False"
    status, certificate, loaded = cold.split()
    assert (status, loaded) == ("infeasible", "False")
    assert float(certificate) == pytest.approx(0.5, abs=1e-6)
    assert path == "2 2.0 False"


def test_package_imports_no_scipy_and_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    for module in sorted((root / "src" / "longplan").glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name == "scipy" or name.startswith("scipy.") for name in names), \
                f"{module.name}:{node.lineno} imports scipy"
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]

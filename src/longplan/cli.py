"""Command-line entry point.

Subcommands map to pipeline steps::

    longplan fund      -- long-only Sharpe fund weights
    longplan frontier  -- constrained vs unconstrained frontier table
    longplan insure    -- Monte-Carlo insurance discount factor
    longplan plan      -- lifetime investment plan
    longplan all       -- everything above

Common flags: --config PATH (flat key-value file), --seed N (overrides
mc_seed), --out DIR (overrides output_dir), --paper-faithful-v,
--mc-kstart, --emit-svg.  Exit status is 0 exactly when every requested
artifact was written; on any error a module-qualified message goes to
stderr and the status is 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .report import ALL_STEPS, RunConfig, parse_config, run_pipeline

_SUBCOMMANDS = {
    "fund": ("fund",),
    "frontier": ("frontier",),
    "insure": ("insure",),
    "plan": ("plan",),
    "all": ALL_STEPS,
}


def _seed(raw: str) -> int:
    if not (raw.isascii() and raw.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longplan",
        description="Long-only portfolio selection and lifetime planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, steps in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=f"write artifacts for: {', '.join(steps)}")
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="flat key-value config file (defaults: sample data)")
        cmd.add_argument("--seed", metavar="N", type=_seed, default=None,
                         help="override the Monte-Carlo seed")
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="override the output directory")
        cmd.add_argument("--paper-faithful-v", action="store_true",
                         help="use the Monte-Carlo discount factor inside the "
                              "plan objective instead of the analytic one")
        cmd.add_argument("--mc-kstart", action="store_true",
                         help="derive the insurance start year from simulated "
                              "strike times instead of the analytic mean")
        cmd.add_argument("--emit-svg", action="store_true",
                         help="also write frontier.svg (frontier/all only)")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = parse_config(args.config) if args.config else RunConfig()
    overrides: dict = {}
    if args.seed is not None:
        overrides["mc_seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.paper_faithful_v:
        overrides["paper_faithful_v"] = True
    if args.mc_kstart:
        overrides["mc_kstart"] = True
    if args.emit_svg:
        overrides["emit_svg"] = True
    return replace(config, **overrides) if overrides else config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        written = run_pipeline(config, _SUBCOMMANDS[args.command])
    except Exception as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""longplan benchmark: one command, every metric, every output checked.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the library is imported from
``src/`` there, nothing is installed.  Workloads (see BENCHMARK.json and
README.md in this directory for why each exists):

  cli_all          cold ``longplan all --emit-svg`` on the sample data
  lifecycle_sweep  in-process solve_lifecycle, seeded M=30 scenarios
  frontier_sweep   in-process fund + 30-point frontier, seeded CSVs

Each process this script starts has BLAS pinned to one thread.  With
``--trace 0`` it measures set-up twice (a set-up-only process, then the
measured process itself) and reports the median, then times the closed
loop for ``--seconds`` with a host probe interleaved, whose time scales
throughput to a fixed host speed (``norm_ops_per_s``; see README.md).
With ``--trace 1`` it reports per-layer metrics from spans and writes the
spans under ``.perfbench/spans/``.
Human-readable lines come first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full record,
with the environment, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import import_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 1       # extra set-up measurements per untraced run
RUN_DEADLINE_S = 170.0    # the whole run, all processes included

# Timings printed and recorded but left out of the JSON line: on a shared
# host they drift with its speed, too much to gate (README).
COMMON = {"ops_per_s": ("ops_per_s", "1/s"),
          "probe_s.mean": ("probe_s.mean", "s")}
NAMED = {
    "cli_all": {"cli_wall_s.p50": ("op_s.p50", "s")},
    "lifecycle_sweep": {"plans_per_s": ("ops_per_s", "1/s"),
                        "plan_s.p50": ("op_s.p50", "s")},
    "frontier_sweep": {"frontiers_per_s": ("ops_per_s", "1/s"),
                       "frontier_s.p50": ("op_s.p50", "s"),
                       "frontier_s.p90": ("op_s.p90", "s")},
}


class BenchError(RuntimeError):
    """A benchmark process failed; the run prints no result."""


def pinned_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PERFBENCH_SRC=src,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, env.get("PYTHONPATH")) if p))
    return env


def run_worker(args, workdir: Path, deadline: float, *, setup_only=False,
               importtime=False) -> tuple[float, dict | None, str]:
    """Start worker.py; return (set-up seconds, its result, its stderr)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spans", str(spans_path(args))]
    if setup_only:
        cmd.append("--setup-only")
    workdir.mkdir(parents=True, exist_ok=True)
    err_path = workdir / "worker.stderr"
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        # A session of its own, so that a kill also reaches CLI children.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), text=True,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            status = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if status != 0 or ready.strip() != "READY":
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker exited with status {status}\n{tail}")
    result = (None if setup_only
              else json.loads(rest.strip().splitlines()[-1]))
    return setup_s, result, stderr


def spans_path(args) -> Path:
    return (ROOT / ".perfbench" / "spans"
            / f"{args.workload}-seed{args.seed}.json")


def source_identity() -> dict:
    """The git commit when there is one, and a hash of the library source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "longplan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    spans_path(args).parent.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            _, result, stderr = run_worker(args, work / "main", deadline,
                                           importtime=True)
            imports = import_times(stderr)
            result["metrics"].setdefault("import.longplan_s",
                                         imports.get("longplan", 0.0))
            result["metrics"].setdefault("import.scipy_stats_s",
                                         imports.get("scipy.stats", 0.0))
            result["spans"] = str(spans_path(args).relative_to(ROOT))
            return result
        setups = [run_worker(args, work / f"setup-{k}", deadline,
                             setup_only=True)[0]
                  for k in range(SETUP_ONLY_RUNS)]
        setup_s, result, _ = run_worker(args, work / "main", deadline)
        setups.append(setup_s)
        result["setup_samples"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    # Workloads, metric names and units: BENCHMARK.json is the one list.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "longplan" / "__init__.py").is_file():
        print(f"no longplan source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    named = {"error_rate": {"value": failed / attempted, "unit": "ratio"}}
    if not args.trace:
        named.update({name: {"value": result["metrics"][key], "unit": unit}
                      for name, (key, unit)
                      in {**COMMON, **NAMED[args.workload]}.items()})
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, metrics=metrics,
                  named=named, source=source_identity())
    out = ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={result['samples']} attempted={attempted} failed={failed}")
    for name, m in {**metrics, **named}.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"# record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

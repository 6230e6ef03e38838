"""One benchmark process: set a workload up, then time it or trace it.

run.py starts this script with BLAS pinned to one thread and ``src`` on
PYTHONPATH.  Set-up is the interpreter start, ``import longplan``, the
workload's seeded inputs and one checked, untimed warm-up operation; the
line ``READY`` marks its end.  With ``--setup-only`` the process stops
there.  Otherwise it runs the closed loop -- one client, one operation at
a time -- and prints one JSON object with the tally and the metrics.

Untimed runs (``--trace 0``) issue operations, with host probes between
them, until ``--seconds`` have passed.  Traced runs (``--trace 1``) run a
fixed number of operations, derived from ``--seconds``, twice with the
same inputs: once untraced and once traced, so per-operation counts repeat
exactly for a seed and the ratio of the two passes is the tracing
overhead.
"""

from __future__ import annotations

# First, so that -X importtime charges longplan with everything it imports.
import longplan

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, percentile
from workloads import WORKLOADS

MAX_FAILURES_KEPT = 5
PROBE_SHARE = 0.25   # host-probe time per second of operation time
# The probe's mean wall time on the machine the benchmark was tuned on
# (2-CPU x86_64 virtual machine); norm_ops_per_s reads as throughput there.
PROBE_REF_S = 0.75
# The host probe: a fresh interpreter that imports numpy and scipy.linalg,
# runs a pure-Python loop and a loop of small dense solves.  It uses none of
# longplan, so a change to the library leaves its time alone, and it touches
# what an operation touches (process start, imports, the interpreter, BLAS).
PROBE_CODE = """\
import numpy as np, scipy.linalg
s = 0
for k in range(400000):
    s += k * k % 7
a = np.arange(3600.0).reshape(60, 60) % 7.0 + 60.0 * np.eye(60)
b = np.ones(60)
for _ in range(1500):
    x = scipy.linalg.solve(a, b)
"""


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, i: int, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"op {i}: {'; '.join(failures)}")


def run_op(workload, i: int, tally: Tally) -> float:
    """Run and check operation i; return the operation's own wall time."""
    start = time.perf_counter()
    try:
        output = workload.op(i)
    except Exception as exc:  # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - start
        tally.record(i, [f"{type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        failures = workload.check(i, output)
    except Exception as exc:  # a check that cannot read the output fails it
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(i, failures)
    return elapsed


def blas_libraries() -> list[dict]:
    """Each OpenBLAS the process has loaded, with the threads it will use."""
    paths = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path)
            if (name.startswith("lib") and "openblas" in name and ".so" in name
                    and path not in paths):
                paths.append(path)
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, symbol, restype in (
                ("config", "openblas_get_config", ctypes.c_char_p),
                ("threads", "openblas_get_num_threads", ctypes.c_int)):
            for name in (symbol, symbol + "64_", "scipy_" + symbol,
                         "scipy_" + symbol + "64_"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        libs.append(info)
    return libs


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb(workload) -> float:
    # An out-of-process workload's own processes are this one's children.
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def set_tracing(workload, tracer: Tracer, on: bool):
    """Start or stop recording the workload's spans into tracer."""
    if not workload.in_process:
        workload.tracer = tracer if on else None   # the CLI child installs its own
    elif on:
        tracer.install()
    else:
        tracer.uninstall()


def host_probe() -> float:
    """Wall time of one run of PROBE_CODE in a fresh interpreter."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls and rounds the time up to 50 ms.
    # run.py's deadline kills a probe that hangs.
    subprocess.run([sys.executable, "-c", PROBE_CODE], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def timed(workload, seconds: float, tally: Tally) -> dict:
    """Closed loop for ``seconds``, with the host probe interleaved.

    A shared host's speed can drift by tens of percent over minutes; the
    probe, timed between operations, drifts with it.  ``norm_ops_per_s`` is the
    throughput scaled by the probe's mean time over PROBE_REF_S: the
    throughput at the speed the host had when the probe took PROBE_REF_S.
    """
    durations, probes = [], []
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        durations.append(run_op(workload, i, tally))
        i += 1
        # Probes spread evenly over the run: one whenever their total time
        # lags PROBE_SHARE of the operations' time.
        while sum(probes) < PROBE_SHARE * sum(durations):
            probes.append(host_probe())
    ops_per_s = len(durations) / sum(durations)
    probe_s = statistics.fmean(probes)
    return {
        "samples": len(durations),
        "durations": durations,
        "probes": probes,
        "metrics": {
            "op_s.p50": statistics.median(durations),
            "op_s.p90": percentile(durations, 90),
            "ops_per_s": ops_per_s,
            "probe_s.mean": probe_s,
            "norm_ops_per_s": ops_per_s * probe_s / PROBE_REF_S,
            "peak_rss_mb": peak_rss_mb(workload),
        },
    }


def traced(workload, seconds: float, tally: Tally, spans_path: Path,
           header: dict) -> dict:
    ops = max(1, round(seconds * workload.nominal_ops_per_s / 2))
    tracer = Tracer()
    plain_s = traced_s = 0.0
    try:
        for i in range(1, ops + 1):
            tracer.op_id = i
            # Each input runs once plain and once traced, alternating which
            # goes first, so drift during the run cancels from the ratio.
            for tracing in ((False, True) if i % 2 else (True, False)):
                if tracing:
                    set_tracing(workload, tracer, True)
                    traced_s += run_op(workload, i, tally)
                    set_tracing(workload, tracer, False)
                else:
                    plain_s += run_op(workload, i, tally)
    finally:
        set_tracing(workload, tracer, False)
        tracer.dump(str(spans_path), ops=ops, **header)
    metrics = layer_metrics(tracer.spans, ops)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    if not workload.in_process:
        invocations = [s["end"] - s["start"] for s in tracer.spans
                       if s["name"] == "cli.invocation"]
        for key, module in (("import.longplan_s", "longplan"),
                            ("import.scipy_stats_s", "scipy.stats")):
            metrics[key] = statistics.fmean(
                t.get(module, 0.0) for t in workload.import_s)
        metrics["cli.process_overhead_s"] = (
            statistics.fmean(invocations) - metrics["import.longplan_s"]
            - metrics["cli.main_s"])
    else:
        metrics["cli.process_overhead_s"] = 0.0
    return {"samples": ops, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(longplan.__file__).resolve().parents:
        print(f"longplan was imported from {longplan.__file__}, not {src}",
              file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tally = Tally()
    run_op(workload, 0, tally)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        header = {"workload": args.workload, "seed": args.seed}
        result = traced(workload, args.seconds, tally, args.spans, header)
    else:
        result = timed(workload, args.seconds, tally)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, environment=environment())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

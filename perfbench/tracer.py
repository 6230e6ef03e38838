"""Spans around calls into longplan's layers, installed from outside.

The tracer wraps the names that caller modules bind, so the library runs
unmodified and tracing off costs nothing:

* every ``longplan.qp`` function that ``lifecycle`` or ``long_only``
  imports (span ``qp.lifecycle.<name>`` / ``qp.long_only.<name>``, with the
  solution's ``iterations``);
* every ``longplan.insurance`` function with an ``n_draws`` parameter that
  ``lifecycle`` or ``report`` imports (``insurance.mc.<name>``, with the
  draws);
* the public entry points the benchmark and ``report`` call
  (``market.*``, ``closed_form.*``, ``long_only.*``, ``lifecycle.solve``);
* the ``report`` writers (``report.<name>``, with the bytes written);
* ``cli.main``.

Spans stay in memory and are written out once, when the run ends.  Each
records its name, start, end, parent span and operation id; clocks are
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans recorded in a
child process line up with the parent's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import re
import time

# Public entry points, as the package namespace and ``report`` bind them.
ENTRY_SPANS = {
    "load_returns": "market.load_returns",
    "estimate_stats": "market.estimate_stats",
    "frontier_constants": "closed_form.frontier_constants",
    "max_sharpe_long_only": "long_only.max_sharpe",
    "trace_frontier": "long_only.trace_frontier",
    "solve_lifecycle": "lifecycle.solve",
}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add_span(self, name: str, start: float, end: float) -> int:
        """Record a top-level span timed by the caller; return its id."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": None, "op": self.op_id})
        return len(self.spans) - 1

    def merge(self, spans: list[dict], parent: int):
        """Adopt spans recorded in another process, under span ``parent``."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append(dict(
                s, id=s["id"] + offset, op=self.op_id,
                parent=parent if s["parent"] is None else s["parent"] + offset))

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self.op_id}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.update(count(args, kwargs, result))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self):
        import longplan
        from longplan import cli, lifecycle, long_only, report

        for caller, tag in ((lifecycle, "qp.lifecycle"),
                            (long_only, "qp.long_only")):
            for attr, obj in list(vars(caller).items()):
                if inspect.isfunction(obj) and obj.__module__ == "longplan.qp":
                    self._patch(caller, attr, f"{tag}.{attr}", _iterations)
        for caller in (lifecycle, report):
            for attr, obj in list(vars(caller).items()):
                if (inspect.isfunction(obj)
                        and obj.__module__ == "longplan.insurance"
                        and "n_draws" in inspect.signature(obj).parameters):
                    self._patch(caller, attr, f"insurance.mc.{attr}",
                                _draws(obj))
        for owner in (longplan, report):
            for attr, name in ENTRY_SPANS.items():
                if attr in vars(owner):
                    self._patch(owner, attr, name)
        for attr, obj in list(vars(report).items()):
            if (inspect.isfunction(obj) and obj.__module__ == "longplan.report"
                    and attr.startswith(("write_", "render_"))
                    and "path" in inspect.signature(obj).parameters):
                self._patch(report, attr, f"report.{attr}", _bytes_written(obj))
        self._patch(cli, "main", "cli.main")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, **header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=self.spans), fh)


def _iterations(args, kwargs, result):
    return {"iterations": int(getattr(result, "iterations", 0))}


def _draws(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        return {"draws": int(signature.bind(*args, **kwargs).arguments["n_draws"])}

    return count


def _bytes_written(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {"bytes": os.path.getsize(path)}

    return count


# -- analysis ---------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative seconds per top-level module from ``-X importtime`` output."""
    times: dict[str, float] = {}
    for line in stderr_text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            times[match.group(4)] = int(match.group(2)) * 1e-6
    return times


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    One thread records the spans, so children never overlap each other and
    always lie inside their parent.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation; 0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-layer metrics, per traced operation unless the name says otherwise."""
    own = self_times(spans)

    def named(prefix):
        return [s for s in spans if s["name"] == prefix
                or s["name"].startswith(prefix + ".")]

    def total(prefix, key=None):
        return sum((s[key] if key else s["end"] - s["start"])
                   for s in named(prefix))

    def per_op(value):
        return value / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["market.load_returns_s"] = per_op(total("market.load_returns"))
    m["market.estimate_stats_s"] = per_op(total("market.estimate_stats"))
    m["closed_form.frontier_constants_s"] = per_op(
        total("closed_form.frontier_constants"))
    m["long_only.max_sharpe_s"] = per_op(total("long_only.max_sharpe"))
    m["long_only.trace_frontier_s"] = per_op(total("long_only.trace_frontier"))
    m["long_only.self_s"] = per_op(sum(own[s["id"]] for s in named("long_only")))
    frontier_ids = {s["id"] for s in named("long_only.trace_frontier")}
    m["long_only.qp_calls"] = per_op(sum(
        1 for s in named("qp.long_only") if _has_ancestor(s, frontier_ids, spans)))
    for tag in ("long_only", "lifecycle"):
        solve_s = total(f"qp.{tag}")
        iterations = total(f"qp.{tag}", "iterations")
        m[f"qp.{tag}.calls"] = per_op(len(named(f"qp.{tag}")))
        m[f"qp.{tag}.iterations"] = per_op(iterations)
        m[f"qp.{tag}.solve_s"] = per_op(solve_s)
        m[f"qp.{tag}.s_per_iteration"] = ratio(solve_s, iterations)
    plans = len(named("lifecycle.solve"))
    branch_s = [s["end"] - s["start"] for s in named("qp.lifecycle")]
    m["lifecycle.solve_s"] = per_op(total("lifecycle.solve"))
    m["lifecycle.self_s"] = per_op(sum(own[s["id"]] for s in named("lifecycle")))
    m["lifecycle.branches"] = ratio(len(branch_s), plans)
    m["lifecycle.branch_s.p50"] = percentile(branch_s, 50)
    m["lifecycle.branch_s.p90"] = percentile(branch_s, 90)
    m["lifecycle.iterations_per_plan"] = ratio(
        total("qp.lifecycle", "iterations"), plans)
    m["insurance.mc_s"] = per_op(total("insurance.mc"))
    m["insurance.draws"] = per_op(total("insurance.mc", "draws"))
    m["report.write_s"] = per_op(total("report"))
    m["report.bytes_written"] = per_op(total("report", "bytes"))
    m["cli.main_s"] = per_op(total("cli.main"))
    return m


def _has_ancestor(span, ids, spans) -> bool:
    parent = span["parent"]
    while parent is not None:
        if parent in ids:
            return True
        parent = spans[parent]["parent"]
    return False

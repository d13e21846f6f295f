"""Traced layers and the per-layer metrics derived from their spans.

Layers are polarlink's modules.  Each traced function gets one span name;
``fit_fringe`` and ``corrected_fit`` share ``analysis.fit``.
"""

from __future__ import annotations

import math
import statistics

from spans import OpAccount, Target


def _steps(args, kwargs, result):
    return {"steps": len(args[2])}  # rotation_walk(rotation, axes, angles, stride)


def _advance_sim(args, kwargs, result):
    return {"sim_s": float(args[1])}  # FiberChannel.advance(self, duration)


def _probe_sim(args, kwargs, result):
    return {"sim_s": float(args[2])}  # probe_trace(self, sop, duration, dt)


def _session(args, kwargs, result):
    return {"outcome": result.outcome, "iterations": result.iterations}


def _windows(args, kwargs, result):
    return {"windows": len(result)}


TARGETS = (
    Target("polmath.PolTransform.init", "polarlink.polmath", "PolTransform.__post_init__"),
    Target("apc.Controller.to_transform", "polarlink.apc", "Controller.to_transform"),
    Target("_kernels.rotation_walk", "polarlink._kernels", "rotation_walk", _steps),
    Target("channel.advance", "polarlink.channel", "FiberChannel.advance", _advance_sim),
    Target("channel.probe_trace", "polarlink.channel", "FiberChannel.probe_trace", _probe_sim),
    Target("apc.run_session", "polarlink.apc", "run_session", _session),
    Target("apc.compensation_step", "polarlink.apc", "compensation_step"),
    Target("apc.cost", "polarlink.apc", "cost"),
    Target("apc.measure_fidelities", "polarlink.apc", "measure_fidelities"),
    Target("scheduler.run_link", "polarlink.scheduler", "run_link"),
    Target("scheduler.simulate_window_counts", "polarlink.scheduler", "simulate_window_counts", _windows),
    Target("source.port_rates", "polarlink.source", "port_rates"),
    Target("source.expected_coincidence_rate", "polarlink.source", "expected_coincidence_rate"),
    Target("analysis.longrun_series", "polarlink.analysis", "longrun_series"),
    Target("analysis.fit", "polarlink.analysis", "fit_fringe"),
    Target("analysis.fit", "polarlink.analysis", "corrected_fit"),
    Target("cli.load_config", "polarlink.cli", "load_config"),
    Target("cli.median_crossing_time", "polarlink.cli", "median_crossing_time"),
)

SPAN_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS))
# Time in cli.main outside every traced call: argument parsing, the --seeds
# fan-out and the CSV/JSON writes done inline in the cmd_* functions.
REMAINDER = "cli.op"

# Counters that must repeat exactly whenever the same op input runs again.
COUNTERS = tuple(f"{n}.calls" for n in SPAN_NAMES) + (
    "_kernels.rotation_walk.steps",
    "apc.sessions.skipped",
    "apc.sessions.converged",
    "apc.sessions.timeout",
    "apc.iterations",
    "scheduler.windows",
    "cli.out_bytes",
)

# Per-layer metrics of a traced run, by name and unit, in report order.  Self
# times are shares of the traced op time, so a layer a workload never enters
# reads 0 rather than a constant time; the report also prints them in seconds.
PER_LAYER = (
    tuple((c, "B" if c == "cli.out_bytes" else "count") for c in COUNTERS)
    + (("apc.cost_per_step", "count"), ("apc.converged_frac", "frac"))
    + tuple((f"{n}.self_frac", "frac") for n in SPAN_NAMES + (REMAINDER,))
    + (
        ("_kernels.rotation_walk.ns_per_step", "ns"),
        ("cli.load_config_s", "s"),
        ("trace.op_s_p50", "s"),
        ("trace.overhead_frac", "frac"),
    )
)


def op_layers(spans, acc: OpAccount, wall_s: float, out_bytes: int) -> dict:
    """Per-layer quantities of one traced op (times in CPU seconds, but ``op_s``)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    values = {
        "_kernels.rotation_walk.steps": 0,
        "apc.sessions.skipped": 0,
        "apc.sessions.converged": 0,
        "apc.sessions.timeout": 0,
        "apc.iterations": 0,
        "scheduler.windows": 0,
        "channel.sim_s": 0.0,
        "cli.load_config_s": 0.0,
    }
    sessions = []
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += acc.self_s[s.span_id]
        a = s.attrs
        if s.name == "cli.load_config":
            values["cli.load_config_s"] += s.duration
        if a is None:
            continue
        if "steps" in a:
            values["_kernels.rotation_walk.steps"] += a["steps"]
        if "sim_s" in a:
            values["channel.sim_s"] += a["sim_s"]
        if "outcome" in a:
            values[f"apc.sessions.{a['outcome']}"] += 1
            values["apc.iterations"] += a["iterations"]
            sessions.append(s.duration)
        if "windows" in a:
            values["scheduler.windows"] += a["windows"]
    for n in SPAN_NAMES:
        values[f"{n}.calls"] = calls[n]
        values[f"{n}.self_s"] = self_s[n]
    values[f"{REMAINDER}.self_s"] = acc.remainder_s
    values["cli.out_bytes"] = out_bytes
    values["op_cpu_s"] = acc.op_seconds
    values["op_s"] = wall_s
    values["session_s"] = sessions
    return values


def counters(layers: dict) -> dict:
    return {c: layers[c] for c in COUNTERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(ops: list[dict], untraced_op_s: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (per-op means) plus report-only extras."""
    n = len(ops)

    def mean(key):
        return sum(o[key] for o in ops) / n

    op_s = [o["op_s"] for o in ops]
    metrics = {c: mean(c) for c in COUNTERS}
    metrics["apc.cost_per_step"] = _ratio(
        metrics["apc.cost.calls"], metrics["apc.compensation_step.calls"]
    )
    metrics["apc.converged_frac"] = _ratio(
        metrics["apc.sessions.converged"],
        metrics["apc.sessions.converged"] + metrics["apc.sessions.timeout"],
    )
    total_cpu = sum(o["op_cpu_s"] for o in ops)
    for name in SPAN_NAMES + (REMAINDER,):
        metrics[f"{name}.self_frac"] = sum(o[f"{name}.self_s"] for o in ops) / total_cpu
    walk_s = sum(o["_kernels.rotation_walk.self_s"] for o in ops)
    metrics["_kernels.rotation_walk.ns_per_step"] = 1e9 * _ratio(
        walk_s, sum(o["_kernels.rotation_walk.steps"] for o in ops)
    )
    metrics["cli.load_config_s"] = mean("cli.load_config_s")
    metrics["trace.op_s_p50"] = statistics.median(op_s)
    metrics["trace.overhead_frac"] = metrics["trace.op_s_p50"] / statistics.median(untraced_op_s) - 1.0
    sessions = sorted(d for o in ops for d in o["session_s"])
    extras = {
        "self_s": {name: mean(f"{name}.self_s") for name in SPAN_NAMES + (REMAINDER,)},
        "channel.sim_s": mean("channel.sim_s"),
        "apc.session_s": sessions,
        "traced_ops": n,
    }
    return metrics, extras


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]

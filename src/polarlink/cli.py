"""Scenario runner: probe, fringe, longrun and calibrate experiments.

Configuration comes from a YAML file; every run is fully determined by
(config, seed).  Outputs are CSV tables plus a JSON summary that embeds the
resolved configuration so any run can be reproduced from its own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, analysis, apc, channel, source
# run_session stays importable from cli, where perfbench's tracer wraps it.
from .apc import ApcConfig, Controller, run_session, write_sessions_csv  # noqa: F401
from .channel import (
    Burst,
    ChannelError,
    DriftSchedule,
    FiberChannel,
    first_crossing_time,
    probe_crossing_times,
    spawned_generators,
)
from .polmath import AnalyzerSetting, StokesVector, TwoQubitPolState
from .scheduler import (
    SchedulerConfig,
    SchedulerError,
    run_link,
    simulate_window_counts,
    uptime_fraction,
    write_timeline_csv,
)
from .source import DetectionChain, PairSource

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3

SCENARIOS = ("probe", "fringe", "longrun", "calibrate")

NIST_BASES = (("H", 0.0), ("D", 45.0), ("V", 90.0), ("A", 135.0))
UMD_SWEEP_DEG = tuple(float(a) for a in range(0, 181, 10))

# Largest mean count a window may have: numpy's Poisson draw refuses means
# above about 9.2e18, and this leaves room for rounding in the port rates.
MAX_WINDOW_MEAN = 1e18
# Most calibration seeds; each holds a generator and a walk row in every
# bisection step.  At 2,000 seeds a calibration takes about 14 MB, and a step
# about 0.08 s, or 0.35 s where the walk runs all 800 samples (2-core x86-64).
MAX_CALIBRATE_SEEDS = 10**4


class ConfigError(ValueError):
    """Invalid configuration value; message carries the field path."""


class CalibrationError(RuntimeError):
    """Calibration search failed to converge."""


_NOUNS = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string"}
_NOUNS.update({dict: "a mapping", list: "a list"})
_REQUIRED = object()


def _check(kind: type, value, path: str):
    """``value`` if it is a ``kind``, else ConfigError naming ``path``.

    A float field takes any finite number, returned as a float, and numeric
    strings, since PyYAML reads ``2.0e5`` as a string.  A bool is no number.
    """
    if kind is float and not isinstance(value, bool):
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        if isinstance(value, float) and math.isfinite(value):
            return value
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{path} must be {_NOUNS[kind]}, got {value!r}")


def _schedule(value, path: str) -> dict:
    """The schedule block, checked against the fields its ``kind`` reads."""
    kind = _check(dict, value, path).get("kind", "constant")
    if not isinstance(kind, str) or kind not in _SCHEDULES:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    return _resolve_block({"kind": (str, kind), **_SCHEDULES[kind], "bursts": _BURSTS}, value, path)


def _fields_of(cls) -> dict:
    """The fields of a dataclass and their defaults, as schema entries."""
    return {
        f.name: (
            bool if isinstance(f.default, bool) else float,
            _REQUIRED if f.default is dataclasses.MISSING else f.default,
        )
        for f in dataclasses.fields(cls)
    }


# Every config field.  A nested dict is a block.  A field is (kind, default):
# kind is a type, a one-block list for a list of such blocks, or a converter
# function.  A callable default is computed from the fields before it in its
# block, and _REQUIRED marks a field without a default.
_BURSTS = ([_fields_of(Burst)], [])
_SEGMENT = {"start_s": (float, _REQUIRED), "rate": (float, _REQUIRED)}
_SCHEDULES = {  # each kind also reads "bursts"
    "constant": {"rate": (float, 0.0)},
    "day_night": {
        "day_rate": (float, channel.DAY_RATE),
        "night_rate": (float, lambda block: block["day_rate"] / 500.0),
        "day_start_s": (float, 6 * 3600.0),
        "night_start_s": (float, 18 * 3600.0),
        "period_s": (float, 86400.0),
    },
    "segments": {"segments": ([_SEGMENT], _REQUIRED), "period_s": (float, 86400.0)},
}
_SCHEMA = {
    "scenario": (str, None),
    "seed": (int, 0),
    "duration_s": (float, None),  # required by probe and longrun only
    "time_compression": (float, 1.0),
    "channel": {
        "loss_db": (float, channel.DEFAULT_LOSS_DB),
        "max_step_s": (float, channel.MAX_STEP_S),
        "schedule": (_schedule, {}),
    },
    "source": {"local_pair_rate": (float, source.DEFAULT_PAIR_RATE), "visibility": (float, 1.0)},
    # Efficiencies default to 1.0, not DetectionChain's 0.70, so counts follow
    # the loss-only pair-rate budget.
    "detection": {
        "signal_efficiency": (float, 1.0),
        "idler_efficiency": (float, 1.0),
        "dark_rate": (float, 0.0),
        "coincidence_window": (float, source.DEFAULT_COINCIDENCE_WINDOW),
    },
    "apc": _fields_of(ApcConfig),
    "scheduler": _fields_of(SchedulerConfig),
    "probe": {"sample_dt_s": (float, 0.1)},
    "fringe": {"noiseless": (bool, False)},
    "calibrate": {
        "target_fidelity": (float, 0.95),
        "target_time_s": (float, 20.0),
        "n_seeds": (int, 200),
        "tolerance": (float, 0.05),
        "night_ratio": (float, 500.0),
    },
}


def _resolve_block(schema: dict, block, path: str) -> dict:
    block = {} if block is None else _check(dict, block, path)
    for key in block:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown field".lstrip("."))
    out = {}
    for key, spec in schema.items():
        field = f"{path}.{key}".lstrip(".")
        if isinstance(spec, dict):
            out[key] = _resolve_block(spec, block.get(key), field)
            continue
        kind, default = spec
        value = block.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required config field: {field}")
        if callable(value):
            value = value(out)
        if value is None and default is None:
            out[key] = None
        elif isinstance(kind, list):
            entries = enumerate(_check(list, value, field))
            out[key] = [_resolve_block(kind[0], entry, f"{field}[{i}]") for i, entry in entries]
        else:
            out[key] = _check(kind, value, field) if isinstance(kind, type) else kind(value, field)
    return out


def resolve_config(cfg) -> dict:
    """``cfg`` as a plain dict with every default filled in.

    Raises ConfigError naming the field path for an unknown key, a value of
    the wrong type or a non-finite number.  Idempotent, so the config that a
    run embeds in its ``summary.json`` reproduces the run.
    """
    return _resolve_block(_SCHEMA, _check(dict, cfg, "config root"), "")


def load_config(path) -> dict:
    """The resolved config read from the YAML file at ``path``."""
    try:
        with open(path) as f:
            cfg = yaml.safe_load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    return resolve_config({} if cfg is None else cfg)


def _require(ok: bool, field: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{field} must be {rule}, got {value!r}")


def _check_ranges(cfg: dict, scenario: str) -> None:
    """Refuse a resolved config with a value out of range, naming its field path.

    Every range rule of the config lives here, and every run passes through
    it before it makes anything, its run directory included; the objects
    built from the config do not check their fields again.  Only
    ``duration_s`` depends on the scenario.
    """
    c = cfg["time_compression"]
    _require(c >= 1, "time_compression", ">= 1", c)
    if scenario in ("probe", "longrun"):
        duration = cfg["duration_s"]
        if duration is None:
            raise ConfigError("missing required config field: duration_s")
        _require(duration >= 0, "duration_s", ">= 0", duration)
        if scenario == "probe":
            _require(duration > 0, "duration_s", "> 0 for a probe trace", duration)
    block = cfg["channel"]
    _require(block["loss_db"] >= 0, "channel.loss_db", ">= 0", block["loss_db"])
    _require(block["max_step_s"] > 0, "channel.max_step_s", "> 0", block["max_step_s"])
    # The schedule's time rules read each time as the channel gets it, divided
    # by time_compression, so one that underflows there is refused; the
    # message quotes it as written.
    block, path = block["schedule"], "channel.schedule"
    divided = " after dividing by time_compression"
    for i, burst in enumerate(block["bursts"]):
        for key in ("duration_s", "multiplier"):
            _require(burst[key] >= 0, f"{path}.bursts[{i}].{key}", ">= 0", burst[key])
    if block["kind"] == "constant":
        _require(block["rate"] >= 0, f"{path}.rate", ">= 0", block["rate"])
    elif block["kind"] == "day_night":
        for key in ("day_rate", "night_rate"):
            _require(block[key] >= 0, f"{path}.{key}", ">= 0", block[key])
        day, night, period = (block[k] / c for k in ("day_start_s", "night_start_s", "period_s"))
        rule = "in [0, night_start_s)" + divided
        _require(0.0 <= day < night, f"{path}.day_start_s", rule, block["day_start_s"])
        rule = "> night_start_s" + divided
        _require(night < period, f"{path}.period_s", rule, block["period_s"])
    else:
        period = block["period_s"] / c
        _require(period > 0, f"{path}.period_s", "> 0" + divided, block["period_s"])
        segments = block["segments"]
        _require(segments != [], f"{path}.segments", "a non-empty list", segments)
        previous = None
        for i, segment in enumerate(segments):
            field, start = f"{path}.segments[{i}]", segment["start_s"] / c
            _require(segment["rate"] >= 0, f"{field}.rate", ">= 0", segment["rate"])
            if previous is None:
                _require(start == 0.0, f"{field}.start_s", "0" + divided, segment["start_s"])
            else:
                rule = f"in (segments[{i - 1}].start_s, period_s)" + divided
                _require(previous < start < period, f"{field}.start_s", rule, segment["start_s"])
            previous = start
    rate, visibility = cfg["source"]["local_pair_rate"], cfg["source"]["visibility"]
    _require(rate > 0, "source.local_pair_rate", "> 0", rate)
    _require(0.0 <= visibility <= 1.0, "source.visibility", "in [0, 1]", visibility)
    block = cfg["detection"]
    for key in ("signal_efficiency", "idler_efficiency"):
        _require(0.0 <= block[key] <= 1.0, f"detection.{key}", "in [0, 1]", block[key])
    _require(block["dark_rate"] >= 0, "detection.dark_rate", ">= 0", block["dark_rate"])
    window = block["coincidence_window"]
    _require(window > 0, "detection.coincidence_window", "> 0", window)
    block = cfg["apc"]
    check, target = block["check_threshold"], block["target_threshold"]
    _require(0.0 < check <= target, "apc.check_threshold", "in (0, apc.target_threshold]", check)
    _require(target < 1.0, "apc.target_threshold", "< 1", target)
    for key in ("timeout_s", "step_size", "fd_delta", "cycle_time_s"):
        _require(block[key] > 0, f"apc.{key}", "> 0", block[key])
    cycles = block["timeout_s"] / block["cycle_time_s"]
    rule = f"<= {apc.MAX_SESSION_CYCLES:,} cycles"
    _require(cycles <= apc.MAX_SESSION_CYCLES, "apc.timeout_s / cycle_time_s", rule, cycles)
    block = cfg["scheduler"]
    window = block["measure_window_s"]
    rule = "in (0, scheduler.uptime_window_s]"
    _require(0.0 < window <= block["uptime_window_s"], "scheduler.measure_window_s", rule, window)
    # The fringe fit divides each rate's variance by the window's square,
    # which must be a normal float: a zero or subnormal one loses the weights.
    rule = "at least about 1.5e-154 s (its square underflows)"
    _require(window * window >= sys.float_info.min, "scheduler.measure_window_s", rule, window)
    sample_dt = cfg["probe"]["sample_dt_s"]
    _require(sample_dt > 0, "probe.sample_dt_s", "> 0", sample_dt)
    block = cfg["calibrate"]
    n_seeds = block["n_seeds"]
    rule = f"in [1, {MAX_CALIBRATE_SEEDS:,}]"
    _require(1 <= n_seeds <= MAX_CALIBRATE_SEEDS, "calibrate.n_seeds", rule, n_seeds)
    fidelity = block["target_fidelity"]
    _require(0.0 < fidelity <= 1.0, "calibrate.target_fidelity", "in (0, 1]", fidelity)
    for key in ("target_time_s", "tolerance", "night_ratio"):
        _require(block[key] > 0, f"calibrate.{key}", "> 0", block[key])
    # Below fidelity 1 each bisection step walks 4 x target_time_s in samples of
    # MAX_STEP_S, one walk step each, counted as _probe_grid counts them.
    walk = 4.0 * block["target_time_s"]
    if fidelity < 1.0 and not walk / channel.MAX_STEP_S <= channel.MAX_WALK_STEPS:
        raise ConfigError(
            f"calibrate.target_time_s makes a walk too long: {walk:g} s in "
            f"{channel.MAX_STEP_S:g} s steps is over {channel.MAX_WALK_STEPS:,} steps"
        )
    # The bisection's rate is at most 1, so night_rate = day_rate / night_ratio stays finite.
    ratio = block["night_ratio"]
    rule = "large enough that 1 / night_ratio is finite"
    _require(math.isfinite(1.0 / ratio), "calibrate.night_ratio", rule, ratio)


def build_channel(cfg: dict, rng: np.random.Generator) -> FiberChannel:
    """Build the channel, compressing the time axis of the drift cycle.

    Segment boundaries, the period and burst start times are divided by
    ``time_compression``; diffusion rates and burst durations are untouched,
    so per-session drift statistics match the uncompressed link.
    """
    c, block = cfg["time_compression"], cfg["channel"]
    sched = block["schedule"]
    bursts = [Burst(b["start_s"] / c, b["duration_s"], b["multiplier"]) for b in sched["bursts"]]
    if sched["kind"] == "constant":
        schedule = DriftSchedule.constant(sched["rate"], bursts=bursts)
    elif sched["kind"] == "day_night":
        schedule = DriftSchedule.day_night(
            day_rate=sched["day_rate"],
            night_rate=sched["night_rate"],
            day_start_s=sched["day_start_s"] / c,
            night_start_s=sched["night_start_s"] / c,
            period_s=sched["period_s"] / c,
            bursts=bursts,
        )
    else:
        segments = tuple((s["start_s"] / c, s["rate"]) for s in sched["segments"])
        schedule = DriftSchedule(segments, sched["period_s"] / c, tuple(bursts))
    return FiberChannel(schedule, rng, loss_db=block["loss_db"], max_step_s=block["max_step_s"])


def build_link(cfg: dict, rng: np.random.Generator) -> tuple:
    """The channel, pair source, detection chain, APC and scheduler settings."""
    ch = build_channel(cfg, rng)
    src = cfg["source"]
    return (
        ch,
        PairSource(src["local_pair_rate"], TwoQubitPolState(src["visibility"])),
        DetectionChain(ch.transmittance(), **cfg["detection"]),
        ApcConfig(**cfg["apc"]),
        SchedulerConfig(**cfg["scheduler"]),
    )


def _resolved_duration(cfg: dict) -> float:
    """``duration_s`` on the compressed time axis."""
    return cfg["duration_s"] / cfg["time_compression"]


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_summary(path: Path, cfg: dict, seed: int, payload: dict) -> None:
    _write_json(path, {**payload, "config": cfg, "seed": seed, "polarlink_version": __version__})


def cmd_probe(cfg: dict, seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    ch = build_channel(cfg, rng)
    times, stokes, fidelity = ch.probe_trace(
        StokesVector(1, 0, 0), _resolved_duration(cfg), cfg["probe"]["sample_dt_s"]
    )
    with open(out / "probe.csv", "w", newline="") as f:
        f.write("t_s,s1,s2,s3,fidelity\n")
        for t, s, fid in zip(times, stokes, fidelity):
            f.write(f"{t:.6f},{s[0]:.9f},{s[1]:.9f},{s[2]:.9f},{fid:.9f}\n")
    crossing = first_crossing_time(times, fidelity, 0.95)
    summary = {
        "scenario": "probe",
        "min_fidelity": float(fidelity.min()),
        "first_crossing_below_0p95_s": crossing,
    }
    _write_summary(out / "summary.json", cfg, seed, summary)
    return summary


def _measure(cfg: dict, seed: int, plan=None, noiseless: bool = False):
    """Run the seeded link along ``plan`` (to its end; with none, for duration_s)
    and sample every window's counts after the walk, from the same rng."""
    rng = np.random.default_rng(seed)
    ch, src, chain, apc_cfg, sched_cfg = build_link(cfg, rng)
    duration = math.inf if plan is not None else _resolved_duration(cfg)
    # A port's coincidence probability is at most 1/2, so no window's mean
    # count exceeds this.
    pairs = src.local_pair_rate * chain.idler_transmittance
    pairs *= chain.signal_efficiency * chain.idler_efficiency
    largest_mean = (pairs + source.accidental_rate(src, chain)) * sched_cfg.measure_window_s
    fields = (
        "source.local_pair_rate, detection.dark_rate, detection.coincidence_window or"
        " scheduler.measure_window_s"
    )
    # Noiseless counts are the means themselves, which need only be finite.
    if not math.isfinite(largest_mean):
        raise ConfigError(f"{fields} make a window's mean count overflow to {largest_mean}")
    if not noiseless and not largest_mean <= MAX_WINDOW_MEAN:
        raise ConfigError(
            f"{fields} make a window's mean count up to {largest_mean:.3g},"
            f" over the {MAX_WINDOW_MEAN:.0e} that can be drawn"
        )
    try:
        windows = run_link(ch, Controller(), apc_cfg, sched_cfg, duration, rng, plan=plan)
    except SchedulerError as e:  # the window cap; the settings were checked in _check_ranges
        raise ConfigError(
            "duration_s, time_compression, scheduler.uptime_window_s or apc.cycle_time_s"
            f" make too many windows: {e}"
        ) from e
    return windows, simulate_window_counts(windows, src, chain, sched_cfg, rng, noiseless)


def cmd_fringe(cfg: dict, seed: int, out: Path) -> dict:
    bases = [AnalyzerSetting(basis_deg) for _, basis_deg in NIST_BASES]
    plan = [(basis, AnalyzerSetting(angle)) for basis in bases for angle in UMD_SWEEP_DEG]
    windows, counts = _measure(cfg, seed, plan, cfg["fringe"]["noiseless"])
    duration = cfg["scheduler"]["measure_window_s"]
    # Pass/pass counts at the sweep's own angles (AnalyzerSetting reads 180 as 0).
    points = [
        analysis.FringePoint(angle, c[0].item(), duration, w.post_timeout)
        for angle, w, c in zip(UMD_SWEEP_DEG * len(bases), windows, counts)
    ]
    n = len(UMD_SWEEP_DEG)
    datasets = [
        analysis.FringeDataset(basis, tuple(points[i * n : i * n + n]))
        for i, basis in enumerate(bases)
    ]
    analysis.write_fringe_csv(out / "fringe.csv", datasets)
    write_sessions_csv(out / "sessions.csv", [w.session for w in windows])
    fits = [analysis.fit_fringe(d) for d in datasets]
    result = analysis.chsh_from_visibilities(fits)
    analysis.write_chsh_json(out / "chsh.json", result)
    summary = {"scenario": "fringe", "chsh": analysis.chsh_result_to_dict(result)}
    if any(w.post_timeout for w in windows):
        corrected = analysis.chsh_from_visibilities(
            [analysis.corrected_fit(d) for d in datasets], corrected=True
        )
        analysis.write_chsh_json(out / "chsh_corrected.json", corrected)
        summary["chsh_corrected"] = analysis.chsh_result_to_dict(corrected)
    _write_summary(out / "summary.json", cfg, seed, summary)
    return summary


def cmd_longrun(cfg: dict, seed: int, out: Path) -> dict:
    windows, counts = _measure(cfg, seed)
    summary: dict = {"scenario": "longrun", "stabilized": cfg["scheduler"]["stabilized"]}
    if not windows:
        for name in ("timeline.csv", "series.csv", "sessions.csv"):
            (out / name).write_text("")
        _write_summary(out / "summary.json", cfg, seed, summary)
        return summary
    series = analysis.longrun_series(windows, counts)
    sessions = [w.session for w in windows]
    write_timeline_csv(out / "timeline.csv", windows)
    write_sessions_csv(out / "sessions.csv", sessions)
    with open(out / "series.csv", "w", newline="") as f:
        f.write("t_s,min_ref_fidelity,S,sigma_S,compensation_time_s,post_timeout\n")
        for p in series:
            f.write(
                f"{p.time_s:.6f},{p.min_ref_fidelity:.9f},{p.s_value:.6f},"
                f"{p.sigma_s:.6f},{p.compensation_time_s:.6f},{int(p.post_timeout)}\n"
            )
    outcomes = [r.outcome for r in sessions]
    summary["uptime_fraction"] = uptime_fraction(windows)
    summary["n_sessions"] = n = len(outcomes)
    for outcome in (apc.OUTCOME_SKIPPED, apc.OUTCOME_CONVERGED, apc.OUTCOME_TIMEOUT):
        summary[f"fraction_{outcome}"] = outcomes.count(outcome) / n
    if series:
        stats = analysis.summarize_longrun(series)
        summary["mean_S"] = stats.mean_s
        summary["std_S"] = stats.std_s
        summary["corrected_mean_S"] = stats.corrected_mean_s
        summary["corrected_std_S"] = stats.corrected_std_s
        summary["n_groups"] = stats.n_groups
        summary["n_excluded_groups"] = stats.n_excluded
    _write_summary(out / "summary.json", cfg, seed, summary)
    return summary


def median_crossing_time(
    rate: float,
    threshold: float,
    n_seeds: int,
    max_time_s: float,
    seed: int,
    sample_dt: float = 0.1,
    horizon: float = math.inf,
) -> float:
    """Median first time the probe fidelity drops below ``threshold``, if at most ``horizon``.

    Seeds that never cross within ``max_time_s`` count as ``max_time_s``.
    Returns the exact median when it is <= ``horizon``, and math.inf
    otherwise.  The walk stops once ``n_seeds // 2 + 1`` seeds have crossed:
    a seed still to cross crosses later, or counts as ``max_time_s``, which
    lies past every sample but the last, so the median is fixed bit for bit.
    It also stops at the horizon once the median lies past it; the median
    then reads ``max_time_s``, past the horizon unless the walk had ended.
    """
    rngs = spawned_generators(seed, n_seeds)
    stop_after = n_seeds // 2 + 1
    times = probe_crossing_times(
        DriftSchedule.constant(rate), rngs, max_time_s, sample_dt, threshold, stop_after, horizon
    )
    median = float(np.median(np.where(np.isnan(times), max_time_s, times)))
    return median if median <= horizon else math.inf


def cmd_calibrate(cfg: dict, seed: int, out: Path) -> dict:
    settings = cfg["calibrate"]
    target_fidelity, target_time = settings["target_fidelity"], settings["target_time_s"]
    n_seeds = settings["n_seeds"]
    if target_fidelity == 1.0:
        day_rate, median = 0.0, target_time
    else:
        max_time = 4.0 * target_time
        band = 0.5 * settings["tolerance"] * target_time
        # Past the horizon a median is above the band as the test below rounds
        # it: median - target_time is exact up to twice the target, and over
        # target_time > band beyond.  (target_time * (1 + tolerance / 2) can
        # round below a median in the band: 30.75 s at 30 s and 0.05.)
        horizon = target_time + band if band < target_time else math.inf
        lo, hi = 1e-5, 1.0
        day_rate, median = None, None
        for iteration in range(40):
            mid = float(np.sqrt(lo * hi))
            median = median_crossing_time(
                mid, target_fidelity, n_seeds, max_time, seed + iteration, horizon=horizon
            )
            if abs(median - target_time) <= band:
                day_rate = mid
                break
            if median > target_time:
                lo = mid
            else:
                hi = mid
        if day_rate is None:
            last = f"{median:.2f} s" if median <= horizon else f"over {horizon:.2f} s"
            raise CalibrationError(
                f"calibration did not converge (last median {last} "
                f"for target {target_time:.2f} s)"
            )
    payload = {
        "scenario": "calibrate",
        "day_rate": day_rate,
        "night_rate": day_rate / settings["night_ratio"] if day_rate else 0.0,
        "target_fidelity": target_fidelity,
        "target_time_s": target_time,
        "achieved_median_s": median,
        "n_seeds": n_seeds,
    }
    _write_json(out / "schedule.json", payload)
    _write_summary(out / "summary.json", cfg, seed, payload)
    return payload


# Each scenario's command and the config fields that set how long its channel walks are.
_COMMANDS = {
    "probe": (cmd_probe, "duration_s, probe.sample_dt_s or channel.max_step_s"),
    "fringe": (cmd_fringe, "apc.cycle_time_s, scheduler.uptime_window_s or channel.max_step_s"),
    "longrun": (cmd_longrun, "apc.cycle_time_s, scheduler.uptime_window_s or channel.max_step_s"),
    "calibrate": (cmd_calibrate, "calibrate.target_time_s"),
}


def _run_one(scenario: str, cfg: dict, seed: int, out: Path) -> dict:
    cfg = resolve_config(cfg)
    _check_ranges(cfg, scenario)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way, or no permission
        raise ConfigError(f"--out: {e}") from e
    command, walk_fields = _COMMANDS[scenario]
    try:
        return command(cfg, seed, out)
    except ChannelError as e:  # the walk cap; _check_ranges refused the rest
        raise ConfigError(f"{walk_fields} makes a walk too long: {e}") from e


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarlink",
        description="Polarization-stabilized entanglement-link simulator.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--seeds", type=int, default=1, help="fan out N seeded runs")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["scenario"] not in (None, args.scenario):
            raise ConfigError(
                f"scenario: config declares {cfg['scenario']!r} but {args.scenario!r} was requested"
            )
        seed, name = (cfg["seed"], "seed") if args.seed is None else (args.seed, "--seed")
        if seed < 0:
            raise ConfigError(f"{name} must be >= 0, got {seed}")
        if args.seeds < 1:
            raise ConfigError("--seeds must be >= 1")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out = Path(args.out)
    try:
        if args.seeds == 1:
            summary = _run_one(args.scenario, cfg, seed, out)
            print(json.dumps({k: v for k, v in summary.items() if k != "config"}, sort_keys=True))
        else:
            seeds = [seed + i for i in range(args.seeds)]
            results = [_run_one(args.scenario, cfg, s, out / f"seed_{s:04d}") for s in seeds]
            aggregate = {"scenario": args.scenario, "seeds": seeds, "runs": results}
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "aggregate.json", aggregate)
            print(json.dumps({"scenario": args.scenario, "n_runs": len(results)}))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (CalibrationError, analysis.FitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

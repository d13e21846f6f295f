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

from . import __version__, analysis, apc, channel, scheduler, source
# run_session and median_crossing_time stay importable from cli for perfbench's tracer.
from .apc import ApcConfig, Controller, run_session, write_sessions_csv  # noqa: F401
from .calibrate import MAX_CALIBRATE_SEEDS, CalibrationError, bisect_day_rate
from .calibrate import median_crossing_time  # noqa: F401
from .channel import Burst, DriftSchedule, FiberChannel, first_crossing_time
from .polmath import AnalyzerSetting, StokesVector, TwoQubitPolState
from .scheduler import (
    SchedulerConfig,
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


class ConfigError(ValueError):
    """Invalid configuration value; message carries the field path."""


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


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a repeated key, whose earlier value YAML drops.

    ``<<`` merge keys load as SafeLoader loads them.
    """

    def construct_mapping(self, node, deep=False):
        seen = []  # a list, so that SafeLoader itself refuses an unhashable key
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark
                    )
                seen.append(key)
        return super().construct_mapping(node, deep)


def load_config(path) -> dict:
    """The resolved config read from the YAML file at ``path``."""
    try:
        with open(path, "rb") as f:
            cfg = yaml.load(f, Loader=_UniqueKeyLoader)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    return resolve_config({} if cfg is None else cfg)


def _require(ok: bool, field: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{field} must be {rule}, got {value!r}")


def _capped(what: str, cap, *args) -> None:
    """Call ``cap(*args)``, a channel or scheduler cap; refuse what it refuses as ``what``."""
    try:
        cap(*args)
    except (channel.ChannelError, scheduler.SchedulerError) as e:
        raise ConfigError(f"{what}: {e}") from e


def _check_ranges(cfg: dict, scenario: str) -> None:
    """Refuse a resolved config with a value out of range, naming its field path.

    Every range rule of the config lives here, and every run passes through
    it before it makes anything, its run directory included; the objects
    built from the config do not check their fields again.  The caps on a
    walk's steps, a longrun's windows and a window's mean count come last;
    the first two call the channel's and the scheduler's own caps on the
    longest walk and the duration the scenario's link can take.
    """
    c = cfg["time_compression"]
    _require(c >= 1, "time_compression", ">= 1", c)
    # Time rules read each time as the channel gets it, divided by
    # time_compression, and their messages quote it as written.
    divided = " after dividing by time_compression"
    if scenario in ("probe", "longrun"):
        duration = cfg["duration_s"]
        if duration is None:
            raise ConfigError("missing required config field: duration_s")
        _require(duration >= 0, "duration_s", ">= 0", duration)
        if scenario == "probe":
            _require(_resolved_duration(cfg) > 0, "duration_s", "> 0" + divided, duration)
    block = cfg["channel"]
    _require(block["loss_db"] >= 0, "channel.loss_db", ">= 0", block["loss_db"])
    _require(block["max_step_s"] > 0, "channel.max_step_s", "> 0", block["max_step_s"])
    block, path = block["schedule"], "channel.schedule"
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
    if fidelity < 1.0:  # each bisection step walks 4 x target_time_s in MAX_STEP_S steps
        what = "calibrate.target_time_s makes a walk too long"
        _capped(what, channel._walk_steps, 4.0 * block["target_time_s"], channel.MAX_STEP_S)
    # The bisection's rate is at most 1, so night_rate = day_rate / night_ratio stays finite.
    ratio = block["night_ratio"]
    rule = "large enough that 1 / night_ratio is finite"
    _require(math.isfinite(1.0 / ratio), "calibrate.night_ratio", rule, ratio)
    max_step = cfg["channel"]["max_step_s"]
    if scenario == "probe":
        what = "duration_s, probe.sample_dt_s or channel.max_step_s makes a walk too long"
        _capped(what, channel._probe_grid, _resolved_duration(cfg), sample_dt, max_step)
    if scenario not in ("fringe", "longrun"):
        return
    block = cfg["scheduler"]
    cycle, uptime = cfg["apc"]["cycle_time_s"], block["uptime_window_s"]
    # A session advances 1 cycle, then 8 and 1 per iteration where it
    # actuates, and a window its uptime: each is capped, reached or not.
    longest = max(uptime, 8 * cycle if block["stabilized"] else cycle)
    what = "apc.cycle_time_s, scheduler.uptime_window_s or channel.max_step_s makes a walk too long"
    _capped(what, channel._walk_steps, longest, max_step)
    if scenario == "longrun":
        what = "duration_s, time_compression, scheduler.uptime_window_s or apc.cycle_time_s"
        what += " make too many windows"
        _capped(what, scheduler._window_cap, _resolved_duration(cfg), uptime, cycle)
    # A port's coincidence probability is at most 1/2, so no window's mean
    # count exceeds this.  The chain is build_link's.
    loss_db = cfg["channel"]["loss_db"]
    chain = DetectionChain(channel.loss_transmittance(loss_db), **cfg["detection"])
    pairs = rate * chain.idler_transmittance * (chain.signal_efficiency * chain.idler_efficiency)
    mean = (pairs + source.accidental_rate(PairSource(rate), chain)) * block["measure_window_s"]
    fields = "source.local_pair_rate, detection.dark_rate, detection.coincidence_window or"
    fields += " scheduler.measure_window_s"
    if not math.isfinite(mean):
        raise ConfigError(f"{fields} make a window's mean count overflow to {mean}")
    # Noiseless counts are the means themselves, which need only be finite.
    if not (scenario == "fringe" and cfg["fringe"]["noiseless"]) and not mean <= MAX_WINDOW_MEAN:
        raise ConfigError(
            f"{fields} make a window's mean count up to {mean:.3g},"
            f" over the {MAX_WINDOW_MEAN:.0e} that can be drawn"
        )


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
    return FiberChannel(schedule, rng, max_step_s=block["max_step_s"])


def build_link(cfg: dict, rng: np.random.Generator) -> tuple:
    """The channel, pair source, detection chain, APC and scheduler settings."""
    src = cfg["source"]
    return (
        build_channel(cfg, rng),
        PairSource(src["local_pair_rate"], TwoQubitPolState(src["visibility"])),
        DetectionChain(channel.loss_transmittance(cfg["channel"]["loss_db"]), **cfg["detection"]),
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
    windows = run_link(ch, Controller(), apc_cfg, sched_cfg, duration, rng, plan=plan)
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
    summary = {"scenario": "fringe", "chsh": analysis.chsh_result_to_dict(result)}
    _write_json(out / "chsh.json", summary["chsh"])
    if any(w.post_timeout for w in windows):
        corrected = analysis.chsh_from_visibilities(
            [analysis.corrected_fit(d) for d in datasets], corrected=True
        )
        summary["chsh_corrected"] = analysis.chsh_result_to_dict(corrected)
        _write_json(out / "chsh_corrected.json", summary["chsh_corrected"])
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


def cmd_calibrate(cfg: dict, seed: int, out: Path) -> dict:
    settings = cfg["calibrate"]
    day_rate, median = bisect_day_rate(settings, seed)
    payload = {
        "scenario": "calibrate",
        "day_rate": day_rate,
        "night_rate": day_rate / settings["night_ratio"] if day_rate else 0.0,
        "target_fidelity": settings["target_fidelity"],
        "target_time_s": settings["target_time_s"],
        "achieved_median_s": median,
        "n_seeds": settings["n_seeds"],
    }
    _write_json(out / "schedule.json", payload)
    _write_summary(out / "summary.json", cfg, seed, payload)
    return payload


_COMMANDS = dict(probe=cmd_probe, fringe=cmd_fringe, longrun=cmd_longrun, calibrate=cmd_calibrate)


def _run_one(scenario: str, cfg: dict, seed: int, out: Path) -> dict:
    cfg = resolve_config(cfg)
    _check_ranges(cfg, scenario)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[scenario](cfg, seed, out)
    except OSError as e:  # a file or directory in the way, or no permission
        raise ConfigError(f"--out: {e}") from e


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
        out = Path(args.out)
        if args.seeds == 1:
            summary = _run_one(args.scenario, cfg, seed, out)
            print(json.dumps({k: v for k, v in summary.items() if k != "config"}, sort_keys=True))
        else:
            seeds = [seed + i for i in range(args.seeds)]
            results = [_run_one(args.scenario, cfg, s, out / f"seed_{s:04d}") for s in seeds]
            aggregate = {"scenario": args.scenario, "seeds": seeds, "runs": results}
            try:  # the runs have made out
                _write_json(out / "aggregate.json", aggregate)
            except OSError as e:
                raise ConfigError(f"--out: {e}") from e
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

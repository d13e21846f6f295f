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
from .apc import ApcConfig, ApcError, Controller, run_session, write_sessions_csv  # noqa: F401
from .channel import (
    Burst,
    ChannelError,
    DriftSchedule,
    FiberChannel,
    first_crossing_time,
    probe_crossing_times,
)
from .polmath import AnalyzerSetting, PolarizationError, StokesVector, TwoQubitPolState
from .scheduler import (
    SchedulerConfig,
    SchedulerError,
    run_link,
    simulate_window_counts,
    uptime_fraction,
    write_timeline_csv,
)
from .source import DetectionChain, PairSource, SourceError

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3

SCENARIOS = ("probe", "fringe", "longrun", "calibrate")

NIST_BASES = (("H", 0.0), ("D", 45.0), ("V", 90.0), ("A", 135.0))
UMD_SWEEP_DEG = tuple(float(a) for a in range(0, 181, 10))


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


def build_channel(cfg: dict, rng: np.random.Generator) -> FiberChannel:
    """Build the channel, compressing the time axis of the drift cycle.

    Segment boundaries, the period and burst start times are divided by
    ``time_compression``; diffusion rates and burst durations are untouched,
    so per-session drift statistics match the uncompressed link.
    """
    c = cfg["time_compression"]
    if c < 1.0:
        raise ConfigError("time_compression must be >= 1")
    block, sched = cfg["channel"], cfg["channel"]["schedule"]
    bursts = []
    for i, b in enumerate(sched["bursts"]):
        try:
            bursts.append(Burst(b["start_s"] / c, b["duration_s"], b["multiplier"]))
        except ChannelError as e:  # its messages start with the field name
            raise ConfigError(f"channel.schedule.bursts[{i}].{e}") from e
    try:
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
    except ChannelError as e:
        raise ConfigError(f"channel.schedule: {e}") from e
    try:
        return FiberChannel(schedule, rng, loss_db=block["loss_db"], max_step_s=block["max_step_s"])
    except ChannelError as e:
        # FiberChannel's messages start with the name of the offending field.
        raise ConfigError(f"channel.{e}") from e


def build_link(cfg: dict, rng: np.random.Generator) -> tuple:
    """The channel, pair source, detection chain, APC and scheduler settings."""
    ch = build_channel(cfg, rng)
    builders = {
        "source": lambda b: PairSource(b["local_pair_rate"], TwoQubitPolState(b["visibility"])),
        "detection": lambda b: DetectionChain(ch.transmittance(), **b),
        "apc": lambda b: ApcConfig(**b),
        "scheduler": lambda b: SchedulerConfig(**b),
    }
    built = [ch]
    for block, build in builders.items():
        try:
            built.append(build(cfg[block]))
        except (PolarizationError, SourceError, ApcError, SchedulerError) as e:
            raise ConfigError(f"{block}: {e}") from e
    return tuple(built)


def _resolved_duration(cfg: dict) -> float:
    if cfg["duration_s"] is None:
        raise ConfigError("missing required config field: duration_s")
    if cfg["duration_s"] < 0:
        raise ConfigError("duration_s must be >= 0")
    return cfg["duration_s"] / cfg["time_compression"]


def _write_summary(path: Path, cfg: dict, seed: int, payload: dict) -> None:
    payload = {**payload, "config": cfg, "seed": seed, "polarlink_version": __version__}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_probe(cfg: dict, seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    ch = build_channel(cfg, rng)
    duration = _resolved_duration(cfg)
    if duration == 0:
        raise ConfigError("duration_s must be > 0 for a probe trace")
    sample_dt = cfg["probe"]["sample_dt_s"]
    if sample_dt <= 0:
        raise ConfigError(f"probe.sample_dt_s must be > 0, got {sample_dt!r}")
    times, stokes, fidelity = ch.probe_trace(StokesVector(1, 0, 0), duration, sample_dt)
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
    timeline = run_link(ch, Controller(), apc_cfg, sched_cfg, duration, rng, plan=plan)
    return timeline, simulate_window_counts(timeline, src, chain, sched_cfg, rng, noiseless)


def cmd_fringe(cfg: dict, seed: int, out: Path) -> dict:
    bases = [AnalyzerSetting(basis_deg) for _, basis_deg in NIST_BASES]
    plan = [(basis, AnalyzerSetting(angle)) for basis in bases for angle in UMD_SWEEP_DEG]
    timeline, windows = _measure(cfg, seed, plan, cfg["fringe"]["noiseless"])
    # Pass/pass counts at the sweep's own angles (AnalyzerSetting reads 180 as 0).
    points = [
        analysis.FringePoint(angle, w.counts[0].item(), w.duration_s, w.post_timeout)
        for angle, w in zip(UMD_SWEEP_DEG * len(bases), windows)
    ]
    n = len(UMD_SWEEP_DEG)
    datasets = [
        analysis.FringeDataset(basis, tuple(points[i * n : i * n + n]))
        for i, basis in enumerate(bases)
    ]
    analysis.write_fringe_csv(out / "fringe.csv", datasets)
    write_sessions_csv(out / "sessions.csv", timeline.sessions())
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
    timeline, windows = _measure(cfg, seed)
    summary: dict = {"scenario": "longrun", "stabilized": cfg["scheduler"]["stabilized"]}
    if not timeline.entries:
        for name in ("timeline.csv", "series.csv", "sessions.csv"):
            (out / name).write_text("")
        _write_summary(out / "summary.json", cfg, seed, summary)
        return summary
    series = analysis.longrun_series(windows)
    write_timeline_csv(out / "timeline.csv", timeline)
    write_sessions_csv(out / "sessions.csv", timeline.sessions())
    with open(out / "series.csv", "w", newline="") as f:
        f.write("t_s,min_ref_fidelity,S,sigma_S,compensation_time_s,post_timeout\n")
        for p in series:
            f.write(
                f"{p.time_s:.6f},{p.min_ref_fidelity:.9f},{p.s_value:.6f},"
                f"{p.sigma_s:.6f},{p.compensation_time_s:.6f},{int(p.post_timeout)}\n"
            )
    outcomes = [r.outcome for r in timeline.sessions()]
    summary["uptime_fraction"] = uptime_fraction(timeline)
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
) -> float:
    """Median first time the probe fidelity drops below ``threshold``.

    Seeds that never cross within ``max_time_s`` count as ``max_time_s``.
    """
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_seeds)]
    times = probe_crossing_times(
        DriftSchedule.constant(rate), rngs, max_time_s, sample_dt, threshold
    )
    return float(np.median(np.where(np.isnan(times), max_time_s, times)))


def cmd_calibrate(cfg: dict, seed: int, out: Path) -> dict:
    settings = cfg["calibrate"]
    target_fidelity, target_time = settings["target_fidelity"], settings["target_time_s"]
    n_seeds = settings["n_seeds"]
    if n_seeds < 1:
        raise ConfigError(f"calibrate.n_seeds must be >= 1, got {n_seeds!r}")
    if not 0.0 < target_fidelity <= 1.0:
        raise ConfigError("calibrate.target_fidelity must be in (0, 1]")
    for key in ("target_time_s", "tolerance", "night_ratio"):
        if settings[key] <= 0:
            raise ConfigError(f"calibrate.{key} must be > 0, got {settings[key]!r}")
    if target_fidelity == 1.0:
        day_rate, median = 0.0, target_time
    else:
        max_time = 4.0 * target_time
        lo, hi = 1e-5, 1.0
        day_rate, median = None, None
        for iteration in range(40):
            mid = float(np.sqrt(lo * hi))
            median = median_crossing_time(
                mid, target_fidelity, n_seeds, max_time, seed + iteration
            )
            if abs(median - target_time) <= 0.5 * settings["tolerance"] * target_time:
                day_rate = mid
                break
            if median > target_time:
                lo = mid
            else:
                hi = mid
        if day_rate is None:
            raise CalibrationError(
                f"calibration did not converge (last median {median:.2f} s "
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
    with open(out / "schedule.json", "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_summary(out / "summary.json", cfg, seed, payload)
    return payload


_COMMANDS = {
    "probe": cmd_probe,
    "fringe": cmd_fringe,
    "longrun": cmd_longrun,
    "calibrate": cmd_calibrate,
}


def _run_one(scenario: str, cfg: dict, seed: int, out: Path) -> dict:
    cfg = resolve_config(cfg)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[scenario](cfg, seed, out)


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
            with open(out / "aggregate.json", "w") as f:
                json.dump(aggregate, f, indent=2, sort_keys=True)
                f.write("\n")
            print(json.dumps({"scenario": args.scenario, "n_runs": len(results)}))
    except (ConfigError, ChannelError, ApcError, SchedulerError, SourceError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (CalibrationError, analysis.FitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

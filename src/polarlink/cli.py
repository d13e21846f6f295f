"""Scenario runner: probe, fringe, longrun and calibrate experiments.

Configuration comes from a YAML file; every run is fully determined by
(config, seed).  Outputs are CSV tables plus a JSON summary that embeds the
resolved configuration so any run can be reproduced from its own output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, analysis, channel, source
from .apc import ApcConfig, ApcError, Controller, run_session, write_sessions_csv
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
from .source import DetectionChain, PairSource, SourceError, expected_coincidence_rate

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


def _get(cfg: dict, path: str, default=None, required=False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required config field: {path}")
            return default
        node = node[part]
    return node


def _get_finite(cfg: dict, path: str, default=None, required=False) -> float:
    """The value at ``path`` as a float; ConfigError naming it unless finite."""
    value = _get(cfg, path, default, required)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not np.isfinite(number):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return number


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = yaml.safe_load(f) or {}
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def build_schedule(cfg: dict, compression: float) -> DriftSchedule:
    """Build the drift schedule, compressing the time axis of the cycle.

    Segment boundaries, the period and burst start times are divided by the
    compression factor; diffusion rates and burst durations are untouched, so
    per-session drift statistics match the uncompressed link.
    """
    sched = _get(cfg, "channel.schedule", {})
    kind = sched.get("kind", "constant")
    try:
        bursts = tuple(
            Burst(
                start_s=float(b["start_s"]) / compression,
                duration_s=float(b["duration_s"]),
                multiplier=float(b.get("multiplier", channel.BURST_MULTIPLIER)),
            )
            for b in sched.get("bursts", [])
        )
    except KeyError as e:
        raise ConfigError(f"channel.schedule.bursts: an entry is missing {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"channel.schedule.bursts: {e}") from e
    try:
        if kind == "constant":
            return DriftSchedule.constant(float(sched.get("rate", 0.0)), bursts=bursts)
        if kind == "day_night":
            day_rate = float(sched.get("day_rate", channel.DAY_RATE))
            night_rate = float(sched.get("night_rate", day_rate / 500.0))
            return DriftSchedule.day_night(
                day_rate=day_rate,
                night_rate=night_rate,
                day_start_s=float(sched.get("day_start_s", 6 * 3600.0)) / compression,
                night_start_s=float(sched.get("night_start_s", 18 * 3600.0)) / compression,
                period_s=float(sched.get("period_s", 86400.0)) / compression,
                bursts=bursts,
            )
        if kind == "segments":
            segments = tuple(
                (float(s["start_s"]) / compression, float(s["rate"]))
                for s in sched["segments"]
            )
            return DriftSchedule(
                segments=segments,
                period_s=float(sched.get("period_s", 86400.0)) / compression,
                bursts=bursts,
            )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"channel.schedule: {e}") from e
    raise ConfigError(f"channel.schedule.kind: unknown kind {kind!r}")


def build_channel(cfg: dict, rng: np.random.Generator) -> FiberChannel:
    compression = _get_finite(cfg, "time_compression", 1.0)
    if compression < 1.0:
        raise ConfigError("time_compression must be >= 1")
    schedule = build_schedule(cfg, compression)
    loss_db = _get_finite(cfg, "channel.loss_db", channel.DEFAULT_LOSS_DB)
    max_step_s = _get_finite(cfg, "channel.max_step_s", channel.MAX_STEP_S)
    try:
        return FiberChannel(schedule=schedule, rng=rng, loss_db=loss_db, max_step_s=max_step_s)
    except ChannelError as e:
        # FiberChannel's messages start with the name of the offending field.
        raise ConfigError(f"channel.{e}") from e


def build_source(cfg: dict) -> PairSource:
    try:
        return PairSource(
            local_pair_rate=float(_get(cfg, "source.local_pair_rate", source.DEFAULT_PAIR_RATE)),
            state=TwoQubitPolState(float(_get(cfg, "source.visibility", 1.0))),
        )
    except (PolarizationError, SourceError) as e:
        raise ConfigError(f"source: {e}") from e


def build_chain(cfg: dict, ch: FiberChannel) -> DetectionChain:
    try:
        return DetectionChain(
            idler_transmittance=ch.transmittance(),
            signal_efficiency=float(_get(cfg, "detection.signal_efficiency", 1.0)),
            idler_efficiency=float(_get(cfg, "detection.idler_efficiency", 1.0)),
            dark_rate=float(_get(cfg, "detection.dark_rate", 0.0)),
            coincidence_window=float(
                _get(cfg, "detection.coincidence_window", source.DEFAULT_COINCIDENCE_WINDOW)
            ),
        )
    except SourceError as e:
        raise ConfigError(f"detection: {e}") from e


def build_apc_config(cfg: dict) -> ApcConfig:
    block = _get(cfg, "apc", {})
    try:
        defaults = ApcConfig()
        return ApcConfig(
            check_threshold=float(block.get("check_threshold", defaults.check_threshold)),
            target_threshold=float(block.get("target_threshold", defaults.target_threshold)),
            timeout_s=float(block.get("timeout_s", defaults.timeout_s)),
            step_size=float(block.get("step_size", defaults.step_size)),
            fd_delta=float(block.get("fd_delta", defaults.fd_delta)),
            cycle_time_s=float(block.get("cycle_time_s", defaults.cycle_time_s)),
        )
    except ApcError as e:
        raise ConfigError(f"apc: {e}") from e


def build_scheduler_config(cfg: dict) -> SchedulerConfig:
    block = _get(cfg, "scheduler", {})
    try:
        return SchedulerConfig(
            uptime_window_s=float(block.get("uptime_window_s", 3.0)),
            measure_window_s=float(block.get("measure_window_s", 2.0)),
            stabilized=bool(block.get("stabilized", True)),
        )
    except SchedulerError as e:
        raise ConfigError(f"scheduler: {e}") from e


def _resolved_duration(cfg: dict) -> float:
    duration = _get_finite(cfg, "duration_s", required=True)
    if duration < 0:
        raise ConfigError("duration_s must be >= 0")
    return duration / float(_get(cfg, "time_compression", 1.0))


def _write_summary(path: Path, cfg: dict, seed: int, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = cfg
    payload["seed"] = seed
    payload["polarlink_version"] = __version__
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_probe(cfg: dict, seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    ch = build_channel(cfg, rng)
    duration = _resolved_duration(cfg)
    sample_dt = float(_get(cfg, "probe.sample_dt_s", 0.1))
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


def cmd_fringe(cfg: dict, seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    ch = build_channel(cfg, rng)
    src = build_source(cfg)
    chain = build_chain(cfg, ch)
    apc_cfg = build_apc_config(cfg)
    sched_cfg = build_scheduler_config(cfg)
    noiseless = bool(_get(cfg, "fringe.noiseless", False))
    ctrl = Controller()
    datasets = []
    records = []
    for _, basis_deg in NIST_BASES:
        points = []
        for angle in UMD_SWEEP_DEG:
            rec = run_session(ch, ctrl, apc_cfg, rng, actuate=sched_cfg.stabilized)
            records.append(rec)
            effective = ctrl.to_transform().compose(ch.transform)
            rate = expected_coincidence_rate(
                src, chain, AnalyzerSetting(basis_deg), AnalyzerSetting(angle), effective
            )
            mean = rate * sched_cfg.measure_window_s
            count = mean if noiseless else int(rng.poisson(mean))
            ch.advance(sched_cfg.uptime_window_s)
            points.append(
                analysis.FringePoint(
                    umd_angle_deg=angle,
                    count=count,
                    duration_s=sched_cfg.measure_window_s,
                    post_timeout=rec.outcome == "timeout",
                )
            )
        datasets.append(analysis.FringeDataset(AnalyzerSetting(basis_deg), tuple(points)))
    analysis.write_fringe_csv(out / "fringe.csv", datasets)
    write_sessions_csv(out / "sessions.csv", records)
    fits = [analysis.fit_fringe(d) for d in datasets]
    result = analysis.chsh_from_visibilities(fits)
    analysis.write_chsh_json(out / "chsh.json", result)
    summary = {"scenario": "fringe", "chsh": analysis.chsh_result_to_dict(result)}
    if any(p.post_timeout for d in datasets for p in d.points):
        corrected = analysis.chsh_from_visibilities(
            [analysis.corrected_fit(d) for d in datasets], corrected=True
        )
        analysis.write_chsh_json(out / "chsh_corrected.json", corrected)
        summary["chsh_corrected"] = analysis.chsh_result_to_dict(corrected)
    _write_summary(out / "summary.json", cfg, seed, summary)
    return summary


def cmd_longrun(cfg: dict, seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    ch = build_channel(cfg, rng)
    src = build_source(cfg)
    chain = build_chain(cfg, ch)
    apc_cfg = build_apc_config(cfg)
    sched_cfg = build_scheduler_config(cfg)
    duration = _resolved_duration(cfg)
    summary: dict = {"scenario": "longrun", "stabilized": sched_cfg.stabilized}
    if duration == 0:
        for name in ("timeline.csv", "series.csv", "sessions.csv"):
            (out / name).write_text("")
        _write_summary(out / "summary.json", cfg, seed, summary)
        return summary
    ctrl = Controller()
    timeline = run_link(ch, ctrl, apc_cfg, sched_cfg, duration, rng)
    windows = simulate_window_counts(timeline, src, chain, sched_cfg, rng)
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
    n = len(outcomes)
    summary.update(
        {
            "uptime_fraction": uptime_fraction(timeline),
            "n_sessions": n,
            "fraction_skipped": outcomes.count("skipped") / n,
            "fraction_converged": outcomes.count("converged") / n,
            "fraction_timeout": outcomes.count("timeout") / n,
        }
    )
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


_CALIBRATE_DEFAULTS = {
    "target_fidelity": 0.95,
    "target_time_s": 20.0,
    "n_seeds": 200,
    "tolerance": 0.05,
    "night_ratio": 500.0,
}


def _is_finite_number(value) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and bool(np.isfinite(value)))


def _calibrate_settings(cfg: dict) -> dict:
    """The ``calibrate`` block with defaults filled in, every value checked."""
    block = _get(cfg, "calibrate")
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigError("calibrate must be a mapping")
    unknown = sorted(str(k) for k in block if k not in _CALIBRATE_DEFAULTS)
    if unknown:
        raise ConfigError(f"calibrate.{unknown[0]}: unknown field")
    settings = {**_CALIBRATE_DEFAULTS, **block}
    for key, value in settings.items():
        if not _is_finite_number(value):
            raise ConfigError(f"calibrate.{key} must be a finite number, got {value!r}")
    n_seeds = settings["n_seeds"]
    if not isinstance(n_seeds, int) or n_seeds < 1:
        raise ConfigError(f"calibrate.n_seeds must be an integer >= 1, got {n_seeds!r}")
    if not 0.0 < settings["target_fidelity"] <= 1.0:
        raise ConfigError("calibrate.target_fidelity must be in (0, 1]")
    for key in ("target_time_s", "tolerance", "night_ratio"):
        if settings[key] <= 0:
            raise ConfigError(f"calibrate.{key} must be > 0, got {settings[key]!r}")
    return settings


def cmd_calibrate(cfg: dict, seed: int, out: Path) -> dict:
    settings = _calibrate_settings(cfg)
    target_fidelity = float(settings["target_fidelity"])
    target_time = float(settings["target_time_s"])
    n_seeds = settings["n_seeds"]
    tolerance = float(settings["tolerance"])
    night_ratio = float(settings["night_ratio"])
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
            if abs(median - target_time) <= 0.5 * tolerance * target_time:
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
        "night_rate": day_rate / night_ratio if day_rate else 0.0,
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
        declared = cfg.get("scenario")
        if declared is not None and declared != args.scenario:
            raise ConfigError(
                f"scenario: config declares {declared!r} but {args.scenario!r} was requested"
            )
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if args.seeds < 1:
            raise ConfigError("--seeds must be >= 1")
    except (ConfigError, ChannelError) as e:
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

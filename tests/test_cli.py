"""End-to-end scenario runs, config validation and determinism."""

import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import polarlink
from polarlink import analysis, calibrate, cli
from polarlink.apc import (
    MAX_SESSION_CYCLES,
    OUTCOME_CONVERGED,
    OUTCOME_SKIPPED,
    OUTCOME_TIMEOUT,
    ApcConfig,
    Controller,
    run_session,
)
from polarlink.channel import DAY_RATE, DriftSchedule, FiberChannel
from polarlink.polmath import AnalyzerSetting
from tests.oracles import csv_writer_text, haar_quat

CONFIG_DIR = "configs"


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def probe_cfg(duration=30.0, rate=DAY_RATE, seed=1, **extra):
    cfg = {
        "scenario": "probe",
        "seed": seed,
        "duration_s": duration,
        "channel": {"schedule": {"kind": "constant", "rate": rate}},
    }
    cfg.update(extra)
    return cfg


def fringe_cfg(seed=7):
    return {
        "scenario": "fringe",
        "seed": seed,
        "channel": {"loss_db": 21.0, "schedule": {"kind": "constant", "rate": 0.0}},
        "source": {"local_pair_rate": 2.0e5, "visibility": 0.80},
        "detection": {"signal_efficiency": 1.0, "idler_efficiency": 1.0},
    }


def longrun_cfg(duration=600.0, rate=DAY_RATE, stabilized=True, seed=11):
    return {
        "scenario": "longrun",
        "seed": seed,
        "duration_s": duration,
        "channel": {"loss_db": 21.0, "schedule": {"kind": "constant", "rate": rate}},
        "source": {"local_pair_rate": 2.0e5, "visibility": 0.84},
        "detection": {"signal_efficiency": 1.0, "idler_efficiency": 1.0},
        "scheduler": {"stabilized": stabilized},
    }


# (scenario, field path, bad value): each run must exit 2 naming the field,
# before it makes its run directory.  A field starting with "--" is a
# command-line flag.
BAD_FIELDS = [
    ("probe", "channel.max_step_s", 0),
    ("probe", "channel.max_step_s", -0.1),
    ("probe", "channel.max_step_s", float("nan")),
    ("probe", "channel.max_step_s", float("inf")),
    ("probe", "channel.max_step_s", "abc"),
    ("probe", "channel.loss_db", "abc"),
    ("probe", "channel.loss_db", float("inf")),
    ("probe", "channel.loss_db", -1.0),
    ("probe", "channel.schedule.bursts", [{"duration_s": 10.0}]),
    ("probe", "channel.schedule.bursts", [{"start_s": 5.0}]),
    ("probe", "channel.schedule.bursts", [{"start_s": "abc", "duration_s": 10.0}]),
    ("probe", "duration_s", float("nan")),
    ("probe", "time_compression", "abc"),
    ("probe", "channel.schedule.bursts", [{"start_s": 5.0, "duration_s": float("nan")}]),
    ("probe", "channel.schedule.rate", float("nan")),
    ("probe", "channel.schedule.kind", ["constant"]),
    ("probe", "probe.sample_dt_s", "abc"),
    ("probe", "probe.sample_dt_s", 0),
    ("probe", "seed", "abc"),
    ("probe", "seed", 1.5),
    ("probe", "seed", -3),
    ("probe", "--seed", -3),
    ("probe", "duration_s", 0),
    ("probe", "channel.schedule.bursts[0].multiplier", -100.0),
    ("probe", "channel.schedule.bursts[0].duration_s", -10.0),
    ("fringe", "apc.timeout_s", "abc"),
    ("fringe", "apc.fd_delta", 0.0),
    ("fringe", "apc.fd_delta", -0.02),
    ("fringe", "apc.step_size", 0.0),
    ("fringe", "apc.timeout_s", 0.0),
    ("fringe", "apc.cycle_time_s", 0.0),
    ("fringe", "apc.check_threshold", 0.0),
    ("fringe", "apc.check_threshold", 0.995),  # over apc.target_threshold
    ("fringe", "apc.target_threshold", 1.0),
    ("fringe", "source.visibility", 1.2),
    ("fringe", "source.local_pair_rate", 0),
    ("fringe", "detection.signal_efficiency", 1.5),
    ("fringe", "detection.coincidence_window", 0),
    ("fringe", "scheduler.measure_window_s", 4.0),  # over scheduler.uptime_window_s
    ("fringe", "scheduler.uptime_window_s", 1.0),  # under scheduler.measure_window_s
    # a square that overflows must not raise OverflowError
    ("fringe", "scheduler.measure_window_s", 1.0e300),
    ("fringe", "source.visibility", "abc"),
    ("fringe", "detection.dark_rate", "abc"),
    ("fringe", "scheduler.uptime_window_s", "abc"),
    ("fringe", "scheduler.stabilized", "false"),
    ("fringe", "apc.stepsize", 1.0),
    ("fringe", "scheduler.uptime_windows_s", 3.0),
    ("fringe", "apc", "x"),
    ("fringe", "scheduler", "x"),
    ("fringe", "channel", "x"),
    ("fringe", "channel.schedule", "x"),
    ("calibrate", "calibrate.n_seeds", -1),
    ("calibrate", "calibrate.n_seeds", 0),
    ("calibrate", "calibrate.n_seeds", 2.5),
    ("calibrate", "calibrate.n_seeds", True),
    ("calibrate", "calibrate.n_seeds", calibrate.MAX_CALIBRATE_SEEDS + 1),
    ("calibrate", "calibrate.tolerance", -1.0),
    ("calibrate", "calibrate.target_time_s", 0.0),
    ("calibrate", "calibrate.target_time_s", float("nan")),
    ("calibrate", "calibrate.target_fidelity", "abc"),
    ("calibrate", "calibrate.target_fidelity", 1.5),
    ("calibrate", "calibrate.night_ratio", 0.0),
    # day_rate / night_ratio overflows to inf
    ("calibrate", "calibrate.night_ratio", 1.0e-320),
    ("calibrate", "calibrate.n_seed", 10),
]
# test ids "<field>-<value>"; a list or mapping value is named "value<position>"
BAD_FIELD_IDS = [
    f"{field}-{value if isinstance(value, (int, float, str)) else f'value{i}'}"
    for i, (_, field, value) in enumerate(BAD_FIELDS)
]


def segments(*starts, rate=DAY_RATE):
    return {"kind": "segments", "segments": [{"start_s": s, "rate": rate} for s in starts]}


# (schedule block, field path): each out-of-range schedule value exits 2
# naming the path of that value.
BAD_SCHEDULES = [
    ({"kind": "day_night", "day_rate": -1.0}, "channel.schedule.day_rate"),
    ({"kind": "day_night", "night_rate": -1.0}, "channel.schedule.night_rate"),
    ({"kind": "constant", "rate": -1}, "channel.schedule.rate"),
    ({"kind": "day_night", "day_start_s": 70000.0}, "channel.schedule.day_start_s"),
    ({"kind": "day_night", "day_start_s": -1.0}, "channel.schedule.day_start_s"),
    ({"kind": "day_night", "period_s": -5.0}, "channel.schedule.period_s"),
    (segments(0.0, 90000.0), "channel.schedule.segments[1].start_s"),
    (segments(0.0, 500.0, 100.0), "channel.schedule.segments[2].start_s"),
    (segments(0.0, 50.0, 50.0), "channel.schedule.segments[2].start_s"),
    (segments(5.0), "channel.schedule.segments[0].start_s"),
    (segments(0.0, 100.0, rate=-1.0), "channel.schedule.segments[0].rate"),
    ({**segments(0.0), "period_s": -5.0}, "channel.schedule.period_s"),
]

# (scenario, {field path: value}, path the message names): walks longer than
# channel.MAX_WALK_STEPS exit 2 before the run directory is made.
LONG_WALKS = [
    ("probe", {"channel.max_step_s": 1.0e-300}, "channel.max_step_s"),
    ("fringe", {"channel.max_step_s": 1.0e-300}, "channel.max_step_s"),
    ("longrun", {"channel.max_step_s": 1.0e-300}, "channel.max_step_s"),
    ("fringe", {"scheduler.uptime_window_s": 1.0e12}, "scheduler.uptime_window_s"),
    # 8 cycles a 1.6e5 s advance, which only a stabilized session takes
    ("longrun", {"apc.cycle_time_s": 2.0e4}, "apc.cycle_time_s"),
    # refused though a zero-length longrun walks nothing: no cap asks how far the walk gets
    ("longrun", {"duration_s": 0.0, "scheduler.uptime_window_s": 1.0e12}, "uptime_window_s"),
    ("probe", {"duration_s": 1.0e20}, "duration_s"),
    ("probe", {"duration_s": 1.0e300, "probe.sample_dt_s": 1.0e-300}, "probe.sample_dt_s"),
    ("calibrate", {"calibrate.target_time_s": 1.0e300}, "calibrate.target_time_s"),
    # every scenario's config holds a calibrate block, and every one is checked
    ("fringe", {"calibrate.target_time_s": 1.0e300}, "calibrate.target_time_s"),
    # 4 x target_time_s overflows: an infinite walk
    ("calibrate", {"calibrate.target_time_s": 1.0e308}, "calibrate.target_time_s"),
]


def walk_ids(rows):
    """``scenario-field...`` of each row; a repeated one also gets its first value."""
    ids = []
    for scenario, values, _ in rows:
        name = f"{scenario}-{'-'.join(values)}"
        ids.append(f"{name}-{next(iter(values.values())):g}" if name in ids else name)
    return ids


# {field path: value} of longruns that could hold more than scheduler.MAX_WINDOWS
# windows: each exits 2 before the link starts, naming the fields that set it.
TOO_MANY_WINDOWS = [
    {"duration_s": 1.0e9},
    {
        "scheduler.uptime_window_s": 1.0e-3,
        "scheduler.measure_window_s": 1.0e-3,
        "apc.cycle_time_s": 1.0e-3,
    },
]


def scenario_cfg(scenario, values):
    """A small valid config of ``scenario`` with each {field path: value} set."""
    data = {
        "probe": probe_cfg(),
        "fringe": fringe_cfg(),
        "longrun": longrun_cfg(),
        "calibrate": {"scenario": "calibrate", "calibrate": {"n_seeds": 5}},
    }[scenario]
    for field, value in values.items():
        *parents, key = field.split(".")
        node = data
        for part in parents:
            name, _, index = part.partition("[")
            if index:  # "bursts[0]": one valid burst, then its field is set
                node = node.setdefault(name, [{"start_s": 5.0, "duration_s": 10.0}])
                node = node[int(index.rstrip("]"))]
            else:
                node = node.setdefault(part, {})
        node[key] = value
    return data


def run(args):
    return cli.main([str(a) for a in args])


class TestConfigHandling:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run(["probe", "--config", tmp_path / "nope.yaml"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_yaml_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed\n")
        assert run(["probe", "--config", path]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        # PyYAML decodes the bytes itself, so a bad byte is a YAML error
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"scenario: probe\nduration_s: 1.0\n# \xff\n")
        out = tmp_path / "o"
        assert run(["probe", "--config", path, "--out", out]) == 2
        assert "config error: invalid YAML" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,key",
        [
            ("apc:\n  step_size: 1.0\napc:\n  timeout_s: 10.0\n", "'apc'"),
            ("apc:\n  step_size: 1.0\n  timeout_s: 10.0\n  step_size: 2.0\n", "'step_size'"),
        ],
        ids=["block", "field"],
    )
    def test_repeated_key_exits_2(self, tmp_path, capsys, text, key):
        # a repeated key would silently drop the values before it
        path = tmp_path / "repeated.yaml"
        path.write_text("scenario: fringe\n" + text)
        out = tmp_path / "o"
        assert run(["fringe", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid YAML: found duplicate key {key}\n")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unhashable_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "unhashable.yaml"
        path.write_text("? [apc]\n: 1\n")
        assert run(["probe", "--config", path, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid YAML") and "Traceback" not in err

    def test_merge_key_still_loads(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text("apc:\n  <<: {step_size: 2.0, timeout_s: 9.0}\n  step_size: 1.0\n")
        block = cli.load_config(path)["apc"]
        assert (block["step_size"], block["timeout_s"]) == (1.0, 9.0)

    def test_scenario_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg())
        assert run(["fringe", "--config", cfg]) == 2
        assert "declares" in capsys.readouterr().err

    def test_bad_compression_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(time_compression=0.5))
        assert run(["probe", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_unknown_schedule_kind_exits_2(self, tmp_path, capsys):
        data = probe_cfg()
        data["channel"]["schedule"]["kind"] = "weather"
        cfg = write_cfg(tmp_path, data)
        assert run(["probe", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_missing_duration_exits_2(self, tmp_path, capsys):
        data = probe_cfg()
        del data["duration_s"]
        cfg = write_cfg(tmp_path, data)
        assert run(["probe", "--config", cfg, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("scenario,field,value", BAD_FIELDS, ids=BAD_FIELD_IDS)
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, scenario, field, value):
        flags = [field, value] if field.startswith("--") else []
        data = scenario_cfg(scenario, {} if flags else {field: value})
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "o"
        assert run([scenario, "--config", cfg, "--out", out, *flags]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "schedule,field", BAD_SCHEDULES, ids=[f"{f}-{i}" for i, (_, f) in enumerate(BAD_SCHEDULES)]
    )
    def test_bad_schedule_range_names_its_field(self, tmp_path, capsys, schedule, field):
        cfg = write_cfg(tmp_path, probe_cfg(channel={"schedule": schedule}))
        out = tmp_path / "o"
        assert run(["probe", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field} must" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra,field,value",
        [
            (
                {"channel": {"schedule": {**segments(0.0), "period_s": 5.0e-324}}},
                "channel.schedule.period_s",
                "5e-324",
            ),
            ({"duration_s": 1.0e-323}, "duration_s", "1e-323"),
        ],
        ids=["period_s", "duration_s"],
    )
    def test_times_are_checked_compressed(self, tmp_path, capsys, extra, field, value):
        # a time > 0 as written, but 0 once divided by time_compression
        data = probe_cfg(time_compression=10.0, **extra)
        out = tmp_path / "o"
        assert run(["probe", "--config", write_cfg(tmp_path, data), "--out", out]) == 2
        err = capsys.readouterr().err
        rule = "must be > 0 after dividing by time_compression"
        assert err == f"config error: {field} {rule}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["fringe", "longrun"])
    def test_window_mean_over_the_poisson_limit_exits_2(self, tmp_path, capsys, scenario):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, scenario_cfg(scenario, {"source.local_pair_rate": 1.0e20}))
        assert run([scenario, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "source.local_pair_rate" in err and "Traceback" not in err
        assert not out.exists()

    def test_session_cycle_cap(self, tmp_path, capsys):
        # a timeout may span apc.MAX_SESSION_CYCLES cycles, not one more
        values = {"apc.cycle_time_s": 1.0, "apc.timeout_s": float(MAX_SESSION_CYCLES)}
        cfg = write_cfg(tmp_path, scenario_cfg("fringe", values))
        assert run(["fringe", "--config", cfg, "--out", tmp_path / "a"]) == 0
        values["apc.timeout_s"] += 1.0
        cfg, out = write_cfg(tmp_path, scenario_cfg("fringe", values)), tmp_path / "b"
        assert run(["fringe", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"apc.timeout_s / cycle_time_s must be <= {MAX_SESSION_CYCLES:,} cycles" in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario,values,field", LONG_WALKS, ids=walk_ids(LONG_WALKS))
    def test_walk_too_long_exits_2(self, tmp_path, capsys, scenario, values, field):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, scenario_cfg(scenario, values))
        assert run([scenario, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert field in err and "walk too long" in err
        assert not out.exists()

    def test_calibration_walk_cap_boundary(self):
        # 4 x 25,000 s in 0.1 s steps is exactly MAX_WALK_STEPS
        cfg = cli.resolve_config(scenario_cfg("calibrate", {"calibrate.target_time_s": 25000.0}))
        cli._check_ranges(cfg, "calibrate")
        cfg["calibrate"]["target_time_s"] = 25000.01
        with pytest.raises(cli.ConfigError, match="walk too long"):
            cli._check_ranges(cfg, "calibrate")

    def test_only_a_stabilized_link_walks_8_cycles(self):
        # 8 x 12,500 s in 0.1 s steps is exactly MAX_WALK_STEPS; a session that
        # does not actuate walks one cycle at a time
        cfg = cli.resolve_config(scenario_cfg("longrun", {"apc.cycle_time_s": 12500.0}))
        cli._check_ranges(cfg, "longrun")
        cfg["apc"]["cycle_time_s"] = 20000.0
        with pytest.raises(cli.ConfigError, match="apc.cycle_time_s.*walk too long"):
            cli._check_ranges(cfg, "longrun")
        cfg["scheduler"]["stabilized"] = False
        cli._check_ranges(cfg, "longrun")

    def test_calibration_at_fidelity_1_does_not_walk(self, tmp_path, capsys):
        values = {"calibrate.target_time_s": 1.0e6, "calibrate.target_fidelity": 1.0}
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, scenario_cfg("calibrate", values))
        assert run(["calibrate", "--config", cfg, "--out", out]) == 0
        schedule = json.loads((out / "schedule.json").read_text())
        assert schedule["day_rate"] == 0.0 and schedule["achieved_median_s"] == 1.0e6


    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_through_a_file_exits_2(self, tmp_path, capsys, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        cfg = write_cfg(tmp_path, probe_cfg(duration=1.0))
        assert run(["probe", "--config", cfg, "--out", blocker / sub]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and "Traceback" not in err
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "scenario,seeds,name",
        [
            ("probe", 1, "probe.csv"),
            ("calibrate", 1, "schedule.json"),
            ("probe", 2, "aggregate.json"),
        ],
    )
    def test_output_file_that_is_a_directory_exits_2(self, tmp_path, capsys, scenario, seeds, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        config = f"{CONFIG_DIR}/{scenario}.yaml"
        assert run([scenario, "--config", config, "--seeds", seeds, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and name in err and "Traceback" not in err
        assert not list(out.glob("seed_*"))  # refused before any run

    @pytest.mark.parametrize("values", TOO_MANY_WINDOWS, ids=["duration", "short-windows"])
    def test_too_many_windows_exits_2(self, tmp_path, capsys, values):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, scenario_cfg("longrun", values))
        assert run(["longrun", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        for field in ("duration_s", "time_compression", "uptime_window_s", "apc.cycle_time_s"):
            assert field in err
        assert "too many windows" in err and "Traceback" not in err
        assert not out.exists()

    def test_cycles_that_cannot_move_the_clock_exit_2(self, tmp_path):
        # 8e-300 s of iterations leaves a session's clock where it was, so its
        # timeout could never fire; run in a child so a hang fails after 5 s
        data = yaml.safe_load(Path(CONFIG_DIR, "fringe_burst.yaml").read_text())
        threshold = 0.9999999999999999
        data["apc"] = {
            "cycle_time_s": 1.0e-300,
            "check_threshold": threshold,
            "target_threshold": threshold,
        }
        cfg, out = write_cfg(tmp_path, data), tmp_path / "o"
        script = "\n".join(
            [
                "import sys",
                f"sys.path.insert(0, {str(Path(polarlink.__file__).parents[1])!r})",
                "from polarlink import cli",
                f"sys.exit(cli.main(['fringe', '--config', {cfg!r}, '--out', {str(out)!r}]))",
            ]
        )
        argv = [sys.executable, "-c", script]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=5)
        assert done.returncode == 2
        assert "apc.timeout_s / cycle_time_s" in done.stderr and "Traceback" not in done.stderr


class TestSummaryConfig:
    def test_embedded_config_reproduces_run(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        config = f"{CONFIG_DIR}/fringe.yaml"
        assert run(["fringe", "--config", config, "--seed", 5, "--out", first]) == 0
        summary = json.loads((first / "summary.json").read_text())
        # resolved: the YAML string "2.0e5" is a number, and defaults are filled in
        assert summary["config"]["source"]["local_pair_rate"] == 2.0e5
        assert summary["config"]["apc"]["timeout_s"] == ApcConfig().timeout_s
        resolved = tmp_path / "resolved.yaml"
        resolved.write_text(json.dumps(summary["config"]))
        seed = summary["seed"]
        assert run(["fringe", "--config", resolved, "--seed", seed, "--out", second]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestProbe:
    def test_outputs_and_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=60.0))
        out = tmp_path / "out"
        assert run(["probe", "--config", cfg, "--out", out]) == 0
        lines = (out / "probe.csv").read_text().strip().splitlines()
        assert lines[0] == "t_s,s1,s2,s3,fidelity"
        assert len(lines) == 602  # 601 samples at 0.1 s over 60 s
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "probe"
        assert summary["config"]["seed"] == 1
        assert 0.0 <= summary["min_fidelity"] <= 1.0
        assert json.loads(capsys.readouterr().out)["scenario"] == "probe"

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=10.0))
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert run(["probe", "--config", cfg, "--out", o1, "--seed", "99"]) == 0
        assert run(["probe", "--config", cfg, "--out", o2]) == 0
        assert json.loads((o1 / "summary.json").read_text())["seed"] == 99
        assert (o1 / "probe.csv").read_text() != (o2 / "probe.csv").read_text()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=20.0))
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert run(["probe", "--config", cfg, "--out", o1]) == 0
        assert run(["probe", "--config", cfg, "--out", o2]) == 0
        for name in ("probe.csv", "summary.json"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()

    def test_time_compression_shrinks_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=60.0, time_compression=6.0))
        out = tmp_path / "out"
        assert run(["probe", "--config", cfg, "--out", out]) == 0
        lines = (out / "probe.csv").read_text().strip().splitlines()
        assert len(lines) == 102  # 10 s of samples at 0.1 s


class TestFringe:
    def test_quiet_channel_recovers_source_visibility(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, fringe_cfg())
        out = tmp_path / "out"
        assert run(["fringe", "--config", cfg, "--out", out]) == 0
        chsh = json.loads((out / "chsh.json").read_text())
        for entry in chsh["visibilities"]:
            assert entry["V"] == pytest.approx(0.80, abs=5 * entry["sigma"])
        assert chsh["S"] == pytest.approx(2.263, abs=0.08)
        assert (out / "fringe.csv").exists()
        assert (out / "sessions.csv").exists()

    def test_noiseless_mode_is_exact(self, tmp_path, capsys):
        data = fringe_cfg()
        data["fringe"] = {"noiseless": True}
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "out"
        assert run(["fringe", "--config", cfg, "--out", out]) == 0
        chsh = json.loads((out / "chsh.json").read_text())
        # exact up to the small accidental-coincidence floor in the rates
        assert chsh["S"] == pytest.approx(2 * np.sqrt(2) * 0.8, abs=2e-3)

    def test_noiseless_scan_takes_any_pair_rate(self, tmp_path, capsys):
        # exact means are not drawn, so no Poisson limit applies
        data = fringe_cfg()
        data["source"]["local_pair_rate"] = 1.0e20
        data["fringe"] = {"noiseless": True}
        cfg = write_cfg(tmp_path, data)
        assert run(["fringe", "--config", cfg, "--out", tmp_path / "o"]) == 0

    @pytest.mark.parametrize(
        "block,key,value",
        [("source", "local_pair_rate", 1.0e200), ("detection", "dark_rate", 1.0e300)],
        ids=["local_pair_rate", "dark_rate"],
    )
    def test_noiseless_scan_refuses_an_infinite_mean(self, tmp_path, capsys, block, key, value):
        # rates whose window mean overflows to inf: exit 2 naming the rate
        # fields, not a fit failure that blames the sweep angles
        with open(f"{CONFIG_DIR}/fringe_burst.yaml") as f:
            data = yaml.safe_load(f)
        data["fringe"] = {"noiseless": True}
        data.setdefault(block, {})[key] = value
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "o"
        assert run(["fringe", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "source.local_pair_rate, detection.dark_rate" in err and "overflow" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [1.0e-300, 1.0e-160])
    def test_vanishing_measure_window_exits_2_naming_it(self, tmp_path, capsys, value):
        # a window whose square underflows (to zero, or to a subnormal) is
        # refused by name, not fitted into a warning and a blame on the angles
        with open(f"{CONFIG_DIR}/fringe_burst.yaml") as f:
            data = yaml.safe_load(f)
        data["scheduler"]["measure_window_s"] = value
        cfg = write_cfg(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fringe", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        assert "scheduler.measure_window_s" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_burst_produces_corrected_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["fringe", "--config", f"{CONFIG_DIR}/fringe_burst.yaml", "--out", out]) == 0
        corrected = json.loads((out / "chsh_corrected.json").read_text())
        assert corrected["corrected"] is True

    def test_failed_corrected_fit_ends_only_the_corrected_estimate(self, tmp_path, capsys):
        # at step_size 1e4 every descent step overshoots into a kick, and at
        # seed 7 the points outside post-timeout windows of one basis span
        # under 120°: the run exits 0 without the corrected estimate and
        # records why in summary.json
        data = yaml.safe_load(Path(CONFIG_DIR, "fringe_burst.yaml").read_text())
        data["apc"] = {"step_size": 1.0e4}
        out = tmp_path / "out"
        assert run(["fringe", "--config", write_cfg(tmp_path, data), "--seed", 7, "--out", out]) == 0
        reason = "points must span at least 120 degrees"
        captured = capsys.readouterr()
        assert captured.err == f"warning: corrected fit failed: {reason}\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["chsh_corrected_error"] == reason
        assert "chsh_corrected" not in summary
        assert summary["chsh"] == json.loads((out / "chsh.json").read_text())
        assert json.loads(captured.out)["chsh_corrected_error"] == reason
        assert not (out / "chsh_corrected.json").exists()
        assert "1" in {line[-1] for line in (out / "fringe.csv").read_text().splitlines()}

    def test_correction_raises_s_on_most_timed_out_seeds(self, tmp_path, capsys):
        # Dropping the post-timeout points raises S on average, but not at
        # every seed: Poisson noise decides single cases.
        out = tmp_path / "out"
        config = f"{CONFIG_DIR}/fringe_burst.yaml"
        assert run(["fringe", "--config", config, "--seed", 7, "--seeds", 30, "--out", out]) == 0
        raised = []
        for run_dir in sorted(out.glob("seed_*")):
            if (run_dir / "chsh_corrected.json").exists():
                corrected = json.loads((run_dir / "chsh_corrected.json").read_text())
                plain = json.loads((run_dir / "chsh.json").read_text())
                raised.append(corrected["S"] > plain["S"])
        assert len(raised) >= 10
        assert sum(raised) > len(raised) / 2

    def test_noise_does_not_change_the_channel_trajectory(self, tmp_path, capsys):
        with open(f"{CONFIG_DIR}/fringe_burst.yaml") as f:
            data = yaml.safe_load(f)
        noisy = write_cfg(tmp_path, data, "noisy.yaml")
        data["fringe"] = {"noiseless": True}
        noiseless = write_cfg(tmp_path, data, "noiseless.yaml")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["fringe", "--config", noisy, "--out", a]) == 0
        assert run(["fringe", "--config", noiseless, "--out", b]) == 0
        assert (a / "sessions.csv").read_bytes() == (b / "sessions.csv").read_bytes()


class TestLongrun:
    def test_stabilized_run_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, longrun_cfg(duration=600.0))
        out = tmp_path / "out"
        assert run(["longrun", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stabilized"] is True
        # constant day-rate drift actuates often, so uptime sits below the
        # quiet-channel ideal of ~0.96 but well above half
        assert 0.6 < summary["uptime_fraction"] < 0.97
        assert summary["n_groups"] >= 1
        assert summary["mean_S"] > 2.0
        for name in ("timeline.csv", "sessions.csv", "series.csv"):
            assert (out / name).exists()
        n_series = len((out / "series.csv").read_text().strip().splitlines()) - 1
        assert n_series == summary["n_groups"]

    def test_unstabilized_run_decays(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, longrun_cfg(duration=1200.0, stabilized=False, seed=3))
        out = tmp_path / "out"
        assert run(["longrun", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fraction_skipped"] == 1.0
        rows = (out / "series.csv").read_text().strip().splitlines()[1:]
        s_values = np.array([float(r.split(",")[2]) for r in rows])
        # the uncompensated link falls below the classical bound and stays there
        assert np.median(s_values[len(s_values) // 2 :]) < 2.0

    def test_summary_agrees_with_series_csv(self, tmp_path, capsys):
        # 555 groups, one of them post-timeout
        out = tmp_path / "out"
        args = ["longrun", "--config", f"{CONFIG_DIR}/longrun_stabilized.yaml", "--seed", "11"]
        assert run(args + ["--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "series.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == summary["n_groups"] == 555
        assert sum(r["post_timeout"] == "1" for r in rows) == summary["n_excluded_groups"] == 1
        # the S column is rounded to 6 decimals
        s_values = np.array([float(r["S"]) for r in rows])
        assert abs(s_values.mean() - summary["mean_S"]) < 5e-7

    def test_zero_duration(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, longrun_cfg(duration=0.0))
        out = tmp_path / "out"
        assert run(["longrun", "--config", cfg, "--out", out]) == 0
        # no window: each table is its header line alone
        headers = {
            "timeline.csv": "start_s,end_s,kind,outcome,min_f_after\r\n",
            "sessions.csv": ",".join(SESSIONS_HEADER) + "\r\n",
            "series.csv": "t_s,min_ref_fidelity,S,sigma_S,compensation_time_s,post_timeout\n",
        }
        for name, header in headers.items():
            assert (out / name).read_bytes() == header.encode()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"scenario", "stabilized", "config", "seed", "polarlink_version"}
        assert json.loads(capsys.readouterr().out) == {"scenario": "longrun", "stabilized": True}

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, longrun_cfg(duration=300.0))
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert run(["longrun", "--config", cfg, "--out", o1]) == 0
        assert run(["longrun", "--config", cfg, "--out", o2]) == 0
        for name in ("timeline.csv", "sessions.csv", "series.csv", "summary.json"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


class TestCalibrate:
    def test_recovers_known_rate(self, tmp_path, capsys):
        data = {
            "scenario": "calibrate",
            "seed": 5,
            "calibrate": {
                "target_fidelity": 0.95,
                "target_time_s": 20.0,
                "n_seeds": 150,
                "tolerance": 0.05,
            },
        }
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "out"
        assert run(["calibrate", "--config", cfg, "--out", out]) == 0
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["day_rate"] == pytest.approx(DAY_RATE, rel=0.25)
        assert sched["night_rate"] == pytest.approx(sched["day_rate"] / 500.0)
        assert sched["achieved_median_s"] == pytest.approx(20.0, rel=0.05)

    @pytest.mark.parametrize(
        "n_seeds,tolerance,seed,last",
        [
            # the bracket closes on a rate where seed 2's set's median jumps
            # from 19.80 s to 20.25 s, past the horizon, 20 s + 1e-5 s; the
            # 40 steps end on a jump of the next set, seed 3's
            (200, 1.0e-6, 2, "last median over 20.00 s"),
            # the last step's walk stopped at the horizon, 20 s + 0.004 * 20 s / 2
            (3, 0.004, 0, "last median over 20.04 s"),
        ],
    )
    def test_no_convergence_exits_3(self, tmp_path, capsys, n_seeds, tolerance, seed, last):
        data = yaml.safe_load(Path(CONFIG_DIR, "calibrate.yaml").read_text())
        data["calibrate"].update(n_seeds=n_seeds, tolerance=tolerance)
        out = tmp_path / "out"
        assert run(["calibrate", "--config", write_cfg(tmp_path, data), "--seed", seed, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == f"error: calibration did not converge ({last} for target 20.00 s)\n"
        assert not (out / "schedule.json").exists()

    def test_perfect_fidelity_gives_zero_rate(self, tmp_path, capsys):
        data = {"scenario": "calibrate", "calibrate": {"target_fidelity": 1.0}}
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "out"
        assert run(["calibrate", "--config", cfg, "--out", out]) == 0
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["day_rate"] == 0.0


class TestSeedFanout:
    def test_writes_per_seed_dirs_and_aggregate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=10.0, seed=30))
        out = tmp_path / "out"
        assert run(["probe", "--config", cfg, "--out", out, "--seeds", "3"]) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [30, 31, 32]
        assert len(agg["runs"]) == 3
        for s in (30, 31, 32):
            assert (out / f"seed_{s:04d}" / "probe.csv").exists()

    def test_fanout_member_matches_single_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=10.0, seed=40))
        out = tmp_path / "out"
        single = tmp_path / "single"
        assert run(["probe", "--config", cfg, "--out", out, "--seeds", "2"]) == 0
        assert run(["probe", "--config", cfg, "--out", single, "--seed", "41"]) == 0
        assert (out / "seed_0041" / "probe.csv").read_bytes() == (
            single / "probe.csv"
        ).read_bytes()

    def test_failed_run_leaves_no_aggregate(self, tmp_path, capsys):
        data = yaml.safe_load(Path(CONFIG_DIR, "calibrate.yaml").read_text())
        data["calibrate"].update(n_seeds=3, tolerance=0.004)  # seed 0 does not converge
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, data)
        assert run(["calibrate", "--config", cfg, "--seed", "0", "--seeds", "2", "--out", out]) == 3
        assert (out / "seed_0000").is_dir() and not (out / "aggregate.json").exists()

    def test_config_error_makes_no_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"scenario": "fringe", "apc": {"fd_delta": 0}})
        out = tmp_path / "o"
        assert run(["fringe", "--config", cfg, "--seeds", "2", "--out", out]) == 2
        assert "apc.fd_delta" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_zero_seeds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=5.0))
        assert run(["probe", "--config", cfg, "--out", tmp_path / "o", "--seeds", "0"]) == 2


def static_channel(seed, rate=0.0):
    return FiberChannel(DriftSchedule.constant(rate), np.random.default_rng(seed))


def longrun_run(tmp_path, **kwargs):
    """The output directory of a longrun of ``longrun_cfg(**kwargs)`` through
    ``cli.main``, and the windows and counts that run measured."""
    data = longrun_cfg(**kwargs)
    out = tmp_path / "out"
    assert run(["longrun", "--config", write_cfg(tmp_path, data), "--out", out]) == 0
    return (out, *cli._measure(cli.resolve_config(data), data["seed"]))


SESSIONS_HEADER = "start_time_s outcome duration_s min_f_before min_f_after iterations".split()


class TestSessionsCsv:
    def test_writes_header_and_rows(self, tmp_path):
        ch = static_channel(seed=10)
        ch.quat = haar_quat(np.random.default_rng(10))
        rec = run_session(ch, Controller(), ApcConfig())
        path = tmp_path / "sessions.csv"
        cli._write_sessions(path, [rec])
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("start_time_s,outcome")
        assert len(lines) == 2
        assert rec.outcome in lines[1]

    def test_bytes_equal_csv_writer(self, tmp_path):
        # every outcome, and the CRLF line ends csv.writer writes
        records = []
        for seed in range(4):
            ch = static_channel(seed, rate=DAY_RATE * 300)
            ch.quat = haar_quat(np.random.default_rng(30 + seed))
            records.append(run_session(ch, Controller(), ApcConfig()))
        records.append(run_session(static_channel(seed=7), Controller(), ApcConfig()))
        ch = static_channel(seed=9)
        ch.quat = haar_quat(np.random.default_rng(9))
        records.append(run_session(ch, Controller(), ApcConfig()))
        assert {r.outcome for r in records} == {OUTCOME_SKIPPED, OUTCOME_CONVERGED, OUTCOME_TIMEOUT}
        path = tmp_path / "sessions.csv"
        cli._write_sessions(path, records)
        rows = [
            [f"{r.start_time_s:.6f}", r.outcome, f"{r.duration_s:.6f}",
             f"{r.min_fidelity_before:.9f}", f"{r.min_fidelity_after:.9f}", r.iterations]
            for r in records
        ]
        data = path.read_bytes()
        assert data == csv_writer_text([SESSIONS_HEADER, *rows]).encode()
        assert data.count(b"\r\n") == data.count(b"\n") == 1 + len(records)

    def test_no_sessions_is_the_header_alone(self, tmp_path):
        path = tmp_path / "sessions.csv"
        cli._write_sessions(path, [])
        assert path.read_bytes() == csv_writer_text([SESSIONS_HEADER]).encode()


class TestTimelineCsv:
    def test_roundtrip_shape(self, tmp_path, capsys):
        out, windows, _ = longrun_run(tmp_path, duration=30.0, rate=DAY_RATE, seed=9)
        lines = (out / "timeline.csv").read_text().strip().splitlines()
        assert lines[0] == "start_s,end_s,kind,outcome,min_f_after"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * len(windows)
        assert [r[2] for r in rows] == ["compensation", "uptime"] * len(windows)
        for w, comp, up in zip(windows, rows[::2], rows[1::2]):
            assert comp[3] == w.session.outcome and up[3:] == ["", ""]
            assert comp[1] == up[0] == f"{w.start_s:.6f}"

    def test_bytes_equal_csv_writer(self, tmp_path, capsys):
        out, windows, _ = longrun_run(tmp_path, duration=60.0, rate=20 * DAY_RATE, seed=8)
        rows = [["start_s", "end_s", "kind", "outcome", "min_f_after"]]
        for w in windows:
            s, start = w.session, f"{w.start_s:.6f}"
            min_f = f"{s.min_fidelity_after:.9f}"
            rows.append([f"{s.start_time_s:.6f}", start, "compensation", s.outcome, min_f])
            rows.append([start, f"{w.end_s:.6f}", "uptime", "", ""])
        data = (out / "timeline.csv").read_bytes()
        assert data == csv_writer_text(rows).encode()
        assert data.count(b"\r\n") == data.count(b"\n") == 1 + 2 * len(windows)


def fringe_run(tmp_path, noiseless):
    """The output directory of configs/fringe_burst.yaml, noiseless or not,
    through ``cli.main``; its sweep as (basis, angle) pairs in degrees; and
    the windows and counts it measured."""
    data = yaml.safe_load(Path(CONFIG_DIR, "fringe_burst.yaml").read_text())
    data["fringe"] = {"noiseless": noiseless}
    out = tmp_path / "out"
    assert run(["fringe", "--config", write_cfg(tmp_path, data), "--out", out]) == 0
    sweep = [(basis, angle) for _, basis in cli.NIST_BASES for angle in cli.UMD_SWEEP_DEG]
    plan = [(AnalyzerSetting(basis), AnalyzerSetting(angle)) for basis, angle in sweep]
    return (out, sweep, *cli._measure(cli.resolve_config(data), data["seed"], plan, noiseless))


class TestSerialization:
    def test_fringe_csv_roundtrip(self, tmp_path, capsys):
        out, sweep, windows, counts = fringe_run(tmp_path, noiseless=False)
        with open(out / "fringe.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == [
            "nist_basis_deg", "umd_angle_deg", "counts", "duration_s", "post_timeout_flag"
        ]
        assert len(rows) == len(sweep) == len(windows)
        for row, (basis, angle), w, c in zip(rows, sweep, windows, counts):
            assert float(row["nist_basis_deg"]) == basis
            assert float(row["umd_angle_deg"]) == angle
            assert int(row["counts"]) == c[0]
            assert float(row["duration_s"]) == 2.0
            assert bool(int(row["post_timeout_flag"])) == w.post_timeout

    @pytest.mark.parametrize("noiseless", [False, True], ids=["counts", "means"])
    def test_fringe_csv_bytes_equal_csv_writer(self, tmp_path, capsys, noiseless):
        # integer Poisson counts with post-timeout flags, and float noiseless means
        out, sweep, windows, counts = fringe_run(tmp_path, noiseless)
        assert {type(c[0].item()) for c in counts} == {float if noiseless else int}
        assert any(w.post_timeout for w in windows)
        rows = [["nist_basis_deg", "umd_angle_deg", "counts", "duration_s", "post_timeout_flag"]]
        rows += [
            [f"{basis:.1f}", f"{angle:.1f}", c[0].item(), f"{2.0:.6f}", int(w.post_timeout)]
            for (basis, angle), w, c in zip(sweep, windows, counts)
        ]
        assert (out / "fringe.csv").read_bytes() == csv_writer_text(rows).encode()

    def test_chsh_json(self, tmp_path):
        fits = [analysis.FitResult(1.0, v, 0.0, v, 0.02, 0.0) for v in (0.8, 0.8, 0.8, 0.8)]
        res = analysis.chsh_from_visibilities(fits)
        path = tmp_path / "chsh.json"
        cli._write_json(path, cli._chsh_json(res, corrected=False))
        payload = json.loads(path.read_text())
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["S"] == pytest.approx(res.s_value)
        assert [v["basis"] for v in payload["visibilities"]] == ["H", "D", "V", "A"]
        assert payload["corrected"] is False
        assert cli._chsh_json(res, corrected=True)["corrected"] is True

    def test_chsh_json_holds_the_fits_of_fringe_csv(self, tmp_path, capsys):
        # seed 7 has a timed-out session: each basis's rows of fringe.csv,
        # fitted whole and without the flagged points, give chsh.json's and
        # chsh_corrected.json's visibilities bit for bit
        out = tmp_path / "out"
        config = f"{CONFIG_DIR}/fringe_burst.yaml"
        assert run(["fringe", "--config", config, "--seed", 7, "--out", out]) == 0
        with open(out / "fringe.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        bases = {}
        for row in rows:
            bases.setdefault(float(row["nist_basis_deg"]), []).append(row)
        assert list(bases) == [basis for _, basis in cli.NIST_BASES]
        for name, corrected in (("chsh.json", False), ("chsh_corrected.json", True)):
            payload = json.loads((out / name).read_text())
            for entry, basis_rows in zip(payload["visibilities"], bases.values(), strict=True):
                angles = [float(r["umd_angle_deg"]) for r in basis_rows]
                counts = [int(r["counts"]) for r in basis_rows]
                (duration,) = {float(r["duration_s"]) for r in basis_rows}
                flags = [r["post_timeout_flag"] == "1" for r in basis_rows]
                if corrected:
                    fit = analysis.corrected_fit(angles, counts, duration, flags)
                else:
                    fit = analysis.fit_fringe(angles, counts, duration)
                assert (entry["V"], entry["sigma"]) == (fit.visibility, fit.sigma_v)
        assert {r["post_timeout_flag"] for r in rows} == {"0", "1"}


class TestLfTables:
    def test_probe_csv_bytes_equal_csv_writer(self, tmp_path, capsys):
        data = probe_cfg(duration=20.0)
        out = tmp_path / "out"
        assert run(["probe", "--config", write_cfg(tmp_path, data), "--out", out]) == 0
        ch = cli.build_channel(cli.resolve_config(data), np.random.default_rng(data["seed"]))
        times, stokes, fidelity = ch.probe_trace(np.array([1.0, 0.0, 0.0]), 20.0, 0.1)
        rows = [["t_s", "s1", "s2", "s3", "fidelity"]]
        rows += [
            [f"{t:.6f}", f"{s[0]:.9f}", f"{s[1]:.9f}", f"{s[2]:.9f}", f"{fid:.9f}"]
            for t, s, fid in zip(times, stokes, fidelity)
        ]
        data = (out / "probe.csv").read_bytes()
        assert data == csv_writer_text(rows, lineterminator="\n").encode()
        assert b"\r" not in data and data.count(b"\n") == len(rows) == 202

    def test_series_csv_bytes_equal_csv_writer(self, tmp_path, capsys):
        # groups with and without a timed-out session
        out, windows, counts = longrun_run(tmp_path, duration=600.0, rate=30 * DAY_RATE, seed=4)
        series = analysis.longrun_series(windows, counts)
        t_s, min_f, s, sigma_s, compensation_s, post_timeout = series
        assert set(post_timeout) == {False, True}
        rows = [["t_s", "min_ref_fidelity", "S", "sigma_S", "compensation_time_s", "post_timeout"]]
        rows += [
            [f"{t:.6f}", f"{f:.9f}", f"{v:.6f}", f"{sigma:.6f}", f"{comp:.6f}", int(flag)]
            for t, f, v, sigma, comp, flag in zip(
                t_s, min_f, s.tolist(), sigma_s.tolist(), compensation_s, post_timeout
            )
        ]
        data = (out / "series.csv").read_bytes()
        assert data == csv_writer_text(rows, lineterminator="\n").encode()
        assert b"\r" not in data

    def test_series_without_a_group_is_the_header_alone(self, tmp_path, capsys):
        # two windows make no CHSH group: series.csv is its header, and
        # summary.json has no S statistics
        out, windows, _ = longrun_run(tmp_path, duration=6.0)
        assert len(windows) == 2
        header = "t_s,min_ref_fidelity,S,sigma_S,compensation_time_s,post_timeout\n"
        assert (out / "series.csv").read_bytes() == header.encode()
        assert "mean_S" not in json.loads((out / "summary.json").read_text())

    def test_table_without_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_table(path, "a,b", [], end="\n")
        assert path.read_bytes() == b"a,b\n"
        cli._write_table(path, "a,b", iter([]))
        assert path.read_bytes() == b"a,b\r\n"

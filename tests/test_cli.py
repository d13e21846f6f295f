"""End-to-end scenario runs, config validation and determinism."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import polarlink
from polarlink import calibrate, cli
from polarlink.apc import MAX_SESSION_CYCLES, ApcConfig
from polarlink.channel import DAY_RATE

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

    def test_zero_duration(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, longrun_cfg(duration=0.0))
        out = tmp_path / "out"
        assert run(["longrun", "--config", cfg, "--out", out]) == 0
        assert (out / "timeline.csv").read_text() == ""

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
            (200, 1.0e-6, 2, "last median 19.60 s"),
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

    def test_rejects_zero_seeds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, probe_cfg(duration=5.0))
        assert run(["probe", "--config", cfg, "--out", tmp_path / "o", "--seeds", "0"]) == 2

"""Self-tests of the benchmark's own logic: span arithmetic, seed derivation,
wrapper install/restore, host-speed scaling, output checks and the metric
list.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import signal
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import hostspeed
import layers
from spans import Span, Target, TraceError, Tracer, account
from worker import tree_digest
from workloads import WORKLOADS, OpInput

ROOT = Path(__file__).resolve().parents[2]


def span(span_id, parent, start, end, name="x", thread=1):
    return Span(span_id, parent, 1, thread, name, start, end)


# -- self time ---------------------------------------------------------------


def test_self_time_of_nested_tree():
    # run_link [0, 10] > run_session [1, 6] > advance [2, 3], advance [4, 5.5]
    #                  > to_transform [7, 8]
    spans = [
        span(1, None, 0.0, 10.0, "run_link"),
        span(2, 1, 1.0, 6.0, "run_session"),
        span(3, 2, 2.0, 3.0, "advance"),
        span(4, 2, 4.0, 5.5, "advance"),
        span(5, 1, 7.0, 8.0, "to_transform"),
    ]
    acc = account(spans, op_seconds=12.0)
    assert acc.self_s == pytest.approx({1: 4.0, 2: 2.5, 3: 1.0, 4: 1.5, 5: 1.0})
    assert acc.remainder_s == pytest.approx(2.0)
    assert sum(acc.self_s.values()) + acc.remainder_s == pytest.approx(12.0)


def test_threads_have_their_own_top_level_spans():
    # Two pool threads, each on its own CPU clock; the op used 5 CPU seconds.
    spans = [
        span(1, None, 0.0, 2.0, thread=10),
        span(2, 1, 0.5, 1.0, thread=10),
        span(3, None, 0.0, 2.5, thread=11),
    ]
    acc = account(spans, op_seconds=5.0)
    assert acc.self_s == pytest.approx({1: 1.5, 2: 0.5, 3: 2.5})
    assert acc.remainder_s == pytest.approx(0.5)


@pytest.mark.parametrize(
    "spans, op_seconds",
    [
        ([span(1, None, 0.0, 1.0), span(2, 1, 0.5, 1.5)], 2.0),  # child outside parent
        ([span(1, None, 0.0, 1.0), span(2, 1, 0.1, 0.6), span(3, 1, 0.5, 0.9)], 2.0),  # overlap
        ([span(2, 7, 0.1, 0.2)], 2.0),  # parent missing
        ([span(1, None, 0.0, 1.0), span(2, 1, 0.1, 0.2, thread=2)], 2.0),  # parent in other thread
        ([span(1, None, 0.0, 3.0)], 2.0),  # spans longer than the op
    ],
)
def test_inconsistent_span_trees_are_rejected(spans, op_seconds):
    with pytest.raises(TraceError):
        account(spans, op_seconds)


# -- seed derivation -----------------------------------------------------------


def test_op_inputs_derive_from_base_seed():
    longrun = WORKLOADS["longrun_day"]
    first = longrun.inputs(0, {})
    assert [op.seed for op in first] == [11, 12, 13, 14]
    assert longrun.inputs(0, {}) == first
    seen = set()
    for base in range(50):
        seeds = {op.seed for op in longrun.inputs(base, {})}
        assert not seeds & seen
        seen |= seeds


def test_fringe_inputs_do_not_share_program_seeds():
    fringe = WORKLOADS["fringe_burst"]
    program_seeds = [s + k for op in fringe.inputs(3, {}) for s in [op.seed] for k in (0, 1)]
    assert len(program_seeds) == len(set(program_seeds)) == 2 * fringe.panel
    assert fringe.inputs(0, {})[0].seed == 7


def test_calibrate_keeps_its_rng_seed_and_varies_the_night_ratio():
    cal = WORKLOADS["calibrate"]
    base_cfg = {"calibrate": {"n_seeds": 200, "night_ratio": 500.0}}
    a, b = cal.inputs(1, base_cfg), cal.inputs(2, base_cfg)
    assert a[0].seed == b[0].seed == 3
    assert a[0].config["calibrate"]["night_ratio"] != b[0].config["calibrate"]["night_ratio"]
    assert base_cfg["calibrate"]["night_ratio"] == 500.0
    with pytest.raises(ValueError):
        cal.inputs(-1, base_cfg)


# -- wrapper install / restore -----------------------------------------------------


@pytest.fixture
def fakepkg():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf(x):
        return x + 1

    def outer(x):
        return a.leaf(x) * 2

    class Box:
        def get(self):
            return a.outer(1)

    a.leaf, a.outer, a.Box = leaf, outer, Box
    b.outer = outer  # as after "from .a import outer"
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


def test_wrappers_are_installed_at_every_lookup_site_and_restored(fakepkg):
    a, b = fakepkg
    originals = (a.leaf, a.outer, a.Box.__dict__["get"])
    tracer = Tracer()
    tracer.install(
        [
            Target("a.leaf", "fakepkg.a", "leaf"),
            Target("a.outer", "fakepkg.a", "outer"),
            Target("a.Box.get", "fakepkg.a", "Box.get"),
        ]
    )
    assert b.outer is not originals[1] and b.outer.__wrapped__ is originals[1]
    assert b.outer(1) == 4
    assert a.Box().get() == 4
    with pytest.raises(TraceError):
        tracer.install([Target("a.leaf", "fakepkg.a", "leaf")])
    assert tracer.restore() == 4
    assert (a.leaf, a.outer, a.Box.__dict__["get"]) == originals
    assert b.outer is originals[1]
    names = [(s.name, s.parent_id is None) for s in tracer.spans]
    assert names == [
        ("a.leaf", False),
        ("a.outer", True),
        ("a.leaf", False),
        ("a.outer", False),
        ("a.Box.get", True),
    ]


def test_pool_thread_spans_are_top_level_in_their_thread(fakepkg):
    a, _ = fakepkg
    tracer = Tracer()
    tracer.install([Target("a.outer", "fakepkg.a", "outer")])
    try:
        t = threading.Thread(target=a.outer, args=(1,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    finally:
        tracer.restore()
    [s] = tracer.spans
    assert s.parent_id is None and s.thread != threading.get_ident()


def test_polarlink_targets_cover_every_caller():
    from polarlink import apc, cli, scheduler

    original = apc.run_session
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        assert cli.run_session.__wrapped__ is original
        assert scheduler.run_session.__wrapped__ is original
        assert apc.run_session.__wrapped__ is original
    finally:
        tracer.restore()
    assert cli.run_session is scheduler.run_session is apc.run_session is original


# -- host-speed scaling ----------------------------------------------------------------


def test_op_time_is_scaled_by_the_probes_taken_during_it():
    n = hostspeed.PROBE_NOMINAL_S
    assert hostspeed.MIN_SAMPLES == 4
    samples = [n, n, 2 * n, 2 * n, 2 * n, 2 * n, 3 * n, 3 * n]
    # samples 2-5 fell in the op (host at half speed); their probe time is removed
    assert hostspeed.scaled_seconds(4.0 + 8 * n, samples, 2, 6) == pytest.approx(2.0)
    # a short op holding sample 6 alone borrows samples 4, 5 and 7: slowdown 2.5
    assert hostspeed.scaled_seconds(1.0 + 3 * n, samples, 6, 7) == pytest.approx(0.4)
    # an op after the last sample uses the last four
    assert hostspeed.scaled_seconds(2.5, samples, 8, 8) == pytest.approx(1.0)
    assert hostspeed.scaled_seconds(1.0, [2 * n], 1, 1) == pytest.approx(0.5)


def test_sampler_probes_while_active_and_restores_the_handler(monkeypatch):
    monkeypatch.setattr(hostspeed, "SAMPLE_INTERVAL_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    samples = []
    with hostspeed.Sampler(samples):
        deadline = time.monotonic() + 5.0
        while len(samples) < 3 and time.monotonic() < deadline:
            sum(range(10000))
    assert len(samples) >= 3 and all(p > 0 for p in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- output checks ------------------------------------------------------------------


def _write_fringe(out, timed_out, s_value=2.2):
    (out / "aggregate.json").write_text(json.dumps({"seeds": [7, 8]}))
    for seed in (7, 8):
        run = out / f"seed_{seed:04d}"
        run.mkdir()
        outcome = "timeout" if timed_out else "converged"
        (run / "sessions.csv").write_text(f"start_time_s,outcome\n0.0,{outcome},1\n")
        (run / "chsh.json").write_text(json.dumps({"S": s_value}))
        if timed_out:
            (run / "chsh_corrected.json").write_text(json.dumps({"S": s_value}))


def test_fringe_check(tmp_path):
    check = WORKLOADS["fringe_burst"].check
    op = OpInput(7, {})
    for timed_out in (True, False):
        out = tmp_path / str(timed_out)
        out.mkdir()
        _write_fringe(out, timed_out)
        assert check(out, op) == []
    bad = tmp_path / "bad"
    bad.mkdir()
    _write_fringe(bad, True, s_value=2.9)
    assert len(check(bad, op)) == 4
    (bad / "seed_0007" / "chsh_corrected.json").unlink()
    assert any("chsh_corrected" in p for p in check(bad, op))


def test_longrun_check_applies_criterion_7_at_the_pinned_seed(tmp_path):
    check = WORKLOADS["longrun_day"].check
    for name in ("timeline.csv", "sessions.csv", "series.csv"):
        (tmp_path / name).write_text("")
    summary = {
        "uptime_fraction": 0.925,
        "mean_S": 2.3608,
        "corrected_mean_S": 2.3605,
        "fraction_timeout": 0.001,
        "n_excluded_groups": 1,
    }
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert check(tmp_path, OpInput(30, {})) == []
    assert len(check(tmp_path, OpInput(11, {}))) == 1
    summary.update(fraction_timeout=0.0, n_excluded_groups=0)
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert check(tmp_path, OpInput(92, {})) == []
    assert len(check(tmp_path, OpInput(11, {}))) == 2
    summary.update(uptime_fraction=0.9, n_excluded_groups=1)
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert len(check(tmp_path, OpInput(92, {}))) == 2


def test_calibrate_check(tmp_path):
    check = WORKLOADS["calibrate"].check
    op = OpInput(3, {"calibrate": {"target_time_s": 20.0, "night_ratio": 501.0}})
    good = {"day_rate": 0.0130387, "night_rate": 0.0130387 / 501.0, "achieved_median_s": 20.5}
    (tmp_path / "schedule.json").write_text(json.dumps(good))
    assert check(tmp_path, op) == []
    bad = dict(good, day_rate=0.02, night_rate=0.02 / 500.0)
    (tmp_path / "schedule.json").write_text(json.dumps(bad))
    assert len(check(tmp_path, op)) == 2


def test_tree_digest_sees_every_byte_and_name(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "f.csv").write_bytes(b"1,2\n")
    digest, n = tree_digest(tmp_path)
    assert n == 4
    (tmp_path / "d" / "f.csv").write_bytes(b"1,3\n")
    assert tree_digest(tmp_path)[0] != digest
    (tmp_path / "d" / "f.csv").rename(tmp_path / "d" / "g.csv")
    (tmp_path / "d" / "g.csv").write_bytes(b"1,2\n")
    assert tree_digest(tmp_path)[0] != digest


# -- metric list ----------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)

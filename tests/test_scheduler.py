"""Timeline construction, uptime accounting and window count sampling."""

import math

import numpy as np
import pytest

from polarlink.apc import OUTCOME_SKIPPED, OUTCOME_TIMEOUT, ApcConfig, Controller
from polarlink.channel import DAY_RATE, NIGHT_RATE, DriftSchedule, FiberChannel
from polarlink.polmath import AnalyzerSetting, PolTransform, TwoQubitPolState
from polarlink.scheduler import (
    CHSH_WINDOW_SETTINGS,
    KIND_COMPENSATION,
    KIND_UPTIME,
    LinkTimeline,
    SchedulerConfig,
    SchedulerError,
    TimelineEntry,
    run_link,
    simulate_window_counts,
    uptime_fraction,
    write_timeline_csv,
)
from polarlink.source import DetectionChain, PairSource, port_rates


def make_link(rate, seed, duration, stabilized=True, plan=None):
    ch = FiberChannel(DriftSchedule.constant(rate), np.random.default_rng(seed))
    ctrl = Controller()
    cfg = SchedulerConfig(stabilized=stabilized)
    rng = np.random.default_rng(seed + 1)
    tl = run_link(ch, ctrl, ApcConfig(), cfg, duration, rng, plan=plan)
    return tl, ch, ctrl, cfg


SRC = PairSource(state=TwoQubitPolState(0.8))


class TestConfigAndTimeline:
    def test_rejects_measure_longer_than_uptime(self):
        with pytest.raises(SchedulerError):
            SchedulerConfig(uptime_window_s=1.0, measure_window_s=2.0)

    def test_rejects_noncontiguous_entries(self):
        a = TimelineEntry(0.0, 1.0, KIND_COMPENSATION)
        b = TimelineEntry(2.0, 3.0, KIND_UPTIME)
        with pytest.raises(SchedulerError):
            LinkTimeline((a, b))

    def test_rejects_nonalternating_kinds(self):
        a = TimelineEntry(0.0, 1.0, KIND_UPTIME)
        b = TimelineEntry(1.0, 2.0, KIND_UPTIME)
        with pytest.raises(SchedulerError):
            LinkTimeline((a, b))


class TestRunLink:
    def test_alternation_and_span(self):
        tl, ch, _, _ = make_link(NIGHT_RATE, 0, 60.0)
        kinds = [e.kind for e in tl.entries]
        assert kinds[::2] == [KIND_COMPENSATION] * (len(kinds) // 2)
        assert kinds[1::2] == [KIND_UPTIME] * (len(kinds) // 2)
        assert tl.span() == pytest.approx(ch.sim_time)
        assert tl.span() >= 60.0

    def test_quiet_channel_uptime_near_ideal(self):
        # every session skips after one check cycle: uptime = 3 / 3.12
        tl, _, _, cfg = make_link(0.0, 1, 100.0)
        ideal = cfg.uptime_window_s / (cfg.uptime_window_s + ApcConfig().cycle_time_s)
        assert uptime_fraction(tl) == pytest.approx(ideal, abs=1e-6)
        assert all(s.outcome == OUTCOME_SKIPPED for s in tl.sessions())

    def test_unstabilized_controller_never_moves(self):
        _, _, ctrl, _ = make_link(DAY_RATE, 2, 120.0, stabilized=False)
        assert np.allclose(ctrl.params, 0.0)

    def test_stabilized_day_rate_keeps_fidelity(self):
        tl, _, _, _ = make_link(DAY_RATE, 3, 300.0)
        after = [s.min_fidelity_after for s in tl.sessions()]
        assert np.median(after) >= 0.98

    def test_snapshots_present_on_uptime_windows(self):
        tl, _, _, _ = make_link(DAY_RATE, 4, 30.0)
        for w in tl.uptime_windows():
            assert isinstance(w.transform, PolTransform)
            assert isinstance(w.controller_transform, PolTransform)
            assert w.session is None

    def test_deterministic(self):
        def spans(seed):
            tl, _, _, _ = make_link(DAY_RATE, seed, 60.0)
            return [(e.start_s, e.end_s, e.kind) for e in tl.entries]

        assert spans(5) == spans(5)

    def test_finite_plan_stops_when_it_runs_out(self):
        plan = [(AnalyzerSetting(0.0), AnalyzerSetting(a)) for a in (0.0, 30.0, 60.0)]
        tl, _, _, _ = make_link(DAY_RATE, 11, math.inf, plan=plan)
        assert [w.setting for w in tl.uptime_windows()] == plan
        assert len(tl.sessions()) == len(plan)

    def test_duration_cuts_a_long_plan(self):
        plan = [CHSH_WINDOW_SETTINGS[0]] * 100
        tl, _, _, _ = make_link(0.0, 12, 10.0, plan=plan)
        # quiet channel: each session + window lasts 3.12 s, so 4 pairs cover 10 s
        assert len(tl.uptime_windows()) == 4
        assert tl.span() >= 10.0


class TestWindowCounts:
    def test_settings_cycle_through_four(self):
        # no plan: the windows repeat the four CHSH pairs
        tl, _, _, cfg = make_link(0.0, 6, 60.0)
        chain = DetectionChain(idler_transmittance=10 ** (-2.1))
        counts = simulate_window_counts(tl, SRC, chain, cfg, np.random.default_rng(6))
        settings = [w.setting for w in counts]
        assert settings == [CHSH_WINDOW_SETTINGS[k % 4] for k in range(len(counts))]
        assert settings == [w.setting for w in tl.uptime_windows()]
        assert len(counts) == len(tl.uptime_windows())

    def test_counts_match_rate_budget(self):
        # static, compensated-perfect link: pooled counts agree with the
        # analytic port rates within 5 sigma
        tl, _, _, cfg = make_link(0.0, 7, 600.0)
        chain = DetectionChain(idler_transmittance=10 ** (-2.1))
        counts = simulate_window_counts(tl, SRC, chain, cfg, np.random.default_rng(7))
        for a, b in CHSH_WINDOW_SETTINGS:
            group = [w for w in counts if w.setting == (a, b)]
            total = np.sum([w.counts for w in group], axis=0)
            rates = port_rates(SRC, chain, a, b, PolTransform.identity())
            expected = rates * cfg.measure_window_s * len(group)
            sigma = np.sqrt(np.maximum(expected, 1.0))
            assert np.all(np.abs(total - expected) < 5 * sigma)

    def test_noiseless_counts_are_exact_means(self):
        plan = [(AnalyzerSetting(45.0), AnalyzerSetting(a)) for a in (0.0, 50.0, 100.0)]
        tl, _, _, cfg = make_link(DAY_RATE, 13, math.inf, plan=plan)
        chain = DetectionChain(idler_transmittance=10 ** (-2.1))
        rng = np.random.default_rng(13)
        state = rng.bit_generator.state
        counts = simulate_window_counts(tl, SRC, chain, cfg, rng, noiseless=True)
        assert rng.bit_generator.state == state  # no draws
        for w, window in zip(counts, tl.uptime_windows()):
            effective = window.controller_transform.compose(window.transform)
            expected = port_rates(SRC, chain, *window.setting, effective) * cfg.measure_window_s
            assert np.array_equal(w.counts, expected)

    def test_window_metadata(self):
        tl, _, _, cfg = make_link(DAY_RATE, 8, 60.0)
        chain = DetectionChain(idler_transmittance=1.0)
        counts = simulate_window_counts(tl, SRC, chain, cfg, np.random.default_rng(8))
        sessions = tl.sessions()
        for w, s in zip(counts, sessions):
            assert w.duration_s == cfg.measure_window_s
            assert w.post_timeout == (s.outcome == OUTCOME_TIMEOUT)
            assert w.min_ref_fidelity == s.min_fidelity_after
            assert w.compensation_time_s == s.duration_s


class TestTimelineCsv:
    def test_roundtrip_shape(self, tmp_path):
        tl, _, _, _ = make_link(DAY_RATE, 9, 30.0)
        path = tmp_path / "timeline.csv"
        write_timeline_csv(path, tl)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "start_s,end_s,kind,outcome,min_f_after"
        assert len(lines) == len(tl.entries) + 1

"""Link windows, uptime accounting and window count sampling."""

import math

import numpy as np
import pytest

from polarlink.apc import OUTCOME_SKIPPED, OUTCOME_TIMEOUT, ApcConfig, Controller
from polarlink.channel import DAY_RATE, NIGHT_RATE, DriftSchedule, FiberChannel
from polarlink import scheduler
from polarlink.polmath import AnalyzerSetting, PolTransform
from polarlink.scheduler import (
    CHSH_WINDOW_SETTINGS,
    SchedulerConfig,
    SchedulerError,
    Window,
    run_link,
    simulate_window_counts,
    uptime_fraction,
)
from polarlink.source import DetectionChain, PairSource, port_rates
from tests.oracles import matrix


def make_link(rate, seed, duration, stabilized=True, plan=None):
    ch = FiberChannel(DriftSchedule.constant(rate), np.random.default_rng(seed))
    ctrl = Controller()
    cfg = SchedulerConfig(stabilized=stabilized)
    windows = run_link(ch, ctrl, ApcConfig(), cfg, duration, plan=plan)
    return windows, ch, ctrl, cfg


SRC = PairSource(visibility=0.8)


class TestRunLink:
    @pytest.mark.parametrize(
        "rate,seed", [(0.0, 20), (NIGHT_RATE, 21), (DAY_RATE, 22)], ids=["quiet", "night", "day"]
    )
    def test_windows_tile_the_link(self, monkeypatch, rate, seed):
        # each session starts where the previous window ends, and each window
        # starts at the channel time right after its session
        ch = FiberChannel(DriftSchedule.constant(rate), np.random.default_rng(seed))
        ch.advance(5.0)
        t0 = ch.sim_time
        session_ends = []
        real_run_session = scheduler.run_session

        def spy(ch, *args, **kwargs):
            record = real_run_session(ch, *args, **kwargs)
            session_ends.append(ch.sim_time)
            return record

        monkeypatch.setattr(scheduler, "run_session", spy)
        windows = run_link(ch, Controller(), ApcConfig(), SchedulerConfig(), 40.0)
        assert windows and all(isinstance(w, Window) for w in windows)
        assert windows[0].session.start_time_s == t0
        assert [w.start_s for w in windows] == session_ends
        for prev, w in zip(windows, windows[1:]):
            assert w.session.start_time_s == prev.end_s
        for w in windows:
            assert w.session.start_time_s < w.start_s < w.end_s
        assert windows[-1].end_s == ch.sim_time

    def test_alternation_and_span(self):
        windows, ch, _, _ = make_link(NIGHT_RATE, 0, 60.0)
        span = windows[-1].end_s - windows[0].session.start_time_s
        assert span == pytest.approx(ch.sim_time)
        assert span >= 60.0

    def test_quiet_channel_uptime_near_ideal(self):
        # every session skips after one check cycle: uptime = 3 / 3.12
        windows, _, _, cfg = make_link(0.0, 1, 100.0)
        ideal = cfg.uptime_window_s / (cfg.uptime_window_s + ApcConfig().cycle_time_s)
        assert uptime_fraction(windows) == pytest.approx(ideal, abs=1e-6)
        assert all(w.session.outcome == OUTCOME_SKIPPED for w in windows)

    def test_unstabilized_controller_never_moves(self):
        _, _, ctrl, _ = make_link(DAY_RATE, 2, 120.0, stabilized=False)
        assert np.allclose(ctrl.params, 0.0)

    def test_stabilized_day_rate_keeps_fidelity(self):
        windows, _, _, _ = make_link(DAY_RATE, 3, 300.0)
        after = [w.session.min_fidelity_after for w in windows]
        assert np.median(after) >= 0.98

    def test_snapshots_present_on_uptime_windows(self):
        windows, _, _, _ = make_link(DAY_RATE, 4, 30.0)
        for w in windows:
            assert len(w.idler_quat) == 4 and all(type(c) is float for c in w.idler_quat)

    def test_deterministic(self):
        def spans(seed):
            windows, _, _, _ = make_link(DAY_RATE, seed, 60.0)
            return [(w.session.start_time_s, w.start_s, w.end_s) for w in windows]

        assert spans(5) == spans(5)

    def test_finite_plan_stops_when_it_runs_out(self):
        plan = [(AnalyzerSetting(0.0), AnalyzerSetting(a)) for a in (0.0, 30.0, 60.0)]
        windows, _, _, _ = make_link(DAY_RATE, 11, math.inf, plan=plan)
        assert [w.setting for w in windows] == plan

    def test_duration_cuts_a_long_plan(self):
        plan = [CHSH_WINDOW_SETTINGS[0]] * 100
        windows, _, _, _ = make_link(0.0, 12, 10.0, plan=plan)
        # quiet channel: each session + window lasts 3.12 s, so 4 pairs cover 10 s
        assert len(windows) == 4
        assert windows[-1].end_s - windows[0].session.start_time_s >= 10.0

    def test_window_cap(self, monkeypatch):
        monkeypatch.setattr(scheduler, "MAX_WINDOWS", 3)
        shortest = SchedulerConfig().uptime_window_s + ApcConfig().cycle_time_s
        windows, _, _, _ = make_link(0.0, 13, 3 * shortest)
        assert len(windows) == 3
        for duration in (3 * shortest * (1 + 1e-9), math.inf):
            with pytest.raises(SchedulerError, match="over 3 windows"):
                make_link(0.0, 13, duration)
        # a plan bounds the link itself
        windows, _, _, _ = make_link(0.0, 13, math.inf, plan=[CHSH_WINDOW_SETTINGS[0]] * 5)
        assert len(windows) == 5


class TestWindowCounts:
    def test_settings_cycle_through_four(self):
        # no plan: the windows repeat the four CHSH pairs
        windows, _, _, cfg = make_link(0.0, 6, 60.0)
        chain = DetectionChain(idler_transmittance=10 ** (-2.1))
        counts = simulate_window_counts(windows, SRC, chain, cfg, np.random.default_rng(6))
        settings = [w.setting for w in windows]
        assert settings == [CHSH_WINDOW_SETTINGS[k % 4] for k in range(len(windows))]
        assert len(counts) == len(windows)
        assert all(c.shape == (4,) for c in counts)

    def test_counts_match_rate_budget(self):
        # static, compensated-perfect link: pooled counts agree with the
        # analytic port rates within 5 sigma
        windows, _, _, cfg = make_link(0.0, 7, 600.0)
        chain = DetectionChain(idler_transmittance=10 ** (-2.1))
        counts = simulate_window_counts(windows, SRC, chain, cfg, np.random.default_rng(7))
        for a, b in CHSH_WINDOW_SETTINGS:
            group = [c for w, c in zip(windows, counts) if w.setting == (a, b)]
            total = np.sum(group, axis=0)
            rates = port_rates(SRC, chain, a, b)
            expected = rates * cfg.measure_window_s * len(group)
            sigma = np.sqrt(np.maximum(expected, 1.0))
            assert np.all(np.abs(total - expected) < 5 * sigma)

    def test_noiseless_counts_are_exact_means(self):
        plan = [(AnalyzerSetting(45.0), AnalyzerSetting(a)) for a in (0.0, 50.0, 100.0)]
        windows, _, _, cfg = make_link(DAY_RATE, 13, math.inf, plan=plan)
        chain = DetectionChain(idler_transmittance=10 ** (-2.1))
        rng = np.random.default_rng(13)
        state = rng.bit_generator.state
        counts = simulate_window_counts(windows, SRC, chain, cfg, rng, noiseless=True)
        assert rng.bit_generator.state == state  # no draws
        for c, w in zip(counts, windows):
            rates = port_rates(SRC, chain, *w.setting, PolTransform(matrix(w.idler_quat)))
            assert np.array_equal(c, rates * cfg.measure_window_s)

    def test_window_metadata(self):
        # a fast channel and a short timeout drive some sessions into timeout;
        # post_timeout marks exactly the windows that follow them
        ch = FiberChannel(DriftSchedule.constant(20 * DAY_RATE), np.random.default_rng(8))
        apc_cfg = ApcConfig(timeout_s=0.5)
        windows = run_link(ch, Controller(), apc_cfg, SchedulerConfig(), 120.0)
        outcomes = [w.session.outcome for w in windows]
        assert OUTCOME_TIMEOUT in outcomes and OUTCOME_SKIPPED in outcomes
        assert [w.post_timeout for w in windows] == [o == OUTCOME_TIMEOUT for o in outcomes]

"""Drift schedule, fiber channel walk, loss and probe traces."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from polarlink import _kernels, channel, cli
from polarlink.channel import (
    COARSE_MIN_STEPS,
    DAY_RATE,
    MAX_STEP_S,
    MAX_WALK_STEPS,
    NIGHT_RATE,
    Burst,
    ChannelError,
    DriftSchedule,
    FiberChannel,
    _probe_s1_chunks,
    _step_grid,
    _step_scales,
    _walk_steps,
    first_crossing_time,
    probe_crossing_times,
)
from polarlink.cli import build_channel, load_config, median_crossing_time
from polarlink.polmath import StokesVector
from tests.oracles import haar_quat, matrix, per_step_walk

H = StokesVector(1, 0, 0)


def make_channel(rate, seed, **kw):
    return FiberChannel(DriftSchedule.constant(rate), np.random.default_rng(seed), **kw)


class TestDriftSchedule:
    def test_day_night_lookup(self):
        sched = DriftSchedule.day_night(day_rate=1.0, night_rate=0.01)
        assert sched.rate_at(0.0) == pytest.approx(0.01)
        assert sched.rate_at(12 * 3600.0) == pytest.approx(1.0)
        assert sched.rate_at(20 * 3600.0) == pytest.approx(0.01)
        # wraps around the period
        assert sched.rate_at(86400.0 + 12 * 3600.0) == pytest.approx(1.0)

    def test_burst_multiplier(self):
        sched = DriftSchedule.constant(0.5, bursts=[Burst(10.0, 5.0, 100.0)])
        assert sched.rate_at(9.9) == pytest.approx(0.5)
        assert sched.rate_at(12.0) == pytest.approx(50.0)
        assert sched.rate_at(15.0) == pytest.approx(0.5)


# Segments at 0, 3 and 7 s of a 10 s period; the first two bursts overlap
# and the third lies in the third period.  The rate differs on either side
# of every edge, so a walk that crosses one has no single rate.
EDGE_SCHEDULE = DriftSchedule(
    segments=((0.0, 0.5), (3.0, 0.02), (7.0, 2.0)),
    period_s=10.0,
    bursts=(Burst(4.5, 3.0, 7.0), Burst(5.0, 1.0, 3.0), Burst(23.0, 0.25, 9.0)),
)
EDGES = sorted(
    {k * 10.0 + s for k in range(4) for s in (0.0, 3.0, 7.0)}
    | {e for b in EDGE_SCHEDULE.bursts for e in (b.start_s, b.start_s + b.duration_s)}
)


def reference_scales(schedule, t0, n, dt):
    """sqrt(rate * dt) of each step, read off rate_at at every step start."""
    dts = np.full(n, dt)
    return np.sqrt(schedule.rate_at(t0 + np.concatenate(([0.0], np.cumsum(dts[:-1])))) * dts)


def start_ending_on(edge, n, dt):
    """A start whose walk of n steps of dt has its last step start on ``edge``."""
    last = _step_grid(n, dt)[0]
    t0 = edge - last
    while t0 + last < edge:
        t0 = np.nextafter(t0, np.inf)
    while t0 + last > edge:
        t0 = np.nextafter(t0, -np.inf)
    return float(t0)


class TestStepScales:
    def test_step_grid_sums_as_the_walk_does(self):
        for n, dt in [(1, 0.1), (2, 0.06), (10, 0.096), (30, 0.1), (1001, 0.07)]:
            dts = np.full(n, dt)
            last = np.cumsum(dts[:-1])[-1] if n > 1 else 0.0
            assert _step_grid(n, dt) == (last, float(np.sum(dts)))

    def test_bit_equal_to_rate_at_on_random_and_edge_walks(self):
        rng = np.random.default_rng(10)
        walks = []
        for _ in range(1500):
            n = int(rng.integers(1, 41))
            dt = float(rng.choice([0.1, 0.06, 0.096, rng.uniform(1e-3, 0.5)]))
            walks.append((float(rng.uniform(-1.0, 40.0)), n, dt))
        for edge in EDGES:
            for n, dt in [(1, 0.1), (2, 0.06), (10, 0.096), (30, 0.1), (7, 0.3)]:
                ending = start_ending_on(edge, n, dt)
                assert ending + _step_grid(n, dt)[0] == edge
                walks.append((edge, n, dt))  # starts on the edge
                walks.append((ending, n, dt))  # ends on it
                walks.append((edge - dt * (n // 2) - 0.25 * dt, n, dt))  # straddles it
                walks.append((float(np.nextafter(edge, -np.inf)), n, dt))
        single_rate = 0
        for t0, n, dt in walks:
            scale = _step_scales(EDGE_SCHEDULE, t0, n, dt)
            expected = reference_scales(EDGE_SCHEDULE, t0, n, dt)
            assert np.array_equal(np.broadcast_to(scale, n), expected)
            single_rate += np.ndim(scale) == 0
        # both the one-float path and the per-step path are taken
        assert 0.3 * len(walks) < single_rate < 0.9 * len(walks)

    def test_single_rate_only_within_a_segment_period_and_burst_state(self):
        assert EDGE_SCHEDULE.constant_rate(1.0, 2.9) == 0.5
        assert EDGE_SCHEDULE.constant_rate(5.5, 5.9) == 0.02 * 7.0 * 3.0  # both bursts
        assert EDGE_SCHEDULE.constant_rate(11.0, 12.0) == 0.5  # a later period
        assert EDGE_SCHEDULE.constant_rate(3.0, 4.5) is None  # a burst starts at t1
        assert EDGE_SCHEDULE.constant_rate(4.5, 4.9) == 0.02 * 7.0  # ... or at t0
        assert EDGE_SCHEDULE.constant_rate(9.0, 10.0) is None  # the period wraps
        assert EDGE_SCHEDULE.constant_rate(1.0, 11.0) is None  # a whole period
        assert EDGE_SCHEDULE.constant_rate(-1.0, -0.5) is None  # before t = 0
        assert EDGE_SCHEDULE.constant_rate(float("nan"), float("nan")) is None


class TestTransmittance:
    def test_lossless(self):
        assert channel.loss_transmittance(0.0) == pytest.approx(1.0)

    def test_21_db(self):
        assert channel.loss_transmittance(21.0) == pytest.approx(0.007943, abs=1e-6)

    def test_3_db(self):
        assert channel.loss_transmittance(3.0) == pytest.approx(0.5012, abs=1e-4)


class TestStep:
    def test_zero_rate_leaves_transform(self):
        ch = make_channel(0.0, 1)
        before = matrix(ch.quat)
        ch.advance(5.0)
        assert np.array_equal(matrix(ch.quat), before)
        assert ch.sim_time == pytest.approx(5.0)

    def test_rejects_nonpositive_dt(self):
        ch = make_channel(0.1, 1)
        ch.advance(0.0)  # a zero duration takes no step
        assert ch.sim_time == 0.0
        with pytest.raises(ChannelError):
            ch.advance(-0.1)

    def test_walk_length_cap(self):
        # a walk of exactly MAX_WALK_STEPS steps is allowed, a longer one is not
        assert _walk_steps(float(MAX_WALK_STEPS), 1.0) == MAX_WALK_STEPS
        with pytest.raises(ChannelError, match="steps"):
            _walk_steps(float(MAX_WALK_STEPS + 1), 1.0)
        ch = make_channel(0.1, 1, max_step_s=1.0e-300)
        with pytest.raises(ChannelError):
            ch.advance(0.1)
        assert ch.sim_time == 0.0

    def test_deterministic_trajectories(self):
        def run(seed):
            ch = make_channel(DAY_RATE, seed)
            for _ in range(50):
                ch.advance(0.1)
            return matrix(ch.quat)

        assert np.array_equal(run(3), run(3))
        assert not np.array_equal(run(3), run(4))

    def test_transform_stays_valid(self):
        ch = make_channel(DAY_RATE, 5)
        ch.advance(30.0)
        r = matrix(ch.quat)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_day_rate_calibration(self):
        # median first 0.95-fidelity crossing for the calibrated day rate ~ 20 s
        crossings = []
        for seed in range(300):
            ch = make_channel(DAY_RATE, seed)
            t, _, f = ch.probe_trace(H, 60.0, 0.1)
            c = first_crossing_time(t, f, 0.95)
            crossings.append(c if c is not None else 60.0)
        assert np.median(crossings) == pytest.approx(20.0, rel=0.05)

    def test_isotropy(self):
        # no preferred drift direction: mean image stays colinear with input
        imgs = []
        for seed in range(400):
            ch = make_channel(DAY_RATE, seed)
            ch.advance(10.0)
            imgs.append(matrix(ch.quat) @ H.as_array())
        mean = np.mean(imgs, axis=0)
        assert abs(mean[1]) < 0.05 and abs(mean[2]) < 0.05
        assert mean[0] > 0.1  # still correlated with the input at t=10 s

    def test_monotone_diffusion(self):
        # expected fidelity is non-increasing in t at constant rate
        fids = np.zeros((200, 4))
        for seed in range(200):
            ch = make_channel(DAY_RATE, seed)
            for j, dt in enumerate([5.0, 5.0, 5.0, 5.0]):
                ch.advance(dt)
                h_out = matrix(ch.quat) @ H.as_array()
                fids[seed, j] = 0.5 * (1 + H.as_array() @ h_out)
        means = fids.mean(axis=0)
        sem = fids.std(axis=0, ddof=1) / np.sqrt(fids.shape[0])
        for j in range(3):
            assert means[j + 1] <= means[j] + 3 * (sem[j] + sem[j + 1])


def coarse_rate(schedule, t0, duration, max_step_s=MAX_STEP_S):
    """The rate of an advance walked as two coarse steps, else None: one
    of at least COARSE_MIN_STEPS time-rule steps at a constant rate whose
    angle variance fits in one step at the day rate."""
    n = _walk_steps(duration, max_step_s)
    rate = schedule.constant_rate(t0, t0 + duration)
    if rate is None or n < COARSE_MIN_STEPS or not rate / DAY_RATE * (duration / max_step_s) <= 1.0:
        return None
    return rate


def coarse_variances(rate, duration, n):
    """Angle variances of the coarse walk's half-normal and Gaussian steps."""
    part = rate * duration / math.sqrt(n)
    return part, rate * duration - part


class EagerChannel:
    """One per-step matrix walk per advance: the oracle of the quaternion walk."""

    def __init__(self, schedule, rng, sim_time):
        self.schedule, self.rng, self.sim_time = schedule, rng, sim_time
        self.rotation = np.eye(3)

    def advance(self, duration):
        start = self.rotation
        if duration > 0:
            n = _walk_steps(duration, MAX_STEP_S)
            rate = coarse_rate(self.schedule, self.sim_time, duration)
            if rate is None:
                scale = reference_scales(self.schedule, self.sim_time, n, duration / n)
                draws = self.rng.standard_normal((n, 4))
                axes, angles = draws[:, :3], draws[:, 3] * scale
            else:  # an angle about a uniform axis, then a Gaussian rotation vector
                draws = self.rng.standard_normal(7)
                half, gauss = coarse_variances(rate, duration, n)
                axes = np.array([draws[:3], draws[4:]])
                angles = [draws[3] * np.sqrt(half), np.linalg.norm(draws[4:]) * np.sqrt(gauss / 3)]
            axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)
            self.rotation, _ = per_step_walk(self.rotation, axes, angles)
            self.sim_time += float(np.sum(np.full(n, duration / n)))
        return start


class ScriptedDraws:
    """A generator stand-in whose standard normals are ``values``, in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()
        self.taken = 0

    def standard_normal(self, size=None, out=None):
        shape = out.shape if out is not None else size
        n = int(np.prod(shape))
        values = self.values[self.taken : self.taken + n].reshape(shape)
        self.taken += n
        if out is None:
            return values
        out[...] = values
        return out


class TestQuaternionWalk:
    # The compressed 23 h schedule: day from 3,300 to 4,200 s of a 7,200 s
    # period, bursts over [3,500, 3,620) and [4,166.67, 4,286.67) s.
    SCHEDULE = build_channel(
        load_config("configs/longrun_stabilized.yaml"), np.random.default_rng(0)
    ).schedule
    EDGES = (0.0, 3300.0, 3500.0, 3620.0, 4200.0, 50000.0 / 12, 50000.0 / 12 + 120.0, 7200.0)
    DURATIONS = (0.0, 0.03, 0.1, 0.12, 0.96, 3.0, 7.45, 25.0)

    def test_within_1e13_of_one_matrix_walk_per_advance(self):
        # same draws, clock and rotations (to rounding) as the matrix walk,
        # and the generator continues alike after every advance
        pick = np.random.default_rng(12)
        reads = returns = worst = 0
        for trial in range(240):
            t0 = max(0.0, float(self.EDGES[trial % len(self.EDGES)] - pick.uniform(0.0, 12.0)))
            ch = FiberChannel(self.SCHEDULE, np.random.default_rng(trial), sim_time=t0)
            oracle = EagerChannel(self.SCHEDULE, np.random.default_rng(trial), t0)
            for _ in range(int(pick.integers(1, 12))):
                op = pick.random()
                if op < 0.6:
                    if pick.random() < 0.7:
                        d = float(pick.choice(self.DURATIONS))
                    else:
                        d = float(pick.uniform(0.0, 4.0))
                    start = ch.advance(d)
                    worst = max(worst, np.abs(matrix(start) - oracle.advance(d)).max())
                    returns += 1
                elif op < 0.8:
                    worst = max(worst, np.abs(matrix(ch.quat) - oracle.rotation).max())
                    reads += 1
                elif op < 0.95:  # another user of the channel's generator
                    assert np.array_equal(ch.rng.normal(size=4), oracle.rng.normal(size=4))
                else:
                    ch.quat = haar_quat(pick)
                    oracle.rotation = matrix(ch.quat)
                assert ch.sim_time == oracle.sim_time
            worst = max(worst, np.abs(matrix(ch.quat) - oracle.rotation).max())
            assert ch.rng.standard_normal() == oracle.rng.standard_normal()
        assert worst < 1e-13
        assert returns > 600 and reads > 200

    def test_one_walk_per_advance(self, monkeypatch):
        walks = []
        real = _kernels.rotation_walk
        monkeypatch.setattr(
            _kernels, "rotation_walk", lambda *args: walks.append(len(args[2])) or real(*args)
        )
        ch = make_channel(DAY_RATE, 3)
        for _ in range(2):
            ch.advance(3.0)
            ch.advance(0.12)
        ch.advance(0.0)
        assert walks == [30, 2, 30, 2]

    def test_zero_axis_draw_is_the_identity_step(self):
        # step 1's axis normals are all zero: it leaves the rotation, whatever its angle
        draws = np.random.default_rng(5).standard_normal((3, 4))
        draws[1, :3] = 0.0
        ch = FiberChannel(DriftSchedule.constant(1.0), ScriptedDraws(draws))
        _, outs, _ = ch.probe_trace(H, 0.3, 0.1)
        assert np.array_equal(outs[2], outs[1]) and not np.array_equal(outs[1], outs[0])
        ch = FiberChannel(DriftSchedule.constant(1.0), ScriptedDraws(draws[1]))
        assert ch.advance(0.1) == ch.quat == (0.0, 0.0, 0.0, 1.0)


def h_fidelity(q):
    """Fidelity of the H probe through rotation ``q``: ½(1 + R00)."""
    x, y, z, w = q
    return 0.5 * (1.0 + (x * x - y * y - z * z + w * w))


class TestStepRule:
    """An advance at a constant rate whose angle variance fits in one step at
    the day rate, over at least COARSE_MIN_STEPS time-rule steps, takes two."""

    DURATIONS = (0.03, 0.1, 0.12, 0.3, 0.96, 3.0, 7.45, 25.0)
    # in (0, 30]
    DURATIONS += tuple(30.0 - np.random.default_rng(18).uniform(0.0, 30.0, 200))
    MAX_STEPS = (0.1, 1e-3, 0.37)
    # a fringe_burst.yaml-like burst at the day rate, from 130 to 190 s
    BURST = DriftSchedule.constant(DAY_RATE, bursts=[Burst(130.0, 60.0, 100.0)])
    # rates far under DAY_RATE: a segment edge at 40 s, a period edge at 100 s
    # and a burst from 150 to 170 s
    SLOW_EDGES = DriftSchedule(
        segments=((0.0, NIGHT_RATE), (40.0, 10 * NIGHT_RATE)),
        period_s=100.0,
        bursts=(Burst(150.0, 20.0, 3.0),),
    )

    @pytest.fixture
    def walk_of(self, monkeypatch):
        """How one advance from ``t0`` walks, without walking it: "time" or
        "coarse".

        Also checks that either is handed the time rule's step count and
        length, that the step scale a time-rule walk gets, where it gets
        one, is that of ``_step_scales`` bit for bit, and the rate a coarse
        walk gets.
        """
        walks = []

        def walk(ch, n, dt, scale=None, sample_stride=0):
            assert scale is None or scale == _step_scales(ch.schedule, ch.sim_time, n, dt)
            walks.append(("time", n, dt))

        def coarse_walk(ch, n, duration, rate):
            assert rate == ch.schedule.constant_rate(ch.sim_time, ch.sim_time)
            walks.append(("coarse", n, duration / n))

        monkeypatch.setattr(FiberChannel, "_walk", walk)
        monkeypatch.setattr(FiberChannel, "_coarse_walk", coarse_walk)

        def advance(schedule, t0, duration, max_step_s):
            walks.clear()
            rng = np.random.default_rng(0)
            ch = FiberChannel(schedule, rng, sim_time=t0, max_step_s=max_step_s)
            ch.advance(duration)
            ((kind, n, dt),) = walks
            assert n == _walk_steps(duration, max_step_s) and dt == duration / n
            return kind

        return advance

    def test_day_rate_and_faster_keep_the_time_rule(self, walk_of):
        schedules = [DriftSchedule.constant(DAY_RATE), DriftSchedule.constant(5 * DAY_RATE)]
        for max_step_s in self.MAX_STEPS:
            for i, d in enumerate(self.DURATIONS):
                for schedule in schedules:
                    assert walk_of(schedule, 1000.0 * i, d, max_step_s) == "time"
                # inside the burst, at 100 times the day rate
                t0 = 130.0 + (60.0 - d) * (i + 0.5) / len(self.DURATIONS)
                assert walk_of(self.BURST, t0, d, max_step_s) == "time"

    def test_slower_rates_walk_coarse_where_the_variance_fits(self, walk_of):
        coarse = 0
        for rate in (0.0, NIGHT_RATE, 10 * NIGHT_RATE, DAY_RATE / 2):
            schedule = DriftSchedule.constant(rate)
            for max_step_s in self.MAX_STEPS:
                for d in self.DURATIONS:
                    n = _walk_steps(d, max_step_s)
                    fits = rate / DAY_RATE * (d / max_step_s) <= 1.0
                    expected = "coarse" if n >= COARSE_MIN_STEPS and fits else "time"
                    assert walk_of(schedule, 0.0, d, max_step_s) == expected
                    coarse += expected == "coarse"
        assert coarse > 500

    def test_an_edge_inside_keeps_the_time_rule(self, walk_of):
        coarse_elsewhere = 0
        for max_step_s in self.MAX_STEPS:
            for d in self.DURATIONS:
                for edge in (40.0, 100.0, 150.0, 170.0):
                    assert walk_of(self.SLOW_EDGES, edge - 0.5 * d, d, max_step_s) == "time"
                    assert walk_of(self.SLOW_EDGES, edge - d, d, max_step_s) == "time"  # ends on it
                coarse_elsewhere += walk_of(self.SLOW_EDGES, 5.0, d, max_step_s) == "coarse"
        assert coarse_elsewhere > 100

    def test_walk_cap_counts_time_rule_steps(self):
        # at rate 0 an advance takes two steps, but the cap counts max_step_s steps
        ch = make_channel(0.0, 1, max_step_s=1.0e-300)
        state = ch.rng.bit_generator.state
        with pytest.raises(ChannelError, match="steps"):
            ch.advance(0.1)
        assert ch.sim_time == 0.0 and ch.rng.bit_generator.state == state

    def test_coarse_walk_draws_seven_normals(self):
        ch, twin = make_channel(NIGHT_RATE, 4), np.random.default_rng(4)
        for _ in range(3):
            ch.advance(3.0)
            twin.standard_normal(7)
        assert ch.rng.standard_normal() == twin.standard_normal()
        assert ch.sim_time == 3 * _step_grid(30, 0.1)[1]

    @pytest.mark.parametrize("rate", [NIGHT_RATE, 10 * NIGHT_RATE, DAY_RATE / 2])
    def test_probe_fidelity_law_of_the_time_rule(self, rate):
        # after 3 s and 0.12 s: where the advance walks coarse, a two-sample KS
        # test of the H-probe fidelity against the time rule's walk, 10^4 seeds
        # each; elsewhere it is the time rule's walk
        schedule = DriftSchedule.constant(rate)
        for duration in (3.0, 0.12):
            n = _walk_steps(duration, MAX_STEP_S)

            def time_rule(seed):
                ch = FiberChannel(schedule, np.random.default_rng(seed))
                ch._walk(n, duration / n)
                return ch.quat

            if coarse_rate(schedule, 0.0, duration) is None:
                ch = FiberChannel(schedule, np.random.default_rng(0))
                ch.advance(duration)
                assert ch.quat == time_rule(0)
                assert (rate, duration) != (NIGHT_RATE, 3.0)
                continue
            by_rule, by_time, one_step = [], [], []
            for seed in range(10_000):
                ch = FiberChannel(schedule, np.random.default_rng(seed))
                ch.advance(duration)
                by_rule.append(h_fidelity(ch.quat))
                by_time.append(h_fidelity(time_rule(10_000 + seed)))
                # the time rule's step law with the advance's whole variance
                ch = FiberChannel(schedule, np.random.default_rng(20_000 + seed))
                ch._walk(1, duration, math.sqrt(rate * duration))
                one_step.append(h_fidelity(ch.quat))
            assert ks_2samp(by_rule, by_time).pvalue > 0.01
            # the test tells one such step from the time rule's 30
            assert ks_2samp(one_step, by_time).pvalue < 1e-6


class TestProbeTrace:
    def test_zero_rate_constant_trace(self):
        ch = make_channel(0.0, 6)
        t, s, f = ch.probe_trace(H, 10.0, 1.0)
        assert np.allclose(s, s[0])
        assert np.allclose(f, 1.0)
        assert len(t) == 11

    def test_night_rate_stays_high_fidelity(self):
        mins = []
        for seed in range(40):
            ch = make_channel(NIGHT_RATE, seed)
            _, _, f = ch.probe_trace(H, 600.0, 1.0)
            mins.append(f.min())
        assert np.median(mins) >= 0.99

    def test_trace_matches_stepwise_walk(self):
        ch1 = make_channel(DAY_RATE, 7)
        _, s, _ = ch1.probe_trace(H, 5.0, 0.1)
        ch2 = make_channel(DAY_RATE, 7)
        outs = [matrix(ch2.quat) @ H.as_array()]
        for _ in range(50):
            ch2.advance(0.1)
            outs.append(matrix(ch2.quat) @ H.as_array())
        assert np.allclose(s, outs, atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ChannelError):
            make_channel(0.1, 8).probe_trace(H, -1.0, 0.1)


class TestProbeCrossingTimes:
    @pytest.mark.parametrize(
        "rate,sample_dt,threshold",
        [
            (1e-5, 0.1, 0.95),  # nothing crosses
            (1.0, 0.1, 0.95),  # everything crosses within a few samples
            (DAY_RATE, 0.1, 0.95),
            (DAY_RATE, 0.25, 0.95),  # sample_dt > max_step_s: 3 walk steps per sample
            (0.05, 0.3, 0.99),
            (DAY_RATE, 0.1, 1.01),  # the t = 0 sample is already below
        ],
    )
    def test_matches_per_channel_probe_traces(self, rate, sample_dt, threshold):
        sched = DriftSchedule.constant(rate)
        children = np.random.SeedSequence(17).spawn(40)
        expected = []
        for child in children:
            ch = FiberChannel(sched, np.random.default_rng(child))
            t, _, f = ch.probe_trace(H, 40.0, sample_dt)
            c = first_crossing_time(t, f, threshold)
            expected.append(np.nan if c is None else c)
        rngs = [np.random.default_rng(child) for child in children]
        got = probe_crossing_times(sched, rngs, 40.0, sample_dt, threshold)
        assert np.array_equal(got, expected, equal_nan=True)
        if rate == 1e-5:
            assert np.isnan(got).all()
        if rate == 1.0:
            assert np.nanmax(got) < 5.0


def seeded_rngs(seed, n):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


@pytest.mark.filterwarnings("error")  # the uint32 arithmetic wraps without a warning
class TestSpawnedGenerators:
    """``spawned_generators`` gives numpy's spawned generators, state for state."""

    # one-word seeds, 2**32 (2 words), 2**128 - 1 (4 words, the pool's size),
    # 2**128 (5 words: the first past the pool) and a 200-bit seed
    SEEDS = [0, 1, 3, 2**32 - 1, 2**32, 2**64 + 7, 2**128 - 1, 2**128, 2**199 + 12345]

    @pytest.mark.parametrize("n", [1, 2, 3, 200, cli.MAX_CALIBRATE_SEEDS])
    def test_states_and_draws_equal_numpys(self, n):
        # numpy's own spawn takes about 0.2 s at the largest n, so that n runs
        # at the seeds whose word counts differ in the pool: 1, 4 and 5 words
        seeds = self.SEEDS if n < cli.MAX_CALIBRATE_SEEDS else [3, 2**128 - 1, 2**128]
        for seed in seeds:
            got, expected = channel.spawned_generators(seed, n), seeded_rngs(seed, n)
            assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in expected]
            draws = [np.array([g.standard_normal(8) for g in rngs]) for rngs in (got, expected)]
            assert np.array_equal(*draws)

    def test_seed_words_hold_one_pcg64_seed_only(self):
        words = np.zeros(4, np.uint64)
        seed = channel._pcg64_seed_type()(words)
        assert seed.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError):
            seed.generate_state(8, np.uint32)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_calibration_equals_that_of_numpys_spawn(self, tmp_path, monkeypatch, capsys, seed):
        args = ["calibrate", "--config", "configs/calibrate.yaml", "--seed", str(seed), "--out"]
        assert cli.main(args + [str(tmp_path / "vectorised")]) == 0
        monkeypatch.setattr(cli, "spawned_generators", seeded_rngs)
        assert cli.main(args + [str(tmp_path / "numpy")]) == 0
        for name in ("schedule.json", "summary.json"):
            assert (tmp_path / "vectorised" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()


class TestProbeCrossingTimesStopAfter:
    """An early-stopped walk keeps every crossing it finds and the median of all."""

    @pytest.mark.parametrize(
        "rate,sample_dt",
        [
            (DAY_RATE, 0.1),
            (DAY_RATE / 4, 0.1),  # about half cross within 80 s
            (DAY_RATE / 6, 0.25),  # under a third cross; 3 walk steps per sample
        ],
    )
    def test_crossed_entries_match_the_full_walk(self, rate, sample_dt):
        sched = DriftSchedule.constant(rate)
        n = 41
        full = probe_crossing_times(sched, seeded_rngs(9, n), 80.0, sample_dt, 0.95)
        for k in (1, 2, 20, 21, 22, n):
            got = probe_crossing_times(sched, seeded_rngs(9, n), 80.0, sample_dt, 0.95, k)
            crossed = ~np.isnan(got)
            assert np.array_equal(got[crossed], full[crossed])
            if crossed.sum() < k:  # the walk ran to its end
                assert np.array_equal(got, full, equal_nan=True)
            # a channel left NaN crosses after every crossed one, or never
            rest = full[~crossed]
            assert (np.isnan(rest) | (rest > got[crossed].max(initial=-1.0))).all()

    @pytest.mark.parametrize("n_seeds", [1, 2, 7, 50])
    @pytest.mark.parametrize(
        "rate,sample_dt,threshold",
        [
            (DAY_RATE, 0.1, 0.95),
            (DAY_RATE / 4, 0.1, 0.95),
            (DAY_RATE / 6, 0.1, 0.95),
            (DAY_RATE, 0.25, 0.95),  # sample_dt > max_step_s
            (0.05, 0.3, 0.99),  # 80 s is not a whole number of samples
            (1e-5, 0.1, 0.95),  # nothing crosses: the median is max_time_s
        ],
    )
    def test_median_equals_the_full_walk_median(self, n_seeds, rate, sample_dt, threshold):
        seed = 100 + n_seeds
        full = probe_crossing_times(
            DriftSchedule.constant(rate), seeded_rngs(seed, n_seeds), 80.0, sample_dt, threshold
        )
        expected = np.median(np.where(np.isnan(full), 80.0, full))
        got = median_crossing_time(rate, threshold, n_seeds, 80.0, seed, sample_dt)
        assert np.array_equal(got, expected)
        if rate == 1e-5 or (rate == DAY_RATE / 6 and n_seeds == 50):
            assert got == 80.0  # fewer than half cross, so the walk runs to its end


def full_walk_median(rate, n_seeds, seed):
    """The median crossing time of ``median_crossing_time``, from a walk run to its end."""
    full = probe_crossing_times(DriftSchedule.constant(rate), seeded_rngs(seed, n_seeds), 80.0, 0.1, 0.95)
    return float(np.median(np.where(np.isnan(full), 80.0, full)))


class TestHorizon:
    """A walk stopped at the horizon gives the full-walk median where that is within it, else inf."""

    # calibrate.yaml's band is [19.5, 20.5] s; these medians fall below, in and
    # above it (n_seeds 7 at DAY_RATE: 20.2 s; 200 at DAY_RATE: 20.65 s), up to 80 s
    @pytest.mark.parametrize("n_seeds", [1, 2, 7, 50, 200])
    @pytest.mark.parametrize("rate", [2 * DAY_RATE, DAY_RATE, DAY_RATE / 2, DAY_RATE / 6])
    def test_median_within_the_horizon_else_inf(self, n_seeds, rate):
        seed = 200 + n_seeds
        full = full_walk_median(rate, n_seeds, seed)
        for horizon in (full, np.nextafter(full, 0.0), full + 5.0, 20.5, 0.0, math.inf):
            got = median_crossing_time(rate, 0.95, n_seeds, 80.0, seed, horizon=horizon)
            assert got == (full if full <= horizon else math.inf)

    def test_even_n_with_half_crossed_walks_on(self):
        # of 2 seeds, one crosses before the horizon and one after the chunk that
        # passes it (at 22.5 s); the median, their mean, is within the horizon
        rngs = seeded_rngs(1, 2)
        times = probe_crossing_times(DriftSchedule.constant(DAY_RATE), rngs, 80.0, 0.1, 0.95)
        assert times.tolist() == [9.600000000000001, 24.700000000000003]
        got = median_crossing_time(DAY_RATE, 0.95, 2, 80.0, 1, horizon=20.5)
        assert got == full_walk_median(DAY_RATE, 2, 1) == np.mean(times)

    def test_stops_after_the_chunk_that_passes_the_horizon(self, monkeypatch):
        samples = []

        def counted(*args):
            for first, s1 in chunks(*args):
                samples.append(len(s1))
                yield first, s1

        chunks = channel._probe_s1_chunks
        monkeypatch.setattr(channel, "_probe_s1_chunks", counted)
        sched, n = DriftSchedule.constant(DAY_RATE / 2), 41
        full = probe_crossing_times(sched, seeded_rngs(9, n), 80.0, 0.1, 0.95)
        assert sum(samples) == 800 and np.count_nonzero(full <= 22.5) < n - n // 2
        samples.clear()
        got = probe_crossing_times(sched, seeded_rngs(9, n), 80.0, 0.1, 0.95, horizon=20.5)
        assert sum(samples) == 225  # nine chunks of 25 samples, the last ending at 22.5 s
        crossed = ~np.isnan(got)
        assert np.array_equal(got[crossed], full[crossed]) and np.array_equal(crossed, full <= 22.5)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_calibration_equals_that_of_full_walks(self, tmp_path, monkeypatch, capsys, seed):
        args = ["calibrate", "--config", "configs/calibrate.yaml", "--seed", str(seed), "--out"]
        assert cli.main(args + [str(tmp_path / "horizon")]) == 0
        full = cli.median_crossing_time
        monkeypatch.setattr(cli, "median_crossing_time", lambda *a, horizon: full(*a))
        assert cli.main(args + [str(tmp_path / "full")]) == 0
        for name in ("schedule.json", "summary.json"):
            assert (tmp_path / "horizon" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_band_edge_median_is_within_the_horizon(self, tmp_path, monkeypatch, capsys):
        # at 30 s and tolerance 0.05 the band test accepts 30.75 s, which
        # 30 * (1 + 0.05 / 2) = 30.749999999999996 would put past the horizon
        horizons = []

        def scripted(*args, horizon):
            horizons.append(horizon)
            return 30.75 if 30.75 <= horizon else math.inf

        monkeypatch.setattr(cli, "median_crossing_time", scripted)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("calibrate: {target_time_s: 30.0, tolerance: 0.05}\n")
        assert cli.main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert horizons == [30.75]


class TestDriftOracle:
    """The walk's first moment, which any correct implementation must match.

    A step by an angle ~ N(0, r dt) about a uniform axis has mean rotation
    (1/3 + (2/3) exp(-r dt / 2)) I, and independent steps multiply, so the mean
    rotation after the walk is the product of that factor over its steps.
    """

    # day/night cycle with a burst; no boundary falls on a step start
    SCHEDULE = DriftSchedule.day_night(
        day_rate=0.05,
        night_rate=0.05 / 500,
        day_start_s=1.234,
        night_start_s=5.432,
        period_s=8.0,
        bursts=[Burst(3.21, 0.9, 20.0)],
    )
    N_SEEDS = 1000

    def mean_factor(self, step_starts, dts):
        rates = self.SCHEDULE.rate_at(step_starts)
        return np.prod(1.0 / 3.0 + (2.0 / 3.0) * np.exp(-rates * dts / 2.0))

    @staticmethod
    def coarse_mean_factor(rate, duration, n):
        """Mean rotation factor of a coarse walk: its half-normal step's, then
        its Gaussian step's, 1/3 + (2/3)(1 - v/3) exp(-v/6) at variance v."""
        half, gauss = coarse_variances(rate, duration, n)
        return (1.0 / 3.0 + (2.0 / 3.0) * np.exp(-half / 2.0)) * (
            1.0 / 3.0 + (2.0 / 3.0) * (1.0 - gauss / 3.0) * np.exp(-gauss / 6.0)
        )

    def test_advance_mean_rotation(self):
        # the first four advances cross an edge; then one night advance, one
        # across the second day's start, one within it, one across the night's
        # start and one at night walked coarse
        durations = [2.35, 1.0, 3.3, 1.35, 1.2, 2.5, 1.7, 0.1, 2.4]
        finals = np.empty((self.N_SEEDS, 3, 3))
        for seed in range(self.N_SEEDS):
            ch = FiberChannel(self.SCHEDULE, np.random.default_rng(seed))
            for d in durations:
                ch.advance(d)
            finals[seed] = matrix(ch.quat)
        factor, coarse, t = 1.0, [], 0.0
        for d in durations:
            n = _walk_steps(d, MAX_STEP_S)
            rate = coarse_rate(self.SCHEDULE, t, d)
            if rate is None:
                factor *= self.mean_factor(t + d / n * np.arange(n), np.full(n, d / n))
            else:
                factor *= self.coarse_mean_factor(rate, d, n)
            coarse.append(rate is not None)
            t += d
        assert coarse == [False] * 8 + [True]
        expected = factor * np.eye(3)
        assert 0.5 < expected[0, 0] < 0.8  # the burst and the day both count
        sem = finals.std(axis=0, ddof=1) / np.sqrt(self.N_SEEDS)
        assert np.all(np.abs(finals.mean(axis=0) - expected) < 4 * sem)
        eye = np.broadcast_to(np.eye(3), finals.shape)
        assert np.allclose(finals @ finals.transpose(0, 2, 1), eye, rtol=0, atol=1e-12)
        assert np.allclose(np.linalg.det(finals), 1.0, rtol=0, atol=1e-12)

    def test_coarse_advance_mean_rotation(self):
        # 20 steps of 10 s by the time rule, at a rate whose variance, 0.10
        # rad^2, fits in one such step at the day rate: two coarse steps
        schedule, duration = DriftSchedule.constant(DAY_RATE / 25), 200.0
        finals = np.empty((self.N_SEEDS, 3, 3))
        for seed in range(self.N_SEEDS):
            ch = FiberChannel(schedule, np.random.default_rng(seed), max_step_s=10.0)
            ch.advance(duration)
            finals[seed] = matrix(ch.quat)
        assert coarse_rate(schedule, 0.0, duration, 10.0) == DAY_RATE / 25
        expected = self.coarse_mean_factor(DAY_RATE / 25, duration, 20) * np.eye(3)
        assert 0.96 < expected[0, 0] < 0.97
        sem = finals.std(axis=0, ddof=1) / np.sqrt(self.N_SEEDS)
        assert np.all(np.abs(finals.mean(axis=0) - expected) < 4 * sem)

    def test_probe_vector_walk_mean_s1(self):
        duration, sample_dt = 8.0, 0.1
        rngs = [np.random.default_rng(seed) for seed in range(self.N_SEEDS)]
        *_, (_, s1) = _probe_s1_chunks(self.SCHEDULE, rngs, duration, sample_dt)
        n = int(round(duration / sample_dt))
        expected = self.mean_factor(sample_dt * np.arange(n), np.full(n, sample_dt))
        sem = s1[-1].std(ddof=1) / np.sqrt(self.N_SEEDS)
        assert abs(s1[-1].mean() - expected) < 4 * sem


class TestProbeVectorWalk:
    def test_zero_axis_draw_is_the_identity_step(self):
        # channel 0 draws only all-zero axis normals, channel 1 one such step
        # (its third): both keep the probe there, whatever the angle
        draws = np.random.default_rng(6).standard_normal((2, 5, 4))
        draws[0, :, :3] = 0.0
        draws[1, 2, :3] = -0.0
        rngs = [ScriptedDraws(d) for d in draws]
        ((_, s1),) = _probe_s1_chunks(DriftSchedule.constant(1.0), rngs, 0.5, 0.1)
        assert (s1[:, 0] == 1.0).all()
        assert s1[2, 1] == s1[1, 1] and s1[1, 1] != s1[0, 1]

    @pytest.mark.parametrize("sample_dt", [0.1, 0.25])  # 0.25: 3 walk steps per sample
    def test_is_the_channels_walk(self, sample_dt):
        sched = DriftSchedule.constant(5 * DAY_RATE)
        children = np.random.SeedSequence(4).spawn(40)
        rngs = [np.random.default_rng(child) for child in children]
        s1 = np.concatenate([c for _, c in _probe_s1_chunks(sched, rngs, 40.0, sample_dt)])
        expected = [
            FiberChannel(sched, np.random.default_rng(child)).probe_trace(H, 40.0, sample_dt)[1][1:, 0]
            for child in children
        ]
        assert s1.shape == (round(40.0 / sample_dt), 40)
        assert np.abs(s1 - np.transpose(expected)).max() < 1e-12

"""Drift schedule, fiber channel walk, loss and probe traces."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from polarlink import _kernels, channel
from polarlink.calibrate import _probe_s1_chunks
from polarlink.channel import (
    COARSE_MIN_STEPS,
    DAY_RATE,
    MAX_STEP_S,
    MAX_WALK_STEPS,
    NIGHT_RATE,
    STREAM_BLOCK,
    Burst,
    ChannelError,
    DriftSchedule,
    FiberChannel,
    NormalStream,
    StreamError,
    _step_grid,
    _step_scales,
    _walk_steps,
    first_crossing_time,
)
from polarlink.cli import build_channel, load_config
from tests.oracles import (
    ScriptedDraws,
    array_rate_at,
    haar_quat,
    loop_constant_rate,
    matrix,
    per_step_walk,
)

H = np.array([1.0, 0.0, 0.0])


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
    """sqrt(rate * dt) of each step, read off the array lookup at every step start."""
    dts = np.full(n, dt)
    return np.sqrt(array_rate_at(schedule, t0 + np.concatenate(([0.0], np.cumsum(dts[:-1])))) * dts)


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


class TestConstantRate:
    """The sorted-edge lookup against the per-burst loop it replaced, on
    intervals whose ends sit at, or one ulp either side of, every segment
    start, period boundary and burst edge."""

    SCHEDULES = (
        EDGE_SCHEDULE,
        # zero-length bursts, one at a segment start, a burst from before
        # t = 0, two identical ones and one across a period boundary
        DriftSchedule(
            segments=((0.0, 0.3), (2.5, 1.5)),
            period_s=6.0,
            bursts=(
                Burst(-2.0, 3.0, 4.0),
                Burst(2.5, 0.0, 5.0),
                Burst(4.0, 0.0, 6.0),
                Burst(5.0, 2.0, 1.5),
                Burst(5.0, 2.0, 1.5),
                Burst(8.0, 9.5, 0.5),
            ),
        ),
        # nested bursts, and a burst starting where another ends
        DriftSchedule.day_night(
            day_rate=0.2,
            night_rate=0.01,
            day_start_s=1.0,
            night_start_s=4.0,
            period_s=5.0,
            bursts=(Burst(0.5, 6.0, 2.0), Burst(1.5, 1.0, 3.0), Burst(6.5, 2.0, 7.0)),
        ),
    )

    @staticmethod
    def ends(schedule, periods=10):
        """Every segment start and period boundary from -1 period on, every
        burst edge, the floats either side of each, and three points
        between each two, inside which a constant rate holds."""
        points = {k * schedule.period_s + s for k in range(-1, periods + 1) for s, _ in schedule.segments}
        points |= {e for b in schedule.bursts for e in (b.start_s, b.start_s + b.duration_s)}
        points = sorted(points)
        mids = {a + f * (b - a) for a, b in zip(points, points[1:]) for f in (0.25, 0.5, 0.75)}
        near = {math.nextafter(p, d) for p in points for d in (-math.inf, math.inf)}
        return sorted(set(points) | near | mids)

    def test_equals_the_per_burst_loop(self):
        checked = rated = 0
        for schedule in self.SCHEDULES:
            ends = self.ends(schedule)
            for t0 in ends:
                for t1 in ends:
                    got, expected = schedule.constant_rate(t0, t1), loop_constant_rate(schedule, t0, t1)
                    assert got == expected and (got is None) == (expected is None), (t0, t1)
                    checked += 1
                    rated += got is not None
        assert checked > 150_000 and rated > 2_000

    def test_a_stretch_holds_to_its_end(self):
        # from each t0 >= 0, every interval between the grid's points in
        # [t0, end) has the rate too, and end is the next edge, or at most a
        # relative 2e-12 short of it
        held = 0
        for schedule in self.SCHEDULES:
            ends = self.ends(schedule)
            edges = schedule_edges(schedule, range(-1, 12))
            unburst = DriftSchedule(schedule.segments, schedule.period_s)
            periodic = set(schedule_edges(unburst, range(-1, 12)))
            for i, t0 in enumerate(ends):
                rate, end = schedule.constant_stretch(t0, t0)
                assert rate == schedule.constant_rate(t0, t0)
                if rate is None:
                    assert t0 < 0
                    continue
                inside = [t for t in ends[i:] if t < end]
                for j, a in enumerate(inside):
                    for b in inside[j:]:
                        assert schedule.constant_rate(a, b) == rate, (t0, a, b)
                        held += 1
                edge = min(e for e in edges if e > t0)
                if edge in periodic:
                    assert edge * (1.0 - 2e-12) <= end < edge
                else:  # a burst edge alone
                    assert end == edge
        assert held > 3_000

    def test_multiplies_in_burst_order(self):
        # (rate * a) * b and (rate * b) * a round apart here: the lookup
        # applies the multipliers in force in the loop's order
        rate, a, b = 0.7243246320173747, 23.647459905774813, 94.5817988598383
        assert (rate * a) * b != (rate * b) * a
        for first, second in ((a, b), (b, a)):
            bursts = (Burst(0.0, 2.0, first), Burst(0.5, 3.0, second))
            schedule = DriftSchedule.constant(rate, bursts=bursts)
            assert schedule.constant_rate(1.0, 1.5) == (rate * first) * second
            assert schedule.constant_rate(1.0, 1.5) == loop_constant_rate(schedule, 1.0, 1.5)


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
            imgs.append(matrix(ch.quat) @ H)
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
                h_out = matrix(ch.quat) @ H
                fids[seed, j] = 0.5 * (1 + H @ h_out)
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


class TestNormalStream:
    """A NormalStream hands out the values of per-call draws on its generator."""

    @staticmethod
    def interleave(seed, ops):
        """``ops`` random stream reads, kicks and syncs against per-call
        draws on a twin generator; every value and synced state must agree."""
        pick = np.random.default_rng(1000 + seed)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        stream = NormalStream(rng)
        for _ in range(ops):
            op = pick.random()
            if op < 0.7:
                k = int(pick.choice([1, 4, 7, 8, 40, 120, STREAM_BLOCK - 1, STREAM_BLOCK]))
                if pick.random() < 0.3:
                    k = int(pick.integers(1, STREAM_BLOCK + 50))
                assert stream.take(k) == twin.standard_normal(k).tolist()
            elif op < 0.85:
                loc, d = float(pick.choice([0.0, 0.3])), float(pick.choice([0.02, 1.5]))
                assert stream.normal(loc, d, size=4) == twin.normal(loc, d, size=4).tolist()
            else:
                assert stream.sync() is rng
                assert rng.bit_generator.state == twin.bit_generator.state
                # once synced, the generator may be drawn from directly
                assert rng.standard_normal() == twin.standard_normal()
        assert stream.sync().bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_reads_kicks_and_syncs_equal_per_call_draws(self, seed):
        self.interleave(seed, 300)

    def test_a_probe_sized_read(self):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        stream = NormalStream(rng)
        assert stream.take(5) == twin.standard_normal(5).tolist()
        assert stream.take(4 * 10**5) == twin.standard_normal(4 * 10**5).tolist()
        assert stream.take(9) == twin.standard_normal(9).tolist()
        assert stream.sync().bit_generator.state == twin.bit_generator.state

    def test_sync_at_the_block_edges(self):
        # nothing taken, a block taken to its last value, and one past it
        for taken in ([], [STREAM_BLOCK], [STREAM_BLOCK - 3, 3], [STREAM_BLOCK, 1]):
            rng, twin = np.random.default_rng(4), np.random.default_rng(4)
            stream = NormalStream(rng)
            for k in taken:
                assert stream.take(k) == twin.standard_normal(k).tolist()
            assert stream.sync().bit_generator.state == twin.bit_generator.state

    def test_a_direct_draw_while_ahead_raises(self):
        for then in ("sync", "refill"):
            rng = np.random.default_rng(5)
            stream = NormalStream(rng)
            stream.take(8)
            rng.standard_normal()  # out of order: the stream holds values drawn before it
            with pytest.raises(StreamError):
                stream.sync() if then == "sync" else stream.take(STREAM_BLOCK)

    def test_a_channel_raises_on_a_direct_draw_while_ahead(self):
        rng = np.random.default_rng(6)
        ch = FiberChannel(DriftSchedule.constant(DAY_RATE), rng)
        ch.advance(0.12)
        rng.normal(size=4)
        with pytest.raises(StreamError):
            ch.rng
        # ... but not once synced
        ch = FiberChannel(DriftSchedule.constant(DAY_RATE), rng)
        ch.advance(0.12)
        ch.rng.normal(size=4)
        ch.advance(3.0)
        assert ch.rng is rng


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


def schedule_edges(schedule, periods):
    """Every segment start and period end in the periods numbered
    ``periods``, and every burst edge."""
    edges = {k * schedule.period_s + s for k in periods for s, _ in schedule.segments}
    edges |= {(k + 1) * schedule.period_s for k in periods}
    edges |= {e for b in schedule.bursts for e in (b.start_s, b.start_s + b.duration_s)}
    return sorted(edges)


class TestRateStretch:
    """Whether from the channel's cached stretch or from a fresh
    ``constant_stretch``, every advance serves the rate ``constant_rate``
    gives over it, None included, and so walks as it did without the cache."""

    LONGRUN, FRINGE_BURST = (
        build_channel(load_config(f"configs/{name}.yaml"), np.random.default_rng(0))
        for name in ("longrun_stabilized", "fringe_burst")
    )
    # segment starts, period and bursts off any binary grid; a burst shorter
    # than one advance, and one nested in another
    SEGMENTS = DriftSchedule(
        segments=((0.0, NIGHT_RATE), (1234.5678, DAY_RATE), (4321.123, 3 * NIGHT_RATE)),
        period_s=7200.7,
        bursts=(Burst(2000.3, 0.05, 100.0), Burst(5000.0, 120.0, 2.0), Burst(5060.0, 10.0, 50.0)),
    )
    # the link's advances: check cycles, finite-difference blocks and uptime windows
    LINK = (0.12, 0.12, 0.96, 0.12, 3.0)

    @pytest.fixture
    def run(self, monkeypatch):
        """Advance a channel by ``durations``; per advance (t0, duration, what
        its walk got: ("time", scale) or ("coarse", rate)), and for how many
        the channel asked its schedule for the advance's interval."""
        got, asks = [], []
        real_walk, real_coarse = FiberChannel._walk, FiberChannel._coarse_walk
        real_stretch = DriftSchedule.constant_stretch

        def walk(ch, n, dt, scale=None, sample_stride=0):
            got.append(("time", scale))
            return real_walk(ch, n, dt, scale, sample_stride)

        def coarse_walk(ch, n, duration, rate):
            got.append(("coarse", rate))
            real_coarse(ch, n, duration, rate)

        def constant_stretch(schedule, t0, t1):
            asks.append((t0, t1))
            return real_stretch(schedule, t0, t1)

        monkeypatch.setattr(FiberChannel, "_walk", walk)
        monkeypatch.setattr(FiberChannel, "_coarse_walk", coarse_walk)
        monkeypatch.setattr(DriftSchedule, "constant_stretch", constant_stretch)

        def advance(ch, durations):
            got.clear()
            asks.clear()
            starts = []
            for d in durations:
                starts.append(ch.sim_time)
                ch.advance(d)
            assert len(got) == len(durations)
            # _step_scales asks about a shorter interval, through constant_rate
            asked = set(asks)
            own = sum((t, t + d) in asked for t, d in zip(starts, durations))
            return list(zip(starts, durations, got)), own

        return advance

    @staticmethod
    def check(ch, advances):
        """Each advance got what the rate ``constant_rate`` gives over it
        calls for; the number of advances that had a rate."""
        rated = 0
        for t0, d, served in advances:
            rate = ch.schedule.constant_rate(t0, t0 + d)
            n = _walk_steps(d, ch.max_step_s)
            if coarse_rate(ch.schedule, t0, d, ch.max_step_s) is not None:
                expected = ("coarse", rate)
            else:
                expected = ("time", None if rate is None else math.sqrt(rate * (d / n)))
            assert served == expected, (t0, d)
            rated += rate is not None
        return rated

    def edge_runs(self, run, make_channel, edges):
        """Link runs from 32 starts within 4.2 s before each edge to 4 s past
        it, and a check cycle that ends on the edge, after one a second before."""
        served = rated = 0
        for edge in edges:
            for offset in np.linspace(0.0, 4.2, 32):
                ch = make_channel(edge - offset)
                durations = []
                while ch.sim_time + sum(durations) < edge + 4.0:
                    durations.append(self.LINK[len(durations) % len(self.LINK)])
                advances, _ = run(ch, durations)
                rated += self.check(ch, advances)
                served += len(advances)
            ch = make_channel(edge - 1.0)
            advances, _ = run(ch, [0.12])
            ch.sim_time = start_ending_on(edge, 2, 0.12)  # t0 + 0.12 == edge
            more, _ = run(ch, [0.12])
            rated += self.check(ch, advances + more)
            served += 2
        assert 0 < rated < served  # both a rate and None are served
        return served

    def channel_at(self, schedule, max_step_s=MAX_STEP_S):
        return lambda t0: FiberChannel(schedule, np.random.default_rng(0), t0, max_step_s)

    def test_every_edge_of_the_shipped_schedules(self, run):
        for shipped in (self.LONGRUN, self.FRINGE_BURST):
            make = self.channel_at(shipped.schedule, shipped.max_step_s)
            assert self.edge_runs(run, make, schedule_edges(shipped.schedule, (0, 1))) > 1000

    def test_every_edge_of_a_segments_schedule(self, run):
        edges = schedule_edges(self.SEGMENTS, (0, 1))
        assert self.edge_runs(run, self.channel_at(self.SEGMENTS), edges) > 1000

    def test_edges_a_million_periods_on(self, run):
        # from t ~ 7e9 to 9e10 s, the stretch ends a relative 1e-12, up to 0.09 s,
        # short of the next edge, and t0 - fmod(t0, period_s) + start rounds
        for schedule in (self.LONGRUN.schedule, self.FRINGE_BURST.schedule, self.SEGMENTS):
            period = 10**6 * schedule.period_s
            edges = [e for e in schedule_edges(schedule, (10**6,)) if e >= period]
            self.edge_runs(run, self.channel_at(schedule), edges)

    def test_a_segment_start_the_unmargined_end_rounds_past(self, run):
        # at period m, both m * period_s and the day start lie half an ulp off
        # the float grid, and both round up: the day starts on a float, yet
        # t0 - fmod(t0, period_s) + start is the float above it
        period, start, m = 7200.0 + 2.0**-21, 3300.0 + 2.0**-20 + 2.0**-21, 1_000_003
        schedule = DriftSchedule(segments=((0.0, NIGHT_RATE), (start, DAY_RATE)), period_s=period)
        day = Fraction(m) * Fraction(period) + Fraction(start)
        boundary = float(day)
        assert Fraction(boundary) == day
        t0 = boundary - 50.0
        assert t0 - math.fmod(t0, period) + start > boundary
        ch = self.channel_at(schedule)(t0)
        advances, _ = run(ch, [0.12])
        # on, inside the stretch held, to an advance that ends on the boundary
        ch.sim_time = start_ending_on(boundary, 2, 0.12)
        more, asks = run(ch, [0.12])
        assert self.check(ch, advances + more) == 1 and asks == 1

    def test_a_run_within_one_stretch_asks_once(self, run):
        ch = self.channel_at(self.LONGRUN.schedule)(100.0)  # the night segment, to 3,300 s
        advances, asks = run(ch, self.LINK * 200)
        assert self.check(ch, advances) == len(advances) and asks == 1

    def test_a_clock_set_back_asks_again(self, run):
        ch = self.channel_at(self.LONGRUN.schedule)(3400.0)
        advances, asks = run(ch, self.LINK)  # day, before the burst from 3,500 s
        assert asks == 1 and self.check(ch, advances) == len(advances)
        # back to night, whose advances end inside the day stretch held; back
        # into the day; on within its new stretch; back across 3,300 s, whose
        # None is not held; again from inside the night stretch held, to 3,300 s
        for t0, expected_asks in ((3000.0, 1), (3399.0, 1), (3399.5, 0), (3298.0, 2), (3298.5, 1)):
            ch.sim_time = t0
            advances, asks = run(ch, self.LINK)
            assert asks == expected_asks and self.check(ch, advances) >= len(advances) - 1

    def test_schedule_and_step_are_read_only(self):
        # both caches hold for them
        ch = make_channel(NIGHT_RATE, 0)
        ch.advance(3.0)
        with pytest.raises(AttributeError):
            ch.schedule = DriftSchedule.constant(DAY_RATE)
        with pytest.raises(AttributeError):
            ch.max_step_s = 1e-3
        assert ch.schedule.rate_at(0.0) == NIGHT_RATE and ch.max_step_s == MAX_STEP_S

    def test_plans_are_capped(self, run):
        ch = self.channel_at(DriftSchedule.constant(NIGHT_RATE))(0.0)
        advances, _ = run(ch, [0.01 * k for k in range(1, 300)])
        assert self.check(ch, advances) == len(advances) and len(ch._plans) <= 64


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

    @pytest.mark.parametrize("sop", [H, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], ids=["H", "D", "R"])
    def test_trace_matches_stepwise_walk(self, sop):
        ch1 = make_channel(DAY_RATE, 7)
        _, s, f = ch1.probe_trace(np.asarray(sop), 5.0, 0.1)
        ch2 = make_channel(DAY_RATE, 7)
        outs = [matrix(ch2.quat) @ sop]
        for _ in range(50):
            ch2.advance(0.1)
            outs.append(matrix(ch2.quat) @ sop)
        assert np.allclose(s, outs, atol=1e-12)
        assert np.allclose(f, 0.5 * (1.0 + np.array(outs) @ outs[0]), atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ChannelError):
            make_channel(0.1, 8).probe_trace(H, -1.0, 0.1)


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
        rates = array_rate_at(self.SCHEDULE, step_starts)
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
        # calibration's batched walk: 80 steps of MAX_STEP_S at a constant rate
        rate, duration = 0.2, 8.0
        rngs = [np.random.default_rng(seed) for seed in range(self.N_SEEDS)]
        *_, (_, s1) = _probe_s1_chunks(rate, rngs, duration)
        expected = (1.0 / 3.0 + (2.0 / 3.0) * np.exp(-rate * MAX_STEP_S / 2.0)) ** 80
        assert 0.5 < expected < 0.7
        sem = s1[-1].std(ddof=1) / np.sqrt(self.N_SEEDS)
        assert abs(s1[-1].mean() - expected) < 4 * sem

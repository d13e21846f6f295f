"""Calibration: the batched probe walk, the seed spawner, the median and the bisection."""

import math

import numpy as np
import pytest

from polarlink import calibrate, cli
from polarlink.calibrate import (
    MAX_CALIBRATE_SEEDS,
    SeedSet,
    _probe_s1_chunks,
    median_crossing_time,
    probe_crossing_times,
    spawned_generators,
)
from polarlink.channel import DAY_RATE, MAX_STEP_S, DriftSchedule, FiberChannel, first_crossing_time
from tests.oracles import ScriptedDraws

H = np.array([1.0, 0.0, 0.0])


class TestProbeCrossingTimes:
    @pytest.mark.parametrize(
        "rate,threshold,duration",
        [
            (1e-5, 0.95, 40.0),  # nothing crosses
            (1.0, 0.95, 40.0),  # everything crosses within a few samples
            (DAY_RATE, 0.95, 40.0),
            (0.05, 0.99, 40.03),  # 40.03 s is not a whole number of samples
        ],
    )
    def test_matches_per_channel_probe_traces(self, rate, threshold, duration):
        sched = DriftSchedule.constant(rate)
        children = np.random.SeedSequence(17).spawn(40)
        expected = []
        for child in children:
            ch = FiberChannel(sched, np.random.default_rng(child))
            t, _, f = ch.probe_trace(H, duration, MAX_STEP_S)
            c = first_crossing_time(t, f, threshold)
            expected.append(np.nan if c is None else c)
        rngs = [np.random.default_rng(child) for child in children]
        got = probe_crossing_times(rate, rngs, duration, threshold, len(rngs), math.inf)
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

    @pytest.mark.parametrize("n", [1, 2, 3, 200, MAX_CALIBRATE_SEEDS])
    def test_states_and_draws_equal_numpys(self, n):
        # numpy's own spawn takes about 0.2 s at the largest n, so that n runs
        # at the seeds whose word counts differ in the pool: 1, 4 and 5 words
        seeds = self.SEEDS if n < MAX_CALIBRATE_SEEDS else [3, 2**128 - 1, 2**128]
        for seed in seeds:
            got, expected = calibrate.spawned_generators(seed, n), seeded_rngs(seed, n)
            assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in expected]
            draws = [np.array([g.standard_normal(8) for g in rngs]) for rngs in (got, expected)]
            assert np.array_equal(*draws)

    def test_seed_words_hold_one_pcg64_seed_only(self):
        words = np.zeros(4, np.uint64)
        seed = calibrate._pcg64_seed_type()(words)
        assert seed.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError):
            seed.generate_state(8, np.uint32)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_calibration_equals_that_of_numpys_spawn(self, tmp_path, monkeypatch, capsys, seed):
        args = ["calibrate", "--config", "configs/calibrate.yaml", "--seed", str(seed), "--out"]
        assert cli.main(args + [str(tmp_path / "vectorised")]) == 0
        monkeypatch.setattr(calibrate, "spawned_generators", seeded_rngs)
        assert cli.main(args + [str(tmp_path / "numpy")]) == 0
        for name in ("schedule.json", "summary.json"):
            assert (tmp_path / "vectorised" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()


class TestProbeCrossingTimesStopAfter:
    """An early-stopped walk keeps every crossing it finds and the median of all."""

    @pytest.mark.parametrize(
        "rate",
        [
            DAY_RATE,
            DAY_RATE / 4,  # about half cross within 80 s
            DAY_RATE / 6,  # under a third cross
        ],
    )
    def test_crossed_entries_match_the_full_walk(self, rate):
        n = 41
        full = probe_crossing_times(rate, seeded_rngs(9, n), 80.0, 0.95, n, math.inf)
        for k in (1, 2, 20, 21, 22, n):
            got = probe_crossing_times(rate, seeded_rngs(9, n), 80.0, 0.95, k, math.inf)
            crossed = ~np.isnan(got)
            assert np.array_equal(got[crossed], full[crossed])
            if crossed.sum() < k:  # the walk ran to its end
                assert np.array_equal(got, full, equal_nan=True)
            # a channel left NaN crosses after every crossed one, or never
            rest = full[~crossed]
            assert (np.isnan(rest) | (rest > got[crossed].max(initial=-1.0))).all()

    @pytest.mark.parametrize("n_seeds", [1, 2, 7, 50])
    @pytest.mark.parametrize(
        "rate,threshold,max_time",
        [
            (DAY_RATE, 0.95, 80.0),
            (DAY_RATE / 4, 0.95, 80.0),
            (DAY_RATE / 6, 0.95, 80.0),
            (0.05, 0.99, 80.03),  # 80.03 s is not a whole number of samples
            (1e-5, 0.95, 80.0),  # nothing crosses: the median is max_time_s
        ],
    )
    def test_median_equals_the_full_walk_median(self, n_seeds, rate, threshold, max_time):
        seed = 100 + n_seeds
        rngs = seeded_rngs(seed, n_seeds)
        full = probe_crossing_times(rate, rngs, max_time, threshold, n_seeds, math.inf)
        expected = np.median(np.where(np.isnan(full), max_time, full))
        got = median_crossing_time(rate, threshold, n_seeds, max_time, seed)
        assert np.array_equal(got, expected)
        if rate == 1e-5 or (rate == DAY_RATE / 6 and n_seeds == 50):
            assert got == 80.0  # fewer than half cross, so the walk runs to its end


def full_walk_median(rate, n_seeds, seed):
    """The median crossing time of ``median_crossing_time``, from a walk run to its end."""
    full = probe_crossing_times(rate, seeded_rngs(seed, n_seeds), 80.0, 0.95, n_seeds, math.inf)
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
        times = probe_crossing_times(DAY_RATE, seeded_rngs(1, 2), 80.0, 0.95, 2, math.inf)
        assert times.tolist() == [9.600000000000001, 24.700000000000003]
        got = median_crossing_time(DAY_RATE, 0.95, 2, 80.0, 1, horizon=20.5)
        assert got == full_walk_median(DAY_RATE, 2, 1) == np.mean(times)

    def test_stops_after_the_chunk_that_passes_the_horizon(self, monkeypatch):
        samples = []

        def counted(*args):
            for first, s1 in chunks(*args):
                samples.append(len(s1))
                yield first, s1

        chunks = calibrate._probe_s1_chunks
        monkeypatch.setattr(calibrate, "_probe_s1_chunks", counted)
        rate, n = DAY_RATE / 2, 41
        full = probe_crossing_times(rate, seeded_rngs(9, n), 80.0, 0.95, n, math.inf)
        assert sum(samples) == 800 and np.count_nonzero(full <= 22.5) < n - n // 2
        samples.clear()
        got = probe_crossing_times(rate, seeded_rngs(9, n), 80.0, 0.95, n, 20.5)
        assert sum(samples) == 225  # nine chunks of 25 samples, the last ending at 22.5 s
        crossed = ~np.isnan(got)
        assert np.array_equal(got[crossed], full[crossed]) and np.array_equal(crossed, full <= 22.5)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_calibration_equals_that_of_full_walks(self, tmp_path, monkeypatch, capsys, seed):
        args = ["calibrate", "--config", "configs/calibrate.yaml", "--seed", str(seed), "--out"]
        assert cli.main(args + [str(tmp_path / "horizon")]) == 0
        full = calibrate.median_crossing_time
        monkeypatch.setattr(calibrate, "median_crossing_time", lambda *a, horizon, seed_set: full(*a))
        assert cli.main(args + [str(tmp_path / "full")]) == 0
        for name in ("schedule.json", "summary.json"):
            assert (tmp_path / "horizon" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_band_edge_median_is_within_the_horizon(self, tmp_path, monkeypatch, capsys):
        # at 30 s and tolerance 0.05 the band test accepts 30.75 s, which
        # 30 * (1 + 0.05 / 2) = 30.749999999999996 would put past the horizon
        horizons = []

        def scripted(*args, horizon, seed_set):
            horizons.append(horizon)
            return 30.75 if 30.75 <= horizon else math.inf

        monkeypatch.setattr(calibrate, "median_crossing_time", scripted)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("calibrate: {target_time_s: 30.0, tolerance: 0.05}\n")
        assert cli.main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert horizons == [30.75]


class TestSeedSet:
    """Walks over one SeedSet take, bit for bit, the normals of fresh generators."""

    def test_walks_read_the_draws_of_fresh_generators(self):
        # seed 3's calibration rates: 0.0562 stops after 2 chunks, 0.00316 at the
        # horizon after 9; the third walk reads only kept chunks
        n, seed_set = 200, SeedSet(3, 200)
        for rate, chunks in ((0.0562, 2), (0.00316, 9), (0.0562, 9)):
            states = [g.bit_generator.state for g in seed_set]
            got = probe_crossing_times(rate, seed_set, 80.0, 0.95, n // 2 + 1, 20.5)
            fresh = spawned_generators(3, n)
            expected = probe_crossing_times(rate, fresh, 80.0, 0.95, n // 2 + 1, 20.5)
            assert np.array_equal(got, expected, equal_nan=True)
            assert len(seed_set.chunks) == chunks
            if rate == 0.0562:
                assert np.count_nonzero(~np.isnan(got)) >= n // 2 + 1  # stopped at the median
            if chunks == 9 and rate == 0.0562:  # drew nothing
                assert [g.bit_generator.state for g in seed_set] == states

    def test_a_shorter_walks_last_chunk_is_extended(self):
        # 2.3 s walks 23 steps, a partial chunk; 2.8 s walks 25 + 3
        seed_set = SeedSet(8, 5)
        for duration, kept in ((2.3, [23]), (2.8, [25, 3]), (2.3, [25, 3]), (2.0, [25, 3])):
            got = [c for _, c in _probe_s1_chunks(1.0, seed_set, duration)]
            expected = [c for _, c in _probe_s1_chunks(1.0, spawned_generators(8, 5), duration)]
            assert np.array_equal(np.concatenate(got), np.concatenate(expected))
            assert [c.shape[1] for c in seed_set.chunks] == kept

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_calibration_equals_that_without_the_cache(self, monkeypatch, seed):
        settings = cli.load_config("configs/calibrate.yaml")["calibrate"]
        seed_sets = []
        walk = calibrate.median_crossing_time

        def recorded(*args, horizon, seed_set):
            seed_sets.append(seed_set)
            return walk(*args, horizon=horizon, seed_set=seed_set)

        monkeypatch.setattr(calibrate, "median_crossing_time", recorded)
        cached = calibrate.bisect_day_rate(settings, seed)
        assert seed_sets and all(isinstance(s, SeedSet) for s in seed_sets)
        seed_sets.clear()
        monkeypatch.setattr(calibrate, "_DRAW_CACHE_BYTES", 0)
        assert calibrate.bisect_day_rate(settings, seed) == cached
        assert seed_sets and all(s is None for s in seed_sets)

    @pytest.mark.parametrize("n_seeds,cached", [(200, True), (327, True), (328, False)])
    def test_cache_only_where_a_full_walk_fits_the_budget(self, monkeypatch, n_seeds, cached):
        # a full walk at 20 s is 800 steps of 4 doubles per seed: 25,600 B
        seed_sets = []

        def scripted(*args, horizon, seed_set):
            seed_sets.append(seed_set)
            return 20.0

        monkeypatch.setattr(calibrate, "median_crossing_time", scripted)
        calibrate.bisect_day_rate({**TestBisectDayRate.SETTINGS, "n_seeds": n_seeds}, 0)
        assert isinstance(seed_sets[0], SeedSet) == cached


class TestProbeVectorWalk:
    def test_zero_axis_draw_is_the_identity_step(self):
        # channel 0 draws only all-zero axis normals, channel 1 one such step
        # (its third): both keep the probe there, whatever the angle
        draws = np.random.default_rng(6).standard_normal((2, 5, 4))
        draws[0, :, :3] = 0.0
        draws[1, 2, :3] = -0.0
        rngs = [ScriptedDraws(d) for d in draws]
        ((_, s1),) = _probe_s1_chunks(1.0, rngs, 0.5)
        assert (s1[:, 0] == 1.0).all()
        assert s1[2, 1] == s1[1, 1] and s1[1, 1] != s1[0, 1]

    def test_is_the_channels_walk(self):
        rate = 5 * DAY_RATE
        children = np.random.SeedSequence(4).spawn(40)
        rngs = [np.random.default_rng(child) for child in children]
        s1 = np.concatenate([c for _, c in _probe_s1_chunks(rate, rngs, 40.0)])
        sched = DriftSchedule.constant(rate)
        expected = [
            FiberChannel(sched, np.random.default_rng(c)).probe_trace(H, 40.0, MAX_STEP_S)[1][1:, 0]
            for c in children
        ]
        assert s1.shape == (400, 40)
        assert np.abs(s1 - np.transpose(expected)).max() < 1e-12


class TestBisectDayRate:
    SETTINGS = {"target_fidelity": 0.95, "target_time_s": 20.0, "n_seeds": 7, "tolerance": 0.05}

    FIRST = float(np.sqrt(1e-5 * 1.0))
    SECOND = float(np.sqrt(FIRST * 1.0))

    def scripted_calls(self, monkeypatch, medians):
        """The rate of each median_crossing_time call, and the result, for scripted medians."""
        calls, medians = [], iter(medians)

        def scripted(rate, threshold, n_seeds, max_time_s, seed, horizon, seed_set):
            calls.append((rate, threshold, n_seeds, max_time_s, seed, horizon))
            return next(medians)

        monkeypatch.setattr(calibrate, "median_crossing_time", scripted)
        result = calibrate.bisect_day_rate(self.SETTINGS, 11)
        assert all(c[1:] == (0.95, 7, 80.0, 11, 20.5) for c in calls)  # one seed set
        return [c[0] for c in calls], result

    def test_next_rate_scales_by_the_last_median(self, monkeypatch):
        # past the horizon, then below and inside the band [19.5, 20.5] s
        rates, result = self.scripted_calls(monkeypatch, [math.inf, 5.0, 20.25])
        third = self.SECOND * 5.0 / 20.0
        assert rates == [self.FIRST, self.SECOND, third]
        assert result == (third, 20.25)

    def test_guess_outside_the_bracket_takes_the_midpoint(self, monkeypatch):
        # SECOND * 0.1 / 20 lies below lo = FIRST
        rates, _ = self.scripted_calls(monkeypatch, [math.inf, 0.1, 20.25])
        assert rates == [self.FIRST, self.SECOND, float(np.sqrt(self.FIRST * self.SECOND))]

    def test_finite_median_past_the_horizon_acts_as_inf(self, monkeypatch):
        # a full walk's median past the horizon is finite; FIRST * 30 / 20
        # would lie inside (FIRST, 1), yet the step takes the midpoint
        assert self.scripted_calls(monkeypatch, [30.0, 5.0, 20.25]) == self.scripted_calls(
            monkeypatch, [math.inf, 5.0, 20.25]
        )

    def test_bracket_closed_on_a_jump_walks_the_next_seed_set(self, monkeypatch):
        # seed 11's median scales as 1 / rate but jumps over the band
        # [19.5, 20.5] s at 0.0132; seed 12's passes through the band there
        calls = []

        def scripted(rate, threshold, n_seeds, max_time_s, seed, horizon, seed_set):
            calls.append((rate, seed))
            if seed == 12:
                return 20.0 * 0.0132 / rate
            return (20.6 if rate < 0.0132 else 19.4) * 0.0132 / rate

        monkeypatch.setattr(calibrate, "median_crossing_time", scripted)
        rate, median = calibrate.bisect_day_rate(self.SETTINGS, 11)
        *elevens, (last_rate, last_seed) = calls
        assert all(s == 11 for _, s in elevens) and last_seed == 12
        # the bracket around the jump is narrower than tolerance / 4
        lo = max(r for r, _ in elevens if r < 0.0132)
        hi = min(r for r, _ in elevens if r >= 0.0132)
        assert hi < lo * (1 + 0.05 / 4)
        # the next seed set starts at the last rate
        assert last_rate == elevens[-1][0] and (rate, median) == (last_rate, 20.0 * 0.0132 / last_rate)

    def test_a_jump_reseeds_onto_the_next_seeds_own_normals(self, monkeypatch):
        # the jump of test_bracket_closed_on_a_jump_walks_the_next_seed_set;
        # each call walks 50 steps over the seed set it is given
        seen = []

        def scripted(rate, threshold, n_seeds, max_time_s, seed, horizon, seed_set):
            s1 = np.concatenate([c for _, c in _probe_s1_chunks(1.0, seed_set, 5.0)])
            fresh = spawned_generators(seed, n_seeds)
            expected = np.concatenate([c for _, c in _probe_s1_chunks(1.0, fresh, 5.0)])
            seen.append((seed, seed_set, np.array_equal(s1, expected)))
            if seed == 12:
                return 20.0 * 0.0132 / rate
            return (20.6 if rate < 0.0132 else 19.4) * 0.0132 / rate

        monkeypatch.setattr(calibrate, "median_crossing_time", scripted)
        calibrate.bisect_day_rate(self.SETTINGS, 11)
        *elevens, (last_seed, last_set, last_equal) = seen
        assert len(elevens) > 1 and last_seed == 12 and last_equal
        assert all(seed == 11 and s is elevens[0][1] and equal for seed, s, equal in elevens)
        assert last_set is not elevens[0][1] and len(last_set) == 7

    def test_calibrate_yaml_seed_3_walks_three_medians(self, tmp_path, monkeypatch, capsys):
        medians = []
        walk = calibrate.median_crossing_time

        def counted(*args, horizon, seed_set):
            medians.append(walk(*args, horizon=horizon, seed_set=seed_set))
            return medians[-1]

        monkeypatch.setattr(calibrate, "median_crossing_time", counted)
        args = ["calibrate", "--config", "configs/calibrate.yaml", "--seed", "3"]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 0
        assert len(medians) == 3 and abs(medians[-1] - 20.0) <= 0.5

    def test_fidelity_1_walks_nothing(self, monkeypatch):
        monkeypatch.setattr(calibrate, "median_crossing_time", None)
        settings = {**self.SETTINGS, "target_fidelity": 1.0}
        assert calibrate.bisect_day_rate(settings, 0) == (0.0, 20.0)

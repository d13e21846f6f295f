"""Fringe fits, visibility errors, CHSH estimates and long-run series."""

import numpy as np
import pytest

from polarlink.analysis import (
    TSIRELSON,
    FitError,
    FitResult,
    chsh_from_visibilities,
    corrected_fit,
    fit_fringe,
    longrun_series,
    summarize_longrun,
)
from polarlink.apc import OUTCOME_CONVERGED, OUTCOME_TIMEOUT, SessionRecord
from polarlink.cli import _measure, load_config
from polarlink.scheduler import CHSH_WINDOW_SETTINGS, Window
from tests.oracles import IDENTITY_QUAT, loop_longrun_series

ANGLES = np.arange(0.0, 181.0, 10.0)


def noiseless_fringe(offset, visibility, phase_deg, duration=2.0):
    """The sweep's angles, exact mean counts and window duration."""
    counts = []
    for th in ANGLES:
        rate = offset * (1.0 + visibility * np.cos(2.0 * np.deg2rad(th - phase_deg)))
        counts.append(rate * duration)
    return ANGLES, np.array(counts), duration


def low_count_fringe(seed, offset, v_good, v_bad, bad_indices, phase_deg=12.0):
    """Poisson fringe with a corrupted mid-sweep stretch flagged post-timeout:
    angles, counts, duration and the post-timeout flags."""
    rng = np.random.default_rng(seed)
    counts, flags = [], []
    for i, th in enumerate(ANGLES):
        bad = i in bad_indices
        v = v_bad if bad else v_good
        rate = offset * (1.0 + v * np.cos(2.0 * np.deg2rad(th - phase_deg)))
        counts.append(int(rng.poisson(rate * 2.0)))
        flags.append(bad)
    return ANGLES, np.array(counts), 2.0, np.array(flags)


class TestFitFringe:
    @pytest.mark.parametrize("v,phase", [(0.8, 0.0), (0.5, 37.0), (0.99, -20.0)])
    def test_recovers_noiseless_fringe(self, v, phase):
        fit = fit_fringe(*noiseless_fringe(100.0, v, phase))
        assert fit.visibility == pytest.approx(v, abs=1e-9)
        assert fit.offset == pytest.approx(100.0, abs=1e-6)
        # phase is defined mod 90 degrees through the double-angle terms
        assert np.cos(2 * np.deg2rad(fit.phase_deg - phase)) == pytest.approx(1.0, abs=1e-9)

    def test_visibility_within_error_on_poisson_data(self):
        rng = np.random.default_rng(0)
        pulls = []
        for seed in range(200):
            r = np.random.default_rng(seed)
            counts = []
            for th in ANGLES:
                rate = 500.0 * (1.0 + 0.8 * np.cos(2.0 * np.deg2rad(th)))
                counts.append(int(r.poisson(rate * 2.0)))
            fit = fit_fringe(ANGLES, np.array(counts), 2.0)
            pulls.append((fit.visibility - 0.8) / fit.sigma_v)
        # pull distribution should be standard normal-ish
        assert abs(np.mean(pulls)) < 0.25
        assert 0.7 < np.std(pulls) < 1.4

    def test_rejects_too_few_points(self):
        angles, counts, duration = noiseless_fringe(100.0, 0.8, 0.0)
        with pytest.raises(FitError):
            fit_fringe(angles[:5], counts[:5], duration)

    def test_rejects_short_span(self):
        with pytest.raises(FitError):
            fit_fringe(np.linspace(0, 100, 8), np.full(8, 100.0), 1.0)

    def test_rejects_degenerate_angles(self):
        # angles repeating mod 90 collapse the design matrix
        angles = [0.0, 0.0, 90.0, 90.0, 180.0, 180.0]
        with pytest.raises(FitError):
            fit_fringe(angles, np.full(6, 100.0), 1.0)


class TestCorrectedFit:
    def test_low_count_example(self):
        # drift-corrupted sweep: V = 0.76 +/- 0.03 overall, and excluding the
        # flagged points restores V = 0.82 +/- 0.03
        angles, counts, duration, flags = low_count_fringe(
            2617, 28.0, 0.81, 0.38, set(range(2, 10))
        )
        fit = fit_fringe(angles, counts, duration)
        cfit = corrected_fit(angles, counts, duration, flags)
        assert fit.visibility == pytest.approx(0.76, abs=0.005)
        assert fit.sigma_v == pytest.approx(0.03, abs=0.005)
        assert cfit.visibility == pytest.approx(0.82, abs=0.005)
        assert cfit.sigma_v == pytest.approx(0.03, abs=0.005)
        assert cfit.visibility > fit.visibility

    def test_no_flags_matches_plain_fit(self):
        fringe = noiseless_fringe(50.0, 0.7, 10.0)
        assert corrected_fit(*fringe, np.zeros(len(ANGLES), bool)) == fit_fringe(*fringe)


class TestChshFromVisibilities:
    def fake_fit(self, v, sigma):
        return FitResult(1.0, v, 0.0, v, sigma, 0.0)

    def test_arithmetic(self):
        fits = [self.fake_fit(v, 0.02) for v in (0.80, 0.82, 0.78, 0.84)]
        res = chsh_from_visibilities(fits)
        assert res.s_value == pytest.approx(TSIRELSON * 0.81)
        assert res.sigma_s == pytest.approx(TSIRELSON / 4.0 * 0.04)

    def test_requires_four(self):
        with pytest.raises(FitError):
            chsh_from_visibilities([self.fake_fit(0.8, 0.02)] * 3)


def make_window(idx, counts, start=0.0, post_timeout=False, min_f=0.995):
    """The window at CHSH setting ``idx`` after a 0.12 s session, and its counts."""
    outcome = OUTCOME_TIMEOUT if post_timeout else OUTCOME_CONVERGED
    session = SessionRecord(outcome, 0.12, 0.9, min_f, 1, start - 0.12)
    setting = CHSH_WINDOW_SETTINGS[idx]
    return Window(session, start, start + 3.0, setting, IDENTITY_QUAT), np.asarray(counts)


def series_of(group):
    """longrun_series of (window, counts) pairs: its six columns."""
    windows, counts = zip(*group)
    return longrun_series(list(windows), list(counts))


def perfect_group(start=0.0, post_timeout=False):
    """Counts realizing E = (+1/sqrt2, -1/sqrt2, +1/sqrt2, +1/sqrt2) exactly."""
    n = 1_000_000
    hi = int(round(n * (2 + np.sqrt(2)) / 8))
    lo = n // 4 - (hi - n // 4)
    group = []
    for k in range(4):
        pp = hi if k != 1 else lo
        pf = lo if k != 1 else hi
        group.append(make_window(k, [pp, pf, pf, pp], start=start, post_timeout=post_timeout))
    return group


class TestLongrunSeries:
    def test_known_counts_give_tsirelson(self):
        _, _, s, sigma_s, _, _ = series_of(perfect_group())
        assert len(s) == 1
        assert s[0] == pytest.approx(TSIRELSON, abs=1e-3)
        assert sigma_s[0] > 0

    def test_sign_pattern(self):
        # all four correlations +1 gives S = 1 - 1 + 1 + 1 = 2
        group = [make_window(k, [10, 0, 0, 10]) for k in range(4)]
        assert series_of(group)[2][0] == pytest.approx(2.0)

    def test_partial_group_dropped(self):
        group = perfect_group() + [make_window(0, [10, 0, 0, 10])]
        assert [len(column) for column in series_of(group)] == [1] * 6

    def test_empty_window_contributes_zero(self):
        group = [make_window(k, [0, 0, 0, 0]) for k in range(4)]
        _, _, s, sigma_s, _, _ = series_of(group)
        assert s[0] == pytest.approx(0.0)
        assert sigma_s[0] == pytest.approx(2.0)

    def test_metadata_aggregation(self):
        # one timed-out session with the lowest fidelity marks the whole group
        group = perfect_group(start=7.0)
        group[2] = make_window(2, group[2][1], start=7.0, post_timeout=True, min_f=0.97)
        t_s, min_f, _, _, compensation_s, post_timeout = series_of(group)
        assert t_s == [7.0]
        assert min_f == [0.97]
        assert post_timeout == [True]
        assert compensation_s[0] == pytest.approx(4 * 0.12)

    def test_equals_the_loop_oracle_bit_for_bit(self):
        # integer counts up to 1e9, a quarter of the windows without counts,
        # float (noiseless) counts, and a partial last group
        rng = np.random.default_rng(31)
        int_counts = rng.integers(0, 50, (400, 4)) * 10 ** rng.integers(0, 8, (400, 1))
        int_counts[rng.random(400) < 0.25] = 0
        int_counts[:8] = 10**9 - rng.integers(0, 3, (8, 4))
        float_counts = rng.uniform(0.0, 1e4, (400, 4)) ** rng.uniform(0.5, 2.0, (400, 1))
        float_counts[rng.random(400) < 0.25] = 0.0
        for counts in (int_counts, float_counts, int_counts[:-3]):
            windows = [
                make_window(k % 4, row, start=3.0 * k, post_timeout=rng.random() < 0.1,
                            min_f=rng.uniform(0.9, 1.0))[0]
                for k, row in enumerate(counts)
            ]
            for c in (counts, list(counts)):
                assert_same_series(longrun_series(windows, c), loop_longrun_series(windows, c))

    def test_equals_the_loop_oracle_on_a_stabilized_run(self):
        windows, counts = _measure(load_config("configs/longrun_stabilized.yaml"), 11)
        expected = loop_longrun_series(windows, counts)
        assert len(expected[0]) > 500
        assert_same_series(longrun_series(windows, counts), expected)


def assert_same_series(got, expected):
    """Every column equal, the float columns by ``.hex()``; S and σ_S are arrays."""
    t_s, min_f, s, sigma_s, compensation_s, post_timeout = got
    assert isinstance(s, np.ndarray) and isinstance(sigma_s, np.ndarray)
    floats = (t_s, min_f, s.tolist(), sigma_s.tolist(), compensation_s)
    for column, expected_column in zip(floats, expected[:5]):
        assert [x.hex() for x in column] == [x.hex() for x in expected_column]
    assert post_timeout == expected[5]


class TestSummarizeLongrun:
    def test_statistics(self):
        _, _, s, _, _, post_timeout = series_of(perfect_group(0.0) + perfect_group(12.0, True))
        summary = summarize_longrun(s, post_timeout)
        assert type(summary["n_groups"]) is int and type(summary["n_excluded_groups"]) is int
        assert summary["n_groups"] == 2
        assert summary["n_excluded_groups"] == 1
        assert summary["mean_S"] == pytest.approx(TSIRELSON, abs=1e-3)
        assert summary["corrected_mean_S"] == pytest.approx(s[0])
        assert summary["corrected_std_S"] == 0.0

    def test_every_group_post_timeout_averages_all(self):
        # with no group left to keep, the corrected statistics are the plain ones
        s = np.array([2.1, 2.4, 2.7])
        summary = summarize_longrun(s, [True, True, True])
        assert summary["corrected_mean_S"] == summary["mean_S"] == float(s.mean())
        assert summary["corrected_std_S"] == summary["std_S"]
        assert summary["n_excluded_groups"] == 0
        assert summary["n_groups"] == 3

    def test_rejects_empty(self):
        with pytest.raises(FitError):
            summarize_longrun(np.array([]), [])

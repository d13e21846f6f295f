"""Fringe fits, visibility errors, CHSH estimates and long-run series."""

import json

import numpy as np
import pytest

from polarlink.analysis import (
    TSIRELSON,
    ChshResult,
    FitError,
    FitResult,
    FringeDataset,
    FringePoint,
    chsh_from_visibilities,
    chsh_result_to_dict,
    corrected_fit,
    fit_fringe,
    longrun_series,
    read_fringe_csv,
    summarize_longrun,
    write_chsh_json,
    write_fringe_csv,
)
from polarlink.polmath import AnalyzerSetting
from polarlink.scheduler import CHSH_WINDOW_SETTINGS, WindowCounts

ANGLES = np.arange(0.0, 181.0, 10.0)


def noiseless_dataset(offset, visibility, phase_deg, duration=2.0):
    pts = []
    for th in ANGLES:
        rate = offset * (1.0 + visibility * np.cos(2.0 * np.deg2rad(th - phase_deg)))
        pts.append(FringePoint(th, rate * duration, duration))
    return FringeDataset(AnalyzerSetting(0.0), tuple(pts))


def low_count_dataset(seed, offset, v_good, v_bad, bad_indices, phase_deg=12.0):
    """Poisson fringe with a corrupted mid-sweep stretch flagged post-timeout."""
    rng = np.random.default_rng(seed)
    pts = []
    for i, th in enumerate(ANGLES):
        bad = i in bad_indices
        v = v_bad if bad else v_good
        rate = offset * (1.0 + v * np.cos(2.0 * np.deg2rad(th - phase_deg)))
        pts.append(FringePoint(th, int(rng.poisson(rate * 2.0)), 2.0, post_timeout=bad))
    return FringeDataset(AnalyzerSetting(0.0), tuple(pts))


class TestFitFringe:
    @pytest.mark.parametrize("v,phase", [(0.8, 0.0), (0.5, 37.0), (0.99, -20.0)])
    def test_recovers_noiseless_fringe(self, v, phase):
        fit = fit_fringe(noiseless_dataset(100.0, v, phase))
        assert fit.visibility == pytest.approx(v, abs=1e-9)
        assert fit.offset == pytest.approx(100.0, abs=1e-6)
        # phase is defined mod 90 degrees through the double-angle terms
        assert np.cos(2 * np.deg2rad(fit.phase_deg - phase)) == pytest.approx(1.0, abs=1e-9)

    def test_visibility_within_error_on_poisson_data(self):
        rng = np.random.default_rng(0)
        pulls = []
        for seed in range(200):
            r = np.random.default_rng(seed)
            pts = []
            for th in ANGLES:
                rate = 500.0 * (1.0 + 0.8 * np.cos(2.0 * np.deg2rad(th)))
                pts.append(FringePoint(th, int(r.poisson(rate * 2.0)), 2.0))
            fit = fit_fringe(FringeDataset(AnalyzerSetting(0.0), tuple(pts)))
            pulls.append((fit.visibility - 0.8) / fit.sigma_v)
        # pull distribution should be standard normal-ish
        assert abs(np.mean(pulls)) < 0.25
        assert 0.7 < np.std(pulls) < 1.4

    def test_rejects_too_few_points(self):
        ds = noiseless_dataset(100.0, 0.8, 0.0)
        with pytest.raises(FitError):
            fit_fringe(FringeDataset(ds.nist_basis, ds.points[:5]))

    def test_rejects_short_span(self):
        pts = tuple(FringePoint(th, 100.0, 1.0) for th in np.linspace(0, 100, 8))
        with pytest.raises(FitError):
            fit_fringe(FringeDataset(AnalyzerSetting(0.0), pts))

    def test_rejects_degenerate_angles(self):
        # angles repeating mod 90 collapse the design matrix
        pts = tuple(
            FringePoint(th, 100.0, 1.0) for th in [0.0, 0.0, 90.0, 90.0, 180.0, 180.0]
        )
        with pytest.raises(FitError):
            fit_fringe(FringeDataset(AnalyzerSetting(0.0), pts))

    def test_rejects_negative_counts(self):
        with pytest.raises(FitError):
            FringeDataset(AnalyzerSetting(0.0), (FringePoint(0.0, -1.0, 1.0),))


class TestCorrectedFit:
    def test_low_count_example(self):
        # drift-corrupted sweep: V = 0.76 +/- 0.03 overall, and excluding the
        # flagged points restores V = 0.82 +/- 0.03
        ds = low_count_dataset(2617, 28.0, 0.81, 0.38, set(range(2, 10)))
        fit = fit_fringe(ds)
        cfit = corrected_fit(ds)
        assert fit.visibility == pytest.approx(0.76, abs=0.005)
        assert fit.sigma_v == pytest.approx(0.03, abs=0.005)
        assert cfit.visibility == pytest.approx(0.82, abs=0.005)
        assert cfit.sigma_v == pytest.approx(0.03, abs=0.005)
        assert cfit.visibility > fit.visibility

    def test_no_flags_matches_plain_fit(self):
        ds = noiseless_dataset(50.0, 0.7, 10.0)
        assert corrected_fit(ds) == fit_fringe(ds)


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

    def test_violation_threshold(self):
        assert ChshResult(2.21, 0.10, ()).violation
        assert not ChshResult(2.19, 0.10, ()).violation
        assert not ChshResult(1.90, 0.01, ()).violation


def make_window(idx, counts, start=0.0, post_timeout=False, min_f=0.995):
    return WindowCounts(
        window_start_s=start,
        setting=CHSH_WINDOW_SETTINGS[idx],
        counts=np.asarray(counts),
        duration_s=2.0,
        post_timeout=post_timeout,
        min_ref_fidelity=min_f,
        compensation_time_s=0.12,
    )


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
        series = longrun_series(perfect_group())
        assert len(series) == 1
        assert series[0].s_value == pytest.approx(TSIRELSON, abs=1e-3)
        assert series[0].sigma_s > 0

    def test_sign_pattern(self):
        # all four correlations +1 gives S = 1 - 1 + 1 + 1 = 2
        group = [make_window(k, [10, 0, 0, 10]) for k in range(4)]
        series = longrun_series(group)
        assert series[0].s_value == pytest.approx(2.0)

    def test_rejects_misaligned_groups(self):
        group = [make_window(k, [10, 0, 0, 10]) for k in (1, 2, 3, 0)]
        with pytest.raises(FitError):
            longrun_series(group)

    def test_partial_group_dropped(self):
        group = perfect_group() + [make_window(0, [10, 0, 0, 10])]
        assert len(longrun_series(group)) == 1

    def test_empty_window_contributes_zero(self):
        group = [make_window(k, [0, 0, 0, 0]) for k in range(4)]
        series = longrun_series(group)
        assert series[0].s_value == pytest.approx(0.0)
        assert series[0].sigma_s == pytest.approx(2.0)

    def test_metadata_aggregation(self):
        group = perfect_group(start=7.0, post_timeout=True)
        p = longrun_series(group)[0]
        assert p.time_s == pytest.approx(7.0)
        assert p.post_timeout
        assert p.compensation_time_s == pytest.approx(4 * 0.12)


class TestSummarizeLongrun:
    def test_statistics(self):
        windows = perfect_group(0.0) + perfect_group(12.0, post_timeout=True)
        series = longrun_series(windows)
        s = summarize_longrun(series)
        assert s.n_groups == 2
        assert s.n_excluded == 1
        assert s.mean_s == pytest.approx(TSIRELSON, abs=1e-3)
        assert s.corrected_mean_s == pytest.approx(series[0].s_value)
        assert s.corrected_std_s == 0.0

    def test_rejects_empty(self):
        with pytest.raises(FitError):
            summarize_longrun([])


class TestSerialization:
    def test_fringe_csv_roundtrip(self, tmp_path):
        ds = [
            low_count_dataset(1, 30.0, 0.8, 0.4, {3, 4}),
            FringeDataset(AnalyzerSetting(45.0), noiseless_dataset(50.0, 0.7, 0.0).points),
        ]
        path = tmp_path / "fringe.csv"
        write_fringe_csv(path, ds)
        back = read_fringe_csv(path)
        assert len(back) == 2
        for orig, rt in zip(ds, back):
            assert rt.nist_basis.angle_deg == pytest.approx(orig.nist_basis.angle_deg)
            for p, q in zip(orig.points, rt.points):
                assert q.count == pytest.approx(p.count)
                assert q.post_timeout == p.post_timeout

    def test_chsh_json(self, tmp_path):
        fits = [FitResult(1.0, v, 0.0, v, 0.02, 0.0) for v in (0.8, 0.8, 0.8, 0.8)]
        res = chsh_from_visibilities(fits)
        path = tmp_path / "chsh.json"
        write_chsh_json(path, res, seed=5)
        payload = json.loads(path.read_text())
        assert payload["S"] == pytest.approx(res.s_value)
        assert payload["seed"] == 5
        assert len(payload["visibilities"]) == 4
        assert chsh_result_to_dict(res)["corrected"] is False

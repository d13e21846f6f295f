"""Pair source, detection chain and coincidence rates."""

import numpy as np
import pytest

from polarlink.polmath import CANONICAL_CHSH_ANGLES, AnalyzerSetting, PolTransform
from polarlink.scheduler import (
    CHSH_WINDOW_SETTINGS,
    SchedulerConfig,
    Window,
    simulate_window_counts,
)
from polarlink.source import (
    DetectionChain,
    accidental_rate,
    PairSource,
    coincidence_rates,
    expected_coincidence_rate,
    port_rates,
)
from tests.oracles import IDENTITY_QUAT, haar_quat, haar_rotation, matrix


def loss_only_chain(loss_db=21.0):
    return DetectionChain(
        idler_transmittance=10 ** (-loss_db / 10),
        signal_efficiency=1.0,
        idler_efficiency=1.0,
    )


class TestExpectedRate:
    def test_rate_budget_21_db(self):
        # 2e5 pairs/s through 21 dB, summed over the idler's two output ports
        # at matched bases, recovers the transmitted-pair rate ~1589/s
        src = PairSource(local_pair_rate=2e5, visibility=0.8)
        chain = loss_only_chain()
        a = b = AnalyzerSetting(0.0)
        total = expected_coincidence_rate(src, chain, a, b) + expected_coincidence_rate(
            src, chain, a, b.orthogonal()
        )
        assert total == pytest.approx(1588.66, abs=1.0)

    def test_zero_transmittance_leaves_accidentals(self):
        src = PairSource(visibility=1.0)
        chain = DetectionChain(idler_transmittance=0.0, dark_rate=100.0)
        rate = expected_coincidence_rate(src, chain, AnalyzerSetting(0), AnalyzerSetting(0))
        r_s = 0.5 * src.local_pair_rate * chain.signal_efficiency + 100.0
        assert rate == pytest.approx(r_s * 100.0 * chain.coincidence_window)

    def test_crossed_45_port_is_half_of_matched_sum(self):
        # at 45 degrees the fringe term vanishes: the single-port rate is half
        # the matched two-port budget
        src = PairSource(visibility=1.0)
        chain = loss_only_chain()
        acc = accidental_rate(src, chain)
        a = AnalyzerSetting(0.0)
        matched_sum = expected_coincidence_rate(src, chain, a, a) + expected_coincidence_rate(
            src, chain, a, a.orthogonal()
        )
        crossed = expected_coincidence_rate(src, chain, a, AnalyzerSetting(45.0))
        assert crossed - acc == pytest.approx((matched_sum - 2.0 * acc) / 2.0)

    def test_port_rates_normalization(self):
        # above the accidental floor, the four port rates sum to 2x the
        # transmitted-pair budget by the single-port normalization convention
        rng = np.random.default_rng(0)
        src = PairSource(visibility=0.6)
        chain = loss_only_chain()
        acc = accidental_rate(src, chain)
        for _ in range(20):
            a = AnalyzerSetting(rng.uniform(0, 180))
            b = AnalyzerSetting(rng.uniform(0, 180))
            t = PolTransform(haar_rotation(rng))
            rates = port_rates(src, chain, a, b, t)
            budget = src.local_pair_rate * chain.idler_transmittance
            assert rates.sum() - 4.0 * acc == pytest.approx(2.0 * budget, rel=1e-9)


def per_window_rates(src, chain, a, b, idler_quat=None):
    """Oracle: the four port rates of one window, one scalar formula per port,
    as the sampler computed them before it was batched."""
    rates = []
    a_perp, b_perp = a.orthogonal(), b.orthogonal()
    for sa, sb in ((a, b), (a, b_perp), (a_perp, b), (a_perp, b_perp)):
        n_b = sb.stokes()
        if idler_quat is not None:
            n_b = matrix(idler_quat).T @ n_b
        corr = float(sa.stokes() @ np.diag([1.0, 1.0, -1.0]) @ n_b)
        p = 0.25 * (1.0 + src.visibility * corr)
        p = min(max(p, 0.0), 1.0)
        rate = (
            src.local_pair_rate
            * chain.idler_transmittance
            * chain.signal_efficiency
            * chain.idler_efficiency
            * 2.0
            * p
        )
        rates.append(rate + accidental_rate(src, chain))
    return np.array(rates)


# Settings the batched rates are checked at: the CHSH angles, the fringe
# sweep (180 reads as 0), settings whose orthogonal wraps mod 180, and a
# random spread.
SWEEP = [AnalyzerSetting(a) for a in range(0, 181, 10)]
WRAPPING = [AnalyzerSetting(a) for a in (90.0, 100.0, 135.0, 157.5, 179.9, -45.0, 270.0)]


def batch_windows(seed, n):
    """``n`` windows: the four CHSH pairs, then random pairs of the settings
    above and 20 random angles, at Haar-random or identity idler quaternions."""
    rng = np.random.default_rng(seed)
    settings = list(CANONICAL_CHSH_ANGLES) + SWEEP + WRAPPING
    settings += [AnalyzerSetting(a) for a in rng.uniform(0, 360, 20)]
    windows = []
    for i in range(n):
        if i < 4 * len(CHSH_WINDOW_SETTINGS):
            a, b = CHSH_WINDOW_SETTINGS[i % 4]
        else:
            a, b = (settings[k] for k in rng.integers(len(settings), size=2))
        q = IDENTITY_QUAT if i % 5 == 0 else haar_quat(rng)
        windows.append(Window(None, 0.0, 3.0, (a, b), q))
    return windows


CHAINS = [
    (PairSource(visibility=0.8), loss_only_chain()),
    (PairSource(2.5e5, 1.0), DetectionChain(0.0123, 0.61, 0.77, 350.0, 1.1e-9)),
    (PairSource(3.3e4, 0.0), DetectionChain(1.0, 1.0, 0.5, 0.0, 2e-9)),
]


class TestBatchedRates:
    @pytest.mark.parametrize("k", range(len(CHAINS)))
    def test_batched_rates_equal_per_window_formula(self, k):
        src, chain = CHAINS[k]
        windows = batch_windows(k, 1200)
        expected = np.array(
            [per_window_rates(src, chain, *w.setting, w.idler_quat) for w in windows]
        )
        stack = np.array([matrix(w.idler_quat) for w in windows])
        a = np.array([w.setting[0].stokes_pair() for w in windows])
        b = np.array([w.setting[1].stokes_pair() for w in windows])
        assert np.array_equal(coincidence_rates(src, chain, stack, a, b), expected)
        cfg = SchedulerConfig(measure_window_s=1.7)
        rng = np.random.default_rng(0)
        means = simulate_window_counts(windows, src, chain, cfg, rng, noiseless=True)
        assert np.array_equal(means, expected * cfg.measure_window_s)

    def test_one_row_calls_equal_per_window_formula(self):
        src, chain = CHAINS[1]
        for w in batch_windows(3, 200):
            expected = per_window_rates(src, chain, *w.setting, w.idler_quat)
            t = PolTransform(matrix(w.idler_quat))
            assert np.array_equal(port_rates(src, chain, *w.setting, t), expected)
        for a in SWEEP + WRAPPING:
            for b in CANONICAL_CHSH_ANGLES:
                expected = per_window_rates(src, chain, a, b)
                assert np.array_equal(port_rates(src, chain, a, b), expected)
                assert expected_coincidence_rate(src, chain, a, b) == expected[0]

    def test_one_poisson_call_draws_the_per_window_stream(self):
        # means below and above numpy's algorithm switch at 10, and zeros
        rng = np.random.default_rng(21)
        means = rng.choice([0.0, 0.3, 4.0, 9.99, 10.0, 250.0, 3.2e4], size=(1000, 4))
        means *= rng.uniform(0.5, 1.5, size=means.shape)
        batched, per_row = np.random.default_rng(5), np.random.default_rng(5)
        counts = batched.poisson(means)
        rows = np.array([per_row.poisson(m) for m in means])
        assert counts.dtype == rows.dtype
        assert np.array_equal(counts, rows)
        assert batched.bit_generator.state == per_row.bit_generator.state

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_no_windows_give_an_empty_array(self, noiseless):
        src, chain = CHAINS[0]
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        counts = simulate_window_counts([], src, chain, SchedulerConfig(), rng, noiseless)
        assert counts.shape == (0, 4)
        assert rng.bit_generator.state == state


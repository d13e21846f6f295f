"""Pair source rates, time tags and coincidences."""

import numpy as np
import pytest

from polarlink.polmath import AnalyzerSetting, PolTransform, TwoQubitPolState
from polarlink.source import (
    DetectionChain,
    accidental_rate,
    PairSource,
    SourceError,
    TimeTagStream,
    expected_coincidence_rate,
    find_coincidences,
    generate_timetags,
    port_rates,
)
from tests.test_kernels import brute_force_match


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
        src = PairSource(local_pair_rate=2e5, state=TwoQubitPolState(0.8))
        chain = loss_only_chain()
        a = b = AnalyzerSetting(0.0)
        total = expected_coincidence_rate(src, chain, a, b) + expected_coincidence_rate(
            src, chain, a, b.orthogonal()
        )
        assert total == pytest.approx(1588.66, abs=1.0)

    def test_zero_transmittance_leaves_accidentals(self):
        src = PairSource(state=TwoQubitPolState(1.0))
        chain = DetectionChain(idler_transmittance=0.0, dark_rate=100.0)
        rate = expected_coincidence_rate(src, chain, AnalyzerSetting(0), AnalyzerSetting(0))
        r_s = 0.5 * src.local_pair_rate * chain.signal_efficiency + 100.0
        assert rate == pytest.approx(r_s * 100.0 * chain.coincidence_window)

    def test_crossed_45_port_is_half_of_matched_sum(self):
        # at 45 degrees the fringe term vanishes: the single-port rate is half
        # the matched two-port budget
        src = PairSource(state=TwoQubitPolState(1.0))
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
        src = PairSource(state=TwoQubitPolState(0.6))
        chain = loss_only_chain()
        acc = accidental_rate(src, chain)
        for _ in range(20):
            a = AnalyzerSetting(rng.uniform(0, 180))
            b = AnalyzerSetting(rng.uniform(0, 180))
            t = PolTransform.random(rng)
            rates = port_rates(src, chain, a, b, t)
            budget = src.local_pair_rate * chain.idler_transmittance
            assert rates.sum() - 4.0 * acc == pytest.approx(2.0 * budget, rel=1e-9)


class TestTimeTags:
    def test_stream_rejects_unsorted(self):
        with pytest.raises(SourceError):
            TimeTagStream(np.array([2.0, 1.0]))

    def test_generated_count_near_mean(self):
        s = generate_timetags(1e4, 1.0, np.random.default_rng(3))
        assert abs(len(s.times) - 1e4) < 5 * np.sqrt(1e4)
        assert np.all(np.diff(s.times) >= 0)
        assert s.times[-1] < 1.0


class TestFindCoincidences:
    def test_identical_streams(self):
        s = generate_timetags(1e4, 0.1, np.random.default_rng(5))
        assert find_coincidences(s, s, 1.6e-9) == len(s.times)

    def test_disjoint_streams(self):
        a = TimeTagStream(np.linspace(0, 1e-3, 100))
        b = TimeTagStream(np.linspace(1.0, 1.001, 100))
        assert find_coincidences(a, b, 1.6e-9) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = TimeTagStream(np.sort(rng.uniform(0, 1e-3, 1000)))
        b = TimeTagStream(np.sort(rng.uniform(0, 1e-3, 1000)))
        window = 4e-6
        assert find_coincidences(a, b, window) == brute_force_match(
            a.times, b.times, window / 2
        )

    def test_swap_symmetry_with_negated_delay(self):
        # with at most one partner per window the matching is a bijection, so
        # swapping the streams while negating the delay preserves the count
        rng = np.random.default_rng(6)
        base = np.arange(500) * 1e-5
        a = TimeTagStream(base + rng.uniform(-1e-7, 1e-7, 500))
        keep = rng.random(500) < 0.8
        b = TimeTagStream((base + rng.uniform(-1e-7, 1e-7, 500))[keep])
        delay = 1.3e-7
        n = find_coincidences(a, b, 1e-6, delay)
        assert n == find_coincidences(b, a, 1e-6, -delay)
        assert 0 < n <= keep.sum()

    def test_invariant_under_common_shift(self):
        # the fixed-delay timing link adds the same offset to both streams
        rng = np.random.default_rng(7)
        a = TimeTagStream(np.sort(rng.uniform(0, 1e-4, 300)))
        b = TimeTagStream(np.sort(rng.uniform(0, 1e-4, 300)))
        n0 = find_coincidences(a, b, 1e-6, 2e-7)
        n1 = find_coincidences(
            TimeTagStream(a.times + 0.5), TimeTagStream(b.times + 0.5), 1e-6, 2e-7
        )
        assert n0 == n1

    def test_recovers_delay(self):
        rng = np.random.default_rng(8)
        a = generate_timetags(1e5, 1e-2, rng)
        b = TimeTagStream(a.times + 3.7e-6)
        assert find_coincidences(a, b, 1.6e-9, relative_delay=3.7e-6) == len(a.times)
        assert find_coincidences(a, b, 1.6e-9, relative_delay=0.0) < len(a.times) / 10

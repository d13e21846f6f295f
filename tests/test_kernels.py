"""Correctness of the rotation walk kernel, and of the coincidence matcher
that acceptance criterion 4 runs (``tests.oracles.greedy_match``)."""

import math

import numpy as np
import pytest

from polarlink import _kernels
from polarlink.polmath import quaternion_matrix
from tests.oracles import IDENTITY_QUAT, greedy_match, haar_quat, matrix, per_step_walk


def _random_walk_inputs(seed, n):
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.normal(0.0, 0.05, n)
    return axes.tolist(), angles.tolist()


def brute_force_match(ref, tags, half_window):
    """O(n^2) oracle: same greedy-nearest semantics as ``greedy_match``."""
    used = [False] * len(ref)
    count = 0
    for t in tags:
        best, dist = None, np.inf
        for i, r in enumerate(ref):
            if used[i]:
                continue
            d = abs(t - r)
            if d < dist:
                best, dist = i, d
        if best is not None and dist <= half_window:
            used[best] = True
            count += 1
    return count


def scan_match(ref_times, tag_times, half_window):
    """The matcher's former loop: each tag scans past every used reference."""
    ref, n = ref_times.tolist(), len(ref_times)
    used = [False] * n
    count = 0
    for t, r in zip(tag_times.tolist(), np.searchsorted(ref_times, tag_times).tolist()):
        left = r - 1
        while left >= 0 and used[left]:
            left -= 1
        right = r
        while right < n and used[right]:
            right += 1
        dl = t - ref[left] if left >= 0 else math.inf
        dr = ref[right] - t if right < n else math.inf
        best, dist = (left, dl) if dl <= dr else (right, dr)
        if dist <= half_window:
            used[best] = True
            count += 1
    return count


def flat_draws(axes, angles) -> list:
    """The draws of steps by ``angles`` about ``axes``, as ``rotation_walk``
    reads them: x, y, z, angle of each step in turn."""
    return [v for axis, angle in zip(axes, angles) for v in (*axis, angle)]


def walk(q, axes, angles, sample_stride=0):
    """``rotation_walk`` by ``angles`` about ``axes``, at scales of 1.0,
    whose products are the angles bit for bit."""
    return _kernels.rotation_walk(q, flat_draws(axes, angles), [1.0] * len(angles), sample_stride)


class TestRotationWalk:
    def test_identity_on_empty_walk(self):
        q, samples = _kernels.rotation_walk(IDENTITY_QUAT, [], [])
        assert q == IDENTITY_QUAT
        assert samples == []

    def test_stays_unit_over_a_long_walk(self):
        # 10^5 steps at the day rate's 0.1 s step: the norm drifts by rounding only
        rng = np.random.default_rng(0)
        axes = rng.standard_normal((10**5, 3)).tolist()
        angles = rng.normal(0.0, 0.036, 10**5).tolist()
        q, _ = walk(IDENTITY_QUAT, axes, angles)
        assert abs(math.fsum(c * c for c in q) - 1.0) < 1e-12
        r = matrix(q)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_sampling_matches_final(self):
        axes, angles = _random_walk_inputs(1, 300)
        q, samples = walk(IDENTITY_QUAT, axes, angles, sample_stride=50)
        assert len(samples) == 6
        assert samples[-1] == q
        q, samples = walk(IDENTITY_QUAT, axes, angles, sample_stride=70)
        assert len(samples) == 4 and samples[-1] != q  # 20 steps follow the last sample

    def test_within_1e13_of_the_per_step_matrix_walk(self):
        # 300 walks from random starts, with random lengths, step sizes and
        # strides, and some zero and signed-zero angles
        rng = np.random.default_rng(20)
        sampled = worst = 0
        for _ in range(300):
            start = haar_quat(rng)
            n = int(rng.integers(0, 80))
            axes = rng.standard_normal((n, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            angles = rng.normal(0.0, rng.choice([1e-4, 0.05, 1.0]), n)
            angles[rng.random(n) < 0.1] = 0.0
            angles[rng.random(n) < 0.1] = -0.0
            stride = int(rng.integers(0, 8))
            q, samples = walk(start, axes.tolist(), angles.tolist(), stride)
            r_oracle, samples_oracle = per_step_walk(matrix(start), axes, angles, stride)
            worst = max(worst, np.abs(matrix(q) - r_oracle).max())
            assert len(samples) == len(samples_oracle)
            if samples:
                stack = quaternion_matrix(*np.array(samples).T)
                worst = max(worst, np.abs(stack - samples_oracle).max())
            sampled += len(samples)
        assert worst < 1e-13
        assert sampled > 1000

    def test_per_step_scales_within_1e13_of_the_per_step_matrix_walk(self):
        # raw stream normals, the axes unnormalised, with scales that vary per
        # step as across a rate edge: step i turns by a * scales[i]
        rng = np.random.default_rng(21)
        sampled = worst = 0
        for _ in range(100):
            start = haar_quat(rng)
            n = int(rng.integers(1, 60))
            draws = rng.standard_normal(4 * n)
            scales = np.sqrt(rng.choice([1e-5, 1e-3, 0.05], n) * rng.uniform(0.01, 0.3, n))
            stride = int(rng.integers(0, 6))
            q, samples = _kernels.rotation_walk(start, draws.tolist(), scales.tolist(), stride)
            steps = draws.reshape(n, 4)
            axes = steps[:, :3] / np.linalg.norm(steps[:, :3], axis=1, keepdims=True)
            angles = steps[:, 3] * scales
            r_oracle, samples_oracle = per_step_walk(matrix(start), axes, angles, stride)
            worst = max(worst, np.abs(matrix(q) - r_oracle).max())
            assert len(samples) == len(samples_oracle)
            if samples:
                stack = quaternion_matrix(*np.array(samples).T)
                worst = max(worst, np.abs(stack - samples_oracle).max())
            sampled += len(samples)
        assert worst < 1e-13
        assert sampled > 200

    def test_unnormalized_axes_walk_as_their_directions(self):
        axes, angles = _random_walk_inputs(3, 40)
        lengths = np.random.default_rng(3).uniform(1e-3, 1e3, 40)
        scaled = (np.array(axes) * lengths[:, None]).tolist()
        q, _ = walk(IDENTITY_QUAT, scaled, angles)
        expected, _ = per_step_walk(np.eye(3), axes, angles)
        assert np.abs(matrix(q) - expected).max() < 1e-14

    def test_zero_axis_is_the_identity_step(self):
        # an all-zero draw of the axis normals takes no step, whatever its angle
        axes, angles = _random_walk_inputs(4, 20)
        axes[5] = [0.0, 0.0, 0.0]
        axes[11] = [-0.0, 0.0, -0.0]
        angles[5], angles[11] = 0.7, -2.0
        q, samples = walk(IDENTITY_QUAT, axes, angles, 1)
        assert samples[5] == samples[4] and samples[11] == samples[10]
        kept = [i for i in range(20) if i not in (5, 11)]
        expected, _ = walk(IDENTITY_QUAT, [axes[i] for i in kept], [angles[i] for i in kept])
        assert q == expected


class TestGreedyMatch:
    def test_identical_streams(self):
        t = np.sort(np.random.default_rng(3).uniform(0, 1, 100))
        assert greedy_match(t, t, 1e-9) == 100

    def test_disjoint_streams(self):
        a = np.arange(10.0)
        b = np.arange(10.0) + 100.0
        assert greedy_match(a, b, 0.5) == 0

    def test_tie_goes_to_earlier(self):
        # tag exactly between two refs: the earlier one is consumed
        assert greedy_match(np.array([0.0, 2.0]), np.array([1.0, 1.0]), 1.0) == 2
        # the second tag reaches only the later ref, so a tie to the later one loses it
        a, b = np.array([0.0, 2.0]), np.array([1.0, 2.5])
        assert greedy_match(a, b, 1.0) == brute_force_match(a, b, 1.0) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = np.sort(rng.uniform(0, 1e-3, 200))
        b = np.sort(rng.uniform(0, 1e-3, 180))
        w = 2e-6
        assert greedy_match(a, b, w) == brute_force_match(a, b, w)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_brute_force_on_long_streams(self, seed):
        rng = np.random.default_rng(seed)
        a = np.sort(rng.uniform(0, 1e-3, 1000))
        b = np.sort(rng.uniform(0, 1e-3, 1000))
        assert greedy_match(a, b, 2e-6) == brute_force_match(a, b, 2e-6)

    def test_swap_symmetry_with_negated_delay(self):
        # with at most one partner per window the matching is a bijection, so
        # swapping the streams while negating the idler delay keeps the count
        rng = np.random.default_rng(6)
        base = np.arange(500) * 1e-5
        a = base + rng.uniform(-1e-7, 1e-7, 500)
        keep = rng.random(500) < 0.8
        b = (base + rng.uniform(-1e-7, 1e-7, 500))[keep]
        delay = 1.3e-7
        n = greedy_match(a, b - delay, 5e-7)
        assert n == greedy_match(b, a + delay, 5e-7)
        assert 0 < n <= keep.sum()

    def test_invariant_under_common_shift(self):
        # a fixed-delay timing link adds the same offset to both streams
        rng = np.random.default_rng(7)
        a = np.sort(rng.uniform(0, 1e-4, 300))
        b = np.sort(rng.uniform(0, 1e-4, 300))
        n = greedy_match(a, b - 2e-7, 5e-7)
        assert n == greedy_match(a + 0.5, (b + 0.5) - 2e-7, 5e-7)

    def test_recovers_delay(self):
        # a 10 ms Poisson stream at 1e5 /s on a 1 ps grid, seen 3.7 us later
        rng = np.random.default_rng(8)
        a = np.round(np.cumsum(rng.exponential(1e-5, 1000)) / 1e-12) * 1e-12
        b = a + 3.7e-6
        assert greedy_match(a, b - 3.7e-6, 0.8e-9) == len(a)
        assert greedy_match(a, b, 0.8e-9) < len(a) / 10

    def test_equals_the_per_tag_scan_on_3200_matched_tags(self):
        # common pair times, each tag 50 ps off its own: every reference gets
        # used in turn, so the scan walks past every used one
        rng = np.random.default_rng(2)
        pairs = rng.uniform(0.0, 3200 * 5e-6, 3200)
        ref = np.sort(pairs + rng.normal(0.0, 50e-12, 3200))
        tags = np.sort(pairs + rng.normal(0.0, 50e-12, 3200))
        count = greedy_match(ref, tags, 1e-9)
        assert count == scan_match(ref, tags, 1e-9) > 3000

    @staticmethod
    def matched_streams(rng, n, spacing, jitter=50e-12, lost=0.0, extra=0.0):
        """Two tag streams of ``n`` common pair times, each tag off its pair
        time by normal jitter of standard deviation ``jitter``; each stream
        loses a ``lost`` share of its pair tags and gains an ``extra`` share
        of unpaired ones."""
        span = n * spacing
        pairs = rng.uniform(0.0, span, n)

        def stream():
            tags = pairs + rng.normal(0.0, jitter, n)
            tags = tags[rng.random(n) >= lost]
            return np.sort(np.concatenate([tags, rng.uniform(0.0, span, int(extra * n))]))

        return stream(), stream()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "spacing,half_window",
        [(5e-6, 1e-9), (200e-12, 100e-12), (60e-12, 150e-12)],
        ids=["sparse", "dense", "crowded"],
    )
    def test_matched_streams_against_brute_force(self, seed, spacing, half_window):
        rng = np.random.default_rng(seed)
        for lost, extra in [(0.0, 0.0), (0.1, 0.0), (0.0, 0.15), (0.2, 0.2)]:
            a, b = self.matched_streams(rng, 300, spacing, lost=lost, extra=extra)
            assert greedy_match(a, b, half_window) == brute_force_match(a, b, half_window)

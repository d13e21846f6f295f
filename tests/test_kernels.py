"""Correctness of the hot-loop kernels."""

import numpy as np
import pytest

from polarlink import _kernels


def _random_walk_inputs(seed, n):
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.normal(0.0, 0.05, n)
    return axes, angles


def per_step_walk(rotation, axes, angles, sample_stride=0):
    """Oracle: the walk with one Rodrigues matrix built and applied per step."""
    rotation = np.array(rotation, dtype=np.float64)
    samples = []
    for i, ((x, y, z), angle) in enumerate(zip(axes, angles)):
        c = np.cos(angle)
        s = np.sin(angle)
        t = 1.0 - c
        step = np.array(
            [
                [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
                [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
                [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
            ]
        )
        rotation = step @ rotation
        if sample_stride > 0 and (i + 1) % sample_stride == 0:
            samples.append(rotation.copy())
    return rotation, np.array(samples).reshape(len(samples), 3, 3)


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


def nine_entry_matrices(axes, angles):
    """Oracle: ``per_step_walk``'s nine Rodrigues expressions, one array each."""
    x, y, z = axes.T
    c = np.cos(angles)
    s = np.sin(angles)
    t = 1.0 - c
    entries = [
        [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
        [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
        [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
    ]
    return np.moveaxis(np.array(entries), -1, 0)


class TestAxisAngleMatrices:
    def test_bit_equal_to_nine_expressions(self):
        rng = np.random.default_rng(21)
        for n in [0, 1, 2, 10, 30, 800]:
            axes = rng.standard_normal((n, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            angles = rng.normal(0.0, rng.choice([1e-9, 0.05, 1.0, 10.0]), n)
            if n >= 10:
                angles[:4] = [0.0, -0.0, 0.0, -0.0]  # a zero-rate walk: signed zero angles
                axes[2:6] = 0.0  # the zero axis of an all-zero draw
                axes[6] = [0.0, -0.0, 1.0]
            m = _kernels._axis_angle_matrices(axes, angles)
            expected = nine_entry_matrices(axes, angles)
            assert m.shape == (n, 3, 3)
            assert np.array_equal(m, expected)
            assert np.array_equal(np.signbit(m), np.signbit(expected))


class TestRotationWalk:
    def test_identity_on_empty_walk(self):
        r, samples = _kernels.rotation_walk(np.eye(3), np.empty((0, 3)), np.empty(0))
        assert np.allclose(r, np.eye(3))
        assert samples.shape == (0, 3, 3)

    def test_unsampled_walk_shares_one_read_only_empty_array(self):
        axes, angles = _random_walk_inputs(2, 5)
        _, a = _kernels.rotation_walk(np.eye(3), axes, angles)
        _, b = _kernels.rotation_walk(np.eye(3), axes[:2], angles[:2], 0)
        assert a is b and a.shape == (0, 3, 3) and not a.flags.writeable

    def test_stays_orthogonal(self):
        axes, angles = _random_walk_inputs(0, 500)
        r, _ = _kernels.rotation_walk(np.eye(3), axes, angles)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_sampling_matches_final(self):
        axes, angles = _random_walk_inputs(1, 300)
        r, samples = _kernels.rotation_walk(np.eye(3), axes, angles, sample_stride=50)
        assert samples.shape == (6, 3, 3)
        assert np.allclose(samples[-1], r)

    def test_bit_equal_to_per_step_walk(self):
        # 300 walks from random starts, with random lengths, step sizes and strides
        rng = np.random.default_rng(20)
        sampled = 0
        for _ in range(300):
            start = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            n = int(rng.integers(0, 80))
            axes = rng.standard_normal((n, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            angles = rng.normal(0.0, rng.choice([1e-4, 0.05, 1.0]), n)
            stride = int(rng.integers(0, 8))
            r, samples = _kernels.rotation_walk(start, axes, angles, stride)
            r_oracle, samples_oracle = per_step_walk(start, axes, angles, stride)
            assert np.array_equal(r, r_oracle)
            assert samples.shape == samples_oracle.shape
            assert np.array_equal(samples, samples_oracle)
            sampled += len(samples)
        assert sampled > 1000


class TestGreedyMatch:
    def test_identical_streams(self):
        t = np.sort(np.random.default_rng(3).uniform(0, 1, 100))
        assert _kernels.greedy_match(t, t, 1e-9) == 100

    def test_disjoint_streams(self):
        a = np.arange(10.0)
        b = np.arange(10.0) + 100.0
        assert _kernels.greedy_match(a, b, 0.5) == 0

    def test_tie_goes_to_earlier(self):
        # tag exactly between two refs: the earlier one is consumed
        assert _kernels.greedy_match(np.array([0.0, 2.0]), np.array([1.0, 1.0]), 1.0) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = np.sort(rng.uniform(0, 1e-3, 200))
        b = np.sort(rng.uniform(0, 1e-3, 180))
        w = 2e-6
        assert _kernels.greedy_match(a, b, w) == brute_force_match(a, b, w)

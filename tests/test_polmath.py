"""Stokes calculus, transforms, the Jones-path oracle and CHSH expectations."""

import numpy as np
import pytest

from polarlink.apc import Controller, measure_fidelities
from polarlink.polmath import (
    CANONICAL_CHSH_ANGLES,
    AnalyzerSetting,
    PolarizationError,
    PolTransform,
    coincidence_probs,
)
from tests.oracles import coincidence_prob, density_matrix, fidelity_cost, haar_rotation, quat_of


def fidelities(rotation):
    """SOP fidelity (1 + s.Rs)/2 of each cardinal state s through ``rotation``."""
    return measure_fidelities(quat_of(rotation), Controller())


def rotation_about_s3(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestSopFidelity:
    # in the order H, V, D, A, R, L
    def test_identical_states(self):
        assert np.allclose(fidelities(np.eye(3)), 1.0, atol=1e-12)

    def test_orthogonal_states(self):
        # half turn about s3: H -> V and D -> A, the circular states stay
        f = fidelities(rotation_about_s3(np.pi))
        assert np.allclose(f, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0], atol=1e-12)

    def test_95_percent_at_25p84_degrees(self):
        # F = (1 + cos theta)/2 inverted at 0.95 gives 25.84 degrees
        f = fidelities(rotation_about_s3(np.deg2rad(25.84)))
        assert np.allclose(f[:4], 0.95, atol=1e-4)

    def test_symmetry(self):
        # s.Rs = s.R^T s: a rotation and its inverse keep each state equally well
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = haar_rotation(rng)
            assert np.allclose(fidelities(r), fidelities(r.T), atol=1e-12)

    def test_unitary_invariance(self):
        # the mean over the six cardinal states is (1 + tr(R)/3)/2, which a
        # change of frame T R T^T leaves unchanged
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = haar_rotation(rng)
            r = haar_rotation(rng)
            expected = fidelity_cost(fidelities(r))
            assert fidelity_cost(fidelities(t @ r @ t.T)) == pytest.approx(expected, abs=1e-9)


class TestPolTransform:
    def test_closure_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = (haar_rotation(rng) @ haar_rotation(rng)).T
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_improper_rotation(self):
        with pytest.raises(PolarizationError):
            PolTransform(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal_matrix(self):
        with pytest.raises(PolarizationError, match="orthogonal"):
            PolTransform(np.diag([1.0, 2.0, 0.5]))  # det 1, but a stretch


class TestRandomTransform:
    def test_deterministic_for_fixed_seed(self):
        r1 = haar_rotation(np.random.default_rng(42))
        r2 = haar_rotation(np.random.default_rng(42))
        assert np.array_equal(r1, r2)

    def test_haar_uniformity(self):
        # mean image of a fixed vector under Haar rotations is the origin
        rng = np.random.default_rng(12)
        n = 10_000
        imgs = np.array([haar_rotation(rng) @ [1.0, 0.0, 0.0] for _ in range(n)])
        assert np.all(np.abs(imgs.mean(axis=0)) < 3.0 / np.sqrt(n))


class TestDensityMatrix:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_density_matrix_valid(self, v):
        rho = density_matrix(v)
        assert np.allclose(rho, rho.conj().T)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


class TestAnalyzerSetting:
    def test_angle_reduced_mod_180(self):
        assert AnalyzerSetting(190.0).angle_deg == pytest.approx(10.0)
        assert AnalyzerSetting(-45.0).angle_deg == pytest.approx(135.0)


class TestCoincidenceProb:
    def test_matched_max(self):
        assert coincidence_prob(1.0, AnalyzerSetting(0), AnalyzerSetting(0)) == pytest.approx(0.5)

    def test_crossed_45(self):
        p = coincidence_prob(1.0, AnalyzerSetting(0), AnalyzerSetting(45))
        assert p == pytest.approx(0.25)

    def test_v08_matched(self):
        # density-matrix projection must agree with (1 + 0.8)/4
        p = coincidence_prob(0.8, AnalyzerSetting(30), AnalyzerSetting(30))
        assert p == pytest.approx(0.45, abs=1e-12)

    def test_closed_form_oracle_identity_channel(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = rng.uniform()
            a, b = rng.uniform(0, 180, 2)
            p = coincidence_prob(v, AnalyzerSetting(a), AnalyzerSetting(b))
            expected = (1 + v * np.cos(2 * np.deg2rad(a - b))) / 4
            assert p == pytest.approx(expected, abs=1e-9)

    def test_stokes_path_matches_jones_path_random_channels(self):
        # every port of a batch of windows, as the sampler computes them
        rng = np.random.default_rng(14)
        for _ in range(10):
            v = rng.uniform()
            a = [AnalyzerSetting(x) for x in rng.uniform(0, 180, 10)]
            b = [AnalyzerSetting(y) for y in rng.uniform(0, 180, 10)]
            r = np.array([haar_rotation(rng) for _ in range(10)])
            a_pairs = np.array([x.stokes_pair() for x in a])
            b_pairs = np.array([y.stokes_pair() for y in b])
            stokes = coincidence_probs(v, r, a_pairs, b_pairs)
            for k in range(10):
                jones = [
                    coincidence_prob(v, x, y, r[k])
                    for x in (a[k], a[k].orthogonal())
                    for y in (b[k], b[k].orthogonal())
                ]
                assert np.abs(stokes[k] - jones).max() < 1e-9

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            v = rng.uniform()
            a = AnalyzerSetting(rng.uniform(0, 180))
            b = AnalyzerSetting(rng.uniform(0, 180))
            r = haar_rotation(rng)
            total = sum(
                coincidence_prob(v, x, y, r)
                for x in (a, a.orthogonal())
                for y in (b, b.orthogonal())
            )
            assert total == pytest.approx(1.0, abs=1e-9)


def chsh(visibility, a, a_prime, b, b_prime):
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from the Jones-picture oracle."""

    def e(x, y):
        return sum(
            sign * coincidence_prob(visibility, x2, y2)
            for sign, x2, y2 in (
                (1, x, y),
                (1, x.orthogonal(), y.orthogonal()),
                (-1, x, y.orthogonal()),
                (-1, x.orthogonal(), y),
            )
        )

    return e(a, b) - e(a, b_prime) + e(a_prime, b) + e(a_prime, b_prime)


class TestChsh:
    def test_tsirelson(self):
        s = chsh(1.0, *CANONICAL_CHSH_ANGLES)
        assert s == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_v08_gives_2p263(self):
        s = chsh(0.8, *CANONICAL_CHSH_ANGLES)
        assert s == pytest.approx(2.263, abs=5e-4)

    def test_separable_gives_zero(self):
        angles = [AnalyzerSetting(a) for a in (17.0, 61.0, 5.0, 140.0)]
        s = chsh(0.0, *angles)
        assert s == pytest.approx(0.0, abs=1e-12)

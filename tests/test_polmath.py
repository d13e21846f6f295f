"""Stokes calculus, transforms, two-qubit state and CHSH expectations."""

import numpy as np
import pytest

from polarlink import polmath as pm
from polarlink.apc import Controller, cost, measure_fidelities
from polarlink.polmath import (
    CANONICAL_CHSH_ANGLES,
    AnalyzerSetting,
    PolarizationError,
    PolTransform,
    StokesVector,
    TwoQubitPolState,
    coincidence_prob,
    coincidence_prob_stokes,
)
from tests.oracles import quat_of

H = pm.H


class TestStokesVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(PolarizationError):
            StokesVector(1.0, 1.0, 0.0)

    def test_accepts_unit(self):
        s = StokesVector(0.6, 0.8, 0.0)
        assert s.norm() == pytest.approx(1.0)


def fidelities(rotation):
    """SOP fidelity (1 + s.Rs)/2 of each cardinal state s through ``rotation``."""
    return measure_fidelities(quat_of(PolTransform(rotation).rotation), Controller())


def rotation_about_s3(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestSopFidelity:
    # H, V, D, A, R, L in the order of pm.CARDINAL_STATES
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
            r = PolTransform.random(rng).rotation
            assert np.allclose(fidelities(r), fidelities(r.T), atol=1e-12)

    def test_unitary_invariance(self):
        # the mean over the six cardinal states is (1 + tr(R)/3)/2, which a
        # change of frame T R T^T leaves unchanged
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = PolTransform.random(rng).rotation
            r = PolTransform.random(rng).rotation
            assert cost(fidelities(t @ r @ t.T)) == pytest.approx(cost(fidelities(r)), abs=1e-9)


class TestPolTransform:
    def test_identity_apply(self):
        t = PolTransform.identity()
        for s in pm.CARDINAL_STATES:
            assert np.allclose(t.rotation @ s.as_array(), s.as_array())

    def test_closure_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = (PolTransform.random(rng).rotation @ PolTransform.random(rng).rotation).T
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
        t1 = PolTransform.random(np.random.default_rng(42))
        t2 = PolTransform.random(np.random.default_rng(42))
        assert np.allclose(t1.rotation, t2.rotation)

    def test_haar_uniformity(self):
        # mean image of a fixed vector under Haar rotations is the origin
        rng = np.random.default_rng(12)
        n = 10_000
        imgs = np.array([PolTransform.random(rng).rotation @ H.as_array() for _ in range(n)])
        assert np.all(np.abs(imgs.mean(axis=0)) < 3.0 / np.sqrt(n))


class TestTwoQubitPolState:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_density_matrix_valid(self, v):
        rho = TwoQubitPolState(v).density_matrix()
        assert np.allclose(rho, rho.conj().T)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


class TestAnalyzerSetting:
    def test_angle_reduced_mod_180(self):
        assert AnalyzerSetting(190.0).angle_deg == pytest.approx(10.0)
        assert AnalyzerSetting(-45.0).angle_deg == pytest.approx(135.0)


class TestCoincidenceProb:
    def test_matched_max(self):
        st = TwoQubitPolState(1.0)
        assert coincidence_prob(st, AnalyzerSetting(0), AnalyzerSetting(0)) == pytest.approx(0.5)

    def test_crossed_45(self):
        st = TwoQubitPolState(1.0)
        p = coincidence_prob(st, AnalyzerSetting(0), AnalyzerSetting(45))
        assert p == pytest.approx(0.25)

    def test_v08_matched(self):
        # density-matrix projection must agree with (1 + 0.8)/4
        st = TwoQubitPolState(0.8)
        p = coincidence_prob(st, AnalyzerSetting(30), AnalyzerSetting(30))
        assert p == pytest.approx(0.45, abs=1e-12)

    def test_closed_form_oracle_identity_channel(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = rng.uniform()
            a, b = rng.uniform(0, 180, 2)
            st = TwoQubitPolState(v)
            p = coincidence_prob(st, AnalyzerSetting(a), AnalyzerSetting(b))
            expected = (1 + v * np.cos(2 * np.deg2rad(a - b))) / 4
            assert p == pytest.approx(expected, abs=1e-9)

    def test_stokes_path_matches_jones_path_random_channels(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            st = TwoQubitPolState(rng.uniform())
            a = AnalyzerSetting(rng.uniform(0, 180))
            b = AnalyzerSetting(rng.uniform(0, 180))
            t = PolTransform.random(rng)
            assert coincidence_prob(st, a, b, t) == pytest.approx(
                coincidence_prob_stokes(st, a, b, t), abs=1e-9
            )

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            st = TwoQubitPolState(rng.uniform())
            a = AnalyzerSetting(rng.uniform(0, 180))
            b = AnalyzerSetting(rng.uniform(0, 180))
            t = PolTransform.random(rng)
            total = sum(
                coincidence_prob(st, x, y, t)
                for x in (a, a.orthogonal())
                for y in (b, b.orthogonal())
            )
            assert total == pytest.approx(1.0, abs=1e-9)


def chsh(state, a, a_prime, b, b_prime):
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from the Jones-picture oracle."""

    def e(x, y):
        return sum(
            sign * coincidence_prob(state, x2, y2)
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
        s = chsh(TwoQubitPolState(1.0), *CANONICAL_CHSH_ANGLES)
        assert s == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_v08_gives_2p263(self):
        s = chsh(TwoQubitPolState(0.8), *CANONICAL_CHSH_ANGLES)
        assert s == pytest.approx(2.263, abs=5e-4)

    def test_separable_gives_zero(self):
        angles = [AnalyzerSetting(a) for a in (17.0, 61.0, 5.0, 140.0)]
        s = chsh(TwoQubitPolState(0.0), *angles)
        assert s == pytest.approx(0.0, abs=1e-12)

"""The numpy rotations against scipy's, and the package without scipy.

scipy is a test-only dependency.  The Haar draw is pinned to scipy's
``Rotation`` bit for bit, so every seed draws the rotation it drew when the
package computed it with scipy; the controller, a product of quaternions,
agrees with scipy's to 1e-15.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import polarlink
from polarlink.apc import Controller
from tests.oracles import PAULI, controller_matrix, haar_rotation, su2_from_rotation


def test_controller_within_1e15_of_scipy():
    rng = np.random.default_rng(2024)
    # half large angles (several turns), half near the zero start of a descent
    params = np.vstack([rng.normal(0.0, 3.0, (5000, 4)), rng.uniform(-0.1, 0.1, (5000, 4))])
    for p in [np.zeros(4), *params]:
        ctrl = Controller(p)
        assert np.abs(ctrl.to_transform().rotation - controller_matrix(p)).max() <= 1e-15, p
        theirs = Rotation.from_euler("xzx", p[:3]) * Rotation.from_euler("z", p[3])
        assert np.abs(np.array(ctrl.quat) - theirs.as_quat()).max() <= 1e-15, p


def test_haar_draw_matches_scipy_bit_for_bit():
    for seed in range(1000):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        r = haar_rotation(ours)
        # positional: older scipy names the generator random_state, newer rng
        assert np.array_equal(r, Rotation.random(None, theirs).as_matrix()), seed
        # the same draws were taken, so the generators continue alike
        assert np.array_equal(ours.normal(size=4), theirs.normal(size=4)), seed


def half_turn(axis):
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return 2.0 * np.outer(n, n) - np.eye(3)


SU2_CASES = {
    "identity": np.eye(3),
    "half_turn_x": half_turn([1, 0, 0]),
    "half_turn_y": half_turn([0, 1, 0]),
    "half_turn_z": half_turn([0, 0, 1]),
    "half_turn_xy": half_turn([1, 1, 0]),
}


def pauli(v):
    return np.tensordot(v, PAULI, axes=1)


def assert_lift(r):
    u = su2_from_rotation(r)
    assert abs(np.linalg.det(u) - 1.0) < 1e-12
    for n in np.eye(3):
        # U (n . sigma) U^dagger = (R n) . sigma
        assert np.abs(u @ pauli(n) @ u.conj().T - pauli(r @ n)).max() < 1e-12


@pytest.mark.parametrize("name", SU2_CASES)
def test_su2_lift_at_identity_and_half_turns(name):
    assert_lift(SU2_CASES[name])


def test_su2_lift_of_haar_draws():
    rng = np.random.default_rng(77)
    for _ in range(2000):
        assert_lift(haar_rotation(rng))


def test_package_runs_without_scipy(tmp_path):
    # scipy stays installed for the tests; None in sys.modules blocks its import
    config = Path(__file__).resolve().parents[1] / "configs" / "fringe_burst.yaml"
    argv = ["fringe", "--config", str(config), "--out", str(tmp_path)]
    script = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None",
            f"sys.path.insert(0, {str(Path(polarlink.__file__).parents[1])!r})",
            "from polarlink import cli",
            f"sys.exit(cli.main({argv!r}))",
        ]
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "chsh.json").exists()

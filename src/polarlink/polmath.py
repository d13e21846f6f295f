"""Polarization math on the Poincare sphere.

Pure states of polarization are unit Stokes vectors (s1, s2, s3); lossless
fiber and controller transformations act on them as proper rotations, which
the package carries as unit quaternions (x, y, z, w).  The two-photon state
is a mixture V |Phi+><Phi+| + (1 - V) I/4 of visibility V, which is all the
link-level observables (fringe visibility, CHSH S) depend on.

Convention: s1 <-> H/V, s2 <-> D/A, s3 <-> R/L.  A linear analyzer at angle
theta (degrees from H) projects onto the Stokes direction
(cos 2theta, sin 2theta, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MATRIX_TOL = 1e-9

# Correlation matrix of |Phi+> for linear analyzers: E(a, b) = n_a . T . n_b.
_PHI_PLUS_T = np.diag([1.0, 1.0, -1.0])


class PolarizationError(ValueError):
    """A matrix that is not a proper rotation."""


@dataclass(frozen=True)
class PolTransform:
    """Lossless polarization transformation: a proper rotation of Stokes space."""

    rotation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise PolarizationError(f"rotation must be 3x3, got {r.shape}")
        if not np.allclose(r @ r.T, np.eye(3), atol=_MATRIX_TOL):
            raise PolarizationError("rotation is not orthogonal")
        if abs(np.linalg.det(r) - 1.0) > _MATRIX_TOL:
            raise PolarizationError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)

    @classmethod
    def trusted(cls, r: np.ndarray) -> "PolTransform":
        """Wrap a float 3x3 rotation that the package built itself, unchecked.

        Skips the orthogonality and determinant checks of the constructor, for
        the matrix of a controller's quaternion (``Controller.to_transform``).
        """
        t = object.__new__(cls)
        object.__setattr__(t, "rotation", r)
        return t


def quaternion_matrix(x, y, z, w) -> np.ndarray:
    """Matrix of the unit quaternion (x, y, z, w), term for term as tests/test_rotations.py pins.

    Given arrays of components, the (..., 3, 3) stack of their matrices,
    each entry rounded as for scalars.
    """
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    m = np.array(
        [
            [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
        ]
    )
    return np.moveaxis(m, (0, 1), (-2, -1))


def compose_quat(p, q) -> tuple:
    """Quaternion (x, y, z, w) of rotation ``q`` then ``p``: the product p q."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    return (
        pw * qx + qw * px + (py * qz - pz * qy),
        pw * qy + qw * py + (pz * qx - px * qz),
        pw * qz + qw * pz + (px * qy - py * qx),
        pw * qw - px * qx - py * qy - pz * qz,
    )


@dataclass(frozen=True)
class AnalyzerSetting:
    """Linear-polarization analyzer angle in degrees, reduced modulo 180."""

    angle_deg: float

    def __post_init__(self):
        object.__setattr__(self, "angle_deg", float(self.angle_deg) % 180.0)

    def stokes(self) -> np.ndarray:
        two_theta = 2.0 * np.deg2rad(self.angle_deg)
        return np.array([np.cos(two_theta), np.sin(two_theta), 0.0])

    def orthogonal(self) -> "AnalyzerSetting":
        return AnalyzerSetting(self.angle_deg + 90.0)

    def stokes_pair(self) -> np.ndarray:
        """(2, 3): the Stokes vectors of this setting and of its orthogonal."""
        return np.array([self.stokes(), self.orthogonal().stokes()])


def coincidence_probs(
    visibility: float, rotations: np.ndarray, a_pairs: np.ndarray, b_pairs: np.ndarray
) -> np.ndarray:
    """Port coincidence probabilities of W windows in one whole-array pass.

    ``rotations`` is the (W, 3, 3) stack of idler rotations, ``a_pairs`` and
    ``b_pairs`` the (W, 2, 3) stacks of each window's signal and idler
    ``AnalyzerSetting.stokes_pair``.  Returns (W, 4) probabilities in port
    order (pp, pf, fp, ff), each (1 + V * n_a . T . R^T n_b) / 4 clipped to
    [0, 1].
    """
    corr = (a_pairs @ _PHI_PLUS_T) @ (rotations.transpose(0, 2, 1) @ b_pairs.transpose(0, 2, 1))
    p = 0.25 * (1.0 + visibility * corr.reshape(-1, 4))
    return np.clip(p, 0.0, 1.0)


CANONICAL_CHSH_ANGLES = (
    AnalyzerSetting(0.0),
    AnalyzerSetting(45.0),
    AnalyzerSetting(22.5),
    AnalyzerSetting(67.5),
)

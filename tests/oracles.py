"""Matrix oracles of the quaternion core, and quaternion helpers for the tests.

The package walks the channel and composes the controller as unit
quaternions (x, y, z, w) in Python floats.  These oracles do the same in
3x3 rotation matrices, one Rodrigues matrix per step, as the package did
before, so the tests can bound the difference.
"""

import math

import numpy as np
from scipy.spatial.transform import Rotation

from polarlink.polmath import quaternion_matrix

IDENTITY_QUAT = (0.0, 0.0, 0.0, 1.0)


def rodrigues(axis, angle):
    """Rotation matrix by ``angle`` about the unit ``axis``; the identity for a zero axis."""
    x, y, z = axis
    if x == y == z == 0.0:
        return np.eye(3)
    c, s = np.cos(angle), np.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
            [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
            [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
        ]
    )


def per_step_walk(rotation, axes, angles, sample_stride=0):
    """Oracle of ``rotation_walk``: one Rodrigues matrix built and applied per step.

    ``axes`` must be unit vectors or zero.  Returns (final rotation, (k, 3, 3)
    samples after every ``sample_stride`` steps).
    """
    rotation = np.array(rotation, dtype=np.float64)
    samples = []
    for i, (axis, angle) in enumerate(zip(axes, angles)):
        rotation = rodrigues(axis, angle) @ rotation
        if sample_stride > 0 and (i + 1) % sample_stride == 0:
            samples.append(rotation.copy())
    return rotation, np.array(samples).reshape(len(samples), 3, 3)


def matrix(q):
    """The 3x3 rotation matrix of quaternion ``q``."""
    return quaternion_matrix(*q)


def quat_of(rotation) -> tuple:
    """A unit quaternion (x, y, z, w) of the 3x3 ``rotation``, in Python floats."""
    return tuple(Rotation.from_matrix(rotation).as_quat().tolist())


def haar_quat(rng: np.random.Generator) -> tuple:
    """A Haar-random unit quaternion, from the draws ``PolTransform.random`` takes."""
    x, y, z, w = rng.normal(size=4).tolist()
    n = math.sqrt(x * x + y * y + z * z + w * w)
    return x / n, y / n, z / n, w / n


def controller_matrix(params):
    """Oracle of ``Controller``: Rx(p2) Rz(p1) Rx(p0) Rz(p3) as a product of scipy's matrices."""
    retarders = Rotation.from_euler("xzx", params[:3]).as_matrix()
    return retarders @ Rotation.from_euler("z", params[3]).as_matrix()

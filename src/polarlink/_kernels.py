"""Hot loops of the simulator: the channel's rotation walk and the tag matcher."""

from math import cos, inf, sin, sqrt

import numpy as np


def rotation_walk(q, axes, angles, sample_stride=0):
    """Compose a sequence of small rotations onto the unit quaternion ``q``.

    Quaternions are (x, y, z, w) tuples of Python floats.  Step i rotates by
    ``angles[i]`` about the direction ``axes[i]``, an (x, y, z) triple of any
    length, on the left (new = step * old); a zero direction is the identity
    step.  If ``sample_stride`` > 0, the accumulated quaternion is recorded
    after every ``sample_stride`` steps.  Lists of floats walk fastest.

    Returns (final quaternion, list of sampled quaternions).
    """
    if sample_stride <= 0:
        return _compose_steps(q, axes, angles), []
    samples = []
    end = len(angles) - len(angles) % sample_stride
    for i in range(0, end, sample_stride):
        q = _compose_steps(q, axes[i : i + sample_stride], angles[i : i + sample_stride])
        samples.append(q)
    return _compose_steps(q, axes[end:], angles[end:]), samples


def _compose_steps(q, axes, angles) -> tuple:
    """``q`` after the steps of ``rotation_walk``, each the quaternion (k sin θ/2, cos θ/2)."""
    qx, qy, qz, qw = q
    for (x, y, z), angle in zip(axes, angles):
        norm = sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            continue
        half = 0.5 * angle
        c = cos(half)
        s = sin(half) / norm
        x, y, z = x * s, y * s, z * s
        qx, qy, qz, qw = (
            c * qx + qw * x + (y * qz - z * qy),
            c * qy + qw * y + (z * qx - x * qz),
            c * qz + qw * z + (x * qy - y * qx),
            c * qw - x * qx - y * qy - z * qz,
        )
    return qx, qy, qz, qw


def greedy_match(ref_times, tag_times, half_window):
    """Count matches of ``tag_times`` against ``ref_times``.

    Both arrays must be sorted ascending.  Tags are processed in time order;
    each tag is matched to the nearest still-unused reference time within
    ``half_window`` (ties go to the earlier reference).  Each reference is
    used at most once.  Used references are skipped through "nearest unused
    reference" pointers under path halving, in amortised near-constant time.
    """
    ref_times = np.asarray(ref_times, dtype=np.float64)
    tag_times = np.asarray(tag_times, dtype=np.float64)
    n = ref_times.shape[0]
    right_of = np.searchsorted(ref_times, tag_times).tolist()
    ref = ref_times.tolist()
    # Slot i of ``below`` leads to the nearest unused reference under index
    # i (slot 0: none); slot i of ``above`` to the nearest unused one at or
    # over index i (slot n: none).
    below = list(range(n + 1))
    above = list(range(n + 1))
    count = 0
    for t, r in zip(tag_times.tolist(), right_of):
        left = _root(below, r) - 1
        right = _root(above, r)
        dl = t - ref[left] if left >= 0 else inf
        dr = ref[right] - t if right < n else inf
        if dl <= dr:
            best, dist = left, dl
        else:
            best, dist = right, dr
        if dist <= half_window:
            below[best + 1] = best
            above[best] = best + 1
            count += 1
    return count


def _root(parent: list, i: int) -> int:
    """The slot that ``i`` leads to, halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i

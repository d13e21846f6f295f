"""The simulator's hot loop: the channel's rotation walk."""

from math import cos, sin, sqrt


def rotation_walk(q, draws, scales, sample_stride=0):
    """Compose a sequence of small rotations onto the unit quaternion ``q``.

    Quaternions are (x, y, z, w) tuples of Python floats.  Step i reads
    ``draws[4i:4i + 4]`` = (x, y, z, a), the normals as the channel's stream
    hands them out, and rotates by ``a * scales[i]`` about the direction (x,
    y, z), of any length, on the left (new = step * old); a zero direction
    is the identity step.  ``scales`` sets the step count.  If
    ``sample_stride`` > 0, the accumulated quaternion is recorded after every
    ``sample_stride`` steps, and both must be sequences; otherwise any
    iterables will do.  Lists of floats walk fastest.

    Returns (final quaternion, list of sampled quaternions).
    """
    if sample_stride <= 0:
        return _compose_steps(q, draws, scales), []
    samples = []
    end = len(scales) - len(scales) % sample_stride
    for i in range(0, end, sample_stride):
        j = i + sample_stride
        q = _compose_steps(q, draws[4 * i : 4 * j], scales[i:j])
        samples.append(q)
    return _compose_steps(q, draws[4 * end :], scales[end:]), samples


def _compose_steps(q, draws, scales) -> tuple:
    """``q`` after the steps of ``rotation_walk``, each the quaternion (k sin θ/2, cos θ/2)."""
    qx, qy, qz, qw = q
    it = iter(draws)
    for x, y, z, a, k in zip(it, it, it, it, scales):
        norm = sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            continue
        half = 0.5 * (a * k)
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

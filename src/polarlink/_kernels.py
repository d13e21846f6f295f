"""The simulator's hot loop: the channel's rotation walk."""

from math import cos, sin, sqrt


def rotation_walk(q, axes, angles, sample_stride=0):
    """Compose a sequence of small rotations onto the unit quaternion ``q``.

    Quaternions are (x, y, z, w) tuples of Python floats.  Step i rotates by
    ``angles[i]`` about the direction ``axes[i]``, an (x, y, z) triple of any
    length, on the left (new = step * old); a zero direction is the identity
    step.  If ``sample_stride`` > 0, the accumulated quaternion is recorded
    after every ``sample_stride`` steps, and ``axes`` must be a sequence;
    otherwise any iterable of triples will do.  Lists of floats walk fastest.

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

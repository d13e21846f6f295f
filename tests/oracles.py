"""Matrix oracles of the quaternion core, and quaternion helpers for the tests.

The package walks the channel and composes the controller as unit
quaternions (x, y, z, w) in Python floats.  These oracles do the same in
3x3 rotation matrices, one Rodrigues matrix per step, as the package did
before, so the tests can bound the difference.  ``haar_rotation`` is the
Haar draw the tests pin to scipy's ``Rotation.random``.  The Jones path
(``su2_from_rotation``, ``density_matrix``, ``jones``,
``coincidence_prob``) computes coincidence probabilities by projecting
the two-photon density matrix, the oracle of the package's closed-form
Stokes path ``polmath.coincidence_probs``.  ``_controller_quat`` and
``_cost_at`` compose the controller from three full ``compose_quat``
products, as the package did before its axis-aligned products, and
``fidelity_cost`` is the cost as one minus the mean of the six fidelities;
``three_product_step`` is the descent step built on them, with its gradient
by central differences, as the package ran it before its closed form.
``loop_longrun_series`` is ``analysis.longrun_series`` as one loop over the
groups, as the package computed it before its whole-array pass, with the
check that each window holds its group place's CHSH setting.
``csv_writer_text`` is what ``csv.writer`` wrote for the package's tables.
``ScriptedDraws`` stands in for a generator whose normals a test picks.
``loop_constant_rate`` is ``DriftSchedule.constant_rate`` with its bursts
checked one by one, as the package did before its sorted burst edges, and
``array_rate_at`` is ``DriftSchedule.rate_at`` over an array of times, as
the package computed per-step rates before its scalar lookup.
``greedy_match`` is the windowed coincidence matcher of acceptance
criterion 4, which no run of the package reaches since it counts rates, not
time tags.
"""

import csv
import io
import math
from bisect import bisect_right
from functools import reduce
from operator import add

import numpy as np
from scipy.spatial.transform import Rotation

from polarlink.analysis import FitError
from polarlink.apc import _fidelities
from polarlink.polmath import AnalyzerSetting, compose_quat, quaternion_matrix
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


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly (Haar) over SO(3), from a normalized Gaussian quaternion."""
    x, y, z, w = rng.normal(size=4)
    n = np.sqrt(x * x + y * y + z * z + w * w)
    return quaternion_matrix(x / n, y / n, z / n, w / n)


def haar_quat(rng: np.random.Generator) -> tuple:
    """A Haar-random unit quaternion, from the draws ``haar_rotation`` takes."""
    x, y, z, w = rng.normal(size=4).tolist()
    n = math.sqrt(x * x + y * y + z * z + w * w)
    return x / n, y / n, z / n, w / n


# Pauli matrices ordered to match the (s1, s2, s3) Stokes convention.
PAULI = np.array(
    [
        [[1, 0], [0, -1]],  # sigma_z
        [[0, 1], [1, 0]],  # sigma_x
        [[0, -1j], [1j, 0]],  # sigma_y
    ],
    dtype=complex,
)

# |Phi+> = (|HH> + |VV>)/sqrt(2) in the H/V product basis.
_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def density_matrix(visibility: float) -> np.ndarray:
    """V |Phi+><Phi+| + (1-V) I/4."""
    pure = np.outer(_PHI_PLUS, _PHI_PLUS.conj())
    return visibility * pure + (1.0 - visibility) * np.eye(4) / 4.0


def jones(a: AnalyzerSetting) -> np.ndarray:
    """Jones vector of the linear analyzer ``a``."""
    theta = np.deg2rad(a.angle_deg)
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """Jones-space unitary whose Pauli conjugation reproduces the Stokes rotation ``r``.

    With the (sigma_z, sigma_x, sigma_y) ordering, U (n . sigma) U^dagger
    equals (R n) . sigma for U = w I - i (x, y, z) . sigma, the quaternion
    q = (x, y, z, w) of R read off the row of 4 q q^T with the largest diagonal.
    """
    tr = np.trace(r)
    v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    k = np.block([[r + r.T + (1 - tr) * np.eye(3), v[:, None]], [v, 1 + tr]])
    j = np.argmax(np.diag(k))
    x, y, z, w = k[j] / (2 * np.sqrt(k[j, j]))
    return w * np.eye(2) - 1j * np.tensordot([x, y, z], PAULI, axes=1)


def coincidence_prob(
    visibility: float, a: AnalyzerSetting, b: AnalyzerSetting, idler_rotation=None
) -> float:
    """Probability that both photons pass their linear analyzers, in the Jones picture.

    The idler rotation is lifted to an SU(2) unitary and the transformed
    density matrix is projected onto the product of the two analyzer states.
    With no rotation this reduces to (1 + V cos 2(a - b)) / 4.
    """
    u = su2_from_rotation(np.eye(3) if idler_rotation is None else idler_rotation)
    u_full = np.kron(np.eye(2, dtype=complex), u)
    rho = u_full @ density_matrix(visibility) @ u_full.conj().T
    ket = np.kron(jones(a), jones(b))
    p = float(np.real(ket.conj() @ rho @ ket))
    return min(max(p, 0.0), 1.0)


def controller_matrix(params):
    """Oracle of ``Controller``: Rx(p2) Rz(p1) Rx(p0) Rz(p3) as a product of scipy's matrices."""
    retarders = Rotation.from_euler("xzx", params[:3]).as_matrix()
    return retarders @ Rotation.from_euler("z", params[3]).as_matrix()


def _controller_quat(params: list, swapped=None) -> tuple:
    """Rx(p2) Rz(p1) Rx(p0) Rz(p3) from axis quaternions (x, y, z, w), with libm's sin and cos.

    With factor ``swapped``'s (sin, cos) of its half-angle taken as (cos,
    -sin), it is twice the derivative of that quaternion in that angle.
    """
    s = [math.sin(a / 2) for a in params]
    c = [math.cos(a / 2) for a in params]
    if swapped is not None:
        s[swapped], c[swapped] = c[swapped], -s[swapped]
    q = compose_quat((0.0, 0.0, s[1], c[1]), (s[0], 0.0, 0.0, c[0]))
    q = compose_quat((s[2], 0.0, 0.0, c[2]), q)
    return compose_quat(q, (0.0, 0.0, s[3], c[3]))


def fidelity_cost(fidelities) -> float:
    """1 - the mean of the six fidelities, summed left to right, which is the
    order of ``np.mean`` for six elements, so ``1 - np.mean(fidelities)`` bit
    for bit (not ``sum()``, which compensates from Python 3.12 on)."""
    return float(1.0 - reduce(add, fidelities) / len(fidelities))


def _cost_at(params: list, channel_quat: tuple) -> float:
    """``fidelity_cost(measure_fidelities(channel_quat, Controller(params)))``."""
    return fidelity_cost(_fidelities(compose_quat(_controller_quat(params), channel_quat)))


def three_product_step(ch, ctrl, cfg) -> int:
    """``apc.compensation_step`` with each setting's cost from ``_cost_at`` and
    its gradient by central differences of that cost, in place like it.

    Returns the branch it took: 0 if the gradient vanished, j + 1 if it took
    line-search candidate j, 7 if it kicked.
    """
    channel_quat, params = ch.quat, ctrl.params
    d = cfg.fd_delta
    base = _cost_at(params, channel_quat)
    grad = []
    for k in range(4):
        plus = [p + (d if i == k else 0.0) for i, p in enumerate(params)]
        minus = [p - (d if i == k else 0.0) for i, p in enumerate(params)]
        grad.append((_cost_at(plus, channel_quat) - _cost_at(minus, channel_quat)) / (2.0 * d))
    if math.sqrt(sum([g * g for g in grad])) < 1e-9:
        return 0
    step = cfg.step_size
    for j in range(6):
        candidate = [p - step * g for p, g in zip(params, grad)]
        q = _controller_quat(candidate)
        if fidelity_cost(_fidelities(compose_quat(q, channel_quat))) <= base:
            ctrl.params, ctrl.quat = tuple(candidate), q
            return j + 1
        step *= 0.5
    kicked = [p + k for p, k in zip(params, ch.normals.normal(0.0, d, 4))]
    ctrl.params, ctrl.quat = tuple(kicked), _controller_quat(kicked)
    return 7


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


def loop_longrun_series(windows, counts) -> tuple:
    """Oracle of ``longrun_series``: each group's correlations in a loop, S as
    a dot product with the CHSH signs, appended to the six columns in turn.

    Raises FitError where a window's analyzer pair is not the CHSH setting
    of its place in the group, which ``longrun_series`` takes as given."""
    columns = tuple([] for _ in range(6))
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
        row = (
            group[0].start_s,
            min(w.session.min_fidelity_after for w in group),
            float(_CHSH_SIGNS @ es),
            float(np.sqrt(variances.sum())),
            sum(w.session.duration_s for w in group),
            any(w.post_timeout for w in group),
        )
        for column, value in zip(columns, row):
            column.append(value)
    return columns


def csv_writer_text(rows, lineterminator: str = "\r\n") -> str:
    """The text ``csv.writer`` writes for ``rows``, with its CRLF line ends
    unless ``lineterminator`` says otherwise."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=lineterminator).writerows(rows)
    return buf.getvalue()


class ScriptedDraws:
    """A generator stand-in whose standard normals are ``values``, in order,
    then NaN.

    Its ``bit_generator.state`` is the count of values taken, which a
    channel's ``NormalStream`` reads and restores as it would a generator's.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()
        self.taken = 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.taken

    @state.setter
    def state(self, taken):
        self.taken = taken

    def standard_normal(self, size=None, out=None):
        shape = out.shape if out is not None else size
        n = int(np.prod(shape))
        values = np.full(n, np.nan)
        scripted = self.values[self.taken : self.taken + n]
        values[: scripted.size] = scripted
        self.taken += n
        if out is None:
            return values.reshape(shape)
        out[...] = values.reshape(shape)
        return out


def array_rate_at(schedule, t) -> np.ndarray:
    """Oracle of ``DriftSchedule.rate_at`` over an array of times: one
    ``searchsorted`` over the segment starts, then each burst as a mask."""
    t = np.asarray(t, dtype=float)
    starts, rates = np.array(schedule.segments, dtype=float).T
    out = rates[np.searchsorted(starts, np.mod(t, schedule.period_s), side="right") - 1]
    for b in schedule.bursts:
        mask = (t >= b.start_s) & (t < b.start_s + b.duration_s)
        out = np.where(mask, out * b.multiplier, out)
    return out


def loop_constant_rate(schedule, t0: float, t1: float):
    """Oracle of ``DriftSchedule.constant_rate``: the segment lookup, then
    each burst in turn, multiplying in the ones in force at t0."""
    if not (0.0 <= t0 <= t1 and t1 - t0 < schedule.period_s):
        return None
    phase0, phase1 = math.fmod(t0, schedule.period_s), math.fmod(t1, schedule.period_s)
    seg = bisect_right(schedule._start_list, phase0)
    if not (phase0 <= phase1 and bisect_right(schedule._start_list, phase1) == seg):
        return None
    rate = schedule._rate_list[seg - 1]
    for b in schedule.bursts:
        end = b.start_s + b.duration_s
        if t0 < b.start_s <= t1 or t0 < end <= t1:
            return None
        if b.start_s <= t0 < end:
            rate *= b.multiplier
    return rate


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
        dl = t - ref[left] if left >= 0 else math.inf
        dr = ref[right] - t if right < n else math.inf
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

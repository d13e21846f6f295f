"""Automated polarization compensation: reference states, cost, feedback loop.

An injector cycles through the six cardinal SOPs (H, V, D, A, R, L); the
compensator measures their fidelities after the fiber, derives a scalar cost,
and runs finite-difference gradient descent on a four-retarder polarization
controller until the minimum fidelity clears the target threshold or the
session times out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .channel import FiberChannel
from .polmath import PolTransform, compose_quat, quaternion_matrix

OUTCOME_SKIPPED = "skipped"
OUTCOME_CONVERGED = "converged"
OUTCOME_TIMEOUT = "timeout"

_GRADIENT_TOL = 1e-9
_MAX_HALVINGS = 5
# Most measurement cycles a session's timeout may span: a session that never
# converges runs that many at most.
MAX_SESSION_CYCLES = 10**6


@dataclass
class Controller:
    """Four-retarder in-line controller: rotations about alternating s1/s3 axes.

    The x-z-x-z angle parameterization is surjective onto SO(3) with one
    redundant degree of freedom, which avoids gimbal lock during descent.
    ``params`` holds the four angles as a tuple of Python floats and ``quat``
    their rotation; ``compensation_step``, which picks new angles, sets both.
    """

    params: tuple = (0.0, 0.0, 0.0, 0.0)
    quat: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.params = tuple(map(float, self.params))
        self.quat = _params_quat(self.params)

    def to_transform(self) -> PolTransform:
        return PolTransform.trusted(quaternion_matrix(*self.quat))


# The controller's rotation Rx(p2) [Rz(p1) Rx(p0)] Rz(p3), built from the sin
# and cos (libm's) of its half-angles by three products, each written for its
# axis-aligned factor: ``compose_quat`` with the axis quaternions
# (s, 0, 0, c) and (0, 0, s, c), less its terms in a zero factor, in its
# association and operand order.  A dropped term is a signed zero, so every
# nonzero component has the bits ``compose_quat`` gives it, and a zero one at
# most another sign.


def _rz_rx(s1: float, c1: float, s0: float, c0: float) -> tuple:
    """M = Rz(p1) Rx(p0)."""
    return c1 * s0, s1 * s0, c0 * s1, c1 * c0


def _rx_times(s: float, c: float, m: tuple) -> tuple:
    """Rx(p) m."""
    x, y, z, w = m
    return c * x + w * s, c * y - s * z, c * z + s * y, c * w - s * x


def _times_rz(n: tuple, s: float, c: float) -> tuple:
    """n Rz(p)."""
    x, y, z, w = n
    return c * x + y * s, c * y - x * s, w * s + c * z, w * c - z * s


def _params_quat(params) -> tuple:
    """The rotation of the four angles ``params``."""
    h0, h1, h2, h3 = params[0] / 2, params[1] / 2, params[2] / 2, params[3] / 2
    m = _rz_rx(math.sin(h1), math.cos(h1), math.sin(h0), math.cos(h0))
    return _times_rz(_rx_times(math.sin(h2), math.cos(h2), m), math.sin(h3), math.cos(h3))


@dataclass(frozen=True)
class ApcConfig:
    check_threshold: float = 0.98
    target_threshold: float = 0.99
    timeout_s: float = 55.0
    step_size: float = 4.0
    fd_delta: float = 0.02
    cycle_time_s: float = 0.12


class SessionRecord(NamedTuple):
    outcome: str
    duration_s: float
    min_fidelity_before: float
    min_fidelity_after: float
    iterations: int
    start_time_s: float = 0.0


def measure_fidelities(channel_quat: tuple, ctrl: Controller) -> tuple:
    """Fidelities of the six cardinal states (H, V, D, A, R, L) through channel then controller."""
    return _fidelities(compose_quat(ctrl.quat, channel_quat))


def _fidelities(q) -> tuple:
    """½(1 + s·Cs) for s = ±e_i is ½(1 + C_ii) for either sign, where C is
    the matrix of quaternion ``q``: the six fidelities in (H, V, D, A, R, L)
    order, as Python floats, with C_ii as ``quaternion_matrix`` rounds it."""
    x, y, z, w = q
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    f0 = 0.5 * (1.0 + (x2 - y2 - z2 + w2))
    f1 = 0.5 * (1.0 + (-x2 + y2 - z2 + w2))
    f2 = 0.5 * (1.0 + (-x2 - y2 + z2 + w2))
    return f0, f0, f1, f1, f2, f2


def cost(fidelities) -> float:
    """Feedback error signal: 1 - mean fidelity.

    The mean gives a smooth gradient; convergence is gated separately on the
    minimum fidelity against the target threshold.  It is summed left to
    right, which is the order of ``np.mean`` for six elements, so the cost is
    ``1 - np.mean(fidelities)`` bit for bit (not ``sum()``, which compensates
    from Python 3.12 on).
    """
    return float(1.0 - reduce(add, fidelities) / len(fidelities))


def compensation_step(
    channel_quat: tuple,
    ctrl: Controller,
    cfg: ApcConfig,
    rng: np.random.Generator,
) -> None:
    """One gradient-descent iteration with backtracking line search, in place.

    The gradient is estimated by central finite differences (two measurement
    cycles per parameter).  The step length starts at step_size and is halved
    up to five times until the cost does not increase; if no descent direction
    is found the parameters get a small random kick, ``rng.normal(0.0,
    fd_delta, size=4)``, to escape a saddle; ``rng`` is a generator or a
    channel's ``NormalStream``, which draws the same kick.  The step sets
    ``ctrl.params`` and ``ctrl.quat`` together: a gradient under
    ``_GRADIENT_TOL`` leaves ``ctrl`` as it is, and an accepted candidate
    keeps the rotation its cost was evaluated on.

    Each evaluation is ``cost`` of the setting's fidelities, whose rotation
    is built from the sin and cos of its half-angles, taken once per angle.
    A trial moves one angle: one on p3 starts from the current N =
    Rx(p2) Rz(p1) Rx(p0), one on p2 from the current M = Rz(p1) Rx(p0), and
    one on p0 or p1 is built in full, as are the line-search candidates.  A
    candidate's entries are rounded as numpy's elementwise arithmetic rounds
    them; so are a trial's, whose unmoved entries keep their sin and cos
    (p + 0.0 differs from p only in the sign of a zero).
    """
    params = ctrl.params
    d = cfg.fd_delta
    s0, s1, s2, s3 = [math.sin(a / 2) for a in params]
    c0, c1, c2, c3 = [math.cos(a / 2) for a in params]
    m = _rz_rx(s1, c1, s0, c0)
    n = _rx_times(s2, c2, m)
    base = cost(_fidelities(compose_quat(_times_rz(n, s3, c3), channel_quat)))
    grad = []
    for k, p in enumerate(params):
        trial = []
        for a in (p + d, p - d):
            sk, ck = math.sin(a / 2), math.cos(a / 2)
            if k == 0:
                q = _times_rz(_rx_times(s2, c2, _rz_rx(s1, c1, sk, ck)), s3, c3)
            elif k == 1:
                q = _times_rz(_rx_times(s2, c2, _rz_rx(sk, ck, s0, c0)), s3, c3)
            elif k == 2:
                q = _times_rz(_rx_times(sk, ck, m), s3, c3)
            else:
                q = _times_rz(n, sk, ck)
            trial.append(cost(_fidelities(compose_quat(q, channel_quat))))
        grad.append((trial[0] - trial[1]) / (2.0 * d))
    if math.sqrt(sum([g * g for g in grad])) < _GRADIENT_TOL:
        return
    step = cfg.step_size
    for _ in range(1 + _MAX_HALVINGS):
        candidate = [p - step * g for p, g in zip(params, grad)]
        q = _params_quat(candidate)
        if cost(_fidelities(compose_quat(q, channel_quat))) <= base:
            ctrl.params, ctrl.quat = tuple(candidate), q
            return
        step *= 0.5
    kicked = tuple(np.add(params, rng.normal(0.0, d, size=4)).tolist())
    ctrl.params, ctrl.quat = kicked, _params_quat(kicked)


def run_session(
    ch: FiberChannel,
    ctrl: Controller,
    cfg: ApcConfig,
    rng: np.random.Generator,
    actuate: bool = True,
) -> SessionRecord:
    """Run one compensation session, advancing the channel clock as it goes.

    Session duration is cycle_time * (1 + 9 * iterations): one check cycle
    plus, per iteration, eight finite-difference cycles and one re-measure
    cycle.  Each measurement reads the channel at the start of its cycle.
    A session times out once that count of cycles spans ``timeout_s``,
    counted rather than read off the channel clock, which a cycle far below
    the clock's resolution would not move.  With ``actuate`` false the
    session only performs the check cycle (fidelities are still measured,
    for logging) and never moves the controller.
    """
    start = ch.sim_time
    fids = measure_fidelities(ch.advance(cfg.cycle_time_s), ctrl)
    min_before = min(fids)
    if not actuate or min_before >= cfg.check_threshold:
        return SessionRecord(
            outcome=OUTCOME_SKIPPED,
            duration_s=ch.sim_time - start,
            min_fidelity_before=min_before,
            min_fidelity_after=min_before,
            iterations=0,
            start_time_s=start,
        )
    iterations = 0
    min_after = min_before
    while True:
        compensation_step(ch.quat, ctrl, cfg, rng)
        ch.advance(8 * cfg.cycle_time_s)
        fids = measure_fidelities(ch.advance(cfg.cycle_time_s), ctrl)
        iterations += 1
        min_after = min(fids)
        if min_after >= cfg.target_threshold:
            outcome = OUTCOME_CONVERGED
            break
        if (1 + 9 * iterations) * cfg.cycle_time_s >= cfg.timeout_s:
            outcome = OUTCOME_TIMEOUT
            break
    return SessionRecord(
        outcome=outcome,
        duration_s=ch.sim_time - start,
        min_fidelity_before=min_before,
        min_fidelity_after=min_after,
        iterations=iterations,
        start_time_s=start,
    )


def write_sessions_csv(path, records) -> None:
    """One row per session, lines ending in CRLF as ``csv.writer``'s do."""
    rows = [
        f"{r.start_time_s:.6f},{r.outcome},{r.duration_s:.6f},"
        f"{r.min_fidelity_before:.9f},{r.min_fidelity_after:.9f},{r.iterations}\r\n"
        for r in records
    ]
    with open(path, "w", newline="") as f:
        f.write("start_time_s,outcome,duration_s,min_f_before,min_f_after,iterations\r\n")
        f.write("".join(rows))

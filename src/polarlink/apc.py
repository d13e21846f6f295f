"""Automated polarization compensation: reference states, cost, feedback loop.

An injector cycles through the six cardinal SOPs (H, V, D, A, R, L); the
compensator measures their fidelities after the fiber, derives a scalar cost,
and runs finite-difference gradient descent on a four-retarder polarization
controller until the minimum fidelity clears the target threshold or the
session times out.  The cost and its finite differences are computed in
closed form from the scalar part of the composite rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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


def _params_quat(params) -> tuple:
    """The rotation Rx(p2) [Rz(p1) Rx(p0)] Rz(p3) of the four angles ``params``.

    It is built from the sin and cos (libm's) of the half-angles by three
    products, each ``compose_quat`` with an axis quaternion (s, 0, 0, c) or
    (0, 0, s, c), less its terms in a zero factor, in its association and
    operand order.  A dropped term is a signed zero, so every nonzero
    component has the bits ``compose_quat`` gives it, and a zero one at most
    another sign.
    """
    h0, h1, h2, h3 = params[0] / 2, params[1] / 2, params[2] / 2, params[3] / 2
    s0, c0, s1, c1 = math.sin(h0), math.cos(h0), math.sin(h1), math.cos(h1)
    s2, c2, s3, c3 = math.sin(h2), math.cos(h2), math.sin(h3), math.cos(h3)
    mx, my, mz, mw = c1 * s0, s1 * s0, c0 * s1, c1 * c0
    nx, ny, nz, nw = c2 * mx + mw * s2, c2 * my - s2 * mz, c2 * mz + s2 * my, c2 * mw - s2 * mx
    return c3 * nx + ny * s3, c3 * ny - nx * s3, nw * s3 + c3 * nz, nw * c3 - nz * s3


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


def cost(w: float) -> float:
    """Feedback error signal, 1 - the mean fidelity of the six cardinal states,
    from the scalar part ``w`` of the composite rotation C (controller after
    channel).

    The six fidelities average ½(1 + tr C / 3), and tr C = 4w² - 1, so the
    cost is (2/3)(1 - w²).  The mean gives a smooth gradient; convergence is
    gated separately on the minimum fidelity against the target threshold.
    """
    return 2.0 / 3.0 * (1.0 - w * w)


def compensation_step(ch: FiberChannel, ctrl: Controller, cfg: ApcConfig) -> None:
    """One gradient-descent iteration with backtracking line search, in place.

    The loop estimates the gradient by central finite differences, two
    measurement cycles per angle; the step computes that estimate in closed
    form.  With every other angle held, the composite's scalar part w is a
    sinusoid in p_k / 2, so the cost is a sinusoid in p_k, and its central
    difference over ±d is sin(d)/d times its derivative.  Moving p_k turns
    the composite r = controller after channel about a_k, retarder k's axis
    as the retarders before it turn it, so ∂w/∂p_k = -½ a_k · (r_x, r_y, r_z)
    (twice that is w with retarder k's half-angle sin and cos swapped for
    cos and -sin) and ∂cost/∂p_k = (2/3) w a_k · (r_x, r_y, r_z).

    The step length starts at step_size and is halved up to five times until
    the cost of the candidate's w does not exceed that of the setting; if no
    descent direction is found the angles get a small random kick,
    ``normal(0.0, fd_delta, 4)`` from the channel's stream ``ch.normals``, to
    escape a saddle.  The channel is read at its current rotation
    ``ch.quat``.  The step sets ``ctrl.params`` and ``ctrl.quat`` together: a
    gradient under ``_GRADIENT_TOL`` leaves ``ctrl`` as it is, and an
    accepted candidate keeps the rotation its cost was evaluated on.
    """
    cx, cy, cz, cw = ch.quat
    rx, ry, rz, w = compose_quat(ctrl.quat, ch.quat)
    base = cost(w)
    params = ctrl.params
    p0, p1, p2, _ = params
    s0, c0, s1, c1 = math.sin(p0), math.cos(p0), math.sin(p1), math.cos(p1)
    s2, c2 = math.sin(p2), math.cos(p2)
    # a_k · (r_x, r_y, r_z) for a_0 = Rx(p2) Rz(p1) x, a_1 = Rx(p2) z, a_2 = x
    # and a_3 = Rx(p2) Rz(p1) Rx(p0) z, where (r_x, u, v) is Rx(-p2) (r_x, r_y, r_z)
    u, v = c2 * ry + s2 * rz, c2 * rz - s2 * ry
    d = cfg.fd_delta
    scale = 2.0 / 3.0 * w * math.sin(d) / d
    grad = [scale * a for a in (c1 * rx + s1 * u, v, rx, c0 * v + s0 * (s1 * rx - c1 * u))]
    if math.hypot(*grad) < _GRADIENT_TOL:
        return
    step = cfg.step_size
    for _ in range(1 + _MAX_HALVINGS):
        candidate = tuple([p - step * g for p, g in zip(params, grad)])
        qx, qy, qz, qw = q = _params_quat(candidate)
        if cost(qw * cw - qx * cx - qy * cy - qz * cz) <= base:
            ctrl.params, ctrl.quat = candidate, q
            return
        step *= 0.5
    kicked = tuple([p + k for p, k in zip(params, ch.normals.normal(0.0, d, 4))])
    ctrl.params, ctrl.quat = kicked, _params_quat(kicked)


def run_session(
    ch: FiberChannel, ctrl: Controller, cfg: ApcConfig, actuate: bool = True
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
    min_before = min(measure_fidelities(ch.advance(cfg.cycle_time_s), ctrl))
    outcome, min_after, iterations = OUTCOME_SKIPPED, min_before, 0
    if actuate and not min_before >= cfg.check_threshold:  # a NaN fidelity actuates
        while True:
            compensation_step(ch, ctrl, cfg)
            ch.advance(8 * cfg.cycle_time_s)
            min_after = min(measure_fidelities(ch.advance(cfg.cycle_time_s), ctrl))
            iterations += 1
            if min_after >= cfg.target_threshold:
                outcome = OUTCOME_CONVERGED
                break
            if (1 + 9 * iterations) * cfg.cycle_time_s >= cfg.timeout_s:
                outcome = OUTCOME_TIMEOUT
                break
    return SessionRecord(outcome, ch.sim_time - start, min_before, min_after, iterations, start)

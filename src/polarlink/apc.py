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


class ApcError(ValueError):
    """Controller angles that are not four numbers."""


@dataclass
class Controller:
    """Four-retarder in-line controller: rotations about alternating s1/s3 axes.

    The x-z-x-z angle parameterization is surjective onto SO(3) with one
    redundant degree of freedom, which avoids gimbal lock during descent.
    ``params`` is held as a read-only copy, so the quaternion that ``quat``
    caches stays valid until ``params`` is set again.
    """

    params: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __setattr__(self, name, value):
        if name == "params":
            value = np.array(value, dtype=float)
            if value.shape != (4,):
                raise ApcError("controller needs exactly 4 retarder angles")
            value.flags.writeable = False
            super().__setattr__("_quat", None)
        super().__setattr__(name, value)

    @property
    def quat(self) -> tuple:
        """The controller's rotation as a quaternion (x, y, z, w) of Python floats."""
        if self._quat is None:
            self._quat = _controller_quat(self.params.tolist())
        return self._quat

    def to_transform(self) -> PolTransform:
        return PolTransform.trusted(quaternion_matrix(*self.quat))


def _controller_quat(params: list) -> tuple:
    """Rx(p2) Rz(p1) Rx(p0) Rz(p3) from axis quaternions (x, y, z, w), with libm's sin and cos."""
    s = [math.sin(a / 2) for a in params]
    c = [math.cos(a / 2) for a in params]
    q = compose_quat((0.0, 0.0, s[1], c[1]), (s[0], 0.0, 0.0, c[0]))
    q = compose_quat((s[2], 0.0, 0.0, c[2]), q)
    return compose_quat(q, (0.0, 0.0, s[3], c[3]))


@dataclass(frozen=True)
class ApcConfig:
    check_threshold: float = 0.98
    target_threshold: float = 0.99
    timeout_s: float = 55.0
    step_size: float = 4.0
    fd_delta: float = 0.02
    cycle_time_s: float = 0.12


@dataclass(frozen=True)
class SessionRecord:
    outcome: str
    duration_s: float
    min_fidelity_before: float
    min_fidelity_after: float
    iterations: int
    start_time_s: float = 0.0


def measure_fidelities(channel_quat: tuple, ctrl: Controller) -> tuple:
    """Fidelity of each of the six ``CARDINAL_STATES`` through channel then controller."""
    return _fidelities(compose_quat(ctrl.quat, channel_quat))


def _fidelities(q) -> tuple:
    """½(1 + s·Cs) for s = ±e_i is ½(1 + C_ii) for either sign, where C is
    the matrix of quaternion ``q``: the six fidelities in ``CARDINAL_STATES``
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


def _cost_at(params: list, channel_quat: tuple) -> float:
    """``cost(measure_fidelities(channel_quat, Controller(params)))``."""
    return cost(_fidelities(compose_quat(_controller_quat(params), channel_quat)))


def compensation_step(
    channel_quat: tuple,
    ctrl: Controller,
    cfg: ApcConfig,
    rng: np.random.Generator,
) -> Controller:
    """One gradient-descent iteration with backtracking line search.

    The gradient is estimated by central finite differences (two measurement
    cycles per parameter).  The step length starts at step_size and is halved
    up to five times until the cost does not increase; if no descent direction
    is found the parameters get a small random kick to escape a saddle.

    The settings are lists of four Python floats, each entry rounded as
    numpy's elementwise arithmetic rounds it (a zero delta entry included).
    """
    params = ctrl.params.tolist()
    d = cfg.fd_delta
    base = _cost_at(params, channel_quat)
    grad = []
    for k in range(4):
        plus = [p + (d if i == k else 0.0) for i, p in enumerate(params)]
        minus = [p - (d if i == k else 0.0) for i, p in enumerate(params)]
        grad.append((_cost_at(plus, channel_quat) - _cost_at(minus, channel_quat)) / (2.0 * d))
    if math.sqrt(sum(g * g for g in grad)) < _GRADIENT_TOL:
        return Controller(params)
    step = cfg.step_size
    for _ in range(1 + _MAX_HALVINGS):
        candidate = [p - step * g for p, g in zip(params, grad)]
        if _cost_at(candidate, channel_quat) <= base:
            return Controller(candidate)
        step *= 0.5
    return Controller(ctrl.params + rng.normal(0.0, d, size=4))


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
        stepped = compensation_step(ch.quat, ctrl, cfg, rng)
        ctrl.params = stepped.params
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
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["start_time_s", "outcome", "duration_s", "min_f_before", "min_f_after", "iterations"]
        )
        for r in records:
            writer.writerow(
                [
                    f"{r.start_time_s:.6f}",
                    r.outcome,
                    f"{r.duration_s:.6f}",
                    f"{r.min_fidelity_before:.9f}",
                    f"{r.min_fidelity_after:.9f}",
                    r.iterations,
                ]
            )

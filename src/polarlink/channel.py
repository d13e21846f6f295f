"""Time-varying fiber channel: rotation random walk with a drift schedule.

The channel's polarization transformation performs an isotropic angular
diffusion on SO(3): each step composes a rotation about a uniformly random
axis by an angle drawn from N(0, rate * dt), where the rate (rad^2/s) comes
from a day/night schedule with optional burst multipliers.  A long advance at
a slow constant rate takes two steps of the same variance and fourth
cumulant instead (``FiberChannel.advance``).  Loss is a scalar
in dB; there is no polarization-dependent loss.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .polmath import StokesVector, quaternion_matrix

# Day-time diffusion rate (rad^2/s), set for the median fidelity of a transmitted
# SOP to first drop below 0.95 at t = 20 s; it gives about 20.7 s (5 x 2,000 seeds),
# inside acceptance criterion 9's 20 +/- 1 s.  The 500x smaller night rate keeps
# the SOP above 0.99 fidelity for tens of minutes.
DAY_RATE = 0.012714
NIGHT_RATE = DAY_RATE / 500.0
BURST_MULTIPLIER = 100.0

DEFAULT_LOSS_DB = 21.0  # 18 dB fiber + 3 dB connectors/components
MAX_STEP_S = 0.1  # longest single step of the walk
MAX_WALK_STEPS = 10**6  # most steps of one advance, probe trace or calibration trace
# Fewest time-rule steps of an advance that may be walked as two coarse steps
# (FiberChannel.advance).  From 20 steps on, the H-probe fidelity after the
# two is within a KS distance of 0.002 of that after the time rule's steps,
# the sampling noise of 4 x 10^5 walks of each; at 10 steps it is 0.003.
COARSE_MIN_STEPS = 20


class ChannelError(ValueError):
    """Invalid walk duration or step, or a walk over MAX_WALK_STEPS steps."""


@dataclass(frozen=True)
class Burst:
    """Temporary rate multiplier modelling a fast environmental transient."""

    start_s: float
    duration_s: float
    multiplier: float = BURST_MULTIPLIER


@dataclass(frozen=True)
class DriftSchedule:
    """Piecewise-constant diffusion rate over a repeating cycle.

    ``segments`` is an ordered list of (start_time_s, rate_rad2_per_s) pairs
    covering one period; bursts are absolute-time (non-repeating) multipliers.
    """

    segments: tuple = ((0.0, DAY_RATE),)
    period_s: float = 86400.0
    bursts: tuple = ()

    def __post_init__(self):
        # Held for rate_at and constant_rate, one of which every walk calls.
        starts, rates = np.array(self.segments).T
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_rates", rates)
        object.__setattr__(self, "_start_list", starts.tolist())
        object.__setattr__(self, "_rate_list", rates.tolist())

    @classmethod
    def constant(cls, rate: float, bursts=()) -> "DriftSchedule":
        return cls(segments=((0.0, rate),), bursts=tuple(bursts))

    @classmethod
    def day_night(
        cls,
        day_rate: float = DAY_RATE,
        night_rate: float = NIGHT_RATE,
        day_start_s: float = 6 * 3600.0,
        night_start_s: float = 18 * 3600.0,
        period_s: float = 86400.0,
        bursts=(),
    ) -> "DriftSchedule":
        segments = [(0.0, night_rate), (day_start_s, day_rate), (night_start_s, night_rate)]
        if day_start_s == 0.0:
            segments = [(0.0, day_rate), (night_start_s, night_rate)]
        return cls(segments=tuple(segments), period_s=period_s, bursts=tuple(bursts))

    def rate_at(self, t) -> np.ndarray:
        """Diffusion rate at time(s) t, burst multipliers included."""
        t = np.asarray(t, dtype=float)
        phase = np.mod(t, self.period_s)
        idx = np.searchsorted(self._starts, phase, side="right") - 1
        out = self._rates[idx]
        for b in self.bursts:
            mask = (t >= b.start_s) & (t < b.start_s + b.duration_s)
            out = np.where(mask, out * b.multiplier, out)
        return out

    def constant_rate(self, t0: float, t1: float):
        """The rate ``rate_at`` gives at every time in [t0, t1], or None.

        None unless t0 >= 0, [t0, t1] lies within one period and one segment,
        and no burst starts or ends in (t0, t1]; then the rate is that of t0,
        bit for bit.  Where it cannot tell, it returns None.
        """
        if not (0.0 <= t0 <= t1 and t1 - t0 < self.period_s):
            return None
        # For t >= 0, fmod is exact and equals rate_at's np.mod, so the phase
        # grows with t within one period; an interval under a period long
        # whose end phase is not below its start phase crosses no period.
        phase0, phase1 = math.fmod(t0, self.period_s), math.fmod(t1, self.period_s)
        seg = bisect_right(self._start_list, phase0)
        if not (phase0 <= phase1 and bisect_right(self._start_list, phase1) == seg):
            return None
        rate = self._rate_list[seg - 1]
        for b in self.bursts:
            end = b.start_s + b.duration_s
            if t0 < b.start_s <= t1 or t0 < end <= t1:
                return None
            if b.start_s <= t0 < end:
                rate *= b.multiplier
        return rate


@dataclass
class FiberChannel:
    """Single-owner mutable channel state: accumulated rotation plus clock.

    ``quat`` is the rotation as a unit quaternion (x, y, z, w) of Python
    floats; each advance composes its steps onto it at once.
    """

    schedule: DriftSchedule
    rng: np.random.Generator
    sim_time: float = 0.0
    max_step_s: float = MAX_STEP_S
    quat: tuple = field(default=(0.0, 0.0, 0.0, 1.0), init=False, repr=False)

    def advance(self, duration: float) -> tuple:
        """Advance by ``duration``; the quaternion at its start.

        By the time rule the walk takes n = ``_walk_steps(duration,
        max_step_s)`` steps, each by an angle ~ N(0, rate * dt) about a
        uniform axis.  Where the rate stays constant over the advance, n is
        at least COARSE_MIN_STEPS and the advance's angle variance, rate *
        duration, fits in one step at DAY_RATE (DAY_RATE * max_step_s), it
        takes the two steps of ``_coarse_walk`` instead.  Any walk at DAY_RATE
        or faster keeps the time rule bit for bit.
        """
        if not duration >= 0:
            raise ChannelError(f"duration must be >= 0, got {duration!r}")
        start = self.quat
        if duration > 0:
            n = _walk_steps(duration, self.max_step_s)
            rate = self.schedule.constant_rate(self.sim_time, self.sim_time + duration)
            if rate is None:
                self._walk(n, duration / n)
            # at DAY_RATE or faster, rate / DAY_RATE >= 1.0, so the product is
            # at least duration / max_step_s, over n - 1
            elif n >= COARSE_MIN_STEPS and rate / DAY_RATE * (duration / self.max_step_s) <= 1.0:
                self._coarse_walk(n, duration, rate)
            else:
                dt = duration / n
                self._walk(n, dt, math.sqrt(rate * dt))
        return start

    def _coarse_walk(self, n: int, duration: float, rate: float) -> None:
        """Walk the ``n`` time-rule steps of an advance at ``rate`` as two.

        To leading order the n steps' rotation vectors add up: their sum has
        variance v = rate * duration and 1/n the fourth cumulant of one such
        step of variance v.  A step by an angle ~ N(0, v / sqrt(n)) about a
        uniform axis has that fourth cumulant; a Gaussian rotation vector,
        whose fourth cumulant is zero, adds the remaining variance.  The
        clock moves as under the time rule.
        """
        x, y, z, angle, *gaussian = self.rng.standard_normal(7).tolist()
        self.sim_time += _step_grid(n, duration / n)[1]
        variance = rate * duration
        part = variance / math.sqrt(n)
        angles = [
            angle * math.sqrt(part),
            math.hypot(*gaussian) * math.sqrt((variance - part) / 3.0),
        ]
        self.quat, _ = _kernels.rotation_walk(self.quat, [(x, y, z), gaussian], angles)

    def _walk(self, n: int, dt: float, scale=None, sample_stride: int = 0) -> list:
        """Draw ``n`` steps of ``dt`` seconds, compose them onto ``quat`` and
        move the clock past them; the samples of ``rotation_walk``.  ``scale``
        is the steps' sqrt(rate * dt), if the caller knows it."""
        if scale is None:
            scale = _step_scales(self.schedule, self.sim_time, n, dt)
        draws = self.rng.standard_normal((n, 4))
        self.sim_time += _step_grid(n, dt)[1]
        self.quat, samples = _kernels.rotation_walk(
            self.quat, draws[:, :3].tolist(), (draws[:, 3] * scale).tolist(), sample_stride
        )
        return samples

    def probe_trace(self, input_sop: StokesVector, duration: float, sample_dt: float):
        """Inject a probe SOP and sample the transformed output over time.

        Returns (times, stokes_out (n, 3), fidelity_vs_start (n,)), including
        the initial sample at t = sim_time.  Fidelity is relative to the
        output SOP at the start of the trace.
        """
        substeps, n_samples = _probe_grid(duration, sample_dt, self.max_step_s)
        t0, start = self.sim_time, self.quat
        samples = self._walk(n_samples * substeps, sample_dt / substeps, sample_stride=substeps)
        outs = quaternion_matrix(*np.array([start, *samples]).T) @ input_sop.as_array()
        times = t0 + sample_dt * np.arange(n_samples + 1)
        fidelity = 0.5 * (1.0 + outs @ outs[0])
        return times, outs, fidelity


@lru_cache(maxsize=64)
def _step_grid(n: int, dt: float) -> tuple:
    """(start time of the last step, total time) of ``n`` steps of ``dt``, from 0.

    Each is summed as the walk of ``np.full(n, dt)`` steps sums it; scalars
    only are kept, since one walk can have a million steps.
    """
    last_start = float(np.cumsum(np.full(n - 1, dt))[-1]) if n > 1 else 0.0
    return last_start, float(np.sum(np.full(n, dt)))


def _step_scales(schedule: DriftSchedule, t0: float, n: int, dt: float):
    """sqrt(rate * dt) of ``n`` consecutive walk steps of ``dt`` from ``t0``.

    One float where the rate stays constant over the walk, else one per step;
    either way bit-equal to ``np.sqrt(schedule.rate_at(times) * dts)``.
    """
    rate = schedule.constant_rate(t0, t0 + _step_grid(n, dt)[0])
    if rate is not None:
        return np.sqrt(rate * dt)
    dts = np.full(n, dt)
    times = t0 + np.concatenate(([0.0], np.cumsum(dts[:-1])))
    return np.sqrt(schedule.rate_at(times) * dts)


def loss_transmittance(loss_db: float) -> float:
    """The fraction of light a fiber of ``loss_db`` dB loss transmits."""
    return 10.0 ** (-loss_db / 10.0)


def _walk_steps(duration: float, step_s: float) -> int:
    """Steps of at most ``step_s`` that cover ``duration``, if MAX_WALK_STEPS allows."""
    if not duration / step_s <= MAX_WALK_STEPS:
        raise ChannelError(f"{duration:g} s in {step_s:g} s steps is over {MAX_WALK_STEPS:,} steps")
    return max(1, math.ceil(duration / step_s))


def _probe_grid(duration: float, sample_dt: float, max_step_s: float):
    """(walk steps per sample, number of samples) of a probe trace."""
    if duration <= 0 or sample_dt <= 0:
        raise ChannelError("duration and sample_dt must be > 0")
    substeps = _walk_steps(sample_dt, max_step_s)
    _walk_steps(duration, sample_dt / substeps)  # the whole trace
    return substeps, int(round(duration / sample_dt))


def first_crossing_time(times: np.ndarray, fidelity: np.ndarray, threshold: float):
    """Time of the first fidelity sample below ``threshold``, or None."""
    below = np.nonzero(fidelity < threshold)[0]
    if below.size == 0:
        return None
    return float(times[below[0]])

"""Time-varying fiber channel: rotation random walk with a drift schedule.

The channel's polarization transformation performs an isotropic angular
diffusion on SO(3): each step composes a rotation about a uniformly random
axis by an angle drawn from N(0, rate * dt), where the rate (rad^2/s) comes
from a day/night schedule with optional burst multipliers.  A long advance at
a slow constant rate takes two steps of the same variance and fourth
cumulant instead (``FiberChannel.advance``).  Loss is a scalar
in dB; there is no polarization-dependent loss.

A link draws every random number from one generator, in the order of
per-call draws: each walk's and each descent kick's normals as the link
runs (``NormalStream``, which draws them in blocks), then the window
sampler's Poisson counts.  Other code reads that generator only through the
channel, as ``FiberChannel.rng`` or ``FiberChannel.normals``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .polmath import quaternion_matrix

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
# Standard normals a NormalStream draws at a time: 32 kB as Python floats.
STREAM_BLOCK = 1024


class ChannelError(ValueError):
    """Invalid walk duration or step, or a walk over MAX_WALK_STEPS steps."""


class StreamError(RuntimeError):
    """A draw made on a generator directly while its NormalStream was ahead."""


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
        # Held for rate_at and constant_stretch, which an advance calls only off its cached stretch.
        object.__setattr__(self, "_start_list", [float(start) for start, _ in self.segments])
        object.__setattr__(self, "_rate_list", [float(rate) for _, rate in self.segments])
        # Every burst's start and end, sorted, and the multipliers in force,
        # in burst order, in each region between them: a burst covers all of
        # [lo, hi) or none of it, as no edge lies inside.
        ends = [(b.start_s, b.start_s + b.duration_s, b.multiplier) for b in self.bursts]
        edges = sorted(e for start, end, _ in ends for e in (start, end))
        regions = [()]
        for lo, hi in zip(edges, edges[1:]):
            regions.append(tuple(m for start, end, m in ends if start <= lo and end >= hi))
        object.__setattr__(self, "_burst_edges", edges)
        object.__setattr__(self, "_burst_multipliers", regions + [()])

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

    def rate_at(self, t: float) -> float:
        """Diffusion rate at time t, burst multipliers included."""
        rate = self._rate_list[bisect_right(self._start_list, t % self.period_s) - 1]
        for b in self.bursts:
            if b.start_s <= t < b.start_s + b.duration_s:
                rate *= b.multiplier
        return rate

    def constant_rate(self, t0: float, t1: float):
        """The rate ``rate_at`` gives at every time in [t0, t1], or None.

        None unless t0 >= 0, [t0, t1] lies within one period and one segment,
        and no burst starts or ends in (t0, t1]; then the rate is that of t0,
        bit for bit.  Where it cannot tell, it returns None.
        """
        return self.constant_stretch(t0, t1)[0]

    def constant_stretch(self, t0: float, t1: float) -> tuple:
        """(``constant_rate(t0, t1)``, end): a rate that is not None is also
        ``constant_rate(a, b)`` for all t0 <= a <= b < end, the first burst edge
        past t0 or, if sooner, a relative 1e-12 short of the next segment start
        or period end, as t0 - fmod(t0, period_s) + start may round either way."""
        if not (0.0 <= t0 <= t1 and t1 - t0 < self.period_s):
            return None, t0
        # For t >= 0, fmod is exact and equals rate_at's %, so the phase
        # grows with t within one period; an interval under a period long
        # whose end phase is not below its start phase crosses no period.
        phase0, phase1 = math.fmod(t0, self.period_s), math.fmod(t1, self.period_s)
        seg = bisect_right(self._start_list, phase0)
        if not (phase0 <= phase1 and bisect_right(self._start_list, phase1) == seg):
            return None, t0
        rate = self._rate_list[seg - 1]
        # the first burst edge past t0 must lie past t1 too
        region = bisect_right(self._burst_edges, t0)
        if region < len(self._burst_edges) and self._burst_edges[region] <= t1:
            return None, t0
        for multiplier in self._burst_multipliers[region]:
            rate *= multiplier
        start = self._start_list[seg] if seg < len(self._start_list) else self.period_s
        end = (t0 - phase0 + start) * (1.0 - 1e-12)
        if region < len(self._burst_edges):
            end = min(end, self._burst_edges[region])
        return rate, end


class NormalStream:
    """The standard normals of one generator, drawn STREAM_BLOCK at a time and
    handed out in order as Python floats.

    ``take(k)`` gives the values that ``rng.standard_normal(k)`` would, and
    ``normal(loc, scale, size)`` those of ``rng.normal``, bit for bit, as
    lists.  The stream runs ahead of what it has handed out; ``sync`` puts
    the generator back where per-call draws would have left it, by restoring
    the block's starting state and redrawing the values taken.  A draw made
    on the generator directly while the stream is ahead would come out of
    order, so the next refill or sync raises StreamError instead.
    """

    __slots__ = ("_rng", "_block", "_pos", "_start", "_end")

    def __init__(self, rng):
        self._rng = rng
        self._block, self._pos = [], 0
        self._start = self._end = None  # the generator's state before and after the block

    def take(self, k: int) -> list:
        """The next ``k`` standard normals."""
        pos = self._pos
        end = pos + k
        if end <= len(self._block):
            self._pos = end
            return self._block[pos:end]
        if k > STREAM_BLOCK:  # drawn at once, with no block held
            return self.sync().standard_normal(k).tolist()
        head = self._block[pos:]
        self._check()
        bits = self._rng.bit_generator
        self._start = bits.state
        self._block = self._rng.standard_normal(STREAM_BLOCK).tolist()
        self._end = bits.state
        self._pos = k - len(head)
        return head + self._block[: self._pos]

    def normal(self, loc: float, scale: float, size: int) -> list:
        """``rng.normal(loc, scale, size)``, which is loc + scale * z for each
        standard normal z."""
        return [loc + scale * z for z in self.take(size)]

    def sync(self):
        """The generator, where per-call draws of the values taken would have left it."""
        if self._pos < len(self._block):
            self._check()
            self._rng.bit_generator.state = self._start
            self._rng.standard_normal(self._pos)
        self._block, self._pos = [], 0
        return self._rng

    def _check(self) -> None:
        if self._pos < len(self._block) and self._rng.bit_generator.state != self._end:
            raise StreamError(
                "the channel's generator was drawn from directly while its normal"
                " stream was ahead; draw through FiberChannel.rng or .normals"
            )


class FiberChannel:
    """Single-owner mutable channel state: accumulated rotation plus clock.

    ``quat`` is the rotation as a unit quaternion (x, y, z, w) of Python
    floats; each advance composes its steps onto it at once.  The walks draw
    from ``normals``, the NormalStream of ``rng``, in the order of per-call
    draws; so do the descent's kicks (``apc.compensation_step``).  Read the
    generator itself as ``rng``, which syncs the stream first; the window
    sampler, which draws after the link, does.
    """

    def __init__(
        self,
        schedule: DriftSchedule,
        rng: np.random.Generator,
        sim_time: float = 0.0,
        max_step_s: float = MAX_STEP_S,
    ):
        self._schedule = schedule
        self.normals = NormalStream(rng)
        self.sim_time = sim_time
        self._max_step_s = max_step_s
        self.quat = (0.0, 0.0, 0.0, 1.0)
        self._plans = {}  # duration: (n, dt) of its time rule
        self._stretch = (math.inf, -math.inf, None)  # (start, end, rate) of constant_stretch

    # read-only, as the cached plans and stretch hold for them
    schedule = property(lambda self: self._schedule, doc="The drift schedule.")
    max_step_s = property(lambda self: self._max_step_s, doc="The time rule's longest step.")

    @property
    def rng(self) -> np.random.Generator:
        """The generator, where per-call draws would have left it."""
        return self.normals.sync()

    def advance(self, duration: float) -> tuple:
        """Advance by ``duration``; the quaternion at its start.

        By the time rule the walk takes n = ``_walk_steps(duration,
        max_step_s)`` steps of dt = duration / n, each by an angle ~ N(0,
        rate * dt) about a uniform axis.  Where the rate stays constant over
        the advance, n is at least COARSE_MIN_STEPS and the advance's angle
        variance, rate * duration, fits in one step at DAY_RATE (DAY_RATE *
        max_step_s), it takes the two steps of ``_coarse_walk`` instead.  Any
        walk at DAY_RATE or faster keeps the time rule bit for bit.  The
        channel keeps (n, dt) per duration and the last constant-rate
        ``constant_stretch``, and asks the schedule again only when an
        advance leaves that stretch.
        """
        if not duration >= 0:
            raise ChannelError(f"duration must be >= 0, got {duration!r}")
        start = self.quat
        if duration > 0:
            plan = self._plans.get(duration)
            if plan is None:
                if len(self._plans) >= 64:  # capped as _step_grid's cache is
                    self._plans.clear()
                n = _walk_steps(duration, self._max_step_s)
                plan = self._plans[duration] = (n, duration / n)
            n, dt = plan
            t0, t1 = self.sim_time, self.sim_time + duration
            low, end, rate = self._stretch
            if not (low <= t0 and t1 < end):
                rate, end = self._schedule.constant_stretch(t0, t1)
                if rate is not None:
                    self._stretch = (t0, end, rate)
            if rate is None:
                self._walk(n, dt)
            # at DAY_RATE or faster, rate / DAY_RATE >= 1.0, so the product is
            # at least duration / max_step_s, over n - 1
            elif n >= COARSE_MIN_STEPS and rate / DAY_RATE * (duration / self._max_step_s) <= 1.0:
                self._coarse_walk(n, duration, rate)
            else:
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
        x, y, z, angle, *gaussian = self.normals.take(7)
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
        move the clock past them; the samples of ``rotation_walk``.  Step i
        takes normals 4i to 4i + 3 of the stream, its axis and its angle's.
        ``scale`` is the steps' sqrt(rate * dt), if the caller knows it."""
        if scale is None:
            scale = _step_scales(self._schedule, self.sim_time, n, dt)
        draws = self.normals.take(4 * n)
        axes = zip(draws[0::4], draws[1::4], draws[2::4])
        if isinstance(scale, float):
            angles = [a * scale for a in draws[3::4]]
        else:
            angles = [a * s for a, s in zip(draws[3::4], scale)]
        if sample_stride:  # sliced by the walk, which need not hold the draws as well
            axes, draws = list(axes), None
        self.sim_time += _step_grid(n, dt)[1]
        self.quat, samples = _kernels.rotation_walk(self.quat, axes, angles, sample_stride)
        return samples

    def probe_trace(self, input_sop: np.ndarray, duration: float, sample_dt: float):
        """Inject a probe SOP, a unit Stokes vector, and sample its output over time.

        Returns (times, stokes_out (n, 3), fidelity_vs_start (n,)), including
        the initial sample at t = sim_time.  Fidelity is relative to the
        output SOP at the start of the trace.
        """
        substeps, n_samples = _probe_grid(duration, sample_dt, self.max_step_s)
        t0, start = self.sim_time, self.quat
        samples = self._walk(n_samples * substeps, sample_dt / substeps, sample_stride=substeps)
        outs = quaternion_matrix(*np.array([start, *samples]).T) @ input_sop
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

    One float where the rate stays constant over the walk, else a list of one
    per step, read off ``rate_at`` at each step's start; the step times are
    summed in sequence from 0, as ``np.cumsum`` sums them.
    """
    rate = schedule.constant_rate(t0, t0 + _step_grid(n, dt)[0])
    if rate is not None:
        return math.sqrt(rate * dt)
    scales, t = [], 0.0
    for _ in range(n):
        scales.append(math.sqrt(schedule.rate_at(t0 + t) * dt))
        t += dt
    return scales


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

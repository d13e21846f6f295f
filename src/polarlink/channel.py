"""Time-varying fiber channel: rotation random walk with a drift schedule.

The channel's polarization transformation performs an isotropic angular
diffusion on SO(3): each step composes a rotation about a uniformly random
axis by an angle drawn from N(0, rate * dt), where the rate (rad^2/s) comes
from a day/night schedule with optional burst multipliers.  Loss is a scalar
in dB; there is no polarization-dependent loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .polmath import PolTransform, StokesVector

# Day-time diffusion rate (rad^2/s) calibrated so that the median fidelity of
# a transmitted SOP first drops below 0.95 at t = 20 s.  Night rate is 500x
# smaller, under which the SOP stays above 0.99 fidelity for tens of minutes.
DAY_RATE = 0.012714
NIGHT_RATE = DAY_RATE / 500.0
BURST_MULTIPLIER = 100.0

DEFAULT_LOSS_DB = 21.0  # 18 dB fiber + 3 dB connectors/components
MAX_STEP_S = 0.1  # longest single step of the walk

# Steps drawn per seed at a time by probe_crossing_times, so that its memory
# does not grow with the length of the walk.  At 200 seeds, 25 steps keep the
# peak memory of a calibration at that of one-seed-at-a-time walks (100 steps
# add about 3 MB) and are no slower.
_CHUNK_STEPS = 25


class ChannelError(ValueError):
    """Invalid channel or schedule configuration."""


@dataclass(frozen=True)
class Burst:
    """Temporary rate multiplier modelling a fast environmental transient."""

    start_s: float
    duration_s: float
    multiplier: float = BURST_MULTIPLIER

    def __post_init__(self):
        for name in ("duration_s", "multiplier"):
            if getattr(self, name) < 0:
                raise ChannelError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    def active(self, t: float) -> bool:
        return self.start_s <= t < self.start_s + self.duration_s


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
        starts = [s for s, _ in self.segments]
        if not starts or starts[0] != 0.0:
            raise ChannelError("first segment must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ChannelError("segment start times must be strictly increasing")
        if any(r < 0 for _, r in self.segments):
            raise ChannelError("rates must be >= 0")
        if starts[-1] >= self.period_s:
            raise ChannelError("segment starts must lie within the period")

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
        starts = np.array([s for s, _ in self.segments])
        rates = np.array([r for _, r in self.segments])
        idx = np.searchsorted(starts, phase, side="right") - 1
        out = rates[idx]
        for b in self.bursts:
            mask = (t >= b.start_s) & (t < b.start_s + b.duration_s)
            out = np.where(mask, out * b.multiplier, out)
        return out


@dataclass
class FiberChannel:
    """Single-owner mutable channel state: accumulated rotation plus clock."""

    schedule: DriftSchedule
    rng: np.random.Generator
    loss_db: float = DEFAULT_LOSS_DB
    transform: PolTransform = field(default_factory=PolTransform.identity)
    sim_time: float = 0.0
    max_step_s: float = MAX_STEP_S

    def __post_init__(self):
        if self.loss_db < 0:
            raise ChannelError("loss_db must be >= 0")
        if not (np.isfinite(self.max_step_s) and self.max_step_s > 0):
            raise ChannelError(f"max_step_s must be finite and > 0, got {self.max_step_s!r}")

    def transmittance(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)

    def step(self, dt: float) -> None:
        """Advance the walk by a single step of duration dt."""
        if dt <= 0:
            raise ChannelError("dt must be > 0")
        self._walk(np.array([dt]))

    def advance(self, duration: float) -> None:
        """Advance by ``duration``, subdividing into steps of at most max_step_s."""
        if duration <= 0:
            if duration < 0:
                raise ChannelError("duration must be >= 0")
            return
        n = max(1, int(np.ceil(duration / self.max_step_s)))
        self._walk(np.full(n, duration / n))

    def _walk(self, dts: np.ndarray, sample_stride: int = 0) -> np.ndarray:
        scale = _step_scales(self.schedule, self.sim_time, dts)
        axes, angles = _axes_and_angles(self.rng.standard_normal((len(dts), 4)), scale)
        final, samples = _kernels.rotation_walk(
            self.transform.rotation, axes, angles, sample_stride
        )
        self.transform = PolTransform(final)
        self.sim_time += float(np.sum(dts))
        return samples

    def probe_trace(self, input_sop: StokesVector, duration: float, sample_dt: float):
        """Inject a probe SOP and sample the transformed output over time.

        Returns (times, stokes_out (n, 3), fidelity_vs_start (n,)), including
        the initial sample at t = sim_time.  Fidelity is relative to the
        output SOP at the start of the trace.
        """
        substeps, n_samples = _probe_grid(duration, sample_dt, self.max_step_s)
        t0 = self.sim_time
        s_in = input_sop.as_array()
        first = self.transform.rotation @ s_in
        dts = np.full(n_samples * substeps, sample_dt / substeps)
        samples = self._walk(dts, sample_stride=substeps)
        outs = np.vstack([first, samples @ s_in])
        times = t0 + sample_dt * np.arange(n_samples + 1)
        fidelity = 0.5 * (1.0 + outs @ first)
        return times, outs, fidelity


def _step_scales(schedule: DriftSchedule, t0: float, dts: np.ndarray) -> np.ndarray:
    """sqrt(rate * dt) of consecutive walk steps of lengths ``dts`` from ``t0``."""
    times = t0 + np.concatenate(([0.0], np.cumsum(dts[:-1])))
    return np.sqrt(schedule.rate_at(times) * dts)


def _axes_and_angles(draws: np.ndarray, scale: np.ndarray):
    """Unit axes and angles of walk steps from one row of 4 normals per step.

    ``draws[..., :3]`` gives the axis direction (an all-zero row is left as a
    zero axis) and ``draws[..., 3] * scale`` the angle, where ``scale`` is
    sqrt(rate * dt) of each step.
    """
    axes = draws[..., :3]
    norms = np.linalg.norm(axes, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return axes / norms, draws[..., 3] * scale


def _probe_grid(duration: float, sample_dt: float, max_step_s: float):
    """(walk steps per sample, number of samples) of a probe trace."""
    if duration <= 0 or sample_dt <= 0:
        raise ChannelError("duration and sample_dt must be > 0")
    return max(1, int(np.ceil(sample_dt / max_step_s))), int(round(duration / sample_dt))


def probe_crossing_times(
    schedule: DriftSchedule,
    rngs,
    duration: float,
    sample_dt: float,
    threshold: float,
) -> np.ndarray:
    """First time each channel's H-probe fidelity drops below ``threshold``.

    Element j is ``first_crossing_time`` of the trace that
    ``FiberChannel(schedule, rngs[j]).probe_trace(H, duration, sample_dt)``
    gives, or NaN where that is None, from the same draws of ``rngs[j]``.
    Rather than each channel's 3x3 rotation it walks the probe's Stokes
    vector, one numpy step for the whole batch, and it stops once every
    channel has crossed.
    """
    substeps, n_samples = _probe_grid(duration, sample_dt, MAX_STEP_S)
    n_steps = n_samples * substeps
    dts = np.full(n_steps, sample_dt / substeps)
    scale = _step_scales(schedule, 0.0, dts)
    times = sample_dt * np.arange(n_samples + 1)
    # The output of the identity transform at t = 0 is H itself, fidelity 1.
    n = len(rngs)
    crossing = np.full(n, times[0] if 1.0 < threshold else np.nan)
    vx, vy, vz = np.ones(n), np.zeros(n), np.zeros(n)
    chunk = substeps * max(1, _CHUNK_STEPS // substeps)
    draws = np.empty((n, chunk, 4))
    for start in range(0, n_steps, chunk):
        if not np.isnan(crossing).any():
            break
        m = min(chunk, n_steps - start)
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=draws[j, :m])
        axes, angles = _axes_and_angles(draws[:, :m], scale[start : start + m])
        axes = np.ascontiguousarray(axes.transpose(1, 2, 0))  # (step, xyz, seed)
        angles = angles.T
        cos, sin = np.cos(angles), np.sin(angles)
        one_minus_cos = 1.0 - cos
        sampled_x = np.empty((m // substeps, n))
        for i in range(m):
            # Rodrigues: v <- v cos + (k x v) sin + k (k . v)(1 - cos)
            kx, ky, kz = axes[i]
            c, s = cos[i], sin[i]
            kv = one_minus_cos[i] * (kx * vx + ky * vy + kz * vz)
            vx, vy, vz = (
                c * vx + s * (ky * vz - kz * vy) + kv * kx,
                c * vy + s * (kz * vx - kx * vz) + kv * ky,
                c * vz + s * (kx * vy - ky * vx) + kv * kz,
            )
            if (i + 1) % substeps == 0:
                sampled_x[i // substeps] = vx
        # Fidelity against the initial output H is 0.5 * (1 + s1).
        below = 0.5 * (1.0 + sampled_x) < threshold
        new = below.any(axis=0) & np.isnan(crossing)
        crossing[new] = times[1 + start // substeps + below.argmax(axis=0)[new]]
    return crossing


def first_crossing_time(times: np.ndarray, fidelity: np.ndarray, threshold: float):
    """Time of the first fidelity sample below ``threshold``, or None."""
    below = np.nonzero(fidelity < threshold)[0]
    if below.size == 0:
        return None
    return float(times[below[0]])

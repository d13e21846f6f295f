"""Calibration of the day drift rate: a bisection over batched probe walks."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channel import MAX_STEP_S, _probe_grid

# Most calibration seeds; each holds a generator and a walk row in every
# bisection step.  At 2,000 seeds a calibration takes about 14 MB, and a step
# about 0.08 s, or 0.35 s where the walk runs all 800 samples (2-core x86-64).
MAX_CALIBRATE_SEEDS = 10**4

# Steps drawn per seed at a time by probe_crossing_times, so that its memory
# does not grow with the length of the walk: a step holds 4 normals and a
# 4 x 4 step matrix per seed, 32 KB at 200 seeds.
_CHUNK_STEPS = 25


class CalibrationError(RuntimeError):
    """Calibration search failed to converge."""


def _probe_s1_chunks(rate: float, rngs, duration: float):
    """s1 of each channel's H-probe output after each step, a chunk at a time.

    Yields (index of the chunk's first step, s1 array of shape (steps,
    channels)).  Column j takes the draws of ``rngs[j]`` that
    ``FiberChannel(DriftSchedule.constant(rate), rngs[j]).probe_trace(H,
    duration, MAX_STEP_S)`` takes, one MAX_STEP_S step per sample.  The
    channels' rotations are the columns of one (4, channels) array of unit
    quaternions (x, y, z, w); each walk step left-multiplies every column by
    the matrix of its step quaternion, one einsum for the whole batch, and s1
    is the rotation's R00, x² - y² - z² + w².
    """
    _, n_steps = _probe_grid(duration, MAX_STEP_S, MAX_STEP_S)
    scale = math.sqrt(rate * MAX_STEP_S)
    n, chunk = len(rngs), _CHUNK_STEPS
    draws = np.empty((n, chunk, 4))
    # Once a chunk's draws are spent on its step matrices, their buffer holds
    # the rotations after each of its steps.
    after = draws.reshape(chunk, 4, n)
    # left[i] holds, per channel, the matrix of q -> p q for step i's
    # quaternion p = (x, y, z, c), as _kernels._compose_steps multiplies:
    # rows [c, -z, y, x], [z, c, -x, y], [-y, x, c, z], [-x, -y, -z, c].
    left = np.empty((chunk, 4, 4, n))
    q = np.zeros((4, n))
    q[3] = 1.0
    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=draws[j, :m])
        # (step, channel) views; the draws are consumed in place
        x, y, z, half = draws[:, :m].transpose(2, 1, 0)
        half *= scale
        half *= 0.5
        norm = x * x
        norm += y * y
        norm += z * z
        np.sqrt(norm, out=norm)
        zero = norm == 0
        norm[zero] = 1.0
        half[zero] = 0.0  # an all-zero axis is the identity step
        step = left[:m]
        step[:, 0, 0] = step[:, 1, 1] = step[:, 2, 2] = step[:, 3, 3] = np.cos(half)
        s = np.divide(np.sin(half), norm, out=norm)
        x *= s
        y *= s
        z *= s
        step[:, 0, 3] = step[:, 2, 1] = x
        step[:, 0, 2] = step[:, 1, 3] = y
        step[:, 1, 0] = step[:, 2, 3] = z
        step[:, 1, 2] = step[:, 3, 0] = np.negative(x, out=x)
        step[:, 2, 0] = step[:, 3, 1] = np.negative(y, out=y)
        step[:, 0, 1] = step[:, 3, 2] = np.negative(z, out=z)
        rotation = q
        for i in range(m):
            rotation = np.einsum("ijn,jn->in", step[i], rotation, out=after[i])
        q[...] = rotation
        x, y, z, w = after[:m].transpose(1, 0, 2)
        s1 = x * x
        s1 -= y * y
        s1 -= z * z
        s1 += w * w
        yield start, s1


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


@lru_cache(maxsize=None)
def _pcg64_seed_type() -> type:
    """A seed sequence that holds the four uint64 words seeding one PCG64.

    Defined at first use: numpy imports ``numpy.random`` only when a run
    first reads it, and its import (about 14 ms) would otherwise be added to
    every run's start-up, calibrate or not.
    """

    class Pcg64Seed(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds the 4 uint64 words of one PCG64 seed only")
            return self.words

    return Pcg64Seed


def _hashmix(words: np.ndarray, h: int, mult: int) -> tuple:
    """numpy's hash of uint32 ``words`` under hash constant ``h``, and the next constant."""
    following = h * mult & _WORD
    value = (words ^ np.uint32(h)) * np.uint32(following)
    value ^= value >> 16
    return value, following


def spawned_generators(seed: int, n: int) -> list:
    """``[np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]``.

    The same generators in the same states, with numpy's SeedSequence
    arithmetic done once over all ``n`` children as uint32 arrays.  Child i's
    entropy is the parent's, zero-padded to the 4-word pool, then the word i,
    so its pool is the parent's pool mixed with i by one more round of 4
    hashmix/mix steps, whose hash constant goes on from where the parent's
    mixing stopped: 4 + 12 hashmix calls, and 4 more per seed word past the
    fourth.  Each child's PCG64 seed is then ``generate_state(4, np.uint64)``
    of that pool.
    """
    pool = np.random.SeedSequence(seed).pool
    seed_words = max(1, -(-int(seed).bit_length() // 32))
    h = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 1 << 32) & _WORD
    key = np.arange(n, dtype=np.uint32)
    mixed = np.empty((4, n), np.uint32)
    for i in range(4):  # mix(pool[i], hashmix(key))
        value, h = _hashmix(key, h, _MULT_A)
        value = np.uint32(_MIX_MULT_L * int(pool[i]) & _WORD) - value * np.uint32(_MIX_MULT_R)
        value ^= value >> 16
        mixed[i] = value
    state = np.empty((n, 8), np.uint32)
    h = _INIT_B
    for k in range(8):  # generate_state: the pool words in turn
        state[:, k], h = _hashmix(mixed[k % 4], h, _MULT_B)
    # word pairs as little-endian uint64, as generate_state joins them
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    seed_type = _pcg64_seed_type()
    return [np.random.Generator(np.random.PCG64(seed_type(row))) for row in seeds]


def probe_crossing_times(
    rate: float, rngs, duration: float, threshold: float, stop_after: int, horizon: float
) -> np.ndarray:
    """First time each channel's H-probe fidelity drops below ``threshold``.

    Element j is ``first_crossing_time`` of the trace that
    ``FiberChannel(DriftSchedule.constant(rate), rngs[j]).probe_trace(H,
    duration, MAX_STEP_S)`` gives, or NaN where that is None, from the same
    draws of ``rngs[j]``; ``threshold`` is at most 1, so the t = 0 sample
    never crosses.  The walk stops once ``stop_after`` channels have
    crossed; a channel that has not crossed by then reads NaN.  Since the
    walk goes forward in time, such a channel's crossing, if any, comes
    after every crossing it returns.

    It also stops after a chunk of samples whose last sample time is at or
    past ``horizon``, if fewer than n - n // 2 of the n channels have crossed
    by then: the (n - n // 2)-th crossing, and with it the median crossing
    time, lies past ``horizon``.
    """
    n = len(rngs)
    crossing = np.full(n, np.nan)
    for first, s1 in _probe_s1_chunks(rate, rngs, duration):
        # Fidelity against the initial output H is 0.5 * (1 + s1).
        below = 0.5 * (1.0 + s1) < threshold
        new = below.any(axis=0) & np.isnan(crossing)
        crossing[new] = MAX_STEP_S * (1 + first + below.argmax(axis=0)[new])
        crossed = np.count_nonzero(~np.isnan(crossing))
        end = MAX_STEP_S * (first + len(s1))
        if crossed >= stop_after or (end >= horizon and crossed < n - n // 2):
            break
    return crossing


def median_crossing_time(
    rate: float,
    threshold: float,
    n_seeds: int,
    max_time_s: float,
    seed: int,
    horizon: float = math.inf,
) -> float:
    """Median first time the probe fidelity drops below ``threshold``, if at most ``horizon``.

    Seeds that never cross within ``max_time_s`` count as ``max_time_s``.
    Returns the exact median when it is <= ``horizon``, and math.inf
    otherwise.  The walk stops once ``n_seeds // 2 + 1`` seeds have crossed:
    a seed still to cross crosses later, or counts as ``max_time_s``, which
    lies past every sample but the last, so the median is fixed bit for bit.
    It also stops at the horizon once the median lies past it; the median
    then reads ``max_time_s``, past the horizon unless the walk had ended.
    """
    rngs = spawned_generators(seed, n_seeds)
    times = probe_crossing_times(rate, rngs, max_time_s, threshold, n_seeds // 2 + 1, horizon)
    median = float(np.median(np.where(np.isnan(times), max_time_s, times)))
    return median if median <= horizon else math.inf


def bisect_day_rate(settings: dict, seed: int) -> tuple:
    """(day rate, its median crossing time) for a resolved ``calibrate`` block.

    Step i of the geometric bisection walks seeds spawned from ``seed + i``;
    a target fidelity of 1 needs no drift.  Raises CalibrationError if no
    step's median lands in the band.
    """
    target_fidelity, target_time = settings["target_fidelity"], settings["target_time_s"]
    if target_fidelity == 1.0:
        return 0.0, target_time
    max_time = 4.0 * target_time
    band = 0.5 * settings["tolerance"] * target_time
    # Past the horizon a median is above the band as the test below rounds
    # it: median - target_time is exact up to twice the target, and over
    # target_time > band beyond.  (target_time * (1 + tolerance / 2) can
    # round below a median in the band: 30.75 s at 30 s and 0.05.)
    horizon = target_time + band if band < target_time else math.inf
    lo, hi = 1e-5, 1.0
    for iteration in range(40):
        mid = float(np.sqrt(lo * hi))
        median = median_crossing_time(
            mid, target_fidelity, settings["n_seeds"], max_time, seed + iteration, horizon=horizon
        )
        if abs(median - target_time) <= band:
            return mid, median
        if median > target_time:
            lo = mid
        else:
            hi = mid
    last = f"{median:.2f} s" if median <= horizon else f"over {horizon:.2f} s"
    raise CalibrationError(
        f"calibration did not converge (last median {last} for target {target_time:.2f} s)"
    )

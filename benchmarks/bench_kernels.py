"""Benchmark the hot loops: the rotation walk, the channel's draws and more.

Also times one ``advance`` of the channel, one quaternion walk, at the link's
three advance lengths (a 0.12 s check cycle, a 0.96 s finite-difference block
and a 3 s uptime window) under the configs/longrun_stabilized.yaml schedule,
which starts at night, where the 3 s window walks as two coarse steps, and at
the day rate, where they take 2, 10 and 30 steps; each row prints the steps
walked and the advance's fixed cost: its µs per call less its steps times
the per-step time of a walk of at least 20,000 steps, the "rotation_walk"
row's if ``--walk-steps`` is that many (so the drawing of each step's
normals counts in it too).  It exits 1 if a day-rate advance takes other
than ``_walk_steps`` steps.  The "window"
row times a check cycle and an uptime window as ``run_link`` runs them; it
exits 1 if the rotations at the start of each advance differ by more than
1e-12 from those of a per-step matrix walk of the same draws, the oracle kept
here.  The "draws" row times one such window's normals (a 2-step and a
30-step walk at the day rate) drawn per call, one ``standard_normal`` call
per walk as the channel drew them before, against the channel's
``NormalStream``; it exits 1 if any value differs.  Also times
calibration's median crossing time (configs/calibrate.yaml sizes: 200 seeds,
80 s walks sampled every 0.1 s) as one batched numpy walk that stops once
the median is fixed, against the same walk run until every seed has crossed
and against the per-seed ``FiberChannel.probe_trace`` loop it replaced; it
exits 1 if the three medians differ at any of three (rate, seed) pairs, one
of them with a median of 80 s, or if the walk stopped at calibrate.yaml's
horizon of 20.5 s reads other than that median where it is at most 20.5 s,
and inf where it is over; the two reference walks build their generators
with numpy's ``SeedSequence.spawn``, so that check also covers
``spawned_generators``.  The "seed set" row times seed 3's three
calibration walks (rates 0.00316, 0.0562 and 0.01265, horizon 20.5 s) on
fresh generators for each walk and on one ``SeedSet``, whose later walks
read the normals the earlier ones drew, and exits 1 if any median differs.
The "spawn" row times building calibration's 200
generators, numpy's list against ``spawned_generators``, and exits 1 if any
generator's state differs.  And it times the window
sampler over the windows of configs/longrun_stabilized.yaml at seed 11, as
one batched ``simulate_window_counts`` call against a per-window
``port_rates`` loop, both drawing from a fresh generator of the same seed.  Exits 1 if a batched result differs from its per-seed
or per-window counterpart.  Last, it times one APC ``compensation_step``
(µs per call) over 1,000 random (channel, setting) pairs, each repeat on
fresh controllers, against ``tests/oracles.py``'s ``three_product_step``,
which takes central differences of the six-fidelity cost with every rotation
composed from three full ``compose_quat`` products; it exits 1 if any angle
a step leaves is over 1e-12 from the oracle's.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--walk-steps N] [--repeats R]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from polarlink import _kernels
from polarlink.channel import (
    COARSE_MIN_STEPS,
    DAY_RATE,
    MAX_STEP_S,
    DriftSchedule,
    FiberChannel,
    NormalStream,
    _step_grid,
    _step_scales,
    _walk_steps,
    first_crossing_time,
)
from polarlink.apc import ApcConfig, Controller, compensation_step
from polarlink.calibrate import (
    SeedSet,
    median_crossing_time,
    probe_crossing_times,
    spawned_generators,
)
from polarlink.cli import _resolved_duration, build_channel, build_link, load_config
from polarlink.polmath import PolTransform, quaternion_matrix
from polarlink.scheduler import run_link, simulate_window_counts
from polarlink.source import port_rates

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root, for tests/
from tests.oracles import three_product_step  # noqa: E402


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_rotation_walk(n_steps, repeats):
    draws = np.random.default_rng(0).standard_normal(4 * n_steps).tolist()
    scales = [0.01] * n_steps
    q0 = (0.0, 0.0, 0.0, 1.0)
    stride = max(1, n_steps // 100)
    return timeit(lambda: _kernels.rotation_walk(q0, draws, scales, stride), repeats)


def longrun_channel(seed=0):
    return build_channel(load_config("configs/longrun_stabilized.yaml"), np.random.default_rng(seed))


def day_channel():
    return FiberChannel(DriftSchedule.constant(DAY_RATE), np.random.default_rng(0))


def walked_steps(channel, duration):
    """Steps that ``channel.advance(duration)`` walks."""
    steps = []
    real = _kernels.rotation_walk
    _kernels.rotation_walk = lambda *args: steps.append(len(args[2])) or real(*args)
    try:
        channel.advance(duration)
    finally:
        _kernels.rotation_walk = real
    return sum(steps)


def bench_advance(make_channel, duration, calls, repeats):
    """(seconds per ``advance(duration)`` (one walk), best of ``repeats``;
    the steps of one such advance)."""
    channel = make_channel()
    steps = walked_steps(channel, duration)

    def walk():
        for _ in range(calls):
            channel.advance(duration)

    return timeit(walk, repeats) / calls, steps


def matrix_walk_rotations(legs, windows, seed=0):
    """Channel rotation at the start of each leg of ``windows`` windows, from
    the channel's draws, as a per-step walk of Rodrigues matrices."""
    channel, rng = longrun_channel(seed), np.random.default_rng(seed)
    rotation, t, out = np.eye(3), channel.sim_time, []
    for _ in range(windows):
        for duration in legs:
            out.append(rotation)
            n = _walk_steps(duration, MAX_STEP_S)
            rate = channel.schedule.constant_rate(t, t + duration)
            fits = rate is not None and rate / DAY_RATE * (duration / MAX_STEP_S) <= 1.0
            if fits and n >= COARSE_MIN_STEPS:
                # two coarse steps: an angle of variance v / sqrt(n) about a
                # uniform axis, then a Gaussian rotation vector of the rest
                draws, v = rng.standard_normal(7), rate * duration
                axes = np.array([draws[:3], draws[4:]])
                gauss = np.linalg.norm(draws[4:]) * np.sqrt((v - v / np.sqrt(n)) / 3)
                angles = [draws[3] * np.sqrt(v / np.sqrt(n)), gauss]
            else:
                scale = _step_scales(channel.schedule, t, n, duration / n)
                draws = rng.standard_normal((n, 4))
                axes, angles = draws[:, :3], draws[:, 3] * scale
            axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)
            for (x, y, z), angle in zip(axes, angles):
                c, s = np.cos(angle), np.sin(angle)
                k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
                step = c * np.eye(3) + s * k + (1.0 - c) * np.outer((x, y, z), (x, y, z))
                rotation = step @ rotation
            t += _step_grid(n, duration / n)[1]
    return out + [rotation]


def bench_window(calls, repeats, cycle_s=0.12, uptime_s=3.0):
    """Seconds per check cycle plus uptime window, as ``run_link`` advances the channel."""
    channel = longrun_channel()
    starts = []
    for _ in range(calls):
        starts.append(channel.advance(cycle_s))
        starts.append(channel.advance(uptime_s))
    starts.append(channel.quat)
    oracle = matrix_walk_rotations((cycle_s, uptime_s), calls)
    worst = np.abs(quaternion_matrix(*np.array(starts).T) - np.array(oracle)).max()
    if not worst <= 1e-12:
        sys.exit(f"quaternion and matrix walks differ by {worst:.3g}")
    channel = longrun_channel()

    def windows():
        for _ in range(calls):
            channel.advance(cycle_s)
            channel.advance(uptime_s)

    return timeit(windows, repeats) / calls


# The walks of a check cycle and an uptime window at the day rate.
WINDOW_STEPS = (2, 30)


def per_call_draws(rng, windows):
    """The normals of ``windows`` windows' walks, four per step, one
    ``standard_normal`` call per walk."""
    return [rng.standard_normal(4 * n).tolist() for _ in range(windows) for n in WINDOW_STEPS]


def stream_draws(stream, windows):
    """The same from a ``NormalStream``, as ``FiberChannel._walk`` hands them to the walk."""
    return [stream.take(4 * n) for _ in range(windows) for n in WINDOW_STEPS]


def bench_draws(windows, repeats):
    """Seconds per window of the walks' draws, per call and from the stream."""
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    stream = NormalStream(rng)
    got, expected = stream_draws(stream, windows), per_call_draws(twin, windows)
    if got != expected:
        sys.exit("the stream's normals differ from per-call draws")
    per_call = timeit(lambda: per_call_draws(twin, windows), repeats) / windows
    streamed = timeit(lambda: stream_draws(stream, windows), repeats) / windows
    steps = sum(WINDOW_STEPS)
    print(
        f"{'draws':<16} n={steps:<9} per call {per_call * 1e6:6.2f} us per window"
        f"   stream {streamed * 1e6:6.2f} us per window   speedup {per_call / streamed:6.1f}x"
    )


def numpy_spawned_generators(seed, n):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


def per_seed_median_crossing_time(rate, threshold, n_seeds, max_time_s, seed):
    """One ``FiberChannel.probe_trace`` per seed, as calibration walked before batching."""
    sched = DriftSchedule.constant(rate)
    times = []
    for rng in numpy_spawned_generators(seed, n_seeds):
        ch = FiberChannel(sched, rng)
        t, _, fid = ch.probe_trace(np.array([1.0, 0.0, 0.0]), max_time_s, MAX_STEP_S)
        crossing = first_crossing_time(t, fid, threshold)
        times.append(crossing if crossing is not None else max_time_s)
    return float(np.median(times))


def full_walk_median_crossing_time(rate, threshold, n_seeds, max_time_s, seed):
    """``median_crossing_time`` with the batched walk run until every seed has crossed."""
    rngs = numpy_spawned_generators(seed, n_seeds)
    times = probe_crossing_times(rate, rngs, max_time_s, threshold, len(rngs), math.inf)
    return float(np.median(np.where(np.isnan(times), max_time_s, times)))


def bench_median_crossing(n_seeds, repeats):
    # (rate, seed): the day rate at calibrate.yaml's seed; a rate at which about two
    # thirds of the seeds cross within 80 s; and one at which under a third do, so
    # that the median is 80 s
    cases = ((DAY_RATE, 3), (DAY_RATE / 3, 4), (DAY_RATE / 6, 5))
    for rate, seed in cases:
        args = (rate, 0.95, n_seeds, 80.0, seed)
        early, full = median_crossing_time(*args), full_walk_median_crossing_time(*args)
        if not early == full == per_seed_median_crossing_time(*args):
            sys.exit(f"early-stopped, full and per-seed walks disagree: rate {rate:g}, seed {seed}")
        # calibrate.yaml's horizon: the top of its band, 20 s + 0.05 * 20 s / 2
        if median_crossing_time(*args, horizon=20.5) != (full if full <= 20.5 else math.inf):
            sys.exit(f"the walk stopped at the horizon misreads the median: rate {rate:g}, seed {seed}")
    args = (DAY_RATE, 0.95, n_seeds, 80.0, 3)
    per_seed = timeit(lambda: per_seed_median_crossing_time(*args), repeats)
    full = timeit(lambda: full_walk_median_crossing_time(*args), repeats)
    early = timeit(lambda: median_crossing_time(*args), repeats)
    print(
        f"{'median_crossing':<16} n={n_seeds:<9} per-seed {per_seed * 1e3:7.2f} ms"
        f"   batched full walk {full * 1e3:7.2f} ms   stopped at the median {early * 1e3:7.2f} ms"
        f"   speedup {per_seed / early:6.1f}x"
    )


# The rates of configs/calibrate.yaml's three median walks at seed 3.
SEED_3_RATES = (0.00316, 0.0562, 0.01265)


def bench_seed_set(n_seeds, repeats):
    """Seed 3's calibration walks, on fresh generators each and on one shared SeedSet."""

    def walks(shared):
        seed_set = SeedSet(3, n_seeds) if shared else None
        return [
            median_crossing_time(rate, 0.95, n_seeds, 80.0, 3, horizon=20.5, seed_set=seed_set)
            for rate in SEED_3_RATES
        ]

    if walks(True) != walks(False):
        sys.exit("walks on a shared seed set and on fresh generators give different medians")
    fresh = timeit(lambda: walks(False), repeats)
    shared = timeit(lambda: walks(True), repeats)
    print(
        f"{'seed set':<16} n={n_seeds:<9} fresh {fresh * 1e3:7.2f} ms"
        f"   shared {shared * 1e3:7.2f} ms   speedup {fresh / shared:6.1f}x"
    )


def bench_spawn(n_seeds, repeats):
    """Calibration's per-seed generators: numpy's spawn list against one vectorised pass."""
    for seed in (0, 3, 2**128):
        got, expected = spawned_generators(seed, n_seeds), numpy_spawned_generators(seed, n_seeds)
        if [g.bit_generator.state for g in got] != [g.bit_generator.state for g in expected]:
            sys.exit(f"spawned_generators differs from numpy's spawn at seed {seed}")
    per_child = timeit(lambda: numpy_spawned_generators(3, n_seeds), repeats)
    vectorised = timeit(lambda: spawned_generators(3, n_seeds), repeats)
    print(
        f"{'spawn':<16} n={n_seeds:<9} numpy {per_child * 1e3:7.2f} ms"
        f"   vectorised {vectorised * 1e3:7.2f} ms   speedup {per_child / vectorised:6.1f}x"
    )


def bench_compensation_step(n_pairs, repeats):
    """One descent step on random (channel, setting) pairs, against the step
    that takes central differences of the six-fidelity cost."""
    rng = np.random.default_rng(0)
    channels = rng.normal(size=(n_pairs, 4))
    channels /= np.linalg.norm(channels, axis=1)[:, None]
    channels = [tuple(q) for q in channels.tolist()]
    settings = rng.uniform(-np.pi, np.pi, (n_pairs, 4))
    cfg = ApcConfig()

    def still_channels():
        out = []
        for i, q in enumerate(channels):
            out.append(FiberChannel(DriftSchedule.constant(0.0), np.random.default_rng(i)))
            out[-1].quat = q
        return out

    pairs = zip(still_channels(), still_channels(), settings)
    for i, (ch, expected_ch, p) in enumerate(pairs):
        got, expected = Controller(p), Controller(p)
        compensation_step(ch, got, cfg)
        three_product_step(expected_ch, expected, cfg)
        if np.abs(np.subtract(got.params, expected.params)).max() > 1e-12:
            sys.exit(f"compensation_step is over 1e-12 from the central-difference step at pair {i}")

    def steps(step):
        # a step moves its controller, so each repeat steps fresh ones
        best = math.inf
        for _ in range(repeats):
            ctrls = [Controller(p) for p in settings]
            chs = still_channels()
            t0 = time.perf_counter()
            for ch, ctrl in zip(chs, ctrls):
                step(ch, ctrl, cfg)
            best = min(best, time.perf_counter() - t0)
        return best / n_pairs

    closed_form, differences = steps(compensation_step), steps(three_product_step)
    print(
        f"{'compensation_step':<16} n={n_pairs:<9} differences {differences * 1e6:6.1f} us/call"
        f"   closed form {closed_form * 1e6:6.1f} us/call"
        f"   speedup {differences / closed_form:6.1f}x"
    )


def per_window_counts(windows, src, chain, sched_cfg, rng, noiseless=False):
    """The per-window loop the batched sampler replaced: one ``port_rates``
    call and one Poisson draw per window."""
    out = []
    for w in windows:
        idler = PolTransform.trusted(quaternion_matrix(*w.idler_quat))
        mean = port_rates(src, chain, *w.setting, idler) * sched_cfg.measure_window_s
        out.append(mean if noiseless else rng.poisson(mean))
    return np.array(out).reshape(-1, 4)


def bench_sampler(repeats):
    """The window sampler over a 23 h stabilized link's windows."""
    cfg = load_config("configs/longrun_stabilized.yaml")
    ch, src, chain, apc_cfg, sched_cfg = build_link(cfg, np.random.default_rng(11))
    windows = run_link(ch, Controller(), apc_cfg, sched_cfg, _resolved_duration(cfg))

    def sample(sampler, noiseless):
        return sampler(windows, src, chain, sched_cfg, np.random.default_rng(11), noiseless)

    for noiseless in (True, False):
        if not np.array_equal(
            sample(simulate_window_counts, noiseless), sample(per_window_counts, noiseless)
        ):
            sys.exit(f"batched and per-window samplers disagree (noiseless={noiseless})")
    n = len(windows)
    per_window = timeit(lambda: sample(per_window_counts, False), repeats) / n
    batched = timeit(lambda: sample(simulate_window_counts, False), repeats) / n
    print(
        f"{'window_counts':<16} n={n:<9} per-window {per_window * 1e6:6.2f} us/window"
        f"   batched {batched * 1e6:6.2f} us/window   speedup {per_window / batched:6.1f}x"
    )


# Fewest steps of the walk that gives the advance rows their per-step time.
STEP_TIME_MIN_STEPS = 20_000


def report(name, size, seconds):
    print(f"{name:<16} n={size:<9} python {seconds * 1e3:9.2f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--walk-steps", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    walk_seconds = bench_rotation_walk(args.walk_steps, args.repeats)
    report("rotation_walk", args.walk_steps, walk_seconds)
    # the per-step time of a long walk, which its per-call cost does not skew
    if args.walk_steps < STEP_TIME_MIN_STEPS:
        step_seconds = bench_rotation_walk(STEP_TIME_MIN_STEPS, args.repeats) / STEP_TIME_MIN_STEPS
    else:
        step_seconds = walk_seconds / args.walk_steps
    for label, make_channel in (("night", longrun_channel), ("day", day_channel)):
        for duration in (0.12, 0.96, 3.0):
            seconds, steps = bench_advance(make_channel, duration, 1000, args.repeats)
            fixed = seconds - steps * step_seconds
            name = f"advance {label}"
            print(
                f"{name:<16} n={steps:<9} {duration:g} s walk  {seconds * 1e6:7.1f} us per call"
                f"   fixed {fixed * 1e6:5.1f} us"
            )
            if label == "day" and steps != _walk_steps(duration, MAX_STEP_S):
                sys.exit(f"a {duration:g} s advance at the day rate walked {steps} steps")
    channel = longrun_channel()
    steps = walked_steps(channel, 0.12) + walked_steps(channel, 3.0)
    seconds = bench_window(1000, args.repeats)
    print(f"{'window':<16} n={steps:<9} 0.12 s + 3 s  {seconds * 1e6:7.1f} us per window")
    bench_draws(1000, args.repeats)
    bench_median_crossing(200, args.repeats)
    bench_seed_set(200, args.repeats)
    bench_spawn(200, args.repeats)
    bench_sampler(args.repeats)
    bench_compensation_step(1000, args.repeats)


if __name__ == "__main__":
    main()

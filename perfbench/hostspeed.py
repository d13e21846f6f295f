"""Host-speed sampling, to take the host's own speed swings out of op times.

On the shared 2-core VM this benchmark was built on, the same op ran at
speeds up to 2.3x apart, in slow and fast phases lasting from under a second
to a minute, with CPU time equal to wall time.  The median op time of 35 s
runs spread by 14-35 % (quartile distance over median) between runs, more
than any bound worth setting.

While ops run, SIGALRM fires every SAMPLE_INTERVAL_S and the handler times a
fixed probe loop with the ops' instruction mix (a Python loop over small
numpy arrays, no polarlink code, so no change to the program moves it).  An
op's time minus the probe time inside it, divided by its slowdown (the mean
probe time during the op over PROBE_NOMINAL_S), is the op's time on a host
running at the probe's nominal speed.  For six identical calibrate ops that
ran 11.2 s to 17.1 s, the scaled times were 8.7 s to 9.2 s.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PROBE_ITERATIONS = 6000
PROBE_NOMINAL_S = 0.015  # probe time on a quiet host (Xeon, Python 3.11, numpy 2.4)
SAMPLE_INTERVAL_S = 0.5
MIN_SAMPLES = 4


def probe_seconds() -> float:
    """CPU seconds of the calling thread for a fixed loop of 3x3 rotations.

    CPU time, not wall time: with pool threads running, the wall time would
    include time the probe waited for the interpreter lock.
    """
    r = np.eye(3)
    start = time.thread_time()
    for i in range(PROBE_ITERATIONS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        r = np.array(((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))) @ r
    return time.thread_time() - start


class Sampler:
    """Appends a probe time to ``samples`` SAMPLE_INTERVAL_S after the last one.

    The probe runs in the main thread from the signal handler, between two
    bytecodes of whatever the main thread is doing.
    """

    def __init__(self, samples: list[float]):
        self.samples = samples
        self.active = False

    def _on_alarm(self, signum, frame):
        # An alarm already pending when __exit__ ran lands here after it.
        if not self.active:
            return
        self.samples.append(probe_seconds())
        # Re-armed after the probe, so a slow probe never nests in itself.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def slowdown(probes) -> float:
    return sum(probes) / len(probes) / PROBE_NOMINAL_S


def scaled_seconds(wall_s: float, samples: list[float], first: int, last: int) -> float:
    """An op's time at the probe's nominal speed.

    ``samples[first:last]`` were taken during the op.  Their probe time is
    removed from the op's wall time, and the rest divided by the slowdown of
    those samples, widened to the samples on either side until there are
    MIN_SAMPLES: one or two samples in a short op are too noisy alone.
    """
    lo, hi = first, last
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
        lo = max(0, lo - 1)
        if hi - lo < MIN_SAMPLES:
            hi = min(len(samples), hi + 1)
    return (wall_s - sum(samples[first:last])) / slowdown(samples[lo:hi])

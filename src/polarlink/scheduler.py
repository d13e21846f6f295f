"""Time-multiplexed link scheduler: compensation sessions alternate with
fixed uptime windows, with the channel drifting continuously throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .apc import OUTCOME_TIMEOUT, ApcConfig, Controller, SessionRecord, run_session
from .channel import FiberChannel
from .polmath import CANONICAL_CHSH_ANGLES, compose_quat, quaternion_matrix
from .source import DetectionChain, PairSource, coincidence_rates

# Most windows of one duration-limited link; each is kept as a Window.
MAX_WINDOWS = 10**5


class SchedulerError(ValueError):
    """Invalid link duration, or a link over MAX_WINDOWS windows."""


@dataclass(frozen=True)
class SchedulerConfig:
    uptime_window_s: float = 3.0
    measure_window_s: float = 2.0
    stabilized: bool = True


class Window(NamedTuple):
    """One compensation session and the uptime window that follows it.

    The window runs from ``start_s``, the end of the session, to ``end_s``;
    ``setting`` is its (signal, idler) analyzer pair and ``idler_quat`` the
    quaternion (x, y, z, w) of the idler transform, controller after channel,
    at its start, against which its counts are taken.
    """

    session: SessionRecord
    start_s: float
    end_s: float
    setting: tuple
    idler_quat: tuple

    @property
    def post_timeout(self) -> bool:
        """Whether the window follows a session that timed out."""
        return self.session.outcome == OUTCOME_TIMEOUT


def run_link(
    ch: FiberChannel,
    ctrl: Controller,
    apc_cfg: ApcConfig,
    sched_cfg: SchedulerConfig,
    duration: float,
    plan=None,
) -> list[Window]:
    """Alternate [compensation session -> uptime window] until ``duration``.

    ``plan`` yields the (signal, idler) analyzer pair of each window, by
    default CHSH_WINDOW_SETTINGS over and over; the link also stops when it
    runs out.  With stabilized=False the sessions still measure fidelities
    (one check cycle, for logging) but never actuate the controller.
    Without a plan, ``_window_cap`` refuses ``duration`` before the link starts.
    The descent's kicks draw from the channel's stream, in order with its walks.
    """
    if duration < 0:
        raise SchedulerError("duration must be >= 0")
    if plan is None:
        _window_cap(duration, sched_cfg.uptime_window_s, apc_cfg.cycle_time_s)
    t0 = ch.sim_time
    windows = []
    for setting in itertools.cycle(CHSH_WINDOW_SETTINGS) if plan is None else plan:
        if ch.sim_time - t0 >= duration:
            break
        record = run_session(ch, ctrl, apc_cfg, actuate=sched_cfg.stabilized)
        start = ch.sim_time
        idler = compose_quat(ctrl.quat, ch.advance(sched_cfg.uptime_window_s))
        windows.append(Window(record, start, ch.sim_time, setting, idler))
    return windows


def _window_cap(duration: float, uptime_window_s: float, cycle_time_s: float) -> None:
    """Refuse a ``duration`` that could hold more than MAX_WINDOWS windows, each
    at least one check cycle plus the uptime window long."""
    shortest = uptime_window_s + cycle_time_s
    if not duration / shortest <= MAX_WINDOWS:
        raise SchedulerError(
            f"{duration:g} s in windows of at least {shortest:g} s is over {MAX_WINDOWS:,} windows"
        )


def uptime_fraction(windows: list[Window]) -> float:
    if not windows:
        raise SchedulerError("uptime_fraction of an empty link")
    up = sum(w.end_s - w.start_s for w in windows)
    return up / (windows[-1].end_s - windows[0].session.start_time_s)


# Analyzer pairs (signal, idler) measured in windows 0..3 of each CHSH group,
# ordered as E(a,b), E(a,b'), E(a',b), E(a',b').
CHSH_WINDOW_SETTINGS = (
    (CANONICAL_CHSH_ANGLES[0], CANONICAL_CHSH_ANGLES[2]),
    (CANONICAL_CHSH_ANGLES[0], CANONICAL_CHSH_ANGLES[3]),
    (CANONICAL_CHSH_ANGLES[1], CANONICAL_CHSH_ANGLES[2]),
    (CANONICAL_CHSH_ANGLES[1], CANONICAL_CHSH_ANGLES[3]),
)


def simulate_window_counts(
    windows: list[Window],
    src: PairSource,
    chain: DetectionChain,
    sched_cfg: SchedulerConfig,
    rng: np.random.Generator,
    noiseless: bool = False,
) -> np.ndarray:
    """Four-port counts (pass/pass, pass/fail, fail/pass, fail/fail) of every
    window at its analyzer pair, one row per window: shape (W, 4).

    Counts are Poisson samples, or their exact means when ``noiseless``, at
    each window's ``idler_quat``.  All means come from one whole-array
    pass and all counts from one ``rng.poisson`` call, which draws the same
    stream as one call per window would.
    """
    # The reshapes give a link without windows (0, 3, 3) and (0, 2, 3) stacks.
    rotations = quaternion_matrix(*np.array([w.idler_quat for w in windows]).reshape(-1, 4).T)
    # Each distinct analyzer setting's Stokes pair is built once.
    index: dict = {}
    signal = [index.setdefault(w.setting[0], len(index)) for w in windows]
    idler = [index.setdefault(w.setting[1], len(index)) for w in windows]
    pairs = np.array([s.stokes_pair() for s in index]).reshape(-1, 2, 3)
    rates = coincidence_rates(src, chain, rotations, pairs[signal], pairs[idler])
    means = rates * sched_cfg.measure_window_s
    return means if noiseless else rng.poisson(means)


def write_timeline_csv(path, windows: list[Window]) -> None:
    """A ``compensation`` row and an ``uptime`` row per window, lines ending
    in CRLF as ``csv.writer``'s do."""
    rows = []
    for w in windows:
        s, start = w.session, f"{w.start_s:.6f}"
        rows.append(
            f"{s.start_time_s:.6f},{start},compensation,{s.outcome},{s.min_fidelity_after:.9f}\r\n"
            f"{start},{w.end_s:.6f},uptime,,\r\n"
        )
    with open(path, "w", newline="") as f:
        f.write("start_s,end_s,kind,outcome,min_f_after\r\n")
        f.write("".join(rows))

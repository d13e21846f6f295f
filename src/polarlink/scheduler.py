"""Time-multiplexed link scheduler: compensation sessions alternate with
fixed uptime windows, with the channel drifting continuously throughout.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .apc import OUTCOME_TIMEOUT, ApcConfig, Controller, SessionRecord, run_session
from .channel import FiberChannel
from .polmath import CANONICAL_CHSH_ANGLES, PolTransform
from .source import DetectionChain, PairSource, port_rates

KIND_COMPENSATION = "compensation"
KIND_UPTIME = "uptime"

# Most windows of one duration-limited link; each is kept as a TimelineEntry.
MAX_WINDOWS = 10**5


class SchedulerError(ValueError):
    """Invalid scheduler configuration or timeline."""


@dataclass(frozen=True)
class SchedulerConfig:
    uptime_window_s: float = 3.0
    measure_window_s: float = 2.0
    stabilized: bool = True

    def __post_init__(self):
        if not 0.0 < self.measure_window_s <= self.uptime_window_s:
            raise SchedulerError(
                f"measure_window_s must be in (0, uptime_window_s], got {self.measure_window_s!r}"
            )


@dataclass(frozen=True)
class TimelineEntry:
    start_s: float
    end_s: float
    kind: str
    session: SessionRecord | None = None
    # An uptime window's (signal, idler) analyzer pair and the idler transform,
    # controller after channel, at its start, against which its counts are taken.
    idler_transform: PolTransform | None = None
    setting: tuple | None = None


@dataclass(frozen=True)
class LinkTimeline:
    entries: tuple

    def __post_init__(self):
        prev_end = None
        prev_kind = None
        for e in self.entries:
            if prev_end is not None and abs(e.start_s - prev_end) > 1e-9:
                raise SchedulerError("timeline entries must be contiguous")
            if e.kind == prev_kind:
                raise SchedulerError("timeline kinds must strictly alternate")
            prev_end, prev_kind = e.end_s, e.kind

    def span(self) -> float:
        return self.entries[-1].end_s - self.entries[0].start_s if self.entries else 0.0

    def sessions(self) -> list[SessionRecord]:
        return [e.session for e in self.entries if e.kind == KIND_COMPENSATION]

    def uptime_windows(self) -> list[TimelineEntry]:
        return [e for e in self.entries if e.kind == KIND_UPTIME]


def run_link(
    ch: FiberChannel,
    ctrl: Controller,
    apc_cfg: ApcConfig,
    sched_cfg: SchedulerConfig,
    duration: float,
    rng: np.random.Generator,
    plan=None,
) -> LinkTimeline:
    """Alternate [compensation session -> uptime window] until ``duration``.

    ``plan`` yields the (signal, idler) analyzer pair of each window, by
    default CHSH_WINDOW_SETTINGS over and over; the link also stops when it
    runs out.  With stabilized=False the sessions still measure fidelities
    (one check cycle, for logging) but never actuate the controller.

    Without a plan, a ``duration`` that could hold more than MAX_WINDOWS
    windows, each at least one check cycle plus the uptime window long, is
    refused before the link starts.
    """
    if duration < 0:
        raise SchedulerError("duration must be >= 0")
    shortest = sched_cfg.uptime_window_s + apc_cfg.cycle_time_s
    if plan is None and not duration / shortest <= MAX_WINDOWS:
        raise SchedulerError(
            f"{duration:g} s in windows of at least {shortest:g} s is over {MAX_WINDOWS:,} windows"
        )
    t0 = ch.sim_time
    entries = []
    for setting in itertools.cycle(CHSH_WINDOW_SETTINGS) if plan is None else plan:
        if ch.sim_time - t0 >= duration:
            break
        record = run_session(ch, ctrl, apc_cfg, rng, actuate=sched_cfg.stabilized)
        entries.append(
            TimelineEntry(record.start_time_s, ch.sim_time, KIND_COMPENSATION, session=record)
        )
        window_start = ch.sim_time
        idler = PolTransform.trusted(ctrl.to_transform().rotation @ ch.transform.rotation)
        ch.advance(sched_cfg.uptime_window_s)
        entries.append(
            TimelineEntry(
                window_start, ch.sim_time, KIND_UPTIME, idler_transform=idler, setting=setting
            )
        )
    return LinkTimeline(tuple(entries))


def uptime_fraction(timeline: LinkTimeline) -> float:
    if not timeline.entries:
        raise SchedulerError("uptime_fraction of an empty timeline")
    up = sum(e.end_s - e.start_s for e in timeline.entries if e.kind == KIND_UPTIME)
    return up / timeline.span()


@dataclass(frozen=True)
class WindowCounts:
    """Port coincidence counts taken in one uptime window.

    ``setting`` is the window's (signal, idler) analyzer pair; ``counts``
    holds (pass/pass, pass/fail, fail/pass, fail/fail).
    """

    window_start_s: float
    setting: tuple
    counts: np.ndarray
    duration_s: float
    post_timeout: bool
    min_ref_fidelity: float
    compensation_time_s: float


# Analyzer pairs (signal, idler) measured in windows 0..3 of each CHSH group,
# ordered as E(a,b), E(a,b'), E(a',b), E(a',b').
CHSH_WINDOW_SETTINGS = (
    (CANONICAL_CHSH_ANGLES[0], CANONICAL_CHSH_ANGLES[2]),
    (CANONICAL_CHSH_ANGLES[0], CANONICAL_CHSH_ANGLES[3]),
    (CANONICAL_CHSH_ANGLES[1], CANONICAL_CHSH_ANGLES[2]),
    (CANONICAL_CHSH_ANGLES[1], CANONICAL_CHSH_ANGLES[3]),
)


def simulate_window_counts(
    timeline: LinkTimeline,
    src: PairSource,
    chain: DetectionChain,
    sched_cfg: SchedulerConfig,
    rng: np.random.Generator,
    noiseless: bool = False,
) -> list[WindowCounts]:
    """Four-port counts of every uptime window at its analyzer pair.

    Counts are Poisson samples, or their exact means when ``noiseless``, at
    each window's ``idler_transform``.
    """
    out = []
    for session, window in zip(timeline.sessions(), timeline.uptime_windows()):
        rates = port_rates(src, chain, *window.setting, window.idler_transform)
        mean = rates * sched_cfg.measure_window_s
        out.append(
            WindowCounts(
                window_start_s=window.start_s,
                setting=window.setting,
                counts=mean if noiseless else rng.poisson(mean),
                duration_s=sched_cfg.measure_window_s,
                post_timeout=session.outcome == OUTCOME_TIMEOUT,
                min_ref_fidelity=session.min_fidelity_after,
                compensation_time_s=session.duration_s,
            )
        )
    return out


def write_timeline_csv(path, timeline: LinkTimeline) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["start_s", "end_s", "kind", "outcome", "min_f_after"])
        for e in timeline.entries:
            outcome = e.session.outcome if e.session else ""
            min_f = f"{e.session.min_fidelity_after:.9f}" if e.session else ""
            writer.writerow([f"{e.start_s:.6f}", f"{e.end_s:.6f}", e.kind, outcome, min_f])

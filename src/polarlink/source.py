"""Entangled-pair source, detection chain, time tagging and coincidences.

Two simulation fidelities are provided: rate-level (Poisson counts per
analyzer setting, used by the scheduler and analysis pipeline) and tag-level
(full timestamp streams, used to validate the coincidence engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .polmath import AnalyzerSetting, PolTransform, TwoQubitPolState, coincidence_probs

DEFAULT_PAIR_RATE = 2e5  # locally detected pairs/s
DEFAULT_DETECTOR_EFFICIENCY = 0.70
DEFAULT_COINCIDENCE_WINDOW = 1.6e-9  # s
TIME_RESOLUTION = 1e-12  # tag quantization, s


class SourceError(ValueError):
    """Invalid time-tag stream or tag-level argument."""


@dataclass(frozen=True)
class PairSource:
    local_pair_rate: float = DEFAULT_PAIR_RATE
    state: TwoQubitPolState = field(default_factory=lambda: TwoQubitPolState(1.0))


@dataclass(frozen=True)
class DetectionChain:
    idler_transmittance: float = 1.0
    signal_efficiency: float = DEFAULT_DETECTOR_EFFICIENCY
    idler_efficiency: float = DEFAULT_DETECTOR_EFFICIENCY
    dark_rate: float = 0.0
    coincidence_window: float = DEFAULT_COINCIDENCE_WINDOW


@dataclass(frozen=True)
class TimeTagStream:
    """Sorted arrival times for one detector channel."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1:
            raise SourceError("times must be a 1-d array")
        if t.size > 1 and np.any(np.diff(t) < 0):
            raise SourceError("time tags must be non-decreasing")
        object.__setattr__(self, "times", t)


def singles_rates(src: PairSource, chain: DetectionChain) -> tuple[float, float]:
    """Detected singles rates (signal, idler) behind the analyzers.

    Each analyzer passes half of an unpolarized marginal; dark counts add on
    top.  Used only for the accidental-coincidence estimate.
    """
    r_s = 0.5 * src.local_pair_rate * chain.signal_efficiency + chain.dark_rate
    r_i = (
        0.5 * src.local_pair_rate * chain.idler_transmittance * chain.idler_efficiency
        + chain.dark_rate
    )
    return r_s, r_i


def accidental_rate(src: PairSource, chain: DetectionChain) -> float:
    r_s, r_i = singles_rates(src, chain)
    return r_s * r_i * chain.coincidence_window


def coincidence_rates(
    src: PairSource,
    chain: DetectionChain,
    rotations: np.ndarray,
    a_pairs: np.ndarray,
    b_pairs: np.ndarray,
) -> np.ndarray:
    """Port coincidence rates (pp, pf, fp, ff) of W windows, shape (W, 4).

    The stacks are those of ``polmath.coincidence_probs``.  The factor 2
    normalizes against the signal analyzer projection: summing the idler's
    two output ports at matched bases recovers the full transmitted-pair
    rate.  Accidentals are added on top.
    """
    p = coincidence_probs(src.state.visibility, rotations, a_pairs, b_pairs)
    prefactor = (
        src.local_pair_rate
        * chain.idler_transmittance
        * chain.signal_efficiency
        * chain.idler_efficiency
        * 2.0
    )
    return prefactor * p + accidental_rate(src, chain)


def port_rates(
    src: PairSource,
    chain: DetectionChain,
    a: AnalyzerSetting,
    b: AnalyzerSetting,
    idler_transform: PolTransform | None = None,
) -> np.ndarray:
    """Rates for the four port combinations (pp, pf, fp, ff): one row of
    ``coincidence_rates``."""
    r = np.eye(3) if idler_transform is None else idler_transform.rotation
    return coincidence_rates(src, chain, r[None], a.stokes_pair()[None], b.stokes_pair()[None])[0]


def expected_coincidence_rate(
    src: PairSource,
    chain: DetectionChain,
    a: AnalyzerSetting,
    b: AnalyzerSetting,
    idler_transform: PolTransform | None = None,
) -> float:
    """Expected single-port coincidence rate at analyzer settings (a, b)."""
    return float(port_rates(src, chain, a, b, idler_transform)[0])


def generate_timetags(rate: float, duration: float, rng: np.random.Generator) -> TimeTagStream:
    """Homogeneous Poisson process: exponential inter-arrival times."""
    if rate < 0 or duration <= 0:
        raise SourceError("rate must be >= 0 and duration > 0")
    if rate == 0:
        return TimeTagStream(np.empty(0))
    n_guess = int(rate * duration + 10 * np.sqrt(rate * duration) + 10)
    tags = np.cumsum(rng.exponential(1.0 / rate, size=n_guess))
    while tags.size and tags[-1] < duration:
        extra = np.cumsum(rng.exponential(1.0 / rate, size=n_guess)) + tags[-1]
        tags = np.concatenate([tags, extra])
    tags = tags[tags < duration]
    tags = np.round(tags / TIME_RESOLUTION) * TIME_RESOLUTION
    return TimeTagStream(np.sort(tags))


def find_coincidences(
    signal: TimeTagStream,
    idler: TimeTagStream,
    window: float,
    relative_delay: float = 0.0,
) -> int:
    """Count coincidences between two sorted tag streams.

    Idler tags are shifted back by ``relative_delay`` (the fixed offset
    introduced by the parallel timing fiber), then each idler tag is matched
    greedily to the nearest unused signal tag within +-window/2.
    """
    if window <= 0:
        raise SourceError("window must be > 0")
    return int(
        _kernels.greedy_match(
            signal.times, idler.times - relative_delay, window / 2.0
        )
    )

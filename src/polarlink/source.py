"""Entangled-pair source, detection chain and coincidence rates.

Detection is simulated at rate level: each window's port coincidence rates,
from which the scheduler draws Poisson counts for the analysis pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polmath import AnalyzerSetting, PolTransform, coincidence_probs

DEFAULT_PAIR_RATE = 2e5  # locally detected pairs/s
DEFAULT_DETECTOR_EFFICIENCY = 0.70
DEFAULT_COINCIDENCE_WINDOW = 1.6e-9  # s


@dataclass(frozen=True)
class PairSource:
    """Pair rate and the visibility V of the state V |Phi+><Phi+| + (1 - V) I/4."""

    local_pair_rate: float = DEFAULT_PAIR_RATE
    visibility: float = 1.0


@dataclass(frozen=True)
class DetectionChain:
    idler_transmittance: float = 1.0
    signal_efficiency: float = DEFAULT_DETECTOR_EFFICIENCY
    idler_efficiency: float = DEFAULT_DETECTOR_EFFICIENCY
    dark_rate: float = 0.0
    coincidence_window: float = DEFAULT_COINCIDENCE_WINDOW


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
    p = coincidence_probs(src.visibility, rotations, a_pairs, b_pairs)
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


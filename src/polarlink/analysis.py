"""Fringe fitting, visibility extraction, CHSH estimation and long-run series.

Coincidence-rate fringes are fitted by weighted linear least squares to
r(theta) = a + b cos 2theta + c sin 2theta with Poisson weights; visibility is
the fitted contrast sqrt(b^2 + c^2) / a with first-order error propagation.
The S parameter is estimated from the four basis visibilities as
S = 2 sqrt(2) * mean(V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polmath import AnalyzerSetting
from .scheduler import CHSH_WINDOW_SETTINGS, Window

TSIRELSON = 2.0 * np.sqrt(2.0)


class FitError(ValueError):
    """Degenerate or under-determined fringe fit."""


@dataclass(frozen=True)
class FringePoint:
    umd_angle_deg: float
    count: float  # integer Poisson counts, or exact rates in noiseless mode
    duration_s: float
    post_timeout: bool = False


@dataclass(frozen=True)
class FringeDataset:
    nist_basis: AnalyzerSetting
    points: tuple

    def __post_init__(self):
        for p in self.points:
            if p.count < 0:
                raise FitError("counts must be >= 0")
            if not 0.0 <= p.umd_angle_deg <= 180.0:
                raise FitError("angles must lie in [0, 180] degrees")


@dataclass(frozen=True)
class FitResult:
    offset: float
    cos_amp: float
    sin_amp: float
    visibility: float
    sigma_v: float
    phase_deg: float


@dataclass(frozen=True)
class ChshResult:
    s_value: float
    sigma_s: float
    visibilities: tuple
    corrected: bool = False


def _fit_points(points) -> FitResult:
    if len(points) < 6:
        raise FitError(f"need at least 6 points, got {len(points)}")
    angles = np.array([p.umd_angle_deg for p in points])
    if angles.max() - angles.min() < 120.0:
        raise FitError("points must span at least 120 degrees")
    counts = np.array([float(p.count) for p in points])
    durations = np.array([p.duration_s for p in points])
    rates = counts / durations
    # Poisson variance on counts -> variance on rates.
    var_rate = np.maximum(counts, 1.0) / durations**2
    two_theta = 2.0 * np.deg2rad(angles)
    design = np.column_stack([np.ones_like(two_theta), np.cos(two_theta), np.sin(two_theta)])
    w = 1.0 / var_rate
    normal = design.T @ (design * w[:, None])
    if np.linalg.cond(normal) > 1e12:
        raise FitError("degenerate design matrix (angles collapse mod 90 degrees)")
    cov = np.linalg.inv(normal)
    params = cov @ (design.T @ (rates * w))
    a, b, c = params
    if a <= 0:
        raise FitError("fitted offset must be positive")
    amp = float(np.hypot(b, c))
    v = amp / a
    if amp > 0:
        grad = np.array([-amp / a**2, b / (amp * a), c / (amp * a)])
    else:
        grad = np.array([0.0, 1.0 / a, 1.0 / a])
    sigma_v = float(np.sqrt(grad @ cov @ grad))
    phase = float(np.rad2deg(0.5 * np.arctan2(c, b)))
    return FitResult(float(a), float(b), float(c), float(v), sigma_v, phase)


def fit_fringe(dataset: FringeDataset) -> FitResult:
    """Weighted least-squares fit over all points."""
    return _fit_points(dataset.points)


def corrected_fit(dataset: FringeDataset) -> FitResult:
    """Refit excluding points measured right after a timed-out session."""
    kept = [p for p in dataset.points if not p.post_timeout]
    return _fit_points(kept)


def chsh_from_visibilities(fits, corrected: bool = False) -> ChshResult:
    """S = 2 sqrt(2) mean(V) with propagated uncertainty."""
    fits = tuple(fits)
    if len(fits) != 4:
        raise FitError(f"need exactly 4 basis fits, got {len(fits)}")
    vs = np.array([f.visibility for f in fits])
    sigmas = np.array([f.sigma_v for f in fits])
    s = TSIRELSON * float(vs.mean())
    sigma_s = TSIRELSON / 4.0 * float(np.sqrt(np.sum(sigmas**2)))
    return ChshResult(s, sigma_s, fits, corrected)


class SeriesPoint(NamedTuple):
    time_s: float
    min_ref_fidelity: float
    s_value: float
    sigma_s: float
    compensation_time_s: float
    post_timeout: bool


@dataclass(frozen=True)
class LongrunSummary:
    mean_s: float
    std_s: float
    corrected_mean_s: float
    corrected_std_s: float
    n_groups: int
    n_excluded: int


def longrun_series(windows: list[Window], counts) -> list[SeriesPoint]:
    """One S estimate per group of four consecutive windows; ``counts`` holds
    each window's (pass/pass, pass/fail, fail/pass, fail/fail) counts, one
    row per window.

    Window k's correlation is E = ((pp + ff) - pf - fp) / total with variance
    max(1 - E², 1 / total) / total, and (0, 1) for a window without counts;
    a group's S = ((E0 - E1) + E2) + E3, its variances summed left to right.
    Every window's E and σ come from one whole-array pass over the counts.
    """
    n = len(windows) // 4 * 4
    for k, w in enumerate(windows[:n]):
        if w.setting != CHSH_WINDOW_SETTINGS[k % 4]:
            raise FitError("windows are not aligned to 4-window CHSH groups")
    c = np.asarray(counts[:n]).reshape(n, 4)
    total = c.sum(axis=1).astype(float)
    pp, pf, fp, ff = c.astype(float).T
    empty = total == 0
    total[empty] = 1.0  # no 0/0 warning; these windows read (0, 1) below
    e = (pp + ff - pf - fp) / total
    sigma = np.sqrt(np.maximum(1.0 - e * e, 1.0 / total) / total)
    e[empty], sigma[empty] = 0.0, 1.0
    e0, e1, e2, e3 = e.reshape(-1, 4).T
    v0, v1, v2, v3 = (sigma * sigma).reshape(-1, 4).T
    s_values = ((e0 - e1 + e2) + e3).tolist()
    sigmas = np.sqrt(((v0 + v1) + v2) + v3).tolist()
    out = []
    for g, (s, sigma_s) in enumerate(zip(s_values, sigmas)):
        group = windows[4 * g : 4 * g + 4]
        out.append(
            SeriesPoint(
                time_s=group[0].start_s,
                min_ref_fidelity=min(w.session.min_fidelity_after for w in group),
                s_value=s,
                sigma_s=sigma_s,
                compensation_time_s=sum(w.session.duration_s for w in group),
                post_timeout=any(w.post_timeout for w in group),
            )
        )
    return out


def summarize_longrun(series: list[SeriesPoint]) -> LongrunSummary:
    """Time-averaged S plus the corrected average excluding post-timeout groups."""
    if not series:
        raise FitError("cannot summarize an empty series")
    s_all = np.array([p.s_value for p in series])
    kept = np.array([p.s_value for p in series if not p.post_timeout])
    if kept.size == 0:
        kept = s_all
    return LongrunSummary(
        mean_s=float(s_all.mean()),
        std_s=float(s_all.std(ddof=1)) if s_all.size > 1 else 0.0,
        corrected_mean_s=float(kept.mean()),
        corrected_std_s=float(kept.std(ddof=1)) if kept.size > 1 else 0.0,
        n_groups=len(series),
        n_excluded=len(series) - int(kept.size),
    )


def write_fringe_csv(path, datasets) -> None:
    """One row per fringe point, lines ending in CRLF as ``csv.writer``'s do."""
    rows = [
        f"{d.nist_basis.angle_deg:.1f},{p.umd_angle_deg:.1f},{p.count},{p.duration_s:.6f},"
        f"{int(p.post_timeout)}\r\n"
        for d in datasets
        for p in d.points
    ]
    with open(path, "w", newline="") as f:
        f.write("nist_basis_deg,umd_angle_deg,counts,duration_s,post_timeout_flag\r\n")
        f.write("".join(rows))


def chsh_result_to_dict(result: ChshResult) -> dict:
    return {
        "S": result.s_value,
        "sigma_S": result.sigma_s,
        "visibilities": [
            {"basis": label, "V": f.visibility, "sigma": f.sigma_v}
            for label, f in zip(("H", "D", "V", "A"), result.visibilities)
        ],
        "corrected": result.corrected,
    }

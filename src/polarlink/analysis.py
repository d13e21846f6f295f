"""Fringe fitting, visibility extraction, CHSH estimation and long-run series.

Coincidence-rate fringes are fitted by weighted linear least squares to
r(theta) = a + b cos 2theta + c sin 2theta with Poisson weights; visibility is
the fitted contrast sqrt(b^2 + c^2) / a with first-order error propagation.
The S parameter is estimated from the four basis visibilities as
S = 2 sqrt(2) * mean(V).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .polmath import AnalyzerSetting
from .scheduler import CHSH_WINDOW_SETTINGS, WindowCounts

TSIRELSON = 2.0 * np.sqrt(2.0)
CLASSICAL_BOUND = 2.0


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

    @property
    def violation(self) -> bool:
        """True when S exceeds the classical bound by more than 2 sigma."""
        return self.s_value - CLASSICAL_BOUND > 2.0 * self.sigma_s


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


@dataclass(frozen=True)
class SeriesPoint:
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


# Signs combining the four window correlations into S.
_CHSH_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])


def _window_correlation(counts: np.ndarray) -> tuple[float, float]:
    total = float(counts.sum())
    if total == 0:
        return 0.0, 1.0
    pp, pf, fp, ff = (float(x) for x in counts)
    e = (pp + ff - pf - fp) / total
    sigma = float(np.sqrt(max(1.0 - e * e, 1.0 / total) / total))
    return e, sigma


def longrun_series(windows: list[WindowCounts]) -> list[SeriesPoint]:
    """One S estimate per group of four consecutive uptime windows."""
    out = []
    n_groups = len(windows) // 4
    for g in range(n_groups):
        group = windows[4 * g : 4 * g + 4]
        es = np.empty(4)
        variances = np.empty(4)
        for k, w in enumerate(group):
            if w.setting != CHSH_WINDOW_SETTINGS[k]:
                raise FitError("windows are not aligned to 4-window CHSH groups")
            es[k], sig = _window_correlation(w.counts)
            variances[k] = sig * sig
        s = float(_CHSH_SIGNS @ es)
        sigma_s = float(np.sqrt(variances.sum()))
        out.append(
            SeriesPoint(
                time_s=group[0].window_start_s,
                min_ref_fidelity=min(w.min_ref_fidelity for w in group),
                s_value=s,
                sigma_s=sigma_s,
                compensation_time_s=sum(w.compensation_time_s for w in group),
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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["nist_basis_deg", "umd_angle_deg", "counts", "duration_s", "post_timeout_flag"]
        )
        for d in datasets:
            for p in d.points:
                writer.writerow(
                    [
                        f"{d.nist_basis.angle_deg:.1f}",
                        f"{p.umd_angle_deg:.1f}",
                        p.count,
                        f"{p.duration_s:.6f}",
                        int(p.post_timeout),
                    ]
                )


def read_fringe_csv(path) -> list[FringeDataset]:
    groups: dict[float, list[FringePoint]] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            basis = float(row["nist_basis_deg"])
            groups.setdefault(basis, []).append(
                FringePoint(
                    umd_angle_deg=float(row["umd_angle_deg"]),
                    count=float(row["counts"]),
                    duration_s=float(row["duration_s"]),
                    post_timeout=bool(int(row["post_timeout_flag"])),
                )
            )
    return [
        FringeDataset(AnalyzerSetting(basis), tuple(points))
        for basis, points in sorted(groups.items())
    ]


def chsh_result_to_dict(result: ChshResult, basis_labels=("H", "D", "V", "A")) -> dict:
    return {
        "S": result.s_value,
        "sigma_S": result.sigma_s,
        "visibilities": [
            {"basis": label, "V": f.visibility, "sigma": f.sigma_v}
            for label, f in zip(basis_labels, result.visibilities)
        ],
        "corrected": result.corrected,
    }


def write_chsh_json(path, result: ChshResult, **extra) -> None:
    payload = chsh_result_to_dict(result)
    payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

"""Fringe fitting, visibility extraction, CHSH estimation and long-run series.

A fringe is the sweep's analyzer angles and the counts measured at them, as
two arrays, in windows of one duration.  Its rates are fitted by weighted
linear least squares to r(theta) = a + b cos 2theta + c sin 2theta with
Poisson weights; visibility is the fitted contrast sqrt(b^2 + c^2) / a with
first-order error propagation.
The S parameter is estimated from the four basis visibilities as
S = 2 sqrt(2) * mean(V).  The long-run series has one S per group of four
CHSH windows, and is kept as columns, the S and σ_S columns as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TSIRELSON = 2.0 * np.sqrt(2.0)


class FitError(ValueError):
    """Degenerate or under-determined fringe fit."""


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


def _fit(angles, counts, duration_s: float) -> FitResult:
    if len(angles) < 6:
        raise FitError(f"need at least 6 points, got {len(angles)}")
    if angles.max() - angles.min() < 120.0:
        raise FitError("points must span at least 120 degrees")
    rates = counts / duration_s
    # Poisson variance on counts -> variance on rates.
    var_rate = np.maximum(counts, 1.0) / (duration_s * duration_s)
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


def fit_fringe(angles_deg, counts, duration_s: float) -> FitResult:
    """Weighted least-squares fit over all points: ``counts[i]`` measured at
    ``angles_deg[i]`` in a window of ``duration_s``."""
    return _fit(np.asarray(angles_deg, dtype=float), np.asarray(counts, dtype=float), duration_s)


def corrected_fit(angles_deg, counts, duration_s: float, post_timeout) -> FitResult:
    """Refit excluding the points measured right after a timed-out session,
    those where ``post_timeout`` is true."""
    kept = ~np.asarray(post_timeout, dtype=bool)
    angles, counts = np.asarray(angles_deg, dtype=float), np.asarray(counts, dtype=float)
    return _fit(angles[kept], counts[kept], duration_s)


def chsh_from_visibilities(fits) -> ChshResult:
    """S = 2 sqrt(2) mean(V) with propagated uncertainty."""
    fits = tuple(fits)
    if len(fits) != 4:
        raise FitError(f"need exactly 4 basis fits, got {len(fits)}")
    vs = np.array([f.visibility for f in fits])
    sigmas = np.array([f.sigma_v for f in fits])
    s = TSIRELSON * float(vs.mean())
    sigma_s = TSIRELSON / 4.0 * float(np.sqrt(np.sum(sigmas**2)))
    return ChshResult(s, sigma_s, fits)


def longrun_series(windows: list, counts) -> tuple:
    """The long-run series, one group of four consecutive windows per entry,
    as the columns of ``series.csv``: each group's start time, lowest
    ``min_fidelity_after``, S, σ_S, summed session time and post-timeout flag.

    ``windows`` are ``run_link``'s, in its CHSH cycle; ``counts`` holds each
    window's (pass/pass, pass/fail, fail/pass, fail/fail) counts, one row per
    window.  Window k's correlation is E = ((pp + ff) - pf - fp) / total with
    variance max(1 - E², 1 / total) / total, and (0, 1) for a window without
    counts; a group's S = ((E0 - E1) + E2) + E3, its variances summed left to
    right.  S and σ_S are arrays from one whole-array pass over the counts;
    the other columns are lists.
    """
    n = len(windows) // 4 * 4
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
    groups = [windows[k : k + 4] for k in range(0, n, 4)]
    return (
        [group[0].start_s for group in groups],
        [min(w.session.min_fidelity_after for w in group) for group in groups],
        (e0 - e1 + e2) + e3,
        np.sqrt(((v0 + v1) + v2) + v3),
        [sum(w.session.duration_s for w in group) for group in groups],
        [any(w.post_timeout for w in group) for group in groups],
    )


def summarize_longrun(s_values, post_timeout) -> dict:
    """Time-averaged S plus the corrected average excluding the groups whose
    ``post_timeout`` flag is set, under their ``summary.json`` keys."""
    s_all = np.asarray(s_values, dtype=float)
    if s_all.size == 0:
        raise FitError("cannot summarize an empty series")
    kept = s_all[~np.asarray(post_timeout, dtype=bool)]
    if kept.size == 0:
        kept = s_all
    return {
        "mean_S": float(s_all.mean()),
        "std_S": float(s_all.std(ddof=1)) if s_all.size > 1 else 0.0,
        "corrected_mean_S": float(kept.mean()),
        "corrected_std_S": float(kept.std(ddof=1)) if kept.size > 1 else 0.0,
        "n_groups": s_all.size,
        "n_excluded_groups": s_all.size - kept.size,
    }

"""Frequency-level analysis of Fourier targets.

The level operator truncates a target to frequencies ``|k|_inf <= 2^level``
and weights each coefficient by ``|k|_1^r``.  Its sup-norm grows only
polylogarithmically in the truncation level for smooth targets, which is what
makes the downstream sampling construction work; this module computes the
levels, the dyadic shell sums they partition into, Parseval residuals, and
the explicit sup-norm bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .targets import (
    EvaluationGrid,
    FourierTarget,
    _require_resolved,
    grid_values,
    holder_norm,
    sup_norm,
)


def level_series(target: FourierTarget, level: int, r: int) -> FourierTarget:
    """Coefficients ``c(k) * |k|_1^r`` truncated to ``|k|_inf <= 2^level``.

    The frequency-zero term carries weight zero and is dropped; the weight is
    even in k, so the result stays real-valued.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if r < 0:
        raise ValueError("weight order must be >= 0")
    l1 = np.abs(target.modes).sum(axis=1)
    keep = (l1 > 0) & (np.abs(target.modes).max(axis=1) <= 2**level)
    coeffs = target.coeffs[keep] * l1[keep].astype(float) ** r
    nz = coeffs != 0
    return FourierTarget(target.d, target.modes[keep][nz], coeffs[nz], target.smoothness)


def parseval_residual(series: FourierTarget, grid: EvaluationGrid) -> float:
    """|grid mean of |series|^2  -  sum of squared coefficient moduli|."""
    _require_resolved(series, grid)
    vals = grid_values(series, grid)
    grid_mean = float(np.sum(vals * vals)) / vals.size
    coeff_side = math.fsum(float(x) for x in np.abs(series.coeffs) ** 2)
    return abs(grid_mean - coeff_side)


def variation(series: FourierTarget, q: float) -> float:
    """Weighted coefficient mass: sum of |c(k)| * |k|_1^q over the support.

    ``q = 2`` on a smoothed image is the quantity that controls the Monte
    Carlo discretization error of the network construction.
    """
    if q < 0:
        raise ValueError("weight order must be >= 0")
    if series.mode_count == 0:
        return 0.0
    l1 = np.abs(series.modes).sum(axis=1).astype(float)
    weights = l1**q  # 0^0 == 1 keeps q = 0 meaningful at k = 0
    terms = np.abs(series.coeffs) * weights
    return math.fsum(float(t) for t in terms)


def shell_sums(target: FourierTarget, r: int, levels: int) -> np.ndarray:
    """Per-shell sums S_l over dyadic shells ``2^(l-1) < |k|_inf <= 2^l``.

    Shell 0 holds the frequencies with ``|k|_inf == 1``.  The sums partition
    the total weighted mass over ``1 <= |k|_inf <= 2^levels`` exactly.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    sums = []
    sup = np.abs(target.modes).max(axis=1) if target.mode_count else np.zeros(0)
    l1 = np.abs(target.modes).sum(axis=1).astype(float) if target.mode_count else np.zeros(0)
    terms = np.abs(target.coeffs) * l1**r if target.mode_count else np.zeros(0)
    for level in range(levels + 1):
        lo = 2 ** (level - 1)
        hi = 2**level
        mask = (sup > lo) & (sup <= hi)
        sums.append(math.fsum(float(t) for t in terms[mask]))
    return np.array(sums)


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    passed: bool


def level_sup_constant(d: int, r: int) -> float:
    """Explicit constant (3/pi + 6)^d * d^r in the level sup-norm bound."""
    return (3.0 / math.pi + 6.0) ** d * float(d) ** r


def level_sup_bound_check(
    target: FourierTarget,
    r: int,
    level: int,
    grid: EvaluationGrid,
    holder: float | None = None,
) -> BoundReport:
    """Check sup|level series| <= (3/pi+6)^d d^r * holder_norm * (level+1)^d.

    Both sides are evaluated on the same resolved grid; ``holder`` may be
    passed in to amortize the norm across a sweep over levels.
    """
    _require_resolved(target, grid)
    lhs = sup_norm(level_series(target, level, r), grid)
    if holder is None:
        holder = holder_norm(target, r, grid)
    rhs = level_sup_constant(target.d, r) * holder * float(level + 1) ** target.d
    return BoundReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs)


def coefficient_sum_bound_check(
    target: FourierTarget, r: int, level: int, grid: EvaluationGrid
) -> BoundReport:
    """Check sum|coeffs of level series| <= (2^(level+1)+1)^(d/2) * sup|level series|.

    This is the Cauchy-Schwarz/Parseval step that converts coefficient mass
    into a sup-norm, assertable per level because supports are finite.
    """
    series = level_series(target, level, r)
    lhs = variation(series, 0)
    rhs = (2.0 ** (level + 1) + 1.0) ** (target.d / 2.0) * sup_norm(series, grid)
    return BoundReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs)


@dataclass(frozen=True)
class SpectralLevels:
    """Level decomposition of a target: series, norms, and shell sums."""

    r: int
    levels: int
    series: tuple[FourierTarget, ...]
    sup_norms: np.ndarray
    shells: np.ndarray
    parseval_residuals: np.ndarray


def build_levels(target: FourierTarget, r: int, levels: int, grid: EvaluationGrid) -> SpectralLevels:
    series = tuple(level_series(target, level, r) for level in range(levels + 1))
    sup_norms = np.array([sup_norm(s, grid) for s in series])
    residuals = np.array([parseval_residual(s, grid) for s in series])
    return SpectralLevels(
        r=r,
        levels=levels,
        series=series,
        sup_norms=sup_norms,
        shells=shell_sums(target, r, levels),
        parseval_residuals=residuals,
    )

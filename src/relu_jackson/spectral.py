"""Frequency-level analysis of Fourier targets.

The level operator truncates a target to frequencies ``|k|_inf <= 2^level``
and weights each coefficient by ``|k|_1^r``.  Its sup-norm grows only
polylogarithmically in the truncation level for smooth targets, which is what
makes the downstream sampling construction work; this module computes the
levels, the dyadic shell sums they partition into, Parseval residuals, and
both sides of each level's explicit sup-norm and coefficient-sum bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .targets import EvaluationGrid, FourierTarget, _max_abs, _require_resolved, grid_values


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
    return _parseval_gap(series, grid_values(series, grid))


def _parseval_gap(series: FourierTarget, vals: np.ndarray) -> float:
    """The Parseval residual from the series' values on a resolved grid."""
    grid_mean = float(np.sum(vals * vals)) / vals.size
    coeff_side = math.fsum((np.abs(series.coeffs) ** 2).tolist())
    return abs(grid_mean - coeff_side)


def variation(series: FourierTarget, q: float) -> float:
    """Weighted coefficient mass: sum of |c(k)| * |k|_1^q over the support.

    ``q = 2`` on a smoothed image is the quantity that controls the Monte
    Carlo discretization error of the network construction.
    """
    if q < 0:
        raise ValueError("weight order must be >= 0")
    l1 = np.abs(series.modes).sum(axis=1).astype(float)
    weights = l1**q  # 0^0 == 1 keeps q = 0 meaningful at k = 0
    terms = np.abs(series.coeffs) * weights
    return math.fsum(terms.tolist())


def shell_sums(target: FourierTarget, r: int, levels: int) -> np.ndarray:
    """Per-shell sums S_l over dyadic shells ``2^(l-1) < |k|_inf <= 2^l``.

    Shell 0 holds the frequencies with ``|k|_inf == 1``.  The sums partition
    the total weighted mass over ``1 <= |k|_inf <= 2^levels`` exactly.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    sums = []
    sup = np.abs(target.modes).max(axis=1)
    l1 = np.abs(target.modes).sum(axis=1).astype(float)
    terms = np.abs(target.coeffs) * l1**r
    for level in range(levels + 1):
        lo = 2 ** (level - 1)
        hi = 2**level
        mask = (sup > lo) & (sup <= hi)
        sums.append(math.fsum(terms[mask].tolist()))
    return np.array(sums)


def level_sup_constant(d: int, r: int) -> float:
    """Explicit constant (3/pi + 6)^d * d^r in the level sup-norm bound."""
    return (3.0 / math.pi + 6.0) ** d * float(d) ** r


@dataclass(frozen=True)
class SpectralLevels:
    """Level decomposition of a target: series, norms, shell sums and both level bounds.

    ``sup_bounds[l]`` is the right side ``(3/pi+6)^d d^r * holder * (l+1)^d``
    of the level sup-norm bound on ``sup_norms[l]``.  ``coefficient_sums[l]``
    is the coefficient mass of series l, and ``coefficient_bounds[l] =
    (2^(l+1)+1)^(d/2) * sup_norms[l]`` bounds it: the Cauchy-Schwarz/Parseval
    step over the level's at most ``(2^(l+1)+1)^d`` frequencies, which
    converts coefficient mass into a sup-norm.
    """

    r: int
    levels: int
    series: tuple[FourierTarget, ...]
    sup_norms: np.ndarray
    shells: np.ndarray
    parseval_residuals: np.ndarray
    sup_bounds: np.ndarray
    coefficient_sums: np.ndarray
    coefficient_bounds: np.ndarray


def build_levels(
    target: FourierTarget, r: int, levels: int, grid: EvaluationGrid, holder: float
) -> SpectralLevels:
    """Level series 0..levels with every per-level quantity: the grid
    sup-norms and Parseval residuals, both read from one evaluation of each
    series into one reused grid, the shell sums and both level bounds.

    ``holder`` is ``holder_norm(target, r, grid)``, the Hoelder norm in the
    sup-norm bound.  The grid must resolve the target, and so every level
    series, whose frequencies are a subset of the target's.
    """
    _require_resolved(target, grid)
    d = target.d
    series = tuple(level_series(target, level, r) for level in range(levels + 1))
    sup_norms, residuals = [], []
    vals = np.empty((grid.points_per_axis,) * d)  # one grid, overwritten by each level
    for s in series:
        grid_values(s, grid, vals)
        sup_norms.append(_max_abs(vals))
        residuals.append(_parseval_gap(s, vals))
    constant = level_sup_constant(d, r)
    return SpectralLevels(
        r=r,
        levels=levels,
        series=series,
        sup_norms=np.array(sup_norms),
        shells=shell_sums(target, r, levels),
        parseval_residuals=np.array(residuals),
        sup_bounds=np.array([constant * holder * float(level + 1) ** d for level in range(levels + 1)]),
        coefficient_sums=np.array([variation(s, 0) for s in series]),
        coefficient_bounds=np.array(
            [(2.0 ** (level + 1) + 1.0) ** (d / 2.0) * sup for level, sup in enumerate(sup_norms)]
        ),
    )

"""Jackson smoothing: univariate kernel coefficients, the induced Fourier
multiplier, and the tensor-product operator acting on Fourier targets."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .targets import (
    EvaluationGrid,
    FourierTarget,
    _grid_values_raw,
    _require_resolved,
    difference,
    sup_norm,
)

TWO_PI = 2.0 * math.pi


def fejer_coefficients(m: int) -> np.ndarray:
    """Triangular cosine coefficients of the order-m Fejer window: 1/2, then 1 - j/m."""
    if m < 1:
        raise ValueError("order must be >= 1")
    b = 1.0 - np.arange(m) / m
    b[0] = 0.5
    return b


@dataclass(frozen=True)
class JacksonKernel1D:
    """Nonnegative even trigonometric kernel of degree <= N with unit integral.

    ``a_tilde[k + degree]`` is the coefficient of ``exp(i k t)`` for
    ``|k| <= degree`` where ``degree = r * (M - 1) <= N``.
    """

    N: int
    r: int
    M: int
    a_tilde: np.ndarray

    def __post_init__(self):
        self.a_tilde.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.r * (self.M - 1)

    def coefficient(self, k: int) -> float:
        if abs(k) > self.degree:
            return 0.0
        return float(self.a_tilde[k + self.degree])

    def grid_values(self, points: int) -> np.ndarray:
        """Kernel values on the uniform torus grid of ``points >= 2`` points starting at -pi."""
        ks = np.arange(-self.degree, self.degree + 1)
        return _grid_values_raw(1, ks[:, None], self.a_tilde, EvaluationGrid(1, points)).real


@functools.lru_cache(maxsize=None)
def build_kernel(N: int, r: int) -> JacksonKernel1D:
    """Kernel of degree parameter N and order r (the 2r-th power construction).

    The Fejer cosine coefficients are moved to the exponential basis
    (c_0 = b_0, c_{+-j} = b_j / 2), self-convolved r times, and rescaled once
    so the central coefficient equals 1/(2*pi).  That forced normalization is
    equivalent to a unit integral over the torus, so no quadrature enters.
    """
    if N < 1 or r < 1:
        raise ValueError("N and r must be >= 1")
    m = N // r + 1
    b = fejer_coefficients(m)
    c = np.zeros(2 * m - 1)
    c[m - 1] = b[0]
    if m > 1:
        c[m:] = b[1:] / 2.0
        c[: m - 1] = (b[1:] / 2.0)[::-1]
    conv = c
    for _ in range(r - 1):
        conv = np.convolve(conv, c)
    conv = 0.5 * (conv + conv[::-1])  # convolution rounding is order-dependent; restore exact evenness
    degree = r * (m - 1)
    a_tilde = conv / (TWO_PI * conv[degree])
    return JacksonKernel1D(N=N, r=r, M=m, a_tilde=a_tilde)


@dataclass(frozen=True)
class JacksonMultiplier:
    """Per-axis smoothing weights; the d-dimensional weight is a product over axes.

    ``axis[k + N]`` holds the weight for frequency ``|k| <= N``; frequencies
    beyond N are annihilated.
    """

    N: int
    r: int
    axis: np.ndarray

    def __post_init__(self):
        self.axis.setflags(write=False)

    def axis_coefficient(self, k: int) -> float:
        if abs(k) > self.N:
            return 0.0
        return float(self.axis[k + self.N])


def multiplier_from_kernel(kernel: JacksonKernel1D) -> JacksonMultiplier:
    """Alternating-binomial combination of kernel coefficients at dilated indices."""
    n, r = kernel.N, kernel.r
    # kernel coefficients at k = 0 .. n * r (the largest dilated index), zero past the degree
    coef = np.pad(kernel.a_tilde[kernel.degree :], (0, n * r - kernel.degree))
    val = np.zeros(n + 1)
    for ell in range(1, r + 1):  # for every k at once, ell increasing, from 0.0
        val += (-1.0) ** (ell - 1) * math.comb(r, ell) * coef[: n * ell + 1 : ell]
    return JacksonMultiplier(N=n, r=r, axis=np.concatenate((val[::-1], val[1:])))


def apply_jackson(target: FourierTarget, N: int, r: int) -> FourierTarget:
    """Smoothed image: coefficients scaled by (2*pi)^d times the per-axis weights.

    The image is supported in ``|k|_inf <= min(N, k_max)``; constants are
    reproduced because the weight at frequency zero is exactly the inverse of
    the (2*pi)^d factor.
    """
    mult = multiplier_from_kernel(build_kernel(N, r))
    keep = np.abs(target.modes).max(axis=1) <= N
    modes = target.modes[keep]
    factors = mult.axis[modes + N].prod(axis=1) * TWO_PI**target.d
    coeffs = target.coeffs[keep] * factors
    nz = coeffs != 0
    return FourierTarget(target.d, modes[nz], coeffs[nz], target.smoothness)


def jackson_sup_error(target: FourierTarget, N: int, r: int, grid: EvaluationGrid) -> float:
    """Grid maximum of |f - smoothed f| on a resolved torus grid."""
    _require_resolved(target, grid)
    return sup_norm(difference(target, apply_jackson(target, N, r)), grid)

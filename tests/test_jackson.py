import math
from fractions import Fraction

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.jackson import build_kernel, multiplier_from_kernel
from relu_jackson.spectral import level_series

from conftest import target_from_dict, torus_grid


def kernel_coefficients_by_quadrature(N, r, points=1 << 15):
    """Independent oracle: Fourier coefficients of the closed-form kernel.

    Samples lambda * (sin(M t/2) / sin(t/2))**(2r) on a uniform grid and
    integrates by the periodic trapezoid rule, which is spectrally accurate
    for trigonometric polynomials.
    """
    m = N // r + 1
    t = 2 * np.pi * np.arange(points) / points
    num = np.sin(m * t / 2)
    den = np.sin(t / 2)
    ratio = np.where(np.abs(den) < 1e-300, float(m), num / np.where(np.abs(den) < 1e-300, 1.0, den))
    vals = ratio ** (2 * r)
    vals = vals / (2 * np.pi * vals.mean())  # impose unit integral
    ks = np.arange(0, r * (m - 1) + 1)
    return np.array([float((vals * np.exp(-1j * k * t)).mean().real) for k in ks])


def kernel_ratios_by_rational_arithmetic(N, r):
    """Exact reference: coefficient ratios a_k / a_0 via Fraction convolution.

    Valid whenever the convolution stays exact, i.e. any N * r <= 2048 at
    reasonable cost; the float path must match these ratios to 1e-13.
    """
    assert N * r <= 2048
    m = N // r + 1
    b = [Fraction(1, 2)] + [Fraction(m - j, m) for j in range(1, m)]
    c = [Fraction(0)] * (2 * m - 1)
    c[m - 1] = b[0]
    for j in range(1, m):
        c[m - 1 + j] = b[j] / 2
        c[m - 1 - j] = b[j] / 2
    conv = c
    for _ in range(r - 1):
        out = [Fraction(0)] * (len(conv) + len(c) - 1)
        for i, x in enumerate(conv):
            if x:
                for j, y in enumerate(c):
                    out[i + j] += x * y
        conv = out
    center = r * (m - 1)
    return [conv[center + k] / conv[center] for k in range(0, center + 1)]


class TestFejer:
    def test_order_one(self):
        assert np.array_equal(rj.fejer_coefficients(1), [0.5])

    def test_order_two(self):
        assert np.array_equal(rj.fejer_coefficients(2), [0.5, 0.5])

    def test_order_four(self):
        assert np.array_equal(rj.fejer_coefficients(4), [0.5, 0.75, 0.5, 0.25])

    def test_rejects(self):
        with pytest.raises(ValueError):
            rj.fejer_coefficients(0)


class TestBuildKernel:
    def test_n1_r1_exact(self):
        k = build_kernel(1, 1)
        assert k.M == 2
        assert k.coefficient(0) == pytest.approx(1 / (2 * np.pi), abs=1e-14)
        assert k.coefficient(1) == pytest.approx(1 / (4 * np.pi), abs=1e-14)
        assert k.coefficient(-1) == pytest.approx(1 / (4 * np.pi), abs=1e-14)
        assert k.coefficient(2) == 0.0

    @pytest.mark.parametrize("N,r", [(1, 1), (8, 2), (5, 3), (16, 2), (13, 4)])
    def test_matches_quadrature_oracle(self, N, r):
        k = build_kernel(N, r)
        oracle = kernel_coefficients_by_quadrature(N, r)
        mine = np.array([k.coefficient(i) for i in range(len(oracle))])
        assert np.abs(mine - oracle).max() < 1e-12

    @pytest.mark.parametrize(
        "N,r",
        [(1, 1), (2, 1), (7, 2), (8, 2), (16, 2), (128, 2), (33, 4), (64, 3), (100, 5)],
    )
    def test_matches_rational_reference(self, N, r):
        k = build_kernel(N, r)
        ratios = kernel_ratios_by_rational_arithmetic(N, r)
        a0 = k.coefficient(0)
        for i, ratio in enumerate(ratios):
            assert abs(k.coefficient(i) / a0 - float(ratio)) < 1e-13

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 8, 64, 256])
    def test_invariants(self, N, r):
        k = build_kernel(N, r)
        a = k.a_tilde
        assert np.array_equal(a, a[::-1])  # evenness, exact
        assert abs(k.coefficient(0) - 1 / (2 * np.pi)) < 1e-14
        assert np.abs(a).max() <= a[k.degree]  # domination by the center
        assert k.degree == r * (N // r) and k.degree <= N
        assert float(k.grid_values(4096).min()) >= -1e-12

    def test_n8_r2_grid_quadrature(self):
        k = build_kernel(8, 2)
        vals = k.grid_values(4096)
        assert float(vals.min()) >= -1e-12
        assert float(vals.mean()) * 2 * np.pi == pytest.approx(1.0, abs=1e-10)

    def test_rejects(self):
        with pytest.raises(ValueError):
            build_kernel(0, 1)
        with pytest.raises(ValueError):
            build_kernel(1, 0)


class TestMultiplier:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_zero_frequency(self, r):
        mult = multiplier_from_kernel(build_kernel(16, r))
        assert mult.axis_coefficient(0) == pytest.approx(1 / (2 * np.pi), abs=1e-15)

    def test_n1_r1(self):
        mult = multiplier_from_kernel(build_kernel(1, 1))
        assert mult.axis_coefficient(1) == pytest.approx(1 / (4 * np.pi), abs=1e-15)
        assert mult.axis_coefficient(-1) == mult.axis_coefficient(1)
        assert mult.axis_coefficient(2) == 0.0

    @pytest.mark.parametrize("N,r", [(8, 1), (8, 2), (16, 3), (64, 4)])
    def test_alternating_binomial_bound(self, N, r):
        kernel = build_kernel(N, r)
        mult = multiplier_from_kernel(kernel)
        cap = (2**r - 1) / (2 * np.pi)
        for k in range(-N, N + 1):
            # triangle-inequality oracle computed alongside
            loose = sum(
                math.comb(r, ell) * abs(kernel.coefficient(k * ell))
                for ell in range(1, r + 1)
            )
            assert abs(mult.axis_coefficient(k)) <= loose + 1e-15
            assert loose <= cap + 1e-15


def multiplier_axis_by_loop(kernel):
    """Reference: the multiplier's axis weights, one frequency and one dilation at a time."""
    n, r = kernel.N, kernel.r
    axis = np.zeros(2 * n + 1)
    for k in range(n + 1):
        val = 0.0
        for ell in range(1, r + 1):
            val += (-1.0) ** (ell - 1) * math.comb(r, ell) * kernel.coefficient(k * ell)
        axis[n + k] = val
        axis[n - k] = val
    return axis


def kernel_grid_values_by_ifft(kernel, points):
    """Reference: the kernel's (-1)^k-twisted spectrum folded onto the grid and inverted by a 1-D FFT."""
    spectrum = np.zeros(points, dtype=np.complex128)
    ks = np.arange(-kernel.degree, kernel.degree + 1)
    twist = np.where(ks % 2 == 0, 1.0, -1.0)
    np.add.at(spectrum, ks % points, kernel.a_tilde * twist)
    return (np.fft.ifft(spectrum) * points).real


class TestMatchesScalarReference:
    """The multiplier is gathered on arrays and keeps the bytes of the loop
    above.  The kernel's grid values go through the targets' real torus
    transform and agree with the full inverse FFT above to 16 eps times the
    kernel's coefficient sum."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 512])
    def test_multiplier_axis(self, N, r):
        kernel = build_kernel(N, r)
        axis = multiplier_from_kernel(kernel).axis
        assert axis.tobytes() == multiplier_axis_by_loop(kernel).tobytes()

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 512])
    def test_kernel_grid_values(self, N, r):
        kernel = build_kernel(N, r)
        # 2 * degree + 1 points resolve the kernel exactly; 64 points alias it for N > 31
        tol = 16 * np.finfo(float).eps * float(np.abs(kernel.a_tilde).sum())
        for points in (64, 4096, max(2, 2 * kernel.degree + 1)):
            got = kernel.grid_values(points)
            want = kernel_grid_values_by_ifft(kernel, points)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert float(np.abs(got - want).max()) <= tol, points

    def test_kernel_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="points_per_axis must be >= 2, got 1"):
            build_kernel(1, 2).grid_values(1)


def jackson_by_quadrature(target, N, r, x, points=1 << 14):
    """Oracle: the difference-combination integral form of the smoothing
    operator, evaluated by the periodic trapezoid rule (d = 1 only)."""
    kernel = build_kernel(N, r)
    y = 2 * np.pi * np.arange(points) / points
    kvals = kernel.grid_values(points)
    # grid_values starts at -pi; reindex to [0, 2*pi)
    kvals = np.roll(kvals, points // 2)
    acc = 0.0
    for ell in range(1, r + 1):
        shifted = np.array([rj.evaluate(target, [x + ell * t]) for t in y])
        acc += (-1.0) ** (ell - 1) * math.comb(r, ell) * float(np.mean(shifted * kvals))
    return acc * 2 * np.pi


class TestApplyJackson:
    def test_constant_reproduced(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        for N, r in [(1, 1), (8, 2), (64, 3)]:
            img = rj.apply_jackson(t, N, r)
            assert img.as_dict()[(0,)] == pytest.approx(1.0, abs=1e-14)

    def test_cos_n1_r1_halved(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        img = rj.apply_jackson(t, 1, 1)
        assert img.as_dict()[(1,)] == pytest.approx(0.25, abs=1e-15)
        assert img.as_dict()[(-1,)] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("N,r", [(1, 1), (4, 2)])
    def test_matches_integral_oracle(self, N, r):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5, 2: 0.1j, -2: -0.1j})
        img = rj.apply_jackson(t, N, r)
        for x in (0.0, 0.7, -2.1):
            assert rj.evaluate(img, [x]) == pytest.approx(
                jackson_by_quadrature(t, N, r, x), abs=1e-10
            )

    def test_support_annihilated(self):
        t = rj.make_trig_poly(1, {5: 0.5, -5: 0.5})
        img = rj.apply_jackson(t, 1, 1)
        assert img.mode_count == 0

    def test_image_support_capped(self, corpus):
        for name, t in corpus:
            img = rj.apply_jackson(t, 4, 2)
            assert img.k_max <= min(4, t.k_max), name

    def test_boundedness_on_corpus(self, corpus):
        for name, t in corpus:
            grid = torus_grid(t)
            base = rj.sup_norm(t, grid)
            for r in (1, 2, 3):
                for N in (4, 16, 64):
                    img = rj.apply_jackson(t, N, r)
                    cap = 2.0 ** (r * t.d) * base
                    assert rj.sup_norm(img, grid) <= cap + 1e-12, (name, N, r)


class TestJacksonSupError:
    def test_constant_zero(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        assert rj.jackson_sup_error(t, 8, 2, torus_grid(t)) < 1e-12

    def test_monotone_decrease(self):
        t = rj.make_decay_target(1, 3.2, 2, seed=11)
        grid = torus_grid(t)
        errs = [rj.jackson_sup_error(t, N, 2, grid) for N in (8, 16, 32, 64, 128)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_rate_window(self):
        t = rj.make_decay_target(1, 3.2, 2, seed=11)
        grid = torus_grid(t)
        pts = [(N, rj.jackson_sup_error(t, N, 2, grid)) for N in (8, 16, 32, 64, 128)]
        slope = rj.fit_slope(pts).slope
        assert -3.2 <= slope <= -1.6

    def test_monotone_on_corpus(self, corpus):
        for name, t in corpus:
            if t.mode_count <= 1:
                continue  # constants are reproduced exactly
            grid = torus_grid(t)
            for r in (1, 2):
                errs = [rj.jackson_sup_error(t, n, r, grid) for n in (8, 16, 32, 64, 128)]
                assert all(b < a for a, b in zip(errs, errs[1:])), (name, r)

    @pytest.mark.parametrize(
        "name,r",
        [
            ("mix1", 1),
            ("decay1", 1),
            ("rate1", 1),
            ("decay2", 1),
            ("sin2d", 1),
            # At r=2 the -r+0.5 gate needs the operator's asymptotic regime;
            # the broad d=1 spectra sit at -1.36/-1.48 on this bandwidth
            # window and are covered by the window test above instead.
            ("rate1", 2),
            ("decay2", 2),
            ("sin2d", 2),
        ],
    )
    def test_decay_slope_gate(self, corpus, name, r):
        t = dict(corpus)[name]
        grid = torus_grid(t)
        pts = [(n, rj.jackson_sup_error(t, n, r, grid)) for n in (8, 16, 32, 64, 128)]
        assert rj.fit_slope(pts).slope <= -r + 0.5


class TestTransformsMatchDictReference:
    """``apply_jackson``, ``level_series`` and ``difference`` mask or merge
    the sorted mode arrays.  These references go through a frequency ->
    coefficient dict and ``target_from_dict`` instead; modes and coefficient bytes
    (signed zeros included) must agree."""

    @staticmethod
    def apply_jackson_ref(target, N, r):
        mult = multiplier_from_kernel(build_kernel(N, r))
        out = {}
        for k, c in zip(target.modes, target.coeffs):
            if np.abs(k).max() <= N:
                factor = np.prod(mult.axis[k + N]) * (2 * math.pi) ** target.d
                out[tuple(int(x) for x in k)] = complex(c * factor)
        return target_from_dict(target.d, out, target.smoothness)

    @staticmethod
    def level_series_ref(target, level, r):
        out = {}
        for k, c in zip(target.modes, target.coeffs):
            l1 = int(np.abs(k).sum())
            if l1 and np.abs(k).max() <= 2**level:
                out[tuple(int(x) for x in k)] = complex(c) * float(l1) ** r
        return target_from_dict(target.d, out, target.smoothness)

    @staticmethod
    def difference_ref(a, b):
        out = a.as_dict()
        for k, c in b.as_dict().items():
            out[k] = out.get(k, 0j) - c
        return target_from_dict(a.d, out, min(a.smoothness, b.smoothness))

    @staticmethod
    def assert_same(got, want):
        assert np.array_equal(got.modes, want.modes)
        assert got.modes.dtype == want.modes.dtype and got.coeffs.dtype == want.coeffs.dtype
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.smoothness == want.smoothness

    def targets(self):
        out = [
            rj.make_trig_poly(2, {(1, 1): 0.5 - 0.5j, (-1, -1): 0.5 + 0.5j, (0, 2): -0.25, (0, -2): -0.25}),
            # -0.25j has real part -0.0; k = +-4 lies outside bandwidths 1 and 3,
            # so only one side of the difference holds that signed zero
            rj.make_trig_poly(1, {1: 0.5, -1: 0.5, 4: -0.25j, -4: 0.25j}),
        ]
        for d, s, k_max, seeds in ((1, 3.2, 16, 12), (2, 4.2, 8, 12), (3, 5.2, 3, 8)):
            out += [rj.make_decay_target(d, s, k_max, seed) for seed in range(seeds)]
        return out

    def test_matches(self):
        for t in self.targets():
            for N in (1, 3, 8):
                img = rj.apply_jackson(t, N, 2)
                self.assert_same(img, self.apply_jackson_ref(t, N, 2))
                self.assert_same(rj.difference(t, img), self.difference_ref(t, img))
                self.assert_same(rj.difference(img, t), self.difference_ref(img, t))
            for level in (0, 2):
                for r in (0, 2, 3):
                    self.assert_same(level_series(t, level, r), self.level_series_ref(t, level, r))

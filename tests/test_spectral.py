import math

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.spectral import (
    build_levels,
    level_series,
    level_sup_constant,
    parseval_residual,
    shell_sums,
    variation,
)

from conftest import torus_grid


class TestLevelSeries:
    def test_constant_gives_zero_series(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        assert level_series(t, 3, 2).mode_count == 0

    def test_cos_level_zero(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        s = level_series(t, 0, 2)
        assert s.as_dict() == {(1,): 0.5, (-1,): 0.5}  # weight 1**2

    def test_sine_2d_weight(self):
        t = rj.make_trig_poly(2, {(1, 1): -0.5j, (-1, -1): 0.5j})
        s = level_series(t, 1, 2)
        assert s.as_dict()[(1, 1)] == pytest.approx(-2j)  # |k|_1^2 = 4
        x = [np.pi / 4, np.pi / 4]
        assert rj.evaluate(s, x) == pytest.approx(4.0 * np.sin(np.pi / 2), abs=1e-12)

    def test_truncation(self):
        t = rj.make_trig_poly(1, {1: 0.4, -1: 0.4, 3: 0.2, -3: 0.2})
        s = level_series(t, 1, 1)
        assert set(s.as_dict()) == {(1,), (-1,)}

    def test_rejects(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        with pytest.raises(ValueError):
            level_series(t, -1, 2)
        with pytest.raises(ValueError):
            level_series(t, 0, -2)


class TestParseval:
    def test_zero_series(self):
        t = rj.make_trig_poly(1, {0: 0.0})
        assert parseval_residual(t, torus_grid(t)) == 0.0

    def test_cos_level_series(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        s = level_series(t, 0, 2)
        assert parseval_residual(s, rj.default_grid(1, rj.TORUS, 4096)) < 1e-12

    def test_random_2d_poly(self):
        t = rj.make_decay_target(2, 4.2, 5, seed=3)
        grid = rj.default_grid(2, rj.TORUS, 256)
        assert parseval_residual(t, grid) < 1e-10

    def test_levels_of_corpus(self, corpus):
        for name, t in corpus:
            grid = torus_grid(t)
            for level in (0, 2, 5):
                s = level_series(t, level, 2)
                assert parseval_residual(s, grid) < 1e-10, (name, level)


class TestVariation:
    def test_constant(self):
        assert variation(rj.make_trig_poly(1, {0: 1.0}), 2) == 0.0

    def test_cos(self):
        assert variation(rj.make_trig_poly(1, {1: 0.5, -1: 0.5}), 2) == pytest.approx(1.0)

    def test_jackson_image_bruteforce(self):
        t = rj.make_decay_target(1, 3.2, 16, seed=11)
        img = rj.apply_jackson(t, 32, 2)
        brute = math.fsum(
            abs(c) * sum(abs(x) for x in k) ** 2 for k, c in sorted(img.as_dict().items())
        )
        assert variation(img, 2) == pytest.approx(brute, abs=1e-12)

    def test_zero_weight_counts_constant(self):
        t = rj.make_trig_poly(1, {0: 2.0, 1: 0.5, -1: 0.5})
        assert variation(t, 0) == pytest.approx(3.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            variation(rj.make_trig_poly(1, {0: 1.0}), -1)


class TestShellSums:
    def test_constant_all_zero(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        assert np.array_equal(shell_sums(t, 2, 3), np.zeros(4))

    def test_cos_shells(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        assert shell_sums(t, 2, 2) == pytest.approx([1.0, 0.0, 0.0])

    def test_partition_identity(self, corpus):
        for name, t in corpus:
            levels = 6
            sums = shell_sums(t, 2, levels)
            kept = {
                k: c
                for k, c in t.as_dict().items()
                if 1 <= max(abs(x) for x in k) <= 2**levels
            }
            total = math.fsum(
                abs(c) * sum(abs(x) for x in k) ** 2 for k, c in sorted(kept.items())
            )
            assert abs(math.fsum(sums) - total) <= 1e-13 * max(1.0, total), name


def levels_of(t, r, levels, grid=None):
    grid = grid or torus_grid(t)
    return build_levels(t, r, levels, grid, rj.holder_norm(t, r, grid))


class TestLevelSupBound:
    def test_constant_passes(self):
        decomp = levels_of(rj.make_trig_poly(1, {0: 1.0}), 2, 0)
        assert decomp.sup_norms[0] == 0.0
        assert decomp.sup_norms[0] <= decomp.sup_bounds[0]

    def test_cos_explicit_sides(self):
        decomp = levels_of(rj.make_trig_poly(1, {1: 0.5, -1: 0.5}), 2, 0)
        assert decomp.sup_norms[0] == pytest.approx(1.0, abs=1e-9)
        assert decomp.sup_bounds[0] == pytest.approx(3.0 / np.pi + 6.0, abs=1e-9)
        assert decomp.sup_norms[0] <= decomp.sup_bounds[0]

    def test_constant_value(self):
        assert level_sup_constant(1, 2) == pytest.approx(3 / np.pi + 6)
        assert level_sup_constant(2, 3) == pytest.approx((3 / np.pi + 6) ** 2 * 8)

    def test_corpus_sweep_small(self, corpus):
        for name, t in corpus:
            decomp = levels_of(t, 2, 3)
            assert np.all(decomp.sup_norms <= decomp.sup_bounds), (name, decomp.sup_norms, decomp.sup_bounds)


class TestCoefficientSumBound:
    def test_corpus(self, corpus):
        for name, t in corpus:
            decomp = levels_of(t, 2, 4)
            sums, bounds = decomp.coefficient_sums, decomp.coefficient_bounds
            assert np.all(sums <= bounds), (name, sums, bounds)

    def test_sides_for_cos(self):
        decomp = levels_of(rj.make_trig_poly(1, {1: 0.5, -1: 0.5}), 2, 0)
        assert decomp.coefficient_sums[0] == pytest.approx(1.0)
        assert decomp.coefficient_bounds[0] == pytest.approx(np.sqrt(3.0), abs=1e-9)


def test_build_levels_consistency():
    t = rj.make_decay_target(1, 3.2, 8, seed=11)
    grid = torus_grid(t)
    decomp = levels_of(t, 2, 4, grid)
    assert len(decomp.series) == 5
    assert decomp.sup_norms[0] == pytest.approx(rj.sup_norm(level_series(t, 0, 2), grid))
    assert np.all(decomp.parseval_residuals < 1e-10)
    assert decomp.shells == pytest.approx(shell_sums(t, 2, 4))
    assert decomp.coefficient_sums.tolist() == [variation(s, 0) for s in decomp.series]


def test_build_levels_evaluates_each_series_once(monkeypatch):
    """Sup-norms and Parseval residuals come from one grid evaluation per
    level, and equal the values of the separate functions bit for bit."""
    t = rj.make_decay_target(2, 4.2, 8, seed=7)
    grid = rj.default_grid(2, rj.TORUS, 64)
    sups = [rj.sup_norm(level_series(t, level, 2), grid) for level in range(4)]
    gaps = [parseval_residual(level_series(t, level, 2), grid) for level in range(4)]
    holder = rj.holder_norm(t, 2, grid)
    calls = []
    raw = rj.targets._grid_values_raw

    def counting(*args):
        calls.append(1)
        return raw(*args)

    monkeypatch.setattr(rj.targets, "_grid_values_raw", counting)
    decomp = build_levels(t, 2, 3, grid, holder)
    assert len(calls) == 4
    assert decomp.sup_norms.tolist() == sups
    assert decomp.parseval_residuals.tolist() == gaps


def test_build_levels_reuses_one_grid(monkeypatch):
    """Every level is transformed into one buffer, through ``grid_values``;
    the floats equal the fresh grids' (``test_build_levels_evaluates_each_series_once``)."""
    t = rj.make_decay_target(2, 4.2, 8, seed=7)
    grid = rj.default_grid(2, rj.TORUS, 64)
    buffers = []
    raw = rj.targets._grid_values_raw

    def recording(*args):
        buffers.append(args[4])
        return raw(*args)

    monkeypatch.setattr(rj.targets, "_grid_values_raw", recording)
    build_levels(t, 2, 3, grid, 1.0)
    assert len(buffers) == 4
    assert all(b is buffers[0] for b in buffers) and buffers[0].shape == (64, 64)


def test_build_levels_requires_resolving_grid():
    t = rj.make_decay_target(1, 3.2, 8, seed=11)
    with pytest.raises(ValueError, match="does not resolve"):
        build_levels(t, 2, 3, rj.default_grid(1, rj.TORUS, 16), 1.0)

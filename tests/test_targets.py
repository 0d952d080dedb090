import math
from itertools import product

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.targets import (
    EvaluationGrid,
    dumps_target,
    imag_residual_on_grid,
    loads_target,
    multi_indices,
)

from conftest import target_from_dict, torus_grid


class TestMakeTrigPoly:
    def test_constant(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        assert rj.evaluate(t, [0.37]) == pytest.approx(1.0, abs=1e-15)
        assert rj.evaluate(t, [-1.2]) == pytest.approx(1.0, abs=1e-15)
        assert t.k_max == 0
        assert math.isinf(t.smoothness)

    def test_cosine(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        assert rj.evaluate(t, [0.0]) == pytest.approx(1.0, abs=1e-15)
        assert rj.evaluate(t, [np.pi]) == pytest.approx(-1.0, abs=1e-12)
        assert t.k_max == 1

    def test_sine_2d(self):
        t = rj.make_trig_poly(2, {(1, 1): -0.5j, (-1, -1): 0.5j})
        assert rj.evaluate(t, [np.pi / 2, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            rj.make_trig_poly(1, {1: 1.0})

    def test_auto_symmetrize(self):
        t = rj.make_trig_poly(1, {1: 1.0}, auto_symmetrize=True)
        # Hermitian part of a single mode is a half-sized conjugate pair.
        assert t.as_dict() == {(1,): 0.5, (-1,): 0.5}

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            rj.make_trig_poly(0, {0: 1.0})
        with pytest.raises(ValueError):
            rj.make_trig_poly(2, {(1,): 1.0})

    def test_drops_exact_zeros(self):
        t = rj.make_trig_poly(1, {0: 1.0, 5: 0.0, -5: 0.0})
        assert t.k_max == 0

    def test_names_first_asymmetric_frequency(self):
        """The check names the first offending frequency in the order given."""
        with pytest.raises(ValueError, match=r"Hermitian-symmetric at k=\(1,\)"):
            rj.make_trig_poly(1, {0: 1.0, 1: 0.5, -1: 0.4})
        with pytest.raises(ValueError, match=r"Hermitian-symmetric at k=\(-1,\)"):
            rj.make_trig_poly(1, {0: 1.0, -1: 0.4, 1: 0.5})

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.5, -math.inf)])
    def test_rejects_non_finite_coefficient(self, value):
        """A NaN coefficient used to pass the Hermitian check and evaluate to NaN everywhere."""
        for auto in (False, True):
            with pytest.raises(ValueError, match=r"non-finite coefficient at k=\(-1,\)"):
                rj.make_trig_poly(1, {0: 1.0, -1: value, 1: 0.5}, auto_symmetrize=auto)

    def test_hermitian_tolerance_scales_with_size(self):
        rj.make_trig_poly(1, {1: 1e6, -1: 1e6 + 1e-7})
        with pytest.raises(ValueError, match="Hermitian"):
            rj.make_trig_poly(1, {1: 1e6, -1: 1e6 + 1e-5})

    def test_rejects_repeated_frequency(self):
        """A bare integer and a 1-tuple name the same frequency."""
        with pytest.raises(ValueError, match=r"repeated frequency k=\(1,\)"):
            rj.make_trig_poly(1, {1: 0.5, -1: 0.5, (1,): 0.25}, auto_symmetrize=True)

    def test_auto_symmetrize_near_float_max(self):
        """Adding c(k) and conj(c(-k)) before halving overflowed to inf."""
        t = rj.make_trig_poly(1, {1: 1e308, -1: 1e308}, auto_symmetrize=True)
        assert t.as_dict() == {(-1,): 1e308, (1,): 1e308}

    def test_auto_symmetrize_matches_dict_reference(self):
        """The Hermitian part, taken on arrays, has the bytes of the per-key
        dict computation, signed zeros included (``-0.25j`` has real part -0.0;
        an explicit ``-0.0`` at -k adds its sign)."""
        maps = [
            (1, {1: -0.25j}),
            (1, {1: -0.25j, -1: -0.0}),
            (1, {1: complex(2.0, -0.0), -1: -1.0}),  # the product with 0.5 gives imaginary part +0.0
            (1, {1: 0.5, -1: 0.5, 4: -0.25j, -4: 0.25j, 0: -1.0}),
            (2, {(1, 1): 1 - 1j, (0, 2): -0.5, (0, -2): 0.25j, (-1, 0): complex(-0.0, 0.0)}),
            (3, {(1, -2, 3): 0.3 + 0.1j, (0, 0, 1): 2.0, (0, 0, 0): 0.0}),
        ]
        for d, cmap in maps:
            keys = {tuple(k) if isinstance(k, tuple) else (k,): complex(c) for k, c in cmap.items()}
            sym = {}
            for k in set(keys) | {tuple(-x for x in k) for k in keys}:
                sym[k] = 0.5 * (keys.get(k, 0j) + keys.get(tuple(-x for x in k), 0j).conjugate())
            got = rj.make_trig_poly(d, cmap, auto_symmetrize=True)
            want = target_from_dict(d, sym, math.inf)
            assert np.array_equal(got.modes, want.modes)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


def decay_target_by_dict(d, s, k_max, seed):
    """Reference generator: one scalar phase draw per half-space mode in
    ``product`` order, collected in a frequency -> coefficient dict."""
    rng = np.random.default_rng(seed)
    coeff_map = {(0,) * d: 1.0 + 0j}
    for k in product(range(-k_max, k_max + 1), repeat=d):
        if next((x for x in k if x != 0), 0) <= 0:
            continue
        theta = rng.uniform(-math.pi, math.pi)
        c = (1.0 + sum(abs(x) for x in k)) ** (-s) * complex(math.cos(theta), math.sin(theta))
        coeff_map[k] = c
        coeff_map[tuple(-x for x in k)] = c.conjugate()
    return target_from_dict(d, coeff_map, float(max(0, math.ceil(s - d) - 1)))


class TestMakeDecayTarget:
    @pytest.mark.parametrize(
        "d,s,k_max",
        [(1, 3.2, 16), (1, 1.5, 300), (1, 40.0, 5), (2, 4.2, 8), (2, 2.5, 3), (3, 5.2, 3), (3, 3.2, 6)],
    )
    def test_matches_dict_reference(self, d, s, k_max):
        """The array build keeps the generator's modes and coefficient bytes."""
        for seed in (0, 1, 7, 11):
            got = rj.make_decay_target(d, s, k_max, seed)
            want = decay_target_by_dict(d, s, k_max, seed)
            assert got.modes.dtype == want.modes.dtype and np.array_equal(got.modes, want.modes)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.smoothness == want.smoothness

    def test_zero_mode_modulus_one(self):
        for seed in (0, 7, 123):
            t = rj.make_decay_target(1, 3.0, 4, seed=seed)
            assert abs(t.as_dict()[(0,)]) == pytest.approx(1.0, abs=0)

    def test_weighted_sum_matches_bruteforce(self):
        t = rj.make_decay_target(1, 3.0, 64, seed=5)
        brute = math.fsum(
            abs(c) * sum(abs(x) for x in k) for k, c in sorted(t.as_dict().items())
        )
        assert rj.variation(t, 1) == pytest.approx(brute, rel=1e-14)

    def test_deterministic(self):
        a = rj.make_decay_target(2, 4.2, 3, seed=9)
        b = rj.make_decay_target(2, 4.2, 3, seed=9)
        assert np.array_equal(a.modes, b.modes)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            rj.make_decay_target(2, 2.0, 4, seed=0)

    def test_declared_smoothness(self):
        # largest r with s > r + d
        assert rj.make_decay_target(1, 3.2, 2, seed=0).smoothness == 2
        assert rj.make_decay_target(1, 3.0, 2, seed=0).smoothness == 1
        assert rj.make_decay_target(2, 4.2, 2, seed=0).smoothness == 2

    def test_moduli_follow_decay_law(self):
        s = 3.5
        t = rj.make_decay_target(1, s, 8, seed=3)
        for k, c in t.as_dict().items():
            l1 = sum(abs(x) for x in k)
            assert abs(c) == pytest.approx((1.0 + l1) ** (-s), rel=1e-15)


class TestEvaluation:
    def test_batch_matches_single(self, corpus):
        xs = np.array([[0.3], [-1.7], [2.9]])
        t = dict(corpus)["decay1"]
        batch = rj.evaluate(t, xs)
        singles = [rj.evaluate(t, x) for x in xs]
        assert np.allclose(batch, singles, atol=0)

    def test_real_valuedness_on_grids(self, corpus):
        for name, t in corpus:
            grid = torus_grid(t)
            assert imag_residual_on_grid(t, grid) < 1e-12, name

    def test_parseval_on_resolved_grid(self):
        t = rj.make_decay_target(1, 3.0, 64, seed=2)
        grid = torus_grid(t)
        vals = rj.grid_values(t, grid)
        grid_mean = float(np.sum(vals * vals)) / vals.size
        coeff_side = math.fsum(abs(c) ** 2 for c in t.coeffs)
        assert abs(grid_mean - coeff_side) < 1e-10

    def test_cube_grid_values_match_pointwise(self):
        t = rj.make_decay_target(2, 4.2, 3, seed=1)
        grid = rj.EvaluationGrid(2, 17, rj.CUBE)
        vals = rj.grid_values(t, grid).ravel()
        direct = rj.evaluate(t, grid.points())
        assert np.allclose(vals, direct, atol=1e-12)


class TestHolderNorm:
    def test_constant(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        assert rj.holder_norm(t, 2, torus_grid(t)) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_first_order(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        grid = rj.default_grid(1, rj.TORUS, 1024)
        assert rj.holder_norm(t, 1, grid) == pytest.approx(1.0, abs=1e-6)

    def test_sine_2d_second_order(self):
        # Oracle: dense-grid scan of the analytically differentiated series.
        # Every derivative of sin(x1+x2) with multi-index (a1, a2) is
        # sin/cos(x1+x2) up to sign, so each sup equals 1 and the max is 1.
        grid_1d = np.linspace(-np.pi, np.pi, 2001)
        xx, yy = np.meshgrid(grid_1d, grid_1d)
        u = xx + yy
        oracle = 0.0
        for a1, a2 in multi_indices(2, 2):
            order = a1 + a2
            vals = np.sin(u) if order % 2 == 0 else np.cos(u)
            sign = -1.0 if order % 4 in (2, 3) else 1.0
            oracle = max(oracle, float(np.abs(sign * vals).max()))
        assert oracle == pytest.approx(1.0, abs=1e-9)
        t = rj.make_trig_poly(2, {(1, 1): -0.5j, (-1, -1): 0.5j})
        assert rj.holder_norm(t, 2, torus_grid(t)) == pytest.approx(oracle, abs=1e-9)

    def test_matches_derivative_bruteforce(self):
        t = rj.make_decay_target(1, 3.2, 8, seed=4)
        grid = torus_grid(t)
        xs = grid.axis()
        best = 0.0
        for order in (0, 1, 2):
            acc = np.zeros_like(xs, dtype=complex)
            for k, c in sorted(t.as_dict().items()):
                acc = acc + c * (1j * k[0]) ** order * np.exp(1j * k[0] * xs)
            best = max(best, float(np.abs(acc.real).max()))
        assert rj.holder_norm(t, 2, grid) == pytest.approx(best, rel=1e-12)

    def test_rejects_negative_order(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        with pytest.raises(ValueError):
            rj.holder_norm(t, -1, torus_grid(t))

    def test_rejects_cube_grid(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        with pytest.raises(ValueError):
            rj.holder_norm(t, 1, rj.default_grid(1, rj.CUBE))

    def test_rejects_unresolved_grid(self):
        t = rj.make_decay_target(1, 3.0, 64, seed=0)
        with pytest.raises(ValueError, match="resolve"):
            rj.holder_norm(t, 1, rj.EvaluationGrid(1, 128, rj.TORUS))


class TestGrids:
    def test_point_count_and_spacing(self):
        g = EvaluationGrid(2, 5, rj.CUBE)
        assert g.points().shape == (25, 2)
        assert g.spacing == pytest.approx(0.5)
        gt = EvaluationGrid(1, 8, rj.TORUS)
        assert gt.axis()[0] == pytest.approx(-np.pi)
        assert gt.spacing == pytest.approx(2 * np.pi / 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationGrid(1, 1, rj.TORUS)
        with pytest.raises(ValueError):
            EvaluationGrid(0, 8, rj.TORUS)
        with pytest.raises(ValueError):
            EvaluationGrid(1, 8, "disk")
        with pytest.raises(ValueError):
            rj.default_grid(7)


class TestSerialization:
    def test_roundtrip_bytes(self, corpus):
        for name, t in corpus:
            text = dumps_target(t)
            back = loads_target(text)
            assert dumps_target(back) == text, name
            assert np.array_equal(back.modes, t.modes)
            assert np.array_equal(back.coeffs, t.coeffs)
            assert back.smoothness == t.smoothness

    def test_file_roundtrip(self, tmp_path):
        t = rj.make_decay_target(2, 4.2, 2, seed=3)
        path = tmp_path / "target.txt"
        rj.save_target(t, path)
        back = rj.load_target(path)
        assert np.array_equal(back.coeffs, t.coeffs)

    def test_header_format(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        assert dumps_target(t).splitlines()[0] == "d=1 r=inf"
        t2 = rj.make_decay_target(1, 3.2, 1, seed=0)
        assert dumps_target(t2).splitlines()[0] == "d=1 r=2"

    def test_rejects_corrupt_text(self):
        with pytest.raises(ValueError):
            loads_target("")
        with pytest.raises(ValueError):
            loads_target("d=1 r=inf\n1 0.5 0.0\n2 bad line\n")
        # breaking symmetry by hand must be caught on load
        with pytest.raises(ValueError, match="Hermitian"):
            loads_target("d=1 r=inf\n1 0.5 0\n")
        for d in (0, -1):
            with pytest.raises(ValueError, match=f"d={d}"):
                loads_target(f"d={d} r=inf\n")
        # a declared smoothness order is never negative
        with pytest.raises(ValueError, match="r=-3"):
            loads_target("d=1 r=-3\n0 1 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coefficient(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            loads_target(f"d=1 r=inf\n-1 0.5 0\n0 1 0\n1 0.5 0\n".replace("0 1 0", f"0 {value} 0"))
        with pytest.raises(ValueError, match="non-finite"):
            loads_target(f"d=1 r=inf\n0 1 {value}\n")

    def test_rejects_repeated_frequency(self):
        """A repeated line used to overwrite the earlier one silently."""
        with pytest.raises(ValueError, match=r"k=\(1,\)"):
            loads_target("d=1 r=inf\n-1 0.5 0\n1 0.5 0\n0 1 0\n1 0.25 0\n")

    @pytest.mark.parametrize("header,key", [("r=2", "d="), ("d=1", "r=")])
    def test_missing_header_key_named(self, header, key):
        with pytest.raises(ValueError, match=key):
            loads_target(f"{header}\n0 1 0\n")


def test_difference():
    a = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
    b = rj.make_trig_poly(1, {1: 0.25, -1: 0.25, 0: 1.0})
    d = rj.difference(a, b)
    assert d.as_dict() == {(1,): 0.25, (-1,): 0.25, (0,): -1.0}

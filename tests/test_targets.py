import hashlib
import math
import re
from itertools import product

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson import targets
from relu_jackson.targets import (
    MAX_DIMENSION,
    EvaluationGrid,
    FourierTarget,
    _distinct_rows,
    _grid_values_raw,
    _max_abs,
    dumps_target,
    imag_residual_on_grid,
    loads_target,
    multi_indices,
)
from relu_jackson.spectral import level_series

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
        with pytest.raises(ValueError, match=r"non-finite coefficient at k=\(-1,\)"):
            rj.make_trig_poly(1, {0: 1.0, -1: value, 1: 0.5})

    def test_hermitian_tolerance_scales_with_size(self):
        rj.make_trig_poly(1, {1: 1e6, -1: 1e6 + 1e-7})
        with pytest.raises(ValueError, match="Hermitian"):
            rj.make_trig_poly(1, {1: 1e6, -1: 1e6 + 1e-5})

    def test_rejects_repeated_frequency(self):
        """A bare integer and a 1-tuple name the same frequency."""
        with pytest.raises(ValueError, match=r"repeated frequency k=\(1,\)"):
            rj.make_trig_poly(1, {1: 0.5, -1: 0.5, (1,): 0.25})

    @pytest.mark.parametrize(
        "coeffs, named",
        [
            ({-(2**63): 1.0}, -(2**63)),
            ({2**63: 1.0, -(2**63): 1.0}, 2**63),
            ({0: 1.0, 10**20: 0.5, -(10**20): 0.5}, 10**20),
        ],
    )
    def test_rejects_frequency_beyond_int64(self, coeffs, named):
        """-2**63 used to pass as its own negation (int64 wraps), and 2**63
        raised NumPy's OverflowError."""
        with pytest.raises(ValueError, match=rf"frequency k=\({named},\) is out of range"):
            rj.make_trig_poly(1, coeffs)

    def test_largest_frequency_loads(self):
        k = 2**62 - 2  # |k|_1 = 2**62 - 1
        t = rj.make_trig_poly(2, {(1, k): 0.5, (-1, -k): 0.5})
        assert t.modes.tolist() == [[-1, -k], [1, k]]
        assert loads_target(dumps_target(t)).modes.tolist() == t.modes.tolist()
        assert rj.variation(t, 1) == float(2**62 - 1)

    @pytest.mark.parametrize("k", [(2**62, 2**62), (2**62 - 1, 1), (2**61, -(2**61))])
    def test_rejects_l1_norm_beyond_2_62(self, k):
        """(2**62, 2**62) used to load with |k|_1 wrapped in int64: variation
        was -9.2e18 and build_density dropped the mode."""
        with pytest.raises(ValueError, match=rf"frequency k=\({k[0]}, {k[1]}\) is out of range"):
            rj.make_trig_poly(2, {k: 0.5, tuple(-x for x in k): 0.5})

    def test_l1_norm_of_many_columns_does_not_wrap(self):
        # 64 entries of 2**58 sum to 2**64, which an uncapped uint64 sum would wrap to 0
        k = (2**58,) * MAX_DIMENSION
        with pytest.raises(ValueError, match=rf"frequency k=\({2**58}, {2**58}, .*\) is out of range"):
            rj.make_trig_poly(MAX_DIMENSION, {(0,) * MAX_DIMENSION: 1.0, k: 0.5, tuple(-x for x in k): 0.5})

    @pytest.mark.parametrize("d", [65, 10**400], ids=["65", "400_digits"])
    def test_rejects_dimension_above_the_axis_limit(self, d):
        with pytest.raises(ValueError, match=f"dimension d={d} is above {MAX_DIMENSION}"):
            rj.make_trig_poly(d, {})


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

    @pytest.mark.parametrize("last_axis", [1, 3])
    def test_rejects_points_with_more_than_two_axes(self, last_axis):
        # a (P, d, 1) array is not read as (P, d), and a (P, d, 3) one fails before the einsum
        t = rj.make_decay_target(2, 4.2, 3, seed=1)
        pts = np.zeros((5, 2, last_axis))
        with pytest.raises(ValueError, match=re.escape(f"not (5, 2, {last_axis})")):
            rj.evaluate(t, pts)

    def test_bare_number_is_one_point_in_d1(self, corpus):
        t = dict(corpus)["decay1"]
        value = rj.evaluate(t, 0.5)
        assert type(value) is float
        assert value == rj.evaluate(t, [0.5])

    def test_bare_number_rejected_in_d2(self):
        t = rj.make_decay_target(2, 4.2, 3, seed=1)
        with pytest.raises(ValueError, match=re.escape("points must have shape (2,) or (n, 2), not ()")):
            rj.evaluate(t, 0.5)

    def test_real_valuedness_on_grids(self, corpus):
        for name, t in corpus:
            grid = torus_grid(t)
            assert imag_residual_on_grid(t, grid) < 1e-12, name

    @pytest.mark.parametrize("grid", [EvaluationGrid(3, 17), EvaluationGrid(1, 33)], ids=["d3", "d1"])
    @pytest.mark.parametrize("on_grid", [imag_residual_on_grid, rj.grid_values, rj.sup_norm])
    def test_grid_dimension_is_checked(self, corpus, on_grid, grid):
        with pytest.raises(ValueError, match="grid dimension mismatch"):
            on_grid(dict(corpus)["decay2"], grid)

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0.5, -2.0, 1.0]),
            np.array([-0.0, 0.0]),
            np.array([-0.0, -0.0]),
            np.array([0.0, 0.0]),
            np.array([1.0, np.nan, -3.0]),
            np.array([-np.inf, 2.0]),
            np.random.default_rng(4).normal(size=(33, 17)),
        ],
        ids=["mixed", "signed_zeros", "negative_zeros", "zeros", "nan", "infinite", "grid"],
    )
    def test_max_abs_is_the_abs_max(self, values):
        got, want = _max_abs(values), float(np.abs(values).max())
        assert type(got) is float
        assert np.array([got]).tobytes() == np.array([want]).tobytes() or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("name", ["cos", "decay1", "sin2d", "decay2"])
    @pytest.mark.parametrize("shift", [1e-6, 1e-6j])
    def test_imag_residual_sees_a_broken_pair(self, corpus, name, shift):
        # c(k) moves by 1e-6 and c(-k) stays: the sum gains Im(shift e^{ikx}),
        # whose grid max is about 1e-6
        t = dict(corpus)[name]
        row = int(np.flatnonzero(np.abs(t.modes).sum(axis=1) > 0)[-1])
        coeffs = t.coeffs.copy()
        coeffs[row] += shift
        broken = FourierTarget(t.d, t.modes, coeffs, t.smoothness)
        assert imag_residual_on_grid(broken, torus_grid(t)) >= 1e-7

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


def grid_values_by_ifftn(d, modes, coeffs, points):
    """Reference: the (-1)^{sum k}-twisted spectrum folded onto the full grid and inverted by ifftn."""
    spectrum = np.zeros((points,) * d, dtype=np.complex128)
    twist = np.where(modes.sum(axis=1) % 2 == 0, 1.0, -1.0)
    np.add.at(spectrum, tuple((modes % points).T), coeffs * twist)
    return np.fft.ifftn(spectrum) * points**d


#: The grid transforms' agreement with their references (the real part of a
#: full ifftn on the torus, of the complex sum over the unfolded box on the
#: cube), in units of eps * sum |c|: a bound on the rounding of either sum.
TRANSFORM_TOL = 16


class TestTorusTransform:
    """The torus branch folds each conjugate pair onto the half spectrum
    ``k_d mod G <= G//2``, inverse-transforms one dense box over the other
    axes and finishes with one irfft; its values agree with the real part
    of a full ifftn to ``TRANSFORM_TOL * eps * sum |c|``.  The coefficients
    need not be Hermitian: the routine sums ``Re(c e^{ikx})`` for any c."""

    def assert_close(self, d, modes, coeffs, points):
        got = _grid_values_raw(d, modes, coeffs, EvaluationGrid(d, points))
        want = grid_values_by_ifftn(d, modes, coeffs, points).real
        assert got.dtype == np.float64
        assert got.shape == want.shape == (points,) * d
        tol = TRANSFORM_TOL * np.finfo(float).eps * float(np.abs(coeffs).sum())
        assert float(np.abs(got - want).max()) <= tol, (d, points)

    # resolved grids (points > 2 * k_max) and aliased ones (points <= 2 * k_max), down to 2 points
    @pytest.mark.parametrize(
        "d, k_max, points",
        [(1, 16, p) for p in (2, 7, 32, 33, 4096)]
        + [(2, 8, p) for p in (2, 5, 16, 17, 64, 512)]
        + [(3, 6, p) for p in (2, 4, 12, 13, 33)],
    )
    def test_decay_target(self, d, k_max, points):
        t = rj.make_decay_target(d, d + 1.2, k_max, seed=3)
        self.assert_close(d, t.modes, t.coeffs, points)

    @pytest.mark.parametrize("points", [2, 3, 5, 9])
    def test_colliding_modes(self, points):
        # k, k + points and k - 2 * points share a grid index; their sums depend on the order of adds
        base = np.array([[1, 0, 2], [0, 3, 1], [2, 2, 0]])
        modes = np.concatenate([base, base + points, base - 2 * points, -base, -base - points])
        coeffs = np.random.default_rng(points).normal(size=(modes.shape[0], 2)) @ np.array([1.0, 1e-3j])
        self.assert_close(3, modes, coeffs, points)
        self.assert_close(2, modes[:, 1:], coeffs, points)
        self.assert_close(1, modes[:, :1], coeffs, points)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("points", [2, 5, 8])
    def test_single_mode(self, d, points):
        modes = np.array([[3, -2, 7][:d]])
        self.assert_close(d, modes, np.array([0.3 + 0.7j]), points)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("points", [8, 9, 16, 17])
    def test_last_index_edges(self, d, points):
        # last indices 0, the Nyquist index G/2 (even G), the last halved
        # index and the first folded one, from both signs of k_d; complex
        # coefficients, so a lost conjugate or a wrong 1/2 shows
        rng = np.random.default_rng(points + 10 * d)
        last = np.array([0, points // 2, -(points // 2), (points - 1) // 2, (points + 1) // 2, points, 1, -1])
        rest = rng.integers(-points, points + 1, size=(last.size, d - 1))
        modes = np.concatenate([rest, last[:, None]], axis=1)
        coeffs = rng.normal(size=(last.size, 2)) @ np.array([1.0, 1j])
        self.assert_close(d, modes, coeffs, points)
        for row in range(last.size):
            self.assert_close(d, modes[row : row + 1], coeffs[row : row + 1], points)

    @pytest.mark.parametrize("d, k_max, points", [(1, 16, 4096), (2, 8, 512), (3, 6, 33)])
    def test_level_series(self, d, k_max, points):
        t = rj.make_decay_target(d, d + 1.2, k_max, seed=7)
        for level in range(4):
            s = level_series(t, level, 2)
            self.assert_close(d, s.modes, s.coeffs, points)

    @pytest.mark.parametrize("d, k_max, points", [(1, 16, 4096), (2, 8, 512), (3, 6, 33)])
    def test_derivative_weights(self, d, k_max, points):
        t = rj.make_decay_target(d, d + 1.2, k_max, seed=7)
        kf = t.modes.astype(float)
        for alpha in multi_indices(d, 2):
            weights = np.ones(t.mode_count, dtype=np.complex128)
            for j, a in enumerate(alpha):
                if a:
                    weights = weights * (1j * kf[:, j]) ** a
            self.assert_close(d, t.modes, t.coeffs * weights, points)


def random_torus_set(d, points, seed):
    """40 seeded frequencies in ``[-3G, 3G]^d``, so most alias, with non-Hermitian complex coefficients."""
    rng = np.random.default_rng(seed)
    modes = rng.integers(-3 * points, 3 * points + 1, size=(40, d))
    coeffs = rng.normal(size=(40, 2)) @ np.array([1.0, 1j])
    return modes, coeffs


#: sha256 of ``tobytes()`` of whole torus grids, recorded with the
#: occupied-line transform that the dense half-spectrum box replaced: the
#: corpus targets decay1-3 at their default and CLI grid sizes and some
#: smaller, odd and even ones, and ``random_torus_set(d, G, 10 d + G)``
#: for d = 1..4 on odd and even G.  A change to the torus transform that
#: moves one byte of a grid fails here.
TORUS_GRID_SHA256 = {
    ("decay1", 4096): "da9fc209120235dd2ac825cb44294852449b9231506228a1b31907e1b0720385",
    ("decay1", 33): "680f0cd03e4d073c0fb52e70cf952d7fa9508d8ed49b435e9f48551721f93bdd",
    ("decay1", 17): "d8141e465f71b8294c9febf7f26123649c8cfb29904401131deed8f5d6c4ae4a",
    ("decay2", 512): "9c8aa27295bc80d5e39af8828912c6f56040767761b4d44fec8a1083ca0add80",
    ("decay2", 65): "afb7cb3fcd5e945235163b99eff23175d927cee8506041427867bc16a4bb8400",
    ("decay2", 17): "27f9f79aa0767e35a8a786c1d6c7dc1bd21ae533c604053fd36bad236c464245",
    ("decay2", 9): "0ffdf1d499fbf3be95fb80bee3e6c7ebb2c93b77a48339097725cc92cf354482",
    ("decay3", 96): "ce5a136aa70a819dbd41b49d0f66f9ad8c1d4e55bbae2f90b2a0d191831d4c17",
    ("decay3", 16): "b2a7e290f83b7027d1b14e48f65c25c6defee8062602aff7c64980493fe1100c",
    ("decay3", 13): "4835f6cd2f0c633728c2958a3159b1d32840ccb62f5396bd88ab614742d05915",
    ("decay3", 9): "38750fa68c186d818bc7b9cc6ae3f99b9c0d82d115438f2e88557ebd01da1763",
    (1, 8): "969b2e1206636812f4afd8a93830995c9d24c3e1a348de0ada07d89c2eb52007",
    (1, 9): "3aa47ee643d69c2a62a7daf54263d4cb13475b3a30ac3d0d3104a6c9707f7e75",
    (2, 6): "9265c5580e00725fa6930660f6882c83195d728c1f4c113703ed4fcf8a0d9980",
    (2, 7): "a01eb6e461da7446f81da3e76ad7e18ca8cc942a1671781fa4689096dd82abc1",
    (3, 4): "1ed4e10b3c507d4ba05a553a29392d12c0a8fe3e7bcc4c9c6ffff10421de879d",
    (3, 5): "f25a60a7a83b406fa89d47947042e07f9d67c7d5e4e0836ae233590def64e3cc",
    (4, 3): "b81b9a22a1d81e258834dfa745b67e322634c26a343db8b2ffe86e9783e3f939",
    (4, 4): "2a175f0712320383663c8a74cd7c11605364dd08b4cf092d49eab0d4e104ead6",
}

#: The corpus targets the pins name: (d, s, k_max, seed).
CORPUS_ARGS = {"decay1": (1, 3.2, 16, 11), "decay2": (2, 4.2, 8, 7), "decay3": (3, 3.2, 6, 5)}


@pytest.mark.parametrize("key", TORUS_GRID_SHA256, ids=lambda key: "-".join(map(str, key)))
def test_torus_grid_bytes_pinned(key):
    if key[0] in CORPUS_ARGS:
        d, s, k_max, seed = CORPUS_ARGS[key[0]]
        t = rj.make_decay_target(d, s, k_max, seed=seed)
        modes, coeffs, points = t.modes, t.coeffs, key[1]
    else:
        d, points = key
        modes, coeffs = random_torus_set(d, points, 10 * d + points)
    vals = _grid_values_raw(d, modes, coeffs, EvaluationGrid(d, points))
    assert hashlib.sha256(vals.tobytes()).hexdigest() == TORUS_GRID_SHA256[key]


def pinned_torus_case(key):
    """The dimension, modes, coefficients and points of the grid a ``TORUS_GRID_SHA256`` key names."""
    if key[0] in CORPUS_ARGS:
        d, s, k_max, seed = CORPUS_ARGS[key[0]]
        t = rj.make_decay_target(d, s, k_max, seed=seed)
        return d, t.modes, t.coeffs, key[1]
    d, points = key
    return (d, *random_torus_set(d, points, 10 * d + points), points)


class TestGridInto:
    """With ``out``, the grid values are written into it and it is returned,
    byte for byte the fresh array, on the torus, the cube and with no modes."""

    def assert_into(self, d, modes, coeffs, grid):
        fresh = _grid_values_raw(d, modes, coeffs, grid)
        buf = np.full((grid.points_per_axis,) * d, np.nan)  # no stale value may survive
        assert _grid_values_raw(d, modes, coeffs, grid, buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        return buf

    @pytest.mark.parametrize("key", TORUS_GRID_SHA256, ids=lambda key: "-".join(map(str, key)))
    def test_torus_pins(self, key):
        d, modes, coeffs, points = pinned_torus_case(key)
        vals = self.assert_into(d, modes, coeffs, EvaluationGrid(d, points))
        assert hashlib.sha256(vals.tobytes()).hexdigest() == TORUS_GRID_SHA256[key]

    @pytest.mark.parametrize("d, s, k_max, points", [(1, 3.2, 16, 4097), (2, 4.2, 8, 129), (3, 3.2, 6, 17)])
    def test_cube(self, d, s, k_max, points):
        t = rj.make_decay_target(d, s, k_max, seed=3)
        grid = EvaluationGrid(d, points, rj.CUBE)
        buf = np.full((points,) * d, np.nan)
        assert rj.grid_values(t, grid, out=buf) is buf
        assert buf.tobytes() == rj.grid_values(t, grid).tobytes()
        self.assert_into(d, t.modes, -1j * t.coeffs, grid)  # non-Hermitian

    @pytest.mark.parametrize("domain", [rj.TORUS, rj.CUBE])
    def test_no_modes_fills_zeros(self, domain):
        t = rj.make_trig_poly(2, {})
        buf = np.full((5, 5), np.nan)
        assert rj.grid_values(t, EvaluationGrid(2, 5, domain), out=buf) is buf
        assert buf.tobytes() == np.zeros((5, 5)).tobytes()

    @pytest.mark.parametrize("domain", [rj.TORUS, rj.CUBE])
    @pytest.mark.parametrize("modes", [{}, {(1, 0): 0.5, (-1, 0): 0.5}], ids=["no_modes", "cos"])
    @pytest.mark.parametrize(
        "shape, dtype",
        [((5, 6), float), ((25,), float), ((5, 5, 1), float), ((5,), float), ((5, 5), np.float32), ((5, 5), complex)],
    )
    def test_wrong_buffer_raises(self, domain, modes, shape, dtype):
        t = rj.make_trig_poly(2, modes)
        with pytest.raises(ValueError, match=r"out must be a float64 array of shape \(5, 5\)"):
            rj.grid_values(t, EvaluationGrid(2, 5, domain), out=np.zeros(shape, dtype=dtype))


def grid_values_by_cube_exp(d, modes, coeffs, points):
    """Reference: the coefficients in a box over -k_max..k_max on every axis, contracted one axis at
    a time against the direct ``exp(i k x)``; the complex sum, before its real part is taken."""
    k_max = int(np.abs(modes).max())
    box = np.zeros((2 * k_max + 1,) * d, dtype=np.complex128)
    np.add.at(box, tuple((modes + k_max).T), coeffs)
    axis = EvaluationGrid(1, points, rj.CUBE).axis()
    basis = np.exp(1j * np.arange(-k_max, k_max + 1, dtype=float)[:, None] * axis[None, :])
    vals = box
    for _ in range(d):
        vals = np.einsum("i...,ig->...g", vals, basis)
    return vals


class TestCubeTransform:
    """The cube branch moves each mode with ``k_d < 0`` to ``-k`` with the
    conjugate coefficient, contracts the first d - 1 axes against complex
    exponentials and finishes the last axis in real arithmetic over blocks of
    its points; its values agree with the real part of the complex sum over
    the unfolded box to ``TRANSFORM_TOL * eps * sum |c|``.  The coefficients
    need not be Hermitian."""

    def assert_close(self, d, modes, coeffs, points):
        got = _grid_values_raw(d, modes, coeffs, EvaluationGrid(d, points, rj.CUBE))
        want = grid_values_by_cube_exp(d, modes, coeffs, points).real
        assert got.dtype == np.float64
        assert got.shape == want.shape == (points,) * d
        tol = TRANSFORM_TOL * np.finfo(float).eps * float(np.abs(coeffs).sum())
        assert float(np.abs(got - want).max()) <= tol, (d, points)

    # the corpus shapes (decay1-3), down to 2 points, and an odd count beyond a whole number of blocks
    @pytest.mark.parametrize(
        "d, s, k_max, points",
        [(1, 3.2, 16, p) for p in (2, 3, 13, 17, 33, 129, 4096, 4097)]
        + [(2, 4.2, 8, p) for p in (2, 3, 17, 33, 129)]
        + [(3, 3.2, 6, p) for p in (2, 3, 13, 17, 33)]
        + [(1, 3.2, 200, 4096)],  # many blocks of the last axis, the last one partial
    )
    def test_decay_target(self, d, s, k_max, points):
        t = rj.make_decay_target(d, s, k_max, seed=3)
        self.assert_close(d, t.modes, t.coeffs, points)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("last", [-3, 0, 3])
    @pytest.mark.parametrize("points", [2, 9, 64])
    def test_single_mode(self, d, last, points):
        modes = np.array([[2, -1, last][-d:]])
        self.assert_close(d, modes, np.array([0.3 + 0.7j]), points)

    @pytest.mark.parametrize("d, k_max, points", [(1, 16, 4097), (2, 8, 129), (3, 6, 17)])
    def test_non_hermitian(self, d, k_max, points):
        # c(-k) is not conj(c(k)): a lost conjugate on a folded row or a lost Im part shows
        t = rj.make_decay_target(d, d + 1.2, k_max, seed=5)
        rng = np.random.default_rng(d)
        coeffs = rng.normal(size=(t.mode_count, 2)) @ np.array([1.0, 1j])
        self.assert_close(d, t.modes, coeffs, points)
        self.assert_close(d, t.modes, -1j * t.coeffs, points)  # imag_residual_on_grid's input

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairs_collide_after_the_fold(self, d):
        # k and -k land on one row of the folded box, rows with k_d = 0 stay apart;
        # the coefficients are not conjugates, so the sum depends on the conjugate and the order of adds
        base = np.array([[1, 0, 2], [0, 3, 1], [2, 2, 0], [3, -1, -4]])[:, -d:]
        modes = np.concatenate([base, -base, base])
        coeffs = np.random.default_rng(d).normal(size=(modes.shape[0], 2)) @ np.array([1.0, 1e-3j])
        for points in (2, 5, 33):
            self.assert_close(d, modes, coeffs, points)

    @pytest.mark.parametrize("d, k_max, points", [(1, 16, 4096), (2, 8, 129), (3, 6, 33)])
    def test_values_do_not_depend_on_the_block_size(self, monkeypatch, d, k_max, points):
        t = rj.make_decay_target(d, d + 1.2, k_max, seed=7)
        grid = EvaluationGrid(d, points, rj.CUBE)
        blocked = rj.grid_values(t, grid)
        for cells in (1, 10**9):  # one point a block, and one block
            monkeypatch.setattr(targets, "_CELL_BLOCK", cells)
            assert rj.grid_values(t, grid).tobytes() == blocked.tobytes(), cells


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

    @pytest.mark.parametrize("d, k_max, points", [(1, 16, 4096), (2, 8, 64), (3, 6, 16)])
    def test_one_grid_for_every_derivative(self, monkeypatch, d, k_max, points):
        """Every derivative is transformed into one buffer, and the norm is the
        float the maximum over fresh grids gives."""
        t = rj.make_decay_target(d, d + 1.2, k_max, seed=7)
        grid = rj.default_grid(d, rj.TORUS, points)
        kf = t.modes.astype(float)
        want = 0.0
        for alpha in multi_indices(d, 2):
            weights = np.ones(t.mode_count, dtype=np.complex128)
            for j, a in enumerate(alpha):
                if a:
                    weights = weights * (1j * kf[:, j]) ** a
            want = max(want, _max_abs(_grid_values_raw(d, t.modes, t.coeffs * weights, grid)))
        buffers = []
        raw = targets._grid_values_raw

        def recording(*args):
            buffers.append(args[4])
            return raw(*args)

        monkeypatch.setattr(targets, "_grid_values_raw", recording)
        assert rj.holder_norm(t, 2, grid) == want
        assert len(buffers) == len(list(multi_indices(d, 2)))
        assert all(b is buffers[0] for b in buffers)

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

    @pytest.mark.parametrize("line", ["-9223372036854775808 1 0", "9223372036854775808 1 0", "99999999999999999999 1 0"])
    def test_rejects_frequency_beyond_int64(self, line):
        k = line.split()[0]
        with pytest.raises(ValueError, match=rf"frequency k=\({k},\) is out of range"):
            loads_target(f"d=1 r=2\n0 1 0\n{line}\n")

    def test_rejects_l1_norm_beyond_2_62(self):
        k = 2**62
        with pytest.raises(ValueError, match=rf"frequency k=\({k}, {k}\) is out of range"):
            loads_target(f"d=2 r=2\n0 0 1 0\n{k} {k} 0.5 0\n{-k} {-k} 0.5 0\n")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1 0\n4611686018427387904 x 0\n1.5 1 0\n", "invalid literal for int"),
            ("0 1 x\n4611686018427387904 1 0\n", "frequency k=\\(4611686018427387904,\\) is out of range"),
            ("0 1 0\n2 1 y\n1 x 0\n", "could not convert string to float: 'y'"),
        ],
        ids=["frequency_tokens_first", "range_before_values", "values_in_reading_order"],
    )
    def test_names_the_first_bad_token_in_reading_order(self, body, message):
        # every frequency token is read before the range check, and both before any value token
        with pytest.raises(ValueError, match=message):
            loads_target(f"d=1 r=2\n{body}")

    def test_bad_key_named_before_a_later_bad_value(self):
        """Frequencies are converted before values, so a bad key is named even
        when a bad value comes on a later line, and also on an earlier one."""
        with pytest.raises(ValueError, match="invalid literal for int.*'1x'"):
            loads_target("d=2 r=2\n0 0 1 0\n1x 0 0.5 0\n-1 0 0.5 y\n")
        with pytest.raises(ValueError, match="invalid literal for int.*'1x'"):
            loads_target("d=2 r=2\n0 0 1 y\n1x 0 0.5 0\n")

    @pytest.mark.parametrize("frequencies", ["", "0 1 0\n"], ids=["no_frequency_line", "one_frequency_line"])
    def test_rejects_huge_dimension(self, frequencies):
        """With no frequency line this raised NumPy's "Maximum allowed
        dimension exceeded"; a line still fails its field count first."""
        text = "d=" + "9" * 400 + " r=1\n" + frequencies
        match = "bad coefficient line" if frequencies else r"dimension d=9+ is above 64"
        with pytest.raises(ValueError, match=match):
            loads_target(text)

    def test_largest_dimension_loads(self):
        assert loads_target(f"d={MAX_DIMENSION} r=1\n").modes.shape == (0, MAX_DIMENSION)

    def test_rejects_order_beyond_float_range(self):
        """Such an r used to raise OverflowError from the float conversion."""
        with pytest.raises(ValueError, match="target header has r= beyond the float range"):
            loads_target("d=1 r=" + "9" * 400 + "\n0 1 0\n")

    @pytest.mark.parametrize("header", ["d=1 r=2.5", "d=x r=2", "d=1.0 r=inf", "d=1 r=infinity"])
    def test_non_numeric_header_value_named(self, header):
        """Such values used to raise int()'s own message, which does not say
        which header key holds them."""
        bad = next(item for item in header.split() if item not in ("d=1", "r=2", "r=inf"))
        with pytest.raises(ValueError, match=f"target header has {bad}; it must be an integer"):
            loads_target(f"{header}\n0 1 0\n")

    @pytest.mark.parametrize("header,key", [("r=2", "d="), ("d=1", "r=")])
    def test_missing_header_key_named(self, header, key):
        with pytest.raises(ValueError, match=key):
            loads_target(f"{header}\n0 1 0\n")

    @pytest.mark.parametrize(
        "header, named",
        [
            ("d=1 r=2 junk", "item 'junk' is not key=value"),
            ("d=1 r=2 s=3", "item 's=3' is not key=value with a known key"),
            ("d=1 r=2 =3", "item '=3' is not key=value"),
            ("d=1 r=2 r=5", "repeats r="),
            ("d=1 d=1 r=2", "repeats d="),
        ],
    )
    def test_rejects_malformed_header_item(self, header, named):
        """An item without = used to raise dict()'s own message, an unknown
        key was dropped and a repeated key kept its last value."""
        with pytest.raises(ValueError, match=f"target header {named}"):
            loads_target(f"{header}\n0 1 0\n")


def test_difference():
    a = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
    b = rj.make_trig_poly(1, {1: 0.25, -1: 0.25, 0: 1.0})
    d = rj.difference(a, b)
    assert d.as_dict() == {(1,): 0.25, (-1,): 0.25, (0,): -1.0}


@pytest.mark.parametrize("n,d,spread", [(0, 2, 3), (1, 1, 3), (60, 1, 5), (300, 2, 3), (400, 3, 2), (100, 4, 40)])
def test_distinct_rows_match_unique(n, d, spread):
    """The distinct rows and the ranks are what ``np.unique(..., axis=0,
    return_inverse=True)`` returns, bit for bit, negative entries included."""
    rows = np.random.default_rng(n + d).integers(-spread, spread + 1, size=(n, d))
    distinct, rank = _distinct_rows(rows)
    expected, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(distinct, expected) and distinct.dtype == expected.dtype
    assert np.array_equal(rank, inverse.ravel())

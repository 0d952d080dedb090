import hashlib
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson import network, sampler
from relu_jackson.network import (
    MAX_AFFINE_UNITS,
    ORIGIN_AFFINE,
    ORIGIN_SAMPLED,
    SHIFT_LIMIT,
    NetworkMeta,
    ShallowNetwork,
    Units,
    _CELL_BLOCK,
    _evaluate_dense,
    _evaluate_lines,
    _kept_sloped,
    _line_layout,
    _line_path_pays,
    _sorted_bins,
    audit,
    certified_sup_error,
    dumps_network,
    evaluate,
    lipschitz_bound,
    loads_network,
    sup_error,
)
from relu_jackson.spectral import variation
from relu_jackson.targets import MAX_DIMENSION


def simple_net(rows, d=1, meta=None):
    return ShallowNetwork(d, Units.build(d, rows), meta)


class TestEvaluate:
    def test_empty(self):
        net = ShallowNetwork(2, Units.empty(2))
        assert evaluate(net, [0.3, -0.4]) == 0.0

    def test_single_unit_active(self):
        net = simple_net([(np.array([1.0, 0.0]), 1.0, 0.0, "sampled")], d=2)
        assert evaluate(net, [0.7, 0.1]) == pytest.approx(0.7)

    def test_single_unit_inactive(self):
        net = simple_net([(np.array([1.0, 0.0]), 1.0, 0.0, "sampled")], d=2)
        assert evaluate(net, [-0.7, 0.9]) == 0.0

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        rows = [
            (rng.normal(size=2) / 4, rng.normal(), rng.random(), "sampled") for _ in range(50)
        ]
        net = simple_net(rows, d=2)
        xs = rng.uniform(-1, 1, size=(37, 2))
        batch = evaluate(net, xs)
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(evaluate(net, x), abs=1e-12)

    def test_bare_number_is_one_point_in_d1(self):
        net = simple_net([(np.array([0.5]), 1.0, 0.1, "sampled"), (np.array([-0.3]), 2.0, 0.0, "sampled")])
        value = evaluate(net, 0.5)
        assert type(value) is float
        assert value == evaluate(net, [0.5])

    def test_bare_number_rejected_in_d2(self):
        net = simple_net([(np.array([1.0, 0.0]), 1.0, 0.0, "sampled")], d=2)
        with pytest.raises(ValueError, match=re.escape("points must have shape (2,) or (n, 2), not ()")):
            evaluate(net, 0.5)

    @pytest.mark.parametrize("last_axis", [1, 3])
    def test_rejects_points_with_more_than_two_axes(self, last_axis):
        # a (P, d, 1) array is not read as (P, d), and a (P, d, 3) one fails before the einsum
        net = simple_net([(np.array([1.0, 0.0]), 1.0, 0.0, "sampled")], d=2)
        pts = np.zeros((5, 2, last_axis))
        with pytest.raises(ValueError, match=re.escape(f"not (5, 2, {last_axis})")):
            evaluate(net, pts)

    def test_piecewise_linear_on_safe_segments(self):
        rng = np.random.default_rng(5)
        rows = [
            (rng.normal(size=1) / 3, rng.normal(), rng.random(), "sampled") for _ in range(20)
        ]
        net = simple_net(rows, d=1)
        checked = 0
        for _ in range(200):
            a, b = np.sort(rng.uniform(-1, 1, size=2))
            pre_a = net.units.alphas[:, 0] * a - net.units.biases
            pre_b = net.units.alphas[:, 0] * b - net.units.biases
            if np.any(pre_a * pre_b < 0):
                continue  # a unit kink lies inside the segment
            mid = 0.5 * (a + b)
            lhs = evaluate(net, [mid])
            rhs = 0.5 * (evaluate(net, [a]) + evaluate(net, [b]))
            assert lhs == pytest.approx(rhs, abs=1e-12)
            checked += 1
        assert checked > 20

    def test_positive_homogeneity_rescaling(self):
        rng = np.random.default_rng(8)
        alpha = np.array([0.2, -0.1])
        net = simple_net([(alpha, 1.7, 0.3, "sampled")], d=2)
        for c in (2.0, 0.5, 3.7):
            scaled = simple_net([(alpha / c, 1.7 * c, 0.3 / c, "sampled")], d=2)
            for x in rng.uniform(-1, 1, size=(20, 2)):
                assert evaluate(net, x) == pytest.approx(evaluate(scaled, x), abs=1e-12)


def line_test_net(d, rng, count=120):
    """Random sampled units plus every special case of the line path.

    Weights and biases are multiples of 1/8 where it matters, so on a grid of
    17 points per axis (spacing 1/8) the breakpoint of the last unit falls
    exactly on a grid point.
    """
    rows = []
    for i in range(count):
        alpha = rng.normal(size=d)
        if i % 5 == 0:
            alpha[-1] = 0.0  # constant along every line
        alpha /= max(1.0, np.abs(alpha).sum())
        rows.append((alpha, rng.normal(), rng.random(), ORIGIN_SAMPLED))
    for j in range(d):
        rows.append((np.eye(d)[j], rng.normal(), 0.0, ORIGIN_AFFINE))
    rows.append((np.zeros(d), rng.normal(), -1.0, ORIGIN_AFFINE))
    on_grid = np.full(d, 0.125)
    on_grid[-1] = -0.5
    rows.append((on_grid, 1.5, float(on_grid @ np.linspace(-1.0, 1.0, 17)[np.arange(d) + 5]), ORIGIN_AFFINE))
    return simple_net(rows, d=d)


def rounding_scale(net):
    """sum |beta| (|alpha|_1 + |bias|): the size of the terms both paths add."""
    u = net.units
    return float(np.sum(np.abs(u.betas) * (np.abs(u.alphas).sum(axis=1) + np.abs(u.biases))))


def pruning_test_net(d, rng, count=600):
    """Units with |alpha|_1 = 1/pi and bias in [0, 1], about two thirds of
    them zero on the cube, plus two heavy units whose kink meets the grid
    corner (1, ..., 1) of a 17-point axis: one through it, one past it by a
    relative 1e-10.

    Returns the network and the mask of the units built to be zero on the
    cube with a nonzero last weight.
    """
    rows, dead = [], []
    for i in range(count):
        alpha = rng.normal(size=d)
        if i % 7 == 0:
            alpha[-1] = 0.0  # constant along every line
        alpha /= np.pi * np.abs(alpha).sum()
        bias = rng.random()
        rows.append((alpha, rng.normal(), bias, ORIGIN_SAMPLED))
        dead.append(bias > 1.001 / np.pi and alpha[-1] != 0.0)
    corner = np.full(d, 0.125)
    for bias in (0.125 * d, 0.125 * d * (1.0 - 1e-10)):
        rows.append((corner, 1e3, bias, ORIGIN_SAMPLED))
        dead.append(False)
    return simple_net(rows, d=d), np.array(dead)


def keep_units(units, mask):
    return Units(units.alphas[mask], units.betas[mask], units.biases[mask], int(mask[: units.sampled_count].sum()))


def assert_grid_layout(pts, grid):
    """The layout check reads the grid in C order: the lines' first d - 1 coordinates, then the axis."""
    x_rest, t = _line_layout(pts)
    assert t.tolist() == grid.axis().tolist()
    assert x_rest.tolist() == pts[:: grid.points_per_axis, :-1].tolist()


class TestLinePath:
    @pytest.mark.parametrize("d, per_axis", [(1, 257), (2, 17), (3, 17)])
    def test_matches_dense_on_shuffled_grid(self, d, per_axis):
        # the grid in C order takes the line path; shuffled, it takes the dense one
        rng = np.random.default_rng(40 + d)
        net = line_test_net(d, rng)
        grid = rj.EvaluationGrid(d, per_axis, rj.CUBE)
        pts = grid.points()
        lines = per_axis ** (d - 1)
        assert _line_path_pays(net.unit_count, pts.shape[0], lines)
        assert_grid_layout(pts, grid)
        got = evaluate(net, pts)
        ref = _evaluate_dense(net.units, pts)
        assert np.abs(got - ref).max() <= 1e-14 * rounding_scale(net)
        assert got.tobytes() == evaluate(net, pts).tobytes()
        perm = rng.permutation(pts.shape[0])
        shuffled = evaluate(net, pts[perm])
        assert shuffled.tobytes() == _evaluate_dense(net.units, pts[perm]).tobytes()
        assert np.abs(shuffled - got[perm]).max() <= 1e-14 * rounding_scale(net)

    def test_breakpoint_on_grid_point(self):
        # 2 relu(0.5 t) - 2 relu(-0.5 t) = t, both kinks on the grid point t = 0
        net = simple_net([(np.array([0.5]), 2.0, 0.0, ORIGIN_SAMPLED), (np.array([-0.5]), -2.0, 0.0, ORIGIN_SAMPLED)])
        pts = rj.EvaluationGrid(1, 17, rj.CUBE).points()
        assert _line_path_pays(net.unit_count, pts.shape[0], 1)
        assert evaluate(net, pts).tolist() == pts[:, 0].tolist()

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_dense_across_blocks(self, d):
        rng = np.random.default_rng(60 + d)
        net = line_test_net(d, rng, count=3000)
        grid = rj.EvaluationGrid(d, 17, rj.CUBE)
        pts = grid.points()
        lines = 17 ** (d - 1)
        step = _CELL_BLOCK // net.unit_count
        assert 1 < step < lines and lines % step  # several blocks, the last one partial
        assert _line_path_pays(net.unit_count, pts.shape[0], lines)
        assert_grid_layout(pts, grid)
        got = evaluate(net, pts)
        ref = _evaluate_dense(net.units, pts)
        assert np.abs(got - ref).max() <= 1e-14 * rounding_scale(net)
        assert got.tobytes() == evaluate(net, pts).tobytes()

    def test_breakpoint_on_grid_point_both_signs(self):
        # kinks at t = -x_1 / 2 and t = x_1 / 2: on a grid point of every other line
        rows = [
            (np.array([0.25, 0.5]), 2.0, 0.0, ORIGIN_SAMPLED),
            (np.array([0.25, -0.5]), -3.0, 0.0, ORIGIN_SAMPLED),
            (np.array([0.5, 0.0]), 1.5, 0.25, ORIGIN_SAMPLED),
        ]
        net = simple_net(rows, d=2)
        pts = rj.EvaluationGrid(2, 17, rj.CUBE).points()
        assert _line_path_pays(net.unit_count, pts.shape[0], 17)
        x, t = pts[:, 0], pts[:, 1]
        exact = (
            2.0 * np.maximum(0.25 * x + 0.5 * t, 0.0)
            - 3.0 * np.maximum(0.25 * x - 0.5 * t, 0.0)
            + 1.5 * np.maximum(0.5 * x - 0.25, 0.0)
        )
        got = evaluate(net, pts)
        assert got.tolist() == exact.tolist()
        assert got.tobytes() == evaluate(net, pts).tobytes()

    @pytest.mark.parametrize("case", ["point_removed", "lines_differ"])
    def test_non_tensor_points_take_dense_path(self, case):
        rng = np.random.default_rng(70)
        net = line_test_net(2, rng)
        pts = rj.EvaluationGrid(2, 17, rj.CUBE).points()
        if case == "point_removed":
            pts = np.delete(pts, 40, axis=0)
        else:
            pts[pts[:, 0] == 0.5, 1] += 1e-3  # one line holds other t values
        assert _line_layout(pts) is None
        assert _line_path_pays(net.unit_count, pts.shape[0], 17)
        got = evaluate(net, pts)
        assert got.tobytes() == _evaluate_dense(net.units, pts).tobytes()
        assert got.tobytes() == evaluate(net, pts).tobytes()

    @pytest.mark.parametrize("case", ["shuffled", "reversed_axis", "swapped_between_lines", "unsorted_d1"])
    def test_other_point_orders_take_dense_path(self, case):
        rng = np.random.default_rng(75)
        d = 1 if case == "unsorted_d1" else 2
        net = line_test_net(d, rng)
        pts = rj.EvaluationGrid(d, 33, rj.CUBE).points()
        if case == "shuffled":
            pts = pts[rng.permutation(pts.shape[0])]
        elif case == "reversed_axis":
            pts[:, -1] = -pts[:, -1]  # t descends along every line
        elif case == "swapped_between_lines":
            pts[[3 * 33 + 5, 7 * 33 + 5]] = pts[[7 * 33 + 5, 3 * 33 + 5]]  # same t, two lines mixed
        else:
            pts[[3, 4]] = pts[[4, 3]]
        assert _line_layout(pts) is None
        assert _line_path_pays(net.unit_count, pts.shape[0], 33 ** (d - 1))
        assert evaluate(net, pts).tobytes() == _evaluate_dense(net.units, pts).tobytes()

    def test_lines_in_other_order_take_line_path(self):
        # only each line's own t must ascend; the lines may come in any order
        net = line_test_net(2, np.random.default_rng(76))
        pts = rj.EvaluationGrid(2, 33, rj.CUBE).points()
        reversed_lines = pts.reshape(33, 33, 2)[::-1].reshape(-1, 2)
        assert _line_layout(reversed_lines)[1].tolist() == np.linspace(-1.0, 1.0, 33).tolist()
        got = evaluate(net, reversed_lines)
        assert got.tobytes() == evaluate(net, pts).reshape(33, 33)[::-1].tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_skips_units_zero_on_the_points(self, d):
        # left out of the +/- groups, a dead unit changes no kept bin: the bytes stay those of the net without it
        net, dead = pruning_test_net(d, np.random.default_rng(80 + d))
        assert 0.5 < dead.mean() < 0.8 and np.sum(net.units.alphas[:, -1] == 0.0) > 50
        pts = rj.EvaluationGrid(d, 17, rj.CUBE).points()
        x_rest, t = _line_layout(pts)
        assert _line_path_pays(net.unit_count, pts.shape[0], x_rest.shape[0])
        got = evaluate(net, pts)
        live = keep_units(net.units, ~dead)
        # two far lines widen the box so that no flat unit is left out; a line's values do not depend on the others
        far = np.array([[-10.0] * (d - 1), [10.0] * (d - 1)])
        assert got.tobytes() == _evaluate_lines(live, np.vstack([x_rest, far]), t)[:-2].tobytes()
        ref = _evaluate_dense(net.units, pts)
        assert np.abs(got - ref).max() <= 1e-14 * rounding_scale(net)
        assert 1e3 * 0.125 * d * 1e-10 > 100 * 1e-14 * rounding_scale(net)  # the unit past the corner counts

    @pytest.mark.parametrize("scale", [3.0, 0.25])
    def test_box_comes_from_the_points(self, scale):
        # beyond the cube the dead units come alive; inside it more units are dead
        net, dead = pruning_test_net(2, np.random.default_rng(85))
        pts = rj.EvaluationGrid(2, 17, rj.CUBE).points() * scale
        assert _line_layout(pts) is not None
        got = evaluate(net, pts)
        ref = _evaluate_dense(net.units, pts)
        assert np.abs(got - ref).max() <= 1e-14 * rounding_scale(net) * scale
        without_dead = _evaluate_dense(keep_units(net.units, ~dead), pts)
        assert bool(np.abs(without_dead - ref).max() > 0.1) is (scale > 1.0)

    def test_empty_network_gives_zeros(self):
        net = ShallowNetwork(2, Units.empty(2))
        pts = rj.EvaluationGrid(2, 17, rj.CUBE).points()
        assert not _line_path_pays(0, pts.shape[0], 17)
        assert evaluate(net, pts).tolist() == [0.0] * pts.shape[0]

    #: sha256 of dtype, shape and bytes of ``evaluate`` on the default cube
    #: grid times a scale, computed with one ``searchsorted`` per breakpoint:
    #: guessed and checked bins must change no byte.
    EVALUATE_DIGESTS = {
        "decay2": "61c9308a4f0b4f6c7f613e8889f6fae6313fa89734aa67ed957b69d5711a811a",
        "decay2_x3": "0494ff2c814f6e9ac033e82e783edd1372f240315981163dee7a2d8613bf3ca8",
        "decay2_x0.25": "cc884cff2c06f39f16a61f26b945826b906051ca1b5bb80c5f716bb10470d74c",
        "decay3": "00839b752e017b7cec481ae1853ab64e6ef27692b3e8d89c8ede0852db433d98",
        "decay1": "add1507de7750ad5cfa9a4f9076b3400b1c018195797edf23eeb5e9691ddb389",
    }

    @pytest.mark.parametrize(
        "name, target, seed, per_axis, scale",
        [
            ("decay2", (2, 4.2, 8, 7), 1, 129, 1.0),
            ("decay2_x3", (2, 4.2, 8, 7), 1, 129, 3.0),
            ("decay2_x0.25", (2, 4.2, 8, 7), 1, 129, 0.25),
            ("decay3", (3, 3.2, 6, 5), 5, 33, 1.0),
            ("decay1", (1, 3.2, 16, 11), 1, 4096, 1.0),
        ],
        ids=["decay2", "decay2_x3", "decay2_x0.25", "decay3", "decay1"],
    )
    def test_evaluate_bytes_pinned(self, name, target, seed, per_axis, scale):
        d, s, k_max, target_seed = target
        net = rj.construct(rj.make_decay_target(d, s, k_max, seed=target_seed), 2, 4096, seed)
        pts = rj.default_grid(d, rj.CUBE, per_axis).points() * scale
        assert _line_layout(pts) is not None
        assert _line_path_pays(net.unit_count, pts.shape[0], per_axis ** (d - 1))
        out = evaluate(net, pts)
        digest = hashlib.sha256(f"{out.dtype.str}{out.shape}".encode() + out.tobytes()).hexdigest()
        assert digest == self.EVALUATE_DIGESTS[name]

    #: sha256 of dtype, shape and bytes of ``_evaluate_lines`` for the decay2
    #: m=4096 network on the 129 lines of its grid, at a t that is not evenly
    #: spaced (most guessed bins fail their check), computed with the falling
    #: units binned on t itself and summed from its end.
    LINE_DIGESTS = {
        "cubed": "a7fbff87b7caf6e7ce05a644b9d42b16b920d4b9a42c745c0a653c70268a1f90",
        "repeated": "b2fa3bb805e093d204b4f21de5158477043a16a913b9b2ba17ef0c3631944d62",
    }

    @pytest.mark.parametrize("name", ["cubed", "repeated"])
    def test_uneven_t_bytes_pinned(self, name):
        net = rj.construct(rj.make_decay_target(2, 4.2, 8, seed=7), 2, 4096, 1)
        s = rj.default_grid(2, rj.CUBE, 129).axis()
        t = np.sign(s) * np.abs(s) ** 3 if name == "cubed" else np.round(s * 8.0) / 8.0
        out = _evaluate_lines(net.units, s[:, None], t)
        digest = hashlib.sha256(f"{out.dtype.str}{out.shape}".encode() + out.tobytes()).hexdigest()
        assert digest == self.LINE_DIGESTS[name]

    #: sha256 of dtype, shape and bytes of ``_evaluate_lines`` on inputs the
    #: pins above miss: units whose ``c`` is zero in d = 1 (bias 0.0, next to
    #: the constant unit), a d = 2 network without flat units, one of falling
    #: units only, and decay3 on a shrunken grid, where most units are left
    #: out of most blocks of lines.
    CORNER_DIGESTS = {
        "d1_zero_c": "1b6babf647aa9f859c3f9ba22359d0059fe7f7a08d83ba6e684ae6728eeaefac",
        "d2_no_flat": "56a3ed10f8321565d8907006eff7e894fe2fcab97c9100d564161b55658f30be",
        "d2_falling": "c067ca399f4662e202effb498f9871773b99f776f3ddd44420d2833ceb9c929b",
        "decay3_x0.25": "c004b445a4114a43f7c7fd1be7a0daa5c6eb7ef0359e686952f21ec180dc4574",
    }

    @staticmethod
    def corner_input(name):
        rng = np.random.default_rng(96)
        if name == "decay3_x0.25":
            net = rj.construct(rj.make_decay_target(3, 3.2, 6, seed=5), 2, 4096, 5)
            return (net.units, *_line_layout(rj.default_grid(3, rj.CUBE, 33).points() * 0.25))
        d = 1 if name == "d1_zero_c" else 2
        alphas = rng.normal(size=(200, d))
        alphas /= np.pi * np.abs(alphas).sum(axis=1, keepdims=True)
        if name == "d2_falling":
            alphas[:, -1] = -np.abs(alphas[:, -1])
        rows = [(a, rng.normal(), rng.random() / np.pi, ORIGIN_SAMPLED) for a in alphas]
        if d == 1:
            rows += [
                (np.array([1.0 / np.pi]), 1.25, 0.0, ORIGIN_SAMPLED),
                (np.array([-1.0 / np.pi]), -0.5, 0.0, ORIGIN_SAMPLED),
                (np.zeros(1), 0.75, -1.0, ORIGIN_AFFINE),
            ]
        units = Units.build(d, rows)
        assert bool((units.alphas[:, -1] == 0.0).any()) is (d == 1)
        return (units, *_line_layout(rj.EvaluationGrid(d, 257 if d == 1 else 129, rj.CUBE).points()))

    @pytest.mark.parametrize("name", ["d1_zero_c", "d2_no_flat", "d2_falling", "decay3_x0.25"])
    def test_corner_bytes_pinned(self, name):
        out = _evaluate_lines(*self.corner_input(name))
        digest = hashlib.sha256(f"{out.dtype.str}{out.shape}".encode() + out.tobytes()).hexdigest()
        assert digest == self.CORNER_DIGESTS[name]

    @pytest.mark.parametrize("axis", ["even", "cubed"])
    def test_mirrored_line_keeps_the_bytes(self, axis):
        # negating a_last and t swaps the sign groups: each group is binned on the line the other
        # group used, with the same keys, so the values come back reversed along t, byte for byte
        s = rj.EvaluationGrid(2, 33, rj.CUBE).axis()
        t = s if axis == "even" else np.sign(s) * np.abs(s) ** 3
        kinks = [
            (np.array([0.0, 0.5]), 1.25, 0.5 * t[5], ORIGIN_AFFINE),  # kink on t[5]
            (np.array([0.0, -0.5]), -0.75, -0.5 * t[-6], ORIGIN_AFFINE),  # kink on t[-6]
        ]
        units = Units.concat([line_test_net(2, np.random.default_rng(77)).units, Units.build(2, kinks)])
        a_last = units.alphas[:, -1]
        assert (a_last > 0.0).any() and (a_last < 0.0).any() and (a_last == 0.0).any()
        net = ShallowNetwork(2, units)
        mirrored = ShallowNetwork(2, Units(units.alphas * [1.0, -1.0], units.betas, units.biases, units.sampled_count))
        lines = np.stack(np.meshgrid(s, t, indexing="ij"), axis=-1)  # (line, t, coordinate)
        pts, flipped = lines.reshape(-1, 2), (lines[:, ::-1] * [1.0, -1.0]).reshape(-1, 2)
        assert _line_layout(pts) is not None and _line_layout(flipped) is not None
        assert _line_path_pays(net.unit_count, pts.shape[0], 33)
        got = evaluate(net, pts).reshape(33, 33)
        assert got[:, ::-1].tobytes() == evaluate(mirrored, flipped).tobytes()

    @pytest.mark.parametrize(
        "units, points, lines, expected",
        [
            (4099, 4096, 1, True),  # d = 1 sweep grid
            (6500, 129 * 129, 129, True),  # d = 2 sweep grid
            (64, 129 * 129, 129, True),
            (131, 5, 1, False),  # a few points in d = 1
            (2000, 500, 500, False),  # scattered points in d >= 2
        ],
    )
    def test_path_choice(self, units, points, lines, expected):
        assert _line_path_pays(units, points, lines) is expected


@pytest.fixture(scope="module")
def decay_nets():
    """decay1 and decay2, by dimension, each with its network at m = 1024, seed 1."""
    targets = {1: rj.make_decay_target(1, 3.2, 16, seed=11), 2: rj.make_decay_target(2, 4.2, 8, seed=7)}
    return {d: (target, rj.construct(target, 2, 1024, 1)) for d, target in targets.items()}


class TestNonFiniteParameter:
    """A NaN last weight used to put its unit in none of the line path's
    rising, falling or flat groups, so the unit was dropped and the network
    read finite; an infinite one gave the line path other non-finite points
    than the dense path.  A network with a non-finite parameter now takes
    the dense path."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["alpha_last", "alpha_first", "bias", "beta"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_dense_path_values(self, decay_nets, d, where, value):
        target, net = decay_nets[d]
        alphas, biases, betas = net.units.alphas.copy(), net.units.biases.copy(), net.units.betas.copy()
        array, index = {"alpha_last": (alphas, (5, -1)), "alpha_first": (alphas, (5, 0)),
                        "bias": (biases, 5), "beta": (betas, 5)}[where]
        array[index] = value
        bad = ShallowNetwork(d, Units(alphas, betas, biases, net.units.sampled_count), net.meta)
        grid = rj.EvaluationGrid(d, 65, rj.CUBE)
        pts = grid.points()
        assert _line_path_pays(bad.unit_count, pts.shape[0], 65 ** (d - 1))
        got = evaluate(bad, pts)
        np.testing.assert_array_equal(got, _evaluate_dense(bad.units, pts))
        error = rj.grid_error(target, grid)(bad)
        if where == "bias" and value == math.inf:
            # an infinite shift switches the unit off on the whole cube
            assert math.isfinite(error)
        else:
            assert not math.isfinite(error)


class TestBlockPruning:
    """Units left out of a block of lines are those whose breakpoint is in the end bin on every line."""

    #: directions (-0.5, a_last) at the block's low end x_1 = 0.5 give c = -0.25 - bias: key 0.25 + bias
    BLOCK = np.array([[0.5], [0.75]])
    ON_END, ULP_INSIDE = 0.75, float(np.nextafter(0.75, 0.0))  # keys 1.0 and nextafter(1.0, 0.0)

    def two_units(self, a_last):
        rows = [(np.array([-0.5, a_last]), 1.0, bias, ORIGIN_SAMPLED) for bias in (self.ON_END, self.ULP_INSIDE)]
        return Units.build(2, rows)

    def test_rising_unit_on_the_last_t_is_left_out(self):
        t = np.linspace(-1.0, 1.0, 17)
        units = self.two_units(1.0)
        kept = _kept_sloped(units.alphas.T.copy(), units.biases, self.BLOCK, np.full(2, t[-1]))
        assert kept.tolist() == [False, True]
        # the unit an ulp inside is live at the last point of the block's low line, and only there
        for unit, tail in ((0, 0.0), (1, 2.0**-53)):
            out = _evaluate_lines(keep_units(units, np.arange(2) == unit), self.BLOCK, t)
            assert out.tolist() == [[0.0] * 16 + [tail], [0.0] * 17]

    def test_falling_unit_on_the_first_t_is_left_out(self):
        # t[-1] != -t[0], so a falling unit must be measured against the mirrored line's end -t[0] = 1
        t = np.linspace(-1.0, 0.5, 13)
        units = self.two_units(-1.0)
        kept = _kept_sloped(units.alphas.T.copy(), units.biases, self.BLOCK, np.full(2, -t[0]))
        assert kept.tolist() == [False, True]
        for unit, head in ((0, 0.0), (1, 2.0**-53)):
            out = _evaluate_lines(keep_units(units, np.arange(2) == unit), self.BLOCK, t)
            assert out.tolist() == [[head] + [0.0] * 12, [0.0] * 13]

    def test_nan_key_keeps_the_unit(self):
        a_t = np.array([[0.5], [1.0]])
        kept = _kept_sloped(a_t, np.array([5.0]), np.array([[np.nan], [0.0]]), np.array([1.0]))
        assert kept.tolist() == [True]

    def test_flat_unit_dead_on_every_line_stays_in_the_constant_sum(self):
        # removing a zero term from a pairwise sum can change its bytes, so a dead flat unit must stay
        rng = np.random.default_rng(90)
        rows = [
            (np.array([rng.uniform(0.1, 0.3), 0.0]), rng.normal(), -rng.uniform(0.35, 1.0), ORIGIN_SAMPLED)
            for _ in range(40)
        ]
        rows[17] = (np.array([0.25, 0.0]), 3.0, 0.5, ORIGIN_SAMPLED)  # c <= 0 for x_1 <= 1
        units = Units.build(2, rows)
        x_rest, t = np.linspace(-1.0, 1.0, 9)[:, None], np.linspace(-1.0, 1.0, 5)
        c = x_rest * units.alphas[:, 0] - units.biases
        assert (c[:, 17] <= 0.0).all() and (c[:, np.arange(40) != 17] > 0.0).all()
        terms = units.betas * np.maximum(c, 0.0)
        constant, without = np.sum(terms, axis=1), np.sum(np.delete(terms, 17, axis=1), axis=1)
        assert constant.tobytes() != without.tobytes()
        out = _evaluate_lines(units, x_rest, t)
        assert out.tobytes() == np.repeat(constant[:, None], len(t), axis=1).tobytes()

    @pytest.mark.parametrize(
        "target, per_axis", [((2, 4.2, 8, 7), 129), ((3, 3.2, 6, 5), 33)], ids=["decay2", "decay3"]
    )
    def test_blocks_match_single_lines(self, target, per_axis):
        # a one-line block's box is the line itself: the units a block leaves out change none of its lines' bytes
        d, s, k_max, target_seed = target
        net = rj.construct(rj.make_decay_target(d, s, k_max, seed=target_seed), 2, 4096, 1)
        x_rest, t = _line_layout(rj.default_grid(d, rj.CUBE, per_axis).points())
        assert 1 < _CELL_BLOCK // net.unit_count < x_rest.shape[0]
        got = _evaluate_lines(net.units, x_rest, t)
        singles = [_evaluate_lines(net.units, x_rest[i : i + 1], t) for i in range(x_rest.shape[0])]
        assert got.tobytes() == np.concatenate(singles).tobytes()

    @pytest.mark.parametrize(
        "target, m, per_axis", [((1, 3.2, 16, 11), 4096, 4096), ((2, 4.2, 8, 7), 256, 129)], ids=["decay1", "decay2"]
    )
    def test_block_keeping_every_unit_reads_them_ungathered(self, monkeypatch, target, m, per_axis):
        """A block that keeps every sloped unit reads the unit arrays as they
        are; gathering them through the kept indices, as a block that leaves
        units out does, gives the same bytes.  In d = 1 no mask is taken."""
        d, s, k_max, target_seed = target
        net = rj.construct(rj.make_decay_target(d, s, k_max, seed=target_seed), 2, m, 1)
        x_rest, t = _line_layout(rj.default_grid(d, rj.CUBE, per_axis).points())
        kept_sloped, every = network._kept_sloped, []

        def spy(*args):
            keep = kept_sloped(*args)
            every.append(bool(keep.all()))
            return keep

        monkeypatch.setattr(network, "_kept_sloped", spy)
        direct = _evaluate_lines(net.units, x_rest, t)
        if d == 1:
            assert every == []
            return
        assert every and all(every)

        class Gathered(np.ndarray):
            def all(self, *args, **kwargs):
                return False

        monkeypatch.setattr(network, "_kept_sloped", lambda *args: kept_sloped(*args).view(Gathered))
        assert _evaluate_lines(net.units, x_rest, t).tobytes() == direct.tobytes()

    def test_leaves_out_many_units(self):
        # on the d = 2 sweep grid, blocks of lines leave out a large share of the (line, unit) pairs
        net = rj.construct(rj.make_decay_target(2, 4.2, 8, seed=7), 2, 4096, 1)
        x_rest, t = _line_layout(rj.default_grid(2, rj.CUBE, 129).points())
        u = net.units
        sloped = u.alphas[:, -1] != 0.0
        a_t, biases = u.alphas[sloped].T.copy(), u.biases[sloped]
        ends = np.where(a_t[-1] > 0.0, t[-1], -t[0])
        step = _CELL_BLOCK // net.unit_count
        kept = sum(
            np.count_nonzero(_kept_sloped(a_t, biases, x_rest[l0 : l0 + step], ends)) * x_rest[l0 : l0 + step].shape[0]
            for l0 in range(0, x_rest.shape[0], step)
        )
        assert kept <= 0.7 * x_rest.shape[0] * np.count_nonzero(sloped)


def padded(t):
    return np.concatenate(([-np.inf], t, [np.inf]))


#: Keys on every edge: signed zeros, infinities, the largest finite values,
#: the smallest subnormals and NaN (``searchsorted`` puts it last).
SPECIAL_KEYS = np.array([0.0, -0.0, np.inf, -np.inf, 1.7e308, -1.7e308, 5e-324, -5e-324, np.nan])


class TestSortedBins:
    """``_sorted_bins`` returns exactly ``np.searchsorted(side="right")``; Tier-1 turns any warning into an error."""

    @staticmethod
    def assert_bins(t, q):
        want = np.searchsorted(t, q, side="right")
        got = np.full(q.shape, -7, dtype=np.intp)
        assert _sorted_bins(padded(t), q, out=got) is got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()
        # into a view of a wider array, as the line kernel bins each sign group: only the view is written
        wide = np.full(q.shape[:-1] + (q.shape[-1] + 3,), -7, dtype=np.intp)
        out = wide[..., 1:-2]
        assert _sorted_bins(padded(t), q, out=out) is out
        assert out.tolist() == want.tolist()
        assert (wide[..., :1] == -7).all() and (wide[..., -2:] == -7).all()

    @staticmethod
    def edge_keys(t):
        """Every t[j], its neighbours in float64 and the special keys."""
        return np.concatenate((t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), SPECIAL_KEYS))

    @pytest.mark.parametrize("size", [2, 17, 129, 4096])
    def test_evenly_spaced(self, size):
        rng = np.random.default_rng(size)
        t = np.linspace(-1.0, 1.0, size)
        self.assert_bins(t, rng.uniform(-1.5, 1.5, (40, 73)))
        self.assert_bins(t, self.edge_keys(t))

    @pytest.mark.parametrize(
        "t",
        [
            np.array([-1.0, -1.0, 0.0, 0.0, 0.0, 0.5, 1.0]),  # repeated values
            np.geomspace(1e-3, 10.0, 60),  # most guesses miss
            np.array([0.3]),
            np.full(5, 0.3),  # constant
            np.array([-0.0, 0.0]),
            np.array([-np.inf, 0.0, 1.0]),
            np.array([-1.7e308, 1.7e308]),  # the span overflows
            np.array([-1.1e308, 0.0, 1.1e308]),
            np.array([0.0, 5e-324, 1e-323]),  # the step's inverse overflows
            1e16 + 2.0 * np.arange(3),  # half a step is below the spacing of t
        ],
        ids=["repeated", "geometric", "one", "constant", "signed_zeros", "infinite_end", "wide", "wider",
             "subnormal", "coarse"],
    )
    def test_any_sorted_t(self, t):
        rng = np.random.default_rng(7)
        lo, hi = np.clip(t[[0, -1]], -10.0, 10.0)
        self.assert_bins(t, lo - 1.0 + (hi - lo + 2.0) * rng.random((9, 31)))
        self.assert_bins(t, self.edge_keys(t))


class TestSupError:
    def test_identical_constant(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        net = simple_net([(np.zeros(1), 1.0, -1.0, "affine")], d=1)
        assert sup_error(net, t, rj.default_grid(1, rj.CUBE)) < 1e-15

    def test_zero_net_vs_cos(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        net = ShallowNetwork(1, Units.empty(1))
        grid = rj.EvaluationGrid(1, 101, rj.CUBE)  # odd count puts x=0 on the grid
        assert sup_error(net, t, grid) == pytest.approx(1.0, abs=1e-15)

    def test_requires_cube(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        net = ShallowNetwork(1, Units.empty(1))
        with pytest.raises(ValueError):
            sup_error(net, t, rj.default_grid(1, rj.TORUS))
        with pytest.raises(ValueError, match="cube grid"):
            rj.grid_error(t, rj.default_grid(1, rj.TORUS))

    def test_reproducible(self, cos_target):
        net = rj.construct(cos_target, 2, 128, seed=7)
        grid = rj.default_grid(1, rj.CUBE)
        assert sup_error(net, cos_target, grid) == sup_error(net, cos_target, grid)

    @pytest.mark.parametrize("d, per_axis", [(1, 513), (2, 65), (3, 17)])
    def test_grid_error_is_the_max_of_evaluate(self, d, per_axis):
        """One ``grid_error`` closure serves every network on its grid, with
        the bytes of ``sup_error`` and of the maximum over ``evaluate``."""
        target = {1: rj.make_decay_target(1, 3.2, 16, seed=11), 2: rj.make_decay_target(2, 4.2, 8, seed=7),
                  3: rj.make_decay_target(3, 3.2, 6, seed=5)}[d]
        grid = rj.EvaluationGrid(d, per_axis, rj.CUBE)
        error = rj.grid_error(target, grid)
        tvals = rj.grid_values(target, grid).ravel()
        for m in (16, 256, 2048):
            for seed in (1, 2):
                net = rj.construct(target, 2, m, seed)
                direct = float(np.abs(tvals - evaluate(net, grid.points())).max())
                assert error(net).hex() == sup_error(net, target, grid).hex() == direct.hex(), (m, seed)

    def test_grid_error_rejects_other_dimension(self):
        target = rj.make_decay_target(2, 4.2, 8, seed=7)
        for d in (1, 3):
            with pytest.raises(ValueError, match="dimension mismatch"):
                rj.grid_error(target, rj.EvaluationGrid(d, 9, rj.CUBE))
        error = rj.grid_error(target, rj.EvaluationGrid(2, 9, rj.CUBE))
        with pytest.raises(ValueError, match="dimension mismatch"):
            error(ShallowNetwork(1, Units.empty(1)))


class TestGridErrorWorkspace:
    """A ``grid_error`` closure evaluates every network in one reused workspace."""

    CASES = {
        "decay1": ((1, 3.2, 16, 11), 4096),
        "decay2": ((2, 4.2, 8, 7), 129),
        "decay3": ((3, 3.2, 6, 5), 33),
    }

    @staticmethod
    def setting(name):
        spec, per_axis = TestGridErrorWorkspace.CASES[name]
        return rj.make_decay_target(*spec[:3], seed=spec[3]), rj.EvaluationGrid(spec[0], per_axis, rj.CUBE)

    @pytest.mark.parametrize("name", list(CASES))
    def test_widths_up_and_down_match_fresh_sup_error(self, name):
        """Buffers grown by a wide network and then viewed at a narrow width's shapes keep every float."""
        target, grid = self.setting(name)
        error = rj.grid_error(target, grid)
        for m, seed in ((64, 1), (4096, 1), (64, 2), (512, 1), (64, 1)):
            net = rj.construct(target, 2, m, seed)
            assert error(net).hex() == sup_error(net, target, grid).hex(), (m, seed)

    def test_nan_network_then_finite(self):
        target, grid = self.setting("decay2")
        error = rj.grid_error(target, grid)
        net = rj.construct(target, 2, 1024, 1)
        want = sup_error(net, target, grid)
        bad = ShallowNetwork(2, replace(net.units, betas=np.where(np.arange(net.unit_count) == 3, np.nan, net.units.betas)))
        assert math.isnan(error(bad))
        assert error(net) == want
        assert math.isnan(error(bad))
        assert error(net) == want

    def test_threads_share_one_closure(self):
        """Four threads on one closure get the single-threaded floats; the
        closure's workspace is used by one call at a time."""
        target, grid = self.setting("decay2")
        error = rj.grid_error(target, grid)
        nets = [rj.construct(target, 2, m, 1) for m in (256, 4096)]
        want = [sup_error(net, target, grid) for net in nets]
        results = [[] for _ in range(4)]

        def work(out):
            for i in range(60):
                try:
                    out.append((i % 2, error(nets[i % 2])))
                except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                    out.append((i % 2, repr(exc)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter over often, so the calls interleave
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        got = [pair for out in results for pair in out]
        assert len(got) == 240
        assert [value for which, value in got if value != want[which]] == []

    @pytest.mark.parametrize("name, m", [("decay2", 64), ("decay2", 4096), ("decay3", 4096)])
    def test_warm_closure_allocates_little(self, name, m):
        """A second call reuses the first call's buffers: its traced peak stays
        under 0.5 MB, where per-block temporaries took 1.1 to 2.9 MB."""
        target, grid = self.setting(name)
        error = rj.grid_error(target, grid)
        net = rj.construct(target, 2, m, 1)
        first = error(net)
        tracemalloc.start()
        try:
            second = error(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first
        assert peak < 0.5e6, peak


class TestLipschitz:
    def test_network_bound_formula(self):
        rows = [
            (np.array([0.5, -0.25]), 2.0, 0.1, "sampled"),
            (np.array([0.1, 0.1]), -3.0, 0.2, "sampled"),
        ]
        net = simple_net(rows, d=2)
        expected = 2.0 * 0.75 + 3.0 * 0.2
        assert lipschitz_bound(net) == pytest.approx(expected)

    def test_target_bound_formula(self):
        t = rj.make_trig_poly(1, {1: 0.5, -1: 0.5, 2: 0.25j, -2: -0.25j})
        assert variation(t, 1) == pytest.approx(0.5 + 0.5 + 2 * 0.25 + 2 * 0.25)

    def test_certificate_dominates_grid_max(self, cos_target):
        net = rj.construct(cos_target, 2, 256, seed=1)
        cert = certified_sup_error(net, cos_target, rj.default_grid(1, rj.CUBE))
        assert cert.bound >= cert.grid_max
        assert cert.bound <= cert.grid_max + (cert.lipschitz_target + cert.lipschitz_network)

    def test_certificate_sums_every_unit(self, corpus):
        """No sampled unit is zero on the whole cube: the largest value of
        alpha . x there is |alpha|_1, and no bias exceeds it.  So the
        certificate sums the Lipschitz terms of every unit."""
        for name, target in corpus:
            grid = rj.EvaluationGrid(target.d, 9, rj.CUBE)
            for m in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
                net = rj.construct(target, 2, m, seed=1)
                u = net.units
                sampled = u.origins == ORIGIN_SAMPLED
                assert np.all(u.biases[sampled] <= np.abs(u.alphas[sampled]).sum(axis=1)), (name, m)
                cert = certified_sup_error(net, target, grid)
                assert cert.lipschitz_network == lipschitz_bound(net), (name, m)
        target = dict(corpus)["decay2"]
        net = rj.construct(target, 2, 256, seed=1)
        grid = rj.EvaluationGrid(2, 33, rj.CUBE)
        cert = certified_sup_error(net, target, grid)
        pts = np.random.default_rng(2000).uniform(-1.0, 1.0, size=(2000, 2))
        for x in (pts, grid.points()):
            assert np.abs(rj.evaluate(target, x) - evaluate(net, x)).max() <= cert.bound

    @pytest.mark.parametrize(
        "d,target_args,m,points",
        [(2, (4.2, 8, 7), 1024, 33), (3, (3.2, 6, 5), 256, 9)],
    )
    def test_certificate_half_spacing(self, d, target_args, m, points):
        """Both Lipschitz sums are constants for the sup-norm of x, and every
        cube point lies within spacing / 2 of a grid point in each
        coordinate: the fill-in is (L_f + L_net) * spacing / 2, with no
        factor d, and random points stay under it."""
        target = rj.make_decay_target(d, *target_args[:2], seed=target_args[2])
        net = rj.construct(target, 2, m, seed=1)
        grid = rj.EvaluationGrid(d, points, rj.CUBE)
        cert = certified_sup_error(net, target, grid)
        assert cert.lipschitz_target == variation(target, 1)
        assert cert.bound == cert.grid_max + (cert.lipschitz_target + cert.lipschitz_network) * grid.spacing / 2.0
        pts = np.random.default_rng(d).uniform(-1.0, 1.0, size=(4000, d))
        assert np.abs(rj.evaluate(target, pts) - evaluate(net, pts)).max() <= cert.bound


class TestAudit:
    def test_constructed_network_passes(self, cos_target):
        rep = audit(rj.construct(cos_target, 2, 128, seed=2))
        assert rep.passed
        assert rep.check("sampled_alpha_l1").observed <= 1.0
        assert rep.check("affine_count").observed <= MAX_AFFINE_UNITS

    def test_flags_alpha_violation(self):
        meta = NetworkMeta(v=1.0, bandwidth=1, v2=1.0, m_requested=64, m_prime=16, strata_count=1)
        net = simple_net([(np.array([2.0]), 1e-3, 0.5, "sampled")], d=1, meta=meta)
        rep = audit(net)
        assert not rep.passed
        assert not rep.check("sampled_alpha_l1").passed

    def test_flags_beta_violation(self):
        meta = NetworkMeta(v=1.0, bandwidth=1, v2=1e-9, m_requested=64, m_prime=16, strata_count=1)
        net = simple_net([(np.array([0.1]), 5.0, 0.5, "sampled")], d=1, meta=meta)
        rep = audit(net)
        assert not rep.check("sampled_beta").passed
        # |beta| = 0.5 lies between the limit 8 pi v2 / m and the former 8 pi^2 v2 / m
        meta = NetworkMeta(v=1.0, bandwidth=1, v2=1.0, m_requested=64, m_prime=16, strata_count=1)
        net = simple_net([(np.array([0.1]), 0.5, 0.25, "sampled")], d=1, meta=meta)
        assert audit(net).check("sampled_beta").limit == 8 * np.pi / 64
        assert [c.name for c in audit(net).checks if not c.passed] == ["sampled_beta"]

    def test_flags_bias_violation(self):
        meta = NetworkMeta(v=0.0, bandwidth=1, v2=1.0, m_requested=64, m_prime=16, strata_count=0)
        net = simple_net([(np.array([0.1]), 1e-6, 1.5, "sampled")], d=1, meta=meta)
        rep = audit(net)
        assert not rep.check("sampled_bias_high").passed

    def test_flags_sampled_bias_above_shift_limit(self):
        """A sampled unit with shift 0.5 > 1/pi is zero on the whole cube; the
        bias limit 1 used to pass it."""
        meta = NetworkMeta(v=0.0, bandwidth=1, v2=1.0, m_requested=64, m_prime=16, strata_count=1)
        net = simple_net([(np.array([1 / np.pi]), 1e-6, 0.5, "sampled")], d=1, meta=meta)
        rep = audit(net)
        assert not rep.passed
        assert [c.name for c in rep.checks if not c.passed] == ["sampled_bias_high"]
        assert rep.check("sampled_bias_high").limit == SHIFT_LIMIT

    def test_flags_density_integrated_past_shift_limit(self, corpus, monkeypatch):
        """Masses integrated over shifts [0, 1] while the strata cut [0, 1/pi]:
        v comes out about 4 pi v2, within the old limit 2 pi^2 v2."""
        exact = sampler.build_density

        def past_limit(image):
            density = exact(image)
            f_one = sampler._abs_cos_primitive(density.omegas * 1.0 + density.phases)
            masses = sampler._atom_weight(density.magnitudes, density.l1) * ((f_one - density.f_lo) / density.omegas)
            return replace(density, masses=masses, v=math.fsum(masses.tolist()), cum=np.cumsum(masses))

        monkeypatch.setattr(sampler, "build_density", past_limit)
        for name, target in corpus:
            if name == "const1":
                continue
            net = rj.construct(target, 2, 256, seed=1)
            rep = audit(net)
            assert not rep.check("normalization_vs_variation").passed, name
            assert net.meta.v <= 2 * np.pi**2 * net.meta.v2, name

    def test_affine_bias_one_passes(self, cos_target):
        """The shift limit 1/pi binds sampled units only: the affine constant
        unit may keep bias up to 1."""
        net = rj.construct(cos_target, 2, 64, seed=1)
        meta = net.meta
        extra = Units.build(1, [(np.array([0.5]), 0.25, 1.0, ORIGIN_AFFINE)])
        net = ShallowNetwork(1, Units.concat([net.units, extra]), meta)
        rep = audit(net)
        assert rep.passed
        assert rep.check("affine_bias_high").observed == 1.0

    def test_affine_only_vacuous(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        rep = audit(rj.construct(t, 2, 32, seed=0))
        assert rep.passed
        assert rep.check("sampled_count").observed == 0
        assert rep.check("width").passed

    def test_width_fails_above_m_requested(self, cos_target):
        """A width-m network has at most m units; the audit used to report
        this as ``within_budget`` without failing."""
        net = rj.construct(cos_target, 2, 128, seed=2)
        over = ShallowNetwork(net.d, net.units, replace(net.meta, m_requested=net.unit_count - 1))
        rep = audit(over)
        assert not rep.passed
        assert [c.name for c in rep.checks if not c.passed] == ["width"]
        assert (rep.check("width").observed, rep.check("width").limit) == (net.unit_count, net.unit_count - 1)
        assert audit(ShallowNetwork(net.d, net.units, replace(net.meta, m_requested=net.unit_count))).passed

    @pytest.mark.parametrize("dropped", [None, "strata_count", "m_prime"])
    def test_repeated_rows_fail(self, corpus, dropped):
        """decay2 at m=256 with its sampled rows repeated 4x has 503 units.
        With strata_count or m_prime left out of the header it used to load
        and pass the audit, which skipped its sampled_count check."""
        net = rj.construct(dict(corpus)["decay2"], 2, 256, seed=7)
        schema, header, columns, *rows = dumps_network(net).splitlines()
        rows = [r for r in rows if r.endswith(",sampled")] * 4 + [r for r in rows if r.endswith(",affine")]
        header = header.replace(f" m={net.unit_count} ", f" m={len(rows)} ").replace(
            f" sampled_count={net.meta.sampled_count}", f" sampled_count={4 * net.meta.sampled_count}"
        )
        if dropped is not None:
            header = re.sub(f" {dropped}=[0-9]+", "", header)
        repeated = loads_network("\n".join([schema, header, columns, *rows]) + "\n")
        assert (repeated.unit_count, repeated.meta.m_requested) == (503, 256)
        if dropped is None:
            assert [c.name for c in audit(repeated).checks if not c.passed] == ["width", "sampled_count"]
        else:
            with pytest.raises(ValueError, match="audit requires construction metadata"):
                audit(repeated)

    def test_requires_metadata(self):
        net = simple_net([(np.array([0.1]), 1.0, 0.5, "sampled")], d=1)
        with pytest.raises(ValueError):
            audit(net)

    def test_check_names_and_order(self, cos_target):
        rep = audit(rj.construct(cos_target, 2, 128, seed=2))
        assert [c.name for c in rep.checks] == [
            "width",
            "sampled_alpha_l1",
            "sampled_bias_low",
            "sampled_bias_high",
            "sampled_beta",
            "normalization_vs_variation",
            "sampled_count",
            "affine_alpha_l1",
            "affine_bias_low",
            "affine_bias_high",
            "affine_count",
        ]
        assert [c.limit for c in rep.checks if c.name.endswith("_bias_low")] == [0.0, -1.0]
        assert [c.limit for c in rep.checks if c.name.endswith("_bias_high")] == [SHIFT_LIMIT, 1.0]


class TestSerialization:
    def test_roundtrip_bytes(self, cos_target):
        net = rj.construct(cos_target, 2, 128, seed=3)
        text = dumps_network(net)
        back = loads_network(text)
        assert dumps_network(back) == text
        assert back.d == net.d and back.unit_count == net.unit_count
        assert np.array_equal(back.units.alphas, net.units.alphas)
        assert np.array_equal(back.units.betas, net.units.betas)
        assert np.array_equal(back.units.biases, net.units.biases)
        assert np.array_equal(back.units.origins, net.units.origins)

    def test_rows_follow_the_columns(self):
        """Each row lists alpha_1..alpha_d, beta, bias and origin, and reads back to the same arrays."""
        rows = [
            (np.array([0.25, -0.5, 0.125]), 2.0, 0.5, "sampled"),
            (np.array([0.0, 1.0, 0.0]), -3.0, -1.0, "affine"),
        ]
        net = simple_net(rows, d=3, meta=NetworkMeta(v=1.0, bandwidth=1))
        text = dumps_network(net)
        assert text.splitlines()[2:] == [
            "alpha_1,alpha_2,alpha_3,beta,bias,origin",
            "0.25,-0.5,0.125,2,0.5,sampled",
            "0,1,0,-3,-1,affine",
        ]
        back = loads_network(text)
        for field in ("alphas", "betas", "biases", "origins"):
            assert np.array_equal(getattr(back.units, field), getattr(net.units, field)), field

    def test_header(self, cos_target):
        net = rj.construct(cos_target, 2, 64, seed=0)
        lines = dumps_network(net).splitlines()
        meta = net.meta
        assert lines[0] == "# schema=network@2"
        assert lines[1] == (
            f"# d=1 m={net.unit_count} v={meta.v:.17g} N={meta.bandwidth} v2={meta.v2:.17g} r=2 seed=0"
            f" m_requested=64 m_prime=16 strata_count={meta.strata_count} sampled_count={meta.sampled_count}"
        )
        assert lines[2] == "alpha_1,beta,bias,origin"

    def test_reloaded_network_audits(self, corpus):
        """network@1 kept only d, m, v and N, so auditing a reloaded network raised."""
        for name, target in corpus:
            net = rj.construct(target, 2, 128, seed=4)
            back = loads_network(dumps_network(net))
            assert back.meta == net.meta, name
            assert audit(back) == audit(net), name
            assert audit(back).passed, name

    def test_reads_header_of_required_keys(self):
        net = loads_network("# schema=network@2\n# d=1 m=1 v=2 N=3\nalpha_1,beta,bias,origin\n0.5,1,0.25,sampled\n")
        assert net.meta == NetworkMeta(v=2.0, bandwidth=3)
        assert dumps_network(net).splitlines()[:2] == ["# schema=network@2", "# d=1 m=1 v=2 N=3"]

    def test_file_roundtrip(self, tmp_path, cos_target):
        net = rj.construct(cos_target, 2, 64, seed=1)
        path = tmp_path / "net.csv"
        rj.save_network(net, path)
        back = rj.load_network(path)
        assert dumps_network(back) == dumps_network(net)

    def test_skips_whitespace_only_lines(self, cos_target):
        """A body line of spaces failed as ``bad unit row: '  '``; the target reader skipped it."""
        net = rj.construct(cos_target, 2, 64, seed=1)
        lines = dumps_network(net).splitlines()
        spaced = "\n".join(lines[:4] + ["   "] + lines[4:] + [" \t"]) + "\n"
        assert dumps_network(loads_network(spaced)) == dumps_network(net)
        lines[-1] += " "  # an origin with a trailing space is still refused
        with pytest.raises(ValueError, match=f"unknown origin '{lines[-1].split(',')[-1]}'"):
            loads_network("\n".join(lines + ["  "]) + "\n")

    def test_rejects_corrupt(self):
        with pytest.raises(ValueError):
            loads_network("not,a,network\n")
        # network@1, last written before the audit fields existed, is no longer read.
        with pytest.raises(ValueError, match="not a network CSV"):
            loads_network("# schema=network@1\n# d=1 m=1 v=2 N=3\nalpha_1,beta,bias,origin\n0.5,1,0.25,sampled\n")
        with pytest.raises(ValueError):
            loads_network("# schema=network@2\n# d=1 m=2 v=0 N=1\nalpha_1,beta,bias,origin\n0,1,0,sampled\n")
        for d in (0, -1):
            with pytest.raises(ValueError, match=f"d={d}"):
                loads_network(f"# schema=network@2\n# d={d} m=0 v=0 N=1\nbeta,bias,origin\n")

    @pytest.mark.parametrize("d", [2**40, int("9" * 400)], ids=["2**40", "400_digits"])
    def test_rejects_dimension_above_the_axis_limit(self, d):
        """With no unit rows a 400-digit d raised NumPy's "Maximum allowed
        dimension exceeded", and d=2**40 loaded a (0, 2**40) alphas array."""
        with pytest.raises(ValueError, match=f"network header has d={d}; it must be <= {MAX_DIMENSION}"):
            loads_network(f"# schema=network@2\n# d={d} m=0 v=0 N=1\nbeta,bias,origin\n")

    def test_largest_dimension_loads(self):
        columns = ",".join(f"alpha_{j + 1}" for j in range(MAX_DIMENSION))
        net = loads_network(f"# schema=network@2\n# d={MAX_DIMENSION} m=0 v=0 N=1\n{columns},beta,bias,origin\n")
        assert net.d == MAX_DIMENSION and net.units.alphas.shape == (0, MAX_DIMENSION)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", ["alpha", "beta", "bias", "v"])
    def test_rejects_non_finite(self, position, value):
        """A NaN weight used to load; the line and dense evaluation paths then disagreed."""
        fields = {"alpha": "0.25", "beta": "1", "bias": "0.5", "v": "1"}
        fields[position] = value
        row = f"0.5,{fields['alpha']},{fields['beta']},{fields['bias']},sampled"
        text = f"# schema=network@2\n# d=2 m=1 v={fields['v']} N=1\nalpha_1,alpha_2,beta,bias,origin\n{row}\n"
        named = "v=" if position == "v" else f"non-finite value in unit row: '{row}'"
        with pytest.raises(ValueError, match=named):
            loads_network(text)

    @pytest.mark.parametrize(
        "origin", ["bogus", "sampledX", "affine ", ""], ids=["bogus", "sampledX", "trailing_space", "empty"]
    )
    def test_rejects_unknown_origin(self, cos_target, origin):
        """The audit checks only sampled and affine units, so a unit tagged
        otherwise used to load and pass it whatever its weight; the 7-character
        origin column also cut ``sampledX`` to ``sampled``."""
        net = rj.construct(cos_target, 2, 64, seed=1)
        lines = dumps_network(net).splitlines()
        lines[1] = lines[1].replace(f"m={net.unit_count}", f"m={net.unit_count + 1}")
        row = f"1,1e6,0.5,{origin}"
        with pytest.raises(ValueError, match=f"unit row: '{row}'"):
            loads_network("\n".join(lines + [row]) + "\n")

    def test_rejects_affine_row_before_sampled_row(self, cos_target):
        """The units are split into sampled and affine by the count of leading
        sampled rows, so a sampled row after an affine one is refused, by name."""
        net = rj.construct(cos_target, 2, 64, seed=1)
        schema, header, columns, *rows = dumps_network(net).splitlines()
        last_sampled = rows.pop(net.meta.sampled_count - 1)
        with pytest.raises(ValueError, match=f"^sampled unit row: '{last_sampled}' follows an affine unit$"):
            loads_network("\n".join([schema, header, columns, *rows, last_sampled]) + "\n")

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0.5,1,y,sampled", "x,1,0.25,sampled"], "could not convert string to float: 'y'"),
            (["0.5,1,0.25,sampled", "0.5,1,sampled"], "bad unit row: '0.5,1,sampled'"),
            (["0.5,1,0.25,sampled", "0.5,1,0.25,affine,"], "bad unit row: '0.5,1,0.25,affine,'"),
            (["0.5,1,0.25,bogus", "0.5,1,sampled"], "bad unit row: '0.5,1,sampled'"),
            (["0.5,x,0.25,sampled", "0.5,1,0.25,bogus"], "unknown origin 'bogus'"),
            (["0.5,1,nan,sampled", "0.5,y,0.25,sampled"], "could not convert string to float: 'y'"),
            (["0.5,1,0.25,affine", "0.5,1,0.25,sampled", "0.5,1,0.25,bogus"], "unknown origin 'bogus'"),
            (["0.5,x,0.25,affine", "0.5,1,0.25,sampled"], "sampled unit row: '0.5,1,0.25,sampled' follows"),
        ],
        ids=["values_in_reading_order", "short_row", "long_row", "width_first", "origin_second", "number_third",
             "origin_before_order", "order_before_number"],
    )
    def test_names_the_first_bad_row_in_reading_order(self, rows, message):
        """Each check runs over every row before the next: field count, origin, origin order, number, finiteness.
        Within a check the first faulty row or field in reading order is named."""
        text = "\n".join(["# schema=network@2", "# d=1 m=2 v=2 N=3", "alpha_1,beta,bias,origin", *rows]) + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            loads_network(text)

    @pytest.mark.parametrize(
        "columns", ["alpha_1,bias,beta,origin", "hello world", None], ids=["swapped", "not_columns", "missing"]
    )
    def test_rejects_wrong_column_line(self, cos_target, columns):
        """The column line was never read: beta,bias swapped loaded each unit
        with its beta and bias exchanged, any text loaded, and without the line
        the first unit row took its place and the count did not match."""
        lines = dumps_network(rj.construct(cos_target, 2, 64, seed=1)).splitlines()
        assert lines[2] == "alpha_1,beta,bias,origin"
        if columns is None:
            del lines[2]  # the first unit row now stands where the column line belongs
        else:
            lines[2] = columns
        named = f"network column line {lines[2]!r} is not 'alpha_1,beta,bias,origin'"
        with pytest.raises(ValueError, match=re.escape(named)):
            loads_network("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("N", "0"),
            ("N", "-2"),
            ("r", "0"),
            ("m_requested", "0"),
            ("m_requested", "7"),
            ("seed", "-1"),
            ("m_prime", "-1"),
            ("strata_count", "-1"),
            ("sampled_count", "-1"),
            ("sampled_count", "+1"),
        ],
    )
    def test_rejects_integer_header_out_of_range(self, cos_target, key, value):
        """Values construct never writes used to load: m_requested=0 then made
        the audit divide by zero, and the others passed it."""
        net = rj.construct(cos_target, 2, 64, seed=1)
        old = getattr(net.meta, "bandwidth" if key == "N" else key)
        new = str(old + 1) if value == "+1" else value
        text = dumps_network(net).replace(f" {key}={old}", f" {key}={new}", 1)
        assert text != dumps_network(net)
        with pytest.raises(ValueError, match=f"{key}={new}"):
            loads_network(text)

    @pytest.mark.parametrize("key", ["v", "v2"])
    def test_rejects_negative_mass(self, cos_target, key):
        """A negative v used to load and pass the audit, whose check
        v <= 2 pi^2 v2 then holds whatever the network."""
        text = dumps_network(rj.construct(cos_target, 2, 64, seed=1))
        bad = re.sub(f" {key}=[^ ]*", f" {key}=-5", text, count=1)
        with pytest.raises(ValueError, match=f"network header has {key}=-5; it must be >= 0"):
            loads_network(bad)

    @pytest.mark.parametrize(
        "key, value",
        [("N", "1.5"), ("d", "x"), ("m", "2e2"), ("seed", "abc"), ("r", "two"), ("v", "abc"), ("v2", "1,5")],
    )
    def test_non_numeric_header_value_named(self, cos_target, key, value):
        """Such values used to raise int()'s or float()'s own message, which
        does not say which header key holds them."""
        net = rj.construct(cos_target, 2, 64, seed=1)
        text = dumps_network(net)
        old = re.search(f" {key}=([^ ]*)", text.splitlines()[1]).group(0)
        text = text.replace(old, f" {key}={value}", 1)
        with pytest.raises(ValueError, match=re.escape(f"network header has {key}={value}; it must be")):
            loads_network(text)

    @pytest.mark.parametrize("key", ["d", "m", "v", "N"])
    def test_missing_header_key_named(self, key):
        fields = " ".join(f"{k}={val}" for k, val in (("d", 1), ("m", 1), ("v", 0), ("N", 1)) if k != key)
        with pytest.raises(ValueError, match=f"{key}="):
            loads_network(f"# schema=network@2\n# {fields}\nalpha_1,beta,bias,origin\n0,1,0,sampled\n")

    @pytest.mark.parametrize(
        "header, named",
        [
            ("d=1 m=1 v=2 N=3 junk", "item 'junk' is not key=value"),
            ("d=1 m=1 v=2 N=3 lambda=1.1", "item 'lambda=1.1' is not key=value with a known key"),
            ("d=1 m=1 v=2 N=3 N=5", "repeats N="),
            ("d=1 m=1 v=2 v=2 N=3", "repeats v="),
        ],
    )
    def test_rejects_malformed_header_item(self, header, named):
        """An item without = used to raise dict()'s own message, an unknown
        key was dropped and a repeated key kept its last value (N=5 here)."""
        with pytest.raises(ValueError, match=f"network header {named}"):
            loads_network(f"# schema=network@2\n# {header}\nalpha_1,beta,bias,origin\n0.5,1,0.25,sampled\n")

    def test_rejects_misspelled_header_key(self, cos_target):
        """With strata_count misspelled the network used to load and pass the
        audit without its sampled_count check."""
        text = dumps_network(rj.construct(cos_target, 2, 64, seed=1))
        bad = text.replace(" strata_count=", " strata_cnt=", 1)
        assert bad != text
        with pytest.raises(ValueError, match=r"item 'strata_cnt=\d+' is not key=value with a known key"):
            loads_network(bad)

    @pytest.mark.parametrize("prefix", ["#", "", "#\t", "## "])
    def test_rejects_header_line_without_comment_prefix(self, cos_target, prefix):
        """The reader used to cut two characters off the line whatever they were."""
        lines = dumps_network(rj.construct(cos_target, 2, 64, seed=1)).splitlines()
        lines[1] = prefix + lines[1][2:]
        with pytest.raises(ValueError, match="does not start with '# '"):
            loads_network("\n".join(lines) + "\n")


def test_units_iteration_and_build():
    rows = [(np.array([0.5]), 1.0, 0.25, "sampled"), (np.array([0.0]), 2.0, -1.0, "affine")]
    units = Units.build(1, rows)
    assert len(units) == 2
    assert units.betas[0] == 1.0 and units.origins[1] == "affine"
    both = Units.concat([units, Units.empty(1)])
    assert len(both) == 2


class TestUnitLayout:
    """Units come sampled first, then affine, and ``sampled_count`` marks the split."""

    def test_build_refuses_unknown_origin(self):
        """The audit bounds only sampled and affine units: a unit tagged
        ``Sampled`` escaped both and passed it with beta = 1e6."""
        with pytest.raises(ValueError, match="^unknown origin 'Sampled' in row 0$"):
            Units.build(1, [([5.0], 1e6, 7.0, "Sampled")])

    def test_build_refuses_sampled_after_affine(self):
        rows = [([0.5], 1.0, 0.25, "sampled"), ([0.0], 2.0, -1.0, "affine"), ([0.25], 1.0, 0.1, "sampled")]
        with pytest.raises(ValueError, match="^sampled row 2 follows an affine unit$"):
            Units.build(1, rows)

    def test_concat_adds_the_counts(self):
        sampled = Units.build(1, [([0.5], 1.0, 0.25, "sampled")])
        affine = Units.build(1, [([0.0], 2.0, -1.0, "affine")])
        both = Units.concat([sampled, Units.empty(1), sampled, affine, Units.empty(1), affine])
        assert (len(both), both.sampled_count) == (4, 2)
        assert both.origins.tolist() == ["sampled", "sampled", "affine", "affine"]
        with pytest.raises(ValueError, match="^block 1 has sampled units after an affine unit$"):
            Units.concat([affine, sampled])

    @pytest.mark.parametrize("count", [-1, 2])
    def test_count_within_the_units(self, count):
        message = "sampled_count must be >= 0, got -1" if count < 0 else f"sampled_count={count} is not in 0..1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            Units(np.zeros((1, 1)), np.ones(1), np.zeros(1), count)

    @pytest.mark.parametrize(
        "shapes", [((3, 1), (2,), (2,)), ((2, 1), (2,), (3,)), ((2,), (2,), (2,)), ((2, 1), (2, 1), (2,))]
    )
    def test_arrays_agree_on_the_units(self, shapes):
        """Row counts that disagree used to build, and evaluation ended in a bare IndexError."""
        alphas, betas, biases = (np.full(s, 0.5) for s in shapes)
        with pytest.raises(ValueError, match="^unit arrays of shapes "):
            Units(alphas, betas, biases, 0)

    def test_header_count_is_the_units_count(self, cos_target):
        """A header that disagreed with its units used to pass the audit and dump a file that did not reload."""
        net = rj.construct(cos_target, 2, 64, seed=1)
        with pytest.raises(ValueError, match=f"^network header has sampled_count={net.units.sampled_count + 1}, "):
            ShallowNetwork(net.d, net.units, replace(net.meta, sampled_count=net.units.sampled_count + 1))
        assert ShallowNetwork(net.d, net.units, replace(net.meta, sampled_count=None)).units is net.units

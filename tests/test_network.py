import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.network import (
    MAX_AFFINE_UNITS,
    ORIGIN_AFFINE,
    ORIGIN_SAMPLED,
    NetworkMeta,
    ShallowNetwork,
    Units,
    _CELL_BLOCK,
    _evaluate_dense,
    _line_groups,
    _line_path_pays,
    _shared_line_axis,
    audit,
    certified_sup_error,
    dumps_network,
    evaluate,
    lipschitz_bound,
    loads_network,
    sup_error,
)
from relu_jackson.spectral import variation


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
    rows.append((on_grid, 1.5, float(on_grid @ np.linspace(-1.0, 1.0, 17)[np.arange(d) + 5]), ORIGIN_SAMPLED))
    return simple_net(rows, d=d)


def rounding_scale(net):
    """sum |beta| (|alpha|_1 + |bias|): the size of the terms both paths add."""
    u = net.units
    return float(np.sum(np.abs(u.betas) * (np.abs(u.alphas).sum(axis=1) + np.abs(u.biases))))


class TestLinePath:
    @pytest.mark.parametrize("d, per_axis", [(1, 257), (2, 17), (3, 17)])
    def test_matches_dense_on_shuffled_grid(self, d, per_axis):
        rng = np.random.default_rng(40 + d)
        net = line_test_net(d, rng)
        pts = rj.EvaluationGrid(d, per_axis, rj.CUBE).points()
        pts = pts[rng.permutation(pts.shape[0])]
        lines = per_axis ** (d - 1)
        assert _line_path_pays(net.unit_count, pts.shape[0], lines)
        got = evaluate(net, pts)
        ref = _evaluate_dense(net.units, pts)
        assert np.abs(got - ref).max() <= 1e-14 * rounding_scale(net)
        assert got.tobytes() == evaluate(net, pts).tobytes()

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
        pts = rj.EvaluationGrid(d, 17, rj.CUBE).points()
        pts = pts[rng.permutation(pts.shape[0])]
        lines = 17 ** (d - 1)
        step = _CELL_BLOCK // net.unit_count
        assert 1 < step < lines and lines % step  # several blocks, the last one partial
        assert _line_path_pays(net.unit_count, pts.shape[0], lines)
        assert _shared_line_axis(pts, *_line_groups(pts)).tolist() == np.linspace(-1.0, 1.0, 17).tolist()
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
        pts = pts[rng.permutation(pts.shape[0])]
        assert _line_path_pays(net.unit_count, pts.shape[0], 17)
        got = evaluate(net, pts)
        assert got.tobytes() == _evaluate_dense(net.units, pts).tobytes()
        assert got.tobytes() == evaluate(net, pts).tobytes()

    def test_empty_network_gives_zeros(self):
        net = ShallowNetwork(2, Units.empty(2))
        pts = rj.EvaluationGrid(2, 17, rj.CUBE).points()
        assert not _line_path_pays(0, pts.shape[0], 17)
        assert evaluate(net, pts).tolist() == [0.0] * pts.shape[0]

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

    def test_reproducible(self, cos_target):
        net = rj.construct(cos_target, 2, 128, seed=7)
        grid = rj.default_grid(1, rj.CUBE)
        assert sup_error(net, cos_target, grid) == sup_error(net, cos_target, grid)


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


class TestAudit:
    def test_constructed_network_passes(self, cos_target):
        rep = audit(rj.construct(cos_target, 2, 128, seed=2))
        assert rep.passed
        assert rep.check("sampled_alpha_l1").observed <= 1.0
        assert rep.affine_count <= MAX_AFFINE_UNITS

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

    def test_flags_bias_violation(self):
        meta = NetworkMeta(v=0.0, bandwidth=1, v2=1.0, m_requested=64, m_prime=16, strata_count=0)
        net = simple_net([(np.array([0.1]), 1e-6, 1.5, "sampled")], d=1, meta=meta)
        rep = audit(net)
        assert not rep.check("sampled_bias_high").passed

    def test_affine_only_vacuous(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        rep = audit(rj.construct(t, 2, 32, seed=0))
        assert rep.passed
        assert rep.sampled_count == 0
        assert rep.within_budget

    def test_requires_metadata(self):
        net = simple_net([(np.array([0.1]), 1.0, 0.5, "sampled")], d=1)
        with pytest.raises(ValueError):
            audit(net)

    def test_check_names_and_order(self, cos_target):
        rep = audit(rj.construct(cos_target, 2, 128, seed=2))
        assert [c.name for c in rep.checks] == [
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

    def test_reads_network_v1(self):
        net = loads_network("# schema=network@1\n# d=1 m=1 v=2 N=3\nalpha_1,beta,bias,origin\n0.5,1,0.25,sampled\n")
        assert net.meta == NetworkMeta(v=2.0, bandwidth=3)
        assert dumps_network(net).splitlines()[:2] == ["# schema=network@2", "# d=1 m=1 v=2 N=3"]

    def test_file_roundtrip(self, tmp_path, cos_target):
        net = rj.construct(cos_target, 2, 64, seed=1)
        path = tmp_path / "net.csv"
        rj.save_network(net, path)
        back = rj.load_network(path)
        assert dumps_network(back) == dumps_network(net)

    def test_rejects_corrupt(self):
        with pytest.raises(ValueError):
            loads_network("not,a,network\n")
        with pytest.raises(ValueError):
            loads_network("# schema=network@1\n# d=1 m=2 v=0 N=1\nalpha_1,beta,bias,origin\n0,1,0,sampled\n")
        for d in (0, -1):
            with pytest.raises(ValueError, match=f"d={d}"):
                loads_network(f"# schema=network@2\n# d={d} m=0 v=0 N=1\nbeta,bias,origin\n")

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

    @pytest.mark.parametrize("key", ["d", "m", "v", "N"])
    def test_missing_header_key_named(self, key):
        fields = " ".join(f"{k}={val}" for k, val in (("d", 1), ("m", 1), ("v", 0), ("N", 1)) if k != key)
        with pytest.raises(ValueError, match=f"{key}="):
            loads_network(f"# schema=network@1\n# {fields}\nalpha_1,beta,bias,origin\n0,1,0,sampled\n")


def test_units_iteration_and_build():
    rows = [(np.array([0.5]), 1.0, 0.25, "sampled"), (np.array([0.0]), 2.0, -1.0, "affine")]
    units = Units.build(1, rows)
    assert len(units) == 2
    assert units.betas[0] == 1.0 and units.origins[1] == "affine"
    both = Units.concat([units, Units.empty(1)])
    assert len(both) == 2

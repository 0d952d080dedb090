import hashlib
import math

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.network import ShallowNetwork, dumps_network
from relu_jackson.network import evaluate as evaluate_network
from relu_jackson.sampler import (
    _PLAIN_STREAM_TAG,
    _cos_zero_shifts,
    _interval_abs_cos_integral,
    _invert_shift,
    affine_part,
    affine_units,
    allocation_width,
    build_density,
    build_strata,
    construct,
    identity_residual,
    plain_sample,
    prepare,
    realize,
    select_bandwidth,
    stratified_sample,
)


@pytest.fixture(scope="module")
def cos_image():
    # coefficients 1/4 at +-1, i.e. (1/2) cos x
    return rj.apply_jackson(rj.make_trig_poly(1, {1: 0.5, -1: 0.5}), 1, 1)


class TestIdentityResidual:
    def test_zero_is_exact(self):
        assert identity_residual(0.0, 1.0, 16) == 0.0

    def test_unit_point(self):
        assert identity_residual(1.0, 2.0, 2**14) < 1e-8

    def test_negative_argument(self):
        assert identity_residual(-1.3, 2.0, 2**14) < 1e-8

    def test_random_sweep(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            c = 10.0 * (1.0 - rng.random())
            z = c * (2.0 * rng.random() - 1.0)
            worst = max(worst, identity_residual(z, c, 2**14))
        assert worst < 1e-8

    def test_rejects(self):
        with pytest.raises(ValueError):
            identity_residual(2.0, 1.0, 64)
        with pytest.raises(ValueError):
            identity_residual(0.5, 1.0, 1)


class TestBuildDensity:
    def test_cos_image_masses(self, cos_image):
        dens = build_density(cos_image)
        # per-(sign, mode) mass: pi^2 * (1/4) * 1 * int_0^1 |cos(pi t)| dt
        cos_integral = np.trapezoid(np.abs(np.cos(np.pi * np.linspace(0, 1, 100001))), dx=1e-5)
        assert cos_integral == pytest.approx(2 / np.pi, abs=1e-8)
        expected = np.pi**2 * 0.25 * cos_integral
        assert dens.masses == pytest.approx(np.full((2, 2), expected), abs=1e-7)
        assert dens.masses == pytest.approx(np.full((2, 2), np.pi / 2), abs=1e-12)
        assert dens.v == pytest.approx(2 * np.pi, abs=1e-12)

    def test_normalized_mass(self, corpus):
        for name, t in corpus:
            dens = build_density(rj.apply_jackson(t, 8, 2))
            if dens.is_degenerate:
                continue
            assert math.fsum((dens.masses / dens.v).ravel()) == pytest.approx(1.0, abs=1e-12)

    def test_v_bounded_by_variation(self, cos_image, corpus):
        dens = build_density(cos_image)
        v2 = rj.variation(cos_image, 2)
        assert v2 == pytest.approx(0.5, abs=1e-15)
        assert dens.v <= 2 * np.pi**2 * v2
        for name, t in corpus:
            img = rj.apply_jackson(t, 16, 2)
            dens = build_density(img)
            assert dens.v <= 2 * np.pi**2 * rj.variation(img, 2) + 1e-12, name

    def test_direction_norms(self, corpus):
        for _, t in corpus:
            dens = build_density(rj.apply_jackson(t, 8, 2))
            if dens.is_degenerate:
                continue
            norms = np.abs(dens.alphas).sum(axis=1)
            assert np.abs(norms - 1 / np.pi).max() < 1e-14

    def test_degenerate_flag(self):
        img = rj.apply_jackson(rj.make_trig_poly(1, {0: 1.0}), 4, 2)
        assert build_density(img).is_degenerate


class TestBuildStrata:
    def test_cos_plan_geometry(self, cos_image):
        dens = build_density(cos_image)
        plan = build_strata(dens, 64)
        assert plan.m_prime == 16
        assert plan.epsilon == pytest.approx(0.25)  # 2*(d+1)*pi^0 / 16
        assert plan.delta == pytest.approx(0.125)
        assert plan.shares_total == pytest.approx(1.0, abs=1e-12)
        for st in plan.strata:
            assert st.t_hi - st.t_lo <= plan.delta + 1e-15
            assert st.count == math.ceil(st.target_count)
        assert plan.total_count <= plan.m_prime + plan.strata_count

    def test_cos_plan_under_nominal_budget(self, cos_image):
        dens = build_density(cos_image)
        for m in (64, 256, 1024):
            plan = build_strata(dens, m)
            assert plan.total_count <= 3 * plan.m_prime

    def test_sign_constant_per_stratum(self, cos_image):
        dens = build_density(rj.apply_jackson(rj.make_decay_target(1, 3.2, 16, 11), 12, 2))
        plan = build_strata(dens, 64)
        for st in plan.strata:
            mids = 0.5 * (st.piece_lo + st.piece_hi)
            sgn = -np.sign(np.cos(st.z * dens.omegas[st.mode_index] * mids + dens.phases[st.mode_index]))
            assert np.all(sgn == st.sign)
            assert np.all(st.piece_lo >= st.t_lo - 1e-15)
            assert np.all(st.piece_hi <= st.t_hi + 1e-15)

    def test_within_stratum_oscillation(self):
        t = rj.make_decay_target(2, 4.2, 4, seed=7)
        dens = build_density(rj.apply_jackson(t, 4, 2))
        plan = build_strata(dens, 64)
        xs = rj.EvaluationGrid(2, 41, rj.CUBE).points()
        checked = 0
        for st in plan.strata:
            if len(st.mode_index) < 2:
                continue
            feats = []
            for j in (0, len(st.mode_index) - 1):
                alpha = st.z * dens.alphas[st.mode_index[j]]
                for t_val in (st.piece_lo[j], st.piece_hi[j]):
                    feats.append(np.maximum(xs @ alpha - t_val, 0.0))
            worst = max(
                float(np.abs(a - b).max()) for i, a in enumerate(feats) for b in feats[i + 1 :]
            )
            assert worst <= plan.epsilon + 1e-12
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize(
        "name,n,m",
        [
            ("cos", 4, 64),
            ("decay1", 12, 64),
            ("decay2", 4, 64),
            ("decay2", 8, 256),
            ("decay1", 32, 1024),
            ("decay3", 4, 256),
        ],
    )
    def test_matches_reference_loop(self, corpus, name, n, m):
        targets = dict(corpus, decay3=rj.make_decay_target(3, 3.2, 6, seed=5))
        dens = build_density(rj.apply_jackson(targets[name], n, 2))
        plan = build_strata(dens, m)
        expected = _reference_strata(dens, m)
        assert plan.strata_count == len(expected)
        assert plan.ptr[-1] == sum(len(ref["modes"]) for ref in expected)
        for st, ref in zip(plan.strata, expected):
            assert (st.z, st.bin_index, st.cell, st.sign) == ref["key"]
            assert np.array_equal(st.mode_index, ref["modes"])
            assert np.array_equal(st.piece_lo, ref["lo"]) and np.array_equal(st.piece_hi, ref["hi"])
            assert np.all(np.abs(st.piece_mass - ref["mass"]) <= np.spacing(ref["mass"]))
            assert abs(st.mass - ref["total"]) <= np.spacing(ref["total"])
            assert st.count == math.ceil(plan.m_prime * ref["total"] / dens.v)

    def test_cumulative_masses(self, corpus):
        dens = build_density(rj.apply_jackson(dict(corpus)["decay2"], 8, 2))
        plan = build_strata(dens, 256)
        assert np.all(np.diff(plan.cum) >= 0.0)
        assert np.array_equal(plan.cum[plan.ptr[1:] - 1], np.arange(1, plan.strata_count + 1))
        for i, st in enumerate(plan.strata):
            within = plan.cum[plan.ptr[i] : plan.ptr[i + 1]] - i
            cum = np.cumsum(st.piece_mass)
            assert np.abs(within - cum / cum[-1]).max() <= 1e-12

    def test_zero_on_bin_edge_cuts_once(self, cos_image):
        """cos(pi t) vanishes at t = 0.5, which is also the bin edge 4 delta
        at m=64: each (sign, frequency) row is cut there once, and no piece
        is empty."""
        plan = build_strata(build_density(cos_image), 64)
        assert plan.delta == 0.125 and 4 * plan.delta == 0.5
        assert np.all(plan.piece_hi > plan.piece_lo)
        z = np.repeat(plan.z, np.diff(plan.ptr))
        for zv in (-1.0, 1.0):
            for mode in range(2):
                mine = (z == zv) & (plan.piece_mode == mode)
                bounds = np.concatenate([plan.piece_lo[mine], plan.piece_hi[mine]])
                assert np.count_nonzero(plan.piece_lo[mine] == 0.5) == 1
                assert np.count_nonzero(plan.piece_hi[mine] == 0.5) == 1
                assert np.array_equal(np.unique(bounds), np.arange(9) / 8)

    # sha256 of each plan array (dtype, shape, then bytes), recorded on
    # x86-64 with NumPy 2.4: any change of a plan byte, such as a reordering
    # of strata or pieces, fails here.  The float arrays also depend on
    # NumPy's float64 cos and sin.
    PLAN_DIGESTS = {
        "decay1": {
            "ptr": "1a02a554ae512b6ad03a7025b8502289f4266974a84462581d9e02a18d0f7fb8",
            "piece_mode": "941980c8f32fa9d71e29d24e5b888fb7e344a275f047cef05b8245ec0c46c547",
            "piece_lo": "725708e31d1d2bd1bb8315bedb4d0bc1d259d9f9c9d5a5065098ab2127efd26d",
            "piece_hi": "577998ec5b3a20f19f0b2d2be62b5a60d5a370021a3137636c1f9c7c20a1d0cc",
            "piece_mass": "cbf22948cfc256b736555048e449ddfc16a712b583e7110a4fbde3426a037636",
            "cum": "b95606b17b4b23794601bcaa6a847d74aa4ba379025c0e2d94d0a65cb1c10347",
            "z": "6d71d818bfcc2d641ce1993cad8e8d7bbe614e8cef6a3e050285e67f25f92cce",
            "bin_index": "af3a291d30c54cac3929e3fbed19366b0929ea3368f8fd64336413c26b5384ff",
            "cell": "2509a9b672acd8f7ebe74df142fce2ccce136284707d16e9260c08987a55adb1",
            "sign": "8f9b82f76501c8d3623205d937df82d4014c2ace3996688a1d8dab8a9fb90185",
            "mass": "d7aa6092d1ebaef07b28b26a2e6f7fddb0503bce88e33d23fb969fde4b42fd83",
            "share": "ba3ad67b40417bf2d90de8a12ad45eb4b7b9bafe7d84ed289db69320ce9c4c4c",
            "target_count": "f76aafe252ea50d4d4e126a4b11a428aa39a33fa31adcfc476117a8af1ebeae5",
            "count": "549e48cd38aa71628b46e5dd5ec0dccd949feda1e4353ddf6624f56de1e8ae1a",
        },
        "decay2": {
            "ptr": "63c3cb66137494c92874b3d37fe14c53f5f1974f64d16f08d5f81fd7c6420364",
            "piece_mode": "9701173f3d8d777690a0229906a8cbe29103c58431a60740eb8e8ca63601d672",
            "piece_lo": "5968ab5af50f1b2711574813c94f9c0999735953c484d25d34c19917fb303c1d",
            "piece_hi": "fc3a64795129ab5425b95b0a3a2c892537e94ce925b7cfbad7571bb5f544d798",
            "piece_mass": "eeca49364562822645b03907129d6ffab5e7c0658bd5692ca62e614d803c1319",
            "cum": "9d392dce3346ea32bd00be8b39ef1fd8778d999caa0467e9d2f5be053ffa5bde",
            "z": "bcf8e52350de0dac0e6df166eea25d69e0a74e0790e25158b2dbc5b5ad486be0",
            "bin_index": "5dcf0dad060d7833c27ab5d1bb876a5704365d23ff80924924cb259e4e840b8d",
            "cell": "9ff16f85e277f857a94a1b4d8a4a41b6b141cbcc7aa11cf8bc1997787b8e5704",
            "sign": "9586327f154f8077456b28d71f606f46d627cd06c7b20316a6e8a918c33e573b",
            "mass": "877debe851baba1dcd9c60e10f8a5fc7fb05433bca3750ac0affad416480e969",
            "share": "caf5ed376abcbce5f462ddf137b3e7f275eb9be736c3d204ba4723597869652d",
            "target_count": "43cadd3c44e0d141dfaf8592c777464b68a8473ea45ce0c8bebc991c351e2651",
            "count": "d92bbb72bc78ef9a105c5d076ea991462d67b504daf6fb07da12608b17873e88",
        },
        "decay3": {
            "ptr": "e09ddbdbb108c4e12c21693a39f331c45c6e0db41091a25cf81d645224db66cc",
            "piece_mode": "ffada2227a21d59f70b3960613e1825c6e16492e77dcda9640bd5004a6f35b47",
            "piece_lo": "fa04cc6620481fae5e75beef46d71ecdbb0016dbf6ba6dc2122a0333bc4eaa0b",
            "piece_hi": "8d777c065c45745cbbdb032df6e66850d1af3a5765cc0893965cf7952b10c6b2",
            "piece_mass": "7263c0baaa5f0f35f842ceb053de583dbffb896425692d8ed701e68e80251726",
            "cum": "a6d7da2f8ada57693d22edf7b9b4910068509547dc5dc09639f86f7b84650c8a",
            "z": "04a8f0ffd97329ed2ccbbd25a14c3d43c6079ebfc8b63a736c1844eda2933bcb",
            "bin_index": "d9626ca304a03e53de877b5c93940bac61734158f5cef8a7847b248830536a6d",
            "cell": "d035c2e0ecfb742017635c9656002f1ff6f2cd889c7504fd6a7f6367171acc15",
            "sign": "9cf996c12c16c78932e89467d8293b962d4183b888fdd40319c8eb1323ebf72d",
            "mass": "56e2107a62ad5d9af654eae437962800a5cb201dbea21754863389bf0a12bd75",
            "share": "145d6c867c586361b421bf6ee82ac3f9618e41ae195693c0b235e68a8be774e9",
            "target_count": "c882c9b0139f9041adadad1fad3696fe966d96592347be0a330cc7858fd9b381",
            "count": "2cfe512895bbd812c49a99c5f782ac8cb56847a3c9f35e91860be5cb8213a3f4",
        },
    }

    @pytest.mark.parametrize(
        "name, target, m, n",
        [
            ("decay1", (1, 3.2, 16, 11), 4096, 512),
            ("decay2", (2, 4.2, 8, 7), 4096, 64),
            ("decay3", (3, 3.2, 6, 5), 4096, None),
        ],
        ids=["decay1", "decay2", "decay3"],
    )
    def test_plan_bytes_pinned(self, name, target, m, n):
        d, s, k_max, seed = target
        t = rj.make_decay_target(d, s, k_max, seed=seed)
        n = select_bandwidth(m, d, 2) if n is None else n
        plan = build_strata(build_density(rj.apply_jackson(t, n, 2)), m)
        digests = {}
        for field in self.PLAN_DIGESTS[name]:
            a = getattr(plan, field)
            digests[field] = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
        assert digests == self.PLAN_DIGESTS[name]

    def test_rejects(self, cos_image):
        dens = build_density(cos_image)
        with pytest.raises(ValueError):
            build_strata(dens, 7)
        degenerate = build_density(rj.apply_jackson(rj.make_trig_poly(1, {0: 1.0}), 4, 2))
        with pytest.raises(ValueError, match="empty density"):
            build_strata(degenerate, 64)


def test_cos_zero_shifts_ascend_within_each_row():
    """Zeros come out row by row with t ascending for both signs of z, so
    ``build_strata`` can merge them into the bin edges without a sort."""
    rng = np.random.default_rng(3)
    omega = np.pi * rng.integers(1, 40, 50).astype(float)
    b = rng.uniform(-np.pi, np.pi, 50)
    z = np.repeat([-1.0, 1.0], 25)
    row, t = _cos_zero_shifts(z, omega, b)
    assert np.all(np.diff(row) >= 0)
    assert np.all(np.diff(t)[np.diff(row) == 0] > 0.0)
    assert np.all((t > 0.0) & (t < 1.0))
    assert np.abs(np.cos(z[row] * omega[row] * t + b[row])).max() < 1e-12


def _reference_strata(dens, m):
    """Strata of a width-m plan built by a plain loop over (sign, mode),
    bucketed in a dict and ordered by sorting its keys."""
    _, delta = allocation_width(m, dens.image.d)
    edges = np.minimum(delta * np.arange(math.ceil(1.0 / delta) + 1), 1.0)
    bucket = {}
    for z in (-1.0, 1.0):
        for j in range(dens.mode_count):
            omega, b = float(dens.omegas[j]), float(dens.phases[j])
            lo_phase, hi_phase = sorted((b, z * omega + b))
            n0 = math.ceil((lo_phase - math.pi / 2.0) / math.pi)
            n1 = math.floor((hi_phase - math.pi / 2.0) / math.pi)
            zeros = (math.pi / 2.0 + math.pi * np.arange(n0, n1 + 1) - b) / (z * omega)
            bounds = np.unique(np.concatenate([edges, zeros[(zeros > 0.0) & (zeros < 1.0)]]))
            cell = tuple(int(c) for c in np.floor(dens.alphas[j] / delta))
            base = np.pi**2 * float(dens.magnitudes[j]) * float(dens.l1[j]) ** 2
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                sign = -float(np.sign(np.cos(z * omega * (0.5 * (lo + hi)) + b)))
                mass = base * float(_interval_abs_cos_integral(z, omega, b, lo, hi))
                if sign == 0.0 or mass <= 0.0:
                    continue
                bin_index = int(np.searchsorted(edges, lo, side="right")) - 1
                bucket.setdefault((z, bin_index, cell, sign), []).append((j, lo, hi, mass))
    return [
        {
            "key": key,
            "modes": np.array([p[0] for p in bucket[key]]),
            "lo": np.array([p[1] for p in bucket[key]]),
            "hi": np.array([p[2] for p in bucket[key]]),
            "mass": np.array([p[3] for p in bucket[key]]),
            "total": math.fsum(p[3] for p in bucket[key]),
        }
        for key in sorted(bucket)
    ]


def _stratified_stream(seed, start, rows):
    """Rows [start, start + rows) of the stratified sampler's uniform pairs,
    read by advancing the Philox counter (four 64-bit words, i.e. two rows,
    per step) instead of drawing the rows before them."""
    bit_generator = np.random.Philox(np.random.SeedSequence(seed))
    bit_generator.advance(start // 2)
    rng = np.random.Generator(bit_generator)
    if start % 2:
        rng.random(2)
    return rng.random((rows, 2))


class TestStratifiedSample:
    def test_stratum_reproducible_from_counter_offset(self, corpus):
        dens = build_density(rj.apply_jackson(dict(corpus)["decay1"], 12, 2))
        plan = build_strata(dens, 256)
        seed = 11
        units = stratified_sample(plan, dens, seed)
        start = 0
        for st in plan.strata:
            u = _stratified_stream(seed, start, st.count)
            cum = np.cumsum(st.piece_mass)
            pick = np.minimum(np.searchsorted(cum / cum[-1], u[:, 0], side="right"), len(cum) - 1)
            mode = st.mode_index[pick]
            t = _invert_shift(st.z, dens.omegas[mode], dens.phases[mode], st.piece_lo[pick], st.piece_hi[pick], u[:, 1])
            block = slice(start, start + st.count)
            assert np.array_equal(units.biases[block], t)
            assert np.array_equal(units.alphas[block], st.z * dens.alphas[mode])
            start += st.count
        assert start == len(units)
        # strata start on both halves of a Philox block
        assert len(set(np.cumsum(plan.count[:-1]) % 2)) == 2

    def test_distinct_from_plain_stream(self, cos_image):
        dens = build_density(cos_image)
        plan = build_strata(dens, 64)
        n = plan.total_count
        for seed in range(5):
            u_plain = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _PLAIN_STREAM_TAG))).random((n, 2))
            flat = dens.masses.ravel()
            cum = np.cumsum(flat)
            zi, mode = np.divmod(np.searchsorted(cum, u_plain[:, 0] * cum[-1], side="right"), dens.mode_count)
            z = np.where(zi == 0, -1.0, 1.0)
            t = _invert_shift(z, dens.omegas[mode], dens.phases[mode], 0.0, 1.0, u_plain[:, 1])
            assert np.array_equal(plain_sample(dens, n, seed).biases, t)
            u_strat = _stratified_stream(seed, 0, n)
            assert not np.isin(u_strat, u_plain).any()

    def test_deterministic(self, cos_image):
        dens = build_density(cos_image)
        plan = build_strata(dens, 64)
        a = stratified_sample(plan, dens, 7)
        b = stratified_sample(plan, dens, 7)
        assert np.array_equal(a.alphas, b.alphas)
        assert np.array_equal(a.betas, b.betas)
        assert np.array_equal(a.biases, b.biases)
        c = stratified_sample(plan, dens, 8)
        assert not np.array_equal(a.biases, c.biases)

    def test_counts_and_bounds(self, cos_image):
        dens = build_density(cos_image)
        plan = build_strata(dens, 64)
        units = stratified_sample(plan, dens, 3)
        assert len(units) == plan.total_count
        assert np.abs(np.abs(units.alphas).sum(axis=1) - 1 / np.pi).max() < 1e-14
        assert units.biases.min() >= 0.0 and units.biases.max() <= 1.0
        assert np.abs(units.betas).max() <= dens.v / plan.m_prime + 1e-15

    def test_beta_bound_from_variation(self, corpus):
        for name, t in corpus:
            img = rj.apply_jackson(t, 8, 2)
            dens = build_density(img)
            if dens.is_degenerate:
                continue
            m = 64
            plan = build_strata(dens, m)
            units = stratified_sample(plan, dens, 1)
            cap = 8 * np.pi**2 * rj.variation(img, 2) / m
            assert np.abs(units.betas).max() <= cap * (1 + 1e-12), name

    def test_shift_distribution_within_piece(self, cos_image):
        # All drawn shifts must land inside their stratum's bin.
        dens = build_density(cos_image)
        plan = build_strata(dens, 256)
        units = stratified_sample(plan, dens, 5)
        offset = 0
        for st in plan.strata:
            block = units.biases[offset : offset + st.count]
            assert np.all(block >= st.t_lo - 1e-12)
            assert np.all(block <= st.t_hi + 1e-12)
            offset += st.count


class TestPlainSample:
    def test_deterministic_and_bounds(self, cos_image):
        dens = build_density(cos_image)
        a = plain_sample(dens, 500, 9)
        b = plain_sample(dens, 500, 9)
        assert np.array_equal(a.betas, b.betas) and np.array_equal(a.biases, b.biases)
        assert np.abs(np.abs(a.alphas).sum(axis=1) - 1 / np.pi).max() < 1e-14
        assert a.biases.min() >= 0.0 and a.biases.max() <= 1.0
        assert np.abs(np.abs(a.betas) - dens.v / 500).max() < 1e-15

    def test_expectation_at_point(self, cos_image):
        dens = build_density(cos_image)
        n = 10**6
        units = plain_sample(dens, n, 12345)
        x = 0.5
        w, c = affine_part(cos_image)
        truth = rj.evaluate(cos_image, [x]) - (w[0] * x + c)
        samples = n * units.betas * np.maximum(units.alphas[:, 0] * x - units.biases, 0.0)
        mean = float(samples.mean())
        se = float(samples.std(ddof=1)) / math.sqrt(n)
        assert abs(mean - truth) <= 3 * se

    def test_rejects(self, cos_image):
        dens = build_density(cos_image)
        with pytest.raises(ValueError):
            plain_sample(dens, 0, 1)


class TestAffineUnits:
    def test_cos_image_constant_part(self, cos_image):
        w, c = affine_part(cos_image)
        assert np.all(w == 0.0)
        assert c == pytest.approx(0.5, abs=1e-15)  # 1/4 + 1/4
        units = affine_units(cos_image)
        assert len(units) == 1
        net = ShallowNetwork(1, units)
        assert evaluate_network(net, [0.0]) == pytest.approx(c, abs=1e-15)

    def test_zero_image_empty(self):
        img = rj.make_trig_poly(1, {0: 0.0})
        assert len(affine_units(img)) == 0

    def test_linear_part_realized(self):
        # image with a genuine linear part: coefficients +-i/2 at k = +-1
        # give -sum Im(c(k)) k = ... a nonzero slope
        img = rj.make_trig_poly(1, {1: 0.5j, -1: -0.5j})
        w, c = affine_part(img)
        assert w[0] == pytest.approx(-1.0)
        units = affine_units(img)
        net = ShallowNetwork(1, units)
        for x in (-0.8, 0.0, 0.3, 1.0):
            assert evaluate_network(net, [x]) == pytest.approx(w[0] * x + c, abs=1e-14)

    def test_count_capped(self, corpus):
        for name, t in corpus:
            units = affine_units(rj.apply_jackson(t, 8, 2))
            assert len(units) <= 3, name


class TestSelectBandwidth:
    def test_formula(self):
        for m in (8, 64, 1000, 4096):
            for d in (1, 2, 3):
                for r in (1, 2, 4):
                    expected = max(
                        1, math.floor(m ** ((1 / d) * (d + 2) / max(2 * r, d + 4)))
                    )
                    assert select_bandwidth(m, d, r) == expected

    def test_clamped(self):
        assert select_bandwidth(1, 3, 5) == 1

    def test_rejects(self):
        with pytest.raises(ValueError):
            select_bandwidth(0, 1, 1)


class TestConstruct:
    def test_constant_target_exact(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        net = construct(t, 2, 20, seed=0)
        assert net.meta.v == 0.0
        assert net.unit_count <= 5
        grid = rj.default_grid(1, rj.CUBE)
        assert rj.sup_error(net, t, grid) < 1e-12

    def test_cos_m256_accuracy_and_paired_median(self, cos_target):
        grid = rj.default_grid(1, rj.CUBE)
        err = rj.sup_error(construct(cos_target, 2, 256, seed=7), cos_target, grid)
        assert err < 0.2
        strat, plain = [], []
        for seed in range(10):
            strat.append(rj.sup_error(construct(cos_target, 2, 256, seed), cos_target, grid))
            plain.append(
                rj.sup_error(construct(cos_target, 2, 256, seed, method="plain"), cos_target, grid)
            )
        assert np.median(strat) <= np.median(plain)

    def test_bit_reproducible(self):
        t = rj.make_decay_target(1, 3.2, 16, seed=11)
        a = construct(t, 2, 256, seed=4)
        b = construct(t, 2, 256, seed=4)
        assert dumps_network(a) == dumps_network(b)

    def test_metadata(self):
        t = rj.make_decay_target(1, 3.2, 16, seed=11)
        net = construct(t, 2, 128, seed=1)
        meta = net.meta
        assert meta.bandwidth == select_bandwidth(128, 1, 2)
        assert meta.m_requested == 128 and meta.m_prime == 32
        assert meta.sampled_count + 3 >= net.unit_count
        assert meta.v2 == pytest.approx(rj.variation(rj.apply_jackson(t, meta.bandwidth, 2), 2))

    def test_bandwidth_override(self, cos_target):
        net = construct(cos_target, 2, 64, seed=0, bandwidth=5)
        assert net.meta.bandwidth == 5

    def test_rejects(self, cos_target):
        with pytest.raises(ValueError):
            construct(cos_target, 0, 64, seed=0)
        with pytest.raises(ValueError):
            construct(cos_target, 2, 4, seed=0)
        with pytest.raises(ValueError):
            construct(cos_target, 2, 64, seed=-1)
        with pytest.raises(ValueError):
            construct(cos_target, 2, 64, seed=0, method="bogus")

    def test_rejects_bool_seed(self, cos_target):
        with pytest.raises(ValueError, match="seed"):
            construct(cos_target, 2, 64, seed=True)


def _assert_same_network(a, b):
    for name in ("alphas", "betas", "biases", "origins"):
        x, y = getattr(a.units, name), getattr(b.units, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert a.d == b.d and a.meta == b.meta


class TestPrepareRealize:
    @pytest.mark.parametrize(
        "coeffs, method",
        [
            ({1: 0.5, -1: 0.5}, "stratified"),
            ({1: 0.5, -1: 0.5}, "plain"),
            ({0: 1.0}, "stratified"),
            ({0: 1.0}, "plain"),
        ],
        ids=["stratified", "plain", "degenerate-stratified", "degenerate-plain"],
    )
    def test_construct_is_realize_of_prepare(self, coeffs, method):
        t = rj.make_trig_poly(1, coeffs)
        prep = prepare(t, 2, 64)
        assert (prep.plan is None) == prep.density.is_degenerate
        _assert_same_network(construct(t, 2, 64, 5, method=method), realize(prep, 5, method))

    def test_one_preparation_at_two_seeds(self, corpus):
        t = dict(corpus)["decay2"]
        prep = prepare(t, 2, 256, bandwidth=3)
        for seed in (0, 9):
            _assert_same_network(construct(t, 2, 256, seed, bandwidth=3), realize(prep, seed))
        assert dumps_network(realize(prep, 0)) != dumps_network(realize(prep, 9))

    def test_preparation_fields(self):
        t = rj.make_decay_target(1, 3.2, 16, seed=11)
        prep = prepare(t, 2, 128)
        assert (prep.d, prep.r, prep.m) == (1, 2, 128)
        assert prep.bandwidth == select_bandwidth(128, 1, 2)
        assert prep.plan.m == 128 and len(prep.affine) == 3
        assert prep.v2 == rj.variation(prep.density.image, 2)

    def test_rejects(self, cos_target):
        with pytest.raises(ValueError, match="order"):
            prepare(cos_target, 0, 64)
        with pytest.raises(ValueError, match="width"):
            prepare(cos_target, 2, 4)
        with pytest.raises(ValueError, match="bandwidth"):
            prepare(cos_target, 2, 64, bandwidth=0)
        prep = prepare(cos_target, 2, 64)
        with pytest.raises(ValueError, match="seed"):
            realize(prep, -1)
        with pytest.raises(ValueError, match="bogus"):
            realize(prep, 0, "bogus")


def test_unbiasedness_moderate(cos_target):
    """Seed-averaged sampled part matches the non-affine image part (4 SE)."""
    m = 128
    n_sel = select_bandwidth(m, 1, 2)
    img = rj.apply_jackson(cos_target, n_sel, 2)
    dens = build_density(img)
    plan = build_strata(dens, m)
    w, c = affine_part(img)
    xs = np.array([[-0.9], [-0.45], [0.3], [0.55], [0.8]])
    truth = rj.evaluate(img, xs) - (xs @ w + c)
    n_seeds = 1500
    vals = np.zeros((n_seeds, len(xs)))
    for seed in range(n_seeds):
        units = stratified_sample(plan, dens, seed)
        vals[seed] = evaluate_network(ShallowNetwork(1, units), xs)
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    assert np.all(np.abs(mean - truth) <= 4 * se + 1e-12)

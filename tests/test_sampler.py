import dataclasses
import hashlib
import math

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.network import ORIGIN_SAMPLED, SHIFT_LIMIT, NetworkMeta, ShallowNetwork, dumps_network
from relu_jackson.network import evaluate as evaluate_network
from relu_jackson.sampler import (
    _PLAIN_STREAM_TAG,
    _abs_cos_primitive,
    _cos_zero_shifts,
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


#: (d, smoothness, k_max, target seed), width and bandwidth (None: the
#: selection rule) of the pinned plans
PLAN_TARGETS = {
    "decay1": ((1, 3.2, 16, 11), 4096, 512),
    "decay2": ((2, 4.2, 8, 7), 4096, 64),
    "decay3": ((3, 3.2, 6, 5), 4096, None),
}


def pinned_preparation(name):
    """(density, plan) of a pinned plan, or of the unbiasedness check's cos plan at m=128."""
    if name == "cos":
        target, m, n = rj.make_trig_poly(1, {1: 0.5, -1: 0.5}), 128, None
    else:
        (d, s, k_max, target_seed), m, n = PLAN_TARGETS[name]
        target = rj.make_decay_target(d, s, k_max, seed=target_seed)
    n = select_bandwidth(m, target.d, 2) if n is None else n
    dens = build_density(rj.apply_jackson(target, n, 2))
    return dens, build_strata(dens, m)


def _digest(a):
    """sha256 of an array's dtype, shape and bytes."""
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


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

    @pytest.mark.parametrize("z, c", [(1.0, math.inf), (math.nan, 1.0), (0.5, math.nan), (-math.inf, math.inf)])
    def test_rejects_non_finite(self, z, c):
        """``(1.0, inf)`` used to fail with an unnamed NaN-to-integer error."""
        with pytest.raises(ValueError, match="identity needs a finite z and c"):
            identity_residual(z, c, 64)


class TestBuildDensity:
    def test_cos_image_masses(self, cos_image):
        dens = build_density(cos_image)
        # per-mode mass, both ridge signs: 2 * pi^2 * (1/4) * 1 * int_0^(1/pi) |cos(pi t)| dt
        cos_integral = np.trapezoid(np.abs(np.cos(np.pi * np.linspace(0, 1 / np.pi, 100001))), dx=1e-5 / np.pi)
        assert cos_integral == pytest.approx(np.sin(1.0) / np.pi, abs=1e-8)
        expected = 2 * np.pi**2 * 0.25 * cos_integral
        assert dens.masses.shape == (2,)
        assert dens.masses == pytest.approx(np.full(2, expected), abs=1e-7)
        assert dens.masses == pytest.approx(np.full(2, np.pi * np.sin(1.0) / 2), abs=1e-12)
        assert dens.v == pytest.approx(np.pi * np.sin(1.0), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_fold_premise(self, corpus, n):
        """The density folds the ridge of sign -1 at k into the atom at -k: this
        needs every smoothed image's modes closed under negation, with equal
        moduli and opposite phases, bit for bit."""
        for name, t in corpus:
            img = rj.apply_jackson(t, n, 2)
            row = {tuple(k): i for i, k in enumerate(img.modes.tolist())}
            neg = np.array([row[tuple(-x for x in k)] for k in img.modes.tolist()], dtype=np.int64)
            c, c_neg = img.coeffs, img.coeffs[neg]
            assert np.array_equal(np.abs(c_neg), np.abs(c)), name
            assert np.array_equal(np.angle(c_neg), -np.angle(c)), name

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
        assert dens.v <= 2 * np.pi * v2
        for name, t in corpus:
            img = rj.apply_jackson(t, 16, 2)
            dens = build_density(img)
            assert dens.v <= 2 * np.pi * rj.variation(img, 2) + 1e-12, name

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

    def test_draw_constants(self, corpus):
        """The density's running mass and its primitives at t = 0 and at
        t = SHIFT_LIMIT are those a plain draw used to compute, bit for bit."""
        for name, t in corpus:
            dens = build_density(rj.apply_jackson(t, 8, 2))
            assert dens.cum.tobytes() == np.cumsum(dens.masses).tobytes(), name
            f_lo = _abs_cos_primitive(dens.omegas * 0.0 + dens.phases)
            f_hi = _abs_cos_primitive(dens.omegas * SHIFT_LIMIT + dens.phases)
            assert dens.f_lo.tobytes() == f_lo.tobytes(), name
            assert dens.f_hi.tobytes() == f_hi.tobytes(), name


class TestBuildStrata:
    def test_cos_plan_geometry(self, cos_image):
        dens = build_density(cos_image)
        plan = build_strata(dens, 64)
        assert plan.m_prime == 16
        assert allocation_width(64, 1)[0] == pytest.approx(0.25)  # epsilon = 2*(d+1)*pi^0 / 16
        assert plan.delta == pytest.approx(0.125)
        share = _stratum_masses(plan) / dens.v
        assert math.fsum(share.tolist()) == pytest.approx(1.0, abs=1e-12)
        _, t_lo, t_hi = _stratum_keys(plan, dens)
        assert np.all(t_hi - t_lo <= plan.delta + 1e-15)
        assert plan.count.tolist() == [math.ceil(c) for c in (plan.m_prime * share).tolist()]
        assert plan.total_count <= plan.m_prime + plan.strata_count

    def test_cos_plan_under_nominal_budget(self, cos_image):
        dens = build_density(cos_image)
        for m in (64, 256, 1024):
            plan = build_strata(dens, m)
            assert plan.total_count <= 3 * plan.m_prime

    def test_sign_constant_per_stratum(self, cos_image):
        dens = build_density(rj.apply_jackson(rj.make_decay_target(1, 3.2, 16, 11), 12, 2))
        plan = build_strata(dens, 64)
        keys, t_lo, t_hi = _stratum_keys(plan, dens)
        for st, (_, cell, sign), lo, hi in zip(plan.strata, keys, t_lo, t_hi):
            mids = 0.5 * (st.piece_lo + st.piece_hi)
            sgn = -np.sign(np.cos(dens.omegas[st.mode_index] * mids + dens.phases[st.mode_index]))
            assert np.all(sgn == sign)
            cells = np.floor(dens.alphas[st.mode_index] / plan.delta)
            assert np.all(cells == cell)
            assert np.all(st.piece_lo >= lo - 1e-15)
            assert np.all(st.piece_hi <= hi + 1e-15)
            assert lo >= 0.0 and hi <= SHIFT_LIMIT

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
                alpha = dens.alphas[st.mode_index[j]]
                for t_val in (st.piece_lo[j], st.piece_hi[j]):
                    feats.append(np.maximum(xs @ alpha - t_val, 0.0))
            worst = max(
                float(np.abs(a - b).max()) for i, a in enumerate(feats) for b in feats[i + 1 :]
            )
            assert worst <= allocation_width(64, 2)[0] + 1e-12
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
        keys, _, _ = _stratum_keys(plan, dens)
        for st, key, mass, ref in zip(plan.strata, keys, _stratum_masses(plan), expected):
            assert key == ref["key"]
            assert np.array_equal(st.mode_index, ref["modes"])
            assert np.array_equal(st.piece_lo, ref["lo"]) and np.array_equal(st.piece_hi, ref["hi"])
            assert np.all(np.abs(st.piece_mass - ref["mass"]) <= np.spacing(ref["mass"]))
            assert abs(mass - ref["total"]) <= np.spacing(ref["total"])
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

    def test_zero_on_bin_edge_cuts_once(self):
        """cos(pi t + pi/4), the k = 1 row of (1 + i) e^{ix} / 4 + conj, vanishes
        at t = 0.25, which is also the bin edge 2 delta at m=64: that row is
        cut there once, and no piece is empty."""
        dens = build_density(rj.make_trig_poly(1, {1: 0.25 + 0.25j, -1: 0.25 - 0.25j}))
        assert dens.phases.tolist() == [-np.pi / 4, np.pi / 4]
        plan = build_strata(dens, 64)
        assert plan.delta == 0.125 and 2 * plan.delta == 0.25
        assert np.all(plan.piece_hi > plan.piece_lo)
        edges = [0.0, 0.125, 0.25, SHIFT_LIMIT]
        for mode in range(2):
            mine = plan.piece_mode == mode
            bounds = np.concatenate([plan.piece_lo[mine], plan.piece_hi[mine]])
            assert np.count_nonzero(plan.piece_lo[mine] == 0.25) == 1
            assert np.count_nonzero(plan.piece_hi[mine] == 0.25) == 1
            assert np.unique(bounds).tolist() == edges
        # the sign of cos changes at the edge on the k = 1 row only
        keys, _, _ = _stratum_keys(plan, dens)
        signs = np.repeat([sign for _, _, sign in keys], np.diff(plan.ptr))
        assert len(set(signs[plan.piece_mode == 1].tolist())) == 2
        assert len(set(signs[plan.piece_mode == 0].tolist())) == 1

    # sha256 of each plan array (dtype, shape, then bytes), recorded on
    # x86-64 with NumPy 2.4: any change of a plan byte, such as a reordering
    # of strata or pieces, fails here.  The float arrays also depend on
    # NumPy's float64 cos and sin.  The draw arrays were recorded while the
    # plan still held its per-stratum sign, mass, share and fractional count:
    # draw_beta carries the sign and the fractional count.
    PLAN_DIGESTS = {
        "decay1": {
            "ptr": "1d708e67e55328617f4c77ca34e27ae29f86b949423df327ca290d442d41a3de",
            "piece_mode": "be98f70e6f95de375c4880b709f3f2dde405d774fe3093085cd4c2cd61f8abbf",
            "piece_lo": "cbea39bb711b1aecc7f572be6926f452fe7a33b4fd13a37f1dde381ac815b39d",
            "piece_hi": "92e2abba253b35e2b2bbc12e366fe645debc3cd92894a56b270320835c2ff6ec",
            "piece_mass": "0c2a10f93c3b126af1402b583d0ffe8062632a8b867f2ce7b3f25d3f8660a6e0",
            "cum": "957f8339998cd463c39d64ac61afe1108615e6e734a3848aeb6a2cdb627fa780",
            "count": "d010d2254eb39027c92b3865b4aae33ab3cd8e8854e3a4bccf4ab72fa119e8fb",
            "piece_f_lo": "7131cb61ef7a24070169a1406b6d8cb3359b08b3a2c2f628c1cc1ca2eda8a38a",
            "piece_f_hi": "aef8136df1c8d1292adf60a926981257946f12dece6c5c9fab1baeb6aedbcbd7",
            "draw_stratum": "b28b71692b819c8cc5708d1d53de75d1a4d798f389a5a41e9b97438e2fed977a",
            "draw_last": "c87cc36567e47549c3c72f94321db1dea58b8c5cb458e88a52d8a7dcad44550f",
            "draw_beta": "29c89c7bf572513057471ab224029b5b509222a2b9bf2551831c4afb5251e97c",
        },
        "decay2": {
            "ptr": "5759dd238cb68f31b6e162d789d99b1689f9ada862d8ae5d39b9bb1767d6c140",
            "piece_mode": "854c7f012207a0e2178530413f13a47566932d74fc29ce29428db243148893d6",
            "piece_lo": "8dac06e69fbeb8412bd536c498e159488d41cee4b0ab7cd32cfcb2bc73cff390",
            "piece_hi": "8071ba48a124e0430459c3b219e52a6a2208feb9a41e8de4cedb96784ac9c48d",
            "piece_mass": "778686cc2f832c13f4f399ea1fcd72974d04c05c303ee239a18ca19ce20ab1fd",
            "cum": "df17e056e85c9c5b840674755c4da65f25a37aa45a1a300a09be923593a29107",
            "count": "29380ba8998653d1c0c1e9d24e61dc6dfb8d9e15e38904dba1b0932c3ce5eb5d",
            "piece_f_lo": "577d7dd08c9eee4df5abc9bf62568c909466442c5606d91278538566f567ed72",
            "piece_f_hi": "20087ced9f4f4ecac4b36ba2dfec1f86816d6ee31cce4e33e42850d1aab5a5e2",
            "draw_stratum": "ffa9b4b00de49e829f25457a6257637616fca2c4cd01a0041d661fae61277800",
            "draw_last": "5ea6122676c5f525dd2f011c9467de4d7a33fafb4d81a6d1bf65d97dbd3b699e",
            "draw_beta": "d51733230e88712edc69c774d04475192334584c6d679c1808819a6a6a26942c",
        },
        "decay3": {
            "ptr": "5a8fcde45d6006b6928512cf9ef805745e113d93e70f781f88388b53d0538c07",
            "piece_mode": "09a22dd239ef60b04f9fe2eb5b9ba57a01af514542380ccf34aaf3202bfc4468",
            "piece_lo": "94515644571f631c534a4e1f39474bf066587886ab2b9afe8d5b626fa528c409",
            "piece_hi": "976d9a155607a88f1a884c659b0cca5716974779c2b978c1fed768ec2f14548d",
            "piece_mass": "3b92876ef344a9270b9b66a3778e4dde2728e34b7d0a502774f9fc26be6b85ff",
            "cum": "fea6dd303fb85e64556d16b7111ad0e04ab7f730ff879721b1b1fc9d41808bc9",
            "count": "91b53064c155b6ba7d5cad407f31f64a7310c8a1aac27e5db212fac5bc6dcbfd",
            "piece_f_lo": "a40f9f9af62589ca6d0b517dae47ae1370c4d0163348ee543f44b4cec9b40f13",
            "piece_f_hi": "d5791d0bed25e77e08ab1ce6e2324d294d2d47fc065cdb004b8e94e4efe29801",
            "draw_stratum": "9a87482ad6aeb02f014c341cc336487548902ca08c7c82dac3feda70dbe101c7",
            "draw_last": "a2f451ce08c56e7df2056a15b97c13f9d7d5d277ab34b5199ef1d2078634a887",
            "draw_beta": "9e9a7b881d125f794ff129acbb4a10db985b9b8fd75ca705680011509dfa904e",
        },
    }

    @pytest.mark.parametrize("name", list(PLAN_TARGETS))
    def test_plan_bytes_pinned(self, name):
        _, plan = pinned_preparation(name)
        digests = {field: _digest(getattr(plan, field)) for field in self.PLAN_DIGESTS[name]}
        assert digests == self.PLAN_DIGESTS[name]

    @pytest.mark.parametrize("name", [*PLAN_TARGETS, "cos"])
    def test_draw_constants(self, name):
        """The plan's per-piece primitives are F(omega*lo + b) and
        F(omega*hi + b) bit for bit, and its per-draw arrays are the
        stratum values repeated by the draw counts."""
        dens, plan = pinned_preparation(name)
        omega, b = dens.omegas[plan.piece_mode], dens.phases[plan.piece_mode]
        assert plan.piece_f_lo.tobytes() == _abs_cos_primitive(omega * plan.piece_lo + b).tobytes()
        assert plan.piece_f_hi.tobytes() == _abs_cos_primitive(omega * plan.piece_hi + b).tobytes()
        stratum = np.repeat(np.arange(plan.strata_count), plan.count)
        assert plan.draw_stratum.tolist() == stratum.tolist()
        assert plan.draw_last.tolist() == (plan.ptr[stratum + 1] - 1).tolist()
        # beta = v * m_i / (m' * n_i) * s, with the fsum mass m_i and the sign s
        # of cos at the midpoint of the stratum's first piece
        target_count = plan.m_prime * (_stratum_masses(plan) / dens.v)
        first = plan.ptr[:-1]
        mid = 0.5 * (plan.piece_lo[first] + plan.piece_hi[first])
        sign = -np.sign(np.cos(omega[first] * mid + b[first]))
        beta = dens.v * target_count / (plan.m_prime * plan.count) * sign
        assert plan.draw_beta.tobytes() == np.repeat(beta, plan.count).tobytes()
        assert plan.origins.tolist() == ["sampled"] * plan.total_count
        assert plan.total_count == int(plan.count.sum())

    def test_arrays_read_only(self, cos_image):
        """Every array of the density and the plan, the draw constants included, is read-only."""
        dens = build_density(cos_image)
        plan = build_strata(dens, 64)
        draw_constants = (
            (dens, {"cum", "f_lo", "f_hi"}),
            (plan, {"piece_f_lo", "piece_f_hi", "draw_stratum", "draw_last", "draw_beta", "origins"}),
        )
        for obj, names in draw_constants:
            arrays = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
            arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
            assert names <= arrays.keys()
            assert not [name for name, a in arrays.items() if a.flags.writeable]

    def test_rejects(self, cos_image):
        dens = build_density(cos_image)
        with pytest.raises(ValueError):
            build_strata(dens, 7)
        degenerate = build_density(rj.apply_jackson(rj.make_trig_poly(1, {0: 1.0}), 4, 2))
        with pytest.raises(ValueError, match="empty density"):
            build_strata(degenerate, 64)


def test_cos_zero_shifts_ascend_within_each_row():
    """Zeros come out row by row with t ascending, so ``build_strata`` can
    merge them into the bin edges without a sort."""
    rng = np.random.default_rng(3)
    omega = np.pi * rng.integers(1, 40, 50).astype(float)
    b = rng.uniform(-np.pi, np.pi, 50)
    row, t = _cos_zero_shifts(omega, b)
    assert np.all(np.diff(row) >= 0)
    assert np.all(np.diff(t)[np.diff(row) == 0] > 0.0)
    assert np.all((t > 0.0) & (t < SHIFT_LIMIT))
    assert np.abs(np.cos(omega[row] * t + b[row])).max() < 1e-12
    # every zero in the range: each row's phase runs from b to b + omega / pi
    expected = np.floor((b + omega / np.pi - np.pi / 2) / np.pi) - np.ceil((b - np.pi / 2) / np.pi) + 1
    assert np.bincount(row, minlength=50).tolist() == np.maximum(expected, 0).astype(int).tolist()


def _reference_edges(delta):
    """Shift-bin edges j*delta, clipped at 1/pi."""
    limit = 1.0 / math.pi
    return np.minimum(delta * np.arange(math.ceil(limit / delta) + 1), limit)


def _stratum_keys(plan, dens):
    """Per stratum, its key (bin, cell, sign) and its bin's edges t_lo, t_hi.

    The bin and the direction cell are those of the stratum's first piece on
    the delta grid; the atom sign is the sign of its first draw weight.
    """
    first = plan.ptr[:-1]
    edges = _reference_edges(plan.delta)
    bins = np.searchsorted(edges, plan.piece_lo[first], side="right") - 1
    cells = np.floor(dens.alphas[plan.piece_mode[first]] / plan.delta).astype(np.int64)
    signs = np.sign(plan.draw_beta[np.cumsum(plan.count) - plan.count])
    keys = [(b, tuple(c), s) for b, c, s in zip(bins.tolist(), cells.tolist(), signs.tolist())]
    return keys, edges[bins], edges[bins + 1]


def _stratum_masses(plan):
    """Exactly rounded stratum masses: the fsum of each stratum's piece masses."""
    ptr = plan.ptr.tolist()
    return np.array([math.fsum(plan.piece_mass[i:j].tolist()) for i, j in zip(ptr[:-1], ptr[1:])])


def _reference_strata(dens, m):
    """Strata of a width-m plan built by a plain loop over both ridge signs z
    and every mode, shifts on [0, 1/pi], bucketed in a dict and ordered by
    sorting its keys.

    The atom (z = -1, k, t) is the atom (z = +1, -k, t), so the loop folds it
    there: it is filed under the mode and direction cell of -k, and its mass
    is added to that piece's mass from the z = +1 row of -k.  The pieces of
    the two rows must coincide, or the fold leaves a piece the plan lacks.
    """
    _, delta = allocation_width(m, dens.image.d)
    limit = 1.0 / math.pi
    edges = _reference_edges(delta)
    # (|k|_1, alpha_k) names k; alpha_k alone does not (in d = 1 every k > 0 has alpha_k = 1/pi)
    named = {(l1, tuple(a)): j for j, (l1, a) in enumerate(zip(dens.l1.tolist(), dens.alphas.tolist()))}
    bucket = {}
    for z in (-1.0, 1.0):
        for j in range(dens.mode_count):
            omega, b = float(dens.omegas[j]), float(dens.phases[j])
            lo_phase, hi_phase = sorted((b, z * omega * limit + b))
            n0 = math.ceil((lo_phase - math.pi / 2.0) / math.pi)
            n1 = math.floor((hi_phase - math.pi / 2.0) / math.pi)
            zeros = (math.pi / 2.0 + math.pi * np.arange(n0, n1 + 1) - b) / (z * omega)
            bounds = np.unique(np.concatenate([edges, zeros[(zeros > 0.0) & (zeros < limit)]]))
            mode = j if z > 0.0 else named[(float(dens.l1[j]), tuple((-dens.alphas[j]).tolist()))]
            cell = tuple(int(c) for c in np.floor(dens.alphas[mode] / delta))
            base = np.pi**2 * float(dens.magnitudes[j]) * float(dens.l1[j]) ** 2
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                sign = -float(np.sign(np.cos(z * omega * (0.5 * (lo + hi)) + b)))
                rise = _abs_cos_primitive(z * omega * hi + b) - _abs_cos_primitive(z * omega * lo + b)
                mass = base * float(rise / (z * omega))
                if sign == 0.0 or mass <= 0.0:
                    continue
                bin_index = int(np.searchsorted(edges, lo, side="right")) - 1
                pieces = bucket.setdefault((bin_index, cell, sign), {})
                pieces[(mode, lo, hi)] = pieces.get((mode, lo, hi), 0.0) + mass
    strata = []
    for key in sorted(bucket):
        pieces = sorted(bucket[key].items())
        strata.append(
            {
                "key": key,
                "modes": np.array([p[0][0] for p in pieces]),
                "lo": np.array([p[0][1] for p in pieces]),
                "hi": np.array([p[0][2] for p in pieces]),
                "mass": np.array([p[1] for p in pieces]),
                "total": math.fsum(p[1] for p in pieces),
            }
        )
    return strata


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
            omega, b, lo, hi = dens.omegas[mode], dens.phases[mode], st.piece_lo[pick], st.piece_hi[pick]
            f_lo, f_hi = _abs_cos_primitive(omega * lo + b), _abs_cos_primitive(omega * hi + b)
            t = _invert_shift(omega, b, lo, hi, f_lo, f_hi, u[:, 1])
            block = slice(start, start + st.count)
            assert np.array_equal(units.biases[block], t)
            assert np.array_equal(units.alphas[block], dens.alphas[mode])
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
            cum = np.cumsum(dens.masses)
            mode = np.searchsorted(cum, u_plain[:, 0] * cum[-1], side="right")
            omega, b, limit = dens.omegas[mode], dens.phases[mode], 1.0 / np.pi
            f_lo, f_hi = _abs_cos_primitive(omega * 0.0 + b), _abs_cos_primitive(omega * limit + b)
            t = _invert_shift(omega, b, 0.0, limit, f_lo, f_hi, u_plain[:, 1])
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
        assert units.biases.min() >= 0.0 and units.biases.max() <= SHIFT_LIMIT
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
            cap = 8 * np.pi * rj.variation(img, 2) / m
            assert np.abs(units.betas).max() <= cap * (1 + 1e-12), name

    def test_shift_distribution_within_piece(self, cos_image):
        # All drawn shifts must land inside their stratum's bin.
        dens = build_density(cos_image)
        plan = build_strata(dens, 256)
        units = stratified_sample(plan, dens, 5)
        _, t_lo, t_hi = _stratum_keys(plan, dens)
        offset = 0
        for st, lo, hi in zip(plan.strata, t_lo, t_hi):
            block = units.biases[offset : offset + st.count]
            assert np.all(block >= lo - 1e-12)
            assert np.all(block <= hi + 1e-12)
            offset += st.count


class TestPlainSample:
    def test_deterministic_and_bounds(self, cos_image):
        dens = build_density(cos_image)
        a = plain_sample(dens, 500, 9)
        b = plain_sample(dens, 500, 9)
        assert np.array_equal(a.betas, b.betas) and np.array_equal(a.biases, b.biases)
        assert np.abs(np.abs(a.alphas).sum(axis=1) - 1 / np.pi).max() < 1e-14
        assert a.biases.min() >= 0.0 and a.biases.max() <= SHIFT_LIMIT
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


class TestSampleBytesPinned:
    """sha256 of the sampled units' alphas, betas and biases (dtype, shape,
    then bytes), recorded before the plan and the density held each draw's
    seed-independent constants: moving work out of the draw moves no byte.
    decay1-3 are the plans of ``test_plan_bytes_pinned`` at seed 1; cos is
    the unbiasedness check's m=128 plan at seeds 0-3.  Plain draws take the
    plan's draw count.  Recorded on x86-64 with NumPy 2.4."""

    DIGESTS = {
        ("decay1", "stratified", 1): (
            "ee701fd34015ac6ff3de03fa84906fcb05349c0c23138b298dd25146c196b539",
            "29c89c7bf572513057471ab224029b5b509222a2b9bf2551831c4afb5251e97c",
            "61b628587d5613686283efc5ab3878e69cf7b53880660ca3ee63a25532e4d3d2",
        ),
        ("decay1", "plain", 1): (
            "2328a03c60deff4fa1ee5a59d5475864fa1cbd12e37ef58d45c7b64182b65c55",
            "328c3133260c0be40f13524f00b0d51895bdf32a3115f83d389797c6a5f2d730",
            "1347d4be1ae402585f148437bd9de46645b413dac97d224a0e6efeb2fdc3562e",
        ),
        ("decay2", "stratified", 1): (
            "eeb927c0273660ab151dc98d5641798bfcb453f7c05d2715dcc7c15a75a1106e",
            "d51733230e88712edc69c774d04475192334584c6d679c1808819a6a6a26942c",
            "61647cf7144bbc4f85478754af53a1f74cdf114722c8af28ba0adbeceae33495",
        ),
        ("decay2", "plain", 1): (
            "10fd3e000420f33494a519d12406f1b7813b7bc6260c8f61e1dc452f0994e2f6",
            "d4bdc3a91d0996d871c3cfb470597847d029f63c09f9722911215c5a21ede6d6",
            "4559f0837492599f30e931da508704dbb969aa1b8afe734481e6509d9bdd6ef7",
        ),
        ("decay3", "stratified", 1): (
            "be30e56523b144bc9fad87c24ad479c9e0c353a8b3807bbc58d3ea9dac9fb835",
            "9e9a7b881d125f794ff129acbb4a10db985b9b8fd75ca705680011509dfa904e",
            "c1106e79652863a83121e07169af40793555ab41b3cae72adc3ce46013fd6349",
        ),
        ("decay3", "plain", 1): (
            "af6c23d7d3ca6d020d2062724d165a6e87139653843e2ed3c4752d473326bf85",
            "40617de917b4a3260ffa9aa8c08eee39abc3c534043e748991ebcbedfb802ae9",
            "0cebcb50d4b57dfebef2b9e707247ab496dd62eb6792d6d3ec0ae402fba5a499",
        ),
        ("cos", "stratified", 0): (
            "54b2e8b7c33ab63439e3d59e7a1956826a8188b1e2e9e51c2cb343c861da3243",
            "1ac337f494aa7a518cb0388a1f7ad629e1a8f7f9d0d61f1cebb5e7dccd8ecf3d",
            "495de8049e53418d5dc1cb157c01b784c532aef69192203cc3cd4e5358ea34f6",
        ),
        ("cos", "plain", 0): (
            "164575c3946cfac820d0abb278718561f7de5df96c80e9744b5b97621df3154a",
            "c1b0c02dee79e3cc6c18add4d38e6e2f5872d841e0ce2eed70e12554fb7d35ca",
            "98d5ba3c42d7a79c478ac2d4d7594e85b311c4ab9317da52b914be51bf18e763",
        ),
        ("cos", "stratified", 1): (
            "54b2e8b7c33ab63439e3d59e7a1956826a8188b1e2e9e51c2cb343c861da3243",
            "1ac337f494aa7a518cb0388a1f7ad629e1a8f7f9d0d61f1cebb5e7dccd8ecf3d",
            "491535d835e376502b971070bb2eafbab66e52a72c8eae9281e82144905f9e35",
        ),
        ("cos", "plain", 1): (
            "fbb8c4058fe75eba99d84b1e06cbca1a6df46c3fbc902448c35cab4e41c6784a",
            "c1b0c02dee79e3cc6c18add4d38e6e2f5872d841e0ce2eed70e12554fb7d35ca",
            "f833e1e2c35eed6664f60aa82c7cbbc4efb60727d7d59c718a78b72184cee1d7",
        ),
        ("cos", "stratified", 2): (
            "54b2e8b7c33ab63439e3d59e7a1956826a8188b1e2e9e51c2cb343c861da3243",
            "1ac337f494aa7a518cb0388a1f7ad629e1a8f7f9d0d61f1cebb5e7dccd8ecf3d",
            "d8c1c5133ff6e898f643be37a66bb4732e1d46a8bbbb064faa7f2b8414f15a33",
        ),
        ("cos", "plain", 2): (
            "ac6047fff56d01cc0a9232862917c02b8eb9c353f9b616b200984ab96236843d",
            "c1b0c02dee79e3cc6c18add4d38e6e2f5872d841e0ce2eed70e12554fb7d35ca",
            "a5878c57b42340fc3cd0951fd49abe0f3d86b14f3e978b05fee7b2621a281251",
        ),
        ("cos", "stratified", 3): (
            "54b2e8b7c33ab63439e3d59e7a1956826a8188b1e2e9e51c2cb343c861da3243",
            "1ac337f494aa7a518cb0388a1f7ad629e1a8f7f9d0d61f1cebb5e7dccd8ecf3d",
            "ff76f3a62a7d7d7dd149b78186b0c1268c9a62074ee09f0e52d031bb8ac9bb60",
        ),
        ("cos", "plain", 3): (
            "d04a4ad5c18ffe043232f93d96cc67c374e0228b3d57e321930ed2242cf587d4",
            "c1b0c02dee79e3cc6c18add4d38e6e2f5872d841e0ce2eed70e12554fb7d35ca",
            "42dc016faf6b89fdeaf034c28af2c3d18134433bac68eb0d04a67f6f372fd2d9",
        ),
    }

    @pytest.mark.parametrize("name, method, seed", list(DIGESTS), ids=[f"{n}-{m}-{s}" for n, m, s in DIGESTS])
    def test_sample_bytes_pinned(self, name, method, seed):
        dens, plan = pinned_preparation(name)
        if method == "stratified":
            units = stratified_sample(plan, dens, seed)
        else:
            units = plain_sample(dens, plan.total_count, seed)
        digests = tuple(_digest(a) for a in (units.alphas, units.betas, units.biases))
        assert digests == self.DIGESTS[name, method, seed]


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
    def test_preparation_header_is_every_networks_header(self, coeffs, method):
        prep = prepare(rj.make_trig_poly(1, coeffs), 2, 64)
        assert prep.meta.seed is None and prep.meta.sampled_count is None
        for seed in (0, 5):
            net = realize(prep, seed, method)
            sampled = int(np.count_nonzero(net.units.origins == ORIGIN_SAMPLED))
            assert net.meta == dataclasses.replace(prep.meta, seed=seed, sampled_count=sampled)
            assert rj.audit(net).passed

    def test_preparation_fields(self):
        t = rj.make_decay_target(1, 3.2, 16, seed=11)
        prep = prepare(t, 2, 128)
        assert [f.name for f in dataclasses.fields(prep)] == ["meta", "density", "plan", "affine"]
        assert prep.density.image.d == 1 and len(prep.affine) == 3
        assert prep.meta == NetworkMeta(
            v=prep.density.v,
            bandwidth=select_bandwidth(128, 1, 2),
            v2=rj.variation(prep.density.image, 2),
            r=2,
            m_requested=128,
            m_prime=32,
            strata_count=prep.plan.strata_count,
        )

    def test_width_that_cannot_fit_raises(self, corpus):
        """decay2 at m=8 has 8 draws and 3 affine units; it used to construct
        a network that failed its own width audit."""
        decay2 = dict(corpus)["decay2"]
        with pytest.raises(ValueError, match=r"m=8\b.* 8 draws and 3 affine units"):
            construct(decay2, 2, 8, 1)
        net = construct(decay2, 2, 16, 1)
        assert net.unit_count <= 16 and rj.audit(net).passed

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

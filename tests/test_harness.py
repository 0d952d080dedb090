import hashlib
import math
import re

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson import sampler
from relu_jackson.harness import (
    RateExperiment,
    fit_slope,
    load_config,
    run_jackson_rate,
    run_network_rate,
    run_paired_mc,
    theoretical_rate_exponent,
)


class TestFitSlope:
    def test_exact_power_law(self):
        fit = fit_slope([(1, 1), (2, 0.25), (4, 0.0625)])
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_flat(self):
        fit = fit_slope([(1, 1), (2, 1), (4, 1)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_jittered_power_law(self):
        rng = np.random.default_rng(1)
        scales = [2.0**i for i in range(8)]
        pts = [(s, s**-1.7 * (1 + 0.01 * (2 * rng.random() - 1))) for s in scales]
        assert fit_slope(pts).slope == pytest.approx(-1.7, abs=0.03)

    def test_rejects(self):
        with pytest.raises(ValueError):
            fit_slope([(1, 1)])
        with pytest.raises(ValueError):
            fit_slope([(1, 1), (2, -0.5)])
        with pytest.raises(ValueError):
            fit_slope([(1, 1), (1, 2)])


def test_theoretical_rate_exponent_regimes():
    assert theoretical_rate_exponent(1, 2) == pytest.approx(-1.2)  # r < d/2 + 2
    assert theoretical_rate_exponent(2, 2) == pytest.approx(-2 / 3)
    assert theoretical_rate_exponent(1, 4) == pytest.approx(-1.5)  # r > d/2 + 2


class TestRateExperimentValidation:
    def test_needs_four_sweep_points(self, cos_target):
        with pytest.raises(ValueError):
            RateExperiment("jackson-rate", cos_target, 2, sweep=(8, 16, 32))

    def test_needs_increasing_sweep(self, cos_target):
        with pytest.raises(ValueError):
            RateExperiment("jackson-rate", cos_target, 2, sweep=(8, 16, 16, 32))

    def test_needs_seeds(self, cos_target):
        with pytest.raises(ValueError):
            RateExperiment("network-rate", cos_target, 2, sweep=(8, 16, 32, 64))

    @pytest.mark.parametrize(
        "mode, seeds, named",
        [("network-rate", (1, 1, 2), 1), ("network-rate", (3, 0, 5, 0), 0), ("paired-mc", (2, 7, 2), 2)],
    )
    def test_rejects_repeated_seed(self, cos_target, mode, seeds, named):
        """A repeated seed used to give network-rate two error columns of one
        name and a median that counts it twice, and paired-mc a duplicate row."""
        given = dict(sweep=(8, 16, 32, 64)) if mode == "network-rate" else dict(m=16)
        with pytest.raises(ValueError, match=f"seed {named} is given more than once"):
            RateExperiment(mode, cos_target, 2, seeds=seeds, **given)

    @pytest.mark.parametrize(
        "mode, given, name, value",
        [
            ("jackson-rate", dict(sweep=(2, 4, 8, 16)), "bandwidth_exponent", 0.5),
            ("jackson-rate", dict(sweep=(2, 4, 8, 16)), "bandwidth", 4),
            ("jackson-rate", dict(sweep=(2, 4, 8, 16)), "m", 64),
            ("jackson-rate", dict(sweep=(2, 4, 8, 16)), "seeds", (1,)),
            ("network-rate", dict(sweep=(16, 32, 64, 128), seeds=(1,)), "m", 64),
            ("paired-mc", dict(m=64, seeds=(1,)), "sweep", (2, 4, 8, 16)),
        ],
        ids=["jackson-exponent", "jackson-bandwidth", "jackson-m", "jackson-seeds", "network-m", "paired-sweep"],
    )
    def test_rejects_a_field_the_mode_never_reads(self, cos_target, mode, given, name, value):
        """``RateExperiment("jackson-rate", t, 2, sweep=(2, 4, 8, 16), bandwidth_exponent=0.5)``
        used to build and run as if the exponent were not there."""
        with pytest.raises(ValueError, match=f"^{mode} never reads {name}, got {re.escape(repr(value))}$"):
            RateExperiment(mode, cos_target, 2, **given, **{name: value})

    def test_paired_needs_width(self, cos_target):
        with pytest.raises(ValueError):
            RateExperiment("paired-mc", cos_target, 2, seeds=(1,))

    def test_unknown_mode(self, cos_target):
        with pytest.raises(ValueError):
            RateExperiment("bogus", cos_target, 2, sweep=(8, 16, 32, 64))

    def test_bandwidth_conflict(self, cos_target):
        with pytest.raises(ValueError):
            RateExperiment(
                "network-rate",
                cos_target,
                2,
                sweep=(8, 16, 32, 64),
                seeds=(1,),
                bandwidth=4,
                bandwidth_exponent=0.5,
            )


    @pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_exponent(self, cos_target, exponent):
        """inf and nan used to raise an unnamed error from ``math.floor``, and
        -inf ran with N = 1 at every width."""
        with pytest.raises(ValueError, match="bandwidth_exponent must be finite"):
            RateExperiment("network-rate", cos_target, 2, sweep=(8, 16, 32, 64), seeds=(1,),
                           bandwidth_exponent=exponent)

    @pytest.mark.parametrize("exponent", [-1, 0, 0.0, -0.0])
    def test_rejects_non_positive_exponent(self, cos_target, exponent):
        """With e <= 0 every width ran at N = floor(m**e) clamped to 1: one
        error repeated down the sweep, a rate fitted to nothing."""
        with pytest.raises(ValueError, match=f"bandwidth_exponent must be finite and positive, got {exponent}$"):
            RateExperiment("network-rate", cos_target, 2, sweep=(8, 16, 32, 64), seeds=(1,),
                           bandwidth_exponent=exponent)

    @pytest.mark.parametrize("exponent", [0.5, 0.75])
    def test_positive_exponent_runs(self, cos_target, exponent):
        exp = RateExperiment("network-rate", cos_target, 2, sweep=(16, 32, 64, 128), seeds=(1,), grid_points=33,
                             bandwidth_exponent=exponent)
        assert run_network_rate(exp).startswith("# schema=network_rate@1")

    def test_overflowing_exponent_named(self, cos_target):
        """``m**1e308`` used to raise a bare ``OverflowError``; it is now refused at construction."""
        with pytest.raises(ValueError, match=r"bandwidth_exponent=1e\+308 overflows m\*\*exponent at m=16"):
            RateExperiment("network-rate", cos_target, 2, sweep=(16, 32, 64, 128), seeds=(1,), grid_points=33,
                           bandwidth_exponent=1e308)

    @pytest.mark.parametrize("seeds, named", [((1, -2), "-2"), ((0, 1.5), "1.5"), ((True,), "True")])
    def test_rejects_bad_seed_by_name(self, cos_target, seeds, named):
        """``seeds=(1, -2)`` used to prepare the first width and realize seed 1
        before an error that did not name -2."""
        with pytest.raises(ValueError, match=f"seed must be (>= 0|an integer), got {named}$"):
            RateExperiment("network-rate", cos_target, 2, sweep=(16, 32, 64, 128), seeds=seeds)


class TestWidthsAndBandwidthsNamed:
    """Each width and bandwidth is refused at construction, by name, before any grid is computed."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            (dict(mode="network-rate", sweep=(-16, 32, 64, 128), bandwidth_exponent=0.5),
             "sweep width must be >= 8, got -16"),
            (dict(mode="paired-mc", m=-64, bandwidth_exponent=0.5), "m must be >= 8, got -64"),
            (dict(mode="network-rate", sweep=(4, 32, 64, 128)), "sweep width must be >= 8, got 4"),
            (dict(mode="paired-mc", m=4), "m must be >= 8, got 4"),
            (dict(mode="network-rate", sweep=(16, 32, 64, 128), bandwidth=0), "bandwidth must be >= 1, got 0"),
            (dict(mode="jackson-rate", sweep=(0, 2, 4, 8)), "sweep bandwidth must be >= 1, got 0"),
        ],
        ids=["negative-width-scheduled", "negative-m-scheduled", "small-width", "small-m", "zero-bandwidth",
             "zero-jackson-bandwidth"],
    )
    def test_refused_by_name(self, cos_target, spec, message):
        """The negative widths used to end in a bare ``TypeError`` from
        ``math.floor(m**e)``; the rest were refused, unnamed, only when the
        runner reached them."""
        seeds = () if spec["mode"] == "jackson-rate" else (1,)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RateExperiment(target=cos_target, r=2, seeds=seeds, **spec)


class TestFlatSchedule:
    """``RateExperiment`` refuses, at construction, an exponent schedule that stays at N = 1 or overflows."""

    @pytest.mark.parametrize(
        "spec, width",
        [
            (dict(mode="network-rate", sweep=(64, 128, 256, 512), bandwidth_exponent=0.1), 512),
            (dict(mode="network-rate", sweep=(16, 32, 64, 128), bandwidth_exponent=1e-3), 128),
            (dict(mode="paired-mc", m=256, bandwidth_exponent=0.1), 256),
        ],
        ids=["network-rate", "network-rate-tiny", "paired-mc"],
    )
    def test_refuses_n_of_one_at_the_largest_width(self, cos_target, spec, width):
        exponent = spec["bandwidth_exponent"]
        with pytest.raises(ValueError, match=rf"bandwidth_exponent={exponent} .* m={width}: .*no rate"):
            RateExperiment(target=cos_target, r=2, seeds=(1,), **spec)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(mode="network-rate", sweep=(64, 128, 256, 512), bandwidth_exponent=0.12),
            dict(mode="network-rate", sweep=(16, 32, 64, 128), bandwidth_exponent=0.5),
            dict(mode="network-rate", sweep=(16, 32, 64, 128), bandwidth_exponent=0.75),
            dict(mode="paired-mc", m=256, bandwidth_exponent=0.125),
            dict(mode="network-rate", sweep=(16, 32, 64, 128)),
            dict(mode="network-rate", sweep=(16, 32, 64, 128), bandwidth=1),
        ],
        ids=["0.12-reaches-2", "0.5", "0.75", "paired-mc-0.125", "selection-rule", "fixed-N"],
    )
    def test_accepts_a_schedule_that_reaches_two(self, cos_target, spec):
        assert RateExperiment(target=cos_target, r=2, seeds=(1,), **spec).mode == spec["mode"]

    def test_overflow_keeps_its_message(self, cos_target):
        """64**150 is finite, 128**150 is not: the sweep used to prepare m=64 at N = floor(64**150)
        and end in NumPy's ``Maximum allowed size exceeded``.  It is refused, naming m=128."""
        with pytest.raises(ValueError, match=r"bandwidth_exponent=150\.0 overflows m\*\*exponent at m=128$"):
            RateExperiment("network-rate", cos_target, 2, sweep=(64, 128, 256, 512), seeds=(1,),
                           bandwidth_exponent=150.0)


class TestRunJacksonRate:
    def test_constant_flags_undefined_slope(self):
        t = rj.make_trig_poly(1, {0: 1.0})
        exp = RateExperiment("jackson-rate", t, 2, sweep=(8, 16, 32, 64))
        csv = run_jackson_rate(exp)
        for line in csv.splitlines()[2:6]:
            assert float(line.split(",")[1]) < 1e-12
        assert "# slope=undefined" in csv

    def test_rate_target_slope_in_trailer(self):
        t = rj.make_decay_target(1, 3.2, 2, seed=11)
        exp = RateExperiment("jackson-rate", t, 2, sweep=(8, 16, 32, 64, 128))
        csv = run_jackson_rate(exp)
        slope_line = [ln for ln in csv.splitlines() if ln.startswith("# slope=")][0]
        slope = float(slope_line.split("=", 1)[1])
        assert -3.2 <= slope <= -1.6

    def test_byte_deterministic(self):
        t = rj.make_decay_target(1, 3.2, 2, seed=11)
        exp = RateExperiment("jackson-rate", t, 2, sweep=(8, 16, 32, 64))
        assert run_jackson_rate(exp) == run_jackson_rate(exp)

    def test_schema_line(self, cos_target):
        exp = RateExperiment("jackson-rate", cos_target, 2, sweep=(8, 16, 32, 64))
        assert run_jackson_rate(exp).splitlines()[0] == "# schema=jackson_rate@1"


@pytest.fixture(scope="module")
def small_csv(cos_target):
    exp = RateExperiment(
        "network-rate",
        cos_target,
        2,
        sweep=(16, 32, 64, 128),
        seeds=(1, 2),
        grid_points=257,
    )
    return run_network_rate(exp)


class TestRunNetworkRate:
    def test_columns_and_rule_audit(self, small_csv):
        lines = small_csv.splitlines()
        assert lines[0] == "# schema=network_rate@1"
        assert lines[1] == "m,N_selected,v,median_error,error_seed1,error_seed2"
        ms, errors = [], []
        for ln in lines[2:6]:
            fields = ln.split(",")
            m, n_sel = int(fields[0]), int(fields[1])
            assert n_sel == rj.select_bandwidth(m, 1, 2)
            ms.append(m)
            errors.append(float(fields[3]))
        assert ms == sorted(ms) and all(e > 0 for e in errors)

    def test_byte_deterministic(self, cos_target, small_csv):
        exp = RateExperiment(
            "network-rate",
            cos_target,
            2,
            sweep=(16, 32, 64, 128),
            seeds=(1, 2),
            grid_points=257,
        )
        assert run_network_rate(exp) == small_csv

    def test_exponent_schedule(self, cos_target):
        exp = RateExperiment(
            "network-rate",
            cos_target,
            2,
            sweep=(16, 32, 64, 128),
            seeds=(1,),
            grid_points=129,
            bandwidth_exponent=0.75,
        )
        lines = run_network_rate(exp).splitlines()
        for ln in lines[2:6]:
            m, n_sel = int(ln.split(",")[0]), int(ln.split(",")[1])
            assert n_sel == int(m**0.75)


class TestRunPairedMc:
    def test_rows_and_medians(self, cos_target):
        exp = RateExperiment(
            "paired-mc", cos_target, 2, seeds=(0, 1, 2), m=64, grid_points=257
        )
        csv = run_paired_mc(exp)
        lines = csv.splitlines()
        assert lines[0] == "# schema=paired_mc@1"
        for ln in lines[2:5]:
            seed, strat, plain = ln.split(",")
            assert float(strat) > 0 and float(plain) > 0
        assert lines[-1].startswith("# stratified_median=")
        assert run_paired_mc(exp) == csv


_DECAY2, _DECAY3 = rj.make_decay_target(2, 4.2, 8, seed=7), rj.make_decay_target(3, 3.2, 6, seed=5)

#: Harness CSVs that evaluate on a grid whose line layout the runner
#: computes once, with the sha256 of their bytes: the d = 2 sweep's shape
#: (decay2, bandwidth floor(m^0.5), 129^2 grid), a d = 3 sweep at the
#: default bandwidth rule (decay3, 33^3 grid) and a d = 2 paired
#: comparison.  Recorded with the layout detected inside every evaluation
#: and no unit left out of any block of lines.
HARNESS_CSV_PINS = {
    "sweep_d2": (
        run_network_rate,
        RateExperiment("network-rate", _DECAY2, 2, (64, 128, 256, 512, 1024, 2048, 4096), (1, 2), 129,
                       bandwidth_exponent=0.5),
        "f11e4556602eb71600735e84449627223b3fb1d9310ff428de591fe3c8aaae6d",
    ),
    "sweep_d3": (
        run_network_rate,
        RateExperiment("network-rate", _DECAY3, 2, (512, 1024, 2048, 4096), (1,), 33),
        "98b4e4676ada133f87e62634b04fb720fa662f5e5cfbd40592a4e8343ba53e7f",
    ),
    "paired_d2": (
        run_paired_mc,
        RateExperiment("paired-mc", _DECAY2, 2, seeds=(1, 2, 3), grid_points=129, bandwidth_exponent=0.5, m=1024),
        "88685032f39ca5d8cfa77108e13a0cdba34857065e7a5ae7a72adfe7bb034530",
    ),
}


@pytest.mark.parametrize("name", list(HARNESS_CSV_PINS))
def test_harness_csv_bytes_pinned(name):
    run, exp, digest = HARNESS_CSV_PINS[name]
    assert hashlib.sha256(run(exp).encode()).hexdigest() == digest


@pytest.fixture
def strata_calls(monkeypatch):
    """A list that gains one entry per ``build_strata`` call."""
    calls = []
    build = sampler.build_strata

    def counting(density, m):
        calls.append(m)
        return build(density, m)

    monkeypatch.setattr(sampler, "build_strata", counting)
    return calls


class TestPlanReuse:
    """Each width's plan is built once, whatever the number of seeds."""

    def test_network_rate_builds_one_plan_per_width(self, cos_target, strata_calls):
        sweep = (16, 32, 64, 128)
        exp = RateExperiment("network-rate", cos_target, 2, sweep=sweep, seeds=(1, 2, 3), grid_points=65)
        run_network_rate(exp)
        assert strata_calls == list(sweep)

    def test_paired_mc_builds_one_plan(self, cos_target, strata_calls):
        exp = RateExperiment("paired-mc", cos_target, 2, seeds=(0, 1, 2), m=64, grid_points=65)
        run_paired_mc(exp)
        assert strata_calls == [64]


class TestLoadConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nr = 2\nsweep = 8,16,32,64  # inline\n\nseed=1,2\n")
        cfg = load_config(path)
        assert cfg == {"r": "2", "sweep": "8,16,32,64", "seed": "1,2"}

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_rejects_repeated_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nr = 2\nseed = 2\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:3: key 'seed' repeated \(first on line 1\)"):
            load_config(path)

    def test_rejects_key_repeated_in_other_spelling(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N_exponent = 0.5\nr = 2\nN-exponent = 0.75\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:3: key 'N-exponent' repeated \(first on line 1\)"):
            load_config(path)

    @pytest.mark.parametrize("line", ["config = b.cfg", "config=b.cfg  # nested"])
    def test_rejects_a_config_key(self, tmp_path, line):
        """``config = b.cfg`` used to become a second ``--config`` flag, and ``b.cfg`` was never read."""
        path = tmp_path / "a.cfg"
        path.write_text(f"r = 2\n{line}\n")
        with pytest.raises(ValueError, match=r"a\.cfg:2: a config file cannot name another \('config ?= ?b\.cfg'\)"):
            load_config(path)

    def test_comment_needs_line_start_or_whitespace(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("out = a#b.csv\nr = 2\t# tab comment\n  # indented comment\n")
        assert load_config(path) == {"out": "a#b.csv", "r": "2"}

import numpy as np
import pytest

import relu_jackson as rj
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

    def test_comment_needs_line_start_or_whitespace(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("out = a#b.csv\nr = 2\t# tab comment\n  # indented comment\n")
        assert load_config(path) == {"out": "a#b.csv", "r": "2"}

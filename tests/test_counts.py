"""Every integer count the library takes is refused by name when it is a float, a bool or below its floor."""

import argparse
import re

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.cli import _cmd_verify_identity
from relu_jackson.network import Units

COS = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
COS_PREP = rj.prepare(COS, 2, 64)


def _experiment(**fields):
    spec = dict(mode="network-rate", target=COS, r=2, sweep=(16, 32, 64, 128), seeds=(1,))
    return rj.RateExperiment(**{**spec, **fields})


def _verify_identity(samples):
    return _cmd_verify_identity(argparse.Namespace(samples=samples, cmax=4.0, seed=0, panels=8))


# (site, name in the message, floor, call with the count)
SITES = [
    ("EvaluationGrid-d", "dimension d", 1, lambda v: rj.EvaluationGrid(v, 8)),
    ("EvaluationGrid-points", "points_per_axis", 2, lambda v: rj.EvaluationGrid(1, v)),
    ("make_trig_poly-d", "dimension d", 1, lambda v: rj.make_trig_poly(v, {0: 1.0})),
    ("make_decay_target-k_max", "k_max", 1, lambda v: rj.make_decay_target(1, 3.2, v, 0)),
    ("holder_norm-r", "derivative order r", 0, lambda v: rj.holder_norm(COS, v, rj.EvaluationGrid(1, 8))),
    ("fejer_coefficients-m", "Fejer order m", 1, rj.fejer_coefficients),
    ("build_kernel-N", "N", 1, lambda v: rj.build_kernel(v, 2)),
    ("build_kernel-r", "order r", 1, lambda v: rj.build_kernel(4, v)),
    ("level_series-level", "level", 0, lambda v: rj.level_series(COS, v, 2)),
    ("level_series-r", "weight order r", 0, lambda v: rj.level_series(COS, 1, v)),
    ("shell_sums-levels", "levels", 0, lambda v: rj.shell_sums(COS, 2, v)),
    ("identity_residual-panels", "panels", 2, lambda v: rj.identity_residual(0.5, 1.0, v)),
    ("build_strata-m", "width m", 8, lambda v: rj.build_strata(COS_PREP.density, v)),
    ("plain_sample-n", "sample count n", 1, lambda v: rj.plain_sample(COS_PREP.density, v, 0)),
    ("plain_sample-seed", "seed", 0, lambda v: rj.plain_sample(COS_PREP.density, 4, v)),
    ("stratified_sample-seed", "seed", 0, lambda v: rj.stratified_sample(COS_PREP.plan, COS_PREP.density, v)),
    ("select_bandwidth-m", "width m", 1, lambda v: rj.select_bandwidth(v, 1, 2)),
    ("select_bandwidth-d", "dimension d", 1, lambda v: rj.select_bandwidth(64, v, 2)),
    ("select_bandwidth-r", "order r", 1, lambda v: rj.select_bandwidth(64, 1, v)),
    ("prepare-r", "order r", 1, lambda v: rj.prepare(COS, v, 64)),
    ("prepare-m", "width m", 8, lambda v: rj.prepare(COS, 2, v)),
    ("prepare-bandwidth", "bandwidth", 1, lambda v: rj.prepare(COS, 2, 64, bandwidth=v)),
    ("realize-seed", "seed", 0, lambda v: rj.realize(COS_PREP, v)),
    ("Units-sampled_count", "sampled_count", 0, lambda v: Units(np.zeros((1, 1)), np.ones(1), np.zeros(1), v)),
    ("RateExperiment-sweep-width", "sweep width", 8, lambda v: _experiment(sweep=(v, 32, 64, 128))),
    ("RateExperiment-sweep-bandwidth", "sweep bandwidth", 1,
     lambda v: _experiment(mode="jackson-rate", sweep=(v, 8, 16, 32), seeds=())),
    ("RateExperiment-m", "m", 8, lambda v: _experiment(mode="paired-mc", sweep=(), m=v)),
    ("RateExperiment-bandwidth", "bandwidth", 1, lambda v: _experiment(bandwidth=v)),
    ("RateExperiment-r", "r", 1, lambda v: _experiment(r=v)),
    ("RateExperiment-grid_points", "grid_points", 2, lambda v: _experiment(grid_points=v)),
    ("RateExperiment-seed", "seed", 0, lambda v: _experiment(seeds=(v,))),
    ("cli-samples", "--samples", 1, _verify_identity),
]


@pytest.mark.parametrize("kind", ["float", "bool", "below"])
@pytest.mark.parametrize("name, least, call", [site[1:] for site in SITES], ids=[site[0] for site in SITES])
def test_count_refused_by_name(name, least, call, kind):
    """A float used to build (a width of 64.0) or end in a bare IndexError or TypeError (a bandwidth of 3.0)."""
    value = {"float": 2.0, "bool": True, "below": least - 1}[kind]
    message = f"{name} must be >= {least}, got {value}" if kind == "below" else f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("call", [lambda v: rj.build_kernel(v, 2), lambda v: rj.build_kernel(2, v)], ids=["N", "r"])
def test_kernel_cache_does_not_skip_the_check(call):
    """``4.0`` hashes and compares equal to ``4``, so an untyped cache would return the integer's kernel."""
    for _ in range(2):
        with pytest.raises(ValueError, match="must be an integer, got 4.0"):
            call(4.0)
        call(4)  # now cached under the integer


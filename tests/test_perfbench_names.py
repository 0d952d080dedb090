"""The library names the benchmark reads, checked in the fast suite.

``perfbench/workloads.py`` calls the sampler stages, builds network headers
and swaps attributes of ``relu_jackson.cli`` during its traced pass.  A
refactor that drops one of those names would otherwise show only when the
benchmark runs.  The module is imported from ``perfbench/``, never edited.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import relu_jackson as rj
from relu_jackson import cli
from relu_jackson.network import ShallowNetwork, Units
from relu_jackson.sampler import build_density, build_strata, construct

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


def test_cli_names_the_traced_pass_swaps(workloads):
    missing = [name for name in (*workloads.CLI_LAYERS, "construct") if not callable(getattr(cli, name, None))]
    assert missing == []


def test_plan_counts(workloads):
    plan = build_strata(build_density(rj.apply_jackson(rj.make_decay_target(1, 3.2, 16, seed=11), 8, 2)), 64)
    assert workloads.plan_counts(plan) == (plan.strata_count, int(plan.ptr[-1]))


@pytest.mark.parametrize("method", ["stratified", "plain"])
def test_replay_construct_is_construct(workloads, method):
    target = rj.make_decay_target(2, 4.2, 8, seed=7)
    replayed = workloads.replay_construct(workloads.NoTrace(), target, 2, 64, 3, method=method)
    assert workloads.networks_equal(replayed, construct(target, 2, 64, 3, method=method))


def test_networks_equal_sees_the_sampled_count(workloads):
    """``origins`` is derived from the sampled count, so the replay's check still compares that count."""
    net = construct(rj.make_decay_target(2, 4.2, 8, seed=7), 2, 64, 3)
    u = net.units
    assert 0 < u.sampled_count < len(u)
    assert u.origins.tolist() == ["sampled"] * u.sampled_count + ["affine"] * (len(u) - u.sampled_count)
    # a header with a sampled_count must match the units, so both headers leave it unset
    meta = replace(net.meta, sampled_count=None)
    base = ShallowNetwork(net.d, u, meta)
    moved = ShallowNetwork(net.d, Units(u.alphas, u.betas, u.biases, u.sampled_count - 1), meta)
    assert workloads.networks_equal(base, base)
    assert not workloads.networks_equal(base, moved)

"""Shared fixtures: the target corpus, standard grids and a fresh Python process."""

import os
import subprocess
import sys

import numpy as np
import pytest

import relu_jackson as rj
from relu_jackson.targets import FourierTarget


def build_corpus():
    """Named targets exercised by the sweeps; order is fixed."""
    return [
        ("const1", rj.make_trig_poly(1, {0: 1.0})),
        ("cos", rj.make_trig_poly(1, {1: 0.5, -1: 0.5})),
        (
            "mix1",
            rj.make_trig_poly(
                1,
                {1: 0.5, -1: 0.5, 3: 0.25, -3: 0.25, 2: 0.125j, -2: -0.125j},
            ),
        ),
        ("decay1", rj.make_decay_target(1, 3.2, 16, seed=11)),
        ("rate1", rj.make_decay_target(1, 3.2, 2, seed=11)),
        ("sin2d", rj.make_trig_poly(2, {(1, 1): -0.5j, (-1, -1): 0.5j})),
        ("decay2", rj.make_decay_target(2, 4.2, 8, seed=7)),
    ]


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def cos_target():
    return rj.make_trig_poly(1, {1: 0.5, -1: 0.5})


def torus_grid(target, points=None):
    return rj.default_grid(target.d, rj.TORUS, points)


def cube_grid(target, points=None):
    return rj.default_grid(target.d, rj.CUBE, points)


def target_from_dict(d, coeff_map, smoothness):
    """Reference construction: a target from a frequency -> coefficient dict,
    nonzero entries only, rows in sorted key order."""
    items = sorted((k, complex(c)) for k, c in coeff_map.items() if c != 0)
    modes = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), d)
    coeffs = np.array([c for _, c in items], dtype=np.complex128)
    return FourierTarget(d=d, modes=modes, coeffs=coeffs, smoothness=smoothness)


def run_python(*args, **env):
    """Run ``python *args`` in a fresh process that imports this checkout's
    package; keyword arguments are environment variables set before it starts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rj.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, check=True)

"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one pass of fixed work through the package's public entry points in ``run``
(the untraced pass that end-to-end metrics time), and replays the same work
layer by layer in ``run_traced``, recording a span around every public call.
The replay is checked against the untraced output bit for bit, so the
per-layer numbers describe the program the untraced pass timed.

Why these workloads:

- ``sweep-d1`` is sampler-bound: in d=1 the strata number about m with one
  draw each, so ``build_strata`` and ``stratified_sample`` carry the cell.
- ``sweep-d2`` is evaluation-bound: dense ``sup_error`` over 129^2 points and
  up to ~6500 units carries the cell, and the realized width exceeds m.
- ``mc-repeat`` reuses one plan for many small draws (the unbiasedness
  check's shape), so per-call sampler overhead dominates and evaluation is
  almost absent.
- ``cli-tools`` is the only one where target I/O, the network CSV writer and
  reader, the spectral levels, the Jackson sweep and CLI parsing carry time.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import relu_jackson as rj
from relu_jackson import cli
from relu_jackson.harness import ERROR_FLOOR, RateExperiment, fit_slope, run_network_rate
from relu_jackson.jackson import apply_jackson, build_kernel
from relu_jackson.network import (
    NetworkMeta,
    ShallowNetwork,
    Units,
    audit,
    dumps_network,
    evaluate,
    load_network,
)
from relu_jackson.sampler import (
    affine_part,
    affine_units,
    build_density,
    build_strata,
    construct,
    plain_sample,
    select_bandwidth,
    stratified_sample,
)
from relu_jackson.spectral import variation
from relu_jackson.targets import CUBE, grid_values, save_target
from tracing import NoTrace

R = 2  # smoothing order used by every workload, as in the acceptance sweeps


def fmt(x: float) -> str:
    """The package's CSV number format: 17 significant digits, round-trip exact."""
    return format(float(x), ".17g")


def plan_counts(plan) -> tuple[int, int]:
    """(strata, pieces) of a sampling plan."""
    return plan.strata_count, sum(s.piece_mass.shape[0] for s in plan.strata)


def evaluate_cost(points: int, units: int, d: int) -> tuple[int, int]:
    """(points x units, bytes) of one dense evaluation, computed from array
    sizes: float64 points, unit parameters, the points x units
    pre-activation matrix and the output."""
    return points * units, 8 * (points * d + units * (d + 2) + points * units + points)


def traced_evaluate(tr, net, pts):
    values = tr.call("network.evaluate", evaluate, net, pts)
    pu, nbytes = evaluate_cost(pts.shape[0], net.unit_count, net.d)
    tr.count("network.evaluate.point_units", pu)
    tr.count("network.evaluate.bytes_computed", nbytes)
    return values


def replay_construct(tr, target, r, m, seed, bandwidth=None, method="stratified"):
    """``construct`` rebuilt from its public stages, one span per stage."""
    n = bandwidth if bandwidth is not None else select_bandwidth(m, target.d, r)
    image = tr.call("jackson.apply", apply_jackson, target, n, r)
    v2 = tr.call("spectral.variation", variation, image, 2)
    density = tr.call("sampler.density", build_density, image)
    if density.is_degenerate:
        raise ValueError("benchmark targets must have oscillatory modes")
    plan = tr.call("sampler.strata", build_strata, density, m)
    strata, pieces = plan_counts(plan)
    tr.count("sampler.strata.count", strata)
    tr.count("sampler.strata.pieces", pieces)
    if method == "stratified":
        sampled = tr.call("sampler.sample", stratified_sample, plan, density, seed)
    else:
        sampled = tr.call("sampler.sample", plain_sample, density, plan.total_count, seed)
    tr.count("sampler.sample.draws", len(sampled))
    affine = tr.call("sampler.affine", affine_units, image)
    meta = NetworkMeta(
        v=density.v,
        bandwidth=n,
        v2=v2,
        r=r,
        seed=seed,
        m_requested=m,
        m_prime=plan.m_prime,
        strata_count=plan.strata_count,
        sampled_count=len(sampled),
    )
    net = ShallowNetwork(d=target.d, units=Units.concat([sampled, affine]), meta=meta)
    tr.count("units", net.unit_count)
    tr.count("m_requested", m)
    return net


def networks_equal(a, b) -> bool:
    return (
        a.d == b.d
        and a.meta == b.meta
        and all(
            np.array_equal(getattr(a.units, f), getattr(b.units, f))
            for f in ("alphas", "betas", "biases", "origins")
        )
    )


def traced_audit(tr, net, problems, what, check):
    """Audit ``net``; ``check`` marks work the untraced pass does not do."""
    with tr.span("network.audit", check=check):
        report = audit(net)
    if not report.passed:
        bad = [c.name for c in report.checks if not c.passed]
        problems.append(f"audit failed for {what}: {bad}")


@dataclass(frozen=True)
class PassResult:
    """Output of one pass: what later passes must reproduce, the operations
    attempted, the problems found, and counts or per-operation latencies."""

    output: object
    ops: int
    problems: list
    facts: dict


# ---------------------------------------------------------------------------
# Rate sweeps
# ---------------------------------------------------------------------------


def parse_rate_csv(text):
    """Rows of a network_rate CSV as dicts of strings, plus its slope trailer."""
    lines = text.splitlines()
    if lines[0] != "# schema=network_rate@1":
        raise ValueError("not a network_rate CSV")
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:] if not ln.startswith("#")]
    slope = next(ln.split("=", 1)[1] for ln in lines if ln.startswith("# slope="))
    return rows, slope


class Sweep:
    def __init__(self, d, s, k_max, corpus_seed, exponent, widths, seeds_per_call, grid_points, seed):
        self.d, self.s, self.k_max = d, s, k_max
        self.target_seed = corpus_seed + seed
        self.exponent = exponent
        self.widths = widths
        self.seeds = tuple(seed * seeds_per_call + 1 + i for i in range(seeds_per_call))
        self.grid_points = grid_points

    def bandwidth(self, m):
        return max(1, math.floor(m**self.exponent))

    def setup(self, tr):
        self.target = rj.make_decay_target(self.d, self.s, self.k_max, self.target_seed)
        self.grid = rj.default_grid(self.d, CUBE, self.grid_points)
        for m in self.widths:
            build_kernel(self.bandwidth(m), R)
        self.experiment = RateExperiment(
            "network-rate",
            self.target,
            R,
            sweep=self.widths,
            seeds=self.seeds,
            grid_points=self.grid_points,
            bandwidth_exponent=self.exponent,
        )

    def run(self):
        text = run_network_rate(self.experiment)
        problems = []
        rows, slope = parse_rate_csv(text)
        errors = [float(row[f"error_seed{s}"]) for row in rows for s in self.seeds]
        if len(rows) != len(self.widths) or not all(math.isfinite(e) and e > 0 for e in errors):
            problems.append("network_rate CSV has missing or non-positive errors")
        if slope == "undefined":
            problems.append("network_rate CSV has no slope")
        return PassResult(text, 1, problems, {"harness.slope": None if slope == "undefined" else float(slope)})

    def run_traced(self, tr, reference):
        rows, ref_slope = parse_rate_csv(reference)
        problems = []
        points = []
        cells = []
        with tr.span("harness"):
            for m, row in zip(self.widths, rows):
                n = self.bandwidth(m)
                errs = []
                for seed in self.seeds:
                    net = replay_construct(tr, self.target, R, m, seed, bandwidth=n)
                    with tr.span("network.sup_error"):
                        tv = tr.call("targets.grid_values", grid_values, self.target, self.grid).ravel()
                        nv = traced_evaluate(tr, net, self.grid.points())
                        err = float(np.abs(tv - nv).max())
                    errs.append(err)
                    traced_audit(tr, net, problems, f"m={m} seed={seed}", check=True)
                    with tr.span("check.construct", check=True):
                        if not networks_equal(net, construct(self.target, R, m, seed, bandwidth=n)):
                            problems.append(f"replayed network differs from construct at m={m} seed={seed}")
                        if fmt(err) != row[f"error_seed{seed}"] or fmt(net.meta.v) != row["v"]:
                            problems.append(f"replayed error or v differs from the harness CSV at m={m} seed={seed}")
                        if str(n) != row["N_selected"]:
                            problems.append(f"bandwidth differs from the harness CSV at m={m}")
                cells.append((m, n, net.meta.strata_count, net.unit_count))
                points.append((m, float(np.median(errs))))
            usable = [(m, e) for m, e in points if e > ERROR_FLOOR]
            slope = tr.call("harness.fit", fit_slope, usable).slope
        if fmt(slope) != ref_slope:
            problems.append("replayed slope differs from the harness CSV")
        ops = len(self.widths) * len(self.seeds)
        return PassResult(reference, ops, problems, {"cells": cells, "harness.slope": slope})


# ---------------------------------------------------------------------------
# Monte Carlo repeat loop
# ---------------------------------------------------------------------------

MC_POINTS = np.array([[-0.9], [-0.45], [0.3], [0.55], [0.8]])
MC_MAX_SE = 4.0


class MCRepeat:
    """Stratified and plain draws at one width from one reused plan, each
    evaluated at five fixed points; the unbiasedness check's shape."""

    def __init__(self, m, seeds_per_pass, seed, clock):
        self.m = m
        self.clock = clock
        self.seeds = range(seed * seeds_per_pass, (seed + 1) * seeds_per_pass)

    def setup(self, tr):
        target = rj.make_trig_poly(1, {1: 0.5, -1: 0.5})
        n = select_bandwidth(self.m, 1, R)
        image = tr.call("jackson.apply", apply_jackson, target, n, R)
        v2 = tr.call("spectral.variation", variation, image, 2)
        self.density = tr.call("sampler.density", build_density, image)
        self.plan = tr.call("sampler.strata", build_strata, self.density, self.m)
        strata, pieces = plan_counts(self.plan)
        tr.count("sampler.strata.count", strata)
        tr.count("sampler.strata.pieces", pieces)
        w, c = tr.call("sampler.affine", affine_part, image)
        self.truth = rj.evaluate(image, MC_POINTS) - (MC_POINTS @ w + c)
        self.meta = NetworkMeta(
            v=self.density.v,
            bandwidth=n,
            v2=v2,
            r=R,
            m_requested=self.m,
            m_prime=self.plan.m_prime,
            strata_count=self.plan.strata_count,
        )

    def _arm(self, tr, units, seed, problems):
        tr.count("sampler.sample.draws", len(units))
        tr.count("units", len(units))
        tr.count("m_requested", self.m)
        net = ShallowNetwork(1, units, replace(self.meta, seed=seed, sampled_count=len(units)))
        values = traced_evaluate(tr, net, MC_POINTS)
        traced_audit(tr, net, problems, f"seed {seed}", check=False)
        return values

    def _pass(self, tr):
        problems = []
        n = len(self.seeds)
        strat = np.zeros((n, MC_POINTS.shape[0]))
        plain = np.zeros_like(strat)
        latency_ms = []
        for i, seed in enumerate(self.seeds):
            t0 = self.clock()
            units = tr.call("sampler.sample", stratified_sample, self.plan, self.density, seed)
            strat[i] = self._arm(tr, units, seed, problems)
            units = tr.call("sampler.sample", plain_sample, self.density, self.plan.total_count, seed)
            plain[i] = self._arm(tr, units, seed, problems)
            latency_ms.append((self.clock() - t0) * 1e3)
        for arm, vals in (("stratified", strat), ("plain", plain)):
            se = vals.std(axis=0, ddof=1) / math.sqrt(n)
            dev = np.abs(vals.mean(axis=0) - self.truth) / np.maximum(se, 1e-300)
            if not np.all(dev <= MC_MAX_SE):
                problems.append(f"{arm} mean deviates {dev.max():.2f} SE from the truth (limit {MC_MAX_SE})")
        return PassResult((strat, plain), n, problems, {"draw_ms": latency_ms})

    def run(self):
        return self._pass(NoTrace())

    def run_traced(self, tr, reference):
        result = self._pass(tr)
        if not (np.array_equal(result.output[0], reference[0]) and np.array_equal(result.output[1], reference[1])):
            result.problems.append("traced draws differ from the untraced pass")
        return result


# ---------------------------------------------------------------------------
# CLI tools
# ---------------------------------------------------------------------------

# Names the CLI module calls into, and the layer each belongs to.
CLI_LAYERS = {
    "load_target": "targets.io",
    "holder_norm": "targets.holder_norm",
    "build_levels": "spectral.levels",
    "run_jackson_rate": "harness",
    "save_network": "network.csv.dumps",
}


def check_spectral_csv(text, problems):
    lines = text.splitlines()
    if lines[0] != "# schema=spectral@1":
        problems.append("spectral CSV lacks its schema line")
        return
    for ln in lines[2:]:
        _level, _sup, _shell, residual, lhs, rhs = (float(x) for x in ln.split(","))
        if not lhs <= rhs:
            problems.append(f"level sup-norm bound violated: {lhs} > {rhs}")
        if not residual < 1e-8:
            problems.append(f"Parseval residual {residual} too large")


def check_jackson_csv(text, problems):
    lines = text.splitlines()
    if lines[0] != "# schema=jackson_rate@1":
        problems.append("jackson_rate CSV lacks its schema line")
        return None
    errors = [float(ln.split(",")[1]) for ln in lines[2:] if not ln.startswith("#")]
    if not errors or not all(math.isfinite(e) and e > 0 for e in errors):
        problems.append("jackson_rate CSV has missing or non-positive errors")
    slope = next(ln.split("=", 1)[1] for ln in lines if ln.startswith("# slope="))
    return None if slope == "undefined" else float(slope)


class CliTools:
    def __init__(self, m, levels, jackson_sweep, grid, workdir, seed):
        self.m = m
        self.levels = levels
        self.jackson_sweep = jackson_sweep
        self.grid = grid
        self.workdir = workdir
        self.seed = 7 + seed  # target phases and sampler seed; 7 is decay2's corpus seed

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self, tr):
        os.makedirs(self.workdir, exist_ok=True)
        target = rj.make_decay_target(2, 4.2, 8, self.seed)
        tr.call("targets.io", save_target, target, self.path("decay2.txt"))
        build_kernel(select_bandwidth(self.m, 2, R), R)
        for n in self.jackson_sweep:
            build_kernel(n, R)
        grid = [] if self.grid is None else ["--grid", str(self.grid)]
        common = ["--target", self.path("decay2.txt"), "--r", str(R)]
        self.commands = [
            ["spectral", *common, "--L", str(self.levels), *grid, "--out", self.path("spectral.csv")],
            ["jackson-rate", *common, "--sweep", ",".join(map(str, self.jackson_sweep)), *grid,
             "--out", self.path("jackson.csv")],
            ["construct", *common, "--m", str(self.m), "--seed", str(self.seed),
             "--out", self.path("net.csv")],
        ]

    def _read(self, name):
        with open(self.path(name), "rb") as fh:
            return fh.read()

    def _pass(self, tr):
        problems = []
        for argv in self.commands:
            with tr.span("cli"):
                code = cli.main(argv)
            if code != 0:
                problems.append(f"{argv[0]} exited with {code}")
        outputs = {name: self._read(name) for name in ("spectral.csv", "jackson.csv", "net.csv")}
        net = tr.call("network.csv.loads", load_network, self.path("net.csv"))
        redump = tr.call("network.csv.dumps", dumps_network, net).encode()
        # Bytes through the CSV layer: written by the CLI, read back, re-dumped.
        tr.count("network.csv.bytes", 2 * len(outputs["net.csv"]) + len(redump))
        if redump != outputs["net.csv"]:
            problems.append("network CSV does not round-trip byte for byte")
        # network@1 stores only v and N, so a reloaded network cannot be
        # audited; the count of such networks is reported, not hidden.
        unaudited = 0
        try:
            traced_audit(tr, net, problems, "reloaded network", check=False)
        except ValueError:
            unaudited = 1
        check_spectral_csv(outputs["spectral.csv"].decode(), problems)
        slope = check_jackson_csv(outputs["jackson.csv"].decode(), problems)
        facts = {"audit_unavailable": unaudited, "harness.slope": slope, "units": net.unit_count}
        return PassResult(outputs, len(self.commands) + 2, problems, facts)

    def run(self):
        return self._pass(NoTrace())

    def run_traced(self, tr, reference):
        """The CLI's calls into other layers are wrapped at the CLI module;
        its ``construct`` is served by the stage-by-stage replay, whose output
        must match the untraced pass byte for byte."""
        problems = []

        def replayed(target, r, m, seed, bandwidth=None, method="stratified"):
            net = replay_construct(tr, target, r, m, seed, bandwidth, method)
            traced_audit(tr, net, problems, "construct", check=True)
            return net

        saved = {name: getattr(cli, name) for name in (*CLI_LAYERS, "construct")}
        try:
            for name, layer in CLI_LAYERS.items():
                setattr(cli, name, tr.wrap(layer, saved[name]))
            cli.construct = replayed
            result = self._pass(tr)
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)
        for name, data in reference.items():
            if result.output[name] != data:
                problems.append(f"traced {name} differs from the untraced pass")
        result.problems.extend(problems)
        return result


# ---------------------------------------------------------------------------

WIDTHS = (64, 128, 256, 512, 1024, 2048, 4096)
TINY_WIDTHS = (16, 32, 64, 128)


def make(name, seed, tiny, workdir, clock=time.perf_counter):
    """The named workload at full size, or at the self-test's tiny size;
    ``clock`` times per-operation latencies."""
    if name == "sweep-d1":
        return Sweep(1, 3.2, 16, 11, 0.75, TINY_WIDTHS if tiny else WIDTHS, 2,
                     129 if tiny else 4096, seed)
    if name == "sweep-d2":
        return Sweep(2, 4.2, 8, 7, 0.5, TINY_WIDTHS if tiny else WIDTHS, 2,
                     17 if tiny else 129, seed)
    if name == "mc-repeat":
        return MCRepeat(128, 40 if tiny else 200, seed, clock)
    if name == "cli-tools":
        return CliTools(64 if tiny else 1024, 2 if tiny else 3, (2, 4, 8, 16), 64 if tiny else None,
                        workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-d1", "sweep-d2", "mc-repeat", "cli-tools")
#: Workloads made of many small NumPy calls (a generator set-up per stratum),
#: whose host-speed probe includes such calls; see worker.probe_kernel_s.
SMALL_NUMPY_CALLS = ("mc-repeat",)


def median(xs):
    return statistics.median(xs) if xs else 0.0

"""Benchmark worker: one workload in one process.

Started by ``run.py`` with BLAS/OpenMP threads already capped.  It imports the
package from the checkout's ``src``, sets the workload up, times passes of its
fixed work for the requested seconds and prints one JSON line with the raw
results.  ``--setup-only`` stops after set-up; ``--trace 1`` adds the
layer-by-layer replay.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import relu_jackson  # noqa: E402

if Path(relu_jackson.__file__).resolve().parent != ROOT / "src" / "relu_jackson":
    raise SystemExit(f"imported relu_jackson from {relu_jackson.__file__}, not from the checkout")

import workloads  # noqa: E402
from tracing import NoTrace, Tracer  # noqa: E402

MIN_PASSES = 2  # the determinism check compares every pass with the first

#: Every PROBE_INTERVAL_S seconds of a timed pass a signal handler times a
#: fixed probe kernel.  End-to-end times are reported at the reference host
#: speed: divided by the median probe time over its REFERENCE_PROBE_MS (the
#: probe's time on a 2-core x86-64 KVM guest, Python 3.11, NumPy 2.4, idle
#: neighbours).  On a shared host this removes most of the drift between
#: runs, since the probes run while the pass runs; raw seconds are printed
#: beside them.  The probe never calls the package, so a change to the
#: package cannot move it.
PROBE_INTERVAL_S = 0.025
MIN_PROBES = 8
#: Keyed by whether the probe adds small NumPy calls to its interpreter loop.
REFERENCE_PROBE_MS = {False: 0.19, True: 0.32}
_PROBE_ARRAY = np.linspace(0.0, 1.0, 16)


def probe_kernel_s(numpy_calls: bool) -> float:
    """Seconds for a fixed interpreter loop, followed with ``numpy_calls`` by
    a few random-generator set-ups and tiny array operations: the pattern of
    a workload made of many small NumPy calls, which host contention slows
    more than it slows the loop alone."""
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x += i * i
    if numpy_calls:
        for i in range(6):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(7, i)))
            np.searchsorted(np.cumsum(_PROBE_ARRAY), rng.random(3))
    return time.perf_counter() - t0


class HostSpeed:
    """Host-speed samples; ``clock`` excludes the time the probes took."""

    def __init__(self, numpy_calls: bool):
        self.numpy_calls = numpy_calls
        self.samples = []
        self.spent = 0.0

    def _probe(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        self.samples.append(probe_kernel_s(self.numpy_calls))
        self.spent += time.perf_counter() - t0

    def burst(self, n):
        for _ in range(n):
            self._probe()

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, since: int) -> float:
        """Median probe time from sample ``since`` on (at least the last
        MIN_PROBES samples) over the reference."""
        window = self.samples[since:]
        if len(window) < MIN_PROBES:
            window = self.samples[-MIN_PROBES:]
        return statistics.median(window) * 1e3 / REFERENCE_PROBE_MS[self.numpy_calls]


#: Per-layer metric -> span name whose busy time it reports.
BUSY_SPANS = {
    "sampler.strata.busy_ms": "sampler.strata",
    "sampler.sample.busy_ms": "sampler.sample",
    "network.sup_error.busy_ms": "network.sup_error",
    "network.evaluate.busy_ms": "network.evaluate",
    "targets.grid_values.busy_ms": "targets.grid_values",
    "jackson.apply.busy_ms": "jackson.apply",
    "spectral.variation.busy_ms": "spectral.variation",
    "sampler.density.busy_ms": "sampler.density",
    "sampler.affine.busy_ms": "sampler.affine",
    "spectral.levels.busy_ms": "spectral.levels",
    "targets.holder_norm.busy_ms": "targets.holder_norm",
    "targets.io.busy_ms": "targets.io",
    "network.csv.dumps_ms": "network.csv.dumps",
    "network.csv.loads_ms": "network.csv.loads",
    "network.audit.busy_ms": "network.audit",
    "harness.busy_ms": "harness",
}
#: Per-layer metric -> number of spans it counts.
CALL_SPANS = {
    "sampler.sample.calls": "sampler.sample",
    "targets.grid_values.calls": "targets.grid_values",
}
#: Per-layer metrics that are counts recorded at a layer boundary.
COUNTS = (
    "sampler.strata.count",
    "sampler.strata.pieces",
    "sampler.sample.draws",
    "network.evaluate.point_units",
    "network.evaluate.bytes_computed",
    "network.csv.bytes",
)


def calibrate_ms() -> float:
    """Median of three timings of a fixed NumPy-and-interpreter kernel: a
    host-speed fact recorded at the start and end of each run."""
    a = np.random.default_rng(0).random((256, 256))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(8):
            float(np.exp(-np.abs(np.einsum("ij,kj->ik", a, a[:64]))).sum())
        x = 0
        for i in range(100_000):
            x += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[1]


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


class Run:
    """Accumulates attempted and failed operations and the problems behind them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def account(self, result, first):
        problems = list(result.problems)
        if first is not None and not same(result.output, first):
            problems.append("output differs from the first pass with the same seed")
        self.attempted += result.ops
        self.failed += min(result.ops, len(problems))
        self.problems.extend(problems)

    def crash(self, where):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{where} raised: {traceback.format_exc(limit=3)}")


def quantile_report(samples_ms):
    """Median and the highest of p99/p90 with at least ten samples beyond it."""
    xs = sorted(samples_ms)
    n = len(xs)
    out = {"n": n, "p50": float(np.percentile(xs, 50))} if n else {"n": 0}
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(xs, p))
            break
    return out


def layer_metrics(tr, phases, facts, untraced_s, traced_s):
    """Per-layer metrics: set-up plus the median over traced passes."""
    busy = {p: tr.busy(p) for p in ["setup", *phases]}
    calls = {p: tr.calls(p) for p in ["setup", *phases]}
    counts = {p: tr.phase_counts(p) for p in ["setup", *phases]}

    def total(per_phase):
        return per_phase("setup") + workloads.median([per_phase(p) for p in phases])

    out = {}
    for metric, span in BUSY_SPANS.items():
        out[metric] = (total(lambda p: busy[p].get(span, 0.0) * 1e3), "ms")
    for metric, span in CALL_SPANS.items():
        out[metric] = (total(lambda p: calls[p].get(span, 0)), "count")
    for metric in COUNTS:
        unit = "B" if "bytes" in metric else "count"
        out[metric] = (total(lambda p: counts[p].get(metric, 0.0)), unit)
    units = total(lambda p: counts[p].get("units", 0.0))
    requested = total(lambda p: counts[p].get("m_requested", 0.0))
    out["sampler.width_ratio"] = (units / requested if requested else 0.0, "1")
    out["cli.self_ms"] = (total(lambda p: tr.self_time(p, "cli") * 1e3), "ms")
    out["harness.slope"] = (facts.get("harness.slope") or 0.0, "1")
    out["trace.overhead_s"] = (workloads.median(traced_s) - untraced_s, "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="launcher's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args()

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    tr = Tracer() if args.trace else NoTrace()
    host = HostSpeed(numpy_calls=args.workload in workloads.SMALL_NUMPY_CALLS)
    wl = workloads.make(args.workload, args.seed, args.tiny, str(workdir), host.clock)
    try:
        wl.setup(tr)
        setup_s = time.monotonic() - args.spawned_at
        host.burst(4 * MIN_PROBES)
        setup = {"setup_s": setup_s / host.slowdown(0), "raw_setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = measure(args, wl, tr, host)
        result.update(setup)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            tr.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, tr, host):
    run = Run()
    calib_start = calibrate_ms()
    deadline = time.perf_counter() + args.seconds
    untraced_s, normalized_s, facts, first = [], [], {}, None
    draw_ms = []
    # A traced run times one untraced pass as the overhead baseline and the
    # reference the replay must reproduce.
    host.start()
    while not untraced_s or (not args.trace and (len(untraced_s) < MIN_PASSES or time.perf_counter() < deadline)):
        since = len(host.samples)
        t0 = host.clock()
        try:
            res = wl.run()
        except Exception:
            run.crash("untraced pass")
            break
        untraced_s.append(host.clock() - t0)
        normalized_s.append(untraced_s[-1] / host.slowdown(since))
        run.account(res, first)
        first = res.output if first is None else first
        draw_ms += res.facts.get("draw_ms", [])
        facts = res.facts
    host.stop()

    traced_s, phases = [], []
    if args.trace and first is not None:
        while len(phases) < MIN_PASSES or time.perf_counter() < deadline:
            tr.phase = f"pass-{len(phases) + 1}"
            phases.append(tr.phase)
            t0 = time.perf_counter()
            try:
                res = wl.run_traced(tr, first)
            except Exception:
                run.crash("traced pass")
                break
            traced_s.append(time.perf_counter() - t0 - tr.check_seconds(tr.phase))
            run.account(res, first)
            facts = res.facts
        for p in phases[1:]:
            if tr.phase_counts(p) != tr.phase_counts(phases[0]) or tr.calls(p) != tr.calls(phases[0]):
                run.failed += 1
                run.problems.append(f"counts of {p} differ from {phases[0]}")
    calib_end = calibrate_ms()

    out = {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "wall_s": workloads.median(normalized_s),
        "raw_wall_s": workloads.median(untraced_s),
        "passes_s": untraced_s,
        "normalized_passes_s": normalized_s,
        "traced_passes_s": traced_s,
        "facts": {
            "workload": args.workload,
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_version(),
            "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "calib_start_ms": calib_start,
            "calib_end_ms": calib_end,
            "probe_median_ms": statistics.median(host.samples) * 1e3,
            "probes": len(host.samples),
        },
    }
    if draw_ms:
        out["draw_ms"] = quantile_report(draw_ms)
    for key in ("audit_unavailable", "units", "cells"):
        if key in facts:
            out["facts"][key] = facts[key]
    if args.trace and phases:
        out["layers"] = layer_metrics(tr, phases, facts, untraced_s[0], traced_s)
    return out


if __name__ == "__main__":
    sys.exit(main())

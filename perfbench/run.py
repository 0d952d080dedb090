"""Benchmark of the relu_jackson pipeline: rate sweeps, the Monte Carlo repeat
loop and the CLI tools.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: sweep-d1, sweep-d2, mc-repeat, cli-tools (see workloads.py).  The
launcher caps BLAS/OpenMP threads at the processor count, then runs the
workload's set-up alone in ``SETUP_RUNS - 1`` fresh worker processes and
once more in the worker that times the passes; ``setup_s`` is the median.
With ``--trace 0`` the last line of output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced replay.  Both print every
metric as ``name value unit`` lines first, with the machine facts and counts.
End-to-end times are at a reference host speed, measured by probes that run
during the timed passes (see worker.py); raw seconds are printed as facts.
The launcher imports nothing from NumPy or the package itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
NAMES = ("sweep-d1", "sweep-d2", "mc-repeat", "cli-tools")  # workloads.NAMES; not imported, see above
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
DEADLINE_S = 170.0  # every process ends before the 180 s a run may take


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, cap))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    return env


def spawn(args, extra, timeout) -> dict:
    """Run one worker to completion and return its JSON line."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *(["--tiny"] if args.tiny else []), *extra,
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    t0 = time.monotonic()
    setups = [spawn(args, ["--setup-only"], 60.0) for _ in range(SETUP_RUNS - 1)]
    main = spawn(args, [], DEADLINE_S - (time.monotonic() - t0))
    setups.append(main)
    main["setup_samples_s"] = [s["setup_s"] for s in setups]
    main["raw_setup_samples_s"] = [s["raw_setup_s"] for s in setups]
    return main


def end_to_end(res) -> dict:
    return {
        "wall_s": {"value": res["wall_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(res["setup_samples_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def report(args, res) -> dict:
    """Print every metric, count and fact as lines; return the metrics the
    final line carries."""
    e2e = end_to_end(res)
    failed_ratio = res["failed"] / max(1, res["attempted"])
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in res["facts"].items():
        if key != "cells":
            print(f"fact {key} {json.dumps(value)}")
    for row in res["facts"].get("cells", []):
        m, n, strata, units = row
        print(f"cell m={m} N={n} strata={strata} units={units} width_ratio={units / m:.4f}")
    print(f"fact passes_s {json.dumps(res['passes_s'])}")
    print(f"fact normalized_passes_s {json.dumps(res['normalized_passes_s'])}")
    if res["traced_passes_s"]:
        print(f"fact traced_passes_s {json.dumps(res['traced_passes_s'])}")
    print(f"fact setup_samples_s {json.dumps(res['setup_samples_s'])}")
    print(f"fact raw_setup_samples_s {json.dumps(res['raw_setup_samples_s'])}")
    print(f"fact raw_wall_s {res['raw_wall_s']!r}")
    for name, m in e2e.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric failed_ratio {failed_ratio!r} 1 ({res['failed']} of {res['attempted']} operations)")
    if "draw_ms" in res:
        q = res["draw_ms"]
        for key in ("p50", "p90", "p99"):
            if key in q:
                print(f"metric draw_ms.{key} {q[key]!r} ms (n={q['n']} seeds)")
    layers = res.get("layers", {})
    for name, m in layers.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for problem in res["problems"]:
        print(f"problem {problem}")
    return layers if args.trace else e2e


def self_test() -> int:
    """Tiny pass of every workload, untraced and twice traced with the same
    seed: every check runs, every metric named in BENCHMARK.json is printed,
    nothing fails and every count repeats across processes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for name in NAMES:
        counts = []
        for trace in (0, 1, 1):
            args = argparse.Namespace(workload=name, seed=0, seconds=1, trace=trace, tiny=True)
            res = run_workload(args)
            metrics = report(args, res)
            missing = [m for m in expected[trace] if m not in metrics]
            good = not missing and res["failed"] == 0 and res["attempted"] > 0
            if trace:
                counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "B", "1")})
            print(f"SELFTEST {name} trace={trace}: {'ok' if good else 'FAIL'} {missing or ''}")
            ok = ok and good
        if counts[0] != counts[1]:
            print(f"SELFTEST {name}: FAIL counts differ between processes: {counts}")
            ok = False
    print(f"SELFTEST {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0, help="derives target phases and sampler seeds; 0 = test corpus")
    ap.add_argument("--seconds", type=int, default=10, help="seconds of timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="tiny pass of every workload and every check")
    args = ap.parse_args()
    if not (ROOT / "src" / "relu_jackson" / "__init__.py").is_file():
        print(f"perfbench: no relu_jackson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        ap.error("--workload is required, --seed must be >= 0 and --seconds >= 1")
    args.tiny = False
    res = run_workload(args)
    metrics = report(args, res)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: kernel, spectral, construct, jackson-rate, network-rate,
paired-mc, verify-identity.  Each handler returns the CSV text it makes,
which starts with a ``# schema=<name>@<version>`` line, and ``main`` writes
it once: to the file ``--out`` names (``--dump`` for ``kernel``), otherwise
to stdout.  ``construct`` returns nothing, as it writes its network file
itself.

``--config <path>`` names a file of ``key = value`` lines, and a config line
is the flag it names: each line becomes ``--key=value`` right after the
subcommand name, before the flags typed on the command line, and then one
argparse pass parses everything.  argparse therefore converts the types,
applies the defaults, enforces the required flags and rejects unknown keys,
and since argparse keeps the last occurrence of a flag, explicit flags win.
Keys name a long flag exactly (``-`` or ``_`` inside a name), because flags
are never abbreviated.

The parsers are built on the first call of ``main`` and reused by every
later call in the process; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .harness import RateExperiment, load_config, run_jackson_rate, run_network_rate, run_paired_mc
from .jackson import build_kernel, multiplier_from_kernel
from .network import save_network
from .sampler import construct, identity_residual
from .spectral import build_levels
from .targets import TORUS, _fmt, default_grid, holder_norm, load_target


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_kernel(args) -> str:
    kernel = build_kernel(args.N, args.r)
    mult = multiplier_from_kernel(kernel)
    lines = ["# schema=kernel@1", "k,a_tilde,a_multiplier"]
    for k in range(-args.N, args.N + 1):
        lines.append(f"{k},{_fmt(kernel.coefficient(k))},{_fmt(mult.axis_coefficient(k))}")
    return "\n".join(lines) + "\n"


def _cmd_spectral(args) -> str:
    target = load_target(args.target)
    grid = default_grid(target.d, TORUS, args.grid)
    decomp = build_levels(target, args.r, args.L, grid, holder_norm(target, args.r, grid))
    lines = ["# schema=spectral@1", "level,sup_norm,shell_sum,parseval_residual,sup_bound_lhs,sup_bound_rhs"]
    for level in range(args.L + 1):
        lines.append(
            f"{level},{_fmt(decomp.sup_norms[level])},{_fmt(decomp.shells[level])},"
            f"{_fmt(decomp.parseval_residuals[level])},{_fmt(decomp.sup_norms[level])},{_fmt(decomp.sup_bounds[level])}"
        )
    return "\n".join(lines) + "\n"


def _cmd_construct(args) -> None:
    target = load_target(args.target)
    method = "plain" if args.plain else "stratified"
    net = construct(target, args.r, args.m, args.seed, bandwidth=args.N, method=method)
    save_network(net, args.out)


def _cmd_rate(args) -> str:
    # built per call, so a runner replaced on this module (a tracing wrapper) is the one called
    run = {"jackson-rate": run_jackson_rate, "network-rate": run_network_rate, "paired-mc": run_paired_mc}
    flag = vars(args).get  # each of the three subcommands has only some of the flags
    exp = RateExperiment(
        mode=args.command, target=load_target(args.target), r=args.r, sweep=flag("sweep", ()), seeds=flag("seed", ()),
        grid_points=args.grid, bandwidth=flag("N"), bandwidth_exponent=flag("N_exponent"), m=flag("m"),
    )
    return run[args.command](exp)


def _cmd_verify_identity(args) -> str:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not (math.isfinite(args.cmax) and args.cmax > 0):
        raise ValueError(f"--cmax must be finite and positive, got {args.cmax}")
    rng = np.random.default_rng(args.seed)
    lines = ["# schema=identity@1", "sample,z,c,residual"]
    worst = 0.0
    for i in range(args.samples):
        c = args.cmax * (1.0 - rng.random())
        z = c * (2.0 * rng.random() - 1.0)
        res = identity_residual(z, c, args.panels)
        worst = max(worst, res)
        lines.append(f"{i},{_fmt(z)},{_fmt(c)},{_fmt(res)}")
    lines.append(f"# max_residual={_fmt(worst)}")
    return "\n".join(lines) + "\n"


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``--config`` pre-parser and the main parser, built on the first call and then reused.

    Not built at import: importing the module stays cheap.  Each subparser
    holds its handler, and the handlers look up what they call on this module
    when they run.
    """
    config = argparse.ArgumentParser(prog="relu-jackson", add_help=False, allow_abbrev=False)
    config.add_argument("--config", help="key = value file; each line is the flag it names, typed flags win")
    parser = argparse.ArgumentParser(
        prog="relu-jackson",
        description="Constructive shallow-ReLU approximation of periodic targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, parents=[config], allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    def common(p, *, grid=True, out_required=False):
        p.add_argument("--target", required=True, help="path to a target description file")
        p.add_argument("--r", type=int, required=True, help="smoothing / weight order")
        if grid:
            p.add_argument("--grid", type=int, help="grid points per axis")
        p.add_argument("--out", required=out_required, help="output CSV path (default: stdout)")

    p = command("kernel", _cmd_kernel, "emit kernel and multiplier coefficients")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--dump", dest="out", metavar="DUMP", help="output CSV path (default: stdout)")

    p = command("spectral", _cmd_spectral, "per-level norms, shell sums, bound sides")
    common(p)
    p.add_argument("--L", type=int, required=True, help="highest dyadic level")

    p = command("construct", _cmd_construct, "build one network and write it as CSV")
    common(p, grid=False, out_required=True)
    p.add_argument("--m", type=int, required=True, help="requested width")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--N", type=int, help="bandwidth override")
    p.add_argument("--plain", action="store_true", help="plain Monte Carlo instead of stratified")

    p = command("jackson-rate", _cmd_rate, "smoothing error sweep over bandwidths")
    common(p)
    p.add_argument("--sweep", type=_int_list, required=True, help="comma-separated bandwidths")

    p = command("network-rate", _cmd_rate, "network error sweep over widths")
    common(p)
    p.add_argument("--sweep", type=_int_list, required=True, help="comma-separated widths")
    p.add_argument("--seed", type=_int_list, required=True, help="comma-separated seeds")
    p.add_argument("--N", type=int, help="bandwidth override")
    p.add_argument(
        "--N-exponent",
        dest="N_exponent",
        type=float,
        help="bandwidth schedule N = floor(m**exponent) instead of the selection rule",
    )

    p = command("paired-mc", _cmd_rate, "stratified vs plain at one width, per seed")
    common(p)
    p.add_argument("--m", type=int, required=True, help="unit budget for both arms")
    p.add_argument("--seed", type=_int_list, required=True, help="comma-separated seeds")
    p.add_argument("--N", type=int, help="bandwidth override")

    p = command("verify-identity", _cmd_verify_identity, "quadrature sweep of the ridge identity")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--cmax", type=float, required=True)
    p.add_argument("--panels", type=int, default=2**14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return config, parser


def main(argv=None) -> int:
    config, parser = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    path = config.parse_known_args(argv)[0].config
    if path:
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in load_config(path).items()]
        argv = argv[:1] + flags + argv[1:]
    args = parser.parse_args(argv)
    text = args.func(args)
    if text is not None:
        _emit(text, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

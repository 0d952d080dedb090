"""Experiment runner: rate sweeps, log-log slope fits, paired comparisons.

Every runner renders a CSV string with fixed formatting (17 significant
digits) and fixed row order, so identical experiment specs produce identical
bytes regardless of how the cells were computed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .jackson import jackson_sup_error
from .network import MIN_WIDTH, grid_error
from .sampler import prepare, realize
from .targets import CUBE, TORUS, FourierTarget, _fmt, _require_int, default_grid

#: Errors at or below this level are treated as exactly reproduced and are
#: excluded from slope fits (they are rounding noise, not signal).
ERROR_FLOOR = 1e-13

#: Slack added to theoretical exponents when judging measured slopes; absorbs
#: logarithmic factors and preasymptotic effects at desk scale.
SLOPE_TOLERANCE = 0.3


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float


def fit_slope(points) -> SlopeFit:
    """Least-squares line through (log scale, log error).

    ``residual`` is the largest absolute deviation in log space.  Rejects
    nonpositive scales or errors.
    """
    pts = [(float(s), float(e)) for s, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if any(s <= 0 or e <= 0 for s, e in pts):
        raise ValueError("scales and errors must be positive")
    xs = [math.log(s) for s, _ in pts]
    ys = [math.log(e) for _, e in pts]
    n = len(pts)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("scales must not be all equal")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return SlopeFit(slope=slope, intercept=intercept, residual=residual)


def theoretical_rate_exponent(d: int, r: int) -> float:
    """Predicted log-log slope of the width-m network error, by regime."""
    if r > d / 2.0 + 2.0:
        return -(0.5 + 1.0 / d)
    return -(r / d) * (d + 2.0) / (d + 4.0)


@dataclass(frozen=True)
class RateExperiment:
    """Specification of one sweep; see the runner functions for semantics.

    mode: "jackson-rate" (sweep over bandwidths), "network-rate" (sweep over
    widths, median over seeds) or "paired-mc" (stratified vs plain at one
    width, per seed).  A field the mode never reads must be left unset.
    """

    mode: str
    target: FourierTarget
    r: int
    sweep: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()
    grid_points: int | None = None
    bandwidth: int | None = None
    bandwidth_exponent: float | None = None
    m: int | None = None

    def __post_init__(self):
        if self.mode not in ("jackson-rate", "network-rate", "paired-mc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        unread = {"jackson-rate": ("seeds", "bandwidth", "bandwidth_exponent", "m"), "network-rate": ("m",),
                  "paired-mc": ("sweep",)}
        for name in unread[self.mode]:
            if getattr(self, name) not in (None, ()):
                raise ValueError(f"{self.mode} never reads {name}, got {getattr(self, name)!r}")
        if self.bandwidth is not None and self.bandwidth_exponent is not None:
            raise ValueError("give a fixed bandwidth or an exponent schedule, not both")
        exponent = self.bandwidth_exponent
        if exponent is not None and not (math.isfinite(exponent) and exponent > 0):
            # with e <= 0, floor(m**e) <= 1 at every width: a sweep at N = 1 with no rate in it
            raise ValueError(f"bandwidth_exponent must be finite and positive, got {exponent}")
        if self.mode in ("jackson-rate", "network-rate"):
            if len(self.sweep) < 4:
                raise ValueError("need at least 4 sweep points for a slope fit")
            if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise ValueError("sweep values must be strictly increasing")
        if self.mode in ("network-rate", "paired-mc") and not self.seeds:
            raise ValueError("stochastic modes need at least one seed")
        for seed in self.seeds:
            _require_int("seed", seed, 0)
        repeated = [seed for i, seed in enumerate(self.seeds) if seed in self.seeds[:i]]
        if repeated:
            raise ValueError(f"seed {repeated[0]} is given more than once")
        if self.mode == "paired-mc" and self.m is None:
            raise ValueError("paired-mc needs a width m")
        # each count is refused here, by name, before a grid is computed or m**exponent taken
        if self.mode == "jackson-rate":
            floors = [("sweep bandwidth", n, 1) for n in self.sweep]
        elif self.mode == "network-rate":
            floors = [("sweep width", m, MIN_WIDTH) for m in self.sweep]
        else:
            floors = [("m", self.m, MIN_WIDTH)]
        floors.append(("r", self.r, 1))
        if self.grid_points is not None:
            floors.append(("grid_points", self.grid_points, 2))
        if self.bandwidth is not None:
            floors.append(("bandwidth", self.bandwidth, 1))
        for name, value, least in floors:
            _require_int(name, value, least)
        if exponent is not None:  # jackson-rate never has one, and paired-mc has no sweep
            for m in self.sweep or (self.m,):
                try:
                    n = math.floor(m**exponent)
                except OverflowError:
                    raise ValueError(f"bandwidth_exponent={exponent} overflows m**exponent at m={m}") from None
            if n < 2:
                # m is the largest width: the sweep runs at N = 1 everywhere, with zero sampled
                # mass, one error down the sweep and a slope of 0
                raise ValueError(
                    f"bandwidth_exponent={exponent} schedules N = floor(m**exponent) = 1 up to the largest width "
                    f"m={m}: a sweep with no rate in it"
                )


def _fit_or_none(points) -> SlopeFit | None:
    usable = [(s, e) for s, e in points if e > ERROR_FLOOR]
    if len(usable) < 2:
        return None
    return fit_slope(usable)


def _slope_field(points) -> str:
    fit = _fit_or_none(points)
    return _fmt(fit.slope) if fit is not None else ""


def run_jackson_rate(exp: RateExperiment) -> str:
    """CSV rows (N, sup_error, slope_so_far) plus a slope trailer."""
    if exp.mode != "jackson-rate":
        raise ValueError("experiment mode must be jackson-rate")
    grid = default_grid(exp.target.d, TORUS, exp.grid_points)
    lines = ["# schema=jackson_rate@1", "N,sup_error,slope_so_far"]
    points = []
    for n in exp.sweep:
        err = jackson_sup_error(exp.target, n, exp.r, grid)
        points.append((n, err))
        lines.append(f"{n},{_fmt(err)},{_slope_field(points)}")
    fit = _fit_or_none(points)
    lines.append(f"# slope={_fmt(fit.slope) if fit is not None else 'undefined'}")
    lines.append(f"# theory_slope={_fmt(-exp.r)} tolerance={_fmt(SLOPE_TOLERANCE)}")
    lines.append(f"# error_floor={_fmt(ERROR_FLOOR)}")
    return "\n".join(lines) + "\n"


def _selected_bandwidth(exp: RateExperiment, m: int) -> int | None:
    """The fixed or scheduled bandwidth; None leaves the selection rule to ``prepare``."""
    if exp.bandwidth_exponent is not None:
        return math.floor(m**exp.bandwidth_exponent)  # RateExperiment refused N < 1 and overflow
    return exp.bandwidth


def run_network_rate(exp: RateExperiment) -> str:
    """CSV rows (m, N_selected, v, median_error, per-seed errors) plus trailer.

    The bandwidth per width comes from the selection rule unless the
    experiment fixes one (``bandwidth``) or supplies an exponent schedule
    ``N = floor(m**bandwidth_exponent)``.  Each width is prepared once and
    realized at every seed.
    """
    if exp.mode != "network-rate":
        raise ValueError("experiment mode must be network-rate")
    error = grid_error(exp.target, default_grid(exp.target.d, CUBE, exp.grid_points))
    header = ["m", "N_selected", "v", "median_error"] + [f"error_seed{s}" for s in exp.seeds]
    lines = ["# schema=network_rate@1", ",".join(header)]
    points = []
    for m in exp.sweep:
        prep = prepare(exp.target, exp.r, m, bandwidth=_selected_bandwidth(exp, m))
        errs = [error(realize(prep, seed)) for seed in exp.seeds]
        median = float(np.median(errs))
        points.append((m, median))
        fields = [str(m), str(prep.meta.bandwidth), _fmt(prep.meta.v), _fmt(median)] + [_fmt(e) for e in errs]
        lines.append(",".join(fields))
    fit = _fit_or_none(points)
    lines.append(f"# slope={_fmt(fit.slope) if fit is not None else 'undefined'}")
    lines.append(
        f"# theoretical_exponent={_fmt(theoretical_rate_exponent(exp.target.d, exp.r))} "
        f"tolerance={_fmt(SLOPE_TOLERANCE)}"
    )
    lines.append(f"# error_floor={_fmt(ERROR_FLOOR)}")
    return "\n".join(lines) + "\n"


def run_paired_mc(exp: RateExperiment) -> str:
    """CSV rows (seed, stratified_error, plain_error) with median trailer.

    Both arms share one preparation: the target, bandwidth, and the unit
    budget implied by the stratified plan, so rows are directly comparable
    per seed.
    """
    if exp.mode != "paired-mc":
        raise ValueError("experiment mode must be paired-mc")
    error = grid_error(exp.target, default_grid(exp.target.d, CUBE, exp.grid_points))
    lines = ["# schema=paired_mc@1", "seed,stratified_error,plain_error"]
    strat_errs, plain_errs = [], []
    prep = prepare(exp.target, exp.r, exp.m, bandwidth=_selected_bandwidth(exp, exp.m))
    for seed in exp.seeds:
        es = error(realize(prep, seed, "stratified"))
        ep = error(realize(prep, seed, "plain"))
        strat_errs.append(es)
        plain_errs.append(ep)
        lines.append(f"{seed},{_fmt(es)},{_fmt(ep)}")
    lines.append(
        f"# stratified_median={_fmt(float(np.median(strat_errs)))} "
        f"plain_median={_fmt(float(np.median(plain_errs)))}"
    )
    return "\n".join(lines) + "\n"


_COMMENT = re.compile(r"(?:^|\s)#")


def load_config(path) -> dict[str, str]:
    """Key-value experiment file: one `key = value` per line, each key once.

    `_` and `-` spell the same key, as they name the same flag, so
    `N_exponent` and `N-exponent` in one file are a repeated key.  A `#`
    that begins a line or follows whitespace starts a comment, so
    `out = a#b.csv` keeps its `#`.  A `config` key is refused: its line
    would become a second `--config` flag, and that file would never be read.
    """
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = key.replace("_", "-")
            if flag == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another ({line!r})")
            if flag in first_line:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeated (first on line {first_line[flag]})")
            first_line[flag] = lineno
            out[key] = value
    return out

"""Shallow ReLU network value type: evaluation, sup-norm error, parameter audit.

A network is a flat list of units ``beta * relu(alpha . x - bias)`` stored as
arrays, each tagged with its origin (Monte Carlo "sampled" unit or exact
"affine" unit).  Networks are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .targets import CUBE, EvaluationGrid, FourierTarget, _fmt, _parse_header, grid_values

ORIGIN_SAMPLED = "sampled"
ORIGIN_AFFINE = "affine"

_POINT_BLOCK = 4096
_UNIT_BLOCK = 2048

#: Ceiling on exact affine units: two for the linear part, one for the
#: constant, as ``affine_units`` builds them.
MAX_AFFINE_UNITS = 3


class Unit(NamedTuple):
    alpha: np.ndarray
    beta: float
    bias: float
    origin: str


@dataclass(frozen=True)
class Units:
    """Structure-of-arrays unit list; iteration yields ``Unit`` rows."""

    alphas: np.ndarray
    betas: np.ndarray
    biases: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        for arr in (self.alphas, self.betas, self.biases, self.origins):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.betas.shape[0]

    def __iter__(self) -> Iterator[Unit]:
        for i in range(len(self)):
            yield Unit(self.alphas[i], float(self.betas[i]), float(self.biases[i]), str(self.origins[i]))

    @classmethod
    def empty(cls, d: int) -> "Units":
        return cls(
            alphas=np.zeros((0, d)),
            betas=np.zeros(0),
            biases=np.zeros(0),
            origins=np.zeros(0, dtype="<U7"),
        )

    @classmethod
    def build(cls, d: int, rows) -> "Units":
        rows = list(rows)
        if not rows:
            return cls.empty(d)
        return cls(
            alphas=np.array([np.asarray(r[0], dtype=float) for r in rows]).reshape(len(rows), d),
            betas=np.array([float(r[1]) for r in rows]),
            biases=np.array([float(r[2]) for r in rows]),
            origins=np.array([str(r[3]) for r in rows], dtype="<U7"),
        )

    @classmethod
    def concat(cls, blocks) -> "Units":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("nothing to concatenate")
        return cls(
            alphas=np.concatenate([b.alphas for b in blocks]),
            betas=np.concatenate([b.betas for b in blocks]),
            biases=np.concatenate([b.biases for b in blocks]),
            origins=np.concatenate([b.origins for b in blocks]),
        )


@dataclass(frozen=True)
class NetworkMeta:
    """Construction metadata used by the audit and by serialization."""

    v: float
    bandwidth: int
    v2: float | None = None
    r: int | None = None
    seed: int | None = None
    m_requested: int | None = None
    m_prime: int | None = None
    strata_count: int | None = None
    sampled_count: int | None = None


@dataclass(frozen=True)
class ShallowNetwork:
    d: int
    units: Units
    meta: NetworkMeta | None = None

    @property
    def unit_count(self) -> int:
        return len(self.units)

    @classmethod
    def from_units(cls, d: int, rows, meta: NetworkMeta | None = None) -> "ShallowNetwork":
        return cls(d=d, units=Units.build(d, rows), meta=meta)


def evaluate(net: ShallowNetwork, x) -> float | np.ndarray:
    """Sum of beta * relu(alpha . x - bias) at one point (d,) or a batch (n, d).

    Two exact paths, chosen from the input sizes alone.  The points are
    grouped into lines that share their first d - 1 coordinates; with P
    points, L lines and U units the line path costs about
    ``(L*U + P) * log2(U)`` against ``P*U`` for the dense path, and the
    cheaper one runs.  Cube grids take the line path, a handful of points or
    scattered points in d >= 2 the dense one.

    - Dense: units are reduced in storage order through fixed-size blocks.
    - Lines: along a line the network is piecewise linear in the last
      coordinate t.  Per line, ``c = a_rest . x_rest - bias`` is summed
      coordinate by coordinate in index order; units split by the sign of
      their last weight are sorted stably by breakpoint, and each point adds
      the prefix sums of ``beta * a_last`` and ``beta * c`` over its active
      units, so its value is ``S_a * t + S_c``.  Units with a zero last
      weight add the constant ``beta * max(c, 0)``.

    Both orders are fixed, so results do not depend on the evaluation
    backend's threading; the two paths agree up to rounding.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != net.d:
        raise ValueError(f"points must have dimension {net.d}")
    out = None
    if _line_path_pays(net.unit_count, pts.shape[0], 1):  # one line is its cheapest case
        order, starts = _line_groups(pts)
        if _line_path_pays(net.unit_count, pts.shape[0], len(starts)):
            out = _evaluate_lines(net.units, pts, order, starts)
    if out is None:
        out = _evaluate_dense(net.units, pts)
    return float(out[0]) if single else out


def _line_path_pays(units: int, points: int, lines: int) -> bool:
    """Whether the line path's work, about (L*U + P) * log2(U), is below the dense P*U."""
    return units > 0 and (lines * units + points) * math.log2(max(units, 2)) < points * units


def _line_groups(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point order that groups equal first d - 1 coordinates, and each line's start in it."""
    if pts.shape[1] == 1:
        return np.arange(pts.shape[0]), np.zeros(min(pts.shape[0], 1), dtype=np.intp)
    rest = pts[:, :-1]
    order = np.lexsort(rest.T[::-1])
    rest = rest[order]
    new_line = np.any(rest[1:] != rest[:-1], axis=1)
    return order, np.flatnonzero(np.concatenate(([True], new_line)))


def _evaluate_dense(units: Units, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[0])
    for p0 in range(0, pts.shape[0], _POINT_BLOCK):
        block = pts[p0 : p0 + _POINT_BLOCK]
        acc = np.zeros(block.shape[0])
        for u0 in range(0, len(units), _UNIT_BLOCK):
            a = units.alphas[u0 : u0 + _UNIT_BLOCK]
            pre = np.einsum("pd,ud->pu", block, a) - units.biases[u0 : u0 + _UNIT_BLOCK]
            np.maximum(pre, 0.0, out=pre)
            acc += np.einsum("pu,u->p", pre, units.betas[u0 : u0 + _UNIT_BLOCK])
        out[p0 : p0 + _POINT_BLOCK] = acc
    return out


def _evaluate_lines(units: Units, pts: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    d = pts.shape[1]
    a_last = units.alphas[:, -1]
    flat = a_last == 0.0
    # active iff sign * t > kappa = -c / |a_last|, per sign group
    groups = []
    for sign, member in ((1.0, a_last > 0.0), (-1.0, a_last < 0.0)):
        idx = np.flatnonzero(member)
        groups.append((sign, idx, np.abs(a_last[idx]), units.betas[idx] * a_last[idx], units.betas[idx]))
    out = np.zeros(pts.shape[0])
    ends = np.append(starts[1:], pts.shape[0])
    for s, e in zip(starts.tolist(), ends.tolist()):
        rows = order[s:e]
        x_rest = pts[rows[0], :-1]
        c = np.zeros(len(units))
        for j in range(d - 1):
            c += units.alphas[:, j] * x_rest[j]
        c -= units.biases
        t = pts[rows, -1]
        slope = np.zeros(t.shape[0])
        offset = np.zeros(t.shape[0])
        for sign, idx, abs_a, beta_a, beta in groups:
            c_g = c[idx]
            kappa = -c_g / abs_a
            perm = np.argsort(kappa, kind="stable")
            k = np.searchsorted(kappa[perm], sign * t, side="left")
            slope += np.concatenate(([0.0], np.cumsum(beta_a[perm])))[k]
            offset += np.concatenate(([0.0], np.cumsum((beta * c_g)[perm])))[k]
        constant = float(np.sum(units.betas[flat] * np.maximum(c[flat], 0.0)))
        out[rows] = slope * t + (offset + constant)
    return out


def lipschitz_bound(net: ShallowNetwork) -> float:
    """Upper bound on the sup-norm gradient: sum |beta| * |alpha|_1."""
    if net.unit_count == 0:
        return 0.0
    terms = np.abs(net.units.betas) * np.abs(net.units.alphas).sum(axis=1)
    return math.fsum(float(t) for t in terms)


def target_lipschitz_bound(target: FourierTarget) -> float:
    """Upper bound on the target's gradient sup-norm: sum |c(k)| * |k|_1."""
    if target.mode_count == 0:
        return 0.0
    terms = np.abs(target.coeffs) * np.abs(target.modes).sum(axis=1)
    return math.fsum(float(t) for t in terms)


def sup_error(net: ShallowNetwork, target: FourierTarget, grid: EvaluationGrid) -> float:
    """Grid maximum of |target - network| on the cube."""
    if grid.domain != CUBE:
        raise ValueError("network error is measured on a cube grid")
    if grid.d != net.d or target.d != net.d:
        raise ValueError("dimension mismatch")
    tvals = grid_values(target, grid).ravel()
    nvals = evaluate(net, grid.points())
    return float(np.abs(tvals - nvals).max())


@dataclass(frozen=True)
class ErrorCertificate:
    """Grid maximum plus a Lipschitz fill-in term: a rigorous sup-norm bound."""

    grid_max: float
    lipschitz_target: float
    lipschitz_network: float
    bound: float


def certified_sup_error(net: ShallowNetwork, target: FourierTarget, grid: EvaluationGrid) -> ErrorCertificate:
    grid_max = sup_error(net, target, grid)
    lt = target_lipschitz_bound(target)
    ln = lipschitz_bound(net)
    bound = grid_max + (lt + ln) * grid.spacing * net.d / 2.0
    return ErrorCertificate(grid_max=grid_max, lipschitz_target=lt, lipschitz_network=ln, bound=bound)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditCheck:
    name: str
    observed: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]
    sampled_count: int
    affine_count: int
    within_budget: bool
    passed: bool

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


_ALPHA_TOL = 1e-12
_BIAS_TOL = 1e-12
_BETA_TOL = 1e-9  # relative


def audit(net: ShallowNetwork) -> AuditReport:
    """Re-verify the construction's parameter bounds on a finished network.

    Sampled units must satisfy |alpha|_1 <= 1, bias in [0, 1] and
    |beta| <= 8 pi^2 v2 / m; affine units are exempt from the beta bound but
    must keep |alpha|_1 <= 1, bias in [-1, 1] and number at most
    ``MAX_AFFINE_UNITS``.  The total-unit budget is reported via
    ``within_budget`` but does not fail the audit: dense spectra can make the
    sampled-unit count exceed the nominal 3 * ceil(m/4) reservation.
    """
    meta = net.meta
    if meta is None or meta.v2 is None or meta.m_requested is None:
        raise ValueError("audit requires construction metadata")
    sampled = net.units.origins == ORIGIN_SAMPLED
    affine = net.units.origins == ORIGIN_AFFINE
    checks = []

    def _max_or(x, default=0.0):
        return float(x.max()) if x.size else default

    def _min_or(x, default=0.0):
        return float(x.min()) if x.size else default

    alpha_norms = np.abs(net.units.alphas).sum(axis=1)
    beta_bound = 8.0 * math.pi**2 * meta.v2 / meta.m_requested
    checks.append(
        AuditCheck(
            "sampled_alpha_l1",
            _max_or(alpha_norms[sampled]),
            1.0,
            _max_or(alpha_norms[sampled]) <= 1.0 + _ALPHA_TOL,
        )
    )
    bias_lo = _min_or(net.units.biases[sampled])
    bias_hi = _max_or(net.units.biases[sampled])
    checks.append(AuditCheck("sampled_bias_low", bias_lo, 0.0, bias_lo >= -_BIAS_TOL))
    checks.append(AuditCheck("sampled_bias_high", bias_hi, 1.0, bias_hi <= 1.0 + _BIAS_TOL))
    beta_max = _max_or(np.abs(net.units.betas[sampled]))
    checks.append(
        AuditCheck(
            "sampled_beta",
            beta_max,
            beta_bound,
            beta_max <= beta_bound * (1.0 + _BETA_TOL) + 1e-300,
        )
    )
    checks.append(
        AuditCheck(
            "normalization_vs_variation",
            meta.v,
            2.0 * math.pi**2 * meta.v2,
            meta.v <= 2.0 * math.pi**2 * meta.v2 * (1.0 + _BETA_TOL) + 1e-300,
        )
    )
    if meta.m_prime is not None and meta.strata_count is not None:
        count_limit = meta.m_prime + meta.strata_count
        n_sampled = int(sampled.sum())
        checks.append(
            AuditCheck("sampled_count", float(n_sampled), float(count_limit), n_sampled <= count_limit)
        )
    checks.append(
        AuditCheck(
            "affine_alpha_l1",
            _max_or(alpha_norms[affine]),
            1.0,
            _max_or(alpha_norms[affine]) <= 1.0 + _ALPHA_TOL,
        )
    )
    ab_lo = _min_or(net.units.biases[affine])
    ab_hi = _max_or(net.units.biases[affine])
    checks.append(AuditCheck("affine_bias_low", ab_lo, -1.0, ab_lo >= -1.0 - _BIAS_TOL))
    checks.append(AuditCheck("affine_bias_high", ab_hi, 1.0, ab_hi <= 1.0 + _BIAS_TOL))
    n_affine = int(affine.sum())
    checks.append(
        AuditCheck("affine_count", float(n_affine), float(MAX_AFFINE_UNITS), n_affine <= MAX_AFFINE_UNITS)
    )
    within_budget = net.unit_count <= meta.m_requested
    return AuditReport(
        checks=tuple(checks),
        sampled_count=int(sampled.sum()),
        affine_count=n_affine,
        within_budget=within_budget,
        passed=all(c.passed for c in checks),
    )


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits; byte-exact round trips)
# ---------------------------------------------------------------------------

#: ``NetworkMeta`` fields that the network@2 header carries when they are
#: set, with their parsers; d, m, v and N are always present.
_META_FIELDS = {
    "v2": float,
    "r": int,
    "seed": int,
    "m_requested": int,
    "m_prime": int,
    "strata_count": int,
    "sampled_count": int,
}


def dumps_network(net: ShallowNetwork) -> str:
    meta = net.meta
    if meta is None:
        raise ValueError("serialization requires metadata (v and bandwidth)")
    header = [f"d={net.d}", f"m={net.unit_count}", f"v={_fmt(meta.v)}", f"N={meta.bandwidth}"]
    for name, parse in _META_FIELDS.items():
        value = getattr(meta, name)
        if value is not None:
            header.append(f"{name}={_fmt(value) if parse is float else value}")
    lines = [
        "# schema=network@2",
        "# " + " ".join(header),
        ",".join([f"alpha_{j+1}" for j in range(net.d)] + ["beta", "bias", "origin"]),
    ]
    for unit in net.units:
        fields = [_fmt(a) for a in unit.alpha] + [_fmt(unit.beta), _fmt(unit.bias), unit.origin]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def loads_network(text: str) -> ShallowNetwork:
    """Parse a network@2 CSV, or a network@1 CSV, whose header has only d, m, v and N."""
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] not in ("# schema=network@1", "# schema=network@2"):
        raise ValueError("not a network CSV")
    header = _parse_header(lines[1][2:], ("d", "m", "v", "N"), "network")
    d = int(header["d"])
    meta = NetworkMeta(
        v=float(header["v"]),
        bandwidth=int(header["N"]),
        **{name: parse(header[name]) for name, parse in _META_FIELDS.items() if name in header},
    )
    rows = []
    for ln in lines[3:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != d + 3:
            raise ValueError(f"bad unit row: {ln!r}")
        alpha = np.array([float(p) for p in parts[:d]])
        rows.append((alpha, float(parts[d]), float(parts[d + 1]), parts[d + 2]))
    net = ShallowNetwork.from_units(d, rows, meta=meta)
    if net.unit_count != int(header["m"]):
        raise ValueError("unit count does not match header")
    return net


def save_network(net: ShallowNetwork, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_network(net))


def load_network(path) -> ShallowNetwork:
    with open(path, "r") as fh:
        return loads_network(fh.read())

"""Shallow ReLU network value type: evaluation, sup-norm error, parameter audit.

A network is a flat list of units ``beta * relu(alpha . x - bias)`` stored as
arrays, each tagged with its origin (Monte Carlo "sampled" unit or exact
"affine" unit).  Networks are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import variation
from .targets import CUBE, EvaluationGrid, FourierTarget, _fmt, _parse_header, grid_values

ORIGIN_SAMPLED = "sampled"
ORIGIN_AFFINE = "affine"
_ORIGINS = (ORIGIN_SAMPLED, ORIGIN_AFFINE)

_POINT_BLOCK = 4096
_UNIT_BLOCK = 2048
_CELL_BLOCK = 32768  # lines x units per block of the line path

#: Ceiling on exact affine units: two for the linear part, one for the
#: constant, as ``affine_units`` builds them.
MAX_AFFINE_UNITS = 3


@dataclass(frozen=True)
class Units:
    """Structure-of-arrays unit list: row i of each array is unit i."""

    alphas: np.ndarray
    betas: np.ndarray
    biases: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        for arr in (self.alphas, self.betas, self.biases, self.origins):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.betas.shape[0]

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


def evaluate(net: ShallowNetwork, x) -> float | np.ndarray:
    """Sum of beta * relu(alpha . x - bias) at one point (d,) or a batch (n, d).

    Two exact paths, chosen from the input alone.  The points are grouped
    into lines that share their first d - 1 coordinates; with P points, L
    lines and U units the line path costs about ``(L*U + P) * log2(U)``
    against ``P*U`` for the dense path.  The line path runs when it is the
    cheaper one and the points form a tensor set: every line holds the same
    sorted values t of the last coordinate.  Cube grids, shuffled or not,
    take the line path; a handful of points, scattered points in d >= 2 and
    any other point set take the dense one.

    - Dense: units are reduced in storage order through fixed-size blocks.
    - Lines: along a line the network is piecewise linear in the last
      coordinate t.  All lines are evaluated together, in blocks of lines,
      with no sort: ``c = a_rest . x_rest - bias`` is summed coordinate by
      coordinate in index order, each unit's breakpoint is placed in its
      bin among the shared t by one ``searchsorted``, and ``beta * a_last``
      and ``beta * c`` are summed into the bins by ``bincount``, in unit
      storage order.  A cumulative sum along t (forward for a positive last
      weight, from the end for a negative one) then gives each point the
      sums ``S_a`` and ``S_c`` over its active units, and its value is
      ``S_a * t + S_c``.  Units with a zero last weight add the constant
      ``beta * max(c, 0)``.

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
            t = _shared_line_axis(pts, order, starts)
            if t is not None:
                out = np.empty(pts.shape[0])
                out[order] = _evaluate_lines(net.units, pts[order[starts], :-1], t).ravel()
    if out is None:
        out = _evaluate_dense(net.units, pts)
    return float(out[0]) if single else out


def _line_path_pays(units: int, points: int, lines: int) -> bool:
    """Whether the line path's work, about (L*U + P) * log2(U), is below the dense P*U."""
    return units > 0 and (lines * units + points) * math.log2(max(units, 2)) < points * units


def _line_groups(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point order by all coordinates, last fastest, and each line's start in it."""
    order = np.lexsort(pts.T[::-1])
    rest = pts[order, :-1]
    new_line = np.any(rest[1:] != rest[:-1], axis=1)
    return order, np.flatnonzero(np.concatenate(([True], new_line)))


def _shared_line_axis(pts: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray | None:
    """The sorted t every line holds, or None when the points are not a tensor set."""
    lines = len(starts)
    length = pts.shape[0] // lines
    if length * lines != pts.shape[0] or np.any(np.diff(starts) != length):
        return None
    t = pts[order, -1].reshape(lines, length)
    return t[0] if np.all(t == t[0]) else None


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


def _evaluate_lines(units: Units, x_rest: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values (lines, len(t)) on the lines through x_rest (lines, d - 1), at the sorted t."""
    a_last = units.alphas[:, -1]
    pos, neg, flat = (np.flatnonzero(m) for m in (a_last > 0.0, a_last < 0.0, a_last == 0.0))
    # storage order within each group, so bincount adds units in that order
    perm = np.concatenate((pos, neg, flat))
    alphas, betas, biases = units.alphas[perm], units.betas[perm], units.biases[perm]
    a, beta_a = alphas[:, -1], betas * alphas[:, -1]
    n_pos, n_neg = len(pos), len(neg)
    size = len(t)
    bins = size + 1
    out = np.empty((x_rest.shape[0], size))
    step = max(1, _CELL_BLOCK // len(perm))
    for l0 in range(0, x_rest.shape[0], step):
        xr = x_rest[l0 : l0 + step]
        n = xr.shape[0]
        c = np.zeros((n, len(perm)))
        for j in range(xr.shape[1]):
            c += xr[:, j : j + 1] * alphas[:, j]
        c -= biases
        base = (np.arange(n) * bins)[:, None]
        sums = []
        # a_last > 0: active for t > tau; bin k = #(t <= tau), active at points k..
        # a_last < 0: active for t < tau; bin k = #(t < tau), active at points ..k-1
        for lo, hi, side in ((0, n_pos, "right"), (n_pos, n_pos + n_neg, "left")):
            c_g = c[:, lo:hi]
            k = np.searchsorted(t, -c_g / a[lo:hi], side=side)
            k += base
            k = k.ravel()
            s_a = np.bincount(k, np.broadcast_to(beta_a[lo:hi], c_g.shape).ravel(), n * bins)
            s_c = np.bincount(k, (betas[lo:hi] * c_g).ravel(), n * bins)
            sums.append((s_a.reshape(n, bins), s_c.reshape(n, bins)))
        (pa, pc), (na, nc) = sums
        slope = np.cumsum(pa, axis=1)[:, :size] + np.cumsum(na[:, ::-1], axis=1)[:, -2::-1]
        offset = np.cumsum(pc, axis=1)[:, :size] + np.cumsum(nc[:, ::-1], axis=1)[:, -2::-1]
        constant = np.sum(betas[n_pos + n_neg :] * np.maximum(c[:, n_pos + n_neg :], 0.0), axis=1)
        out[l0 : l0 + n] = slope * t + (offset + constant[:, None])
    return out


def lipschitz_bound(net: ShallowNetwork) -> float:
    """Upper bound on the sup-norm gradient: sum |beta| * |alpha|_1 (0.0 with no units)."""
    terms = np.abs(net.units.betas) * np.abs(net.units.alphas).sum(axis=1)
    return math.fsum(float(t) for t in terms)


def sup_error(net: ShallowNetwork, target: FourierTarget, grid: EvaluationGrid) -> float:
    """Grid maximum of |target - network| on the cube."""
    if grid.domain != CUBE:
        raise ValueError("network error is measured on a cube grid")
    if grid.d != net.d or target.d != net.d:
        raise ValueError("dimension mismatch")
    return _max_error(net, grid_values(target, grid).ravel(), grid.points())


def _max_error(net: ShallowNetwork, tvals: np.ndarray, pts: np.ndarray) -> float:
    """max |tvals - net(pts)|; callers that reuse one grid compute its target values once."""
    return float(np.abs(tvals - evaluate(net, pts)).max())


@dataclass(frozen=True)
class ErrorCertificate:
    """Grid maximum plus a Lipschitz fill-in term: a rigorous sup-norm bound."""

    grid_max: float
    lipschitz_target: float
    lipschitz_network: float
    bound: float


def certified_sup_error(net: ShallowNetwork, target: FourierTarget, grid: EvaluationGrid) -> ErrorCertificate:
    grid_max = sup_error(net, target, grid)
    lt = variation(target, 1)  # sum |c(k)| * |k|_1 bounds the target's gradient sup-norm
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
    n_sampled = int(sampled.sum())

    def _max_or(x, default=0.0):
        return float(x.max()) if x.size else default

    def _min_or(x, default=0.0):
        return float(x.min()) if x.size else default

    alpha_norms = np.abs(net.units.alphas).sum(axis=1)

    def _geometry(origin, mask, floor):
        """|alpha|_1 <= 1 and bias in [floor, 1] on the units of one origin."""
        norm_max = _max_or(alpha_norms[mask])
        lo, hi = _min_or(net.units.biases[mask]), _max_or(net.units.biases[mask])
        return [
            AuditCheck(f"{origin}_alpha_l1", norm_max, 1.0, norm_max <= 1.0 + _ALPHA_TOL),
            AuditCheck(f"{origin}_bias_low", lo, floor, lo >= floor - _BIAS_TOL),
            AuditCheck(f"{origin}_bias_high", hi, 1.0, hi <= 1.0 + _BIAS_TOL),
        ]

    checks = _geometry(ORIGIN_SAMPLED, sampled, 0.0)
    beta_bound = 8.0 * math.pi**2 * meta.v2 / meta.m_requested
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
        checks.append(
            AuditCheck("sampled_count", float(n_sampled), float(count_limit), n_sampled <= count_limit)
        )
    checks += _geometry(ORIGIN_AFFINE, affine, -1.0)
    n_affine = int(affine.sum())
    checks.append(
        AuditCheck("affine_count", float(n_affine), float(MAX_AFFINE_UNITS), n_affine <= MAX_AFFINE_UNITS)
    )
    return AuditReport(
        checks=tuple(checks),
        sampled_count=n_sampled,
        affine_count=n_affine,
        within_budget=net.unit_count <= meta.m_requested,
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

#: The smallest value ``construct`` writes for each integer header field.
_INT_FLOORS = {"N": 1, "r": 1, "m_requested": 8, "seed": 0, "m_prime": 0, "strata_count": 0, "sampled_count": 0}


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
    u = net.units
    columns = [[_fmt(x) for x in col] for col in (*u.alphas.T.tolist(), u.betas.tolist(), u.biases.tolist())]
    lines += [",".join(row) for row in zip(*columns, u.origins.tolist())]
    return "\n".join(lines) + "\n"


def loads_network(text: str) -> ShallowNetwork:
    """Parse a network@2 CSV, or a network@1 CSV, whose header has only d, m, v and N.

    Every number must be finite and every origin ``sampled`` or ``affine``:
    the audit checks only units with those tags.  Integer header fields must
    lie in the range ``construct`` writes, and ``sampled_count`` must match
    the sampled rows.
    """
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] not in ("# schema=network@1", "# schema=network@2"):
        raise ValueError("not a network CSV")
    header = _parse_header(lines[1][2:], ("d", "m", "v", "N"), "network")
    d = int(header["d"])
    for key in ("v", "v2"):
        if key in header and not math.isfinite(float(header[key])):
            raise ValueError(f"network header has non-finite {key}={header[key]}")
    for key, floor in _INT_FLOORS.items():
        if key in header and int(header[key]) < floor:
            raise ValueError(f"network header has {key}={header[key]}; it must be >= {floor}")
    meta = NetworkMeta(
        v=float(header["v"]),
        bandwidth=int(header["N"]),
        **{name: parse(header[name]) for name, parse in _META_FIELDS.items() if name in header},
    )
    rows = [ln for ln in lines[3:] if ln]
    fields = [ln.split(",") for ln in rows]
    for ln, parts in zip(rows, fields):
        if len(parts) != d + 3:
            raise ValueError(f"bad unit row: {ln!r}")
        if parts[d + 2] not in _ORIGINS:
            raise ValueError(f"unknown origin {parts[d + 2]!r} in unit row: {ln!r}")
    values = np.array([[float(p) for p in parts[: d + 2]] for parts in fields]).reshape(len(rows), d + 2)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in unit row: {rows[np.argmin(finite)]!r}")
    origins = np.array([parts[d + 2] for parts in fields], dtype="<U7")
    units = Units(values[:, :d].copy(), values[:, d].copy(), values[:, d + 1].copy(), origins)
    if len(units) != int(header["m"]):
        raise ValueError("unit count does not match header")
    if meta.sampled_count not in (None, int(np.sum(origins == ORIGIN_SAMPLED))):
        raise ValueError(f"network header has sampled_count={meta.sampled_count}, not the sampled row count")
    return ShallowNetwork(d, units, meta)


def save_network(net: ShallowNetwork, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_network(net))


def load_network(path) -> ShallowNetwork:
    with open(path, "r") as fh:
        return loads_network(fh.read())

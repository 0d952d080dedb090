"""Periodic test functions with exact Fourier data.

Every target is a real-valued trigonometric polynomial on the torus
``[-pi, pi]^d``, stored as parallel arrays of integer frequency vectors and
complex coefficients.  Working from exact coefficients makes
Parseval identities, Hoelder norms and all downstream error measurements
checkable up to grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

TORUS = "torus"
CUBE = "cube"

#: Per-axis grid resolutions that over-resolve every corpus target while
#: keeping full sweeps fast.
DEFAULT_POINTS_PER_AXIS = {1: 4096, 2: 512, 3: 96}

#: Declared-smoothness sentinel for bare trigonometric polynomials, which lie
#: in every finite-order smoothness class.
SMOOTHNESS_UNLIMITED = math.inf

#: Largest dimension: ``grid_values`` holds a target on a d-axis array, and
#: a NumPy array has at most 64 axes.
MAX_DIMENSION = 64

_HERMITIAN_TOL = 1e-12
_CELL_BLOCK = 8192  # frequencies x points per block of the cube's last axis


@dataclass(frozen=True)
class EvaluationGrid:
    """Uniform axis-aligned grid on the torus [-pi, pi]^d or the cube [-1, 1]^d."""

    d: int
    points_per_axis: int
    domain: str = TORUS

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.points_per_axis < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.domain not in (TORUS, CUBE):
            raise ValueError(f"unknown domain {self.domain!r}")

    @property
    def spacing(self) -> float:
        if self.domain == TORUS:
            return 2.0 * math.pi / self.points_per_axis
        return 2.0 / (self.points_per_axis - 1)

    def axis(self) -> np.ndarray:
        """Grid points along one axis (all axes are identical)."""
        g = self.points_per_axis
        if self.domain == TORUS:
            return -np.pi + 2.0 * np.pi * np.arange(g) / g
        return np.linspace(-1.0, 1.0, g)

    def points(self) -> np.ndarray:
        """All grid points as a (points_per_axis**d, d) array, C order."""
        axes = np.meshgrid(*([self.axis()] * self.d), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)


def default_grid(d: int, domain: str = TORUS, points_per_axis: int | None = None) -> EvaluationGrid:
    if points_per_axis is None:
        try:
            points_per_axis = DEFAULT_POINTS_PER_AXIS[d]
        except KeyError:
            raise ValueError(f"no default grid size for d={d}; pass points_per_axis")
    return EvaluationGrid(d, points_per_axis, domain)


@dataclass(frozen=True)
class FourierTarget:
    """Real-valued 2*pi-periodic function with finitely many Fourier modes.

    Attributes
    ----------
    d : int
        Dimension of the torus.
    modes : (n, d) int array
        Frequency vectors, rows sorted lexicographically.  The sort order is
        also the summation order used by every evaluation routine.
    coeffs : (n,) complex array
        Coefficient of ``exp(i k.x)`` for each row of ``modes``.  Hermitian
        symmetry (``c(-k) == conj(c(k))``) is enforced at construction.
    smoothness : float
        Declared smoothness order; ``math.inf`` for bare trig polynomials.
    """

    d: int
    modes: np.ndarray
    coeffs: np.ndarray
    smoothness: float

    def __post_init__(self):
        self.modes.setflags(write=False)
        self.coeffs.setflags(write=False)

    @property
    def mode_count(self) -> int:
        return self.modes.shape[0]

    @property
    def k_max(self) -> int:
        """Support radius: max sup-norm of a frequency with nonzero coefficient."""
        if self.mode_count == 0:
            return 0
        return int(np.abs(self.modes).max())

    def as_dict(self) -> dict[tuple[int, ...], complex]:
        return {tuple(int(x) for x in k): complex(c) for k, c in zip(self.modes, self.coeffs)}


def _key(k) -> tuple[int, ...]:
    return tuple(int(x) for x in k)


def _frequencies(tokens, d: int) -> np.ndarray:
    """The tokens, n keys of d integers flat in reading order, as an (n, d) int64 array.

    Each |k|_1 must be below 2**62, so that -k and the int64 sums of |k_j|
    fit as well.  The bound is checked on the whole array at once, and a
    ``ValueError`` names the first key that breaks it, one beyond int64
    included.  d may not exceed ``MAX_DIMENSION``.
    """
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension d={d} is above {MAX_DIMENSION}, the most axes a grid of values can have")
    try:
        modes = np.array(tokens, dtype=np.int64).reshape(-1, d)
    except OverflowError:  # a key beyond int64, so beyond the bound: found in the given order
        bad = next(k for k in np.array(tokens, dtype=object).reshape(-1, d) if sum(abs(int(x)) for x in k) >= 2**62)
    else:
        # |k_j| as uint64 is exact, also for -2**63; capped at 2**62, no running sum wraps
        l1 = np.zeros(modes.shape[0], dtype=np.uint64)
        for column in modes.T:
            l1 = np.minimum(l1 + np.abs(column).view(np.uint64), 2**62)
        beyond = np.flatnonzero(l1 == 2**62)
        if not beyond.size:
            return modes
        bad = modes[beyond[0]]
    raise ValueError(f"frequency k={_key(bad)} is out of range: |k|_1 must be below 2**62")


def _target(d: int, modes: np.ndarray, coeffs: np.ndarray, smoothness: float) -> FourierTarget:
    """The target with these rows, sorted lexicographically, exact zeros dropped.

    A non-finite coefficient or a frequency given twice raises a ``ValueError``
    naming the first such frequency.
    """
    finite = np.isfinite(coeffs)
    if not finite.all():
        raise ValueError(f"non-finite coefficient at k={_key(modes[np.argmin(finite)])}")
    order = np.lexsort(modes.T[::-1])
    modes, coeffs = modes[order], coeffs[order]
    repeated = np.flatnonzero(np.all(modes[1:] == modes[:-1], axis=1))
    if repeated.size:
        raise ValueError(f"repeated frequency k={_key(modes[repeated[0]])}")
    keep = coeffs != 0
    return FourierTarget(d=d, modes=modes[keep], coeffs=coeffs[keep], smoothness=smoothness)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, and each row's rank among them.

    What ``np.unique(rows, axis=0, return_inverse=True)`` returns, from one
    lexsort, the row-change flags and a running count instead of an argsort
    of the rows as structured records.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return ordered[new], rank


def _require_hermitian(modes: np.ndarray, coeffs: np.ndarray, subject: str) -> None:
    """Raise naming the first row k (of distinct ones) with ``|c(k) - conj(c(-k))|`` above the tolerance."""
    # the sorted union of the k and the -k, so -union[i] is union[-1 - i]
    union, where = _distinct_rows(np.concatenate([modes, -modes]))
    where = where[: modes.shape[0]]
    full = np.zeros(union.shape[0], dtype=np.complex128)
    full[where] = coeffs
    tol = _HERMITIAN_TOL * max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
    bad = np.flatnonzero(np.abs(coeffs - full[::-1][where].conj()) > tol)
    if bad.size:
        raise ValueError(f"{subject} not Hermitian-symmetric at k={_key(modes[bad[0]])}")


def make_trig_poly(d: int, coeffs) -> FourierTarget:
    """Build a target from an explicit frequency -> coefficient map.

    The map must be Hermitian-symmetric (real-valued function).  In d = 1 a
    frequency may be a bare integer.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    keys = [_key((k,) if np.isscalar(k) else k) for k in coeffs]
    if any(len(key) != d for key in keys):
        raise ValueError(f"frequency {next(k for k in keys if len(k) != d)} does not have dimension {d}")
    modes = _frequencies([x for key in keys for x in key], d)
    values = np.array([complex(c) for c in coeffs.values()], dtype=np.complex128)
    target = _target(d, modes, values, SMOOTHNESS_UNLIMITED)  # also rejects bad rows
    _require_hermitian(modes, values, "coefficient map is")
    return target


def make_decay_target(d: int, s: float, k_max: int, seed: int) -> FourierTarget:
    """Corpus generator: coefficients of modulus ``(1+|k|_1)^(-s)`` with seeded phases.

    Parameters
    ----------
    d : dimension.
    s : decay exponent; must exceed ``d`` so the coefficients are summable.
    k_max : support radius (sup-norm).
    seed : phase seed; identical arguments reproduce the coefficient map bit
        for bit.

    The declared smoothness is the largest integer ``r`` with ``s > r + d``,
    which guarantees ``sum |c(k)| |k|_1^r`` converges, i.e. membership in the
    order-``r`` Hoelder class.
    """
    if s <= d:
        raise ValueError("decay exponent must exceed the dimension")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    axis = np.arange(-k_max, k_max + 1, dtype=np.int64)
    box = np.stack([a.ravel() for a in np.meshgrid(*([axis] * d), indexing="ij")], axis=-1)
    # The box is in lexicographic order with 0 at its centre; the rows after
    # it are the half space (first nonzero entry > 0), one per conjugate
    # pair, and take one phase each in that order.
    half = box[box.shape[0] // 2 + 1 :]
    theta = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=half.shape[0]).tolist()
    moduli = [(1.0 + l1) ** (-s) for l1 in range(d * k_max + 1)]
    l1 = np.abs(half).sum(axis=1).tolist()
    c = np.array([moduli[n] * complex(math.cos(t), math.sin(t)) for n, t in zip(l1, theta)])
    # negation reverses lexicographic order, so the box's first half is -half[::-1]
    coeffs = np.concatenate([c[::-1].conj(), [1.0 + 0j], c])
    declared = max(0, math.ceil(s - d) - 1)
    return _target(d, box, coeffs, float(declared))


def difference(a: FourierTarget, b: FourierTarget) -> FourierTarget:
    """Coefficient-wise a - b."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    modes, where = _distinct_rows(np.concatenate([a.modes, b.modes]))
    coeffs = np.zeros(modes.shape[0], dtype=np.complex128)
    # Assign a, then subtract b: each side's modes are distinct, and an
    # assignment keeps the sign of a zero part where adding to 0 would not.
    coeffs[where[: a.mode_count]] = a.coeffs
    coeffs[where[a.mode_count :]] -= b.coeffs
    nz = coeffs != 0
    return FourierTarget(a.d, modes[nz], coeffs[nz], min(a.smoothness, b.smoothness))


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    """x as float points (n, d), and whether it was one point: (d,), or a bare number when d = 1.

    More than two axes, or a bare number when d > 1, is an error.
    """
    pts = np.asarray(x, dtype=float)
    batch = np.atleast_2d(pts)
    if pts.ndim > 2 or batch.shape[1] != d:
        raise ValueError(f"points must have shape ({d},) or (n, {d}), not {pts.shape}")
    return batch, pts.ndim < 2


def evaluate(target: FourierTarget, x) -> float | np.ndarray:
    """Real part of the coefficient sum at one point (d,) or a batch (n, d).

    In d = 1 a bare number is one point.  One point gives a float.

    Modes are summed in their stored lexicographic order, so the result does
    not depend on how callers batch or parallelize points.
    """
    pts, single = _as_points(x, target.d)
    phase = np.einsum("pd,md->pm", pts, target.modes.astype(float))
    vals = np.einsum("pm,m->p", np.exp(1j * phase), target.coeffs).real
    return float(vals[0]) if single else vals


def _grid_values_raw(
    d: int, modes: np.ndarray, coeffs: np.ndarray, grid: EvaluationGrid, out: np.ndarray | None = None
) -> np.ndarray:
    """Real part of the coefficient sum on the full grid, shape (G,)*d.

    The values are written into ``out``, a float64 array of shape (G,)*d,
    which is returned; with ``out=None`` a fresh array is.  Either way the
    bytes are the same.  ``holder_norm`` and ``build_levels`` pass one buffer
    to every transform and reduce each grid before the next overwrites it,
    which saves a fresh allocation (and its page faults) per grid.

    Since ``Re(c e^{i theta}) = Re(conj(c) e^{-i theta})``, for any c,
    Hermitian or not, a mode may move to ``-k`` with the conjugate
    coefficient.  On the torus each mode whose last index ``k_d mod G`` lies
    above ``G//2`` moves, on the cube each mode with ``k_d < 0``.

    On the torus the values are then a real inverse DFT of a half spectrum:
    every last index lies in ``0..L``, L the largest folded ``k_d mod G``,
    at most ``G//2``.  The coefficients on indices strictly between 0 and
    G/2 are halved, since ``irfft`` counts each of them twice; index 0 and,
    for even G, the Nyquist index G/2 are counted once.  They are summed
    into one dense box, G wide on axes 0 .. d-2 and L + 1 wide on the last.
    Complex inverse DFTs run in place over axes d-2 .. 0, and one ``irfft``
    along the last axis finishes; it reads the indices L+1 .. G//2 as zeros.
    All transforms are unnormalized (``norm="forward"``), so the values are
    the sums themselves.  The result agrees with
    ``ifftn(spectrum).real * G**d`` to rounding, not to the byte.

    On the cube the coefficients go into a box with rows ``-k_max..k_max``
    on the first d - 1 axes and ``0..k_max`` on the last.  The first d - 1
    axes are contracted one at a time against ``exp(i k x)``, whose rows
    ``k >= 0`` come from one ``cos`` and one ``sin`` evaluation and whose rows
    ``k < 0`` are their conjugates.  The last axis finishes in real
    arithmetic, ``Re(A) cos(k x) - Im(A) sin(k x)``, over blocks of its
    points; a block holds at most ``_CELL_BLOCK`` frequencies or outer points
    times block points.  The result agrees with the complex sum over the
    unfolded box to rounding, not to the byte.
    """
    g = grid.points_per_axis
    if out is None:
        out = np.empty((g,) * d)
    elif out.shape != (g,) * d or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {(g,) * d}, not {out.dtype} {out.shape}")
    if modes.shape[0] == 0:
        out.fill(0.0)
        return out
    fold = modes[:, -1] % g > g // 2 if grid.domain == TORUS else modes[:, -1] < 0
    modes = np.where(fold[:, None], -modes, modes)
    coeffs = np.where(fold, coeffs.conj(), coeffs)
    if grid.domain == TORUS:
        # Exact sampling via the DFT: grid starts at -pi, which contributes a
        # (-1)^{sum k_j} twist relative to the standard [0, 2*pi) transform.
        twisted = coeffs * np.where(modes.sum(axis=1) % 2 == 0, 1.0, -1.0)
        index = modes % g
        last = index[:, -1]
        twisted = np.where((last > 0) & (2 * last != g), 0.5 * twisted, twisted)
        # add.at sums modes that alias to one index in row order
        vals = np.zeros((g,) * (d - 1) + (int(last.max()) + 1,), dtype=np.complex128)
        np.add.at(vals, tuple(index.T), twisted)
        for j in reversed(range(d - 1)):
            np.fft.ifft(vals, axis=j, norm="forward", out=vals)
        return np.fft.irfft(vals, n=g, axis=-1, norm="forward", out=out)
    # Cube grids are not commensurate with the period; add.at sums modes that
    # meet in the folded box in row order.
    k_max = int(np.abs(modes).max())
    vals = np.zeros((2 * k_max + 1,) * (d - 1) + (k_max + 1,), dtype=np.complex128)
    np.add.at(vals, (*(modes[:, :-1] + k_max).T, modes[:, -1]), coeffs)
    axis, freqs = grid.axis(), np.arange(k_max + 1, dtype=float)[:, None]
    if d > 1:
        angle = freqs * axis
        half = np.cos(angle) + 1j * np.sin(angle)
        basis = np.concatenate((half[:0:-1].conj(), half))  # rows k = -k_max..k_max
    for _ in range(d - 1):
        vals = np.einsum("i...,ig->...g", vals, basis)
    # vals: (k_max + 1, G, ..., G); the last axis finishes in real arithmetic over blocks of its points
    step = max(1, _CELL_BLOCK // max(k_max + 1, vals[0].size))
    for g0 in range(0, g, step):
        angle = freqs * axis[g0 : g0 + step]
        block = out[..., g0 : g0 + step]
        np.einsum("k...,kb->...b", vals.real, np.cos(angle), out=block)
        block -= np.einsum("k...,kb->...b", vals.imag, np.sin(angle))
    return out


def grid_values(target: FourierTarget, grid: EvaluationGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Real values of the target on the full grid, shape (G,)*d, written into ``out`` when given."""
    if grid.d != target.d:
        raise ValueError("grid dimension mismatch")
    return _grid_values_raw(target.d, target.modes, target.coeffs, grid, out)


def _max_abs(values: np.ndarray) -> float:
    """``float(np.abs(values).max())`` without a second array: ``max(max v, -min v)``.

    Negation is exact, so the float is the same; a NaN propagates through
    both reductions, and a grid of zeros of either sign gives +0.0.
    """
    return max(float(values.max()), -float(values.min())) + 0.0


def imag_residual_on_grid(target: FourierTarget, grid: EvaluationGrid) -> float:
    """Largest imaginary residue left by the coefficient sum; near zero for valid targets.

    ``Im sum c e^{ikx} = Re sum (-i c) e^{ikx}``, so the residue comes from the
    real-valued grid transform of the coefficients times ``-i``.
    """
    if grid.d != target.d:
        raise ValueError("grid dimension mismatch")
    return _max_abs(_grid_values_raw(target.d, target.modes, -1j * target.coeffs, grid))


def sup_norm(target: FourierTarget, grid: EvaluationGrid) -> float:
    """Grid maximum of |target|."""
    return _max_abs(grid_values(target, grid))


def _require_resolved(target: FourierTarget, grid: EvaluationGrid):
    if grid.domain != TORUS:
        raise ValueError("a torus grid is required")
    if grid.d != target.d:
        raise ValueError("grid dimension mismatch")
    if grid.points_per_axis <= 2 * target.k_max:
        raise ValueError(
            f"grid with {grid.points_per_axis} points per axis does not resolve "
            f"modes up to {target.k_max}"
        )


def multi_indices(d: int, max_total: int):
    """All derivative multi-indices with total order <= max_total, lexicographic."""
    for alpha in product(range(max_total + 1), repeat=d):
        if sum(alpha) <= max_total:
            yield alpha


def holder_norm(target: FourierTarget, r: int, grid: EvaluationGrid) -> float:
    """Grid Hoelder norm: max over |alpha|_1 <= r of the grid sup of D^alpha f.

    Derivatives are taken coefficient-side (``(i k_j)^{alpha_j}`` weights), so
    the value is exact for trigonometric polynomials up to grid resolution.
    Requires a torus grid with more than ``2 * k_max`` points per axis.
    """
    if r < 0:
        raise ValueError("derivative order must be >= 0")
    _require_resolved(target, grid)
    best = 0.0
    kf = target.modes.astype(float)
    vals = np.empty((grid.points_per_axis,) * target.d)  # one grid, overwritten by each derivative
    for alpha in multi_indices(target.d, r):
        weights = np.ones(target.mode_count, dtype=np.complex128)
        for j, a in enumerate(alpha):
            if a:
                weights = weights * (1j * kf[:, j]) ** a
        _grid_values_raw(target.d, target.modes, target.coeffs * weights, grid, vals)
        best = max(best, _max_abs(vals))
    return best


# ---------------------------------------------------------------------------
# Plain-text serialization: header "d=<d> r=<r>", then one line per frequency
# "k_1 ... k_d re im".
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def dumps_target(target: FourierTarget) -> str:
    r_str = "inf" if math.isinf(target.smoothness) else str(int(target.smoothness))
    lines = [f"d={target.d} r={r_str}"]
    rows = zip(target.modes.tolist(), target.coeffs.tolist())
    lines += [f"{' '.join(map(str, k))} {_fmt(c.real)} {_fmt(c.imag)}" for k, c in rows]
    return "\n".join(lines) + "\n"


def _read_header(line: str, keys: dict, what: str) -> dict:
    """The values of a header line of ``key=value`` items.

    ``keys`` maps each key to ``(parse, floor, required)``.  Each item must
    have a known key, given once, and a value that ``parse`` accepts, that is
    finite when ``parse`` is ``float`` and that is not below ``floor``
    (``None``: no floor).  A ``ValueError`` names the first item that breaks
    a rule, or else the first missing required key; a value that a parser
    other than ``float`` rejects is reported as not an integer, and one that
    overflows a float (an ``r`` of 400 digits) as beyond the float range.
    """
    header = {}
    for item in line.split():
        key, eq, text = item.partition("=")
        if not eq or key not in keys:
            raise ValueError(f"{what} header item {item!r} is not key=value with a known key")
        if key in header:
            raise ValueError(f"{what} header repeats {key}=")
        parse, floor, _ = keys[key]
        try:
            value = parse(text)
        except ValueError:
            kind = "a number" if parse is float else "an integer"
            raise ValueError(f"{what} header has {item}; it must be {kind}") from None
        except OverflowError:
            raise ValueError(f"{what} header has {key}= beyond the float range") from None
        if parse is float and not math.isfinite(value):
            raise ValueError(f"{what} header has non-finite {item}")
        if floor is not None and value < floor:
            raise ValueError(f"{what} header has {item}; it must be >= {floor}")
        header[key] = value
    for key, (_, _, required) in keys.items():
        if required and key not in header:
            raise ValueError(f"{what} header lacks {key}=")
    return header


def _order(text: str) -> float:
    """A smoothness order: an integer, or ``inf``."""
    return math.inf if text == "inf" else float(int(text))


#: The target header: the dimension and the declared smoothness order.
_TARGET_HEADER = {"d": (int, 1, True), "r": (_order, 0, True)}


def _read_rows(lines: list[str], sep: str | None, what: str, *ends: int) -> list[list[str]]:
    """Fields ``0:ends[0]``, ``ends[0]:ends[1]``, ... of the lines split on ``sep`` (``None``: whitespace).

    Each kind comes flat in reading order, in which one ``np.array`` call converts it, naming the first bad field
    in ``int()``'s or ``float()``'s message.  A ``ValueError`` names the first line without ``ends[-1]`` fields.
    """
    rows = [ln.split(sep) for ln in lines]
    for ln, parts in zip(lines, rows):
        if len(parts) != ends[-1]:
            raise ValueError(f"{what}: {ln!r}")
    if not rows:  # with no row, the widths are not bounded by a line
        return [[] for _ in ends]
    tokens, width = [p for parts in rows for p in parts], ends[-1]
    kinds = []
    for start, stop in zip((0, *ends), ends):
        # column j of every row is tokens[j::width]; it goes to every (stop - start)-th place of its kind
        kind = [""] * (len(rows) * (stop - start))
        for j in range(start, stop):
            kind[j - start :: stop - start] = tokens[j::width]
        kinds.append(kind)
    return kinds


def loads_target(text: str) -> FourierTarget:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty target description")
    header = _read_header(lines[0], _TARGET_HEADER, "target")
    d = header["d"]
    keys, values = _read_rows(lines[1:], None, "bad coefficient line", d, d + 2)
    modes = _frequencies(keys, d)
    coeffs = np.array(values, dtype=float).view(np.complex128)
    target = _target(d, modes, coeffs, header["r"])
    _require_hermitian(modes, coeffs, "stored coefficients are")
    return target


def save_target(target: FourierTarget, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_target(target))


def load_target(path) -> FourierTarget:
    with open(path, "r") as fh:
        return loads_target(fh.read())

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

_HERMITIAN_TOL = 1e-12


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


def _on_union(modes: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted union of the k and the -k (so ``-union[i]`` is ``union[-1 - i]``),
    the coefficients on it (0 where absent) and each row's place in it."""
    union, where = np.unique(np.concatenate([modes, -modes]), axis=0, return_inverse=True)
    where = where.ravel()[: modes.shape[0]]
    full = np.zeros(union.shape[0], dtype=np.complex128)
    full[where] = coeffs
    return union, full, where


def _require_hermitian(modes: np.ndarray, coeffs: np.ndarray, subject: str) -> None:
    """Raise naming the first row k (of distinct ones) with ``|c(k) - conj(c(-k))|`` above the tolerance."""
    _, full, where = _on_union(modes, coeffs)
    tol = _HERMITIAN_TOL * max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
    bad = np.flatnonzero(np.abs(coeffs - full[::-1][where].conj()) > tol)
    if bad.size:
        raise ValueError(f"{subject} not Hermitian-symmetric at k={_key(modes[bad[0]])}")


def make_trig_poly(d: int, coeffs, auto_symmetrize: bool = False) -> FourierTarget:
    """Build a target from an explicit frequency -> coefficient map.

    The map must be Hermitian-symmetric (real-valued function).  With
    ``auto_symmetrize`` the map is replaced by its Hermitian part instead of
    being rejected.  In d = 1 a frequency may be a bare integer.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    keys = [_key((k,) if np.isscalar(k) else k) for k in coeffs]
    if any(len(key) != d for key in keys):
        raise ValueError(f"frequency {next(k for k in keys if len(k) != d)} does not have dimension {d}")
    modes = np.array(keys, dtype=np.int64).reshape(len(keys), d)
    values = np.array([complex(c) for c in coeffs.values()], dtype=np.complex128)
    target = _target(d, modes, values, SMOOTHNESS_UNLIMITED)  # also rejects bad rows
    if not auto_symmetrize:
        _require_hermitian(modes, values, "coefficient map is")
        return target
    # from the rows as given: an explicit zero still adds its signed zeros
    union, full, _ = _on_union(modes, values)
    # 0.5 * (c(k) + conj(c(-k))), halving the real and imaginary parts before the sum: no
    # overflow, exact for normal numbers; the complex product with 1.0 signs zeros as 0.5 * did
    parts = 0.5 * full.view(np.float64) + 0.5 * full[::-1].conj().view(np.float64)
    return _target(d, union, 1.0 * parts.view(np.complex128), SMOOTHNESS_UNLIMITED)


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
    modes, where = np.unique(np.concatenate([a.modes, b.modes]), axis=0, return_inverse=True)
    where = where.ravel()
    coeffs = np.zeros(modes.shape[0], dtype=np.complex128)
    # Assign a, then subtract b: each side's modes are distinct, and an
    # assignment keeps the sign of a zero part where adding to 0 would not.
    coeffs[where[: a.mode_count]] = a.coeffs
    coeffs[where[a.mode_count :]] -= b.coeffs
    nz = coeffs != 0
    return FourierTarget(a.d, modes[nz], coeffs[nz], min(a.smoothness, b.smoothness))


def evaluate(target: FourierTarget, x) -> float | np.ndarray:
    """Real part of the coefficient sum at one point (d,) or a batch (n, d).

    Modes are summed in their stored lexicographic order, so the result does
    not depend on how callers batch or parallelize points.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != target.d:
        raise ValueError(f"points must have dimension {target.d}")
    if target.mode_count == 0:
        vals = np.zeros(pts.shape[0])
    else:
        phase = np.einsum("pd,md->pm", pts, target.modes.astype(float))
        vals = np.einsum("pm,m->p", np.exp(1j * phase), target.coeffs).real
    return float(vals[0]) if single else vals


def _grid_values_raw(d: int, modes: np.ndarray, coeffs: np.ndarray, grid: EvaluationGrid) -> np.ndarray:
    """Complex values on the full grid, shape (G,)*d."""
    g = grid.points_per_axis
    if modes.shape[0] == 0:
        return np.zeros((g,) * d, dtype=np.complex128)
    if grid.domain == TORUS:
        # Exact sampling via the DFT: grid starts at -pi, which contributes a
        # (-1)^{sum k_j} twist relative to the standard [0, 2*pi) transform.
        spectrum = np.zeros((g,) * d, dtype=np.complex128)
        twist = np.where(modes.sum(axis=1) % 2 == 0, 1.0, -1.0)
        np.add.at(spectrum, tuple((modes % g).T), coeffs * twist)
        return np.fft.ifftn(spectrum) * g**d
    # Cube grids are not commensurate with the period; contract one axis at a
    # time against per-axis exponentials instead.
    k_max = int(np.abs(modes).max())
    shape = (2 * k_max + 1,) * d
    box = np.zeros(shape, dtype=np.complex128)
    box[tuple((modes + k_max).T)] = coeffs
    freqs = np.arange(-k_max, k_max + 1, dtype=float)
    basis = np.exp(1j * freqs[:, None] * grid.axis()[None, :])
    vals = box
    for _ in range(d):
        vals = np.einsum("i...,ig->...g", vals, basis)
    return vals


def grid_values(target: FourierTarget, grid: EvaluationGrid) -> np.ndarray:
    """Real values of the target on the full grid, shape (G,)*d."""
    if grid.d != target.d:
        raise ValueError("grid dimension mismatch")
    return _grid_values_raw(target.d, target.modes, target.coeffs, grid).real


def imag_residual_on_grid(target: FourierTarget, grid: EvaluationGrid) -> float:
    """Largest imaginary residue left by the coefficient sum; near zero for valid targets."""
    vals = _grid_values_raw(target.d, target.modes, target.coeffs, grid)
    return float(np.abs(vals.imag).max()) if vals.size else 0.0


def sup_norm(target: FourierTarget, grid: EvaluationGrid) -> float:
    """Grid maximum of |target|."""
    vals = grid_values(target, grid)
    return float(np.abs(vals).max()) if vals.size else 0.0


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
    if target.mode_count == 0:
        return 0.0
    best = 0.0
    kf = target.modes.astype(float)
    for alpha in multi_indices(target.d, r):
        weights = np.ones(target.mode_count, dtype=np.complex128)
        for j, a in enumerate(alpha):
            if a:
                weights = weights * (1j * kf[:, j]) ** a
        vals = _grid_values_raw(target.d, target.modes, target.coeffs * weights, grid)
        best = max(best, float(np.abs(vals.real).max()))
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


def _parse_header(line: str, required: tuple[str, ...], what: str) -> dict[str, str]:
    """The ``key=value`` pairs of a header line; every required key must be
    present, and the dimension d, which both readers require, must be >= 1."""
    header = dict(item.split("=", 1) for item in line.split())
    for key in required:
        if key not in header:
            raise ValueError(f"{what} header lacks {key}=")
    if int(header["d"]) < 1:
        raise ValueError(f"{what} header has d={header['d']}; the dimension must be >= 1")
    return header


def loads_target(text: str) -> FourierTarget:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty target description")
    header = _parse_header(lines[0], ("d", "r"), "target")
    d = int(header["d"])
    smoothness = math.inf if header["r"] == "inf" else float(int(header["r"]))
    if smoothness < 0:
        raise ValueError(f"target header has r={header['r']}; the order must be >= 0")
    rows = [ln.split() for ln in lines[1:]]
    for ln, parts in zip(lines[1:], rows):
        if len(parts) != d + 2:
            raise ValueError(f"bad coefficient line: {ln!r}")
    modes = np.array([[int(p) for p in parts[:d]] for parts in rows], dtype=np.int64).reshape(len(rows), d)
    values = np.array([[float(p) for p in parts[d:]] for parts in rows]).reshape(len(rows), 2)
    coeffs = values.view(np.complex128).ravel()
    target = _target(d, modes, coeffs, smoothness)
    _require_hermitian(modes, coeffs, "stored coefficients are")
    return target


def save_target(target: FourierTarget, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_target(target))


def load_target(path) -> FourierTarget:
    with open(path, "r") as fh:
        return loads_target(fh.read())

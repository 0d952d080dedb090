"""Periodic test functions with exact Fourier data.

Every target is a real-valued trigonometric polynomial on the torus
``[-pi, pi]^d``, stored as a finitely supported map from integer frequency
vectors to complex coefficients.  Working from exact coefficients makes
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


def _as_key(k, d: int) -> tuple[int, ...]:
    if np.isscalar(k):
        key = (int(k),)
    else:
        key = tuple(int(x) for x in k)
    if len(key) != d:
        raise ValueError(f"frequency {key} does not have dimension {d}")
    return key


def _from_map(d: int, coeff_map: dict[tuple[int, ...], complex], smoothness: float) -> FourierTarget:
    items = sorted((k, complex(c)) for k, c in coeff_map.items() if c != 0)
    if items:
        modes = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), d)
        coeffs = np.array([c for _, c in items], dtype=np.complex128)
    else:
        modes = np.zeros((0, d), dtype=np.int64)
        coeffs = np.zeros(0, dtype=np.complex128)
    return FourierTarget(d=d, modes=modes, coeffs=coeffs, smoothness=smoothness)


def make_trig_poly(d: int, coeffs, auto_symmetrize: bool = False) -> FourierTarget:
    """Build a target from an explicit frequency -> coefficient map.

    The map must be Hermitian-symmetric (real-valued function).  With
    ``auto_symmetrize`` the map is replaced by its Hermitian part instead of
    being rejected.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    raw = {_as_key(k, d): complex(c) for k, c in coeffs.items()}
    if auto_symmetrize:
        keys = set(raw) | {tuple(-x for x in k) for k in raw}
        sym = {}
        for k in keys:
            neg = tuple(-x for x in k)
            sym[k] = 0.5 * (raw.get(k, 0j) + raw.get(neg, 0j).conjugate())
        raw = sym
    else:
        scale = max((abs(c) for c in raw.values()), default=0.0)
        tol = _HERMITIAN_TOL * max(1.0, scale)
        for k, c in raw.items():
            neg = tuple(-x for x in k)
            if abs(c - raw.get(neg, 0j).conjugate()) > tol:
                raise ValueError(f"coefficient map is not Hermitian-symmetric at k={k}")
    return _from_map(d, raw, SMOOTHNESS_UNLIMITED)


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
    rng = np.random.default_rng(seed)
    coeff_map: dict[tuple[int, ...], complex] = {(0,) * d: 1.0 + 0j}
    # Iterate one representative per conjugate pair, in lexicographic order,
    # so the phase stream is consumed deterministically.
    for k in product(range(-k_max, k_max + 1), repeat=d):
        first_nonzero = next((x for x in k if x != 0), 0)
        if first_nonzero <= 0:
            continue
        theta = rng.uniform(-math.pi, math.pi)
        modulus = (1.0 + sum(abs(x) for x in k)) ** (-s)
        c = modulus * complex(math.cos(theta), math.sin(theta))
        coeff_map[k] = c
        coeff_map[tuple(-x for x in k)] = c.conjugate()
    declared = max(0, math.ceil(s - d) - 1)
    target = _from_map(d, coeff_map, float(declared))
    return target


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
    if math.isinf(target.smoothness):
        r_str = "inf"
    else:
        r_str = str(int(target.smoothness))
    lines = [f"d={target.d} r={r_str}"]
    for k, c in zip(target.modes, target.coeffs):
        head = " ".join(str(int(x)) for x in k)
        lines.append(f"{head} {_fmt(c.real)} {_fmt(c.imag)}")
    return "\n".join(lines) + "\n"


def _parse_header(line: str, required: tuple[str, ...], what: str) -> dict[str, str]:
    """The ``key=value`` pairs of a header line; every required key must be present."""
    header = dict(item.split("=", 1) for item in line.split())
    for key in required:
        if key not in header:
            raise ValueError(f"{what} header lacks {key}=")
    return header


def loads_target(text: str) -> FourierTarget:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty target description")
    header = _parse_header(lines[0], ("d", "r"), "target")
    d = int(header["d"])
    smoothness = math.inf if header["r"] == "inf" else float(int(header["r"]))
    coeff_map = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != d + 2:
            raise ValueError(f"bad coefficient line: {ln!r}")
        k = tuple(int(p) for p in parts[:d])
        if k in coeff_map:
            raise ValueError(f"repeated frequency line for k={k}")
        real, imag = float(parts[d]), float(parts[d + 1])
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise ValueError(f"non-finite coefficient at k={k}")
        coeff_map[k] = complex(real, imag)
    target = _from_map(d, coeff_map, smoothness)
    scale = max(1.0, float(np.abs(target.coeffs).max()) if target.mode_count else 0.0)
    for k, c in coeff_map.items():
        neg = tuple(-x for x in k)
        if abs(c - coeff_map.get(neg, 0j).conjugate()) > _HERMITIAN_TOL * scale:
            raise ValueError(f"stored coefficients are not Hermitian-symmetric at k={k}")
    return target


def save_target(target: FourierTarget, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_target(target))


def load_target(path) -> FourierTarget:
    with open(path, "r") as fh:
        return loads_target(fh.read())

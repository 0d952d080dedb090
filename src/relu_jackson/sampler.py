"""Construction of a shallow ReLU network from a smoothed Fourier target.

The pipeline rests on an exact integral identity that writes ``exp(iz)`` as a
ReLU ridge integral plus an affine part.  Plugging the identity into the
coefficient sum of a smoothed target turns the target (minus an affine part)
into the expectation of ``sigma(alpha_k . x - t)`` atoms under a density over
``(shift t, frequency k)``.  The identity's second ridge, of sign -1, is the
atom of frequency -k, since the image is Hermitian, so it is folded into the
first by doubling its mass.  The shift runs over ``[0, SHIFT_LIMIT]``,
``SHIFT_LIMIT = 1/pi = |alpha_k|_1``: beyond it an atom is zero on the whole
cube.  Sampling the atoms, stratified so that atoms in one stratum are nearly
interchangeable as functions of x, produces the network units; two or three
exact units realize the affine part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .jackson import apply_jackson
from .network import (
    MIN_WIDTH,
    ORIGIN_AFFINE,
    ORIGIN_SAMPLED,
    SHIFT_LIMIT,
    NetworkMeta,
    ShallowNetwork,
    Units,
)
from .spectral import variation
from .targets import FourierTarget, _distinct_rows

# Stream tag of the unstratified sampler: its PCG64 stream is keyed by
# (seed, tag), apart from the stratified sampler's Philox stream, which is
# keyed by the seed alone and split between strata by counter offset.
_PLAIN_STREAM_TAG = 0x9E3779B9


def _validate_seed(seed: int):
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


# ---------------------------------------------------------------------------
# The ReLU ridge identity
# ---------------------------------------------------------------------------

def _simpson(f, a: float, b: float, panels: int) -> complex:
    """Composite Simpson with an even panel count."""
    n = max(2, panels + panels % 2)
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / n
    vals = f(x)
    return complex(np.sum(w * vals) * h / 3.0)


def identity_residual(z: float, c: float, panels: int) -> float:
    """Quadrature residual of the ridge identity for exp(iz) on [-c, c].

    The identity states ``exp(iz) - iz - 1`` equals minus the integral over
    ``u in [0, c]`` of ``relu(z-u) e^{iu} + relu(-z-u) e^{-iu}``.  The
    integrand is smooth except for a kink at ``u = |z|``, so the range is
    split there and each piece gets a share of ``panels`` Simpson panels.
    """
    if panels < 2:
        raise ValueError("panels must be >= 2")
    if not (math.isfinite(z) and math.isfinite(c)):
        raise ValueError(f"identity needs a finite z and c, got z={z}, c={c}")
    if abs(z) > c:
        raise ValueError("identity requires |z| <= c")
    lhs = cmath.exp(1j * z) - 1j * z - 1.0

    def integrand(u):
        return np.maximum(z - u, 0.0) * np.exp(1j * u) + np.maximum(-z - u, 0.0) * np.exp(-1j * u)

    split = abs(z)
    pieces = [(a, b) for a, b in ((0.0, split), (split, c)) if b > a]
    total = 0j
    for a, b in pieces:
        share = max(2, int(round(panels * (b - a) / c)))
        total += _simpson(integrand, a, b, share)
    rhs = -total
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Sampling density over (shift, frequency)
# ---------------------------------------------------------------------------

def _abs_cos_primitive(u):
    """F(u) = integral of |cos| from 0 to u, in closed form."""
    u = np.asarray(u, dtype=float)
    branch = np.floor((u + np.pi / 2.0) / np.pi)
    return 2.0 * branch + np.sin(u - branch * np.pi)


@dataclass(frozen=True)
class SamplingDensity:
    """Atom density p(t, k) proportional to |c(k)| |k|_1^2 |cos(w_k t + b_k)| on [0, 1/pi].

    ``b_k`` is the coefficient phase, ``w_k = pi |k|_1`` the phase slope, and
    ``alpha_k = k / (pi |k|_1)`` the unit direction each frequency
    contributes.  ``f_lo``/``f_hi`` are the |cos| primitive at each
    frequency's phase at t = 0 and at t = SHIFT_LIMIT, and ``masses[j]`` is
    the unnormalized mass of frequency j with the shift integrated out,
    ``(f_hi - f_lo) / w_k`` times the atom weight; ``v`` is the total mass,
    i.e. the estimator scale.  Every plain draw reads ``cum``, the running
    sum of ``masses``, and the two primitives.
    """

    image: FourierTarget
    magnitudes: np.ndarray
    phases: np.ndarray
    l1: np.ndarray
    omegas: np.ndarray
    alphas: np.ndarray
    masses: np.ndarray
    v: float
    cum: np.ndarray
    f_lo: np.ndarray
    f_hi: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def mode_count(self) -> int:
        return self.l1.shape[0]

    @property
    def is_degenerate(self) -> bool:
        return self.mode_count == 0


def _atom_weight(magnitudes, l1):
    """Density weight 2 pi^2 |c(k)| |k|_1^2 of a frequency's |cos| shift profile.

    The factor 2 folds in the identity's ridge of sign -1: its atom (t, k) is
    the atom (t, -k) of sign +1, with the same mass, because targets are
    Hermitian (c(-k) = conj(c(k)) to the 1e-12 tolerance that
    ``targets._require_hermitian`` enforces).
    """
    return 2.0 * np.pi**2 * magnitudes * l1**2


def build_density(image: FourierTarget) -> SamplingDensity:
    """Per-frequency masses and the normalization of the atom density.

    The shift integral of |cos| over [0, SHIFT_LIMIT] is evaluated in closed
    form through the piecewise antiderivative, never by quadrature.  An image
    with no oscillatory modes yields a degenerate density (the network is
    purely affine); the flag is exposed as ``is_degenerate``.
    """
    keep = (np.abs(image.modes).sum(axis=1) > 0) & (image.coeffs != 0)
    modes = image.modes[keep]
    coeffs = image.coeffs[keep]
    magnitudes = np.abs(coeffs)
    phases = np.angle(coeffs)
    l1 = np.abs(modes).sum(axis=1).astype(float)
    omegas = np.pi * l1
    alphas = modes / (np.pi * l1[:, None])
    f_lo = _abs_cos_primitive(omegas * 0.0 + phases)
    f_hi = _abs_cos_primitive(omegas * SHIFT_LIMIT + phases)
    masses = _atom_weight(magnitudes, l1) * ((f_hi - f_lo) / omegas)
    v = math.fsum(masses.tolist())
    return SamplingDensity(
        image=image,
        magnitudes=magnitudes,
        phases=phases,
        l1=l1,
        omegas=omegas,
        alphas=alphas,
        masses=masses,
        v=v,
        cum=np.cumsum(masses),
        f_lo=f_lo,
        f_hi=f_hi,
    )


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------

class Stratum(NamedTuple):
    """One stratum of a plan: read-only slices of its flat piece arrays, and its draw count."""

    mode_index: np.ndarray
    piece_lo: np.ndarray
    piece_hi: np.ndarray
    piece_mass: np.ndarray
    count: int


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Proportionate-allocation plan as per-piece arrays and per-stratum counts.

    Stratum i owns pieces ``ptr[i]:ptr[i+1]``.  A stratum fixes a shift bin
    and a direction cell, both of side ``delta``, and the atom sign
    ``s = -sgn(cos(w t + b))``, so any two of its atoms give ReLU features
    within epsilon of each other uniformly over the cube
    (``allocation_width``).  Per piece: the frequency index
    ``piece_mode``, the shift sub-interval ``[piece_lo, piece_hi]``, its
    mass, and ``cum``, the cumulative mass normalised within the stratum and
    offset by the stratum index (so stratum i's pieces end at exactly
    i + 1).  Per stratum: the draw count ``count``.

    The rest holds the seed-independent part of every draw, so that
    ``stratified_sample`` does only the work that depends on the seed.  Per
    piece: ``piece_f_lo`` and ``piece_f_hi``, the |cos| primitive at both
    ends.  Per draw, strata in order and each repeated by its count: the
    stratum index ``draw_stratum``, the stratum's last piece ``draw_last``,
    the unit weight ``draw_beta`` (which carries the stratum's atom sign)
    and the unit origin ``origins``.
    """

    m_prime: int
    delta: float
    ptr: np.ndarray
    piece_mode: np.ndarray
    piece_lo: np.ndarray
    piece_hi: np.ndarray
    piece_mass: np.ndarray
    cum: np.ndarray
    count: np.ndarray
    piece_f_lo: np.ndarray
    piece_f_hi: np.ndarray
    draw_stratum: np.ndarray
    draw_last: np.ndarray
    draw_beta: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def strata_count(self) -> int:
        return self.count.shape[0]

    @property
    def total_count(self) -> int:
        return self.draw_stratum.shape[0]

    @cached_property
    def strata(self) -> tuple[Stratum, ...]:
        """Per-stratum view of the flat arrays, built on first access."""
        ptr = self.ptr.tolist()
        return tuple(
            Stratum(self.piece_mode[lo:hi], self.piece_lo[lo:hi], self.piece_hi[lo:hi], self.piece_mass[lo:hi], count)
            for lo, hi, count in zip(ptr[:-1], ptr[1:], self.count.tolist())
        )


def _m_prime(m: int) -> int:
    """m' = ceil(m / 4), the draws a width-m plan allocates to its strata."""
    return math.ceil(m / 4)


def allocation_width(m: int, d: int) -> tuple[float, float]:
    """(epsilon, delta): the oscillation budget and the cell side per axis."""
    eps = 2.0 * (d + 1) * math.pi ** (-1.0 + 1.0 / d) / _m_prime(m) ** (1.0 / d)
    return eps, eps / (d + 1)


def _cos_zero_shifts(omega, b):
    """Interior zeros of cos(omega*t + b) for t in (0, SHIFT_LIMIT), per row.

    Returns (row, t) with rows ascending and t ascending within each row:
    the slope omega is positive, so t rises with the phase index n.
    """
    n0 = np.ceil((b - math.pi / 2.0) / math.pi)
    n1 = np.floor((omega * SHIFT_LIMIT + b - math.pi / 2.0) / math.pi)
    counts = np.maximum(n1 - n0 + 1.0, 0.0).astype(np.int64)
    row = np.repeat(np.arange(omega.shape[0]), counts)
    starts = np.cumsum(counts) - counts
    n = n0[row] + (np.arange(row.shape[0]) - starts[row])
    ts = (math.pi / 2.0 + math.pi * n - b[row]) / omega[row]
    inside = (ts > 0.0) & (ts < SHIFT_LIMIT)
    return row[inside], ts[inside]


def build_strata(density: SamplingDensity, m: int) -> SamplingPlan:
    """Proportionate-allocation plan for a width-m network.

    Strata are the product of: shift bins [j*delta, (j+1)*delta) clipped at
    SHIFT_LIMIT; direction cells obtained by flooring each coordinate of
    alpha_k to the delta grid; and the atom sign s, with every shift bin
    additionally split at the zeros of cos(w t + b) so s is constant per
    atom.  Each nonempty stratum draws ceil(m' * share) samples, with
    m' = ceil(m / 4).  Strata are ordered by (bin, cell, s), cells
    lexicographically; the pieces of a stratum by frequency, then by shift.
    Each frequency's cut points are merged, not sorted, and the strata come
    from one stable sort of a single integer stratum key.
    """
    if density.is_degenerate:
        raise ValueError("empty density: the image has no oscillatory modes")
    if m < MIN_WIDTH:
        raise ValueError(f"width must be >= {MIN_WIDTH}")
    m_prime = _m_prime(m)
    _, delta = allocation_width(m, density.image.d)
    edges = np.minimum(delta * np.arange(math.ceil(SHIFT_LIMIT / delta) + 1), SHIFT_LIMIT)
    cells = np.floor(density.alphas / delta).astype(np.int64)

    # One row per frequency; each row's shift range [0, SHIFT_LIMIT] is cut
    # at the bin edges, which every row shares, and at its zeros of cos.
    # Both lists are ascending, so a zero's slot is the number of cut points
    # before it: the edges of the rows before its own, the edges at or below
    # it, and the zeros before it; the edges fill the other slots.  A zero
    # equal to an edge makes an empty piece, whose mass is exactly 0, so the
    # mass filter below drops it.
    omegas, phases = density.omegas, density.phases
    zero_row, zero_t = _cos_zero_shifts(omegas, phases)
    rows, n_edges, n_zeros = density.mode_count, edges.shape[0], zero_t.shape[0]
    zero_slot = zero_row * n_edges + np.searchsorted(edges, zero_t, side="right") + np.arange(n_zeros)
    edge_slot = np.ones(rows * n_edges + n_zeros, dtype=bool)
    edge_slot[zero_slot] = False
    bound = np.empty(edge_slot.shape[0])
    bound[zero_slot] = zero_t
    bound[edge_slot] = np.tile(edges, rows)
    row = np.repeat(np.arange(rows), np.bincount(zero_row, minlength=rows) + n_edges)

    # The |cos| primitive once per cut point; a piece's mass is the rise of
    # the primitive over it, divided by the phase slope.
    primitive = _abs_cos_primitive(omegas[row] * bound + phases[row])
    piece = np.flatnonzero(row[1:] == row[:-1])
    mode, lo, hi = row[piece], bound[piece], bound[piece + 1]
    omega, b = omegas[mode], phases[mode]
    sign = -np.sign(np.cos(omega * (0.5 * (lo + hi)) + b))
    weight = _atom_weight(density.magnitudes[mode], density.l1[mode])
    mass = weight * ((primitive[piece + 1] - primitive[piece]) / omega)
    bins = np.searchsorted(edges, lo, side="right") - 1

    # Strata in (bin, cell, s) order: one integer key per piece, with the
    # direction cells ranked lexicographically (so the key stays below
    # 2 * n_edges * modes at any d), and a stable sort that keeps the
    # (frequency, shift) order of the pieces inside each stratum.
    distinct_cells, cell_rank = _distinct_rows(cells)
    key = (bins * distinct_cells.shape[0] + cell_rank[mode]) * 2 + (sign > 0.0)
    kept = np.flatnonzero((sign != 0.0) & (mass > 0.0))
    order = kept[np.argsort(key[kept], kind="stable")]
    key = key[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    ptr = np.append(starts, order.shape[0])

    piece_mass = mass[order]
    # Exactly rounded stratum masses (a reduceat is off by a few ulps); the
    # loop runs once per stratum, not per piece.
    mass_list, ptr_list = piece_mass.tolist(), ptr.tolist()
    stratum_mass = np.array([math.fsum(mass_list[i:j]) for i, j in zip(ptr_list[:-1], ptr_list[1:])])
    share = stratum_mass / density.v
    target_count = m_prime * share
    count = np.ceil(target_count).astype(np.int64)

    # Cumulative masses normalised within each stratum, so a small stratum
    # next to a large one keeps its resolution, and offset by the stratum
    # index, so one searchsorted serves every stratum.
    piece_stratum = np.repeat(np.arange(starts.shape[0]), np.diff(ptr))
    running = np.cumsum(piece_mass / stratum_mass[piece_stratum])
    before = np.concatenate([[0.0], running[ptr[1:-1] - 1]])
    within = np.minimum(running - before[piece_stratum], 1.0)
    within[ptr[1:] - 1] = 1.0

    # The seed-independent part of each draw: per piece the primitive at both
    # ends (taken above at its cut points), and per draw its stratum, the
    # stratum's last piece and the unit weight beta = v * m_i / (m' * n_i) * s.
    first_cut = piece[order]
    stratum_sign = sign[order[starts]]
    draw_stratum = np.repeat(np.arange(starts.shape[0]), count)
    beta = density.v * target_count / (m_prime * count) * stratum_sign

    plan = SamplingPlan(
        m_prime=m_prime,
        delta=delta,
        ptr=ptr,
        piece_mode=mode[order],
        piece_lo=lo[order],
        piece_hi=hi[order],
        piece_mass=piece_mass,
        cum=piece_stratum + within,
        count=count,
        piece_f_lo=primitive[first_cut],
        piece_f_hi=primitive[first_cut + 1],
        draw_stratum=draw_stratum,
        draw_last=ptr[draw_stratum + 1] - 1,
        draw_beta=np.repeat(beta, count),
        origins=np.full(draw_stratum.shape[0], ORIGIN_SAMPLED, dtype="<U7"),
    )
    # Ceiling rounding adds less than one draw per stratum.
    assert plan.total_count <= plan.m_prime + plan.strata_count
    return plan


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _invert_shift(omega, b, lo, hi, f_lo, f_hi, u):
    """Inverse-CDF draw of t with density |cos(omega*t + b)| on [lo, hi].

    ``f_lo`` and ``f_hi`` are the |cos| primitive F at both ends,
    ``F(omega*lo + b)`` and ``F(omega*hi + b)``, which the plan and the
    density hold.  F rises by 2 per half-period of the phase, so the
    half-period holding the drawn level y is floor((y + 1) / 2), and arcsin
    inverts F inside it.  The interval may span any number of half-periods.
    """
    y = f_lo + u * (f_hi - f_lo)
    branch = np.floor((y + 1.0) / 2.0)
    # min/max has np.clip's bytes at the bounds +-1 and costs less; t keeps np.clip,
    # which with a scalar bound 0.0 (the plain draw) keeps a -0.0 that np.maximum makes 0.0
    phi = branch * np.pi + np.arcsin(np.minimum(np.maximum(y - 2.0 * branch, -1.0), 1.0))
    return np.clip((phi - b) / omega, lo, hi)


def stratified_sample(plan: SamplingPlan, density: SamplingDensity, seed: int) -> Units:
    """Draw every stratum's allocation and weight the units for the estimator.

    All draws come from one counter-based Philox stream keyed by the seed:
    unit j takes the uniform pair in row j of ``random((n, 2))``, and stratum
    i's units are rows ``[start_i, start_i + count_i)`` with ``start_i`` the
    draws of the strata before it.  Stratum i can therefore be reproduced on
    its own by advancing the stream to that row's counter, without drawing
    the strata before it.  Each atom (t, k) becomes the unit
    ``beta * relu(alpha_k . x - t)`` with ``beta = v * m_i / (m' * n_i) * s``.
    Everything that does not depend on the seed is read from the plan.
    """
    _validate_seed(seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    u = rng.random((plan.total_count, 2))
    pick = np.searchsorted(plan.cum, plan.draw_stratum + u[:, 0], side="right")
    pick = np.minimum(pick, plan.draw_last)
    mode = plan.piece_mode[pick]
    t = _invert_shift(
        density.omegas[mode],
        density.phases[mode],
        plan.piece_lo[pick],
        plan.piece_hi[pick],
        plan.piece_f_lo[pick],
        plan.piece_f_hi[pick],
        u[:, 1],
    )
    return Units(alphas=density.alphas[mode], betas=plan.draw_beta, biases=t, origins=plan.origins)


def plain_sample(density: SamplingDensity, n: int, seed: int) -> Units:
    """Unstratified baseline: n i.i.d. atoms with weights +-v/n."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if density.is_degenerate:
        raise ValueError("empty density: the image has no oscillatory modes")
    _validate_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _PLAIN_STREAM_TAG)))
    u = rng.random((n, 2))
    cum = density.cum
    mode = np.minimum(np.searchsorted(cum, u[:, 0] * cum[-1], side="right"), density.mode_count - 1)
    omega = density.omegas[mode]
    b = density.phases[mode]
    t = _invert_shift(omega, b, 0.0, SHIFT_LIMIT, density.f_lo[mode], density.f_hi[mode], u[:, 1])
    s = -np.sign(np.cos(omega * t + b))
    return Units(
        alphas=density.alphas[mode],
        betas=density.v / n * s,
        biases=t,
        origins=np.full(n, ORIGIN_SAMPLED, dtype="<U7"),
    )


# ---------------------------------------------------------------------------
# Affine part and end-to-end construction
# ---------------------------------------------------------------------------

def affine_part(image: FourierTarget) -> tuple[np.ndarray, float]:
    """(w, c) with A(x) = w . x + c: the non-sampled remainder of the image.

    ``w = -sum Im(c(k)) k`` and ``c = sum Re(c(k))``; both are real because
    the coefficients are Hermitian-symmetric.
    """
    if image.mode_count == 0:
        return np.zeros(image.d), 0.0
    w = -np.einsum("m,md->d", image.coeffs.imag, image.modes.astype(float))
    c = math.fsum(image.coeffs.real.tolist())
    return w, c


def affine_units(image: FourierTarget) -> Units:
    """At most three exact units realizing the affine part.

    The linear term w . x uses the identity u = relu(u) - relu(-u) scaled so
    the direction has unit l1 norm; the constant uses a single unit with zero
    direction and bias -1, i.e. ``c * relu(0 . x + 1)``.
    """
    w, c = affine_part(image)
    rows = []
    w_norm = float(np.abs(w).sum())
    if w_norm > 0.0:
        unit_dir = w / w_norm
        rows.append((unit_dir, w_norm, 0.0, ORIGIN_AFFINE))
        rows.append((-unit_dir, -w_norm, 0.0, ORIGIN_AFFINE))
    if c != 0.0:
        rows.append((np.zeros(image.d), c, -1.0, ORIGIN_AFFINE))
    return Units.build(image.d, rows)


def select_bandwidth(m: int, d: int, r: int) -> int:
    """Smoothing bandwidth for a width-m network: floor(m^((d+2)/(d*max(2r, d+4)))).

    The exponent balances the smoothing error against the sampling error;
    the result is clamped to at least 1 so small widths stay usable.
    """
    if m < 1 or d < 1 or r < 1:
        raise ValueError("m, d, r must be >= 1")
    expo = (d + 2.0) / (d * max(2 * r, d + 4))
    return max(1, math.floor(m**expo))


@dataclass(frozen=True, eq=False)
class Preparation:
    """The seed-independent stages of a construction, shared by every seed.

    ``meta`` is the header of every network realized from it, with ``seed``
    and ``sampled_count`` left ``None``.  ``plan`` is ``None`` when the
    density is degenerate (no oscillatory modes); the network is then the
    exact affine part.  Every array is read-only, so one preparation can be
    realized at any number of seeds.
    """

    meta: NetworkMeta
    density: SamplingDensity
    plan: SamplingPlan | None
    affine: Units


def prepare(target: FourierTarget, r: int, m: int, bandwidth: int | None = None) -> Preparation:
    """Smooth the target, then build its density, plan, affine units and network header.

    Raises ``ValueError`` when the plan's draws and the affine units exceed
    the width m, as they can at the smallest widths (decay2 at m = 8 has 11).
    """
    if r < 1:
        raise ValueError("order must be >= 1")
    if m < MIN_WIDTH:
        raise ValueError(f"width must be >= {MIN_WIDTH}")
    n = bandwidth if bandwidth is not None else select_bandwidth(m, target.d, r)
    if n < 1:
        raise ValueError("bandwidth must be >= 1")
    image = apply_jackson(target, n, r)
    density = build_density(image)
    plan = None if density.is_degenerate else build_strata(density, m)
    affine = affine_units(image)
    # the audit's width check, made before any seed is drawn
    if plan is not None and plan.total_count + len(affine) > m:
        raise ValueError(
            f"width m={m} cannot hold the plan's {plan.total_count} draws and {len(affine)} affine units"
        )
    meta = NetworkMeta(
        v=density.v,
        bandwidth=n,
        v2=variation(image, 2),
        r=r,
        m_requested=m,
        m_prime=_m_prime(m),
        strata_count=0 if plan is None else plan.strata_count,
    )
    return Preparation(meta=meta, density=density, plan=plan, affine=affine)


def realize(prep: Preparation, seed: int, method: str = "stratified") -> ShallowNetwork:
    """Draw the sampled units at ``seed`` and stamp the seed and their count on the header.

    ``method`` selects stratified sampling (default) or the plain Monte Carlo
    baseline with the same unit budget.
    """
    if method not in ("stratified", "plain"):
        raise ValueError(f"unknown sampling method {method!r}")
    _validate_seed(seed)
    d, plan = prep.density.image.d, prep.plan
    if plan is None:
        sampled = Units.empty(d)
    elif method == "stratified":
        sampled = stratified_sample(plan, prep.density, seed)
    else:
        sampled = plain_sample(prep.density, plan.total_count, seed)
    meta = replace(prep.meta, seed=seed, sampled_count=len(sampled))
    return ShallowNetwork(d, Units.concat([sampled, prep.affine]), meta)


def construct(
    target: FourierTarget,
    r: int,
    m: int,
    seed: int,
    bandwidth: int | None = None,
    method: str = "stratified",
) -> ShallowNetwork:
    """End-to-end pipeline: ``realize(prepare(target, r, m, bandwidth), seed, method)``.

    A degenerate density (no oscillatory modes) produces the exact affine
    network.  The result is bit-reproducible given (target, r, m, seed).
    """
    return realize(prepare(target, r, m, bandwidth), seed, method)

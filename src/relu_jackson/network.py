"""Shallow ReLU network value type: evaluation, sup-norm error, parameter audit.

A network is a flat list of units ``beta * relu(alpha . x - bias)`` stored as
arrays: the Monte Carlo ("sampled") units first, then the exact ("affine")
ones, with the count of sampled units marking the split.  Networks are
immutable once built.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import variation
from .targets import (
    CUBE, MAX_DIMENSION, EvaluationGrid, FourierTarget, _as_points, _fmt, _max_abs, _read_header, _read_rows,
    _require_int, grid_values,
)

ORIGIN_SAMPLED = "sampled"
ORIGIN_AFFINE = "affine"
_ORIGINS = (ORIGIN_SAMPLED, ORIGIN_AFFINE)

_POINT_BLOCK = 4096
_UNIT_BLOCK = 2048
_CELL_BLOCK = 32768  # lines x units per block of the line path
_F8, _C16, _INTP, _BOOL = (np.dtype(t) for t in (np.float64, np.complex128, np.intp, np.bool_))

#: Ceiling on exact affine units: two for the linear part, one for the
#: constant, as ``affine_units`` builds them.
MAX_AFFINE_UNITS = 3

#: Smallest width m that ``construct`` accepts, and the floor of a network
#: header's ``m_requested``.
MIN_WIDTH = 8

#: Largest shift (bias) of a sampled unit.  Every sampled direction has
#: ``|alpha|_1 = 1/pi``, so ``alpha . x <= 1/pi`` on the cube and a unit with a
#: larger shift would be zero on the whole cube.
SHIFT_LIMIT = 1.0 / math.pi


@dataclass(frozen=True)
class Units:
    """Structure-of-arrays unit list: row i of each array is unit i, sampled first, then affine.

    The first ``sampled_count`` units are the Monte Carlo units, the rest the exact affine ones.
    """

    alphas: np.ndarray
    betas: np.ndarray
    biases: np.ndarray
    sampled_count: int

    def __post_init__(self):
        if not (self.alphas.ndim == 2 and self.alphas.shape[:1] == self.betas.shape == self.biases.shape):
            raise ValueError(f"unit arrays of shapes {self.alphas.shape}, {self.betas.shape}, {self.biases.shape}")
        _require_int("sampled_count", self.sampled_count, 0)
        if self.sampled_count > len(self):
            raise ValueError(f"sampled_count={self.sampled_count} is not in 0..{len(self)}")
        for arr in (self.alphas, self.betas, self.biases):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.betas.shape[0]

    @property
    def origins(self) -> np.ndarray:
        """Each unit's origin, ``sampled`` or ``affine``: the network file's origin column."""
        return np.repeat(np.array(_ORIGINS), [self.sampled_count, len(self) - self.sampled_count])

    @classmethod
    def empty(cls, d: int) -> "Units":
        return cls(alphas=np.zeros((0, d)), betas=np.zeros(0), biases=np.zeros(0), sampled_count=0)

    @classmethod
    def build(cls, d: int, rows) -> "Units":
        """Units from ``(alpha, beta, bias, origin)`` rows, the sampled rows before the affine ones."""
        rows = list(rows)
        return cls(
            alphas=np.array([np.asarray(r[0], dtype=float) for r in rows]).reshape(len(rows), d),
            betas=np.array([float(r[1]) for r in rows]),
            biases=np.array([float(r[2]) for r in rows]),
            sampled_count=_sampled_prefix([str(r[3]) for r in rows], lambda i: f"row {i}"),
        )

    @classmethod
    def concat(cls, blocks) -> "Units":
        """The blocks' units in order; no block with sampled units may follow an affine unit."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("nothing to concatenate")
        count = total = 0
        for i, b in enumerate(blocks):
            if b.sampled_count and count < total:
                raise ValueError(f"block {i} has sampled units after an affine unit")
            count += b.sampled_count
            total += len(b)
        return cls(
            alphas=np.concatenate([b.alphas for b in blocks]),
            betas=np.concatenate([b.betas for b in blocks]),
            biases=np.concatenate([b.biases for b in blocks]),
            sampled_count=count,
        )


def _sampled_prefix(origins: list[str], where: Callable[[int], str]) -> int:
    """The count of leading ``sampled`` tags; an unknown tag or a sampled one after an affine one is refused,
    naming unit i by ``where(i)``."""
    for i, origin in enumerate(origins):
        if origin not in _ORIGINS:
            raise ValueError(f"unknown origin {origin!r} in {where(i)}")
    count = origins.index(ORIGIN_AFFINE) if ORIGIN_AFFINE in origins else len(origins)
    if ORIGIN_SAMPLED in origins[count:]:
        raise ValueError(f"sampled {where(origins.index(ORIGIN_SAMPLED, count))} follows an affine unit")
    return count


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
    """A network of d inputs; a header's ``sampled_count``, when set, is the units' own."""

    d: int
    units: Units
    meta: NetworkMeta | None = None

    def __post_init__(self):
        if self.meta is not None and self.meta.sampled_count not in (None, self.units.sampled_count):
            raise ValueError(f"network header has sampled_count={self.meta.sampled_count}, not the sampled row count")

    @property
    def unit_count(self) -> int:
        return len(self.units)


def evaluate(net: ShallowNetwork, x) -> float | np.ndarray:
    """Sum of beta * relu(alpha . x - bias) at one point (d,) or a batch (n, d).

    In d = 1 a bare number is one point.  One point gives a float.

    Two exact paths, chosen from the input alone.  The line path reads the
    points as lines that share their first d - 1 coordinates, in the order
    ``EvaluationGrid.points()`` lists them (C order): the points run line
    by line, every line has the same length and holds the same
    non-decreasing values t of the last coordinate.  With P points, L lines
    and U units it costs about ``(L*U + P) * log2(U)`` against ``P*U`` for
    the dense path, and it runs when it is the cheaper one.  A handful of
    points, scattered points in d >= 2 and any other point set, a shuffled
    grid or one with a descending axis included, take the dense path.

    - Dense: units are reduced in storage order through fixed-size blocks.
    - Lines: along a line the network is piecewise linear in the last
      coordinate t.  All lines are evaluated together, in blocks of lines,
      with no sort.  The units with a nonzero last weight form one
      contiguous block, rising units (``a_last > 0``) first, then falling
      ones, each group in storage order.  For them ``c = a_rest . x_rest -
      bias`` is summed coordinate by coordinate in index order, each unit's
      breakpoint is placed in its bin among the shared t by
      ``_sorted_bins`` (a guess as if t were evenly spaced, checked exactly
      against the neighbouring t, and a ``searchsorted`` of only the keys
      whose check fails), and ``beta * a_last`` and ``beta * c`` are summed
      into the bins by ``np.add.at``, from 0.0 in unit order, into the real
      and the imaginary parts of one complex array.  A rising unit is
      active above its breakpoint tau and takes the bin ``#(t <= tau)``; a
      falling one is active above ``-tau = c / -|a_last|`` on the mirrored
      line ``t' = -t[::-1]`` and takes the bin ``#(t' <= -tau)`` there;
      negation is exact, so that bin is ``len(t) - #(t < tau)``.  One forward complex
      cumulative sum, whose additions are the two real ones, the mirrored
      bins read back in reverse point order (the terms and order of a sum
      from the end of t), gives each point the sums ``S_a`` and ``S_c``
      over its active units, and its value is ``S_a * t + S_c``.  Units
      with a zero last weight add the constant ``beta * max(c, 0)``, summed
      on its own.  A unit with a nonzero last weight that is zero at every
      point of a line has its breakpoint past the line's t, in the end bin,
      which the cumulative sums drop.  In d >= 2, before a block of lines
      is binned, ``_kept_sloped`` leaves out every such unit whose
      breakpoint is in the end bin on every line of the block: it computes
      the breakpoint once, at the corner of the block's box that the unit
      rises toward, with the kernel's own operations.  A unit left out adds
      only to end bins, and the kept units keep their storage order, so
      every kept bin gets the same terms in the same order and no output
      byte changes.  Units with a zero last weight are always kept: their
      constants are summed pairwise, and a pairwise sum's bytes depend on
      all of its terms.

    A network with a NaN or infinite parameter always takes the dense path.
    Both orders are fixed, so results do not depend on the evaluation
    backend's threading; the two paths agree up to rounding.
    """
    pts, single = _as_points(x, net.d)
    # one line is the line path's cheapest case; if even that does not pay, skip the layout check
    lines = _line_layout(pts) if _line_path_pays(net.unit_count, pts.shape[0], 1) else None
    out = _evaluate_points(net.units, pts, lines)
    return float(out[0]) if single else out


def _evaluate_points(
    units: Units, pts: np.ndarray, lines: tuple[np.ndarray, np.ndarray] | None, ws: _LineWorkspace | None = None
) -> np.ndarray:
    """Values at pts (n, d), given ``lines = _line_layout(pts)`` (or None): the path ``evaluate`` takes.

    The line path works in ws (see ``_evaluate_lines``); the dense path allocates.
    """
    # the line path bins finite breakpoints by the sign of a_last, and a unit with a NaN a_last has no sign
    if (
        lines is not None
        and _line_path_pays(len(units), pts.shape[0], lines[0].shape[0])
        and all(np.isfinite(a).all() for a in (units.alphas, units.biases, units.betas))
    ):
        return _evaluate_lines(units, *lines, ws).ravel()
    return _evaluate_dense(units, pts)


def _line_path_pays(units: int, points: int, lines: int) -> bool:
    """Whether the line path's work, about (L*U + P) * log2(U), is below the dense P*U.

    The log2(U) factor prices a binary search per breakpoint, which
    ``_sorted_bins`` replaces by an O(1) guess for most breakpoints, and U
    counts every unit, also those ``_evaluate_lines`` leaves out on a block
    of lines.  The cost model is left unchanged on purpose, so that no input
    changes path.
    """
    return units > 0 and (lines * units + points) * math.log2(max(units, 2)) < points * units


def _line_layout(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(x_rest, t)`` when the points run line by line with one shared, non-decreasing t; else None."""
    rest = pts[:, :-1]
    breaks = np.flatnonzero(np.any(rest[1:] != rest[0], axis=1))
    size = breaks[0] + 1 if breaks.size else pts.shape[0]  # the first line's length
    if pts.shape[0] % size:
        return None
    lines = pts.reshape(-1, size, pts.shape[1])
    t = lines[0, :, -1]
    shared_t = np.all(t[1:] >= t[:-1]) and np.all(lines[:, :, -1] == t)
    return (lines[:, 0, :-1], t) if shared_t and np.all(lines[:, :, :-1] == lines[:, :1, :-1]) else None


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


class _LineWorkspace:
    """Reused buffers for the block temporaries of ``_evaluate_lines`` and ``_sorted_bins``.

    Each slot is one flat byte buffer that grows to the largest request and
    never shrinks; ``take`` views its start as a C-contiguous array of the
    requested shape, so every temporary keeps the layout of a fresh array.
    Temporaries whose lifetimes do not overlap share a slot.  A workspace
    serves one call at a time.
    """

    __slots__ = ("_slots",)

    def __init__(self):
        self._slots: dict[str, np.ndarray] = {}

    def take(self, slot: str, shape: tuple[int, ...], dtype: np.dtype = _F8) -> np.ndarray:
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._slots.get(slot)
        if buf is None or buf.nbytes < nbytes:
            buf = self._slots[slot] = np.empty(nbytes, np.uint8)
        return np.ndarray(shape, dtype, buf)


def _evaluate_lines(
    units: Units, x_rest: np.ndarray, t: np.ndarray, ws: _LineWorkspace | None = None
) -> np.ndarray:
    """Values (lines, len(t)) on the lines through x_rest (lines, d - 1), at the sorted t.

    This is the line path that ``evaluate`` describes.  Every block
    temporary, and the returned array, is taken from ws, so a caller that
    passes one workspace for many networks, as ``grid_error``'s closure
    does, allocates them once; the result is then a view into ws, valid
    until its next use.  Without ws the call makes its own, and the result
    is a fresh array.  The bins are zeroed in place and summed by
    ``np.add.at``, which adds in input order from 0.0 as ``bincount`` does
    but needs no fresh output.
    """
    ws = _LineWorkspace() if ws is None else ws
    a_last = units.alphas[:, -1]
    pos, neg, flat = (np.flatnonzero(m) for m in (a_last > 0.0, a_last < 0.0, a_last == 0.0))
    # storage order within each group, so the bins add units in that order
    sloped = np.concatenate((pos, neg))
    a_s, b_s, betas_s = units.alphas[sloped].T.copy(), units.biases[sloped], units.betas[sloped]  # a_s[j]: coordinate j
    a_f, b_f, betas_f = units.alphas[flat, :-1].T.copy(), units.biases[flat], units.betas[flat]
    n_pos, n_sloped, n_flat = len(pos), len(sloped), len(flat)
    neg_scale, beta_a = -np.abs(a_s[-1]), betas_s * a_s[-1]
    ends = np.full(n_sloped, -t[0])
    ends[:n_pos] = t[-1]
    size, bins = len(t), len(t) + 1
    t_pad = np.concatenate(([-np.inf], t, [np.inf]))
    mirror_pad = -t_pad[::-1]  # the mirrored line t' = -t[::-1], padded the same way
    n_lines, n_rest = x_rest.shape
    out = ws.take("out", (n_lines, size))
    step = max(1, _CELL_BLOCK // max(len(units), 1))
    line_base = np.arange(min(step, n_lines)) * (2 * bins)  # each line's first bin in the flat bin index
    for l0 in range(0, n_lines, step):
        xr = x_rest[l0 : l0 + step]
        n = xr.shape[0]
        # a unit left out adds only to end bins, so every kept bin gets the same terms in the same order;
        # in d = 1 (no x_rest column) the mask is skipped, as it costs more than binning those few units
        keep = _kept_sloped(a_s, b_s, xr, ends) if n_rest else None
        if keep is None or keep.all():  # the units as they are, without gathers
            kp, ks = n_pos, n_sloped  # kept rising units, kept sloped units
            a_k, b_k, neg_scale_k, beta_a_k, betas_k = a_s, b_s, neg_scale, beta_a, betas_s
        else:
            kept = np.flatnonzero(keep)
            kp, ks = np.searchsorted(kept, n_pos), len(kept)
            gathered = ws.take("kept", (n_rest + 4, ks))
            for row, into in zip((*a_s[:-1], b_s, neg_scale, beta_a, betas_s), gathered):
                np.take(row, kept, out=into, mode="clip")  # a row at a time: cheaper than a_s[:-1, kept]
            a_k, (b_k, neg_scale_k, beta_a_k, betas_k) = gathered[:n_rest], gathered[n_rest:]
        c = _line_offsets(xr, a_k, b_k, ws.take("c", (n, ks)), ws.take("key", (n, ks)))
        # a_last > 0: active for t > -c/|a_last|; a_last < 0: for t' > -c/|a_last| on the mirrored line.
        # Bin k = #(t <= key) on its own line: active at points k.., the last bin dropped; falling bins follow.
        key = np.divide(c, neg_scale_k, out=ws.take("key", (n, ks)))
        k = ws.take("k", (n, ks), _INTP)
        _sorted_bins(t_pad, key[:, :kp], out=k[:, :kp], ws=ws)
        _sorted_bins(mirror_pad, key[:, kp:], out=k[:, kp:], ws=ws)
        k[:, kp:] += bins
        k += line_base[:n, None]
        k = k.ravel()
        c *= betas_k
        weights_a = ws.take("key", (n, ks))  # the keys are binned: their slot takes beta * a_last per line
        # Both weight arrays stay materialised at k's full shape.  On NumPy 2.4.6, ufunc.at with values
        # that broadcast reads past them: np.add.at(np.zeros(6), [[0, 1], [2, 3]], [1.0, 2.0]) leaves
        # 1.58e-322 in slot 2, not 1.0.
        weights_a[...] = beta_a_k
        # S_a in the real parts, S_c in the imaginary ones: one complex cumulative sum makes both real ones
        sums = ws.take("sums", (n, 2, bins), _C16)
        sums[...] = 0.0
        flat_sums = sums.reshape(-1).view(_F8)
        np.add.at(flat_sums[0::2], k, weights_a.ravel())
        np.add.at(flat_sums[1::2], k, c.ravel())
        np.cumsum(sums, axis=2, out=sums)
        s_a, s_c = sums.real, sums.imag
        # the weights are summed: their slot takes the flat units' products
        flat_c = _line_offsets(xr, a_f, b_f, ws.take("flat", (n, n_flat)), ws.take("key", (n, n_flat)))
        np.maximum(flat_c, 0.0, out=flat_c)
        flat_c *= betas_f
        constant = np.sum(flat_c, axis=1, out=ws.take("constant", (n,)))
        # the falling sums are read back in reverse point order; c's slot is free for the slopes
        slope = np.add(s_a[:, 0, :size], s_a[:, 1, size - 1 :: -1], out=ws.take("c", (n, size)))
        slope *= t
        offset = np.add(s_c[:, 0, :size], s_c[:, 1, size - 1 :: -1], out=out[l0 : l0 + n])
        offset += constant[:, None]
        offset += slope  # slope + offset: addition commutes exactly
    return out


def _line_offsets(x_rest: np.ndarray, a_rest, biases: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``c = a_rest . x_rest - bias`` (lines, units) into out, summed coordinate by coordinate in index order.

    a_rest holds the units' first d - 1 direction coordinates by coordinate
    (at least d - 1 rows; later rows are not read).  tmp, of out's shape,
    holds each later coordinate's products before they are added.
    """
    if not x_rest.shape[1]:
        return np.negative(biases, out=out)
    np.multiply(x_rest[:, :1], a_rest[0], out=out)
    for j in range(1, x_rest.shape[1]):
        out += np.multiply(x_rest[:, j : j + 1], a_rest[j], out=tmp)
    out -= biases
    return out


def _kept_sloped(a_t: np.ndarray, biases: np.ndarray, x_rest: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Mask of the units with a nonzero last weight that ``_evaluate_lines`` bins on a block of lines.

    a_t (d, units) holds the units' directions by coordinate, x_rest
    (lines, d - 1) the block's lines, and ends the key from which on each
    unit is in the end bin: ``t[-1]`` for a rising unit, ``-t[0]`` for a
    falling one, which is binned on the mirrored line.  A unit is left out when its
    breakpoint key is at or past its end on every line of the block.  Its
    largest ``c`` over the block is taken at the corner of the box of
    x_rest that it rises toward: coordinate by coordinate, the larger of
    the products with the box's low and high end, summed from 0.0 in index
    order, then less the bias, as the kernel computes ``c``.  Rounding is
    monotone, so every line's key ``-c / |a_last|`` is at least the
    corner's, and a corner key at or past the end puts the unit in the end
    bin on every line.  A NaN key keeps the unit.
    """
    lo, hi = x_rest.min(axis=0), x_rest.max(axis=0)
    c = np.zeros(len(biases))
    with np.errstate(invalid="ignore"):
        for j in range(x_rest.shape[1]):
            c += np.maximum(lo[j] * a_t[j], hi[j] * a_t[j])
        c -= biases
        return ~(-c / np.abs(a_t[-1]) >= ends)


def _sorted_bins(t_pad: np.ndarray, q: np.ndarray, out: np.ndarray, ws: _LineWorkspace | None = None) -> np.ndarray:
    """``np.searchsorted(t, q, side="right")`` for a non-decreasing t, given as ``t_pad = [-inf, *t, inf]``.

    Each key's bin k is guessed as if t were evenly spaced from ``t[0]`` to
    ``t[-1]`` and checked: ``t_pad[k] <= q < t_pad[k+1]``.  Only the keys
    that fail the check are searched, and when every guess passes there is
    no search, so the bins are exact on any non-decreasing t.  Keys are
    clipped to half a step beyond t before the guess, so no guess overflows
    or leaves ``[0, len(t)]``.  A t too short, flat or wide for an
    arithmetic guess is searched directly.  The bins are written into out
    (an intp array of q's shape, which may be a view), which is returned.
    The temporaries of q's shape are taken from ws, or made fresh without one.
    """
    t = t_pad[1:-1]
    size = len(t)
    t0, t1 = float(t[0]), float(t[-1])
    step = (t1 - t0) / (size - 1) if t0 < t1 else 0.0
    inv = 1.0 / step if step > 0.0 else math.inf
    lo, hi, origin = t0 - 0.5 * step, t1 + 0.5 * step, t0 - step
    # rounding is monotone, so (hi - origin) * inv bounds every clipped key's guess
    if not (hi - origin) * inv < size + 1:
        out[...] = np.searchsorted(t, q, side="right")
        return out
    ws = _LineWorkspace() if ws is None else ws
    guess = np.clip(q, lo, hi, out=ws.take("guess", q.shape))
    guess -= origin
    guess *= inv  # its floor is the bin of an evenly spaced t
    # a NaN key casts to any integer; the clipped gathers keep it in range, and it fails the check
    with np.errstate(invalid="ignore"):
        np.copyto(out, guess, casting="unsafe")
    edge = guess  # the guesses are cast: their slot takes the t at each bin's edges
    ok = np.less_equal(np.take(t_pad, out, mode="clip", out=edge), q, out=ws.take("ok", q.shape, _BOOL))
    ok &= np.less(q, np.take(t_pad[1:], out, mode="clip", out=edge), out=ws.take("below", q.shape, _BOOL))
    if not ok.all():
        bad = np.flatnonzero(np.logical_not(ok, out=ok))
        out.flat[bad] = np.searchsorted(t, q.flat[bad], side="right")
    return out


def lipschitz_bound(net: ShallowNetwork) -> float:
    """Lipschitz constant of the network in the sup-norm of x: sum |beta| * |alpha|_1 (0.0 with no units).

    Each unit changes by at most ``|beta| |alpha . (x - y)| <= |beta| |alpha|_1 |x - y|_inf``.
    """
    terms = np.abs(net.units.betas) * np.abs(net.units.alphas).sum(axis=1)
    return math.fsum(terms.tolist())


def sup_error(net: ShallowNetwork, target: FourierTarget, grid: EvaluationGrid) -> float:
    """Grid maximum of |target - network| on the cube: ``grid_error(target, grid)(net)``."""
    return grid_error(target, grid)(net)


def grid_error(target: FourierTarget, grid: EvaluationGrid) -> Callable[[ShallowNetwork], float]:
    """``net -> max |target - net|`` over a cube grid of the target's dimension.

    The target's grid values, the points and their line layout are computed
    once, so callers that measure many networks on one grid share them.  The
    closure also keeps one ``_LineWorkspace``: every network it measures on
    the line path is evaluated, block by block, in the same buffers, and so
    is the difference grid, which is reduced to a float before the call
    returns.  Calls from several threads take turns on the workspace, under
    a lock, so they return the same floats as serial calls.
    """
    if grid.domain != CUBE:
        raise ValueError("network error is measured on a cube grid")
    if grid.d != target.d:
        raise ValueError("dimension mismatch")
    tvals, pts = grid_values(target, grid).ravel(), grid.points()
    lines = _line_layout(pts)
    ws, in_use = _LineWorkspace(), threading.Lock()

    def error(net: ShallowNetwork) -> float:
        if net.d != target.d:
            raise ValueError("dimension mismatch")
        with in_use:
            diff = _evaluate_points(net.units, pts, lines, ws)
            return _max_abs(np.subtract(tvals, diff, out=diff))

    return error


@dataclass(frozen=True)
class ErrorCertificate:
    """Grid maximum plus a Lipschitz fill-in term: a rigorous sup-norm bound."""

    grid_max: float
    lipschitz_target: float
    lipschitz_network: float
    bound: float


def certified_sup_error(net: ShallowNetwork, target: FourierTarget, grid: EvaluationGrid) -> ErrorCertificate:
    """Bound on the sup-norm error over the whole cube, from the grid and both Lipschitz sums.

    Both sums are Lipschitz constants in the sup-norm of x, and every cube
    point lies within ``spacing / 2`` of a grid point in each coordinate, so
    ``bound = grid max + (L_target + L_network) * spacing / 2``.  The
    network's sum is ``lipschitz_bound``, over every unit: a constructed
    network has no unit that is zero on the whole cube.
    """
    grid_max = sup_error(net, target, grid)
    lt = variation(target, 1)  # sum |c(k)| * |k|_1, since |k . (x - y)| <= |k|_1 |x - y|_inf
    ln = lipschitz_bound(net)
    bound = grid_max + (lt + ln) * grid.spacing / 2.0
    return ErrorCertificate(grid_max=grid_max, lipschitz_target=lt, lipschitz_network=ln, bound=bound)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

class AuditCheck(NamedTuple):
    name: str
    observed: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


_ALPHA_TOL = 1e-12
_BIAS_TOL = 1e-12
_BETA_TOL = 1e-9  # relative


def audit(net: ShallowNetwork) -> AuditReport:
    """Re-verify the construction's bounds on a finished network.

    Every check runs on every network, and any failed check fails the
    audit.  The network must have at most ``m_requested`` units (``width``).
    The sampled units are the first ``units.sampled_count``, the affine units
    the rest.  Sampled units must satisfy |alpha|_1 <= 1, bias in [0, 1/pi]
    (``SHIFT_LIMIT``) and |beta| <= 8 pi v2 / m, and number at most
    m' + #strata; the density mass v <= 2 pi v2, since the |cos| integral
    over [0, 1/pi] is at most 1/pi.  Affine units are exempt from the beta
    bound but must keep |alpha|_1 <= 1, bias in [-1, 1] and number at most
    ``MAX_AFFINE_UNITS``.  A network without ``v2``, ``m_requested``,
    ``m_prime`` or ``strata_count`` raises a ``ValueError``.
    """
    meta = net.meta
    if meta is None or None in (meta.v2, meta.m_requested, meta.m_prime, meta.strata_count):
        raise ValueError("audit requires construction metadata")
    u = net.units
    # One column per unit: |alpha|_1, -bias, bias, |beta|.  The row maxima
    # over an origin's columns are all its extremes, from one reduction.
    table = np.empty((4, len(u)))
    np.abs(u.alphas).sum(axis=1, out=table[0])
    np.negative(u.biases, out=table[1])
    table[2] = u.biases
    np.abs(u.betas, out=table[3])

    def _extremes(columns):
        """Count, largest |alpha|_1, lowest and highest bias and largest
        |beta| over the columns of one origin's units; 0.0 with no units."""
        if not columns.size:
            return 0, 0.0, 0.0, 0.0, 0.0
        norm_max, neg_lo, hi, beta_max = columns.max(axis=1).tolist()
        return columns.shape[1], norm_max, -neg_lo, hi, beta_max

    def _geometry(origin, norm_max, lo, hi, floor, ceiling):
        """|alpha|_1 <= 1 and bias in [floor, ceiling] on the units of one origin."""
        return [
            AuditCheck(f"{origin}_alpha_l1", norm_max, 1.0, norm_max <= 1.0 + _ALPHA_TOL),
            AuditCheck(f"{origin}_bias_low", lo, floor, lo >= floor - _BIAS_TOL),
            AuditCheck(f"{origin}_bias_high", hi, ceiling, hi <= ceiling + _BIAS_TOL),
        ]

    n_sampled, norm_max, lo, hi, beta_max = _extremes(table[:, : u.sampled_count])
    width = net.unit_count
    checks = [AuditCheck("width", float(width), float(meta.m_requested), width <= meta.m_requested)]
    checks += _geometry(ORIGIN_SAMPLED, norm_max, lo, hi, 0.0, SHIFT_LIMIT)
    beta_bound = 8.0 * math.pi * meta.v2 / meta.m_requested
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
            2.0 * math.pi * meta.v2,
            meta.v <= 2.0 * math.pi * meta.v2 * (1.0 + _BETA_TOL) + 1e-300,
        )
    )
    count_limit = meta.m_prime + meta.strata_count
    checks.append(AuditCheck("sampled_count", float(n_sampled), float(count_limit), n_sampled <= count_limit))
    n_affine, norm_max, lo, hi, _ = _extremes(table[:, u.sampled_count :])
    checks += _geometry(ORIGIN_AFFINE, norm_max, lo, hi, -1.0, 1.0)
    checks.append(
        AuditCheck("affine_count", float(n_affine), float(MAX_AFFINE_UNITS), n_affine <= MAX_AFFINE_UNITS)
    )
    return AuditReport(tuple(checks))


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits; byte-exact round trips)
# ---------------------------------------------------------------------------

#: The network@2 header keys in writing order, as ``(parse, floor, required)``
#: for ``_read_header``.  No value below a floor comes from ``construct``, and
#: d may not exceed ``MAX_DIMENSION``.  Past d and m, each key is the
#: ``NetworkMeta`` field of that name (N is ``bandwidth``).
_NETWORK_HEADER = {
    "d": (int, 1, True), "m": (int, 0, True), "v": (float, 0.0, True), "N": (int, 1, True),
    "v2": (float, 0.0, False), "r": (int, 1, False), "seed": (int, 0, False), "m_requested": (int, MIN_WIDTH, False),
    "m_prime": (int, 0, False), "strata_count": (int, 0, False), "sampled_count": (int, 0, False),
}


def _column_line(d: int) -> str:
    return ",".join([f"alpha_{j + 1}" for j in range(d)] + ["beta", "bias", "origin"])


def dumps_network(net: ShallowNetwork) -> str:
    meta = net.meta
    if meta is None:
        raise ValueError("serialization requires metadata (v and bandwidth)")
    values = {"d": net.d, "m": net.unit_count, "N": meta.bandwidth}
    header = []
    for key, (parse, _, _) in _NETWORK_HEADER.items():
        value = values[key] if key in values else getattr(meta, key)
        if value is not None:
            header.append(f"{key}={_fmt(value) if parse is float else value}")
    lines = [
        "# schema=network@2",
        "# " + " ".join(header),
        _column_line(net.d),
    ]
    u = net.units
    columns = [[_fmt(x) for x in col] for col in (*u.alphas.T.tolist(), u.betas.tolist(), u.biases.tolist())]
    lines += [",".join(row) for row in zip(*columns, u.origins.tolist())]
    return "\n".join(lines) + "\n"


def loads_network(text: str) -> ShallowNetwork:
    """Parse a network@2 CSV.

    Every number must be finite and every origin ``sampled`` or ``affine``,
    the sampled rows before the affine ones: the audit checks the units on
    either side of that split.  Header items follow ``_NETWORK_HEADER``, and
    ``sampled_count`` must match the sampled rows.
    """
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != "# schema=network@2":
        raise ValueError("not a network CSV")
    if not lines[1].startswith("# "):
        raise ValueError(f"network header line {lines[1]!r} does not start with '# '")
    header = _read_header(lines[1][2:], _NETWORK_HEADER, "network")
    d = header.pop("d")
    if d > MAX_DIMENSION:
        raise ValueError(f"network header has d={d}; it must be <= {MAX_DIMENSION}")
    m = header.pop("m")
    meta = NetworkMeta(bandwidth=header.pop("N"), **header)
    if lines[2] != _column_line(d):
        raise ValueError(f"network column line {lines[2]!r} is not {_column_line(d)!r}")
    rows = [ln for ln in lines[3:] if ln.strip()]
    numbers, origins = _read_rows(rows, ",", "bad unit row", d + 2, d + 3)
    sampled_count = _sampled_prefix(origins, lambda i: f"unit row: {rows[i]!r}")
    values = np.array(numbers, dtype=float).reshape(len(rows), d + 2)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in unit row: {rows[np.argmin(finite)]!r}")
    units = Units(values[:, :d].copy(), values[:, d].copy(), values[:, d + 1].copy(), sampled_count)
    if len(units) != m:
        raise ValueError("unit count does not match header")
    return ShallowNetwork(d, units, meta)


def save_network(net: ShallowNetwork, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_network(net))


def load_network(path) -> ShallowNetwork:
    with open(path, "r") as fh:
        return loads_network(fh.read())

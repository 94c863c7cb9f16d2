"""Complex mode-frequency search and residue-series reconstruction.

Roots of the characteristic function are located inside a search rectangle by
seeding Newton's method at the centre of every cell of a grid (cell side
~ pi/(2N), half the typical root spacing), polishing to |F| < 1e-11,
deduplicating, and validating the total count against the winding number of F
around the rectangle boundary (argument principle, adaptive sampling).  Each
root s_n carries the residue weight

    w_n = 1 / (1 - gamma_tau * sum_{l=1}^{N-1} (N - l) * l * exp(-s_n * l))
        = 1 / F'(s_n),

so the causal amplitude is reconstructed as beta(t) = sum_n w_n exp(s_n t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ComplexFreq, GiantAtomParams, IncompleteSearchError,
                   SearchPlacementError, characteristic_deriv, characteristic_fn)

__all__ = ["DEFAULT_RE_MIN", "MAX_SEEDS", "PoleSet", "find_poles", "beta_from_poles"]

DEFAULT_RE_MIN = -12.0

_NEWTON_ITERATIONS = 60
_MAX_STEP = 10.0          # damp Newton steps so iterates stay evaluable
_STEP_TOL = 1e-15         # a seed retires once |step| <= _STEP_TOL * (1 + |z|)
_BOUNDARY_CLEARANCE = 1e-9
_NUDGE = 1e-6             # rectangle growth applied when a root sits on the boundary
_RESIDUAL_TOL = 1e-11     # a Newton final is a root when |F| falls below this
_SEPARATION = 1e-8        # roots closer than this are one root
_MAX_WINDING_POINTS = 400_000  # boundary samples at which the winding count gives up
MAX_SEEDS = 2 ** 22       # base plus refinement grid seeds: at most 67 MB per copy


class _BoundaryNearRoot(RuntimeError):
    pass


@dataclass(frozen=True)
class PoleSet:
    """Deduplicated roots of the characteristic function in a rectangle,
    sorted by (Im, Re), with their residue weights."""

    params: GiantAtomParams
    s: np.ndarray
    weights: np.ndarray
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    winding: int
    flagged_cells: tuple = field(default=())

    def __len__(self) -> int:
        return len(self.s)

    def modes(self) -> list[ComplexFreq]:
        return [ComplexFreq.from_complex(z) for z in self.s]

    def dark_modes(self, tol: float = 1e-10) -> list[ComplexFreq]:
        return [m for m in self.modes() if m.is_dark(tol)]


def _newton(params: GiantAtomParams, seeds: np.ndarray) -> np.ndarray:
    """Damped Newton from every seed, for at most _NEWTON_ITERATIONS steps.

    A seed retires once its step falls to _STEP_TOL * (1 + |z|); a non-finite
    step is zeroed, so a seed that cannot be evaluated retires where it is.
    """
    z = seeds.astype(complex)
    za, idx = z.copy(), np.arange(len(z))
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_ITERATIONS):
            if not len(idx):
                break
            d = characteristic_fn(params, za) / characteristic_deriv(params, za)
            d = np.where(np.isfinite(d), d, 0.0)
            mag = np.abs(d)
            d = np.where(mag > _MAX_STEP, d * (_MAX_STEP / np.maximum(mag, 1e-300)), d)
            za = za - d
            z[idx] = za
            moving = np.abs(d) > _STEP_TOL * (1.0 + np.abs(za))
            idx, za = idx[moving], za[moving]
    return z


def _dedupe(roots: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Merge clustered roots, keeping the best-polished representative.

    Roots are sorted on (Im, Re) first so the result is independent of the
    order of the seeds.
    """
    order = np.lexsort((roots.real, roots.imag))
    roots = roots[order]
    residuals = residuals[order]
    kept: list[complex] = []
    kept_res: list[float] = []
    for z, r in zip(roots, residuals):
        if kept and abs(z - kept[-1]) <= _SEPARATION:
            if r < kept_res[-1]:
                kept[-1], kept_res[-1] = z, r
            continue
        kept.append(complex(z))
        kept_res.append(float(r))
    return np.asarray(kept, dtype=complex)


def _boundary_points(rect, spacing):
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        count = max(8, int(math.ceil(abs(b - a) / spacing)))
        seg = a + (b - a) * np.arange(count) / count
        pts.append(seg)
    return np.concatenate(pts)


def _winding_number(params, rect, spacing):
    """Winding number of F around the rectangle via adaptive phase tracking.

    Segments are bisected until no phase jump exceeds pi/2, which rules out
    aliasing as long as no root touches the boundary (raises if one does).
    """
    pts = _boundary_points(rect, spacing)
    for _ in range(64):
        closed = np.concatenate([pts, pts[:1]])
        vals = characteristic_fn(params, closed)
        mags = np.abs(vals)
        if mags.min() < 1e-9 * (1.0 + np.abs(closed[np.argmin(mags)])):
            raise _BoundaryNearRoot
        dphi = np.diff(np.angle(vals))
        dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
        bad = np.abs(dphi) > 0.5 * math.pi
        if not bad.any():
            total = dphi.sum() / (2.0 * math.pi)
            w = int(round(total))
            if abs(total - w) > 0.1:
                raise _BoundaryNearRoot
            return w
        idx = np.flatnonzero(bad)
        pts = np.insert(closed[:-1], idx + 1, 0.5 * (closed[idx] + closed[idx + 1]))
        if len(pts) > _MAX_WINDING_POINTS:
            raise _BoundaryNearRoot
    raise _BoundaryNearRoot


def find_poles(params: GiantAtomParams, re_min: float = DEFAULT_RE_MIN,
               im_center: float | None = None, im_halfwidth: float = 10.0) -> PoleSet:
    """Locate all characteristic roots in [re_min, +gamma] x [center +- halfwidth].

    Returns a PoleSet with residue weights; raises IncompleteSearchError if the
    deduplicated root count still disagrees with the boundary winding number
    after one grid refinement, and SearchPlacementError if twelve attempts
    fail to place the boundary clear of every root.  Cells whose Newton
    iteration failed to converge anywhere are reported in flagged_cells.
    When the boundary passes within 1e-9 of a root the rectangle is nudged
    outward and resampled.  Raises ValueError, before building any seed, when
    im_center is not finite or the base and refinement grids together exceed
    MAX_SEEDS.
    """
    if not (math.isfinite(re_min) and re_min < 0):
        raise ValueError(f"re_min must be negative, got {re_min}")
    if im_center is None:
        im_center = -params.omega_tau
    if not math.isfinite(im_center):
        raise ValueError(f"im_center must be finite, got {im_center}")
    if not (math.isfinite(im_halfwidth) and im_halfwidth > 0):
        raise ValueError(f"im_halfwidth must be positive, got {im_halfwidth}")
    cell = math.pi / (2.0 * params.n_legs)

    rect = [re_min, params.gamma_tau, im_center - im_halfwidth, im_center + im_halfwidth]

    def grid_shape(c):  # in floats: a huge rectangle gives inf, not an OverflowError
        return (max(2.0, np.ceil((rect[1] - rect[0]) / c)),
                max(2.0, np.ceil((rect[3] - rect[2]) / c)))

    count = math.prod(grid_shape(cell)) + math.prod(grid_shape(0.5 * cell))
    if count > MAX_SEEDS:
        raise ValueError(f"the search rectangle needs {count:.3g} Newton seeds with its "
                         f"refinement grid, above the budget of {MAX_SEEDS}")

    def seed_grid(c):
        nx, ny = (int(n) for n in grid_shape(c))
        xs = rect[0] + (np.arange(nx) + 0.5) * (rect[1] - rect[0]) / nx
        ys = rect[2] + (np.arange(ny) + 0.5) * (rect[3] - rect[2]) / ny
        return (xs[None, :] + 1j * ys[:, None]).ravel()

    seeds = seed_grid(cell)
    finals = _newton(params, seeds)
    refined = False
    for _ in range(12):
        with np.errstate(all="ignore"):
            res = np.abs(characteristic_fn(params, finals))
        ok = np.isfinite(finals) & np.isfinite(res) & (res < _RESIDUAL_TOL)
        flagged = tuple(complex(z) for z in seeds[~ok])
        cand = finals[ok]
        cand_res = res[ok]

        # grow the rectangle away from any root the boundary nearly touches
        in_re = (cand.real >= rect[0] - _NUDGE) & (cand.real <= rect[1] + _NUDGE)
        in_im = (cand.imag >= rect[2] - _NUDGE) & (cand.imag <= rect[3] + _NUDGE)
        near = (in_im & ((np.abs(cand.real - rect[0]) < _BOUNDARY_CLEARANCE)
                         | (np.abs(cand.real - rect[1]) < _BOUNDARY_CLEARANCE))
                | in_re & ((np.abs(cand.imag - rect[2]) < _BOUNDARY_CLEARANCE)
                           | (np.abs(cand.imag - rect[3]) < _BOUNDARY_CLEARANCE)))
        if near.any():
            rect = [rect[0] - _NUDGE, rect[1] + _NUDGE, rect[2] - _NUDGE, rect[3] + _NUDGE]
            continue

        inside = ((cand.real >= rect[0]) & (cand.real <= rect[1])
                  & (cand.imag >= rect[2]) & (cand.imag <= rect[3]))
        roots = _dedupe(cand[inside], cand_res[inside])

        try:
            w = _winding_number(params, rect, spacing=0.5 * cell)
        except _BoundaryNearRoot:
            rect = [rect[0] - _NUDGE, rect[1] + _NUDGE, rect[2] - _NUDGE, rect[3] + _NUDGE]
            continue

        if w == len(roots):
            weights = 1.0 / characteristic_deriv(params, roots)
            return PoleSet(params=params, s=roots, weights=weights,
                           re_min=rect[0], re_max=rect[1],
                           im_min=rect[2], im_max=rect[3],
                           winding=w, flagged_cells=flagged)
        if not refined:
            refined = True
            extra = seed_grid(0.5 * cell)
            seeds = np.concatenate([seeds, extra])
            finals = np.concatenate([finals, _newton(params, extra)])
            continue
        raise IncompleteSearchError(found=len(roots), expected=w)
    raise SearchPlacementError("could not place the search rectangle clear of all roots")


def beta_from_poles(pole_set: PoleSet, t):
    """Residue-series amplitude sum_n w_n exp(s_n t) for t > 0.

    Accepts a scalar time or an ndarray of times.
    """
    if len(pole_set) == 0:
        raise ValueError("cannot reconstruct the amplitude from an empty pole set")
    ts = np.asarray(t, dtype=float)
    if ts.size and ts.min() <= 0:
        raise ValueError("the pole series represents the causal solution; need t > 0")
    vals = np.exp(ts[..., None] * pole_set.s) @ pole_set.weights
    return complex(vals) if ts.shape == () else vals

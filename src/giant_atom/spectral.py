"""Complex mode-frequency search and residue-series reconstruction.

Roots of the characteristic function are located inside a search rectangle by
seeding Newton's method once at the centre of every cell of one grid (cell side
~ pi/(2N), half the typical root spacing), accepting a Newton final whose |F|
is at most 1e-13 times the size of F's terms there, |s| + |omega| + N*gamma/2 +
gamma * sum_l (N - l) * exp(-l * Re s) (a backward-error test: F's terms grow
far left and at strong coupling, and so does the rounding of a true root),
deduplicating, and requiring the count to equal the winding number of F around
the rectangle boundary (argument principle, adaptive sampling); any other count
raises IncompleteSearchError.  Each root s_n carries the residue weight

    w_n = 1 / (1 - gamma_tau * sum_{l=1}^{N-1} (N - l) * l * exp(-s_n * l))
        = 1 / F'(s_n),

so the causal amplitude is reconstructed as beta(t) = sum_n w_n exp(s_n t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ComplexFreq, GiantAtomParams, IncompleteSearchError,
                   SearchPlacementError, _delay_sum, characteristic_deriv, characteristic_fn,
                   check_budget, check_positive)

__all__ = ["DEFAULT_RE_MIN", "MAX_SEEDS", "PoleSet", "find_poles", "beta_from_poles"]

DEFAULT_RE_MIN = -12.0

_NEWTON_ITERATIONS = 60
_MAX_STEP = 10.0          # damp Newton steps so iterates stay evaluable
_STEP_TOL = 1e-15         # a seed retires once |step| <= _STEP_TOL * (1 + |z|)
_NUDGE = 1e-6             # rectangle growth applied when a root sits on the boundary
_RESIDUAL_TOL = 1e-13     # a Newton final is a root when |F| <= this times _term_scale
_SEPARATION = 1e-8        # roots closer than this are one root
_MAX_WINDING_POINTS = 400_000  # samples bisection may add before the winding count gives up
MAX_SEEDS = 2 ** 22       # Newton seeds in the grid: at most 67 MB per complex copy


@dataclass(frozen=True)
class PoleSet:
    """Deduplicated roots of the characteristic function in a rectangle,
    sorted by (Im, Re), with their residue weights.  flagged_cells holds the
    seeds whose Newton run did not converge to a root, not grid cells."""

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


def _term_scale(params: GiantAtomParams, s: np.ndarray) -> np.ndarray:
    """Size of F's terms at s, |s| + |omega| + N*gamma/2 + gamma*sum (N-l) e^{-l Re s}:
    the scale against which a computed root's residual |F| is judged."""
    n, g = params.n_legs, params.gamma_tau
    return (np.abs(s) + abs(params.omega_tau) + 0.5 * n * g
            + g * _delay_sum(s.real, [n - l for l in range(1, n)]))


def _dedupe(roots: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Merge clustered roots, keeping each cluster's best-polished member.

    Roots are sorted on (Im, Re) first, so the result is independent of the
    order of the seeds.  A cluster ends where the gap to the next root exceeds
    _SEPARATION; of equal residuals the (Im, Re)-first member is kept.
    """
    order = np.lexsort((roots.real, roots.imag))
    roots, residuals = roots[order], residuals[order]
    starts = np.abs(np.diff(roots, prepend=np.inf)) > _SEPARATION
    # a stable sort on (cluster, residual) keeps the clusters' sizes and order
    return roots[np.lexsort((residuals, np.cumsum(starts)))[starts]]


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
    aliasing as long as no root touches the boundary.  Returns None when a
    sample of F falls below 1e-9 * (1 + |s|), when the phase sum settles more
    than 0.1 from an integer, or when bisection adds more than
    _MAX_WINDING_POINTS samples (or runs 64 passes) without settling.
    """
    pts = _boundary_points(rect, spacing)
    cap = len(pts) + _MAX_WINDING_POINTS
    for _ in range(64):
        closed = np.concatenate([pts, pts[:1]])
        vals = characteristic_fn(params, closed)
        mags = np.abs(vals)
        if mags.min() < 1e-9 * (1.0 + np.abs(closed[np.argmin(mags)])):
            return None
        dphi = np.diff(np.angle(vals))
        dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
        bad = np.abs(dphi) > 0.5 * math.pi
        if not bad.any():
            total = dphi.sum() / (2.0 * math.pi)
            w = int(round(total))
            return w if abs(total - w) <= 0.1 else None
        idx = np.flatnonzero(bad)
        pts = np.insert(closed[:-1], idx + 1, 0.5 * (closed[idx] + closed[idx + 1]))
        if len(pts) > cap:
            break
    return None


def find_poles(params: GiantAtomParams, re_min: float = DEFAULT_RE_MIN,
               im_center: float | None = None, im_halfwidth: float = 10.0) -> PoleSet:
    """Locate all characteristic roots in [re_min, +gamma] x [center +- halfwidth].

    First the rectangle is placed: while the boundary winding number cannot
    settle (a sample of F on it falls below 1e-9 * (1 + |s|), or the count is
    not clean) it grows by 1e-6 on every side, and after twelve failed walks
    SearchPlacementError is raised before any seed exists.  Then it is seeded:
    Newton runs once from a grid of cell ~ pi/(2N) laid on the settled
    rectangle, and IncompleteSearchError is raised when the deduplicated
    roots do not number exactly the winding number.  The PoleSet holds the
    residue weights and the settled rectangle's bounds; seeds whose Newton
    run did not converge to a root are in flagged_cells.  Raises ValueError,
    before any work, when im_center is not finite or the grid exceeds
    MAX_SEEDS.
    """
    if not (math.isfinite(re_min) and re_min < 0):
        raise ValueError(f"re_min must be negative, got {re_min}")
    if im_center is None:
        im_center = -params.omega_tau
    if not math.isfinite(im_center):
        raise ValueError(f"im_center must be finite, got {im_center}")
    check_positive("im_halfwidth", im_halfwidth)
    cell = math.pi / (2.0 * params.n_legs)

    rect = [re_min, params.gamma_tau, im_center - im_halfwidth, im_center + im_halfwidth]

    def grid_shape():  # in floats: a huge rectangle gives inf, not an OverflowError
        return (max(2.0, np.ceil((rect[1] - rect[0]) / cell)),
                max(2.0, np.ceil((rect[3] - rect[2]) / cell)))

    check_budget("the search rectangle", math.prod(grid_shape()), "Newton seeds", MAX_SEEDS)

    for _ in range(12):  # place: grow the rectangle away from any root it touches
        w = _winding_number(params, rect, spacing=0.5 * cell)
        if w is not None:
            break
        rect = [rect[0] - _NUDGE, rect[1] + _NUDGE, rect[2] - _NUDGE, rect[3] + _NUDGE]
    else:
        raise SearchPlacementError("could not place the search rectangle clear of all roots")

    nx, ny = (int(n) for n in grid_shape())  # seed: one grid on the settled rectangle
    xs = rect[0] + (np.arange(nx) + 0.5) * (rect[1] - rect[0]) / nx
    ys = rect[2] + (np.arange(ny) + 0.5) * (rect[3] - rect[2]) / ny
    seeds = (xs[None, :] + 1j * ys[:, None]).ravel()
    finals = _newton(params, seeds)
    with np.errstate(all="ignore"):
        res = np.abs(characteristic_fn(params, finals)) / _term_scale(params, finals)
    ok = np.isfinite(finals) & np.isfinite(res) & (res <= _RESIDUAL_TOL)
    inside = ok & ((finals.real >= rect[0]) & (finals.real <= rect[1])
                   & (finals.imag >= rect[2]) & (finals.imag <= rect[3]))
    roots = _dedupe(finals[inside], res[inside])
    if w != len(roots):
        raise IncompleteSearchError(found=len(roots), expected=w)
    return PoleSet(params, roots, 1.0 / characteristic_deriv(params, roots), *rect,
                   winding=w, flagged_cells=tuple(complex(z) for z in seeds[~ok]))


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

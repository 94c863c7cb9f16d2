"""Complex mode-frequency search and residue-series reconstruction.

Roots of the characteristic function are located inside a search rectangle by
Newton's method from seeds on F's asymptotic root chains (Bellman & Cooke,
Differential-Difference Equations, 1963, ch. 12).  Each 2*pi band k of Im s
that the rectangle touches gets one trial s0 = 2*pi*i*k; at a trial F = 0 is a
polynomial of degree N - 1 in exp(s), whose roots are the eigenvalues of its
companion matrix (Edelman & Murakami, Math. Comp. 64, 1995), and each root
gives three seeds, shifted by -2*pi*i, 0 and +2*pi*i, so every band is also
seeded from its neighbours' trials (without the shifts, roots near band edges
were missed).  One more seed, the root -(i*omega + N*gamma/2) of F's
non-delayed part, finds the one root on no chain when weak coupling leaves it
far from them.  MAX_SEEDS bounds the complex values built, counted before any
is: the first boundary walk's samples, each trial's (N-1) x (N-1) companion
matrix and 3 * (N - 1) seeds, and that seed.
A Newton final is accepted when its |F| is at most 1e-13 times the size
of F's terms there, |s| + |omega| + N*gamma/2 + gamma * sum_l (N - l) *
exp(-l * Re s) + |s| * gamma * sum_l (N - l) * l * exp(-l * Re s) (a
backward-error test: F's terms grow far left and at strong coupling, and so
does the rounding of a true root, which exp(-s) adds to at large |s|); the
accepted finals are deduplicated, and their count must equal the winding
number of F around the rectangle boundary (argument principle, with samples
close enough that no root can slip between two); any other count raises
IncompleteSearchError.  Each root s_n carries the residue weight

    w_n = 1 / (1 - gamma_tau * sum_{l=1}^{N-1} (N - l) * l * exp(-s_n * l))
        = 1 / F'(s_n),

so the causal amplitude is reconstructed as beta(t) = sum_n w_n exp(s_n t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (TWO_PI, ComplexFreq, GiantAtomParams, IncompleteSearchError,
                   SearchPlacementError, _delay_sum, _term_scale, characteristic_deriv,
                   characteristic_fn, check_budget, check_positive)

__all__ = ["DEFAULT_RE_MIN", "MAX_SEEDS", "PoleSet", "find_poles", "beta_from_poles"]

DEFAULT_RE_MIN = -12.0

_NEWTON_ITERATIONS = 60
_MAX_STEP = 10.0          # damp Newton steps so iterates stay evaluable
_STEP_TOL = 1e-15         # a seed retires once |step| <= _STEP_TOL * (1 + |z|)
_NUDGE = 1e-6             # rectangle growth applied when a root sits on the boundary
_RESIDUAL_TOL = 1e-13     # a Newton final is a root when |F| <= this times _term_scale
_SEPARATION = 1e-8        # roots closer than this are one root
_MAX_WINDING_POINTS = 400_000  # samples bisection may add before the winding count gives up
MAX_SEEDS = 2 ** 22       # walk samples, companion entries and seeds: 67 MB of complex values


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Deduplicated roots of the characteristic function in a rectangle,
    sorted by (Im, Re), with their residue weights.  flagged_cells holds the
    chain seeds whose Newton run did not converge to a root (the name is kept
    from an earlier grid of seed cells).  Pole sets compare by identity."""

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


def _chain_seeds(params: GiantAtomParams, bands: np.ndarray) -> np.ndarray:
    """Newton seeds on F's root chains: 3 * (N - 1) for each band's one trial.

    Band k of Im s has the trial s0 = 2*pi*i*k.  With the non-delayed term held
    at s0, F(s) = 0 is a polynomial in w = exp(s),
    (s0 + i*omega + N*gamma/2) * w^(N-1) + gamma * sum_l (N - l) * w^(N-1-l) = 0,
    whose N - 1 roots are the eigenvalues of its companion matrix; every trial's
    matrix goes into one stacked eigvals call.  The polynomial is made monic by
    its lead coefficient, which never vanishes, not by gamma, which may be as
    small as a subnormal, and -gamma / lead is built from real divisions by
    |lead|: numpy's complex division overflows when lead is real and below
    1/DBL_MAX (at omega/2pi = -k).  A root w gives the seeds
    Log w + 2*pi*i*(k + j), j = -1, 0, 1.
    """
    n, g = params.n_legs, params.gamma_tau
    lead = 1j * (TWO_PI * bands + params.omega_tau) + 0.5 * n * g  # real part N*gamma/2 > 0
    mag = np.abs(lead)
    companion = np.zeros((len(bands), n - 1, n - 1), dtype=complex)
    companion[:, 1:, :-1] = np.eye(n - 2)
    companion[:, :, -1] = np.outer(g / mag * (lead.imag / mag * 1j - lead.real / mag), range(1, n))
    shifts = 1j * TWO_PI * (bands[:, None, None] + np.array([-1.0, 0.0, 1.0]))
    with np.errstate(divide="ignore"):  # w underflows to 0 at gamma ~ 1e-323: a seed at -inf
        return (np.log(np.linalg.eigvals(companion))[..., None] + shifts).ravel()


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


def _side_samples(rect, spacing):
    """First-pass sample counts on the bottom, right, top and left sides, at
    least 8 each; in floats, so a huge side gives inf, not an OverflowError."""
    width, height = rect[1] - rect[0], rect[3] - rect[2]
    return [max(8.0, float(np.ceil(side / spacing))) for side in (width, height, width, height)]


def _boundary_points(rect, spacing):
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    pts = []
    for a, b, count in zip(corners, corners[1:] + corners[:1], _side_samples(rect, spacing)):
        pts.append(a + (b - a) * np.arange(int(count)) / count)
    return np.concatenate(pts)


def _winding_number(params, rect, spacing):
    """Winding number of F around the rectangle via adaptive phase tracking.

    A segment [a, b] is bisected while L * |b - a| >= max(|F(a)|, |F(b)|), where
    L = 1 + gamma * sum_l (N - l) * l * exp(-l * min(Re a, Re b)) bounds |F'|
    on it.  When no segment needs it, F stays on each in a disk about F(a) or
    F(b) that excludes 0, so it turns by less than pi/2 there, and no root, nor
    a pair of roots, can hide between two samples; the wrapped phase steps then
    sum to a multiple of 2*pi.  Returns None when a sample of F falls below
    1e-9 * (1 + |s|), or when bisection adds more than _MAX_WINDING_POINTS
    samples (or runs 64 passes).
    """
    n, g = params.n_legs, params.gamma_tau
    deriv_weights = [(n - l) * l for l in range(1, n)]
    pts = _boundary_points(rect, spacing)
    cap = len(pts) + _MAX_WINDING_POINTS
    for _ in range(64):
        closed = np.concatenate([pts, pts[:1]])
        vals = characteristic_fn(params, closed)
        mags = np.abs(vals)
        if mags.min() < 1e-9 * (1.0 + np.abs(closed[np.argmin(mags)])):
            return None
        lipschitz = 1.0 + g * _delay_sum(np.minimum(closed[:-1].real, closed[1:].real),
                                         deriv_weights)
        bad = lipschitz * np.abs(np.diff(closed)) >= np.maximum(mags[:-1], mags[1:])
        if not bad.any():
            dphi = np.diff(np.angle(vals))
            dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
            return int(round(dphi.sum() / (2.0 * math.pi)))
        idx = np.flatnonzero(bad)
        pts = np.insert(closed[:-1], idx + 1, 0.5 * (closed[idx] + closed[idx + 1]))
        if len(pts) > cap:
            break
    return None


def find_poles(params: GiantAtomParams, re_min: float = DEFAULT_RE_MIN,
               im_center: float | None = None, im_halfwidth: float = 10.0) -> PoleSet:
    """Locate all characteristic roots in [re_min, +gamma] x [center +- halfwidth].

    First the rectangle is placed: while the boundary winding number cannot
    be taken (a sample of F on it falls below 1e-9 * (1 + |s|), or bisection
    runs past its budget) it grows by 1e-6 on every side, and after twelve
    failed walks SearchPlacementError is raised before any seed exists.
    Then it is seeded: Newton runs once from the chain seeds of every band
    from floor(im_min / 2pi) to ceil(im_max / 2pi) (see _chain_seeds) and from
    -(i*omega + N*gamma/2), and IncompleteSearchError is raised when
    the deduplicated roots do not number exactly the winding number.  The
    PoleSet holds the residue weights and the settled rectangle's bounds;
    seeds whose Newton run did not converge to a root are in flagged_cells.
    Raises ValueError, before any work, when im_center is not finite, F's
    terms overflow at the left edge, or the walk and the seeding would build
    more than MAX_SEEDS complex values.
    """
    if not (math.isfinite(re_min) and re_min < 0):
        raise ValueError(f"re_min must be negative, got {re_min}")
    if im_center is None:
        im_center = -params.omega_tau
    if not math.isfinite(im_center):
        raise ValueError(f"im_center must be finite, got {im_center}")
    check_positive("im_halfwidth", im_halfwidth)
    rect = [re_min, params.gamma_tau, im_center - im_halfwidth, im_center + im_halfwidth]
    d, spacing = params.n_legs - 1, math.pi / (4.0 * params.n_legs)
    # in floats: a huge rectangle gives an inf count, not an OverflowError
    k_lo = float(np.floor(rect[2] / TWO_PI))
    n_bands = float(np.ceil(rect[3] / TWO_PI)) - k_lo + 1.0
    check_budget("the search rectangle",
                 sum(_side_samples(rect, spacing)) + n_bands * d * (d + 3) + 1.0,
                 "boundary samples, companion entries and seeds", MAX_SEEDS)
    with np.errstate(over="ignore"):  # F's terms peak 12 nudges left of re_min
        deepest = _term_scale(params, np.array([rect[0] - 12 * _NUDGE]))[0]
    if not math.isfinite(deepest):
        raise ValueError(f"F overflows at re_min = {re_min:g} with n_legs = {params.n_legs}; "
                         "move re_min towards 0")

    for _ in range(12):  # place: grow the rectangle away from any root it touches
        w = _winding_number(params, rect, spacing)
        if w is not None:
            break
        rect = [rect[0] - _NUDGE, rect[1] + _NUDGE, rect[2] - _NUDGE, rect[3] + _NUDGE]
    else:
        raise SearchPlacementError("could not place the search rectangle clear of all roots")

    # seed: one chain trial per band, plus the root of F's non-delayed part,
    # where weak coupling leaves the one root that is on no chain
    seeds = np.append(_chain_seeds(params, k_lo + np.arange(n_bands)),
                      -1j * params.omega_tau - 0.5 * params.n_legs * params.gamma_tau)
    finals = _newton(params, seeds)
    with np.errstate(all="ignore"):
        res = np.abs(characteristic_fn(params, finals)) / _term_scale(params, finals)
    ok = res <= _RESIDUAL_TOL
    inside = ok & ((finals.real >= rect[0]) & (finals.real <= rect[1])
                   & (finals.imag >= rect[2]) & (finals.imag <= rect[3]))
    roots = _dedupe(finals[inside], res[inside])
    if w != len(roots):
        raise IncompleteSearchError(found=len(roots), expected=w)
    return PoleSet(params, roots, 1.0 / characteristic_deriv(params, roots), *rect,
                   winding=w, flagged_cells=tuple(complex(z) for z in seeds[~ok]))


def beta_from_poles(pole_set: PoleSet, t):
    """Residue-series amplitude sum_n w_n exp(s_n t) for finite t > 0.

    Accepts a scalar time or an ndarray of times; any other time, nan
    included, raises ValueError.  More than two evenly spaced ascending
    times (in flattened order, t_k = t_0 + k * dt with dt >= 0, to within
    4 eps |t_k|) are summed from two exponential tables and one matrix
    product: with B = ceil(sqrt(n)) and k = a * B + b,

        beta(t_k) = sum_n [w_n exp(s_n a B dt)] * exp(s_n (t_0 + b dt)),

    (A + B) * len(pole_set) exponentials in place of n * len(pole_set) (the
    sqrt(n) splitting of Paterson & Stockmeyer, SIAM J. Comput. 2, 1973),
    whenever the two tables fit in MAX_SEEDS complex values.  With dt >= 0 and
    Re s_n <= 0 neither table grows; a descending grid would need
    exp(-s_n a B dt), which overflows for deep poles over a long span.  Other
    times are summed over blocks of at most MAX_SEEDS // len(pole_set) times,
    so the times-by-poles matrix stays within MAX_SEEDS complex values however
    many times are asked for.
    """
    if len(pole_set) == 0:
        raise ValueError("cannot reconstruct the amplitude from an empty pole set")
    ts = np.asarray(t, dtype=float)
    if ts.size and not (ts.min() > 0 and ts.max() < math.inf):  # nan fails both
        raise ValueError("the pole series represents the causal solution; need finite t > 0")
    flat = ts.ravel()
    n = flat.size
    cols = math.isqrt(max(n - 1, 0)) + 1  # B = ceil(sqrt(n))
    rows = -(-n // cols)  # A
    if n > 2 and (rows + cols) * len(pole_set) <= MAX_SEEDS:
        step = (flat[-1] - flat[0]) / (n - 1)
        grid = flat[0] + step * np.arange(n)
        if step >= 0 and np.all(np.abs(flat - grid) <= 4.0 * np.finfo(float).eps * flat):  # t > 0
            small = np.exp(grid[:cols, None] * pole_set.s)
            big = np.exp((cols * step) * np.arange(rows)[:, None] * pole_set.s) * pole_set.weights
            return (big @ small.T).ravel()[:n].reshape(ts.shape)
    block = max(1, MAX_SEEDS // len(pole_set))
    vals = np.empty(flat.size, dtype=complex)
    for i in range(0, flat.size, block):
        vals[i:i + block] = np.exp(flat[i:i + block, None] * pole_set.s) @ pole_set.weights
    return complex(vals[0]) if ts.shape == () else vals.reshape(ts.shape)

"""Waveguide field reconstruction and trapped-field intensities.

The field amplitude is the retarded sum over coupling points,

    phi(x, t) = -i * sqrt(gamma/2) * sum_m beta(t - |x - x_m|) * Theta(t - |x - x_m|)

in tau = v = 1 units, and p(x, t) = |phi|^2 is the probability density of
finding the excitation at x.  Long after the transients have escaped, a dark
index n leaves the stationary profile

    p_n(x) = 8*gamma * sin^2(n pi/N) * sin^2(n pi m'/N)
             * sin^2[n pi (m' + 2 lambda - 1)/N] / (2 sin^2(n pi/N) + N gamma)^2

between the outermost coupling points, where x = (m' - 1) + lambda with
m' = 1..N and lambda in [0, 1), and exactly zero outside.

The field probability over the whole light cone splits at the outermost
coupling points.  Outside [0, N-1] every wave is outgoing, so both tails
together carry the emitted flux gamma * int_0^t |e(u)|^2 du, with
e(u) = sum_{l=0}^{N-1} beta(u - l) * Theta(u - l) (the input-output view of a
cascaded emitter, Gardiner & Collett, PRA 31, 3761, 1985).  Both
quadratures read beta on rows of nodes at whole-tau shifts of one pattern.
Inside, every cell [c, c+1] between neighbouring coupling points has the same
kinks, so one cell's Simpson panels, mirror-symmetric about its centre, serve
all N-1 cells.  N-1 rows of beta on that cell's nodes, one per whole distance
to a coupling point, give the right-moving part of phi on every cell by one
prefix sum, and the left-moving part is the same sums mirrored, since the
coupling points mirror about the atom's centre; the cost does not grow with
t.  The flux takes one row of nodes per whole interval of u, gathered through
one interpolation stencil built once per steps_per_tau, and e on interval k is
the sum of rows k-N+1 .. k.  The inside cell's nodes, probes and weights are
built once per cut and kept, read-only, in small caches beside the stencil.
The walk keeps its N-1 last rows and its running sum, O(N * 201) values
whatever t is, so a later call on the same trace at a later time resumes it
instead of walking again from u = 0; a trace's samples are read-only, so that
state stays true of the trace object.  At a whole t the flux's partial
interval is empty and is skipped.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (AmplitudeTrace, DarkPair, DarkState, FieldGrid, GiantAtomParams, _term_scale,
                   characteristic_fn, check_budget, check_mode_index, check_positive)
from .darkstates import _sin2, dark_amplitude, dark_frequency, rwa_check
from .dde import MAX_TRACE_SAMPLES, _intervals, _stencil, beta_at, beta_at_many, check_trace_times

__all__ = [
    "DEFAULT_DX",
    "GridSpec",
    "field_amplitude",
    "intensity_map",
    "waveguide_probability",
    "total_probability",
    "bound_profile",
    "total_intensity",
    "oscillating_intensity",
    "dark_state_record",
]

DEFAULT_DX = 1.0 / 200.0
_BLOCK = 16       # whole tau intervals per block of the outgoing flux
_DARK_TOL = 1e-10  # largest |F(-i Omega_n)| over F's term scale at which index n is dark
# where the last outgoing-flux walk stopped: its trace (weakly), n_legs, the whole
# intervals walked, the N-1 rows carried past them and the power summed over them;
# its arrays are never written in place
_cursor = (lambda: None, 0, 0, 0.0, 0.0)  # no walk yet


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial window and the instants at which to sample it."""

    x_min: float
    x_max: float
    dx: float = DEFAULT_DX
    times: tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise ValueError("x_max must exceed x_min")
        check_positive("dx", self.dx)
        if not math.isfinite((self.x_max - self.x_min) / self.dx):
            raise ValueError(f"the window [{self.x_min:g}, {self.x_max:g}] at dx = {self.dx:g} "
                             "does not hold a finite number of points")

    @property
    def xs(self) -> np.ndarray:
        count = int(math.floor((self.x_max - self.x_min) / self.dx + 1e-9)) + 1
        return self.x_min + self.dx * np.arange(count)


def _phi(params: GiantAtomParams, trace: AmplitudeTrace, xs: np.ndarray,
         t: float) -> np.ndarray:
    """Field amplitude on an array of positions at one instant.

    Point m's wave counts at x when t - |x - x_m| >= 0, and reads beta there,
    its retarded time clipped to t_max.
    """
    total = np.zeros(np.shape(xs), dtype=complex)
    for xm in params.coupling_points:
        on = t - np.abs(xs - xm) >= 0.0
        total[on] += beta_at_many(trace, np.clip(t - np.abs(xs[on] - xm), 0.0, trace.t_max))
    return (-1j * math.sqrt(0.5 * params.gamma_tau)) * total


def field_amplitude(params: GiantAtomParams, trace: AmplitudeTrace,
                    x: float, t: float) -> complex:
    """Retarded-sum field amplitude phi(x, t); zero before any wavefront arrives."""
    check_trace_times(trace, t)
    return complex(_phi(params, trace, np.asarray([float(x)]), t)[0])


def intensity_map(params: GiantAtomParams, trace: AmplitudeTrace,
                  grid: GridSpec) -> list[FieldGrid]:
    """Sample p(x, t) = |phi|^2 on the grid for every requested instant."""
    if not grid.times:
        raise ValueError("grid spec lists no sample times")
    check_trace_times(trace, grid.times)
    xs = grid.xs
    return [FieldGrid(x_min=grid.x_min, x_max=grid.x_max, dx=grid.dx,
                      values=np.abs(_phi(params, trace, xs, t)) ** 2, t=t)
            for t in grid.times]


def _cone_integral(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """Composite Simpson integral of p(x, t) over the atom [0, N-1].

    |phi|^2 can kink only where t - |x - x_m| is whole, so every cell [c, c+1]
    has the same cuts, c + a and c + 1 - a with a = min(frac(t), 1 - frac(t)),
    and one cell's nodes, probes and weights (_cone_cell, built once per a)
    serve every cell.  At x = c + y point m <= c reads beta(t - d - y)
    with d = c - m, and point m > c reads beta(t - e + y), which is
    beta(t - (e - 1) - (1 - y)), with e = m - c.  So the N-1 rows
    R[d] = beta(t - d - y), d = 0 .. N-2, serve every cell: with ends the
    prefix sums of R, phi_R on cell c is ends[c] and phi_L is ends[N-2-c]
    read at 1 - y, one prefix sum for both.  A row counts on a whole
    panel or not at all, by the light cone at the panel's midpoint, so a
    wavefront end takes beta(0).
    """
    f = t - math.floor(t)
    nodes, probes, weights = _cone_cell(min(f, 1.0 - f))
    n = params.n_legs - 1
    # the N-1 rows and their prefix sums, held at once
    check_budget(f"the inside cone of {params.n_legs} coupling points",
                 2 * n * len(nodes), "values", MAX_TRACE_SAMPLES)
    shifts = t - np.arange(n)[:, None]
    on = shifts - probes >= 0.0
    rows = on * beta_at_many(trace, np.clip(shifts - nodes, 0.0, trace.t_max))
    ends = np.cumsum(rows, axis=0)
    phi = ends + ends[::-1, ::-1]
    return 0.5 * params.gamma_tau * float(np.sum(np.abs(phi) ** 2 @ weights))


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only, as every cached pattern is: callers share it."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=32)
def _cone_cell(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One cell's Simpson nodes, the probe of each node's panel and the weights,
    for cuts at a and 1 - a; built once per a, and read-only.

    The panels run between the cuts in even numbers of steps of at most
    DEFAULT_DX, the right group the left one mirrored, so node y's mirror
    1 - y is a node too.  A node's probe is its panel group's midpoint.
    """
    nodes, probes, weights = [], [], []
    for start, width in ((0.0, a), (a, (1.0 - a) - a), (1.0 - a, a)):
        if width >= 1e-12:
            k = _panels(width)
            nodes.append(start + width / k * np.arange(k + 1))
            probes.append(np.full(k + 1, start + 0.5 * width))
            weights.append(width / (3.0 * k) * _simpson_weights(k))
    return tuple(_read_only(np.concatenate(part)) for part in (nodes, probes, weights))


def _panels(width: float) -> int:
    """Even number of Simpson panels of at most DEFAULT_DX across width (at least 2)."""
    return max(2, 2 * math.ceil(width / (2.0 * DEFAULT_DX)))


@functools.lru_cache(maxsize=128)
def _simpson_weights(k: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 over an even number k of
    panels; built once per k, and read-only."""
    return _read_only(np.concatenate([[1.0], np.tile([4.0, 2.0], k // 2)[:-1], [1.0]]))


def _simpson(values: np.ndarray, width: float) -> float:
    """Composite Simpson integral of an odd number of evenly spaced values across width."""
    return width / (3.0 * (len(values) - 1)) * float(values @ _simpson_weights(len(values) - 1))


@functools.lru_cache(maxsize=8)
def _flux_stencil(per_tau: int) -> tuple[np.ndarray, np.ndarray]:
    """The outgoing flux's stencil on the nodes j/nsub of one whole interval of
    per_tau steps: each node's four sample columns within the interval and their
    four cubic weights; built once per per_tau, and read-only.  The last node
    sits at offset 1 on the interval's own last sample.
    """
    nsub = _panels(1.0)
    first, weights = _stencil(np.arange(nsub + 1) / nsub * per_tau, 0, per_tau)
    return _read_only(first[:, None] + np.arange(4)), _read_only(np.stack(weights, axis=-1))


def _outgoing_flux(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """gamma * int_0^t |e(u)|^2 du, the probability both tails hold at time t.

    beta is interpolated once per node, on one row of nodes k + j/nsub,
    j = 0 .. nsub, per interval [k, k+1].  Every delay is whole, so e on
    interval k is the sum of rows k-N+1 .. k: row k's first node takes copy
    l = k at beta(0), the right limit at the wavefront, and its last node
    leaves copy k+1 out, the left limit.  The nodes sit at one pattern in
    every whole interval, so their stencil (_flux_stencil) is built once per
    steps_per_tau and shared by every call and trace at that step: the four
    sample columns of each node within the interval and their cubic weights,
    the last node at offset 1 on the interval's own last sample.  A block of
    _BLOCK whole intervals is then one gather of their samples and one
    weighted sum, written into one buffer after the N-1 rows carried from
    before the block (zero before u = 0), and e is a sum over a sliding window
    of N rows of that buffer.  The partial interval [floor(t), t] takes rows
    of its own; at a whole t it is empty and is skipped.

    The walk resumes where the last one stopped (_cursor) when that was on
    the same trace object and n_legs and at most floor(t) whole intervals in,
    so calls at ascending times on one trace walk each interval once; any
    other call walks from u = 0.  The state kept is the N-1 carried rows and
    power, O(N * 201) values whatever t is; it cannot go stale, since every
    AmplitudeTrace holds its samples read-only.
    """
    global _cursor
    n_legs, whole = params.n_legs, int(math.floor(t))
    per_tau = 2 * trace.steps_per_tau
    cols, weights = _flux_stencil(per_tau)
    samples = _intervals(trace.samples, per_tau)  # row k: the 2M+1 samples of interval k
    rows = np.zeros((n_legs - 1 + _BLOCK, len(cols)), dtype=complex)  # N-1 carried, then new
    # windows[i] holds the N rows whose sum is e on the block's interval i
    windows = np.lib.stride_tricks.sliding_window_view(rows, n_legs, axis=0)
    ref, legs, done, carry, power = _cursor
    if not (ref() is trace and legs == n_legs and done <= whole):
        done, carry, power = 0, 0.0, 0.0  # the empty state: a walk from u = 0
    rows[:n_legs - 1] = carry
    power = np.zeros(len(cols)) + power  # |e|^2 summed over the whole intervals, node by node
    for start in range(done, whole, _BLOCK):
        count = min(_BLOCK, whole - start)
        np.einsum("kjs,js->kj", samples[start:start + count, cols], weights,
                  out=rows[n_legs - 1:][:count])
        power += np.sum(np.abs(windows[:count].sum(-1)) ** 2, axis=0)
        rows[:n_legs - 1] = rows[count:][:n_legs - 1]
    _cursor = (weakref.ref(trace), n_legs, whole, rows[:n_legs - 1].copy(), power)
    frac = t - whole
    if not frac:  # the partial interval [floor(t), t] is empty and adds nothing
        return params.gamma_tau * _simpson(power, 1.0)
    nsub = _panels(frac)
    starts = np.arange(max(0, whole - n_legs + 1), whole + 1)[:, None]
    e = beta_at_many(trace, starts + frac / nsub * np.arange(nsub + 1)).sum(axis=0)
    return params.gamma_tau * (_simpson(power, 1.0) + _simpson(np.abs(e) ** 2, frac))


def waveguide_probability(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """Field probability integrated over the light cone [x_1 - t, x_N + t].

    The inside [0, N-1] is composite Simpson on one cell's mirror-symmetric
    panels between the closed-form kinks of |phi|^2, with phi on all N-1 cells
    from N-1 rows of beta on that cell's nodes, read forwards for the
    right-moving waves and mirrored for the left-moving ones.  The two tails
    outside it add the outgoing flux gamma * int_0^t |e(u)|^2 du, composite
    Simpson on each whole interval of u, _BLOCK intervals per gather through
    one stencil, and on the partial one when t is not whole.  What depends
    only on the step or the cut is built once and shared read-only: the
    flux's stencil per steps_per_tau, the cell's nodes, probes and weights per
    cut a = min(frac(t), 1 - frac(t)), and the Simpson weights per panel
    count.  The walk over the whole intervals resumes from the last call's on
    the same trace object and n_legs when t has not gone back past it, so
    ascending times on one trace cost one walk in all; what it keeps, the N-1
    carried rows and the running sum, is O(N * 201) values.  Either part's
    node arrays are bounded independent of t.  The inside's N-1 rows of about
    200 nodes and their prefix sums, held at once, grow with N, and more than
    dde.MAX_TRACE_SAMPLES values (from about N = 41,000 on) is a ValueError
    before any row is built.
    """
    check_trace_times(trace, t)
    t = float(max(t, 0.0))
    return _cone_integral(params, trace, t) + _outgoing_flux(params, trace, t)


def total_probability(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """|beta(t)|^2 plus waveguide_probability, the integral of |phi|^2 over the light cone.

    phi sums the right- and left-moving waves, so inside [0, N-1] the density
    keeps their cross term 2 Re(phi_R* phi_L).  The sum is 1 only where that
    term averages away (omega_tau >> 1); at N = 3, gamma_tau/2pi = 0.018,
    omega_tau/2pi = 0.3177449 it reads 1.031 from t = 5 on at any fine step.
    """
    return abs(beta_at(trace, t)) ** 2 + waveguide_probability(params, trace, t)


def _denominator(params: GiantAtomParams, s2: float) -> float:
    """(2 sin^2(n pi/N) + N gamma)^2, the trapped-field closed forms' denominator;
    ValueError naming gamma_tau where the square overflows."""
    try:
        return (2.0 * s2 + params.n_legs * params.gamma_tau) ** 2
    except OverflowError:
        raise ValueError(f"gamma_tau = {params.gamma_tau:g} overflows the trapped-field "
                         "closed form (2 sin^2(n pi/N) + N gamma)^2") from None


def bound_profile(params: GiantAtomParams, n: int, x):
    """Stationary trapped-field profile p_n(x); zero outside [0, N-1].

    Accepts a scalar position or an ndarray.  Indices that are multiples of N
    give the identically zero profile.
    """
    check_mode_index(n)
    xs = np.asarray(x, dtype=float)
    big_n, g = params.n_legs, params.gamma_tau
    inside = (xs >= 0.0) & (xs <= big_n - 1)  # evaluated only there: far outside it overflows
    mprime = np.floor(xs[inside]) + 1.0
    lam = xs[inside] - (mprime - 1.0)
    s2 = _sin2(big_n, n)
    # at s2 = 0 the formula is 0 but (N g)^2 may underflow to 0 or overflow
    pref = 8.0 * g * s2 / _denominator(params, s2) if s2 else 0.0
    out = np.zeros(xs.shape)
    out[inside] = pref * (np.sin(n * math.pi * mprime / big_n) ** 2
                          * np.sin(n * math.pi * (mprime + 2.0 * lam - 1.0) / big_n) ** 2)
    return float(out) if xs.shape == () else out


def total_intensity(params: GiantAtomParams, n: int) -> float:
    """Closed-form trapped-field intensity of dark index n:

    I(n) = 2*N*gamma * sin^2(n pi/N) * (1 + (N/(4 n pi)) sin(2 n pi/N))
           / (2 sin^2(n pi/N) + N gamma)^2.
    """
    check_mode_index(n)
    big_n, g = params.n_legs, params.gamma_tau
    s2 = _sin2(big_n, n)
    shape = 1.0 + (big_n / (4.0 * n * math.pi)) * math.sin(2.0 * n * math.pi / big_n)
    # at s2 = 0 the formula is 0 but (N g)^2 may underflow to 0 or overflow
    return 2.0 * big_n * g * s2 * shape / _denominator(params, s2) if s2 else 0.0


def _check_pair(params: GiantAtomParams, pair: DarkPair) -> None:
    big_n = params.n_legs
    if pair.n1 != pair.p * big_n + pair.n or pair.n2 != pair.q * big_n - pair.n:
        raise ValueError("pair indices are inconsistent with n_legs of the parameters")
    for name, got, want in (("omega_tau", params.omega_tau, pair.omega_tau),
                            ("gamma_tau", params.gamma_tau, pair.gamma_tau)):
        if abs(got - want) > 1e-9 * (1.0 + abs(want)):
            raise ValueError(f"parameters have {name} = {got:g} but the pair "
                             f"requires {want:g}")


def oscillating_intensity(params: GiantAtomParams, pair: DarkPair, t):
    """Total trapped-field intensity of a coexisting pair at time t:

    I(n1, n2)(t) = I(n1) + I(n2)
                   - 4 A(n1) A(n2) * Omega / (Omega_n1 + Omega_n2)
                   * cos[(Omega_n1 - Omega_n2) * t].

    Accepts scalar or ndarray times; validates that the pair belongs to the
    given parameter point.
    """
    _check_pair(params, pair)
    big_n = params.n_legs
    i1 = total_intensity(params, pair.n1)
    i2 = total_intensity(params, pair.n2)
    a1 = dark_amplitude(big_n, pair.n1, params.gamma_tau)
    a2 = dark_amplitude(big_n, pair.n2, params.gamma_tau)
    w1 = dark_frequency(big_n, pair.n1)
    w2 = dark_frequency(big_n, pair.n2)
    ts = np.asarray(t, dtype=float)
    out = i1 + i2 - 4.0 * a1 * a2 * (params.omega_tau / (w1 + w2)) * np.cos((w1 - w2) * ts)
    return float(out) if ts.shape == () else out


def dark_state_record(params: GiantAtomParams, n: int) -> DarkState:
    """Assemble the DarkState record for index n, checking that the parameter
    point actually supports it: |F| at the purely imaginary candidate frequency
    must be at most _DARK_TOL times F's term scale there, so that rounding at a
    large Omega_n is not mistaken for an off-dark point."""
    check_mode_index(n, params.n_legs)
    omega_n = dark_frequency(params.n_legs, n)
    residual = abs(characteristic_fn(params, -1j * omega_n))
    if residual > _DARK_TOL * _term_scale(params, -1j * omega_n):
        raise ValueError(f"parameters are not dark at index {n}: "
                         f"|F(-i Omega_n)| = {residual:g}")
    return DarkState(n=n, omega_n=omega_n,
                     amplitude=dark_amplitude(params.n_legs, n, params.gamma_tau),
                     intensity=total_intensity(params, n),
                     rwa_ok=rwa_check(params.n_legs, n, params.gamma_tau, params.omega_tau))

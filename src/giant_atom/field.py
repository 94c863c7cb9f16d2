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
cascaded emitter, Gardiner & Collett, PRA 31, 3761, 1985).  |phi|^2 can kink
only where t - |x - x_m| is whole, so every unit cell inside and every unit
step outward has the same cuts, and one cell's Simpson nodes y, mirror-
symmetric about its centre, serve them all.  The cell's nodes, panel probes
and weights are built once per cut and kept, read-only.

Every delay is whole, so one walk over the rows beta(k + f - y),
k = 0 .. floor(t) and f = frac(t), serves both parts (_light_cone maps rows to
cells).  The rows run in blocks of _BLOCK.  Each block builds a new array: the
N-1 rows carried from before (zero before k = 0), then its own rows.  Its
windows, the N rows ending at each of its own rows, sum to e there, and |e|^2
is added to a running sum.  The block's last N-1 rows are the next block's
carry, and after the last block the inside reads them.  The carry and the
running sum, O(N * 201) values whatever t is, are kept with N, frac(t) and
the rows done as the trace object's walk.  Each trace object keeps its own
walk for as long as it lives, and a call on another trace leaves it alone, so
the walks hold O(N * 201) values per live trace that has been walked.  A later
call on the same trace object at the same N and frac(t), at a time not before
where its walk stopped, resumes from them instead of walking again from
k = 0.  A trace's samples are read-only, so that state stays true of the trace
object.  total_probability needs beta(t) as well, and the walk holds it: node
y = 0 of row floor(t) is beta(floor(t) + f) = beta(t).  The walk keeps it too,
so a resumed call with no new rows makes no dense-output call at all.
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
from .dde import MAX_TRACE_SAMPLES, beta_at_many, check_trace_times

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
_BLOCK = 16       # rows of beta per block of the light-cone walk
_FRAMES = 16      # intensity_map's frames per dense-output call
_DARK_TOL = 1e-10  # largest |F(-i Omega_n)| over F's term scale at which index n is dark
# each live trace object's light-cone walk, dropped with it: n_legs, frac(t), the
# rows walked, the N-1 rows carried past them, the power summed over them and beta(t)
_walks = weakref.WeakKeyDictionary()


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


def _phi(params: GiantAtomParams, trace: AmplitudeTrace, xs: np.ndarray, t) -> np.ndarray:
    """Field amplitude at positions xs and times t, broadcast against each other.

    Point m's wave counts at x when t - |x - x_m| >= 0, and reads beta there,
    its retarded time clipped to t_max.
    """
    total = np.zeros(np.broadcast_shapes(np.shape(xs), np.shape(t)), dtype=complex)
    for xm in params.coupling_points:
        delay = t - np.abs(xs - xm)
        on = delay >= 0.0
        total[on] += beta_at_many(trace, np.clip(delay[on], 0.0, trace.t_max))
    return (-1j * math.sqrt(0.5 * params.gamma_tau)) * total


def field_amplitude(params: GiantAtomParams, trace: AmplitudeTrace,
                    x: float, t: float) -> complex:
    """Retarded-sum field amplitude phi(x, t); zero before any wavefront arrives."""
    check_trace_times(trace, t)
    return complex(_phi(params, trace, np.asarray([float(x)]), t)[0])


def intensity_map(params: GiantAtomParams, trace: AmplitudeTrace,
                  grid: GridSpec) -> list[FieldGrid]:
    """Sample p(x, t) = |phi|^2 on the grid for every requested instant.

    The frames are sampled 16 (_FRAMES) at a time, in one dense-output call
    per coupling point for each block of frames, so the work arrays hold 16
    frames at once.
    """
    if not grid.times:
        raise ValueError("grid spec lists no sample times")
    check_trace_times(trace, grid.times)
    xs, times = grid.xs, np.array(grid.times)
    frames = []
    for start in range(0, len(times), _FRAMES):
        block = times[start:start + _FRAMES]
        values = np.abs(_phi(params, trace, xs, block[:, None])) ** 2
        frames += [FieldGrid(x_min=grid.x_min, x_max=grid.x_max, dx=grid.dx, values=row, t=t)
                   for t, row in zip(grid.times[start:], values)]
    return frames


def _light_cone(params: GiantAtomParams, trace: AmplitudeTrace,
                t: float) -> tuple[float, float, complex]:
    """The field probability inside [0, N-1], that in both tails outside it
    and beta(t), from one walk over rows of beta on one cell's nodes (see the
    module docstring for the walk); t is checked against the trace's range,
    and a t rounded below 0 is read as 0.

    With f = frac(t), row k = 0 .. floor(t) is beta(k + f - y) on the nodes y
    of _cone_cell(min(f, 1 - f)), counted on a panel only when the panel's
    probe is inside the light cone, so a wavefront end takes beta(0).  Tail
    cell c past an outer coupling point reads e(t - c - y), the sum of the N
    rows ending at k = floor(t) - c, so both tails hold gamma * sum_k
    |window_k|^2 integrated over y.  Inside, cell c reads the rows
    R[d] = beta(t - d - y) of the coupling points d cells to its left, the
    last N-1 rows reversed, and those d + 1 cells to its right at 1 - y: with
    ends the prefix sums of R, phi_R on cell c is ends[c] and phi_L is
    ends[N-2-c] mirrored.  The cell's first node is y = 0, so beta(t) is row
    floor(t) at that node, read before the probe mask (which zeroes it at
    t < 1e-12), or the walk's own when it resumes with no new rows.  Each
    trace object keeps its walk, and a call reads and replaces only its own.
    """
    check_trace_times(trace, t)
    t = float(max(t, 0.0))
    n_legs, whole = params.n_legs, int(math.floor(t))
    f = t - whole
    nodes, probes, weights = _cone_cell(min(f, 1.0 - f))
    # the inside's N-1 rows and their prefix sums, held at once
    check_budget(f"the inside cone of {n_legs} coupling points",
                 2 * (n_legs - 1) * len(nodes), "values", MAX_TRACE_SAMPLES)
    legs, frac, done, carry, power, beta_t = _walks.get(trace, (0,) * 6)  # N = 0: no walk
    if not (legs == n_legs and frac == f and done <= whole + 1):
        done, carry, power = 0, np.zeros((n_legs - 1, len(nodes))), 0.0  # a walk from k = 0
    for start in range(done, whole + 1, _BLOCK):
        shifts = np.arange(start, min(start + _BLOCK, whole + 1))[:, None] + f
        beta = beta_at_many(trace, np.clip(shifts - nodes, 0.0, trace.t_max))
        rows = np.concatenate([carry, (shifts - probes >= 0.0) * beta])  # probe in the light cone
        # window k is the N rows from row k on: sliding_window_view(rows, N, axis=0)'s
        # shape and strides without its set-up, still checked against rows's buffer
        s0, s1 = rows.strides
        windows = np.ndarray((len(rows) + 1 - n_legs, len(nodes), n_legs), rows.dtype, rows, 0,
                             (s0, s1, s0))
        power = power + np.sum(np.abs(windows.sum(-1)) ** 2, axis=0)
        carry, beta_t = rows[1 - n_legs:], complex(beta[-1, 0])
    _walks[trace] = (n_legs, f, whole + 1, carry, power, beta_t)
    ends = np.cumsum(carry[::-1], axis=0)
    phi = ends + ends[::-1, ::-1]
    return (0.5 * params.gamma_tau * float(np.sum(np.abs(phi) ** 2 @ weights)),
            params.gamma_tau * float(power @ weights), beta_t)


@functools.lru_cache(maxsize=32)
def _cone_cell(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One cell's Simpson nodes, the probe of each node's panel and the weights,
    for cuts at a and 1 - a; built once per a, and read-only.

    The panels run between the cuts in even numbers (at least 2) of steps of
    at most DEFAULT_DX, the right group the left one mirrored, so node y's
    mirror 1 - y is a node too.  A node's probe is its panel group's midpoint.
    An a below 1e-12 is taken as 0, so the first node is always y = 0 exactly.
    """
    nodes, probes, weights = [], [], []
    a = a if a >= 1e-12 else 0.0
    for start, width in ((0.0, a), (a, (1.0 - a) - a), (1.0 - a, a)):
        if width >= 1e-12:
            k = max(2, 2 * math.ceil(width / (2.0 * DEFAULT_DX)))
            nodes.append(start + width / k * np.arange(k + 1))
            probes.append(np.full(k + 1, start + 0.5 * width))
            # composite Simpson: 1, 4, 2, ..., 2, 4, 1
            weights.append(width / (3.0 * k)
                           * np.concatenate([[1.0], np.tile([4.0, 2.0], k // 2)[:-1], [1.0]]))
    cell = tuple(np.concatenate(part) for part in (nodes, probes, weights))
    for array in cell:
        array.flags.writeable = False  # every caller shares it
    return cell


def waveguide_probability(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """Field probability integrated over the light cone [x_1 - t, x_N + t].

    The inside [0, N-1] and the two tails outside it, which hold the outgoing
    flux gamma * int_0^t |e(u)|^2 du, by composite Simpson on one cell's nodes
    between the closed-form kinks of |phi|^2.  Calls on one trace object at
    one N and frac(t), at ascending times, resume that trace's walk over the
    rows of beta and so read each row once in all, whatever calls on other
    traces come between them; a call at another N or frac(t), or before where
    the walk stopped, walks that trace from the start.  Each trace object keeps
    its own walk for as long as it lives, O(N * 201) values per live walked
    trace.  The inside's
    N-1 rows and their prefix sums, held at once, grow with N, and more than
    dde.MAX_TRACE_SAMPLES values (from about N = 41,000 on) is a ValueError
    before any row is built.  A resumed call with new rows interpolates them
    in one dense-output call per 16 rows, and one without new rows
    interpolates nothing.
    """
    inside, tails, _ = _light_cone(params, trace, t)
    return inside + tails


def total_probability(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """|beta(t)|^2 plus waveguide_probability, the integral of |phi|^2 over the light cone.

    Both come from the one walk waveguide_probability takes, kept with the
    trace object: beta(t) is node y = 0 of the walk's last row, so a resumed
    call such as one per tau makes one dense-output call in all, and one
    without new rows makes none, whatever calls on other traces come
    between.  The value is bit for bit abs(beta_at(trace, t))**2 +
    waveguide_probability(params, trace, t) on the same walk.

    phi sums the right- and left-moving waves, so inside [0, N-1] the density
    keeps their cross term 2 Re(phi_R* phi_L).  The sum is 1 only where that
    term averages away (omega_tau >> 1); at N = 3, gamma_tau/2pi = 0.018,
    omega_tau/2pi = 0.3177449 it reads 1.031 from t = 5 on at any fine step.
    """
    inside, tails, beta = _light_cone(params, trace, t)
    return abs(beta) ** 2 + (inside + tails)


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
    give the identically zero profile.  sin^2 has period pi, so the whole
    parts of both sines' arguments, n m' pi/N and n (m' - 1) pi/N, are taken
    at n m' and n (m' - 1) mod N, exactly: a large n loses no digits to them,
    and p_n is 0.0 at x = N-1.  The 2 n pi lambda/N term is kept whole, so
    off the coupling points the error is about x's own conditioning,
    4 pi n x eps/N relative times |cot| of the second sine's argument.
    """
    check_mode_index(n)
    xs = np.asarray(x, dtype=float)
    big_n, g = params.n_legs, params.gamma_tau
    inside = (xs >= 0.0) & (xs <= big_n - 1)  # evaluated only there: far outside it overflows
    m = np.floor(xs[inside])  # m' - 1
    lam = xs[inside] - m
    s2 = _sin2(big_n, n)
    # at s2 = 0 the formula is 0 but (N g)^2 may underflow to 0 or overflow
    pref = 8.0 * g * s2 / _denominator(params, s2) if s2 else 0.0
    out = np.zeros(xs.shape)
    k = n % big_n
    out[inside] = pref * (np.sin(math.pi * (k * (m + 1.0) % big_n) / big_n) ** 2
                          * np.sin(math.pi * (k * m % big_n + 2.0 * n * lam) / big_n) ** 2)
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

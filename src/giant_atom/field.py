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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AmplitudeTrace, DarkPair, DarkState, FieldGrid, GiantAtomParams,
                   _term_scale, characteristic_fn, check_mode_index, check_positive)
from .darkstates import _sin2, dark_amplitude, dark_frequency, rwa_check
from .dde import beta_at, beta_at_many, check_trace_times

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
_SLICE = 16.0     # half-cone slice width in tau; whole, so every slice edge is a cut
_DARK_TOL = 1e-10  # largest |F(-i Omega_n)| over F's term scale at which index n is dark


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
         t: float, at: np.ndarray | None = None) -> np.ndarray:
    """Field amplitude on a batch of positions at one instant.

    Point m's wave counts at xs[i] when t - |at[i] - x_m| >= 0, where at
    defaults to xs; its retarded time is clipped to [0, t_max], so a probe
    inside the light cone lets a node just outside it take beta(0).
    """
    at = xs if at is None else at
    total = np.zeros(len(xs), dtype=complex)
    for xm in params.coupling_points:
        on = t - np.abs(at - xm) >= 0.0
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


def _cone_integral(params: GiantAtomParams, trace: AmplitudeTrace, t: float,
                   lo: float, hi: float) -> float:
    """Composite Simpson integral of p(x, t) over [lo, hi].

    |phi|^2 can kink only where t - |x - x_m| is whole: at the integers and the
    integers +- frac(t).  Panels run between those cuts in even numbers of steps
    of at most DEFAULT_DX.  Each panel probes the light cones at its midpoint,
    so a coupling point counts on a whole panel or not at all, and a wavefront
    end takes beta(0).
    """
    f = t - math.floor(t)
    ks = np.arange(math.floor(lo), math.ceil(hi) + 1.0)
    cuts = np.sort(np.clip(np.concatenate([[lo, hi], ks, ks + f, ks - f]), lo, hi))
    a, b = cuts[:-1], cuts[1:]
    keep = b - a >= 1e-12
    a, b = a[keep], b[keep]

    nsub = np.ceil((b - a) / DEFAULT_DX).astype(int)
    nsub = np.maximum(2, nsub + nsub % 2)
    h = (b - a) / nsub
    panel = np.repeat(np.arange(len(a)), nsub + 1)
    j = np.arange(len(panel)) - np.repeat(np.cumsum(nsub + 1) - (nsub + 1), nsub + 1)
    xs = a[panel] + h[panel] * j
    weights = np.where(j % 2 == 1, 4.0, 2.0) - ((j == 0) | (j == nsub[panel]))
    phi = _phi(params, trace, xs, t, at=0.5 * (a + b)[panel])
    return float(np.sum(h[panel] / 3.0 * weights * np.abs(phi) ** 2))


def waveguide_probability(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """Field probability integrated over the light cone [x_1 - t, x_N + t].

    p(x, t) is mirror symmetric about the atom's centre (N-1)/2, so this is
    twice the integral over [-t, (N-1)/2], taken in 16-tau slices whose edges
    -t + 16k are kink positions already; the slices bound the node arrays.
    Each slice is composite Simpson between the closed-form kinks of |phi|^2.
    """
    check_trace_times(trace, t)
    t = float(max(t, 0.0))
    centre = 0.5 * (params.n_legs - 1)
    edges = np.append(np.arange(-t, centre, _SLICE), centre)
    return 2.0 * sum(_cone_integral(params, trace, t, a, b)
                     for a, b in zip(edges[:-1], edges[1:]))


def total_probability(params: GiantAtomParams, trace: AmplitudeTrace, t: float) -> float:
    """|beta(t)|^2 plus the integrated field probability; 1 for exact dynamics."""
    return abs(beta_at(trace, t)) ** 2 + waveguide_probability(params, trace, t)


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
    pref = 8.0 * g * s2 / (2.0 * s2 + big_n * g) ** 2 if s2 else 0.0
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
    return 2.0 * big_n * g * s2 * shape / (2.0 * s2 + big_n * g) ** 2 if s2 else 0.0


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

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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import (AmplitudeTrace, DarkPair, DarkState, FieldGrid, GiantAtomParams,
                   characteristic_fn, worker_count)
from .darkstates import dark_amplitude, dark_frequency, rwa_check
from .dde import beta_at_many

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
        if not (self.dx > 0):
            raise ValueError("dx must be positive")

    @property
    def xs(self) -> np.ndarray:
        count = int(math.floor((self.x_max - self.x_min) / self.dx + 1e-9)) + 1
        return self.x_min + self.dx * np.arange(count)


def _check_time(trace: AmplitudeTrace, t: float) -> None:
    if not (-1e-12 <= t <= trace.t_max + 1e-9):
        raise ValueError(f"t = {t:g} requires retarded amplitudes outside the "
                         f"trace range [0, {trace.t_max:g}]")


def _phi(params: GiantAtomParams, trace: AmplitudeTrace, xs: np.ndarray,
         t: float, active=None) -> np.ndarray:
    """Field amplitude on a batch of positions at one instant.

    With `active` given, each coupling point is included for the whole batch
    or not at all; this keeps quadrature panels on a single smooth branch.
    """
    total = np.zeros(len(xs), dtype=complex)
    for m, xm in enumerate(params.coupling_points):
        if active is not None and not active[m]:
            continue
        u = t - np.abs(xs - xm)
        if active is None:
            mask = u >= 0.0
            if not mask.any():
                continue
            vals = beta_at_many(trace, np.clip(u[mask], 0.0, trace.t_max))
            total[mask] += vals
        else:
            total += beta_at_many(trace, np.clip(u, 0.0, trace.t_max))
    return (-1j * math.sqrt(0.5 * params.gamma_tau)) * total


def field_amplitude(params: GiantAtomParams, trace: AmplitudeTrace,
                    x: float, t: float) -> complex:
    """Retarded-sum field amplitude phi(x, t); zero before any wavefront arrives."""
    _check_time(trace, t)
    return complex(_phi(params, trace, np.asarray([float(x)]), t)[0])


def intensity_map(params: GiantAtomParams, trace: AmplitudeTrace,
                  grid: GridSpec, threads: int = 1) -> list[FieldGrid]:
    """Sample p(x, t) = |phi|^2 on the grid for every requested instant.

    threads is capped at os.cpu_count().
    """
    if not grid.times:
        raise ValueError("grid spec lists no sample times")
    for t in grid.times:
        _check_time(trace, t)
    xs = grid.xs

    def one(t: float) -> FieldGrid:
        values = np.abs(_phi(params, trace, xs, t)) ** 2
        return FieldGrid(x_min=grid.x_min, x_max=grid.x_max, dx=grid.dx,
                         values=values, t=t)

    threads = worker_count(threads)
    if threads > 1 and len(grid.times) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, grid.times))
    return [one(t) for t in grid.times]


def _simpson(ys: np.ndarray, h: float) -> float:
    return (h / 3.0) * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


def waveguide_probability(params: GiantAtomParams, trace: AmplitudeTrace,
                          t: float, dx: float = DEFAULT_DX) -> float:
    """Field probability integrated over the full causal support at time t.

    The window expands with the light cone to [x_1 - t, x_N + t], and the
    integral is composite Simpson applied piecewise between the wavefront and
    kink positions so no panel straddles a discontinuity of |phi|^2.
    """
    _check_time(trace, t)
    t = float(max(t, 0.0))
    xm = params.coupling_points
    lo, hi = -t, (params.n_legs - 1) + t

    cuts = {lo, hi}
    for x0 in xm:
        if lo < x0 < hi:
            cuts.add(float(x0))
        for k in range(int(math.floor(t + 1e-12)) + 1):
            for edge in (x0 - (t - k), x0 + (t - k)):
                if lo < edge < hi:
                    cuts.add(float(edge))
    pts = np.asarray(sorted(cuts))

    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < 1e-12:
            continue
        mid = 0.5 * (a + b)
        active = (t - np.abs(mid - xm)) > 0.0
        if not active.any():
            continue
        nsub = int(math.ceil((b - a) / dx))
        nsub = max(2, nsub + (nsub % 2))
        xs = np.linspace(a, b, nsub + 1)
        p = np.abs(_phi(params, trace, xs, t, active=active)) ** 2
        total += _simpson(p, (b - a) / nsub)
    return total


def total_probability(params: GiantAtomParams, trace: AmplitudeTrace,
                      t: float, dx: float = DEFAULT_DX) -> float:
    """|beta(t)|^2 plus the integrated field probability; 1 for exact dynamics."""
    amp = beta_at_many(trace, np.asarray([t]))[0]
    return abs(amp) ** 2 + waveguide_probability(params, trace, t, dx=dx)


def _check_profile_index(params: GiantAtomParams, n: int) -> None:
    if isinstance(n, bool) or int(n) != n or n < 1:
        raise ValueError(f"mode index must be an integer >= 1, got {n!r}")


def bound_profile(params: GiantAtomParams, n: int, x):
    """Stationary trapped-field profile p_n(x); zero outside [0, N-1].

    Accepts a scalar position or an ndarray.  Indices that are multiples of N
    give the identically zero profile.
    """
    _check_profile_index(params, n)
    xs = np.asarray(x, dtype=float)
    big_n, g = params.n_legs, params.gamma_tau
    if n % big_n == 0:  # sin(n pi / N) = 0: no trapped field at all
        out = np.zeros(xs.shape)
        return float(out) if xs.shape == () else out
    inside = (xs >= 0.0) & (xs <= big_n - 1)
    mprime = np.floor(xs) + 1.0
    lam = xs - (mprime - 1.0)
    s2 = math.sin(n * math.pi / big_n) ** 2
    pref = 8.0 * g * s2 / (2.0 * s2 + big_n * g) ** 2
    vals = pref * (np.sin(n * math.pi * mprime / big_n) ** 2
                   * np.sin(n * math.pi * (mprime + 2.0 * lam - 1.0) / big_n) ** 2)
    out = np.where(inside, vals, 0.0)
    return float(out) if xs.shape == () else out


def total_intensity(params: GiantAtomParams, n: int) -> float:
    """Closed-form trapped-field intensity of dark index n:

    I(n) = 2*N*gamma * sin^2(n pi/N) * (1 + (N/(4 n pi)) sin(2 n pi/N))
           / (2 sin^2(n pi/N) + N gamma)^2.
    """
    _check_profile_index(params, n)
    big_n, g = params.n_legs, params.gamma_tau
    if n % big_n == 0:
        return 0.0
    s2 = math.sin(n * math.pi / big_n) ** 2
    shape = 1.0 + (big_n / (4.0 * n * math.pi)) * math.sin(2.0 * n * math.pi / big_n)
    return 2.0 * big_n * g * s2 * shape / (2.0 * s2 + big_n * g) ** 2


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


def dark_state_record(params: GiantAtomParams, n: int,
                      rwa_threshold: float = 0.1, dark_tol: float = 1e-8) -> DarkState:
    """Assemble the DarkState record for index n, checking that the parameter
    point actually supports it (the characteristic function must vanish at the
    purely imaginary candidate frequency)."""
    _check_profile_index(params, n)
    if n % params.n_legs == 0:
        raise ValueError(f"index n = {n} is a multiple of n_legs and carries no "
                         "atomic amplitude; it is not a usable dark state")
    omega_n = dark_frequency(params.n_legs, n)
    residual = abs(characteristic_fn(params, -1j * omega_n))
    if residual > dark_tol:
        raise ValueError(f"parameters are not dark at index {n}: "
                         f"|F(-i Omega_n)| = {residual:g}")
    return DarkState(n=n, omega_n=omega_n,
                     amplitude=dark_amplitude(params.n_legs, n, params.gamma_tau),
                     intensity=total_intensity(params, n),
                     rwa_ok=rwa_check(params.n_legs, n, params.gamma_tau,
                                      params.omega_tau, threshold=rwa_threshold))

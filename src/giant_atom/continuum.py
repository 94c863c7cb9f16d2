"""Infinitely-many-coupling-points limit of the multi-point emitter.

With N points, the converged quantities are the total transit time T = N*tau
and the total relaxation rate Gamma = N^2*gamma, so Gamma*T = N^3*gamma_tau.
In that limit the dark condition becomes

    Omega*T = 2*n*pi - Gamma*T / (2*n*pi),    n a positive integer,

the trapped profile collapses to a sin^4 hump over the contact region of
length L, and the trapped intensity is bounded by 3/8.

A comb of N cells with the pair (p, q) = (1, 1) stays dark for every N, with
omega_tau = 2*pi per cell and Gamma*T -> (2*n*pi)^2; comb_pair_limit exposes
both the per-cell (tau-unit) and converged (T-unit) normalizations of that
configuration, related by t_T = t_tau / N and frequency_T = N * frequency_tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, DarkPair, check_int, check_mode_index, check_positive
from .darkstates import _lattice_pair

__all__ = [
    "continuum_dark_indices",
    "continuum_profile",
    "continuum_total_intensity",
    "CombPairLimit",
    "comb_pair_limit",
]

# the dark condition demands an exactly integer index; this only absorbs
# floating-point noise in the quadratic formula
INTEGER_ROOT_TOL = 1e-9


def continuum_dark_indices(omega_T: float, Gamma_T: float) -> list[int]:
    """Positive integer indices solving the continuum dark condition.

    The one candidate is the plus root
    n = (omega_T + sqrt(omega_T^2 + 4*Gamma_T)) / (4*pi); the minus root is
    negative whenever Gamma_T > 0.  It qualifies only within INTEGER_ROOT_TOL
    of a positive integer, so the list is empty for generic parameters and
    never holds more than one index.  Raises ValueError when the root is past
    2**53, the largest mode index, or overflows.
    """
    check_positive("omega_T", omega_T)
    check_positive("Gamma_T", Gamma_T)
    root = (omega_T + math.sqrt(omega_T * omega_T + 4.0 * Gamma_T)) / (2.0 * TWO_PI)
    if not root <= 2 ** 53:
        raise ValueError(f"the dark-condition root {root:g} is past 2**53, "
                         "the largest mode index")
    k = round(root)
    return [k] if k >= 1 and abs(root - k) <= INTEGER_ROOT_TOL else []


def _mode_ratio(Gamma_T: float, n: int) -> tuple[float, float]:
    """u = 2 n^2 pi^2 / Gamma_T and (u + 1)^2 after checking n and Gamma_T;
    ValueError when Gamma_T is so small against n that either overflows."""
    check_mode_index(n)
    check_positive("Gamma_T", Gamma_T)
    u = 2.0 * n * n * math.pi * math.pi / Gamma_T
    den = (u + 1.0) * (u + 1.0)  # a float product overflows to inf; ** would raise
    if not math.isfinite(den):
        raise ValueError(f"Gamma_T = {Gamma_T:g} is too small for index n = {n}: "
                         "(2 n^2 pi^2 / Gamma_T + 1)^2 overflows")
    return u, den


def continuum_profile(Gamma_T: float, n: int, L: float, x):
    """Trapped-field profile of continuum dark index n over a contact of length L:

    p_n(x) = (2 n^2 pi^2 / Gamma_T) / (2 n^2 pi^2 / Gamma_T + 1)^2
             * (4/L) * sin^4(n pi x / L),

    zero outside [0, L].  Accepts scalar or ndarray positions.
    """
    u, den = _mode_ratio(Gamma_T, n)
    check_positive("contact length", L)
    xs = np.asarray(x, dtype=float)
    pref = u / den * (4.0 / L)
    if not (math.isfinite(pref) and math.isfinite(n * math.pi * L)):
        raise ValueError(f"contact length {L:g} is out of range for index n = {n}: "
                         "4/L or n pi L overflows")
    inside = (xs >= 0.0) & (xs <= L)  # evaluated only there: far outside it overflows
    out = np.zeros(xs.shape)
    out[inside] = pref * np.sin(n * math.pi * xs[inside] / L) ** 4
    return float(out) if xs.shape == () else out


def continuum_total_intensity(Gamma_T: float, n: int) -> float:
    """Integrated trapped intensity (3 n^2 pi^2 / Gamma_T) / (2 n^2 pi^2 / Gamma_T + 1)^2.

    Maximized at 2 n^2 pi^2 / Gamma_T = 1, where it equals 3/8.
    """
    u, den = _mode_ratio(Gamma_T, n)
    return 1.5 * u / den


@dataclass(frozen=True)
class CombPairLimit:
    """A comb configuration n1 = N + n, n2 = N - n in both normalizations.

    mode_offset_T is the exact half-beat N*(Omega_n1 - Omega)*tau = 2*n*pi in
    T units; mode_offset_from_Gamma is Gamma*T / (2*n*pi) = 2*N*tan(n*pi/N),
    which converges to the same value as N grows.
    """

    n: int
    n_legs: int
    pair: DarkPair
    omega_tau: float
    gamma_tau: float
    omega_T: float
    Gamma_T: float
    Gamma_T_limit: float
    mode_offset_T: float
    mode_offset_from_Gamma: float


def comb_pair_limit(n: int, n_legs: int) -> CombPairLimit:
    """Comb-structure coexisting pair at finite N with its converged limit.

    Requires 1 <= n < N/2 (and therefore N >= 3).
    """
    check_mode_index(n)
    check_int("n_legs", n_legs, 3)
    if not (2 * n < n_legs):
        raise ValueError(f"comb pair requires n < n_legs/2, got n = {n}, n_legs = {n_legs}")
    pair = _lattice_pair(n_legs, 1, 1, n)
    gamma_tau = pair.gamma_tau
    return CombPairLimit(
        n=int(n),
        n_legs=int(n_legs),
        pair=pair,
        omega_tau=pair.omega_tau,
        gamma_tau=gamma_tau,
        omega_T=n_legs * pair.omega_tau,
        Gamma_T=n_legs**3 * gamma_tau,
        Gamma_T_limit=(2.0 * n * math.pi) ** 2,
        mode_offset_T=2.0 * n * math.pi,
        mode_offset_from_Gamma=2.0 * n_legs * math.tan(n * math.pi / n_legs),
    )

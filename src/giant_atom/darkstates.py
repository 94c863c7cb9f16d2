"""Dark (nondecaying) modes: single-mode conditions, coexisting pairs, scans.

A mode with integer index n oscillates at dark_frequency(N, n) = 2*n*pi/N and
is dark exactly when the parameters satisfy

    omega_tau = 2*n*pi/N - (N*gamma_tau/2) * cot(n*pi/N),

in which case the atom keeps the amplitude
A(n) = 2 sin^2(n pi/N) / (2 sin^2(n pi/N) + N gamma_tau).

Two indices can be dark simultaneously only for N >= 3.  Requiring in
addition that the mean of the two dark frequencies equal the transition
frequency (which makes the total atom+field excitation conserved), the
solutions form an integer lattice (p, q, n) with p >= q >= 1, 1 <= n < N/2:

    n1 = p*N + n,   n2 = q*N - n,
    omega_tau = (p + q) * pi,
    gamma_tau = 2*pi * [(p - q)/N + 2*n/N^2] * tan(n*pi/N).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (TWO_PI, DarkPair, SolverError, StructuralImpossibilityError, check_budget,
                   check_int, check_mode_index, check_n_legs, check_positive)

__all__ = [
    "DEFAULT_RWA_THRESHOLD",
    "MAX_LATTICE_POINTS",
    "dark_frequency",
    "dark_condition_omega_tau",
    "dark_amplitude",
    "rwa_check",
    "find_pairs",
    "LatticeLine",
    "LatticeScan",
    "scan_lattice",
]

# relative dark-mode detuning |Omega_n - Omega| / Omega beyond which the
# rotating-wave treatment is considered unreliable
DEFAULT_RWA_THRESHOLD = 0.1

# Most lattice points one search may enumerate: (p, q, n) candidates of
# find_pairs or scan_lattice, or the samples of all scan lines.  A DarkPair
# takes about 390 bytes, so this budget holds about 400 MB of pairs.
MAX_LATTICE_POINTS = 2 ** 20


def _sin2(n_legs: int, n: int) -> float:
    """sin^2(n pi/N); exactly 0.0 when n is a multiple of N, where the sine of
    the rounded argument would leave a rounding residue."""
    return math.sin(n * math.pi / n_legs) ** 2 if n % n_legs else 0.0


def _dark_line(n_legs: int, n: int, gamma_tau):
    """omega_tau = 2*n*pi/N - (N*gamma_tau/2) * cot(n*pi/N) at a float or an
    array of gamma_tau; n is not a multiple of N."""
    arg = n * math.pi / n_legs
    cot = math.cos(arg) / math.sin(arg)
    return TWO_PI * n / n_legs - 0.5 * n_legs * gamma_tau * cot


def dark_frequency(n_legs: int, n: int) -> float:
    """Frequency 2*n*pi/N of the candidate dark mode with index n (1/tau units)."""
    check_n_legs(n_legs)
    check_mode_index(n)
    return TWO_PI * n / n_legs


def dark_condition_omega_tau(n_legs: int, n: int, gamma_tau: float) -> float:
    """Transition frequency that makes index n dark at the given gamma_tau.

    omega_tau = 2*n*pi/N - (N*gamma_tau/2) * cot(n*pi/N), which must be
    positive: ValueError otherwise, as no physical dark point exists.
    """
    check_n_legs(n_legs)
    check_mode_index(n, n_legs)
    check_positive("gamma_tau", gamma_tau)
    omega_tau = _dark_line(n_legs, n, gamma_tau)
    if omega_tau <= 0:
        raise ValueError(f"dark index {n} forces omega_tau = {omega_tau:g} <= 0 at gamma_tau = "
                         f"{gamma_tau:g}; no physical dark point exists")
    return omega_tau


def dark_amplitude(n_legs: int, n: int, gamma_tau: float) -> float:
    """Long-time atomic amplitude A(n) of a dark mode; 0 for n a multiple of N."""
    check_n_legs(n_legs)
    check_mode_index(n)
    check_positive("gamma_tau", gamma_tau)
    s2 = _sin2(n_legs, n)
    return 2.0 * s2 / (2.0 * s2 + n_legs * gamma_tau)


def rwa_check(n_legs: int, n: int, gamma_tau: float, omega_tau: float,
              threshold: float = DEFAULT_RWA_THRESHOLD) -> bool:
    """True when the dark-mode detuning |Omega_n - Omega| / Omega is small.

    The default threshold 0.1 marks the usual beyond-rotating-wave cut; pass a
    stricter value for more conservative use.  n <= 0 is never acceptable.
    """
    check_positive("omega_tau", omega_tau)
    if n < 1:
        return False
    detuning = abs(dark_frequency(n_legs, n) - omega_tau) / omega_tau
    return detuning <= threshold


def _lattice_pair(n_legs: int, p: int, q: int, n: int) -> DarkPair:
    tan = math.tan(n * math.pi / n_legs)
    gamma_tau = TWO_PI * ((p - q) / n_legs + 2.0 * n / n_legs**2) * tan
    omega_tau = (p + q) * math.pi
    n1 = p * n_legs + n
    n2 = q * n_legs - n
    beat = TWO_PI * (n1 - n2) / n_legs
    amp = dark_amplitude(n_legs, n1, gamma_tau) * dark_amplitude(n_legs, n2, gamma_tau)
    rwa = (rwa_check(n_legs, n1, gamma_tau, omega_tau)
           and rwa_check(n_legs, n2, gamma_tau, omega_tau))
    for idx in (n1, n2):
        resid = abs(dark_condition_omega_tau(n_legs, idx, gamma_tau) - omega_tau)
        if resid > 1e-10 * (1.0 + abs(omega_tau)):
            raise SolverError(
                f"lattice point (p={p}, q={q}, n={n}) fails the dark condition "
                f"for index {idx} by {resid:g}"
            )
    return DarkPair(n1=n1, n2=n2, p=p, q=q, n=n, omega_tau=omega_tau,
                    gamma_tau=gamma_tau, beat=beat, osc_amplitude=amp, rwa_ok=rwa)


def _sorted_pairs(n_legs: int, pq, gamma_tau_max: float = math.inf) -> list[DarkPair]:
    """Lattice pairs at every (p, q) in pq and every 1 <= n < N/2 with
    gamma_tau <= gamma_tau_max, ordered by (omega_tau, gamma_tau, n)."""
    pairs = [pair for p, q in pq for n in range(1, (n_legs + 1) // 2)
             if (pair := _lattice_pair(n_legs, p, q, n)).gamma_tau <= gamma_tau_max]
    pairs.sort(key=lambda pr: (pr.omega_tau, pr.gamma_tau, pr.n))
    return pairs


def find_pairs(n_legs: int, p_max: int = 12, q_max: int = 12) -> list[DarkPair]:
    """All coexisting-dark-pair lattice points with p <= p_max, q <= q_max.

    Deterministically ordered by (omega_tau, gamma_tau, n).  Raises
    StructuralImpossibilityError for n_legs = 2, where the cotangent in the
    dark condition is either zero or infinite for every index and no pair can
    exist, and ValueError, before enumerating anything, when n_legs is outside
    2..MAX_N_LEGS or the lattice holds more than MAX_LATTICE_POINTS candidates.
    """
    n_legs = check_n_legs(n_legs)
    if n_legs == 2:
        raise StructuralImpossibilityError(
            "coexisting dark pairs require at least three coupling points: for "
            "n_legs = 2 the cotangent in the dark condition degenerates to 0 or "
            "infinity for every mode index"
        )
    p_max = check_int("p_max", p_max, 1)
    q_max = check_int("q_max", q_max, 1)
    m = min(p_max, q_max)  # counted in ints: exact, with no float to overflow
    check_budget("the pair search", (n_legs - 1) // 2 * (m * (m + 1) // 2 + (p_max - m) * q_max),
                 "lattice points", MAX_LATTICE_POINTS)
    return _sorted_pairs(n_legs, ((p, q) for p in range(1, p_max + 1)
                                  for q in range(1, min(p, q_max) + 1)))


@dataclass(frozen=True, eq=False)
class LatticeLine:
    """One single-dark-state condition line omega_tau(gamma_tau) at fixed n;
    lines compare by identity, and so scans that hold distinct lines differ."""

    n: int
    gamma_tau: np.ndarray
    omega_tau: np.ndarray


@dataclass(frozen=True)
class LatticeScan:
    """Window scan: coexisting-pair dots plus single-dark-state overlay lines."""

    n_legs: int
    omega_tau_max: float
    gamma_tau_max: float
    dots: tuple[DarkPair, ...]
    lines: tuple[LatticeLine, ...]


def scan_lattice(n_legs: int, omega_tau_max: float, gamma_tau_max: float,
                 line_samples: int = 201) -> LatticeScan:
    """Everything inside the (omega_tau, gamma_tau) window.

    Dots are the coexisting-pair lattice points (empty for n_legs = 2, where
    no pair exists); lines sample the single-dark-state condition for every
    index whose line crosses the window.  Raises ValueError, before
    enumerating anything, when n_legs is outside 2..MAX_N_LEGS or the pair
    candidates or the line samples exceed MAX_LATTICE_POINTS.
    """
    n_legs = check_n_legs(n_legs)
    line_samples = check_int("line_samples", line_samples, 1)
    if not (0 < omega_tau_max < math.inf and 0 < gamma_tau_max < math.inf):
        raise ValueError(f"window bounds must be positive and finite, got omega_tau_max = "
                         f"{omega_tau_max}, gamma_tau_max = {gamma_tau_max}")

    # counted in floats: a huge window gives inf, not an OverflowError
    max_pq_sum = (omega_tau_max / math.pi + 1e-12) // 1.0
    check_budget("the scan's pair search",
                 (n_legs - 1) // 2 * (max_pq_sum // 2) * ((max_pq_sum + 1) // 2),
                 "lattice points", MAX_LATTICE_POINTS)
    max_cot = 1.0 / math.tan(math.pi / n_legs)
    n_bound = float(np.ceil(n_legs * (omega_tau_max + 0.5 * n_legs * gamma_tau_max * max_cot)
                            / TWO_PI)) + 1.0
    # a line_samples past float range would raise in the product, and is over budget
    lines = n_bound * line_samples if line_samples <= sys.float_info.max else math.inf
    check_budget("the scan's line sampling", lines, "lattice points", MAX_LATTICE_POINTS)

    dots = _sorted_pairs(n_legs, ((pq_sum - q, q) for pq_sum in range(2, int(max_pq_sum) + 1)
                                  for q in range(1, pq_sum // 2 + 1)), gamma_tau_max)

    lines: list[LatticeLine] = []
    gammas = np.linspace(0.0, gamma_tau_max, line_samples)
    for n in range(1, int(n_bound) + 1):
        if n % n_legs == 0:
            continue
        omegas = _dark_line(n_legs, n, gammas)
        keep = (omegas > 0.0) & (omegas <= omega_tau_max)
        if keep.any():
            lines.append(LatticeLine(n=n, gamma_tau=gammas[keep], omega_tau=omegas[keep]))

    return LatticeScan(n_legs=n_legs, omega_tau_max=omega_tau_max,
                       gamma_tau_max=gamma_tau_max, dots=tuple(dots),
                       lines=tuple(lines))

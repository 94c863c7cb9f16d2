"""Domain types and the characteristic function of the delayed relaxation problem.

Everything in this package works in dimensionless units: the travel time
between neighbouring coupling points is tau = 1 and the propagation speed is
v = 1, so the N coupling points sit at x_m = m - 1 for m = 1..N, times are
measured in units of tau and frequencies/rates in units of 1/tau.  The
Heaviside factor of every delayed term uses the convention Theta(0) = 1, so a
term switches on exactly at its onset sample.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TWO_PI",
    "MAX_N_LEGS",
    "GiantAtomParams",
    "ComplexFreq",
    "AmplitudeTrace",
    "FieldGrid",
    "DarkState",
    "DarkPair",
    "SolverError",
    "DivergenceError",
    "StructuralImpossibilityError",
    "IncompleteSearchError",
    "SearchPlacementError",
    "params_from_physical",
    "params_to_physical",
    "characteristic_fn",
    "characteristic_deriv",
]

TWO_PI = 2.0 * math.pi

# Most coupling points a GiantAtomParams may hold: F(s) loops over N - 1 delays
# and the DDE march builds an array of N - 1 delay weights, far below this,
# before any other budget applies.
MAX_N_LEGS = 2 ** 16


def check_positive(name: str, value: float) -> float:
    """Return value after rejecting anything that is not positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_int(name: str, value, least: int) -> int:
    """Return value as an int after rejecting a bool, a non-integer (inf and
    nan included) or one below least."""
    if isinstance(value, bool) or value % 1 != 0:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:  # in full a huge int floods the message; past 4300 digits str() raises
        shown = repr(value) if value >= -2 ** 53 else "a value below -2**53"
        raise ValueError(f"{name} must be >= {least}, got {shown}")
    return int(value)


def check_mode_index(n: int, n_legs: int | None = None) -> None:
    """Require an integer mode index 1 <= n <= 2**53, the CLI's integer bound,
    and, when n_legs is given, one that is not a multiple of it."""
    if check_int("mode index", n, 1) > 2 ** 53:
        raise ValueError("mode index must be <= 2**53")
    if n_legs is not None and n % n_legs == 0:
        raise ValueError(
            f"mode index n = {n} is a multiple of n_legs = {n_legs}: "
            "the cotangent in the dark condition is singular there"
        )


def check_n_legs(n_legs) -> int:
    """Return n_legs as an int after rejecting a count outside 2..MAX_N_LEGS."""
    n_legs = check_int("n_legs", n_legs, 2)
    check_budget("the emitter", n_legs, "coupling points", MAX_N_LEGS)
    return n_legs


def check_budget(what: str, count: float, unit: str, budget: int) -> None:
    """Reject, before any work starts, a request for more than budget units.

    A count taken in floats may have overflowed to inf or become nan; both are
    rejected.  An int count past float range is reported as inf.
    """
    if not count <= budget:
        shown = math.inf if count > sys.float_info.max else count
        raise ValueError(f"{what} needs {shown:.3g} {unit}, above the budget of {budget}")


class SolverError(RuntimeError):
    """A numerical solver could not produce a result it can vouch for."""


class DivergenceError(SolverError):
    """A time integration produced a non-finite sample."""


class StructuralImpossibilityError(ValueError):
    """The requested object cannot exist for any parameter values."""


class IncompleteSearchError(SolverError):
    """A root search disagrees with the argument-principle count."""

    def __init__(self, found: int, expected: int):
        super().__init__(
            f"root search found {found} roots but the boundary winding number "
            f"predicts {expected}"
        )
        self.found = found
        self.expected = expected


class SearchPlacementError(SolverError):
    """A root search could not place its rectangle clear of every root."""


@dataclass(frozen=True)
class GiantAtomParams:
    """Dimensionless description of an N-point emitter.

    n_legs is the number of coupling points N (2 <= N <= MAX_N_LEGS),
    gamma_tau the per-point relaxation rate times the neighbour travel time,
    and omega_tau the transition frequency times the travel time.
    """

    n_legs: int
    gamma_tau: float
    omega_tau: float

    def __post_init__(self):
        n_legs = check_n_legs(self.n_legs)
        check_positive("gamma_tau", self.gamma_tau)
        check_positive("omega_tau", self.omega_tau)
        object.__setattr__(self, "n_legs", n_legs)

    @property
    def coupling_points(self) -> np.ndarray:
        """Positions x_m = m - 1 of the coupling points, in units of v*tau."""
        return np.arange(self.n_legs, dtype=float)


@dataclass(frozen=True)
class ComplexFreq:
    """A complex mode frequency s = re + i*im in units of 1/tau.

    Physical modes evolve as exp(s*t); re <= 0 is minus the decay rate and a
    dark (nondecaying) mode has |re| below tolerance.
    """

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"mode frequency components must be finite, got {self.re}, {self.im}")

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    @classmethod
    def from_complex(cls, s: complex) -> "ComplexFreq":
        s = complex(s)
        return cls(re=s.real, im=s.imag)

    def is_dark(self, tol: float = 1e-10) -> bool:
        return abs(self.re) < tol


def _abs_squared(b: np.ndarray) -> np.ndarray:
    """|b|^2 of a complex array, bit for bit what abs(b) ** 2 gives on each
    complex scalar: hypot, then libm pow, which float_power calls per element.
    np.abs(b), np.power and array ** 2 square or take a SIMD path, and differ
    in the last bit.  AmplitudeTrace.probabilities and beta.csv's prob column
    both use it."""
    return np.float_power(np.hypot(b.real, b.imag), 2)


@dataclass(frozen=True, eq=False)
class AmplitudeTrace:
    """Sampled excited-state amplitude on a half-step grid.

    dt is the marching step tau/M; samples[k] holds beta(k * dt/2), so the
    stored resolution is twice the marching resolution (see the dde module
    for why the half steps exist).  A trace holds its samples read-only, so
    what a field quadrature reads off a trace object stays true of it: the
    light-cone walk keeps its state per trace object.  It copies the samples
    array it is given when that array is writable or does not own its memory,
    since a view of it or its base could still be written.  An array that is
    already read-only and owns its memory is taken as is, so the caller must
    not write it through a view made before it was made read-only.  Traces
    compare by identity.
    """

    dt: float
    samples: np.ndarray
    t_max: float

    def __post_init__(self) -> None:
        if self.samples.flags.writeable or not self.samples.flags.owndata:
            object.__setattr__(self, "samples", self.samples.copy())
        self.samples.flags.writeable = False

    @property
    def sample_times(self) -> np.ndarray:
        return 0.5 * self.dt * np.arange(len(self.samples))

    @property
    def steps_per_tau(self) -> int:
        return int(round(1.0 / self.dt))

    @property
    def probabilities(self) -> np.ndarray:
        return _abs_squared(self.samples)


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Field intensity sampled on a uniform spatial window at one instant;
    grids compare by identity."""

    x_min: float
    x_max: float
    dx: float
    values: np.ndarray
    t: float

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(len(self.values))


@dataclass(frozen=True)
class DarkState:
    """A nondecaying mode: integer index, frequency, surviving amplitude,
    trapped-field intensity, and whether the rotating-wave regime holds."""

    n: int
    omega_n: float
    amplitude: float
    intensity: float
    rwa_ok: bool


@dataclass(frozen=True)
class DarkPair:
    """Two simultaneously dark indices n1 > n2 and the parameter point that
    forces them, recorded with their integer lattice coordinates (p, q, n):
    n1 = p*N + n and n2 = q*N - n."""

    n1: int
    n2: int
    p: int
    q: int
    n: int
    omega_tau: float
    gamma_tau: float
    beat: float
    osc_amplitude: float
    rwa_ok: bool


def params_from_physical(omega_hz: float, gamma_hz: float, tau_s: float,
                         n_legs: int) -> GiantAtomParams:
    """Build dimensionless parameters from lab-frame values.

    omega_hz and gamma_hz are ordinary (cycle) frequencies in Hz and tau_s the
    neighbour travel time in seconds, so omega_tau = 2*pi*omega_hz*tau_s and
    likewise for gamma.
    """
    for name, value in (("omega_hz", omega_hz), ("gamma_hz", gamma_hz), ("tau_s", tau_s)):
        check_positive(name, value)
    scale = TWO_PI * tau_s
    return GiantAtomParams(n_legs=n_legs,
                           gamma_tau=gamma_hz * scale,
                           omega_tau=omega_hz * scale)


def params_to_physical(params: GiantAtomParams, tau_s: float) -> tuple[float, float]:
    """Inverse of params_from_physical for a chosen travel time in seconds.

    Returns (omega_hz, gamma_hz) as ordinary cycle frequencies.
    """
    scale = TWO_PI * check_positive("tau_s", tau_s)
    return params.omega_tau / scale, params.gamma_tau / scale


def _delay_sums(n_legs: int, z):
    """P(z) = sum_{l=1}^{N-1} (N - l) z^l and Q(z) = sum_{l=1}^{N-1} (N - l) l z^l.

    Both come from one Horner pass over l = N-1 .. 1, in place (acc += c;
    acc *= z).  At z = exp(-s), F = s + i*omega + N*gamma/2 + gamma*P and,
    since dP/ds = -Q, F' = 1 - gamma*Q, so one complex exponential serves F
    and F'; z**l is built by multiplication, so its phase error grows like
    l*eps instead of the |s*l|*eps of exp(-s*l).  A real z = exp(-Re s) gives
    the bounds of _term_scale and of the winding walk.  This is the one place
    F's two delay sums are evaluated.
    """
    p = q = 0
    for l in range(n_legs - 1, 0, -1):
        p += n_legs - l
        p *= z
        q += (n_legs - l) * l
        q *= z
    return p, q


def _f_and_deriv(params: GiantAtomParams, sv):
    """F(s) and F'(s) at the complex array sv from one exp(-s) and one pass."""
    p, q = _delay_sums(params.n_legs, np.exp(-sv))
    g = params.gamma_tau
    return sv + 1j * params.omega_tau + 0.5 * params.n_legs * g + g * p, 1.0 - g * q


def _term_scale(params: GiantAtomParams, s):
    """Size of F's terms at s, |s| + |omega| + N*gamma/2 + gamma*P(e^{-Re s})
    + |s|*gamma*Q(e^{-Re s}) (see _delay_sums): the scale against which a
    residual |F(s)| is judged.  F's terms grow far left, at strong coupling and
    at large |s|, and so does the rounding of a true root (a backward-error
    test); the last term is the rounding of exp(-s), relative eps*|s|, carried
    by F's delayed terms."""
    g = params.gamma_tau
    p, q = _delay_sums(params.n_legs, np.exp(-np.real(s)))
    return (np.abs(s) + abs(params.omega_tau) + 0.5 * params.n_legs * g
            + g * p + np.abs(s) * g * q)


def characteristic_fn(params: GiantAtomParams, s) -> complex:
    """Characteristic function F(s) whose zeros are the complex mode frequencies.

    F(s) = s + i*omega_tau + N*gamma_tau/2
           + gamma_tau * sum_{l=1}^{N-1} (N - l) * exp(-s*l)

    in 1/tau units.  Accepts a complex scalar, a ComplexFreq, or an ndarray of
    complex values (evaluated elementwise).
    """
    sv = np.asarray(s, dtype=complex)  # a ComplexFreq converts through __complex__
    out = _f_and_deriv(params, sv)[0]
    return complex(out) if sv.ndim == 0 else out


def characteristic_deriv(params: GiantAtomParams, s) -> complex:
    """Analytic derivative F'(s) = 1 - gamma_tau * sum (N - l) * l * exp(-s*l).

    This is also the denominator of each pole's residue weight in the
    causal amplitude's pole-series reconstruction.
    """
    sv = np.asarray(s, dtype=complex)
    out = _f_and_deriv(params, sv)[1]
    return complex(out) if sv.ndim == 0 else out

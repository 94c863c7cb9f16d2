"""Desk-scale physics of a multi-point emitter coupled to a 1D waveguide.

Time-domain relaxation of the delayed amplitude equation, complex mode
spectra of the characteristic function, dark-state and coexisting-pair
enumeration, trapped-field reconstruction, and the infinitely-many-points
limit, all in dimensionless tau = v = 1 units.
"""

__version__ = "0.1.0"

from .core import (
    TWO_PI,
    AmplitudeTrace,
    ComplexFreq,
    DarkPair,
    DarkState,
    DivergenceError,
    FieldGrid,
    GiantAtomParams,
    IncompleteSearchError,
    SearchPlacementError,
    SolverError,
    StructuralImpossibilityError,
    characteristic_deriv,
    characteristic_fn,
    params_from_physical,
    params_to_physical,
)
from .dde import beta_at, beta_at_many, integrate_beta
from .spectral import PoleSet, beta_from_poles, find_poles
from .darkstates import (
    LatticeLine,
    LatticeScan,
    dark_amplitude,
    dark_condition_omega_tau,
    dark_frequency,
    find_pairs,
    rwa_check,
    scan_lattice,
)
from .field import (
    GridSpec,
    bound_profile,
    dark_state_record,
    field_amplitude,
    intensity_map,
    oscillating_intensity,
    total_intensity,
    total_probability,
    waveguide_probability,
)
from .continuum import (
    CombPairLimit,
    comb_pair_limit,
    continuum_dark_indices,
    continuum_profile,
    continuum_total_intensity,
)

__all__ = [
    "TWO_PI",
    "AmplitudeTrace",
    "ComplexFreq",
    "DarkPair",
    "DarkState",
    "DivergenceError",
    "FieldGrid",
    "GiantAtomParams",
    "IncompleteSearchError",
    "SearchPlacementError",
    "SolverError",
    "StructuralImpossibilityError",
    "characteristic_deriv",
    "characteristic_fn",
    "params_from_physical",
    "params_to_physical",
    "beta_at",
    "beta_at_many",
    "integrate_beta",
    "PoleSet",
    "beta_from_poles",
    "find_poles",
    "LatticeLine",
    "LatticeScan",
    "dark_amplitude",
    "dark_condition_omega_tau",
    "dark_frequency",
    "find_pairs",
    "rwa_check",
    "scan_lattice",
    "GridSpec",
    "bound_profile",
    "dark_state_record",
    "field_amplitude",
    "intensity_map",
    "oscillating_intensity",
    "total_intensity",
    "total_probability",
    "waveguide_probability",
    "CombPairLimit",
    "comb_pair_limit",
    "continuum_dark_indices",
    "continuum_profile",
    "continuum_total_intensity",
    "__version__",
]

"""The package namespace is built from the modules' own __all__ lists."""

import importlib

import pytest

import giant_atom

MODULES = ["core", "dde", "spectral", "darkstates", "field", "continuum"]

# every public name of release 0.1.0, by defining module
RELEASED = {
    "core": ["TWO_PI", "AmplitudeTrace", "ComplexFreq", "DarkPair", "DarkState",
             "DivergenceError", "FieldGrid", "GiantAtomParams", "IncompleteSearchError",
             "SearchPlacementError", "SolverError", "StructuralImpossibilityError",
             "characteristic_deriv", "characteristic_fn", "params_from_physical",
             "params_to_physical"],
    "dde": ["beta_at", "beta_at_many", "integrate_beta"],
    "spectral": ["PoleSet", "beta_from_poles", "find_poles"],
    "darkstates": ["LatticeLine", "LatticeScan", "dark_amplitude", "dark_condition_omega_tau",
                   "dark_frequency", "find_pairs", "rwa_check", "scan_lattice"],
    "field": ["GridSpec", "bound_profile", "dark_state_record", "field_amplitude",
              "intensity_map", "oscillating_intensity", "total_intensity",
              "total_probability", "waveguide_probability"],
    "continuum": ["CombPairLimit", "comb_pair_limit", "continuum_dark_indices",
                  "continuum_profile", "continuum_total_intensity"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RELEASED.items()
                                          for n in names])
def test_released_name_is_the_defining_object(module, name):
    assert name in giant_atom.__all__
    assert getattr(giant_atom, name) is getattr(importlib.import_module(f"giant_atom.{module}"),
                                                name)


def test_released_names_are_all_kept():
    assert sum(map(len, RELEASED.values())) == 44
    assert "__version__" in giant_atom.__all__ and giant_atom.__version__ == "0.1.0"


@pytest.mark.parametrize("module", MODULES)
def test_module_names_resolve_in_package(module):
    mod = importlib.import_module(f"giant_atom.{module}")
    for name in mod.__all__:
        assert getattr(giant_atom, name) is getattr(mod, name)
        assert name in giant_atom.__all__


def test_package_all_is_the_modules_lists():
    names = [n for m in MODULES for n in importlib.import_module(f"giant_atom.{m}").__all__]
    assert giant_atom.__all__ == names + ["__version__"]
    assert len(set(giant_atom.__all__)) == len(giant_atom.__all__)

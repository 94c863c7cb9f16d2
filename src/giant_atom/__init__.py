"""Desk-scale physics of a multi-point emitter coupled to a 1D waveguide.

Time-domain relaxation of the delayed amplitude equation, complex mode
spectra of the characteristic function, dark-state and coexisting-pair
enumeration, trapped-field reconstruction, and the infinitely-many-points
limit, all in dimensionless tau = v = 1 units.  Every module's public names,
its constants included, are importable from the package.
"""

__version__ = "0.1.0"

from . import continuum, core, darkstates, dde, field, spectral
from .core import *
from .dde import *
from .spectral import *
from .darkstates import *
from .field import *
from .continuum import *

__all__ = [name for module in (core, dde, spectral, darkstates, field, continuum)
           for name in module.__all__] + ["__version__"]

"""Desk-scale numerics for twisted group algebras: convolution, reduced-norm
bounds, spectral radii, and crossed-product block decompositions."""

import os

# pin BLAS thread counts before numpy loads, so LAPACK reductions run in one
# fixed order and reports are byte-identical across thread-count settings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .algebra import AlgebraElement, convolve, delta, involute  # noqa: F401
from .cocycles import Cocycle, TrivialCocycle, validate  # noqa: F401
from .groups import (ExtensionGroup, FiniteTableGroup, FreeGroup,  # noqa: F401
                     Group, IntLattice)

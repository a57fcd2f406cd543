"""melinlab: Weyl calculus for graded polynomial model operators.

The package covers the pipeline from symbols to verified spectral
bounds: exact polynomial symbols and the Moyal star product, Weyl
quantization in the Fock basis, symplectic invariants of quadratic
forms (fundamental matrix, plus-trace, Melin quantity), localization of
a graded symbol at its characteristic subspace, and Lambda-sweeps that
verify the Lambda^-k scaling of the lowest eigenvalue against the
localized model.

Each module's ``__all__`` is its list of public names; the package
re-exports them all.
"""

import sys

from .errors import *
from .symbols import *
from .quantize import *
from .invariants import *
from .localize import *
from .sweep import *
from .models import *

__version__ = "0.1.0"

# The function localize shadows the submodule melinlab.localize as a package
# attribute, so the lists are read from sys.modules; reach that module with
# importlib.import_module("melinlab.localize").
__all__ = ["__version__"] + [
    name
    for module in ("errors", "symbols", "quantize", "invariants", "localize", "sweep", "models")
    for name in sys.modules[f"{__name__}.{module}"].__all__
]

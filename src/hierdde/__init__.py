"""Spectra of linear delay systems with hierarchically large delays.

The library computes exact eigenvalues of

    x'(t) = A0 x(t) + sum_k Ak x(t - sigma_k eps**-k)

inside complex windows (argument-principle root isolation plus Newton
polishing), the asymptotic objects that organise them for small eps
(strong spectrum, degeneracy ladder, spectral manifolds per delay scale),
a stability classifier built on the manifold suprema, and a validation
harness matching located eigenvalues against the asymptotic sets.
"""

from importlib import import_module

from .errors import *
from .model import *
from .rootfinder import *
from .degeneracy import *
from .manifolds import *
from .classify import *
from .scalar2 import *
from .harness import *

__version__ = "0.1.0"

# each module's __all__ lists its public names once, and the package
# exports them all (through import_module: here classify is the function)
__all__ = ["__version__"] + [
    name for module in ("errors", "model", "rootfinder", "degeneracy",
                        "manifolds", "classify", "scalar2", "harness")
    for name in import_module(f".{module}", __name__).__all__]

"""Double Toeplitz, double circulant and double negacirculant codes.

A numpy library for the [2m, m] codes generated by (I | A) with A a
Toeplitz, circulant or negacirculant matrix over F2, F3 or F4: exact
weight enumerators, average enumerators of the whole family with their
existence thresholds, reduced exhaustive searches, and classification
up to monomial equivalence.

Each module declares its public names once, in its ``__all__``, and
the package re-exports those lists; from ``verify`` it takes only
``verify_reduction_soundness``, and the table suites stay in the module.
"""

from . import average, equivalence, gf, linear, search, structured
from .average import *
from .equivalence import *
from .gf import *
from .linear import *
from .search import *
from .structured import *
from .verify import verify_reduction_soundness

__version__ = "0.1.0"

__all__ = [
    *gf.__all__,
    *linear.__all__,
    *structured.__all__,
    *average.__all__,
    *equivalence.__all__,
    *search.__all__,
    "verify_reduction_soundness",
]

"""Exact invariant counting for n-ary forms.

Counts linearly independent homogeneous invariants, and more generally the
multiplicities of highest weights, in the graded coefficient algebra of an
n-ary form of degree d.  Everything is exact integer arithmetic: the main
route is a parity-signed sum of weight multiplicities over a Weyl orbit,
each multiplicity one coefficient of a truncated generating series that a
single expansion computes, one big integer per degree.

This top level holds the documented API and the errors it raises; every
other name is imported from its module (``naryinv.counting.CountCache``,
say).  ``import naryinv`` loads only the engine: the independent
verification paths load with ``from naryinv import oracles``.
"""

from .counting import weight_multiplicity
from .dimensions import (
    hilbert_series_prefix,
    highest_weight_multiplicity,
    invariant_dimension,
)
from .errors import InternalError, ResourceLimitError, TruncationError
from .series import expand_generating_series
from .weights import signed_orbit_terms

__version__ = "0.1.0"

__all__ = [
    "InternalError",
    "ResourceLimitError",
    "TruncationError",
    "expand_generating_series",
    "hilbert_series_prefix",
    "highest_weight_multiplicity",
    "invariant_dimension",
    "signed_orbit_terms",
    "weight_multiplicity",
]

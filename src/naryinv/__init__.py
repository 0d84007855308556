"""Exact invariant counting for n-ary forms.

Counts linearly independent homogeneous invariants, and more generally the
multiplicities of highest weights, in the graded coefficient algebra of an
n-ary form of degree d.  Everything is exact integer arithmetic: the main
route is a parity-signed sum of weight multiplicities over a Weyl orbit,
each multiplicity one coefficient of a truncated generating series that a
single packed-moment expansion computes, and the :mod:`naryinv.oracles`
module holds fully independent verification paths (brute-force character
tallies, Freudenthal multiplicities with greedy stripping, and the
classical bounded-partition count for binary forms).
"""

from .counting import (
    CountCache,
    cache_from_env,
    moment_targets,
    weight_multiplicity,
)
from .dimensions import (
    hilbert_series_prefix,
    highest_weight_multiplicity,
    invariant_dimension,
)
from .errors import InternalError, ResourceLimitError, TruncationError
from .forms import (
    MultiIndex,
    coefficient_weight,
    enumerate_indices,
    index_count,
    monomial_weight,
)
from .series import TruncatedSeries, dump_series, expand_generating_series
from .weights import (
    SignedOrbitTerm,
    Weight,
    dominant_representative,
    from_ambient,
    signed_orbit_terms,
    to_ambient,
    weyl_vector,
)
from . import oracles

__version__ = "0.1.0"

__all__ = [
    "CountCache",
    "InternalError",
    "MultiIndex",
    "ResourceLimitError",
    "SignedOrbitTerm",
    "TruncatedSeries",
    "TruncationError",
    "Weight",
    "cache_from_env",
    "coefficient_weight",
    "dominant_representative",
    "dump_series",
    "enumerate_indices",
    "expand_generating_series",
    "from_ambient",
    "hilbert_series_prefix",
    "highest_weight_multiplicity",
    "index_count",
    "invariant_dimension",
    "moment_targets",
    "monomial_weight",
    "oracles",
    "signed_orbit_terms",
    "to_ambient",
    "weight_multiplicity",
    "weyl_vector",
]

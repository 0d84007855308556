"""Dimension counts for invariants and semi-invariants of n-ary forms.

All results are exact nonnegative integers: the number of independent
highest-weight vectors (semi-invariants) of a dominant weight in degree
``k`` is a parity-signed sum of weight multiplicities over the Weyl orbit
of the half-sum of positive roots, shifted by that weight.  The invariant
dimension is the case of the zero weight.  Each function only picks the
orbit terms and degrees; :func:`naryinv.counting.signed_counts` reads them.
"""

from __future__ import annotations

from .counting import CountCache, signed_counts
from .errors import MAX_TERMS, check_dominant, check_params
from .series import TruncatedSeries
from .weights import signed_orbit_terms


def highest_weight_multiplicity(
    n: int,
    d: int,
    k: int,
    highest,
    max_terms: int = MAX_TERMS,
    cache: CountCache | None = None,
    series: TruncatedSeries | None = None,
) -> int:
    """Multiplicity of the irreducible with the given dominant highest weight
    in the degree-``k`` piece of the coefficient algebra.

    Equals the number of linearly independent semi-invariants of that weight
    and degree: the signed orbit terms shifted by it, read at degree ``k``.
    """
    check_params(n, d, k, max_terms)
    highest = check_dominant(n, highest)
    terms = signed_orbit_terms(n, shift=highest, kd=k * d)
    return signed_counts(n, d, [k], terms, max_terms, cache, series)[0]


def invariant_dimension(
    n: int,
    d: int,
    k: int,
    max_terms: int = MAX_TERMS,
    cache: CountCache | None = None,
    series: TruncatedSeries | None = None,
) -> int:
    """Number of linearly independent degree-``k`` invariants of the form:
    the highest-weight multiplicity at the zero weight."""
    zero = (0,) * (n - 1)
    return highest_weight_multiplicity(n, d, k, zero, max_terms, cache, series)


def hilbert_series_prefix(
    n: int,
    d: int,
    k_max: int,
    max_terms: int = MAX_TERMS,
) -> list[int]:
    """Graded invariant dimensions ``[dim_0, dim_1, ..., dim_k_max]``: the
    signed orbit terms read at every degree off one expansion, walked only
    within the band of the top degree."""
    check_params(n, d, k_max, max_terms)
    terms = signed_orbit_terms(n, kd=k_max * d)
    return signed_counts(n, d, range(k_max + 1), terms, max_terms)

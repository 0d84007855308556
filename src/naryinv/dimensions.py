"""Dimension counts for invariants and semi-invariants of n-ary forms.

All results are exact nonnegative integers: the number of independent
highest-weight vectors (semi-invariants) of a dominant weight in degree
``k`` is a parity-signed sum of weight multiplicities over the Weyl orbit
of the half-sum of positive roots, shifted by that weight.  The invariant
dimension is the case of the zero weight.
"""

from __future__ import annotations

from .counting import CountCache, weight_counts
from .errors import InternalError, check_params
from .series import MAX_TERMS, TruncatedSeries, expand_generating_series
from .weights import check_dominant, signed_orbit_terms


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
    and degree.  All orbit terms are counted from one expansion (or read off
    ``series`` when given).
    """
    check_params(n, d, k, max_terms)
    w = check_dominant(n, highest)
    terms = signed_orbit_terms(n, shift=w)
    counts = weight_counts(
        n, d, k, [t.dominant for t in terms], max_terms, cache, series
    )
    total = sum(coef * counts.get(dominant, 0) for dominant, coef in terms)
    if total < 0:
        raise InternalError(
            f"negative multiplicity {total} for (n={n}, d={d}, k={k}, "
            f"highest={w}); this indicates a sign-convention bug"
        )
    return total


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
    cache: CountCache | None = None,
) -> list[int]:
    """Graded invariant dimensions ``[dim_0, dim_1, ..., dim_k_max]``, all
    read off one expansion."""
    series = expand_generating_series(n, d, k_max, max_terms)
    return [
        invariant_dimension(n, d, k, max_terms, cache, series)
        for k in range(k_max + 1)
    ]

"""Coefficient indices of an n-ary form and their weights.

An n-ary form of degree ``d`` has one coefficient per exponent vector
``i = (i_1, ..., i_{n-1})`` with ``0 <= i_1 + ... + i_{n-1} <= d`` (the
exponents of variables 2..n; variable 1 takes the complement ``d - |i|``).
Each coefficient spans a one-dimensional weight space, and the weight of a
monomial in the coefficients is additive over its factors.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import ResourceLimitError, check_params
from .weights import Weight

MultiIndex = tuple[int, ...]

MAX_INDEX_COUNT = 10_000_000


def _check_index(n: int, d: int, index) -> MultiIndex:
    i = tuple(index)
    if len(i) != n - 1:
        raise ValueError(f"index must have length n - 1 = {n - 1}, got {len(i)}")
    if any(x < 0 for x in i) or sum(i) > d:
        raise ValueError(f"index {i} outside the valid set (|i| <= {d}, entries >= 0)")
    return i


def index_count(n: int, d: int) -> int:
    """Number of coefficient indices: binomial(n - 1 + d, n - 1)."""
    check_params(n, d)
    return math.comb(n - 1 + d, n - 1)


def enumerate_indices(n: int, d: int) -> list[MultiIndex]:
    """All coefficient indices with ``|i| <= d``, in lexicographic order."""
    check_params(n, d)
    total = index_count(n, d)
    if total > MAX_INDEX_COUNT:
        raise ResourceLimitError(
            f"index set has {total} elements, above the limit {MAX_INDEX_COUNT}"
        )
    out: list[MultiIndex] = []

    def extend(prefix: list[int], budget: int) -> None:
        if len(prefix) == n - 1:
            out.append(tuple(prefix))
            return
        for v in range(budget + 1):
            prefix.append(v)
            extend(prefix, budget - v)
            prefix.pop()

    extend([], d)
    return out


def coefficient_weight(n: int, d: int, index) -> Weight:
    """Weight of the single coefficient labelled by ``index``.

    The first component is ``d - (2 i_1 + i_2 + ... + i_{n-1})``; the
    remaining components are the consecutive differences ``i_1 - i_2``
    through ``i_{n-2} - i_{n-1}``.  The index ``(0, ..., 0)`` carries the
    highest weight ``(d, 0, ..., 0)``.
    """
    check_params(n, d)
    i = _check_index(n, d, index)
    return weight_from_moments(n, d, 1, i)


def monomial_weight(n: int, d: int, exponent: Mapping[MultiIndex, int]) -> Weight:
    """Weight of the coefficient monomial ``prod a_i ** exponent[i]``.

    Additive: equals the exponent-weighted sum of :func:`coefficient_weight`
    over the support.  An empty exponent (degree 0) gives the zero weight.
    """
    check_params(n, d)
    moments = [0] * (n - 1)
    for index, e in exponent.items():
        i = _check_index(n, d, index)
        if e < 0:
            raise ValueError(f"exponent of {i} must be nonnegative, got {e}")
        for s in range(n - 1):
            moments[s] += i[s] * e
    degree = sum(exponent.values())
    return weight_from_moments(n, d, degree, moments)


def weight_from_moments(n: int, d: int, degree: int, moments) -> Weight:
    """Weight of any degree-``degree`` monomial with the given index moments.

    ``moments[s]`` is the exponent-weighted sum of the (s+1)-th index entry
    over the monomial's factors.
    """
    m = tuple(moments)
    first = degree * d - m[0] - sum(m)
    return (first,) + tuple(m[s] - m[s + 1] for s in range(n - 2))

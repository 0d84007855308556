"""Coefficient indices of an n-ary form and their weights.

An n-ary form of degree ``d`` has one coefficient per exponent vector
``i = (i_1, ..., i_{n-1})`` with ``0 <= i_1 + ... + i_{n-1} <= d`` (the
exponents of variables 2..n; variable 1 takes the complement ``d - |i|``).
Each coefficient spans a one-dimensional weight space, and the weight of a
monomial in the coefficients depends only on its degree and its index
moments, the sums of its factors' indices.  This module is the oracles'
vocabulary: the index set and the weight of a moment vector.  The counting
engine walks its own indices, so the oracles' walk here shares no code with it.
"""

from __future__ import annotations

import math

from .errors import check_params
from .weights import Weight


def index_count(n: int, d: int) -> int:
    """Number of coefficient indices: binomial(n - 1 + d, n - 1)."""
    check_params(n, d)
    return math.comb(n - 1 + d, n - 1)


def enumerate_indices(n: int, d: int) -> list[tuple[int, ...]]:
    """All coefficient indices with ``|i| <= d``, in lexicographic order.

    Unbounded here: each caller sizes a superset of the index set first.
    """
    check_params(n, d)
    out: list[tuple[int, ...]] = [()]
    for _ in range(n - 1):
        out = [i + (v,) for i in out for v in range(d - sum(i) + 1)]
    return out


def weight_from_moments(n: int, d: int, degree: int, moments) -> Weight:
    """Weight of any degree-``degree`` monomial with the given index moments.

    ``moments[s]`` is the exponent-weighted sum of the (s+1)-th index entry
    over the monomial's factors.
    """
    m = tuple(moments)
    first = degree * d - m[0] - sum(m)
    return (first,) + tuple(m[s] - m[s + 1] for s in range(n - 2))

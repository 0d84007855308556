"""Integer weights of sl(n) and their orbits under the symmetric group.

A weight of rank ``n`` is a tuple of ``n - 1`` integers, the simultaneous
eigenvalues of the Cartan operators acting on a weight vector.  A weight is
dominant when every component is nonnegative.

For orbit computations each weight is converted to an *ambient* vector of
length ``n`` on which the Weyl group (the symmetric group S_n) acts by
permuting entries.  The convention fixed here, and relied on by the rest of
the package, is

    ``w[s] = ambient[s + 1] - ambient[s]``

so that a weight is dominant exactly when its ambient vector is sorted
ascending, and the dominant representative of an orbit is obtained by
sorting.  Ambient vectors are only defined up to adding a common constant
to all entries; they are normalised so the minimum entry is 0.  Under this
convention the half-sum of positive roots ``(1, ..., 1)`` has ambient
vector ``(0, 1, ..., n - 1)``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple

from .errors import ResourceLimitError, check_params

Weight = tuple[int, ...]

#: enumerating all n! permutations stays comfortable on a desk up to here
MAX_ORBIT_RANK = 8


class SignedOrbitTerm(NamedTuple):
    """A dominant weight with the signed count of group elements mapped to it."""

    dominant: Weight
    coefficient: int


def check_weight(n: int, weight: Iterable[int], name: str = "weight") -> Weight:
    """Validate and normalise a weight of rank ``n`` to a plain tuple."""
    check_params(n)
    w = tuple(weight)
    if len(w) != n - 1:
        raise ValueError(f"{name} must have length n - 1 = {n - 1}, got {len(w)}")
    for pos, x in enumerate(w, start=1):
        if not isinstance(x, int):
            raise ValueError(f"{name} position {pos}: {x!r} is not an integer")
    return w


def check_dominant(n: int, highest: Iterable[int]) -> Weight:
    """:func:`check_weight` for a highest weight, which must be dominant."""
    w = check_weight(n, highest, "highest weight")
    if any(x < 0 for x in w):
        raise ValueError(f"highest weight must be dominant, got {w}")
    return w


def to_ambient(weight: Iterable[int]) -> tuple[int, ...]:
    """Ambient (permutation) coordinates of a weight, normalised to min 0."""
    acc = 0
    out = [0]
    for x in weight:
        acc += x
        out.append(acc)
    lo = min(out)
    return tuple(v - lo for v in out)


def from_ambient(ambient: Iterable[int]) -> Weight:
    """Inverse of :func:`to_ambient`; insensitive to constant shifts."""
    a = tuple(ambient)
    return tuple(a[s + 1] - a[s] for s in range(len(a) - 1))


def dominant_representative(weight: Iterable[int]) -> Weight:
    """The unique dominant weight on the S_n orbit of ``weight``.

    Sorting the ambient vector ascending makes every consecutive difference
    nonnegative, which is exactly dominance.  Idempotent.
    """
    return from_ambient(sorted(to_ambient(weight)))


def weyl_vector(n: int) -> Weight:
    """The weight ``(1, 1, ..., 1)``: half the sum of the positive roots."""
    check_params(n)
    return (1,) * (n - 1)


def signed_permutations(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(sign, permutation of range(n))`` over all of S_n."""
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        yield (-1 if inversions % 2 else 1), perm


def signed_orbit_terms(
    n: int, shift: Iterable[int] | None = None
) -> list[SignedOrbitTerm]:
    """Aggregate ``(shift + rho - s(rho))*`` over all ``s`` in S_n with signs.

    ``rho`` is the half-sum of positive roots and ``*`` takes the dominant
    representative.  Group elements landing on the same dominant weight are
    merged by summing their parity signs; fully cancelled terms are dropped.
    With no ``shift`` this yields the term list of the invariant-dimension
    formula; shifting by a dominant weight yields the term list for its
    highest-weight multiplicity.

    The result is sorted by (largest component, lexicographic), which for
    n = 3 reproduces the classical five-term presentation order.
    """
    check_params(n)
    if n > MAX_ORBIT_RANK:
        raise ResourceLimitError(
            f"orbit enumeration over {n}! permutations refused "
            f"(limit n <= {MAX_ORBIT_RANK})"
        )
    if shift is None:
        shift = (0,) * (n - 1)
    shift = check_weight(n, shift, "shift")
    return [SignedOrbitTerm(*t) for t in _aggregated_terms(n, shift)]


@functools.cache
def _aggregated_terms(n: int, shift: Weight) -> tuple[tuple[Weight, int], ...]:
    rho = weyl_vector(n)
    acc: dict[Weight, int] = {}
    # ambient(rho) = (0, 1, ..., n-1), so s(rho) in ambient coordinates is
    # the permutation tuple itself
    for sign, perm in signed_permutations(n):
        s_rho = from_ambient(perm)
        moved = tuple(shift[i] + rho[i] - s_rho[i] for i in range(n - 1))
        dom = dominant_representative(moved)
        acc[dom] = acc.get(dom, 0) + sign
    terms = [(dom, coef) for dom, coef in acc.items() if coef != 0]
    terms.sort(key=lambda t: (max(t[0]), t[0]))
    return tuple(terms)

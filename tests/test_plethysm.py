"""Theorem 2 against two classical plethysms, at every rank up to 10.

Each rule gives every highest weight of a module, and shares no code with
the package: the partitions are computed here, and only the top-level
``highest_weight_multiplicity`` is imported (neither the orbit walk nor
the oracles).  A dominant weight of a degree-``k`` piece of
``S(S^d C^n)`` is the weight of a partition ``p`` of ``kd`` with at most
``n`` parts, with labels ``p[r] - p[r + 1]``; distinct partitions of one
size give distinct labels, so walking the partitions walks every
dominant weight that can occur.

- ``S^k(S^2 C^n)`` is the sum of ``V_p`` over the partitions ``p`` of
  ``2k`` with at most ``n`` parts, all of them even, each once
  (Littlewood; Macdonald, *Symmetric Functions and Hall Polynomials*,
  ch. I.8).
- ``S^2(S^d C^n)`` is the sum of ``V_(2d-j, j)`` over even ``j <= d``,
  each once.

Hermite reciprocity, ``S^k(S^d C^2) = S^d(S^k C^2)``, is checked too.
Both sides run the same engine, so it is a symmetry test rather than an
independent oracle, but it catches a bug that confuses ``d`` with ``k``
in a way that breaks the symmetry.
"""

import math

import pytest

from naryinv import highest_weight_multiplicity

#: the largest k of the first rule and the largest d of the second, per n
SQUARE_KMAX = {2: 12, 3: 10, 4: 8, 5: 8, 6: 7, 7: 6, 8: 6, 9: 5, 10: 4}
SQUARE_DMAX = {2: 8, 3: 8, 4: 8, 5: 8, 6: 5, 7: 5, 8: 5, 9: 5, 10: 4}


def _partitions(total, parts, largest=None):
    """Partitions of ``total`` into exactly ``parts`` parts, zeros allowed,
    each at most ``largest``, in decreasing lexicographic order."""
    largest = total if largest is None else largest
    if parts == 1:
        if total <= largest:
            yield (total,)
        return
    for first in range(min(total, largest), -1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def _labels(partition):
    return tuple(a - b for a, b in zip(partition, partition[1:]))


def _cases(n):
    """``(d, k, partition, expected multiplicity)`` of both rules at rank n."""
    for k in range(SQUARE_KMAX[n] + 1):
        for p in _partitions(2 * k, n):
            yield 2, k, p, int(all(x % 2 == 0 for x in p))
    for d in range(1, SQUARE_DMAX[n] + 1):
        for p in _partitions(2 * d, n):
            yield d, 2, p, int(not any(p[2:]) and p[1] % 2 == 0)


def _mismatches(gamma, n):
    return [
        (d, k, p, expected, got)
        for d, k, p, expected in _cases(n)
        if (got := gamma(n, d, k, _labels(p))) != expected
    ]


def test_partitions_are_counted_by_hand():
    # the partitions of 4 into at most 3 parts: 4, 31, 22, 211
    assert list(_partitions(4, 3)) == [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]
    assert _labels((3, 1, 0)) == (2, 1)
    # S^2(S^2 C^3) = V_(4) + V_(2,2), once from each rule, and
    # S^2(S^3 C^2) = V_(6) + V_(4,2)
    square = [(4, 0, 0), (2, 2, 0)]
    assert [p for d, k, p, e in _cases(3) if (d, k) == (2, 2) and e] == square + square
    assert [p for d, k, p, e in _cases(2) if (d, k) == (3, 2) and e] == [(6, 0), (4, 2)]


@pytest.mark.parametrize("n", sorted(SQUARE_KMAX))
def test_classical_plethysms(n):
    assert _mismatches(highest_weight_multiplicity, n) == []


def test_classical_plethysms_tell_a_weight_from_its_dual():
    # S^k(S^2 C^n) is not self-dual at n >= 3, so a gamma that reads the
    # dual weight (labels reversed) must fail the rules
    def dual(n, d, k, labels):
        return highest_weight_multiplicity(n, d, k, labels[::-1])

    assert _mismatches(dual, 3)


def test_hermite_reciprocity():
    # gamma(2, d, k, m) = gamma(2, k, d, m) at every weight m of degree dk,
    # and the modules fill S^k(S^d C^2), of dimension C(d + k, k)
    gamma = highest_weight_multiplicity
    cases, mismatches = 0, []
    for d in range(1, 13):
        for k in range(1, 13):
            values = [gamma(2, d, k, (m,)) for m in range(d * k + 1)]
            cases += len(values)
            mismatches += [(d, k, m) for m, v in enumerate(values) if v != gamma(2, k, d, (m,))]
            assert sum(v * (m + 1) for m, v in enumerate(values)) == math.comb(d + k, k)
    assert cases == 6228 and mismatches == []

"""Independent verification paths for the dimension formulas.

Nothing here shares machinery with the signed-orbit route.  ``check``
takes its characters from the product ``prod_i 1/(1 - t x^wt(i))`` over
the coefficient indices, expanded one index at a time for every degree up
to its top, with weights packed into one ``int``, and reads out only the
dominant weights, the only ones stripping reads; ``brute_character`` is
the exhaustive reference, which enumerates every monomial, one combination
of indices each, and counts its packed moment vector into the whole
character.  Both give each packed component a field wide enough that no
sum carries.  Under ``MAX_TERMS``, the product pass is refused by the
entries it would hold, brute force by the monomials it would visit.
Irreducible weight multiplicities are Kostka numbers, counts of
semistandard tableaux by content, which permuting the content leaves
unchanged: they are counted at ascending contents and tabulated per
module at its dominant weights; stripping keys each
dominant weight by its partition, which it computes itself, and extracts
highest weights greedily in decreasing lexicographic order of partitions,
which extends dominance.  The binary case is a bounded-partition difference.
Within the package this module imports only ``errors``, ``forms`` and,
from ``weights``, the ``Weight`` type: never the counting engine, the
orbit walk or its coordinates.  These oracles exist to certify the main
formulas, not to be fast at scale.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Iterator, NamedTuple

from .errors import MAX_TERMS, InternalError, ResourceLimitError, check_params
from .forms import enumerate_indices, weight_from_moments
from .weights import Weight


class CharacterTable(NamedTuple):
    """Weight multiplicities of the degree-``k`` coefficient monomials:
    at every weight from :func:`brute_character`, at the dominant weights
    only from :func:`character_tables` (the rest follow by Weyl symmetry)."""

    n: int
    d: int
    k: int
    multiplicities: dict[Weight, int]


def symmetric_power_dimension(n: int, d: int, k: int) -> int:
    """Dimension of the space of degree-``k`` coefficient monomials, in the
    ``binomial(n - 1 + d, n - 1)`` coefficients of the form."""
    check_params(n, d)
    return math.comb(math.comb(n - 1 + d, n - 1) + k - 1, k)


def brute_character(n: int, d: int, k: int, max_monomials: int = MAX_TERMS) -> CharacterTable:
    """Tally the weight of every degree-``k`` monomial in the coefficients.

    Exhaustive: every multiset of ``k`` indices is visited once, as one
    combination, and the total mass of the table is the full
    symmetric-power dimension.  Each index's moment vector is packed into
    one ``int``, entry ``s`` in the ``width``-bit field at bit
    ``s * width``, so a monomial's moments are one small-int sum of its
    factors.  No moment of a degree-``k`` monomial exceeds ``d * k``, which
    fits in ``width`` bits, so no field carries into the next and distinct
    moment vectors give distinct sums.  Each distinct sum is unpacked and
    converted to a weight once; distinct moment vectors of one degree have
    distinct weights.
    """
    check_params(n, d, k)
    total = symmetric_power_dimension(n, d, k)
    if total > max_monomials:
        raise ResourceLimitError(
            f"character enumeration needs {total} monomials, above the "
            f"limit {max_monomials}"
        )
    width = max(1, (d * k).bit_length())
    # degree 0 has one monomial, the empty product, and needs no index list
    packed = [
        sum(x << (s * width) for s, x in enumerate(index))
        for index in (enumerate_indices(n, d) if k else ())
    ]
    tally = Counter(map(sum, itertools.combinations_with_replacement(packed, k)))
    field_mask = (1 << width) - 1
    table = {
        weight_from_moments(
            n, d, k, [(key >> (s * width)) & field_mask for s in range(n - 1)]
        ): c
        for key, c in tally.items()
    }
    return CharacterTable(n=n, d=d, k=k, multiplicities=table)


def character_tables(
    n: int, d: int, kmax: int, max_terms: int = MAX_TERMS
) -> Iterator[CharacterTable]:
    """An iterator over the character of each degree ``0..kmax`` in turn,
    at its dominant weights only.

    The characters of all degrees are the coefficients of ``t^k`` in the
    product ``prod_i 1 / (1 - t x^wt(i))`` over the coefficient indices,
    expanded one index at a time without visiting a monomial: for each
    index, degree ``k = 1..kmax`` in turn, upward and in place, gains
    degree ``k - 1`` shifted by the index's weight.  Each degree is a dict
    keyed by packed weights: field ``s`` holds the sum of ``wt_s + d`` over
    the factors, at most ``2 * d * kmax``, in ``(2 * d * kmax).bit_length()``
    bits and one spare bit above them, so no field carries.  The whole pass
    runs when the first table is asked for; every degree's total mass,
    over every packed entry, must then equal the symmetric-power
    dimension.  Each degree is read out only when it is yielded, and only
    at its dominant weights (every ``wt_s >= 0``): a character is
    Weyl-symmetric, so they determine the rest.  Degree ``k`` reads each
    weight back as its fields minus ``k * d``.

    Degree ``k`` holds one entry per moment vector ``m >= 0`` with
    ``|m| <= d * k`` (each splits into ``k`` indices):
    ``C(d * k + n - 1, n - 1)``; a partial product holds fewer.  Summed
    from ``kmax`` down, past ``max_terms`` entries the pass is refused
    before any is built.
    """
    check_params(n, d, kmax, max_terms)
    entries = 0
    for k in range(kmax, -1, -1):
        entries += math.comb(d * k + n - 1, n - 1)
        if entries > max_terms:
            raise ResourceLimitError(
                f"character tables would hold at least {entries} entries, "
                f"above the limit {max_terms}"
            )
    return _product_tables(n, d, kmax)


def _product_tables(n: int, d: int, kmax: int) -> Iterator[CharacterTable]:
    """The product pass of :func:`character_tables`, once its size is checked.

    Every field holds a value in ``0..2 * d * kmax``, below ``half``, the
    field's spare bit.  Degree ``k`` adds ``half - k * d`` to every field:
    the sum stays below ``2 * half``, so nothing carries into the next
    field, and the spare bit is set exactly when the field held at least
    ``k * d``, a weight component of at least 0.  A key with every spare
    bit set is a dominant weight, and only those keys are converted.
    """
    width = (2 * d * kmax).bit_length() + 1
    field_mask = (1 << width) - 1
    offsets = [s * width for s in range(n - 1)]
    half = 1 << (width - 1)
    high = sum(half << offset for offset in offsets)
    # degree 0 has one monomial, the empty product, and needs no index list
    shifts = [
        sum((w + d) << offset for w, offset in zip(weight_from_moments(n, d, 1, i), offsets))
        for i in (enumerate_indices(n, d) if kmax else ())
    ]
    degrees: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(kmax)]
    for shift in shifts:
        for lower, packed in zip(degrees, degrees[1:]):
            get = packed.get
            for key, c in lower.items():
                key += shift
                packed[key] = get(key, 0) + c
    for k, packed in enumerate(degrees):
        mass, expected = sum(packed.values()), symmetric_power_dimension(n, d, k)
        if mass != expected:
            raise InternalError(
                f"the character of degree {k} has mass {mass}, not {expected}"
            )
    for k, packed in enumerate(degrees):
        degrees[k] = {}  # the generator's last reference goes at the next degree
        base = k * d
        adj = sum((half - base) << offset for offset in offsets)
        table = {
            tuple([((key >> offset) & field_mask) - base for offset in offsets]): c
            for key, c in packed.items()
            if (key + adj) & high == high
        }
        yield CharacterTable(n=n, d=d, k=k, multiplicities=table)


@functools.lru_cache(maxsize=4096)
def _tableau_contents(shape: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Semistandard tableaux of ``shape``, a descending vector with one row
    per letter (zeros allowed), counted by ascending content.

    A Kostka number does not change when its content is permuted, so the
    ascending contents hold every one; the largest letter then holds the
    largest count, and the inner shapes stay small.  The entries equal to
    the largest letter form a horizontal strip ``shape / nu``, where ``nu``
    interlaces ``shape`` (Gelfand--Tsetlin branching).  A content is
    ascending only if the content of the smaller letters is, so each
    content of ``nu`` is extended only when its last entry is at most the
    strip; and ``nu`` is skipped before it is recursed into when ``shape``
    holds more than ``len(shape)`` times the strip, since no count of an
    ascending content exceeds its last.  Modules share sub-shapes, hence
    the memo.
    """
    if len(shape) == 1:
        return {shape: 1}
    total = sum(shape)
    out: dict[tuple[int, ...], int] = {}
    for nu in itertools.product(*(range(b, a + 1) for a, b in zip(shape, shape[1:]))):
        strip = total - sum(nu)
        if total > len(shape) * strip:
            continue
        for mu, c in _tableau_contents(nu).items():
            if mu[-1] <= strip:
                key = mu + (strip,)
                out[key] = out.get(key, 0) + c
    return out


@functools.lru_cache(maxsize=1024)
def _module_table(top: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Multiplicities of the module with partition ``top`` at its dominant
    weights, keyed by partition: the Kostka numbers ``K(top, mu)`` at every
    ascending content ``mu``, reversed, less its full columns (its first
    entry)."""
    return {
        tuple([x - mu[0] for x in reversed(mu)]): c
        for mu, c in _tableau_contents(top).items()
    }


def strip_decompose(table: CharacterTable) -> dict[Weight, int]:
    """Greedy top-down extraction of irreducible multiplicities.

    Restricts the character to its dominant weights (no information is lost:
    characters are symmetric under the Weyl group) and keys each by its
    partition ``lam``: the weight's prefix sums, reversed, with last part 0.
    Walks them in decreasing lexicographic order, reads the remaining
    multiplicity at each as the multiplicity of the irreducible with that
    highest weight, and subtracts that module's dominant character via its
    table of Kostka numbers.  Every other key of that table is
    lexicographically below ``lam``: a content ``mu`` with last part 0 is
    dominated by ``lam``, and dominance implies lexicographic order; one
    with last part ``m > 0`` is keyed by ``mu - m``, whose first part
    ``mu[0] - m`` is below ``lam[0]``.  So every module that reaches a
    partition is stripped before that partition is read.  Only the highest
    weights found are converted back to weights.
    The zero-weight entry of the result is an independent computation of
    the invariant dimension.  A table that is not a character raises
    :class:`InternalError` at one of two guards: a negative count at a
    partition as it is read, or a count left after the last read, which is
    where a partition the table never lists, and so never reads, shows.
    """
    dominant = ((w, m) for w, m in table.multiplicities.items() if min(w) >= 0)
    remaining = {tuple(itertools.accumulate(w, initial=0))[::-1]: m for w, m in dominant}
    out: dict[Weight, int] = {}
    for lam in sorted(remaining, reverse=True):
        count = remaining[lam]
        if count == 0:
            continue
        if count < 0:
            raise InternalError(
                f"negative remaining multiplicity {count} at partition {lam} while stripping"
            )
        out[tuple(a - b for a, b in zip(lam[-2::-1], lam[::-1]))] = count
        for target, mult in _module_table(lam).items():
            remaining[target] = remaining.get(target, 0) - count * mult
    leftover = [(lam, v) for lam, v in remaining.items() if v]
    if leftover:
        lam, v = leftover[0]
        raise InternalError(
            f"stripping left {v} at partition {lam}, one of {len(leftover)} left unexplained"
        )
    return out


def binary_invariant_dimension(d: int, k: int) -> int:
    """Invariant dimension for binary forms via bounded partitions.

    Zero when ``k * d`` is odd; otherwise the number of partitions of
    ``k*d/2`` fitting in a ``k`` by ``d`` box minus the number for
    ``k*d/2 - 1``.  Those counts are coefficients of the Gaussian binomial
    ``[k + d, k]_q``, built as a product of ratios; nothing is shared with
    the generating-series expansion.
    """
    check_params(2, d, k)
    if (k * d) % 2:
        return 0
    half = k * d // 2
    # a box and its transpose hold the same partitions; loop over the short side
    counts = _box_partition_counts(min(k, d), max(k, d), half)
    return counts[half] - (counts[half - 1] if half else 0)


def _box_partition_counts(rows: int, cols: int, top: int) -> list[int]:
    """Partitions of ``m`` into at most ``rows`` parts, each <= ``cols``,
    for ``m = 0..top``: the coefficients of the Gaussian binomial
    ``[rows + cols, rows]_q = prod_{i=1..rows} (1 - q^(cols+i)) / (1 - q^i)``,
    truncated at ``q^top``.  Each partial product is itself a Gaussian
    binomial, hence a polynomial, so every division is exact."""
    poly = [1] + [0] * top
    for i in range(1, rows + 1):
        for j in range(top, cols + i - 1, -1):
            poly[j] -= poly[j - cols - i]
        for j in range(i, top + 1):
            poly[j] += poly[j - i]
    return poly

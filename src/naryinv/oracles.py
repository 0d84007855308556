"""Independent verification paths for the dimension formulas.

Nothing here shares machinery with the signed-orbit route.  ``check``
takes its characters from the product ``prod_i 1/(1 - t x^wt(i))`` over
the coefficient indices, expanded one index at a time for every degree up
to its top, with weights packed into one ``int``, and reads out only the
dominant weights, the only ones stripping reads, each straight into its
packed partition; ``brute_character`` is the exhaustive reference, which
enumerates every monomial, one combination of indices each, and counts its
packed moment vector into the whole character.  Under ``MAX_TERMS``, the
product pass is refused by the entries it would hold, brute force by the
monomials it would visit.  Irreducible weight multiplicities are Kostka
numbers, counts of semistandard tableaux by content, which permuting the
content leaves unchanged: they are counted at ascending contents, by
Gelfand--Tsetlin branching down to three rows, whose patterns are counted
in closed form (two rows for binary forms, where each count is 1).
Stripping walks the partitions of the dominant weights in decreasing
lexicographic order, which extends dominance, extracts highest weights
greedily, and subtracts each module's counts where they stand.  The
binary case is a bounded-partition difference.

Every key is a vector packed into one ``int`` by :func:`_pack`, entry
``j`` in the ``width``-bit field at bit ``j * width``: a moment vector, a
weight (each component offset to be nonnegative), a Kostka content (the
count of letter ``j + 1`` in field ``j``) or a partition, packed as its
ascending (ambient) vector.  A partition's first part is then its most
significant field, so while no field carries, adding keys adds vectors and
the numeric order of partitions is their lexicographic order.  The keys of
one table share one width, ``_field_width(budget)``, where ``budget``
bounds the first part of every partition in it: ``d * kmax`` for
``check``, whose product pass, stripping and Kostka tables share it, and
the largest first part for a weight-keyed table (for brute force's
moments, ``d * k`` bounds every entry).  The width holds ``2 * budget``
below a spare bit, which the product pass needs.  No part exceeds the
first, and no Kostka count exceeds the first part of its shape, since a
letter fills at most one box of each column, so the width holds every key
at any size.

Within the package this module imports only ``errors``, ``forms`` and,
from ``weights``, the ``Weight`` type: never the counting engine, the orbit
walk or its coordinates.  These oracles exist to certify the main
formulas, not to be fast at scale.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .errors import MAX_TERMS, InternalError, ResourceLimitError, check_params, check_weight
from .forms import enumerate_indices, weight_from_moments
from .weights import Weight


class CharacterTable(NamedTuple):
    """Weight multiplicities of the degree-``k`` coefficient monomials at
    every weight, as :func:`brute_character` tallies them."""

    n: int
    d: int
    k: int
    multiplicities: dict[Weight, int]


class PartitionTable(NamedTuple):
    """The degree-``k`` character at its dominant weights only (the rest
    follow by Weyl symmetry), as :func:`character_tables` yields it: each
    weight's multiplicity keyed by its partition, packed in the module's
    layout in ``width``-bit fields."""

    n: int
    d: int
    k: int
    width: int
    partitions: dict[int, int]


def symmetric_power_dimension(n: int, d: int, k: int) -> int:
    """Dimension of the space of degree-``k`` coefficient monomials, in the
    ``binomial(n - 1 + d, n - 1)`` coefficients of the form."""
    check_params(n, d)
    return math.comb(math.comb(n - 1 + d, n - 1) + k - 1, k)


def brute_character(n: int, d: int, k: int, max_monomials: int = MAX_TERMS) -> CharacterTable:
    """Tally the weight of every degree-``k`` monomial in the coefficients.

    Exhaustive: every multiset of ``k`` indices is visited once, as one
    combination, and the total mass of the table is the full
    symmetric-power dimension.  Each index's moment vector is packed by
    :func:`_pack`, so a monomial's moments are one small-int sum of its
    factors.  No moment of a degree-``k`` monomial exceeds ``d * k``, the
    width's budget, so no field carries into the next and distinct moment
    vectors give distinct sums.  Each distinct sum is unpacked and
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
    width = _field_width(d * k)
    # degree 0 has one monomial, the empty product, and needs no index list
    packed = [_pack(index, width) for index in (enumerate_indices(n, d) if k else ())]
    tally = Counter(map(sum, itertools.combinations_with_replacement(packed, k)))
    table = {
        weight_from_moments(n, d, k, _unpack(key, n - 1, width)): c for key, c in tally.items()
    }
    return CharacterTable(n=n, d=d, k=k, multiplicities=table)


def character_tables(
    n: int, d: int, kmax: int, max_terms: int = MAX_TERMS
) -> Iterator[PartitionTable]:
    """An iterator over the character of each degree ``0..kmax`` in turn,
    at its dominant weights only, each keyed by its packed partition.

    The characters of all degrees are the coefficients of ``t^k`` in the
    product ``prod_i 1 / (1 - t x^wt(i))`` over the coefficient indices,
    expanded one index at a time without visiting a monomial: for each
    index, degree ``k = 1..kmax`` in turn, upward and in place, gains
    degree ``k - 1`` shifted by the index's weight, so the pass makes at
    most ``|indices| * sum_k |h_k|`` updates, ``|h_k|`` the entries of
    degree ``k``.  Each degree is a dict keyed by packed weights: field
    ``s`` holds the sum of ``wt_s + d`` over the factors, at most
    ``2 * d * kmax``, below a spare bit, so no field carries.  Every table
    has the width ``_field_width(d * kmax)``.  The whole pass runs when
    the first table is asked for; every degree's total mass, over every
    packed entry, must then equal the symmetric-power dimension, else
    :class:`InternalError`.  Each degree is read out only when it is
    yielded, and only at its dominant weights (every ``wt_s >= 0``): a
    character is Weyl-symmetric, so they determine the rest.  Each is read
    out straight into the packed partition that :func:`strip_decompose`
    reads, with no weight tuple in between.

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


def _product_tables(n: int, d: int, kmax: int) -> Iterator[PartitionTable]:
    """The product pass of :func:`character_tables`, once its size is checked.

    Every field holds a value in ``0..2 * d * kmax``, below ``half``, the
    field's spare bit.  Degree ``k`` adds ``half - k * d`` to every field:
    the sum stays below ``2 * half``, so nothing carries into the next
    field, and the spare bit is set exactly when the field held at least
    ``k * d``, a weight component of at least 0.  A key with every spare
    bit set is a dominant weight; less ``k * d`` in every field, it holds
    the weight one component per field, which :func:`_partitions` turns
    into its packed partition.  Only those keys are read out.
    """
    width = _field_width(d * kmax)
    ones = _pack((1,) * (n - 1), width)
    half = 1 << (width - 1)
    high = half * ones
    # degree 0 has one monomial, the empty product, and needs no index list
    shifts = [
        _pack([w + d for w in weight_from_moments(n, d, 1, i)], width)
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
        adj, base = (half - k * d) * ones, k * d * ones
        dominant = ((key - base, c) for key, c in packed.items() if (key + adj) & high == high)
        yield PartitionTable(n, d, k, width, _partitions(dominant, n, width))


def _field_width(budget: int) -> int:
    """Bits per field of one table's packed keys, when ``budget`` bounds the
    first part of every partition in it (the module docstring's rule)."""
    return (2 * budget).bit_length() + 1


def _pack(entries: Iterable[int], width: int) -> int:
    """A vector as one ``int``: entry ``j`` in the ``width``-bit field at bit
    ``j * width``.  Every entry must be in ``0..2 ** width - 1``."""
    return sum(x << (j * width) for j, x in enumerate(entries))


def _unpack(key: int, rows: int, width: int) -> tuple[int, ...]:
    """The ``rows`` entries of a key packed by :func:`_pack`, in order."""
    mask = (1 << width) - 1
    return tuple((key >> shift) & mask for shift in range(0, rows * width, width))


def _partitions(weights: Iterable[tuple[int, int]], n: int, width: int) -> dict[int, int]:
    """The packed partitions of ``(weight, count)`` pairs, each dominant
    weight packed by :func:`_pack`.

    A partition's ascending vector is the weight's prefix sums: prefix sum
    ``t`` (of components ``0..t-1``) in field ``t``, for ``t = 0..n-1``.
    Multiplying by ``sum_{j=1..n-1} 2 ** (j * width)`` adds component ``s``
    into every field ``s + j``, which puts each prefix sum in its field; the
    mask drops the fields above ``n - 1``.  Every component is at least 0
    and every prefix sum at most the first part, so nothing borrows or
    carries below the mask."""
    spread, mask = _pack((0,) + (1,) * (n - 1), width), (1 << (n * width)) - 1
    return {(key * spread) & mask: c for key, c in weights}


@functools.lru_cache(maxsize=4096)
def _tableau_contents(shape: tuple[int, ...], width: int) -> dict[int, int]:
    """Semistandard tableaux of ``shape``, a descending vector with one row
    per letter (zeros allowed, at least two rows), counted by ascending
    content, each content packed in the module's layout at a ``width`` that
    holds the first part; being the hot loop, the recursion sets and reads
    fields by shifts in place rather than through :func:`_pack`.  The memo
    is keyed by shape and width, so one shape's tables at two widths are
    two entries.

    A Kostka number does not change when its content is permuted, so the
    ascending contents hold every one; the largest letter then holds the
    largest count, and the inner shapes stay small.  The entries equal to
    the largest letter form a horizontal strip ``shape / nu``, where ``nu``
    interlaces ``shape`` (Gelfand--Tsetlin branching); adding the strip
    sets the top field.  A content is ascending only if the content of the
    smaller letters is, so each content of ``nu`` is extended only when its
    last entry, its top field, is at most the strip; and ``nu`` is skipped
    before it is recursed into when ``shape`` holds more than
    ``len(shape)`` times the strip, since no count of an ascending content
    exceeds its last.  Three rows ``(a, b, c)`` are counted in closed form,
    and the recursion stops there: a tableau is a pattern of rows
    ``(a, b, c)``, ``(nu1, nu2)`` and ``(mu1)``, each interlacing the one
    above, of content ``(mu1, t - mu1, T - t)``, where ``T = a + b + c``
    and ``t = nu1 + nu2``, so its Kostka number counts the ``nu2`` in
    ``[max(c, t - a), min(b, t - b, mu1)]`` (then ``nu1 = t - nu2``
    interlaces, and ``mu1 <= t - mu1`` gives ``mu1 <= nu1``).  Only a
    count ``m3`` of letter 3 in ``[max(c, ceil(T / 3)), a]`` ends an
    ascending content, and each ``m3`` bounds ``nu2`` once, so only the
    nonzero counts are visited.  Two rows
    ``(a, b)``, reached only by binary forms, are counted directly: every
    ascending content ``(p, a + b - p)`` with ``p >= b`` fills them in
    exactly one way (the ``p`` ones start the first row, the second row is
    all twos), and no other fills them at all.  Shapes of four rows or more
    recurse, and read their three-row inner shapes through the memo;
    modules share sub-shapes, hence the memo.
    """
    rows = len(shape)
    if rows == 2:
        a, b = shape
        return {p + ((a + b - p) << width): 1 for p in range(b, (a + b) // 2 + 1)}
    total = sum(shape)
    out: dict[int, int] = {}
    if rows == 3:
        a, b, c = shape
        step = (1 << width) - 1
        for m3 in range(max(c, -(-total // 3)), a + 1):
            t = total - m3
            lo = t - a if t - a > c else c
            hi = t - b if t - b < b else b
            if hi < lo:
                continue
            # m1 <= m2 <= m3, and m1 >= lo for a count of at least 1
            first = t - m3 if t - m3 > lo else lo
            # the content (0, t, m3), less m1 * step: m1 moved to field 0
            key = (m3 << (2 * width)) + (t << width)
            for m1 in range(first, t // 2 + 1):
                out[key - m1 * step] = (m1 if m1 < hi else hi) - lo + 1
        return out
    last, top = (rows - 2) * width, (rows - 1) * width
    for nu in itertools.product(*(range(b, a + 1) for a, b in zip(shape, shape[1:]))):
        strip = total - sum(nu)
        if total > rows * strip:
            continue
        added = strip << top
        for mu, c in _tableau_contents(nu, width).items():
            if mu >> last <= strip:
                key = mu + added
                out[key] = out.get(key, 0) + c
    return out


def _partition_table(table: CharacterTable) -> PartitionTable:
    """A weight-keyed table at its dominant weights, keyed by packed
    partition at the width its largest first part needs.  A weight that
    :func:`check_weight` refuses, or a multiplicity that is not an ``int``,
    is refused with :class:`ValueError`."""
    n = table.n
    for w, m in table.multiplicities.items():
        check_weight(n, w, f"weight {w}")
        if not isinstance(m, int):
            raise ValueError(f"multiplicity of weight {w}: {m!r} is not an integer")
    dominant = [(w, m) for w, m in table.multiplicities.items() if min(w) >= 0]
    width = _field_width(max((sum(w) for w, _ in dominant), default=0))
    packed = ((_pack(w, width), m) for w, m in dominant)
    return PartitionTable(n, table.d, table.k, width, _partitions(packed, n, width))


def strip_decompose(table: PartitionTable | CharacterTable) -> dict[Weight, int]:
    """Greedy top-down extraction of irreducible multiplicities.

    Reads the character at its dominant weights only (no information is
    lost: characters are symmetric under the Weyl group), each keyed by its
    packed partition ``lam``: a :class:`PartitionTable` from
    :func:`character_tables` is keyed so already, and a
    :class:`CharacterTable` is converted once by :func:`_partition_table`.
    Walks the keys in decreasing order, the partitions' lexicographic
    order, reads the remaining multiplicity at each as the multiplicity of
    the irreducible with that highest weight, and subtracts that module's
    dominant character: each Kostka number ``K(top, mu)`` of
    :func:`_tableau_contents`, at the table's width, at the packed
    partition of ``mu`` (an ascending content is packed as a partition's
    ascending vector) less its full columns (field 0 taken from every field
    at once).  The contents of one shape share their sum, so no two meet at
    one key.  Every key but ``lam`` is lexicographically below it: a content
    with last part 0 is dominated by ``lam``, and dominance implies
    lexicographic order; one with last part ``m > 0`` is keyed by
    ``mu - m``, whose first part ``mu[0] - m`` is below ``lam[0]``.  So
    every module that reaches a partition is stripped before that partition
    is read.  Only the highest weights found, and a partition a guard
    names, are unpacked.  Every module read is one of the table's
    partitions, so the table's width holds its counts.  The zero-weight
    entry of the result is an independent computation of the invariant
    dimension.  A rank below 2 is refused with :class:`ValueError`.  A
    table that is not a character raises :class:`InternalError` at one of
    two guards: a negative count at a partition as it is read, or a count
    left after the last read, which is where a partition the table never
    lists, and so never reads, shows.
    """
    check_params(table.n)
    if isinstance(table, CharacterTable):
        table = _partition_table(table)
    n, width = table.n, table.width
    remaining = dict(table.partitions)
    mask, ones = (1 << width) - 1, _pack((1,) * n, width)
    out: dict[Weight, int] = {}
    for lam in sorted(remaining, reverse=True):
        count = remaining[lam]
        if count == 0:
            continue
        asc = _unpack(lam, n, width)
        if count < 0:
            raise InternalError(
                f"negative remaining multiplicity {count} at partition "
                f"{asc[::-1]} while stripping"
            )
        out[tuple(map(operator.sub, asc[1:], asc))] = count
        for mu, mult in _tableau_contents(asc[::-1], width).items():
            target = mu - (mu & mask) * ones
            remaining[target] = remaining.get(target, 0) - count * mult
    leftover = [(lam, v) for lam, v in remaining.items() if v]
    if leftover:
        lam, v = leftover[0]
        raise InternalError(
            f"stripping left {v} at partition {_unpack(lam, n, width)[::-1]}, one of "
            f"{len(leftover)} left unexplained"
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

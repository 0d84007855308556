"""Independent verification paths for the dimension formulas.

Nothing here shares machinery with the signed-orbit route.  ``check``
takes its characters from the product ``prod_i 1/(1 - t x^wt(i))`` over
the coefficient indices, expanded one index at a time for every degree up
to its top, each degree one ``int`` with one whole-byte cell per moment
vector of a box capped below every moment a dominant weight reads, and
reads out only the dominant weights, the only ones stripping reads, each
straight into its packed partition, checked by their mass over their Weyl
orbits; ``brute_character`` is the exhaustive reference, which
enumerates every monomial, one combination of indices each, and counts its
packed moment vector into the whole character.  Under ``MAX_TERMS``, the
product pass is refused by the cells its layers would hold, brute force by
the monomials it would visit.  Irreducible weight multiplicities are Kostka
numbers, counts of semistandard tableaux by content, which permuting the
content leaves unchanged: they are counted at ascending contents, by
Gelfand--Tsetlin branching down to four rows, whose patterns are counted
by one sum over their second row of a closed form for three rows (two rows
for binary forms, where each count is 1).
Stripping walks the partitions of the dominant weights in decreasing
lexicographic order, which extends dominance, extracts highest weights
greedily, and subtracts each module's counts where they stand.  The
binary case is a bounded-partition difference.

Every key is a vector packed into one ``int`` by :func:`_pack`, entry
``j`` in the ``width``-bit field at bit ``j * width``: a moment vector, a
dominant weight, a Kostka content (the count of letter ``j + 1`` in field
``j``) or a partition, packed as its ascending (ambient) vector.  A
partition's first part is then its most significant field, so while no
field carries, adding keys adds vectors and the numeric order of
partitions is their lexicographic order.  The keys of one table share one
width, ``_field_width(budget)``, where ``budget`` bounds the first part of
every partition in it: ``d * kmax`` for ``check``, whose product pass,
stripping and Kostka tables share it, and the largest first part for a
weight-keyed table (for brute force's moments, ``d * k`` bounds every
entry).  The width holds ``2 * budget`` below a spare bit, more than any
key needs; the product pass sizes its cells by the same rule, at the top
degree's mass, in whole bytes.  No part exceeds the first, and no Kostka
count exceeds the first part of its shape, since a letter fills at most
one box of each column, so the width holds every key at any size.

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
import weakref
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
    expanded one index at a time without visiting a monomial.  Degree ``k``
    is one ``int``, a layer with one cell per moment vector ``m`` (the sum
    of a monomial's indices) of a capped box, counting the monomials of
    degree ``k`` at ``m``; for each index, degree ``k = 1..kmax`` in turn,
    upward and in place, gains degree ``k - 1`` shifted by the index's
    cell, so the pass makes one shift-add per index and degree (see
    :func:`_product_tables` for the layout).  Only dominant weights are
    read: a character is Weyl-symmetric, so they determine the rest.

    The cap: a dominant weight of degree ``k`` is a partition ``E`` of
    ``d * k`` into ``n`` parts (the exponents of the variables), read at
    the cell ``m = E[1:]``, so ``m_0 + |m| <= d * k``, and the ``j + 2``
    parts ``E_0..E_{j+1}`` are each at least ``m_j``, so
    ``(j + 2) * m_j <= d * kmax``.  Indices are nonnegative, so every cell
    that feeds a read, at any degree, is at most ``m`` in each coordinate.
    So coordinate ``j`` is capped at ``d * kmax // (j + 2)``, and the box
    drops only cells that reach no read.  Every table has the width
    ``_field_width(d * kmax)``.  The whole pass runs when the first table
    is asked for; each degree's orbit mass, the sum over its dominant
    weights of each count times the size of the weight's Weyl orbit, must
    then equal the symmetric-power dimension, else :class:`InternalError`.

    The layers hold ``1 + kmax * prod(strides)`` cells (degree 0 holds
    one); past ``max_terms`` cells the pass is refused before any layer is
    built.
    """
    check_params(n, d, kmax, max_terms)
    cells = 1 + kmax * _moment_box(n, d, kmax)[1][-1]
    if cells > max_terms:
        raise ResourceLimitError(
            f"character tables would hold {cells} cells, above the limit {max_terms}"
        )
    return _product_tables(n, d, kmax)


def _moment_box(n: int, d: int, kmax: int) -> tuple[list[int], list[int]]:
    """The capped box of :func:`character_tables`' layers: the cap
    ``d * kmax // (j + 2)`` of each coordinate ``j``, and its place, the
    cells one unit of it moves, in the mixed radix of strides
    ``cap + min(d, cap) + 1``; the last place is the cells of one layer."""
    caps = [d * kmax // (j + 2) for j in range(n - 1)]
    places = [1]
    for cap in caps:
        places.append(places[-1] * (cap + min(d, cap) + 1))
    return caps, places


def _product_tables(n: int, d: int, kmax: int) -> Iterator[PartitionTable]:
    """The product pass of :func:`character_tables`, once its size is checked.

    A cell is ``_field_width(mass)`` bits, rounded up to whole bytes, for
    the mass of the top degree, which bounds every count of every degree,
    and the moment vector ``m`` is the cell ``sum_j m_j * place_j``.  After
    each shift-add the layer is ANDed with the box, the cells with every
    coordinate within its cap.  An index above a cap in some coordinate is
    dead: every cell it feeds would be masked, so the index walk stops
    short of it.  A live index moves a coordinate by at most
    ``min(d, cap)``, so a cell within the caps lands below its coordinate's
    stride: no shift aliases one moment vector onto another, and no count
    carries into the next cell.
    Each degree is written out by one ``to_bytes``, and each dominant
    weight's count read from its slice, at the offset that
    :func:`_dominant_cells` gives its tail; the key and the orbit of each
    degree are derived from the tail's entry as that degree is read.
    """
    caps, places = _moment_box(n, d, kmax)
    size = -(-_field_width(symmetric_power_dimension(n, d, kmax)) // 8)
    # the bytes that one unit of each coordinate moves a cell, then a layer's
    units = [size * place for place in places]
    # coordinate j's box: cap_j + 1 copies of the box below it, one per
    # unit, then empty cells up to the next coordinate's unit
    box = b"\xff" * size
    for cap, unit, above in zip(caps, units, units[1:]):
        box = box * (cap + 1) + bytes(above - unit * (cap + 1))
    box = int.from_bytes(box, "little")
    layers = [1] + [0] * kmax
    for at in _index_cells(n, d, caps, units) if kmax else ():
        lower, shift = layers[0], 8 * at
        for k in range(1, kmax + 1):
            lower = layers[k] = (layers[k] + (lower << shift)) & box
    width, tables = _field_width(d * kmax), []
    step, cells = _dominant_cells(n, d, kmax, units, width)
    for k in range(kmax + 1):
        packed = layers[k].to_bytes(units[-1], "little")
        counts, mass, keys = {}, 0, k * step
        for low, base, at, orbit, least in cells:
            if low > k:
                break
            counts[keys - base] = c = int.from_bytes(packed[at:at + size], "little")
            mass += c * (least if low == k else orbit)
        expected = symmetric_power_dimension(n, d, k)
        if mass != expected:
            raise InternalError(
                f"the character of degree {k} has mass {mass}, not {expected}"
            )
        layers[k] = 0
        tables.append(counts)
    # each table is let go as it is handed out
    tables.reverse()
    for k in range(kmax + 1):
        yield PartitionTable(n, d, k, width, tables.pop())


def _index_cells(n: int, d: int, caps: list[int], units: list[int]) -> list[int]:
    """The offset of each live index's cell, one unit per coordinate, in the
    order of :func:`enumerate_indices`, whose walk stops at the caps: a dead
    index, above its cap in some coordinate, is never built."""
    return [sum(map(operator.mul, index, units)) for index in enumerate_indices(n, d, caps)]


def _dominant_cells(
    n: int, d: int, kmax: int, units: list[int], width: int
) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """The dominant weights of every degree ``k = 0..kmax``, one entry per
    tail ``m`` of the partitions ``E = (d * k - |m|,) + m`` of ``d * k``,
    from one walk over the tails: the ``step`` one degree adds to every key,
    and, in increasing order of ``low``, each tail's
    ``(low, base, offset, orbit, least)``.  The tail is read at every
    degree ``k >= low`` whose first part ``d * k - |m|`` is at least
    ``m_0``; there ``E`` is keyed by ``k * step - base``, its count is read
    at ``offset``, the cell of ``m``, one unit per coordinate, and the size
    of its Weyl orbit is ``least`` at ``k = low`` and ``orbit`` above.

    A tail is descending with ``m_0 + |m| <= d * kmax``.  The key holds
    ``E_0 - E_t`` in field ``t``: ``(d * k - |m|) * ones`` less the tail
    packed into fields ``1..n-1``, where no field borrows, since no part
    exceeds the first.  The orbit is ``n!`` over the factorials of the
    parts' multiplicities; the walk keeps the tail's product of them as it
    appends each part.  Only at the lowest degree can the first part equal
    ``m_0``, and join its run, which makes ``least`` the smaller orbit."""
    top = d * kmax
    ones = _pack((0,) + (1,) * (n - 1), width)
    # a tail with its |m|, its offset, its packed fields and its factorials
    tails = [((m,), m, m * units[0], m << width, 1) for m in range(top // 2 + 1)]
    for j in range(1, n - 1):
        unit, field = units[j], (j + 1) * width
        tails = [
            (tail + (m,), size + m, at + m * unit, packed + (m << field),
             runs * (tail.count(m) + 1))
            for tail, size, at, packed, runs in tails
            for m in range(min(tail[-1], top - tail[0] - size) + 1)
        ]
    whole, cells = math.factorial(n), []
    for tail, size, at, packed, runs in tails:
        first, orbit = tail[0], whole // runs
        low = -(-(size + first) // d)
        least = orbit // (tail.count(first) + 1) if d * low - size == first else orbit
        cells.append((low, size * ones + packed, at, orbit, least))
    cells.sort(key=operator.itemgetter(0))
    return d * ones, cells


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


def kostka_memo():
    """A fresh memo of Kostka tables, for one call to own: ``memo(shape,
    width)`` is :func:`_tableau_contents` of ``shape`` at ``width``, built
    on its first request through this memo.  It is keyed by shape and
    width, so one shape's tables at two widths are two entries, and holds
    at most 4,096 tables, dropping the least recently used first: a heavy
    query builds more tables than it could hold at once (``check 3 8
    --kmax 20`` builds 11,255).  The recursion reaches the memo through a
    weak reference: a strong one would close a cycle, which would keep the
    tables alive after the call, until the cycle collector ran."""

    @functools.lru_cache(maxsize=4096)
    def memo(shape: tuple[int, ...], width: int) -> dict[int, int]:
        return _tableau_contents(shape, width, this())

    this = weakref.ref(memo)
    return memo


def _tableau_contents(shape: tuple[int, ...], width: int, memo) -> dict[int, int]:
    """Semistandard tableaux of ``shape``, a descending vector with one row
    per letter (zeros allowed, at least two rows), counted by ascending
    content, each content packed in the module's layout at a ``width`` that
    holds the first part; being the hot loop, the recursion sets and reads
    fields by shifts in place rather than through :func:`_pack`.

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
    exceeds its last.  Three rows ``(a, b, c)`` are counted in closed
    form: a tableau is a pattern of rows ``(a, b, c)``, ``(nu1, nu2)`` and
    ``(mu1)``, each interlacing the one above, of content
    ``(mu1, t - mu1, T - t)``, where ``T = a + b + c`` and
    ``t = nu1 + nu2``, so its Kostka number counts the ``nu2`` in
    ``[max(c, t - a), min(b, t - b, mu1)]`` (then ``nu1 = t - nu2``
    interlaces, and ``mu1 <= t - mu1`` gives ``mu1 <= nu1``).  Only a
    count ``m3`` of letter 3 in ``[max(c, ceil(T / 3)), a]`` ends an
    ascending content, and each ``m3`` bounds ``nu2`` once, so only the
    nonzero counts are visited.  No such ``m3`` leaves the range of ``nu2``
    empty: ``t = T - m3`` lies in ``[b + c, a + b]``, so with ``c <= b <= a``
    the bounds ``lo = max(c, t - a)`` and ``hi = min(b, t - b)`` (the range
    before ``mu1`` caps it) keep ``lo <= hi``: each of ``c`` and ``t - a``
    is at most each of ``b`` and ``t - b``.  Four rows ``(a, b, c, e)``
    are counted by one sum of that closed form, with no inner table: for
    each interlacing ``nu = (nu1, nu2, nu3)`` whose strip
    ``s = T - |nu|`` is at least ``ceil(T / 4)`` (which caps ``nu3``), and
    each ``m3`` in ``[max(nu3, ceil(|nu| / 3)), min(nu1, s)]``, the count
    of ``nu`` at ``(m1, t - m1, m3)``, ``t = |nu| - m3``, is added at the
    content ``(m1, t - m1, m3, s)``; the cap ``m3 <= s`` keeps the content
    ascending, and ``nu``'s bounds ``lo``, ``hi`` and ``first`` are those
    of three rows.  They are written out in the sum rather than shared
    with the three-row branch: a helper shared by both ran the n = 3
    queries, whose tops have three rows, 1.04-1.10x slower, and the
    four-row queries gained less.  Two rows ``(a, b)``, reached only by
    binary forms, are counted directly: every ascending content
    ``(p, a + b - p)`` with ``p >= b`` fills them in exactly one way (the
    ``p`` ones start the first row, the second row is all twos), and no
    other fills them at all.  Shapes of five rows or more recurse, down to
    four, and read their inner shapes through ``memo``, a
    :func:`kostka_memo` that the caller owns; modules share sub-shapes,
    hence the memo.
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
            # m1 <= m2 <= m3, and m1 >= lo for a count of at least 1
            first = t - m3 if t - m3 > lo else lo
            # the content (0, t, m3), less m1 * step: m1 moved to field 0
            key = (m3 << (2 * width)) + (t << width)
            for m1 in range(first, t // 2 + 1):
                out[key - m1 * step] = (m1 if m1 < hi else hi) - lo + 1
        return out
    if rows == 4:
        a, b, c, e = shape
        step, third, fourth = (1 << width) - 1, 2 * width, 3 * width
        # the largest |nu| whose strip is at least ceil(T / 4)
        most = total + (-total // 4)
        for nu1 in range(b, a + 1):
            for nu2 in range(c, b + 1):
                top = most - nu1 - nu2
                for nu3 in range(e, (c if c < top else top) + 1):
                    size = nu1 + nu2 + nu3
                    strip = total - size
                    added = strip << fourth
                    # the three-row closed form of nu, its m3 capped at the strip
                    low = -(-size // 3)
                    for m3 in range(nu3 if nu3 > low else low, (nu1 if nu1 < strip else strip) + 1):
                        t = size - m3
                        lo = t - nu1 if t - nu1 > nu3 else nu3
                        hi = t - nu2 if t - nu2 < nu2 else nu2
                        first = t - m3 if t - m3 > lo else lo
                        key = added + (m3 << third) + (t << width)
                        for m1 in range(first, t // 2 + 1):
                            at = key - m1 * step
                            out[at] = out.get(at, 0) + (m1 if m1 < hi else hi) - lo + 1
        return out
    last, top = (rows - 2) * width, (rows - 1) * width
    for nu in itertools.product(*(range(b, a + 1) for a, b in zip(shape, shape[1:]))):
        strip = total - sum(nu)
        if total > rows * strip:
            continue
        added = strip << top
        for mu, c in memo(nu, width).items():
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


def strip_decompose(table: PartitionTable | CharacterTable, memo=None) -> dict[Weight, int]:
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
    :func:`_tableau_contents`, read through ``memo`` (a :func:`kostka_memo`,
    or a fresh one when none is given), at the table's width, at the packed
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
    if memo is None:
        memo = kostka_memo()
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
        for mu, mult in memo(asc[::-1], width).items():
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

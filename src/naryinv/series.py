"""The generating series of the coefficient monomials: the counting engine.

The coefficient monomials of the form, graded by (degree, moment vector),
have the multigraded generating series

    prod over indices i of 1 / (1 - t * q^i)

where ``q^i`` tracks the moment contribution of index ``i``.  Every weight
multiplicity is one coefficient of this product, and
:func:`expand_generating_series` is the one function that expands it.
Queries expand it through :func:`naryinv.counting.signed_counts`, once,
capped at the largest moments they read; only ``series --dump`` expands
it uncapped.

This module owns the storage format: one Python ``int`` per degree layer
(Kronecker substitution).  With caps ``c``, the moment vector ``m`` sits in
cell ``sum(m[s] * places[s])``, its value as a mixed-radix number with
digit ``s`` in radix ``c[s] + 1``, and cell ``j`` is the ``width``-bit
field at bit ``j * width`` of the layer.  No count exceeds the number of
monomials of the top degree, and ``width`` holds that number, so a field
never carries into the next.  Multiplying in index ``i`` adds to each
layer a copy of the layer below, masked to the cells from which ``i``
stays within every cap and shifted by the cell of ``i``.  Only
:meth:`TruncatedSeries.coefficient` and :meth:`TruncatedSeries.nonzero`
read cells.  The indices are walked by :func:`_cells` too, so nothing is
imported from :mod:`naryinv.forms`, whose walk the oracles use.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import MAX_TERMS, InternalError, ResourceLimitError, TruncationError, check_params


def _places(caps: tuple[int, ...]) -> tuple[int, ...]:
    """Cell of each unit moment vector: the mixed-radix place values."""
    return tuple(itertools.accumulate((c + 1 for c in caps[:-1]), operator.mul, initial=1))


def _span(d: int, k: int, caps: tuple[int, ...], places: tuple[int, ...]) -> int:
    """Cells layer ``k`` spans: up to the cell of its largest moments,
    ``min(caps[s], d * k)`` in component ``s``."""
    return 1 + sum(min(c, d * k) * p for c, p in zip(caps, places))


def _repeat(pattern: int, stride: int, count: int) -> int:
    """``count >= 1`` copies of ``pattern``, ``stride`` bits apart, built by
    doubling (a quotient by a big repunit would be quadratic)."""
    out, have = pattern, 1
    while 2 * have <= count:
        out |= out << (have * stride)
        have *= 2
    if have < count:
        out |= _repeat(pattern, stride, count - have) << (have * stride)
    return out


def _cells(
    caps: tuple[int, ...],
    places: tuple[int, ...],
    budget: int,
    prefix: tuple[int, ...] = (),
    at: int = 0,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(moments, cell)`` for every moment vector within ``caps`` whose
    entries sum to at most ``budget``, in lexicographic order; ``prefix``
    fixes the leading entries and ``at`` is their cell.  Budget ``d * k``
    walks the cells of layer ``k``; budget ``d``, the indices."""
    s = len(prefix)
    top, place = min(caps[s], budget), places[s]
    if s == len(caps) - 1:
        for x in range(top + 1):
            yield (*prefix, x), at + x * place
    else:
        for x in range(top + 1):
            yield from _cells(caps, places, budget - x, (*prefix, x), at + x * place)


class TruncatedSeries(NamedTuple):
    """Truncated expansion of the coefficient generating series.

    ``layers[k]`` packs the counts of the degree-``k`` monomials, for ``k``
    up to ``degree_bound``: the count at moments ``m`` is the
    ``width``-bit field at cell ``sum(m[s] * places[s])``.  Moment ``s``
    is kept only up to ``caps[s]``; an uncapped expansion has every cap at
    ``d * degree_bound``, above which no moment of a stored degree reaches.
    ``places`` are the place values of ``caps``, computed by the expansion.
    """

    n: int
    d: int
    degree_bound: int
    caps: tuple[int, ...]
    places: tuple[int, ...]
    width: int
    layers: tuple[int, ...]

    def coefficient(self, k: int, moments: Iterable[int]) -> int:
        """Coefficient at ``t^k q^moments`` (0 if no monomial has them).

        Raises :class:`TruncationError` for a degree beyond the bound, or a
        moment that a degree-``k`` monomial can reach but the caps dropped.
        """
        if k < 0:
            raise ValueError(f"degree k must be >= 0, got {k}")
        if k > self.degree_bound:
            raise TruncationError(
                f"degree {k} beyond truncation bound {self.degree_bound}"
            )
        m = tuple(moments)
        if len(m) != self.n - 1:
            raise ValueError(f"moments must have length n - 1 = {self.n - 1}, got {len(m)}")
        if min(m) < 0 or max(m) > self.d * k:
            return 0
        if any(map(operator.gt, m, self.caps)):
            raise TruncationError(f"moments {m} beyond the expansion caps {self.caps}")
        cell = sum(map(operator.mul, m, self.places))
        return (self.layers[k] >> (cell * self.width)) & ((1 << self.width) - 1)

    def nonzero(self) -> Iterator[tuple[tuple[int, tuple[int, ...]], int]]:
        """``((degree, moment vector), count)`` for every nonzero count,
        ordered by degree, then moment vector.

        Each layer is unpacked once, and only the cells its degree reaches
        (moments summing to at most ``d * k``) are visited.
        """
        size = self.width // 8
        for k, layer in enumerate(self.layers):
            try:
                raw = layer.to_bytes(_span(self.d, k, self.caps, self.places) * size, "little")
            except OverflowError:
                raise InternalError(f"layer {k} holds a count past the cells it spans") from None
            for m, cell in _cells(self.caps, self.places, self.d * k):
                value = int.from_bytes(raw[cell * size:(cell + 1) * size], "little")
                if value:
                    yield (k, m), value

    @property
    def coefficients(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """Every nonzero coefficient, keyed by ``(degree, moment vector)``:
        a fresh dict on each read, built by :meth:`nonzero`, so bind it once
        before reading it in a loop."""
        return dict(self.nonzero())


def check_expansion_size(
    d: int, degree_bound: int, caps: tuple[int, ...], max_terms: int
) -> None:
    """Raise :class:`ResourceLimitError` when the layers up to
    ``degree_bound``, with moments capped at ``caps`` (each at most
    ``d * degree_bound``), would span more than ``max_terms`` cells.

    The count is the sum of :func:`_span` over the ``L = degree_bound + 1``
    layers in closed form: for each cap ``c``, ``min(c, d * k)`` is ``d * k``
    in the first ``b = min(L, ceil(c / d))`` layers and ``c`` in the rest.
    Nothing is allocated.  The count only grows with the degree bound and
    the caps, so sizing a smaller bound or smaller caps gives a lower bound.
    """
    layers = degree_bound + 1
    cells = layers
    for c, p in zip(caps, _places(caps)):
        b = min(layers, -(-c // d))
        cells += p * (d * b * (b - 1) // 2 + c * (layers - b))
    if cells > max_terms:
        raise ResourceLimitError(
            f"series expansion would span at least {cells} cells, above the limit {max_terms}"
        )


def expand_generating_series(
    n: int,
    d: int,
    degree_bound: int,
    max_terms: int = MAX_TERMS,
    caps: Iterable[int] | None = None,
) -> TruncatedSeries:
    """Expand the product of geometric series up to ``t^degree_bound``.

    Each index contributes an unbounded geometric factor; multiplying one in
    amounts to the cumulative-sum recurrence

        ``new[k][m] = old[k][m] + new[k - 1][m - i]``

    which is realised in place, one whole layer at a time, by sweeping ``k``
    upward.  With ``caps``, no term with some moment ``s`` above
    ``caps[s]`` is ever made: moments only grow as factors are multiplied
    in, so such a term would never feed a kept one.  Raises
    :class:`ResourceLimitError`, before anything is allocated, when the
    layers would span more than ``max_terms`` cells.
    """
    check_params(n, d, degree_bound, max_terms)
    full = d * degree_bound
    if caps is None:
        caps = (full,) * (n - 1)
    caps = tuple(min(c, full) for c in caps)
    if len(caps) != n - 1 or any(c < 0 for c in caps):
        raise ValueError(f"caps must be n - 1 = {n - 1} nonnegative integers, got {caps}")
    check_expansion_size(d, degree_bound, caps, max_terms)
    places = _places(caps)
    # an index past a cap could only feed moments past it; the indices
    # within the caps are distinct cells of layer 1, counted above (at
    # degree bound 0 every cap is 0 and only the zero index is left)
    indices = list(_cells(tuple(min(c, d) for c in caps), places, d))
    # no kept count exceeds the top-degree monomials in these indices
    top = math.comb(len(indices) + degree_bound - 1, degree_bound)
    width = 8 * -(-top.bit_length() // 8)
    layers = [1] + [0] * degree_bound
    for idx, cell in indices:
        shift = width * cell
        # layer k - 1 reaches moments up to d * (k - 1), so it needs the
        # mask only once that passes caps[s] - idx[s] for some s: one plain
        # pass over layers 1..free + 1, then one masked pass over the rest
        free = min(((c - i) // d for c, i in zip(caps, idx) if i), default=degree_bound)
        for k in range(1, min(free + 1, degree_bound) + 1):
            layers[k] += layers[k - 1] << shift
        if free + 1 < degree_bound:
            room = (1 << width) - 1  # the cells where m[s] <= caps[s] - idx[s]
            for c, i, p in zip(caps, idx, places):
                room = _repeat(room, p * width, c - i + 1)
            for k in range(free + 2, degree_bound + 1):
                layers[k] += (layers[k - 1] & room) << shift
    return TruncatedSeries(n, d, degree_bound, caps, places, width, tuple(layers))


def invariant_dimension_by_series(n: int, d: int, k: int) -> int:
    """Invariant dimension read off an uncapped expansion.

    No part of the package calls this; ``perfbench/confirm.py`` imports it,
    so it stays until that script is changed.  Use
    ``dimensions.invariant_dimension(n, d, k, series=...)`` instead.
    """
    from .dimensions import invariant_dimension  # dimensions builds on this module

    return invariant_dimension(n, d, k, series=expand_generating_series(n, d, k))


def dump_series(series: TruncatedSeries, stream: IO[str]) -> int:
    """Write one JSON record per nonzero coefficient; returns the count.

    Record format:
    ``{"k":..,"moments":[..],"coefficient":"<decimal>"}``, ordered by
    degree then moment vector.
    """
    written = 0
    for (k, mom), value in series.nonzero():
        rec = {"k": k, "moments": list(mom), "coefficient": str(value)}
        stream.write(json.dumps(rec) + "\n")
        written += 1
    return written

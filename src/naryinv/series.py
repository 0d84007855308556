"""The generating series of the coefficient monomials: the counting engine.

The coefficient monomials of the form, graded by (degree, moment vector),
have the multigraded generating series

    prod over indices i of 1 / (1 - t * q^i)

where ``q^i`` tracks the moment contribution of index ``i``.  Every weight
multiplicity is one coefficient of this product, and
:func:`expand_generating_series` is the one function that expands it.
Queries expand it through :func:`naryinv.counting.signed_counts`, once,
capped at the largest moments they read; no command expands it uncapped.
A library caller that wants every coefficient reads
``expand_generating_series(n, d, k).nonzero()``.

This module owns the storage format: one Python ``int`` per degree layer
(Kronecker substitution).  With caps ``c``, the moment vector ``m`` sits in
cell ``sum(m[s] * places[s])``, its value as a mixed-radix number with
digit ``s`` in radix ``c[s] + 1``, and cell ``j`` is the ``width``-bit
field at bit ``j * width`` of the layer.  Multiplying in index ``i`` adds
to each layer a copy of the layer below, masked to the cells from which
``i`` stays within every cap and shifted by the cell of ``i``.  Only
:meth:`TruncatedSeries.line` and :meth:`TruncatedSeries.nonzero` read
cells.  The first shifts a layer right and masks one field, at each cell
of a line (one weight's targets at several degrees, one cell a degree),
and :meth:`TruncatedSeries.coefficient` is its one-point line; the second
slices each field from the bytes of its layer.  The indices are walked by
:func:`_cells` too, so nothing is imported from :mod:`naryinv.forms`,
whose walk the oracles use.

A field must never carry into the next.  No count exceeds ``top``, the
number of top-degree monomials, so ``top.bit_length()`` bits always
suffice; but ``top`` bounds the sum of a layer's cells, and the largest
cell needs far fewer bits.  So a field is first ``w + g`` bits: ``w`` from
:func:`_start_width`, the one rule for it, and ``g = (degree_bound +
1).bit_length()`` guard bits above them.  After each index is multiplied
in, the top layer's guard bits are tested, once.
That one test is enough:

- :func:`_cells` yields the zero index first, and the test needs that
  order.  Once the zero index is in, adding a zero index maps the
  degree-``k`` multisets at moments ``m`` one-to-one into the
  degree-``k + 1`` ones, so at every later step the top layer dominates
  every cell: no cell of layer ``k`` exceeds the same cell of the top
  layer.  So the first field to pass its ``w`` bits is in the top layer,
  where the guard test looks, and a clear guard there means every field
  of every layer is below ``2^w``.  Before the zero index is in, nothing
  ties a lower layer to the top one, and a lower field could pass its
  ``w`` bits unseen.
- Multiplying in one index makes each count a sum of at most
  ``degree_bound + 1`` counts from before it,
  ``c_k(m) = sum_j c_{k-j}(m - j * i)``, so the count is below
  ``(degree_bound + 1) * 2^w < 2^(w + g)``: the guard bits hold it without
  a carry, and the counts stay exact.

A set guard bit restarts the expansion at ``top.bit_length()`` bits,
which hold every count and are not guarded, so at most one restart
happens.  When ``w + g`` is no narrower than that width, the expansion
starts there.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    caps: tuple[int, ...], places: tuple[int, ...], budget: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(moments, cell)`` for every moment vector within ``caps`` whose
    entries sum to at most ``budget``, in lexicographic order.  Budget
    ``d * k`` walks the cells of layer ``k``; budget ``d``, the indices.

    An odometer, not a recursion, so a rank in the thousands walks too:
    the last entry runs in the inner loop, and each pass then steps the
    rightmost leading entry that can grow, zeroing the entries after it."""
    last = len(caps) - 1
    cap, place = caps[last], places[last]
    lead = [0] * last
    at, left = 0, budget
    while True:
        prefix = tuple(lead)
        for x in range(min(cap, left) + 1):
            yield (*prefix, x), at + x * place
        s = last - 1
        while s >= 0 and (left == 0 or lead[s] == caps[s]):
            left += lead[s]
            at -= lead[s] * places[s]
            lead[s] = 0
            s -= 1
        if s < 0:
            return
        lead[s] += 1
        left -= 1
        at += places[s]


class TruncatedSeries(NamedTuple):
    """Truncated expansion of the coefficient generating series.

    ``layers[k]`` packs the counts of the degree-``k`` monomials, for ``k``
    up to ``degree_bound``: the count at moments ``m`` is the
    ``width``-bit field at cell ``sum(m[s] * places[s])``.  A field is
    ``width`` bits, not always a whole number of bytes.  Moment ``s``
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
        """Coefficient at ``t^k q^moments`` (0 if no monomial has them): the
        one-point line at ``k`` (:meth:`line`).

        Raises :class:`TruncationError` for a degree beyond the bound, or a
        moment that a degree-``k`` monomial can reach but the caps dropped.
        """
        return self.line(k, moments, [k])[0]

    def line(self, k: int, moments: Iterable[int], degrees: Sequence[int]) -> list[int]:
        """Coefficients along the line of cells that ends at ``t^k
        q^moments``, one per degree of ``degrees``.

        With ``g = gcd(n, d)``, each degree is ``k - j * n // g`` for an
        integer ``j >= 0`` and is read at ``moments`` with every entry
        lowered by ``j * d // g``: the moment targets of one weight at each
        of the degrees.  Its cell is the cell of ``moments`` less ``j * d //
        g * sum(places)``.

        Each degree reads what :meth:`coefficient` reads there, with the same
        errors; a degree off the line, or past ``k``, raises
        :class:`ValueError`.  The moments only shrink down the line, so the
        checks of :meth:`coefficient` run once, at its end: the degree bound
        at ``k``, the length, the reach (0 where a moment passes ``d`` times
        the degree) and the caps, and a negative degree at the least of
        ``degrees``.  Below a live end, every moment is within the caps, and
        one past its degree's reach sits in a cell that holds 0; so each
        degree only tests for a negative moment, by the ``j`` past which one
        is negative, found once.
        """
        n, d, bound, caps, places, width, layers = self
        if degrees and min(degrees) < 0:
            raise ValueError(f"degree k must be >= 0, got {min(degrees)}")
        if k > bound:
            raise TruncationError(f"degree {k} beyond truncation bound {bound}")
        m = tuple(moments)
        if len(m) != n - 1:
            raise ValueError(f"moments must have length n - 1 = {n - 1}, got {len(m)}")
        g = math.gcd(n, d)
        step, rise = n // g, d // g
        # a step down lowers every moment by rise and the reach, d times the
        # degree, by the more, d * step: below an end that reads 0, every
        # degree does.  Below a live end the moments stay within the caps and
        # a cell past its degree's reach holds 0, so only a negative moment,
        # past the j of ``live``, must not be read
        least, top = min(m), max(m)
        if least < 0 or top > d * k:
            live = -1
        elif any(map(operator.gt, m, caps)):
            raise TruncationError(f"moments {m} beyond the expansion caps {caps}")
        else:
            live = least // rise
        at = width * sum(map(operator.mul, m, places))
        drop = width * rise * sum(places)
        field = (1 << width) - 1
        counts = []
        for degree in degrees:
            j, off = divmod(k - degree, step)
            if off or j < 0:
                raise ValueError(
                    f"degree {degree} is off the line ending at {k} by steps of {step}"
                )
            counts.append(layers[degree] >> at - j * drop & field if j <= live else 0)
        return counts

    def nonzero(self) -> Iterator[tuple[tuple[int, tuple[int, ...]], int]]:
        """``((degree, moment vector), count)`` for every nonzero count,
        ordered by degree, then moment vector.

        Each layer is unpacked once, into the bytes that hold the cells its
        degree reaches, and only those cells (moments summing to at most
        ``d * k``) are read, each from the bytes its bits lie in.
        """
        width = self.width
        field = (1 << width) - 1
        for k, layer in enumerate(self.layers):
            bits = _span(self.d, k, self.caps, self.places) * width
            if layer.bit_length() > bits:
                raise InternalError(f"layer {k} holds a count past the cells it spans")
            raw = layer.to_bytes(-(-bits // 8), "little")
            for m, cell in _cells(self.caps, self.places, self.d * k):
                at = cell * width
                value = (int.from_bytes(raw[at >> 3:(at + width + 7) >> 3], "little") >> (at & 7)) & field
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
    in, so such a term would never feed a kept one.  The field width and
    its guard are set as the module docstring states.  Raises
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
    safe = top.bit_length()
    span = _span(d, degree_bound, caps, places)
    guard = (degree_bound + 1).bit_length()
    width = _start_width(top, span) + guard
    layers = None
    if width < safe:
        alarm = _repeat(((1 << guard) - 1) << (width - guard), width, span)
        layers = _multiply(indices, caps, places, degree_bound, width, alarm)
    if layers is None:
        width = safe
        layers = _multiply(indices, caps, places, degree_bound, width, 0)
    return TruncatedSeries(n, d, degree_bound, caps, places, width, tuple(layers))


def _start_width(top: int, span: int) -> int:
    """Bits a field holds below its guard bits when an expansion starts:
    those of ``top // span``, the mean top-degree count per cell of the top
    layer, and 3 more."""
    return (top // span).bit_length() + 3


def _multiply(
    indices: list[tuple[tuple[int, ...], int]],
    caps: tuple[int, ...],
    places: tuple[int, ...],
    degree_bound: int,
    width: int,
    alarm: int,
) -> list[int] | None:
    """The layers with every index multiplied in, in ``width``-bit fields,
    or ``None`` as soon as the top layer meets ``alarm``, the mask of its
    guard bits (0 when the fields are not guarded)."""
    layers = [1] + [0] * degree_bound
    for idx, cell in indices:
        shift = width * cell
        room = (1 << width) - 1  # the cells where m[s] <= caps[s] - idx[s]
        for c, i, p in zip(caps, idx, places):
            room = _repeat(room, p * width, c - i + 1)
        for k in range(1, degree_bound + 1):
            layers[k] += (layers[k - 1] & room) << shift
        if layers[-1] & alarm:
            return None
    return layers


def invariant_dimension_by_series(n: int, d: int, k: int) -> int:
    """Invariant dimension read off an uncapped expansion.

    No part of the package calls this; ``perfbench/confirm.py`` imports it,
    so it stays until that script is changed.  Use
    ``dimensions.invariant_dimension(n, d, k, series=...)`` instead.
    """
    from .dimensions import invariant_dimension  # dimensions builds on this module

    return invariant_dimension(n, d, k, series=expand_generating_series(n, d, k))


"""The generating series of the coefficient monomials: the counting engine.

The coefficient monomials of the form, graded by (degree, moment vector),
have the multigraded generating series

    prod over indices i of 1 / (1 - t * q^i)

where ``q^i`` tracks the moment contribution of index ``i``.  Every weight
multiplicity is one coefficient of this product, and
:func:`expand_generating_series` is the one function that expands it:
point queries expand it once, capped at the largest moments they read,
and multi-degree queries read every degree off one expansion.

This module owns the storage format.  A moment vector is packed into one
int: component ``s`` sits in a field of ``width`` bits, biased so that it
reads ``2**width - 1`` exactly at its cap, with one guard bit above the
field.  Multiplying in index ``i`` adds a fixed offset to the key, and a
key with any guard bit set has some moment past its cap.  Only
:meth:`TruncatedSeries.coefficient`, :attr:`TruncatedSeries.coefficients`
and :func:`dump_series` see unpacked vectors.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import IO, Iterable

from .errors import ResourceLimitError, TruncationError, check_params
from .forms import enumerate_indices

#: the one bound on stored terms, for every expansion
MAX_TERMS = 5_000_000


def _layout(d: int, caps: tuple[int, ...]) -> tuple[int, int, int]:
    """``(stride, zero key, guard mask)`` of the packing for these caps.

    A field is wide enough to hold every cap, and to take one index entry
    (at most ``d``) on top of a value at its cap without carrying past its
    guard bit.
    """
    width = max(max(caps), d).bit_length()
    stride = width + 1
    top = (1 << width) - 1
    zero = sum((top - c) << (s * stride) for s, c in enumerate(caps))
    guard = sum(1 << (s * stride + width) for s in range(len(caps)))
    return stride, zero, guard


@dataclass(frozen=True)
class TruncatedSeries:
    """Sparse truncated expansion of the coefficient generating series.

    ``layers[k]`` maps packed moment vectors of degree-``k`` monomials to
    exact counts, for ``k`` up to ``degree_bound``.  Moment ``s`` is kept
    only up to ``caps[s]``; an uncapped expansion has every cap at
    ``d * degree_bound``, above which no moment of a stored degree reaches.
    """

    n: int
    d: int
    degree_bound: int
    caps: tuple[int, ...]
    layers: tuple[dict[int, int], ...] = field(repr=False)

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
        if any(x < 0 or x > self.d * k for x in m):
            return 0
        if any(x > c for x, c in zip(m, self.caps)):
            raise TruncationError(f"moments {m} beyond the expansion caps {self.caps}")
        stride, zero, _ = _layout(self.d, self.caps)
        key = zero + sum(x << (s * stride) for s, x in enumerate(m))
        return self.layers[k].get(key, 0)

    @functools.cached_property
    def coefficients(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """Every stored coefficient, keyed by ``(degree, moment vector)``."""
        stride, zero, _ = _layout(self.d, self.caps)
        mask = (1 << stride) - 1
        shifts = [s * stride for s in range(self.n - 1)]
        return {
            (k, tuple(((key - zero) >> shift) & mask for shift in shifts)): value
            for k, layer in enumerate(self.layers)
            for key, value in layer.items()
        }


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

    which is realised in place by sweeping ``k`` upward.  With ``caps``, a
    term with some moment ``s`` above ``caps[s]`` is dropped as soon as it
    appears: moments only grow as factors are multiplied in, so a dropped
    term never feeds a kept one.  Raises :class:`ResourceLimitError` once
    more than ``max_terms`` terms are stored.
    """
    check_params(n, d, degree_bound, max_terms)
    full = d * degree_bound
    if caps is None:
        caps = (full,) * (n - 1)
    caps = tuple(min(c, full) for c in caps)
    if len(caps) != n - 1 or any(c < 0 for c in caps):
        raise ValueError(f"caps must be n - 1 = {n - 1} nonnegative integers, got {caps}")
    stride, zero, guard = _layout(d, caps)
    layers: list[dict[int, int]] = [{} for _ in range(degree_bound + 1)]
    layers[0][zero] = 1
    stored = 1
    for idx in enumerate_indices(n, d):
        offset = sum(x << (s * stride) for s, x in enumerate(idx))
        if (zero + offset) & guard:
            continue  # this index alone passes a cap
        for k in range(1, degree_bound + 1):
            layer = layers[k]
            before = len(layer)
            get = layer.get
            for key, value in layers[k - 1].items():
                key += offset
                if not key & guard:
                    layer[key] = get(key, 0) + value
            stored += len(layer) - before
            if stored > max_terms:
                raise ResourceLimitError(
                    f"series expansion exceeded {max_terms} stored terms"
                )
    return TruncatedSeries(n, d, degree_bound, caps, tuple(layers))


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
    for (k, mom), value in sorted(series.coefficients.items()):
        rec = {"k": k, "moments": list(mom), "coefficient": str(value)}
        stream.write(json.dumps(rec) + "\n")
        written += 1
    return written

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

The signed orbit sum stays in ambient coordinates, where ``rho`` is
``(0, ..., n - 1)`` and ``s(rho)`` is a permutation ``p`` of it.  So
``(shift + rho - s(rho))*`` sorts ``{base[i] - p[i]}`` with ``base =
to_ambient(shift) + rho``.  Writing ``i = q[j]`` for the inverse ``q`` of
``p``, which has the same sign, gives ``{base[q[j]] - j}``: permute
``base``, subtract ``rho`` and sort.  Permutations act on positions, so
``base`` need not be sorted.  The vectors share one entry sum, so the
sorted vector alone names the dominant weight.

:func:`signed_orbit_terms` never lists the n! permutations.  It fills
positions one element at a time, in two halves: positions ``0..h-1``
forward and ``n-1..h`` backward, ``h = n // 2``.  A walk state is one
``int``: the multiset of entries placed so far, as a count per entry
value in a field of ``n.bit_length()`` bits (no count exceeds n), above
the mask of used elements.  Each half keeps one dict from state to
``[signed count, entries]``, so paths that place the same entries with
the same elements merge, and the entries are those of the first path to
reach the state.  Placing element ``i`` flips the sign when an odd
number of smaller elements are still unplaced (forward) or already placed
(backward); together the flips count the inversions of ``q``.  The
halves meet on complementary masks, where adding two states joins their
multisets, so each distinct joined multiset is sorted once into its
weight, the gaps between its sorted entries.

The walk joins at most the n! orderings of the group, so a rank whose n!
passes :data:`naryinv.errors.MAX_TERMS` is refused before anything is
walked; the factorial is multiplied up only until it passes the limit, so
a huge rank is refused at once.

Each walk structure lives only as long as the answer needs it.  A half
walk keeps one position's dict at a time.  The forward half and the
backward half's states, listed by mask, live until the join is done.
The join keeps one dict: per joined key, a list of its signed count and
the two half-entry tuples of the first pair to reach it (the tuples the
half walks already hold, not a concatenated copy), so a pair that meets a
known key costs one probe.  Each key is popped as its term is built,
once, from its sorted entries, into one list, which is sorted by weight
and then, stably, by largest gap.

Every term's entries sum to ``sum(base) - n(n-1)/2``, so a term can be
feasible at the degree budget ``kd = k * d`` only when no entry exceeds
``(kd + sum(base) - n(n-1)/2) // n`` (see
:func:`naryinv.counting.moment_targets`).  Given ``kd``, the walk places no
larger entry: it visits only the band of the orbit a query can read.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple

from .errors import MAX_TERMS, ResourceLimitError, check_params, check_weight

Weight = tuple[int, ...]


class SignedOrbitTerm(NamedTuple):
    """A dominant weight with the signed count of group elements mapped to it."""

    dominant: Weight
    coefficient: int


def to_ambient(weight: Iterable[int]) -> tuple[int, ...]:
    """Ambient (permutation) coordinates of a weight, normalised to min 0."""
    acc = 0
    out = [0]
    for x in weight:
        acc += x
        out.append(acc)
    lo = min(out)
    return tuple(v - lo for v in out)


def _half_walk(
    positions: Iterable[int],
    steps: list[list[tuple[int, int, tuple[int]]]],
    every: int,
    rivals: int,
) -> dict[int, list]:
    """Fill ``positions`` in turn, one unused element each, from nothing.

    A state is one ``int``: packed entry counts above the mask of used
    elements, which is ``state & every``.  ``steps[j]`` lists
    ``(bit, step, (entry,))`` for each element that may go to position
    ``j``; ``step`` adds its bit and one to its entry's count.  Placing an
    element flips the sign when an odd number of smaller elements lie in
    ``mask ^ rivals``: the unplaced ones when ``rivals`` is ``every``
    (forward), the placed ones when it is 0 (backward).  Returns one dict
    from each state to ``[signed count, entries]``, the entries as the
    first path to reach the state placed them.
    """
    layer: dict[int, list] = {0: [1, ()]}
    for j in positions:
        next_layer: dict[int, list] = {}
        get = next_layer.get
        for state, (count, placed) in layer.items():
            mask = state & every
            flips = mask ^ rivals
            for bit, step, entry in steps[j]:
                if mask & bit:
                    continue
                signed = -count if (flips & (bit - 1)).bit_count() & 1 else count
                old = get(state + step)
                if old is None:
                    next_layer[state + step] = [signed, placed + entry]
                else:
                    old[0] += signed
        layer = next_layer
    return layer


def signed_orbit_terms(
    n: int, shift: Iterable[int] | None = None, kd: int | None = None
) -> list[SignedOrbitTerm]:
    """Aggregate ``(shift + rho - s(rho))*`` over all ``s`` in S_n with signs.

    ``rho`` is the half-sum of positive roots and ``*`` takes the dominant
    representative.  Group elements landing on the same dominant weight are
    merged by summing their parity signs; fully cancelled terms are dropped.
    With no ``shift`` this yields the term list of the invariant-dimension
    formula; shifting by a dominant weight yields the term list for its
    highest-weight multiplicity.

    With the degree budget ``kd = k * d``, only terms that may be feasible
    at degree ``k`` or below are kept: those whose ambient entries
    ``{base[q[j]] - j}`` are all at most ``(kd + sum(base) - n(n-1)/2) // n``,
    with ``base = to_ambient(shift) + rho``.  The walk never places a larger
    entry.  A negative ``kd`` raises :class:`ValueError`, and a rank whose
    n! orderings pass :data:`~naryinv.errors.MAX_TERMS` raises
    :class:`ResourceLimitError`.

    The result is sorted by (largest component, lexicographic), which for
    n = 3 reproduces the classical five-term presentation order.
    """
    check_params(n)
    orderings = 1
    for m in range(2, n + 1):
        orderings *= m
        if orderings > MAX_TERMS:
            raise ResourceLimitError(
                f"orbit walk at rank n = {n} refused: n! is at least {orderings}"
                f" orderings, above the limit {MAX_TERMS}"
            )
    shift = check_weight(n, (0,) * (n - 1) if shift is None else shift, "shift")
    if kd is not None and kd < 0:
        raise ValueError(f"degree budget kd must be >= 0, got {kd}")
    base = [x + i for i, x in enumerate(to_ambient(shift))]
    cap = max(base) if kd is None else (kd + sum(base) - n * (n - 1) // 2) // n
    # each entry value gets its own count field above the n mask bits
    width = n.bit_length()
    field: dict[int, int] = {}
    steps = []
    for j in range(n):
        row = []
        for i, b in enumerate(base):
            entry = b - j
            if entry <= cap:
                if entry not in field:
                    field[entry] = 1 << (n + width * len(field))
                row.append((1 << i, field[entry] | 1 << i, (entry,)))
        steps.append(row)
    half = n // 2
    every = (1 << n) - 1
    forward = _half_walk(range(half), steps, every, every)
    # the halves meet on complementary masks; every key's mask bits are set
    by_mask: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
    for state, (count, entries) in _half_walk(range(n - 1, half - 1, -1), steps, every, 0).items():
        by_mask.setdefault(state & every, []).append((state, count, entries))
    # per joined key: its signed count, then the two half-entry tuples of
    # the first pair to reach it
    joined: dict[int, list] = {}
    get = joined.get
    for front, (front_count, front_entries) in forward.items():
        for back, back_count, back_entries in by_mask.get(every & ~front, ()):
            key = front + back
            old = get(key)
            if old is None:
                joined[key] = [front_count * back_count, front_entries, back_entries]
            else:
                old[0] += front_count * back_count
    del forward, by_mask
    # one term per nonzero key; weights are distinct, so sorting on them
    # and then, stably, on the largest gap gives (largest gap, weight) order
    terms = []
    make = SignedOrbitTerm._make
    while joined:
        coef, front_entries, back_entries = joined.popitem()[1]
        if coef:
            entries = sorted(front_entries + back_entries)
            terms.append(make((tuple(map(operator.sub, entries[1:], entries)), coef)))
    terms.sort(key=operator.itemgetter(0))
    terms.sort(key=lambda t: max(t.dominant))
    return terms

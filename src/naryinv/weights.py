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
``int``: the multiset of entries placed so far, as a 4-bit count per entry
value (enough for n <= 15), above the mask of used elements.  Each half
keeps a dict from state to signed count, so paths that place the same
entries with the same elements merge.  Placing element ``i`` flips the
sign when an odd number of smaller elements are still unplaced (forward)
or already placed (backward); together the flips count the inversions of
``q``.  The halves meet on complementary masks, where adding two states
joins their multisets.  Each state also keeps the entries of the first
path to reach it, so each distinct joined multiset is sorted once into its
weight, the gaps between its sorted entries.

Every term's entries sum to ``sum(base) - n(n-1)/2``, so a term can be
feasible at the degree budget ``kd = k * d`` only when no entry exceeds
``(kd + sum(base) - n(n-1)/2) // n`` (see
:func:`naryinv.counting.moment_targets`).  Given ``kd``, the walk places no
larger entry: it visits only the band of the orbit a query can read.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, check_params, check_weight

Weight = tuple[int, ...]

#: each half of the orbit walk ends on up to C(n, h) * (n - h)! states,
#: h = n // 2; that stays comfortable on a desk up to here, and going past
#: it would need a bound on walk states
MAX_ORBIT_RANK = 8


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
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """Fill ``positions`` in turn, one unused element each, from nothing.

    A state is one ``int``: packed entry counts above the mask of used
    elements, which is ``state & every``.  ``steps[j]`` lists
    ``(bit, step, (entry,))`` for each element that may go to position
    ``j``; ``step`` adds its bit and one to its entry's count.  Placing an
    element flips the sign when an odd number of smaller elements lie in
    ``mask ^ rivals``: the unplaced ones when ``rivals`` is ``every``
    (forward), the placed ones when it is 0 (backward).  Returns the signed
    count of each state and its entries, as the first path to it placed them.
    """
    layer = {0: 1}
    entries: dict[int, tuple[int, ...]] = {0: ()}
    for j in positions:
        next_layer, next_entries = {}, {}
        for state, count in layer.items():
            mask = state & every
            flips = mask ^ rivals
            placed = entries[state]
            for bit, step, entry in steps[j]:
                if mask & bit:
                    continue
                signed = -count if (flips & (bit - 1)).bit_count() & 1 else count
                state_after = state + step
                if state_after in next_layer:
                    next_layer[state_after] += signed
                else:
                    next_layer[state_after] = signed
                    next_entries[state_after] = placed + entry
        layer, entries = next_layer, next_entries
    return layer, entries


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
    entry.

    The result is sorted by (largest component, lexicographic), which for
    n = 3 reproduces the classical five-term presentation order.
    """
    check_params(n)
    if n > MAX_ORBIT_RANK:
        raise ResourceLimitError(
            f"orbit walk at rank n = {n} refused (limit n <= {MAX_ORBIT_RANK})"
        )
    shift = check_weight(n, (0,) * (n - 1) if shift is None else shift, "shift")
    base = [x + i for i, x in enumerate(to_ambient(shift))]
    cap = max(base) if kd is None else (kd + sum(base) - n * (n - 1) // 2) // n
    # each entry value gets its own 4-bit count field above the n mask bits
    field: dict[int, int] = {}
    steps = []
    for j in range(n):
        row = []
        for i, b in enumerate(base):
            entry = b - j
            if entry <= cap:
                if entry not in field:
                    field[entry] = 1 << (n + 4 * len(field))
                row.append((1 << i, field[entry] | 1 << i, (entry,)))
        steps.append(row)
    half = n // 2
    every = (1 << n) - 1
    forward, forward_entries = _half_walk(range(half), steps, every, every)
    backward, backward_entries = _half_walk(range(n - 1, half - 1, -1), steps, every, 0)
    # the halves meet on complementary masks; every key's mask bits are set
    by_mask: dict[int, list[tuple[int, int]]] = {}
    for state, count in backward.items():
        if count:
            by_mask.setdefault(state & every, []).append((state, count))
    acc: dict[int, int] = {}
    first: dict[int, tuple[int, ...]] = {}
    for front, front_count in forward.items():
        if not front_count:
            continue
        front_entries = forward_entries[front]
        for back, back_count in by_mask.get(every & ~front, ()):
            key = front + back
            if key in acc:
                acc[key] += front_count * back_count
            else:
                acc[key] = front_count * back_count
                first[key] = front_entries + backward_entries[back]
    # flat (largest gap, *gaps, coefficient) rows sort faster than nested ones
    rows = []
    for key, coef in acc.items():
        if coef:
            entries = sorted(first[key])
            gaps = list(map(operator.sub, entries[1:], entries))
            rows.append((max(gaps), *gaps, coef))
    rows.sort()
    return [SignedOrbitTerm(row[1:-1], row[-1]) for row in rows]

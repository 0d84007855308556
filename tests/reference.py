"""Reference code the tests compare the package against.

No command runs these functions, so they live beside the tests rather
than in the package.  They check with ``raise``, not ``assert``: pytest
rewrites ``assert`` only in test modules, and ``python -O`` strips the
rest.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Mapping

from naryinv.errors import InternalError, check_dominant, check_params, check_weight
from naryinv.forms import weight_from_moments
from naryinv.oracles import PartitionTable, _pack, _tableau_contents, _unpack
from naryinv.weights import Weight, signed_orbit_terms, to_ambient

MultiIndex = tuple[int, ...]


def from_ambient(ambient: Iterable[int]) -> Weight:
    """Inverse of :func:`~naryinv.weights.to_ambient`; insensitive to
    constant shifts."""
    a = tuple(ambient)
    return tuple(a[s + 1] - a[s] for s in range(len(a) - 1))


def orbit_expansion(dominant: Mapping[Weight, int]) -> dict[Weight, int]:
    """The full character whose dominant weights are ``dominant``: each
    count at every weight on its S_n orbit, the distinct permutations of
    the weight's ambient vector read back through :func:`from_ambient`.
    A character is Weyl-symmetric, so nothing else is in it.  Raises on a
    weight that is not dominant: its orbit is a dominant weight's."""
    out: dict[Weight, int] = {}
    for w, c in dominant.items():
        if min(w) < 0:
            raise ValueError(f"weight {w} is not dominant")
        for ambient in set(itertools.permutations(to_ambient(w))):
            out[from_ambient(ambient)] = c
    return out


def partition(weight: Iterable[int]) -> tuple[int, ...]:
    """The ambient vector of ``weight`` sorted descending, so with last part
    0: the key of its dominant representative in the oracles' Kostka
    tables."""
    return tuple(sorted(to_ambient(weight), reverse=True))


def dominant_representative(weight: Iterable[int]) -> Weight:
    """The unique dominant weight on the S_n orbit of ``weight``.

    Sorting the ambient vector ascending makes every consecutive difference
    nonnegative, which is exactly dominance.  Idempotent.
    """
    return from_ambient(sorted(to_ambient(weight)))


def _check_index(n: int, d: int, index) -> MultiIndex:
    i = tuple(index)
    if len(i) != n - 1:
        raise ValueError(f"index must have length n - 1 = {n - 1}, got {len(i)}")
    if any(x < 0 for x in i) or sum(i) > d:
        raise ValueError(f"index {i} outside the valid set (|i| <= {d}, entries >= 0)")
    return i


def coefficient_weight(n: int, d: int, index) -> Weight:
    """Weight of the single coefficient labelled by ``index``.

    The first component is ``d - (2 i_1 + i_2 + ... + i_{n-1})``; the
    remaining components are the consecutive differences ``i_1 - i_2``
    through ``i_{n-2} - i_{n-1}``.  The index ``(0, ..., 0)`` carries the
    highest weight ``(d, 0, ..., 0)``.
    """
    check_params(n, d)
    i = _check_index(n, d, index)
    return weight_from_moments(n, d, 1, i)


def monomial_weight(n: int, d: int, exponent: Mapping[MultiIndex, int]) -> Weight:
    """Weight of the coefficient monomial ``prod a_i ** exponent[i]``.

    Additive: equals the exponent-weighted sum of :func:`coefficient_weight`
    over the support.  An empty exponent (degree 0) gives the zero weight.
    """
    check_params(n, d)
    moments = [0] * (n - 1)
    for index, e in exponent.items():
        i = _check_index(n, d, index)
        if e < 0:
            raise ValueError(f"exponent of {i} must be nonnegative, got {e}")
        for s in range(n - 1):
            moments[s] += i[s] * e
    degree = sum(exponent.values())
    return weight_from_moments(n, d, degree, moments)


def module_table(top: tuple[int, ...], width: int) -> dict[int, int]:
    """Multiplicities of the module with partition ``top`` at its dominant
    weights, keyed by partition packed in ``width``-bit fields: the Kostka
    numbers ``K(top, mu)`` at every ascending content ``mu``, whose packed
    fields are the parts of ``mu`` reversed, less its full columns (field 0
    taken from every field), as :func:`~naryinv.oracles.strip_decompose`
    subtracts them."""
    mask, ones = (1 << width) - 1, _pack((1,) * len(top), width)
    return {mu - (mu & mask) * ones: c for mu, c in _tableau_contents(top, width).items()}


def gelfand_tsetlin_contents(shape: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Semistandard tableaux of ``shape``, one row per letter, counted by
    content (the count of each letter, in any order): one Gelfand--Tsetlin
    pattern per tableau, whose top row is ``shape`` and whose every row
    below has one entry fewer and interlaces the one above
    (``above[j + 1] <= below[j] <= above[j]``).  The entries equal to the
    largest letter of a row's tableau fill the strip between that row and
    the next, so the count of letter ``r`` is the sum of row ``r`` (from
    the bottom, which has one entry) less the sum of row ``r - 1``.  Each
    entry of the pattern is looped over on its own."""
    out: dict[tuple[int, ...], int] = {}

    def fill(above: tuple[int, ...], below: tuple[int, ...], content: tuple[int, ...]) -> None:
        # below holds the entries of the row under ``above`` chosen so far,
        # and content the counts of the letters past len(above)
        j = len(below)
        if not above:
            out[content] = out.get(content, 0) + 1
        elif j == len(above) - 1:
            fill(below, (), (sum(above) - sum(below),) + content)
        else:
            for x in range(above[j + 1], above[j] + 1):
                fill(above, below + (x,), content)

    fill(tuple(shape), (), ())
    return out


def kostka_number(n: int, highest, weight) -> int:
    """Multiplicity of ``weight`` in the irreducible module with the given
    dominant highest weight: the Kostka number of the module's partition at
    the partition of the weight's dominant representative, both packed at
    the width their larger first part needs; 0 for weights outside the module or
    its highest weight's root-lattice coset, whose partitions are not
    keys."""
    top = partition(check_dominant(n, highest))
    lam = partition(check_weight(n, weight))
    width = max(1, top[0].bit_length(), lam[0].bit_length())
    return module_table(top, width).get(_pack(lam[::-1], width), 0)


def dominant_weights(table: PartitionTable) -> dict[Weight, int]:
    """A product table's multiplicities keyed by weight: each packed
    partition unpacked to its ascending vector, and its consecutive
    differences read."""
    out = {}
    for key, c in table.partitions.items():
        parts = _unpack(key, table.n, table.width)
        out[tuple(b - a for a, b in zip(parts, parts[1:]))] = c
    return out


def dict_product_tables(n: int, d: int, kmax: int, width: int) -> list[PartitionTable]:
    """The tables of :func:`~naryinv.oracles.character_tables` to degree
    ``kmax``, keyed at ``width``, by the product pass the package ran
    before its layers were packed, which shares no code with the package.

    Each degree is a dict keyed by packed weights: field ``s`` holds the sum
    of ``wt_s + d`` over a monomial's factors, at most ``2 * d * kmax``,
    below a spare bit.  For each index, each degree ``k = 1..kmax`` in
    turn, upward and in place, gains every entry of degree ``k - 1``
    shifted by the index's weight.  Degree ``k`` then adds
    ``spare - k * d`` to every field, which sets the spare bit exactly when
    the component is at least 0: a key with every spare bit set is a
    dominant weight, whose prefix sums are its partition's ascending
    vector."""
    indices: list[MultiIndex] = [()]
    for _ in range(n - 1):
        indices = [i + (v,) for i in indices for v in range(d - sum(i) + 1)]
    field = (2 * d * kmax).bit_length() + 1
    spare = 1 << (field - 1)
    ones = sum(1 << (s * field) for s in range(n - 1))

    def shift(i: MultiIndex) -> int:
        weight = [d - i[0] - sum(i)] + [i[s] - i[s + 1] for s in range(n - 2)]
        return sum((w + d) << (s * field) for s, w in enumerate(weight))

    degrees: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(kmax)]
    for step in map(shift, indices if kmax else ()):
        for lower, upper in zip(degrees, degrees[1:]):
            for key, c in lower.items():
                upper[key + step] = upper.get(key + step, 0) + c
    tables = []
    for k, entries in enumerate(degrees):
        high, adj = spare * ones, (spare - k * d) * ones
        partitions = {}
        for key, c in entries.items():
            if (key + adj) & high == high:
                parts, total = 0, 0
                for s in range(n - 1):
                    total += ((key >> (s * field)) & (spare - 1)) - k * d
                    parts += total << ((s + 1) * width)
                partitions[parts] = c
        tables.append(PartitionTable(n, d, k, width, partitions))
    return tables


def alternating_multiplicity_sum(n: int, highest) -> int:
    """Parity-signed sum of the module's multiplicities over the dominant
    orbit-difference weights; equals 1 for the zero highest weight and 0
    for every other dominant weight."""
    w = check_dominant(n, highest)
    return sum(
        coef * kostka_number(n, w, dominant)
        for dominant, coef in signed_orbit_terms(n)
    )


def weyl_dimension(n: int, highest) -> int:
    """Dimension of the irreducible module, by the product formula."""
    w = check_dominant(n, highest)
    shifted = [a + t for t, a in enumerate(to_ambient(w))]
    numerator = 1
    denominator = 1
    for a in range(n):
        for b in range(a + 1, n):
            numerator *= shifted[b] - shifted[a]
            denominator *= b - a
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise InternalError(
            f"Weyl dimension formula gave {numerator}/{denominator} for {w}"
        )
    return value


def load_count_records(path: str) -> tuple[dict[tuple, int], int, str]:
    """A count-cache file read one line at a time with :func:`json.loads`:
    ``(records, skipped, separator)``.

    The records map ``(n, d, k, mu)`` to the count, the last line of a key
    winning; ``skipped`` counts the nonblank lines that hold no record; the
    separator is what an append must write first (``"\\n"`` after a torn
    last line).  A record's ``n``, ``d``, ``k`` and ``mu`` entries are JSON
    integers, ``mu`` has ``n - 1`` of them, and ``count`` is a string of
    ASCII digits.  The package reads the file with a pattern instead, and
    decodes JSON only for lines not in the format it writes.
    """
    records: dict[tuple, int] = {}
    skipped = 0
    line = "\n"
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
                n, d, k, mu, count = (rec[f] for f in ("n", "d", "k", "mu", "count"))
                if type(mu) is not list or len(mu) != n - 1:
                    raise ValueError(line)
                if any(type(x) is not int for x in (n, d, k, *mu)):
                    raise ValueError(line)
                if not (count.isascii() and count.isdigit()):
                    raise ValueError(line)
                records[n, d, k, tuple(mu)] = int(count)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError):
                skipped += bool(line.strip())
    return records, skipped, "" if line.endswith("\n") else "\n"

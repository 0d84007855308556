"""Weight multiplicities of the coefficient monomials.

A degree-``k`` monomial in the form's coefficients is a multiset of ``k``
indices; its *moments* are the coordinatewise sums of those indices.  The
weight of the monomial is a fixed affine function of its moments, so each
weight corresponds to at most one moment-target vector, and the number of
monomials of a given weight is one coefficient of the generating series
expanded in :mod:`naryinv.series`.  :func:`signed_counts` is the one
reader: every query hands it signed weight terms and degrees.  It
decomposes each term once, tests it for feasibility at every degree, lists
the feasible ones as one flat read plan, and reads the plan off a single
expansion, capped at the largest targets in it.  An optional on-disk
cache, which the CLI opens, memoises the counts.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Sequence

from .errors import MAX_TERMS, InternalError, check_params, check_weight
from .series import TruncatedSeries, check_expansion_size, expand_generating_series
from .weights import Weight

CACHE_FILENAME = "weight-counts.jsonl"


def moment_targets(n: int, d: int, k: int, weight) -> tuple[int, ...] | None:
    """Moment-target vector for monomials of degree ``k`` and given weight.

    Solving the weight equations for the moments gives
    ``T_s = (k*d + sum(a))/n - a[s + 1]``, where ``a`` is the ambient vector
    of ``weight`` (:func:`~naryinv.weights.to_ambient`; a common constant
    cancels).  Returns ``None`` when no solution exists, i.e. when
    ``k*d + sum(a)`` is not divisible by ``n`` or some target would be
    negative; moments of a monomial are always nonnegative integers.  Any
    integer weight is accepted, dominant or not.
    """
    w = check_weight(n, weight)
    check_params(n, d, k)
    return _targets(n, k * d, _decompose(w))


def _decompose(weight: Weight) -> tuple[tuple[int, ...], int, int]:
    """What :func:`_targets` needs of a checked weight, at every degree:
    ``a[1:]`` (``a[0] = 0``), ``sum(a)`` and ``max(a[1:])``."""
    # a[0] = 0, not min(a) = 0: a constant added to every a[s] cancels
    tail = tuple(itertools.accumulate(weight))
    return tail, sum(tail), max(tail)


def _targets(n: int, kd: int, term: tuple[tuple[int, ...], int, int]) -> tuple[int, ...] | None:
    """Targets ``mean - a[s + 1]`` at ``kd = k * d`` of a weight given by
    its :func:`_decompose` triple, with ``mean = (kd + sum(a)) / n``; ``None``
    when ``n`` does not divide ``kd + sum(a)`` or the largest ``a[s + 1]``
    exceeds the mean (some target would be negative)."""
    tail, total, top = term
    mean, rest = divmod(kd + total, n)
    if rest or mean < top:
        return None
    return tuple([mean - x for x in tail])


def signed_counts(
    n: int,
    d: int,
    degrees: Sequence[int],
    terms: Sequence[tuple[Weight, int]],
    max_terms: int = MAX_TERMS,
    cache: "CountCache | None" = None,
    series: TruncatedSeries | None = None,
) -> list[int]:
    """Signed sums ``sum(c * multiplicity(k, w) for w, c in terms)``, one per
    degree ``k`` in ``degrees``: the one reader behind every query.

    Each weight comes checked, as :func:`~naryinv.weights.signed_orbit_terms`
    builds it, and each term is decomposed once, not once per degree.  The
    read plan is one flat list of ``(k, w, c, targets)``.  Each distinct
    degree is visited once, from the last listed down; a divisibility and a
    sign test (the formula of :func:`moment_targets`) pick the terms whose
    moment system is feasible there.  A count ``cache`` holds goes straight
    into the degree's sum, and every other feasible term adds one entry to
    the plan.  One caps rule, :func:`_caps`, sizes the plan.  Without
    ``series``, the first degree that adds an entry is sized at once, its
    caps clipped to what that degree reaches (a lower bound on the final
    expansion), so a refused read is refused before the degrees below it are
    listed; the plan is then read off one expansion to its largest degree.
    The plan is read in one loop, in the order it was listed, and each
    computed value is added to ``cache``.  Last, the sums are checked in the
    order of ``degrees``: a negative one raises :class:`ValueError` naming
    the cache file when its degree read a count from ``cache``, else
    :class:`InternalError`.
    """
    check_params(n, d, None, max_terms)
    if series is not None and (series.n, series.d) != (n, d):
        raise ValueError(f"series built for (n={series.n}, d={series.d}), not (n={n}, d={d})")
    decomposed = [(w, c, _decompose(w)) for w, c in terms]
    sums: dict[int, int] = {}
    reads: list[tuple[int, Weight, int, tuple[int, ...]]] = []
    from_cache = set()
    for k in reversed(degrees):
        check_params(n, d, k)
        if k in sums:
            continue
        kd = k * d
        sums[k] = 0
        for w, c, term in decomposed:
            targets = _targets(n, kd, term)
            if targets is None:
                continue
            hit = cache.get(n, d, k, w) if cache is not None else None
            if hit is None:
                reads.append((k, w, c, targets))
            else:
                sums[k] += c * hit
                from_cache.add(k)
        if series is None and reads and reads[0][0] == k:
            check_expansion_size(d, k, tuple(min(c, kd) for c in _caps(reads)), max_terms)
    if reads and series is None:
        series = expand_generating_series(n, d, max(r[0] for r in reads), max_terms, _caps(reads))
    for k, w, c, targets in reads:
        count = series.coefficient(k, targets)
        sums[k] += c * count
        if cache is not None:
            cache.put(n, d, k, w, count)
    for k in degrees:
        if sums[k] < 0:
            where = f"negative multiplicity {sums[k]} at (n={n}, d={d}, k={k})"
            if k in from_cache:
                raise ValueError(f"{where}: {cache.path} holds a bad count")
            raise InternalError(where)
    return [sums[k] for k in degrees]


def _caps(reads: list[tuple[int, Weight, int, tuple[int, ...]]]) -> tuple[int, ...]:
    """The caps of a read plan: the coordinatewise maximum of its targets."""
    return tuple(map(max, zip(*(read[3] for read in reads))))


def weight_multiplicity(
    n: int,
    d: int,
    k: int,
    weight,
    max_terms: int = MAX_TERMS,
    cache: "CountCache | None" = None,
) -> int:
    """Number of degree-``k`` coefficient monomials of the given weight.

    Returns 0 whenever the moment system is infeasible.  Equals the
    multiplicity of ``weight`` in the k-th symmetric power of the
    coefficient space.
    """
    w = check_weight(n, weight)
    return signed_counts(n, d, [k], [(w, 1)], max_terms, cache)[0]


class CountCache:
    """On-disk memo of weight multiplicities, one JSON record per line.

    Record format: ``{"n":..,"d":..,"k":..,"mu":[..],"count":"<decimal>"}``.
    Counts are stored as decimal strings because they can exceed 64 bits.
    The file is append-only; existing records are loaded once at open.
    Lines that do not hold such a record (a torn last line from a crash
    during an append, say) are skipped and counted in ``skipped``.  A path
    that is not a regular file (a FIFO, a device) raises :class:`OSError`.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, CACHE_FILENAME)
        self._mem: dict[tuple[int, int, int, Weight], int] = {}
        self.skipped = 0
        line = "\n"
        if os.path.exists(self.path):
            # a FIFO blocks the open and a device may read without end
            if not os.path.isfile(self.path):
                raise OSError(f"{self.path} is not a regular file")
            with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    try:
                        rec = json.loads(line)
                        n, mu, count = rec["n"], rec["mu"], rec["count"]
                        key = (n, rec["d"], rec["k"], tuple(mu))
                        decimal = count.isascii() and count.isdigit()
                        if len(mu) != n - 1 or not decimal:
                            raise ValueError(line)
                        self._mem[key] = int(count)
                    except (ValueError, KeyError, TypeError, AttributeError):
                        self.skipped += bool(line.strip())
        # written before the next record when the file ends mid-line
        self._separator = "" if line.endswith("\n") else "\n"

    def get(self, n: int, d: int, k: int, weight: Weight) -> int | None:
        return self._mem.get((n, d, k, weight))

    def put(self, n: int, d: int, k: int, weight: Weight, value: int) -> None:
        key = (n, d, k, weight)
        if key in self._mem:
            return
        self._mem[key] = value
        rec = {"n": n, "d": d, "k": k, "mu": list(weight), "count": str(value)}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(self._separator + json.dumps(rec) + "\n")
        self._separator = ""

    def __len__(self) -> int:
        return len(self._mem)


"""Weight multiplicities of the coefficient monomials.

A degree-``k`` monomial in the form's coefficients is a multiset of ``k``
indices; its *moments* are the coordinatewise sums of those indices.  The
weight of the monomial is a fixed affine function of its moments, so each
weight corresponds to at most one moment-target vector, and the number of
monomials of a given weight is one coefficient of the generating series
expanded in :mod:`naryinv.series`.  :func:`signed_counts` is the one
reader: every query hands it signed weight terms and degrees.

It plans each term once, as a line.  A weight's moment system is feasible
at the degrees ``k0, k0 + step, ...`` (``step = n / gcd(n, d)``), and each
step raises every target by ``d / gcd(n, d)``, so the term's reads at the
listed degrees lie on one line of cells, read by one
:meth:`~naryinv.series.TruncatedSeries.line` call from its last degree.
:func:`_targets` is the one feasibility formula.  Sizing keeps its order:
with several degrees listed, the lower bound at the first degree, from the
last listed down, with a feasible read is checked before any set or dict
of the degrees is built, and the one expansion is then sized exactly from
the lines' last targets.

An optional on-disk cache, which the CLI opens, memoises the counts: one
scan checks its file at the open, the records of each ``(n, d)`` a query
asks for are indexed on its first lookup, and each lookup is then one dict
probe.  Each ``(k, w)`` a plan reads is probed once, and the counts it
computes are appended from the last listed degree down, then in term order.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import re
import sys
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
    integer weight is accepted, dominant or not.  The test is the one of
    :func:`_targets`.
    """
    w = check_weight(n, weight)
    check_params(n, d, k)
    return _targets(n, d, k, _line(n, d, w))


def _line(n: int, d: int, weight: Weight) -> tuple[tuple[int, ...], int, int]:
    """The line of a checked weight: ``a[1:]``, ``sum(a)`` and ``low``, what
    :func:`_targets`, the one feasibility formula, needs at every degree.

    With ``a[0] = 0`` (a constant added to every ``a[s]`` cancels), the
    moment system of degree ``k`` is feasible exactly when ``n`` divides
    ``k*d + sum(a)`` and ``k >= low``, the least degree whose mean ``(k*d +
    sum(a)) / n`` reaches ``max(a[1:])``; its targets are then ``mean - a[s
    + 1]``.  The degrees ``k`` at which ``n`` divides ``k*d + sum(a)`` are
    one residue class modulo ``step = n / gcd(n, d)``, or none, so the
    feasible degrees are ``k0, k0 + step, ...`` from the first of the class
    at ``low`` or above, and each step raises every target by ``d / gcd(n,
    d)``.
    """
    tail = tuple(itertools.accumulate(weight))
    total = sum(tail)
    return tail, total, max(0, -((total - n * max(tail)) // d))


def _targets(
    n: int, d: int, k: int, line: tuple[tuple[int, ...], int, int]
) -> tuple[int, ...] | None:
    """Targets ``mean - a[s + 1]`` at degree ``k`` of a weight given by its
    :func:`_line` triple, ``mean = (k*d + sum(a)) / n``; ``None`` where the
    moment system is infeasible: ``n`` does not divide ``k*d + sum(a)``, or
    ``k < low``."""
    tail, total, low = line
    mean, rest = divmod(k * d + total, n)
    if rest or k < low:
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
    builds it, and each term is planned once, not once per degree, from its
    line (:func:`_line`): its feasible degrees are one residue class from a
    least degree up, and each step raises every target by the same rise, so
    its reads at the listed degrees lie on one line of cells.

    Sizing comes first.  The terms are grouped by residue class, the degrees
    at which ``n`` divides ``k*d + sum(a)``.  Without ``series``, and with
    more than one degree listed, the degrees are walked from the last listed
    down to the first with a feasible term (:func:`_targets`, tried only on
    the terms of that degree's class) that ``cache`` does not hold, and the
    targets there, clipped to what that degree reaches, size a lower bound
    on the expansion, so a refused read is refused before any set or dict of
    the degrees is built.  One degree's bound would be the expansion's exact
    size, which the expansion checks.  Then the distinct degrees are listed,
    from the last listed down, and those of each class are kept in ascending
    order; each term's line takes those of its class from its least feasible
    degree up.  With ``cache``, each ``(k, w)`` on a line is probed once,
    the walk's probes included: a hit goes straight into the degree's sum,
    and only the misses stay on the line.  A line ends at its last degree,
    where its targets are its largest.  Without ``series``, the lines are
    read off one expansion to their largest degree, capped at their ends
    (one caps rule, :func:`_caps`, for both sizings).  Each line is read by
    one :meth:`~naryinv.series.TruncatedSeries.line` call from its end, in
    term order.  The counts read are then added to ``cache`` in the order a
    plan by degree lists them: degrees from the last listed down, then term
    order.  Last, the sums are checked in the order of ``degrees``: a
    negative one raises :class:`ValueError` naming the cache file when its
    degree read a count from ``cache``, else :class:`InternalError`.
    """
    check_params(n, d, None, max_terms)
    if series is not None and (series.n, series.d) != (n, d):
        raise ValueError(f"series built for (n={series.n}, d={series.d}), not (n={n}, d={d})")
    planned = [(w, c, _line(n, d, w)) for w, c in terms]
    # the terms of each residue class, keyed by sum(a) modulo n: n divides
    # k*d + sum(a) exactly at the degrees k of the class, those whose key
    # -k*d modulo n is the class's
    classes: dict[int, list[int]] = {}
    for i, (_, _, line) in enumerate(planned):
        classes.setdefault(line[1] % n, []).append(i)
    # (k, term) -> count or None, for what the sizing walk probes in the cache
    probed: dict[tuple[int, int], int | None] = {}
    # one degree's bound would be the expansion's exact size, which the
    # expansion checks before it allocates anything
    if series is None and len(degrees) > 1:
        for k in reversed(degrees):
            check_params(n, d, k)
            ends = []
            for i in classes.get(-k * d % n, ()):
                w, _, line = planned[i]
                targets = _targets(n, d, k, line)
                if targets is None:
                    continue
                if cache is not None:
                    if (k, i) not in probed:
                        probed[k, i] = cache.get(n, d, k, w)
                    if probed[k, i] is not None:
                        continue
                ends.append(targets)
            if ends:
                clipped = tuple([min(c, k * d) for c in _caps(ends)])
                check_expansion_size(d, k, clipped, max_terms)
                break
    sums = dict.fromkeys(reversed(degrees), 0)
    if sums and min(sums) < 0:
        check_params(n, d, next(k for k in sums if k < 0))
    # the listed degrees of each class, ascending
    degrees_of: dict[int, list[int]] = {key: [] for key in classes}
    for k in sorted(sums):
        listed = degrees_of.get(-k * d % n)
        if listed is not None:
            listed.append(k)
    lines = []
    from_cache = set()
    for i, (w, c, line) in enumerate(planned):
        points = degrees_of[line[1] % n]
        if points and points[0] < line[2]:
            points = points[bisect.bisect_left(points, line[2]):]
        if cache is not None:
            missed = []
            for k in points:
                hit = probed[k, i] if (k, i) in probed else cache.get(n, d, k, w)
                if hit is None:
                    missed.append(k)
                else:
                    sums[k] += c * hit
                    from_cache.add(k)
            points = missed
        if points:
            # a line ends at its last degree, where its targets are largest
            last = points[-1]
            lines.append((i, c, last, _targets(n, d, last, line), points))
    if lines and series is None:
        top = max(line[2] for line in lines)
        series = expand_generating_series(n, d, top, max_terms, _caps([line[3] for line in lines]))
    # (degree, term, count) of each count read, for the cache
    puts = []
    for i, c, last, targets, points in lines:
        counts = series.line(last, targets, points)
        for k, count in zip(points, counts):
            sums[k] += c * count
        if cache is not None:
            puts += [(k, i, count) for k, count in zip(points, counts)]
    if puts:
        rank = {k: r for r, k in enumerate(sums)}
        puts.sort(key=lambda put: (rank[put[0]], put[1]))
        for k, i, count in puts:
            cache.put(n, d, k, planned[i][0], count)
    if sums and min(sums.values()) < 0:
        for k in degrees:
            if sums[k] < 0:
                where = f"negative multiplicity {sums[k]} at (n={n}, d={d}, k={k})"
                if k in from_cache:
                    raise ValueError(f"{where}: {cache.path} holds a bad count")
                raise InternalError(where)
    return [sums[k] for k in degrees]


def _caps(ends: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The caps of a read plan: the coordinatewise maximum of the targets at
    the last point of each of its lines."""
    return tuple(map(max, zip(*ends)))


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

    :meth:`put` writes each record as ``{"n": 3, "d": 3, "k": 6, "mu": [2,
    2], "count": "25"}``: counts are decimal strings because they can
    exceed 64 bits.  The file is append-only: each record goes to the OS as
    one ``write`` on a descriptor opened with ``O_APPEND`` (mode ``0o666``
    less the umask when it creates the file), a short write finished in a
    loop, and the descriptor is closed before :meth:`put` returns, so no
    handle outlives a put.  An ``OSError`` of the open or the write
    propagates, and the key is stored only once its whole line is written:
    a failed put stores nothing, so a later put of the key appends it, and
    a write that left part of a line makes the next record start a new
    line.

    One rule decides every record: ``n``, ``d``, ``k`` and each entry of
    ``mu`` are JSON integers (``3.0`` and ``true`` are not; ``-0`` reads as
    0), ``mu`` has ``n - 1`` entries, ``count`` holds only ASCII digits, and
    no integer has more digits than ``int()`` accepts.  A later record of a
    key replaces an earlier one.  Lines that break the rule (a torn last
    line from a crash during an append, say) are skipped and counted in
    ``skipped``.  A path that is not a regular file (a FIFO, a device)
    raises :class:`OSError`.

    The open reads the file once as text and checks every line by one pass
    of one pattern, which builds nothing for a line in exactly
    :meth:`put`'s format with ``n`` from 2 to 9.  Any other nonblank line
    costs one JSON decode; what it decodes to is written again as
    :meth:`put` writes it and matched against the record rule, and a record
    it holds is kept with its place in the file.  The records of one ``(n,
    d)`` are indexed on its first :meth:`get` or :meth:`put`, by one search
    for put's lines of that ``(n, d)``; they are kept by key text (``"n":
    3, "d": 3, "k": 6, "mu": [2, 2]``) and count text, so each later lookup
    is one dict probe and a record no query asks for is never built.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, CACHE_FILENAME)
        self.skipped = 0
        text = ""
        if os.path.exists(self.path):
            # a FIFO blocks the open and a device may read without end
            if not os.path.isfile(self.path):
                raise OSError(f"{self.path} is not a regular file")
            with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        # every line follows a newline, the first included
        self._text = "\n" + text if text else ""
        # (n, d) -> key text -> count text, built on the first lookup of (n, d)
        self._index: dict[tuple[int, int], dict[str, str]] = {}
        # (n, d) -> (offset, key text, count text) of each record on a line
        # outside put's format, in file order
        self._other: dict[tuple[int, int], list[tuple[int, str, str]]] = {}
        if text:
            # one match per run of put's lines builds nothing
            for match in _scan_pattern().finditer(self._text):
                if match.lastgroup is None:
                    continue
                key, n, d, mu, count = _reread(match["other"])
                if key and _arity_kept(n, mu):
                    self._other.setdefault((int(n), int(d)), []).append((match.start(), key, count))
                else:
                    self.skipped += 1
        # written before the next record when the file ends mid-line
        self._separator = "\n" if text and not text.endswith("\n") else ""

    def _records(self, n: int, d: int) -> dict[str, str]:
        """The records of ``(n, d)``, key text to count text, indexed on the
        first call: put's lines of ``(n, d)`` and the lines kept at the open,
        the last line of a key winning."""
        records = self._index.get((n, d))
        if records is None:
            others = self._other.get((n, d), [])
            if not (self._text and n in _SCANNED):
                records = {key: count for _, key, count in others}
            elif not others:
                records = dict(_index_pattern(n, d).findall(self._text))
            else:
                found = [(m.start(), *m.groups()) for m in _index_pattern(n, d).finditer(self._text)]
                records = {key: count for _, key, count in sorted(found + others)}
            self._index[n, d] = records
        return records

    def get(self, n: int, d: int, k: int, weight: Weight) -> int | None:
        count = self._records(n, d).get(_key_text(n, d, k, weight))
        return None if count is None else int(count)

    def put(self, n: int, d: int, k: int, weight: Weight, value: int) -> None:
        records = self._records(n, d)
        key = _key_text(n, d, k, weight)
        if key in records:
            return
        count = str(value)
        line = f'{self._separator}{{{key}, "count": "{count}"}}\n'.encode("ascii")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while line:
                line = line[os.write(fd, line):]
                # until the line is whole, the file ends mid-line
                self._separator = "\n"
        finally:
            os.close(fd)
        records[key] = count
        self._separator = ""

    def __len__(self) -> int:
        """The number of distinct readable keys, puts included: one more
        pass over the whole file."""
        keys = {key for records in self._index.values() for key in records}
        keys.update(key for others in self._other.values() for _, key, _ in others)
        if self._text:
            keys.update(
                key for key, n, _, mu, _ in _record_pattern().findall(self._text) if _arity_kept(n, mu)
            )
        return len(keys)


def _arity_kept(n: str, mu: str) -> bool:
    """Whether the ``mu`` text of a record has ``n - 1`` entries."""
    return n == str(mu.count(",") + 2 if mu else 1)


def _key_text(n: int, d: int, k: int, weight: Weight) -> str:
    """The key of a record as :meth:`CountCache.put` writes it."""
    return f'"n": {n}, "d": {d}, "k": {k}, "mu": [{", ".join(map(str, weight))}]'


# the n whose lines in put's format the scan at open checks by pattern alone
_SCANNED = range(2, 10)
# the most lines in put's format one match of the scan takes: the regex
# engine keeps state for each line of a run
_RUN = 64

_RULE: tuple[str, str] | None = None
_RECORD: re.Pattern[str] | None = None
_SCAN: re.Pattern[str] | None = None


def _rule() -> tuple[str, str]:
    """The patterns of a record's integer and of its count, fixed on the
    first open, so that a query without ``--cache`` builds nothing.

    Integers are canonical (no leading zero, no ``-0``), with at most as
    many digits as ``int()`` accepts; the count may have leading zeros.
    """
    global _RULE
    if _RULE is None:
        # json and int() refuse an integer of more digits than the limit;
        # there is none at 0 or before Python 3.10.7, and "{0,}" is "*"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or ""
        more = "{0,%s}" % (limit and limit - 1)
        _RULE = f"(?:-?[1-9][0-9]{more}|0)", f"[0-9]{{1,{limit}}}"
    return _RULE


def _record_pattern() -> re.Pattern[str]:
    """The record rule of :class:`CountCache`: a line exactly as
    :meth:`CountCache.put` writes it, any ``n``, with groups ``key``, ``n``,
    ``d``, ``mu`` and ``count`` (the arity of ``mu`` is left to the caller)."""
    global _RECORD
    if _RECORD is None:
        integer, count = _rule()
        _RECORD = re.compile(
            rf'^\{{(?P<key>"n": (?P<n>{integer}), "d": (?P<d>{integer}), "k": {integer}, '
            rf'"mu": \[(?P<mu>(?:{integer}(?:, {integer})*)?)\]), "count": "(?P<count>{count})"\}}$',
            re.MULTILINE,
        )
    return _RECORD


def _scan_pattern() -> re.Pattern[str]:
    """The check at :class:`CountCache`'s open: its first alternative takes
    a run of up to ``_RUN`` lines in :meth:`CountCache.put`'s format that
    keep the record rule, ``n`` in ``_SCANNED``, and captures nothing; the
    second, group ``other``, takes any other nonblank line."""
    global _SCAN
    if _SCAN is None:
        integer, count = _rule()
        # one alternative per n, which fixes the arity of mu
        keys = "|".join(_key_rule(n, integer) for n in _SCANNED)
        _SCAN = re.compile(
            rf'(?:^\{{(?:{keys}), "count": "{count}"\}}$\n?){{1,{_RUN}}}'
            r"|^(?P<other>.*\S.*)$",
            re.MULTILINE,
        )
    return _SCAN


def _index_pattern(n: int, d: int) -> re.Pattern[str]:
    """The lines in :meth:`CountCache.put`'s format of one ``(n, d)`` that
    keep the record rule, each after a newline, with groups key and count
    text; ``re`` keeps the compiled pattern."""
    return re.compile(rf'\n\{{({_key_rule(n, d)}), "count": "({_rule()[1]})"\}}(?![^\n])')


def _key_rule(n: int, d: int | str) -> str:
    """The pattern of a key in :meth:`CountCache.put`'s format whose ``n``
    is ``n`` (at least 2) and whose ``d`` is ``d`` or matches ``d``."""
    integer = _rule()[0]
    return rf'"n": {n}, "d": {d}, "k": {integer}, "mu": \[{integer}(?:, {integer}){{{n - 2}}}\]'


def _reread(line: str) -> tuple[str | None, ...]:
    """The ``key``, ``n``, ``d``, ``mu`` and ``count`` groups of the record
    that ``line`` decodes to, written as :meth:`CountCache.put` writes it;
    all ``None`` when it does not decode to one."""
    try:
        rec = json.loads(line)
        text = json.dumps({field: rec[field] for field in ("n", "d", "k", "mu", "count")})
    except (ValueError, KeyError, TypeError, RecursionError):
        return (None,) * 5
    match = _record_pattern().match(text)
    return match.groups() if match else (None,) * 5

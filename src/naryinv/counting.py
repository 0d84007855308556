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
cache, which the CLI opens, memoises the counts: one scan checks its file
at the open, the records of each ``(n, d)`` a query asks for are indexed
on its first lookup, and each lookup is then one dict probe.
"""

from __future__ import annotations

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

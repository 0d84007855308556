"""Weight multiplicities of the coefficient monomials.

A degree-``k`` monomial in the form's coefficients is a multiset of ``k``
indices; its *moments* are the coordinatewise sums of those indices.  The
weight of the monomial is a fixed affine function of its moments, so each
weight corresponds to at most one moment-target vector, and the number of
monomials of a given weight is one coefficient of the generating series
expanded in :mod:`naryinv.series`.  The weights one query needs are read
off a single expansion, capped at the largest targets among them.  An
optional on-disk cache memoises the counts.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from .errors import check_params
from .series import MAX_TERMS, TruncatedSeries, expand_generating_series
from .weights import Weight, check_weight

CACHE_ENV_VAR = "NARY_CACHE_DIR"
CACHE_FILENAME = "weight-counts.jsonl"


def moment_targets(n: int, d: int, k: int, weight) -> tuple[int, ...] | None:
    """Moment-target vector for monomials of degree ``k`` and given weight.

    Solving the weight equations for the moments gives

        ``T_s = (k*d - W)/n + weight[s] + ... + weight[n-2]``

    (0-based tail sums) where ``W = sum_r (r+1) * weight[r]``.  Returns
    ``None`` when no solution exists, i.e. when ``k*d - W`` is not divisible
    by ``n`` or some target would be negative; moments of a monomial are
    always nonnegative integers.  Any integer weight is accepted, dominant
    or not.
    """
    w = check_weight(n, weight)
    check_params(n, d, k)
    weighted = sum((r + 1) * m for r, m in enumerate(w))
    base = k * d - weighted
    if base % n:
        return None
    base //= n
    targets = []
    tail = 0
    for s in range(n - 2, -1, -1):
        # tail holds w[s+1] + ... + w[n-2]
        targets.append(base + tail)
        if s:
            tail += w[s]
    targets.reverse()
    if any(t < 0 for t in targets):
        return None
    return tuple(targets)


def weight_counts(
    n: int,
    d: int,
    k: int,
    weights: Iterable[Weight],
    max_terms: int = MAX_TERMS,
    cache: "CountCache | None" = None,
    series: TruncatedSeries | None = None,
) -> dict[Weight, int]:
    """Multiplicities of the feasible ``weights`` among degree-``k`` monomials.

    Weights whose moment system has no solution are left out: their
    multiplicity is 0.  The others come from ``cache`` when it holds them,
    otherwise from ``series`` or, without one, from one expansion capped at
    the coordinatewise maximum of their targets; computed values are added
    to ``cache``.
    """
    check_params(n, d, k, max_terms)
    if series is not None and (series.n, series.d) != (n, d):
        raise ValueError(
            f"series was built for (n={series.n}, d={series.d}), "
            f"queried with (n={n}, d={d})"
        )
    counts: dict[Weight, int] = {}
    missing: dict[Weight, tuple[int, ...]] = {}
    for w in weights:
        targets = moment_targets(n, d, k, w)
        if targets is None:
            continue
        hit = cache.get(n, d, k, w) if cache is not None else None
        if hit is None:
            missing[w] = targets
        else:
            counts[w] = hit
    if missing and series is None:
        caps = [max(column) for column in zip(*missing.values())]
        series = expand_generating_series(n, d, k, max_terms, caps)
    for w, targets in missing.items():
        counts[w] = series.coefficient(k, targets)
        if cache is not None:
            cache.put(n, d, k, w, counts[w])
    return counts


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
    return weight_counts(n, d, k, [w], max_terms, cache).get(w, 0)


class CountCache:
    """On-disk memo of weight multiplicities, one JSON record per line.

    Record format: ``{"n":..,"d":..,"k":..,"mu":[..],"count":"<decimal>"}``.
    Counts are stored as decimal strings because they can exceed 64 bits.
    The file is append-only; existing records are loaded once at open.
    Lines that do not hold such a record (a torn last line from a crash
    during an append, say) are skipped and counted in ``skipped``.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, CACHE_FILENAME)
        self._mem: dict[tuple[int, int, int, Weight], int] = {}
        self.skipped = 0
        line = "\n"
        if os.path.exists(self.path):
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


def cache_from_env() -> CountCache | None:
    """Cache rooted at ``$NARY_CACHE_DIR``, or ``None`` when unset."""
    directory = os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    return CountCache(directory)

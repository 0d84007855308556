"""Build or re-check the benchmark's query pools and expected answers.

    python3 perfbench/confirm.py          # re-derive every answer, compare with answers.json
    python3 perfbench/confirm.py --write  # re-derive and rewrite answers.json

The pools are fixed lists of CLI queries, one per workload (the cached
workload has a pool of hits and a pool of misses).  Every expected answer is
derived once by a route that shares no code with the route the benchmark
times (the signed Weyl-orbit sum over dynamic-programming counts):

* ``binary``: the bounded-partition count ``binary_invariant_dimension``
  (n = 2 only);
* ``cubic``: coefficients of ``1/((1-t^4)(1-t^6))``, the Hilbert series of
  the ternary cubic, computed here (n = 3, d = 3 only);
* ``brute-strip``: ``strip_decompose(brute_character(...))``, or the brute
  character itself for ``count``, while the monomial count is affordable;
* ``orbit-enum``: the signed orbit sum recomputed here from the permutations;
* ``series=dp``: where brute force is too large, the series route and the
  timed route must agree; ``dp`` for ``series`` queries, whose timed route
  is the series itself.  These two share the orbit terms with the timed
  route, so they are the last resort.

Takes about three minutes; the brute-force characters dominate.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from naryinv import oracles  # noqa: E402
from naryinv.counting import moment_targets  # noqa: E402
from naryinv.dimensions import invariant_dimension  # noqa: E402
from naryinv.forms import weight_from_moments  # noqa: E402
from naryinv.series import (  # noqa: E402
    expand_generating_series,
    invariant_dimension_by_series,
)
from naryinv.weights import signed_orbit_terms  # noqa: E402
from worker import orbit_digest  # noqa: E402

#: brute-force characters above this many monomials take more than ~30 s
BRUTE_LIMIT = 5_500_000

# Table queries over several (n, d): many degrees share one expansion.
SWEEP = [
    "table 3 3 --kmax 14",
    "table 2 6 --kmax 20",
    "table 2 5 --kmax 24",
    "table 2 8 --kmax 14",
    "table 4 2 --kmax 8",
    "table 3 4 --kmax 10",
    "table 2 4 --kmax 24",
    "table 2 7 --kmax 16",
    "table 4 3 --kmax 6",
    "table 2 3 --kmax 30",
    "table 5 2 --kmax 8",
]

# Deep point queries, each a cold start: nothing is amortised.
SINGLE = [
    "nu 3 3 20",
    "gamma 3 3 18 --lambda 2,2",
    "count 4 3 8 --mu 0,0,0",
    "nu 5 2 10",
    "nu 7 2 7",
    "series 3 3 40",
    "series 3 5 12",
    "orbit 8",
    "nu 6 2 6",
    "nu 4 4 4",
    "series 5 2 10",
    "count 5 2 10 --mu 0,0,0,0",
    "nu 2 12 12",
    "gamma 2 8 10 --lambda 4",
    "series 4 3 8",
]

# Oracle cross-checks: brute-force characters dominate.
VERIFY = [
    "check 3 3 --kmax 8",
    "check 4 2 --kmax 8",
    "check 3 4 --kmax 6",
    "check 2 5 --kmax 12",
    "check 2 6 --kmax 10",
    "check 3 2 --kmax 12",
    "check 2 4 --kmax 14",
    "check 4 3 --kmax 5",
    "check 5 2 --kmax 5",
    "check 3 5 --kmax 5",
    "check 2 3 --kmax 20",
]

#: (n, d, K): the pre-built cache holds every nonzero weight multiplicity
#: of degree k <= K, read off the series expansion (about 3,700 records)
CACHE_GRID = [
    (2, 3, 10), (2, 4, 10), (2, 5, 10), (2, 6, 10), (2, 7, 10), (2, 8, 10),
    (3, 2, 8), (3, 3, 6), (3, 4, 5), (4, 2, 4),
]

# One query per (n, d, k) outside CACHE_GRID, so every lookup misses.
CACHED_MISS = [
    "nu 2 3 14",
    "nu 2 4 12",
    "count 2 5 12 --mu 0",
    "nu 2 6 12",
    "gamma 2 7 12 --lambda 2",
    "count 2 8 12 --mu 4",
    "nu 3 2 9",
    "nu 3 3 8",
    "count 3 4 6 --mu 0,0",
    "nu 4 2 6",
]

#: extra weights tried for the cached hit pool, per rank
_HIT_WEIGHTS = {2: [(2,), (4,)], 3: [(1, 1), (3, 0)], 4: [(0, 2, 0), (2, 0, 0)]}

#: a few cheap queries per workload for ``run.py --smoke``
SMOKE = {
    "sweep": ["table 3 4 --kmax 8", "table 4 2 --kmax 6", "table 2 5 --kmax 12"],
    "single": ["count 4 3 8 --mu 0,0,0", "series 2 10 16", "orbit 6"],
    "verify": ["check 2 5 --kmax 8", "check 3 2 --kmax 6", "check 4 2 --kmax 4"],
    "cached_hit": ["nu 3 3 6", "count 2 5 6 --mu 0", "gamma 2 4 6 --lambda 4"],
    "cached_miss": ["nu 2 6 12"],
}


def parse_query(query: str) -> tuple[str, list[int], tuple[int, ...] | None]:
    """``"gamma 3 3 18 --lambda 2,2"`` -> ``("gamma", [3, 3, 18], (2, 2))``.

    For ``table`` and ``check`` the last number is ``--kmax``.
    """
    words = query.split()
    kind, nums, weight = words[0], [], None
    it = iter(words[1:])
    for w in it:
        if w in ("--lambda", "--mu"):
            weight = tuple(int(x) for x in next(it).split(","))
        elif w == "--kmax":
            nums.append(int(next(it)))
        else:
            nums.append(int(w))
    return kind, nums, weight


def cubic_series(k: int) -> int:
    """Coefficient of t^k in 1/((1-t^4)(1-t^6))."""
    return sum(1 for b in range(k // 6 + 1) if (k - 6 * b) % 4 == 0)


@functools.cache
def _brute(n: int, d: int, k: int) -> oracles.CharacterTable:
    return oracles.brute_character(n, d, k, max_monomials=BRUTE_LIMIT)


@functools.cache
def _brute_strip(n: int, d: int, k: int) -> dict:
    return oracles.strip_decompose(_brute(n, d, k))


def _affordable(n: int, d: int, k: int) -> bool:
    return oracles.symmetric_power_dimension(n, d, k) <= BRUTE_LIMIT


def confirm_nu(n: int, d: int, k: int, timed_by_series: bool = False) -> tuple[int, str]:
    """Invariant dimension and the name of the independent route used."""
    if n == 2:
        return oracles.binary_invariant_dimension(d, k), "binary"
    if (n, d) == (3, 3):
        return cubic_series(k), "cubic"
    if _affordable(n, d, k):
        return _brute_strip(n, d, k).get((0,) * (n - 1), 0), "brute-strip"
    dp = invariant_dimension(n, d, k)
    if timed_by_series:
        return dp, "dp"
    by_series = invariant_dimension_by_series(n, d, k)
    if by_series != dp:
        raise SystemExit(f"series route {by_series} != dp {dp} at nu {n} {d} {k}")
    return dp, "series=dp"


def confirm_gamma(n: int, d: int, k: int, highest) -> tuple[int, str]:
    if not _affordable(n, d, k):
        raise SystemExit(f"gamma {n} {d} {k} is beyond the brute-force budget")
    return _brute_strip(n, d, k).get(highest, 0), "brute-strip"


def confirm_count(n: int, d: int, k: int, weight) -> tuple[int, str]:
    if not _affordable(n, d, k):
        raise SystemExit(f"count {n} {d} {k} is beyond the brute-force budget")
    return _brute(n, d, k).multiplicities.get(weight, 0), "brute-strip"


def confirm_orbit(n: int) -> list:
    """Signed orbit terms of rho, enumerated here permutation by permutation.

    In ambient coordinates rho is (0, 1, ..., n-1) and s(rho) is a
    permutation of it; the weight of rho - s(rho) is the vector of
    consecutive differences, and sorting the ambient vector gives the
    dominant representative.  Returned as :func:`orbit_digest`.
    """
    acc: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j])
        amb = sorted(i - p for i, p in enumerate(perm))
        dom = tuple(amb[s + 1] - amb[s] for s in range(n - 1))
        acc[dom] = acc.get(dom, 0) + sign
    terms = sorted(((w, c) for w, c in acc.items() if c), key=lambda t: (max(t[0]), t[0]))
    return orbit_digest([[list(w), c] for w, c in terms])


def confirm(query: str) -> dict:
    kind, nums, weight = parse_query(query)
    if kind == "orbit":
        return {"values": confirm_orbit(nums[0]), "routes": ["orbit-enum"]}
    if kind in ("table", "check"):
        n, d, kmax = nums
        pairs = [confirm_nu(n, d, k) for k in range(kmax + 1)]
    elif kind in ("nu", "series"):
        pairs = [confirm_nu(*nums, timed_by_series=kind == "series")]
    elif kind == "gamma":
        pairs = [confirm_gamma(*nums, weight)]
    elif kind == "count":
        pairs = [confirm_count(*nums, weight)]
    else:
        raise SystemExit(f"unknown query kind in {query!r}")
    return {"values": [v for v, _ in pairs], "routes": sorted({r for _, r in pairs})}


def _lookup_keys(kind: str, n: int, d: int, k: int, weight) -> list:
    """Cache keys a nu/gamma/count query looks up: its feasible weights."""
    if kind == "count":
        weights = [weight]
    else:
        weights = [t.dominant for t in signed_orbit_terms(n, shift=weight)]
    return [(n, d, k, w) for w in weights if moment_targets(n, d, k, w) is not None]


def cached_pools() -> tuple[list[str], list[str]]:
    """Hit pool: grid queries whose every lookup is a stored record.

    The pre-built file stores the nonzero coefficients only, so a query
    that would look up a feasible weight of multiplicity 0 is left out.
    """
    stored = set()
    for n, d, kmax in CACHE_GRID:
        for (k, mom) in expand_generating_series(n, d, kmax).coefficients:
            stored.add((n, d, k, weight_from_moments(n, d, k, mom)))
    hits = []
    for n, d, kmax in CACHE_GRID:
        zero = (0,) * (n - 1)
        for k in range(1, kmax + 1):
            candidates = [f"nu {n} {d} {k}"]
            for w in [zero] + _HIT_WEIGHTS[n]:
                text = ",".join(map(str, w))
                candidates.append(f"count {n} {d} {k} --mu {text}")
                if w != zero:
                    candidates.append(f"gamma {n} {d} {k} --lambda {text}")
            for q in candidates:
                kind, nums, weight = parse_query(q)
                keys = _lookup_keys(kind, *nums, weight)
                if keys and all(key in stored for key in keys):
                    hits.append(q)
    grid = {(n, d): kmax for n, d, kmax in CACHE_GRID}
    seen = set()
    for q in CACHED_MISS:
        kind, (n, d, k), weight = parse_query(q)
        keys = _lookup_keys(kind, n, d, k, weight)
        if not keys or k <= grid.get((n, d), -1) or (n, d, k) in seen:
            raise SystemExit(f"miss query {q!r} must look up keys outside the grid")
        seen.add((n, d, k))
    return hits, list(CACHED_MISS)


def build() -> dict:
    hits, misses = cached_pools()
    pools = {
        "sweep": SWEEP,
        "single": SINGLE,
        "verify": VERIFY,
        "cached_hit": hits,
        "cached_miss": misses,
    }
    for name in ("cached_hit", "cached_miss"):
        missing = [q for q in SMOKE[name] if q not in pools[name]]
        if missing:
            raise SystemExit(f"smoke queries {missing} are not in pool {name}")
    queries = sorted({q for pool in list(pools.values()) + list(SMOKE.values()) for q in pool})
    answers = {}
    for q in queries:
        start = time.perf_counter()
        answers[q] = confirm(q)
        print(f"{time.perf_counter() - start:8.2f} s  {q}  {answers[q]['routes']}", file=sys.stderr)
    return {
        "generated_by": "python3 perfbench/confirm.py --write",
        "cache_grid": [list(g) for g in CACHE_GRID],
        "pools": pools,
        "smoke": SMOKE,
        "answers": answers,
    }


def dump(data: dict) -> str:
    """JSON with one line per pool and per answer, so diffs stay readable."""
    parts = []
    for key, value in sorted(data.items()):
        if isinstance(value, dict):
            inner = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(value.items())
            )
            parts.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite answers.json")
    args = parser.parse_args()
    data = build()
    text = dump(data)
    if args.write:
        ANSWERS.write_text(text, encoding="utf-8")
        print(f"wrote {len(data['answers'])} answers to {ANSWERS.name}")
        return 0
    stored = json.loads(ANSWERS.read_text(encoding="utf-8"))
    if stored != json.loads(text):
        print("answers.json differs from the re-derived answers", file=sys.stderr)
        return 1
    print(f"all {len(data['answers'])} answers confirmed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

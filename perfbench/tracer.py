"""Outside-in tracer: spans around the package's public functions.

The package binds names with ``from .x import y``, so a function is wrapped
wherever a caller looks it up: every ``naryinv`` module attribute that is
the function gets the wrapper, and methods are wrapped on their class.
Nothing inside ``src/naryinv`` is edited; the wrappers stay until the
process ends.  Spans live in memory with parent links and are written out
at the end; a layer's self time is its span's duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        #: [name, parent index or -1, query index, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query = -1
        self.missing: list[str] = []

    def _make(self, name: str, fn, after, before, span: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            if not span:
                result = fn(*args, **kwargs)
                if after:
                    after(tracer.counts, args, result, state)
                return result
            rec = [name, tracer.stack[-1] if tracer.stack else -1, tracer.query, 0.0, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                tracer.stack.pop()
            if after:
                after(tracer.counts, args, result, state)
            return result

        return wrapper

    def function(self, module: str, attr: str, name: str, after=None, span=True) -> None:
        """Wrap ``naryinv.<module>.<attr>`` at every module that binds it."""
        mod = sys.modules.get(f"naryinv.{module}")
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self._make(name, fn, after, None, span)
        for other in list(sys.modules.values()):
            if other is not None and other.__name__.split(".")[0] == "naryinv":
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)

    def method(self, cls, attr: str, name: str, after=None, before=None, span=True) -> None:
        fn = cls.__dict__.get(attr) if cls is not None else None
        if fn is None:
            self.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
            return
        setattr(cls, attr, self._make(name, fn, after, before, span))

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time (s) and number of spans."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, _, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            calls[name] += 1
        return totals, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, query, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "query": query, "start": start, "end": end}) + "\n")


def _index_count(n: int, d: int) -> int:
    return math.comb(n - 1 + d, n - 1)


def install() -> Tracer:
    """Wrap every layer boundary of the package; returns the live tracer."""
    from naryinv import counting, series

    t = Tracer()

    def dp_after(c, args, result, _):
        c["dp_index_steps"] += _index_count(args[0], args[1])
        c["dp_nonzero"] += result != 0

    def infeasible(c, args, result, _):
        c["infeasible"] += result is None

    def loaded(c, args, result, _):
        c["cache_records_loaded"] += len(args[0])

    def got(c, args, result, _):
        c["cache_hits" if result is not None else "cache_misses"] += 1

    def size_before(args):
        path = args[0].path
        return os.path.getsize(path) if os.path.exists(path) else 0

    def appended(c, args, result, before):
        c["cache_bytes_appended"] += os.path.getsize(args[0].path) - before

    def stored(c, args, result, _):
        c["terms_stored"] += len(result.coefficients)

    def read(c, args, result, _):
        c["coefficient_reads"] += 1

    def orbit(c, args, result, _):
        c["orbit_terms"] += len(result)

    def monomials(c, args, result, _):
        n, d, k = args[:3]
        c["brute_monomials"] += math.comb(_index_count(n, d) + k - 1, k)

    def stripped(c, args, result, _):
        c["modules_stripped"] += len(result)

    def indices(c, args, result, _):
        c["indices"] += len(result)

    for attr in ("invariant_dimension", "highest_weight_multiplicity",
                 "ternary_invariant_dimension", "hilbert_series_prefix"):
        t.function("dimensions", attr, "dimensions")
    t.function("counting", "weight_multiplicity", "counting.mult")
    t.function("counting", "count_solutions", "counting.dp", dp_after)
    t.function("counting", "moment_targets", "counting.targets", infeasible, span=False)
    cache_cls = getattr(counting, "CountCache", None)
    t.method(cache_cls, "__init__", "counting.cache_open", loaded)
    t.method(cache_cls, "get", "counting.cache_get", got)
    t.method(cache_cls, "put", "counting.cache_put", appended, before=size_before)
    t.function("series", "expand_generating_series", "series.expand", stored)
    t.function("series", "invariant_dimension_by_series", "series.extract")
    t.method(getattr(series, "TruncatedSeries", None), "coefficient",
             "series.coefficient", read, span=False)
    t.function("weights", "signed_orbit_terms", "weights.orbit", orbit)
    t.function("oracles", "brute_character", "oracles.brute", monomials)
    t.function("oracles", "strip_decompose", "oracles.strip", stripped)
    t.function("oracles", "binary_invariant_dimension", "oracles.binary")
    t.function("forms", "enumerate_indices", "forms.enumerate", indices)
    t.function("cli", "main", "cli")
    return t


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(t: Tracer, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    self_s, calls = t.self_times()
    c = t.counts
    cache_lookups = c["cache_hits"] + c["cache_misses"]
    return {
        "counting.dp_calls": calls["counting.dp"],
        "counting.dp_self_s": self_s["counting.dp"],
        "counting.dp_index_steps": c["dp_index_steps"],
        "counting.dp_nonzero_ratio": _ratio(c["dp_nonzero"], calls["counting.dp"]),
        "counting.mult_calls": calls["counting.mult"],
        "counting.infeasible": c["infeasible"],
        "counting.cache_opens": calls["counting.cache_open"],
        "counting.cache_load_s": self_s["counting.cache_open"],
        "counting.cache_records_loaded": c["cache_records_loaded"],
        "counting.cache_hits": c["cache_hits"],
        "counting.cache_misses": c["cache_misses"],
        "counting.cache_hit_ratio": _ratio(c["cache_hits"], cache_lookups),
        "counting.cache_get_s": self_s["counting.cache_get"],
        "counting.cache_put_s": self_s["counting.cache_put"],
        "counting.cache_bytes_appended": c["cache_bytes_appended"],
        "series.expand_calls": calls["series.expand"],
        "series.expand_self_s": self_s["series.expand"],
        "series.terms_stored": c["terms_stored"],
        "series.extract_calls": calls["series.extract"],
        "series.extract_self_s": self_s["series.extract"],
        "series.coefficient_reads": c["coefficient_reads"],
        "series.read_ratio": _ratio(c["coefficient_reads"], c["terms_stored"]),
        "weights.orbit_calls": calls["weights.orbit"],
        "weights.orbit_self_s": self_s["weights.orbit"],
        "weights.orbit_terms": c["orbit_terms"],
        "oracles.brute_calls": calls["oracles.brute"],
        "oracles.brute_self_s": self_s["oracles.brute"],
        "oracles.brute_monomials": c["brute_monomials"],
        "oracles.strip_calls": calls["oracles.strip"],
        "oracles.strip_self_s": self_s["oracles.strip"],
        "oracles.modules_stripped": c["modules_stripped"],
        "oracles.binary_self_s": self_s["oracles.binary"],
        "forms.enumerate_calls": calls["forms.enumerate"],
        "forms.enumerate_self_s": self_s["forms.enumerate"],
        "forms.indices": c["indices"],
        "dimensions.calls": calls["dimensions"],
        "dimensions.self_s": self_s["dimensions"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": output_bytes,
    }

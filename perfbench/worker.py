"""One benchmark process: set up a workload, then run its queries.

Started by ``run.py``, never by hand.  It imports ``naryinv`` from the
checkout's ``src``, makes the seeded query plan (and, for ``cached``, the
pre-built cache file), prints ``READY``, then sends each query through
``naryinv.cli.main(argv, out=StringIO)`` in a closed loop, checks every
answer against ``answers.json`` and prints one JSON line with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: cached workload: hits drawn per pass from the hit pool; every query of the
#: miss pool runs once per pass, so misses are 10 of 50 queries (20%)
HITS_PER_PASS = 40
#: traced runs: most query time between two speed probes (each ~15 ms)
PROBE_EVERY_S = 0.1


def load_package():
    sys.path.insert(0, str(SRC))
    import naryinv
    import naryinv.cli

    if not Path(naryinv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported naryinv from {naryinv.__file__}, not from {SRC}")
    return naryinv


def make_plan(data: dict, workload: str, seed: int, passes: int, smoke: bool) -> list[list[str]]:
    """Seeded passes over the workload's fixed pool.

    Every pass holds the same multiset of query kinds, so runs with
    different seeds measure the same work in another order.
    """
    pools = data["smoke"] if smoke else data["pools"]
    rng = random.Random(f"{workload}:{seed}")
    plan = []
    for _ in range(passes):
        if workload == "cached":
            hits = pools["cached_hit"]
            queries = rng.sample(hits, min(HITS_PER_PASS, len(hits))) + list(pools["cached_miss"])
        else:
            queries = list(pools[workload])
        rng.shuffle(queries)
        plan.append(queries)
    return plan


def build_prebuilt_cache(naryinv, grid, directory: str) -> int:
    """Store every nonzero multiplicity of the grid through ``CountCache``.

    The values come from the series expansion, one per (n, d); the records
    are written in a fixed order, so every run starts from the same bytes.
    """
    from naryinv.counting import CountCache
    from naryinv.forms import weight_from_moments

    cache = CountCache(directory)
    for n, d, kmax in grid:
        series = naryinv.expand_generating_series(n, d, kmax)
        for (k, mom), value in sorted(series.coefficients.items()):
            cache.put(n, d, k, weight_from_moments(n, d, k, mom), value)
    return len(cache)


def cache_clearers(naryinv) -> list:
    """``cache_clear`` of every memoised function defined in the package.

    Each CLI invocation is a fresh process whose tables start cold, so the
    tables are cleared before every query.
    """
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "naryinv":
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "").startswith("naryinv"):
                found[id(value)] = clear
    return list(found.values())


def orbit_digest(terms: list) -> list:
    """``[term count, sha256 of the terms as JSON]``: n = 8 has 4,782 terms."""
    text = json.dumps(terms, separators=(",", ":"))
    return [len(terms), hashlib.sha256(text.encode()).hexdigest()]


def parse_output(kind: str, text: str) -> list:
    lines = text.splitlines()
    if kind == "orbit":
        terms = []
        for line in lines:
            weight, coef = line.rsplit(" ", 1)
            terms.append([[int(x) for x in weight.strip("()").split(",")], int(coef)])
        return orbit_digest(terms)
    if kind == "table":
        rows = [line.split() for line in lines]
        if [int(k) for k, _ in rows] != list(range(len(rows))):
            raise ValueError("table rows are not k = 0, 1, ...")
        return [int(v) for _, v in rows]
    if kind == "check":
        values = []
        for line in lines:
            fields = line.split()
            if fields[-1] != "ok":
                raise ValueError(f"oracle disagreement: {line}")
            values.append(int(next(f for f in fields if f.startswith("theorem1="))[9:]))
        return values
    return [int(text.strip())]


def check_answer(query: str, code, text: str, expected: dict) -> str | None:
    """None when the query exited 0 and printed the expected values."""
    if code != 0:
        return f"exit {code}"
    try:
        got = parse_output(query.split()[0], text)
    except (ValueError, IndexError, StopIteration) as exc:
        return f"unreadable output ({exc}): {text[:200]!r}"
    if got != expected["values"]:
        return f"expected {expected['values']} got {got}"
    return None


def run_passes(naryinv, plan, answers, cache_dir, prebuilt, tracer):
    """Run the plan; latencies come raw and scaled to the reference speed.

    Untraced, a ``speed.Sampler`` probes every ``speed.TICK_S`` during the
    queries and each query is scaled by the probes taken during it, with
    their time taken out.  Traced, probes would land inside the spans, so
    a probe runs instead after every query that brings the time since the
    last probe to ``PROBE_EVERY_S`` and at the end of every pass, and each
    query is scaled by the two probes around it.
    """
    clearers = cache_clearers(naryinv)
    spans, counts, failures = [], [], []
    output_bytes = 0
    cache_flag = ["--cache"] if cache_dir else []
    sampler = None if tracer else speed.Sampler()
    bracketed, before, since = [], speed.probe(), 0.0
    if sampler:
        sampler.start()
    try:
        for queries in plan:
            if cache_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)
                shutil.copytree(prebuilt, cache_dir)
            for i, query in enumerate(queries):
                for clear in clearers:
                    clear()
                if tracer:
                    tracer.query += 1
                buf = io.StringIO()
                start = time.perf_counter()
                try:
                    code = naryinv.cli.main(query.split() + cache_flag, out=buf)
                except Exception:  # a crash is a failed query, not a failed run
                    code = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
                spans.append((start, time.perf_counter()))
                text = buf.getvalue()
                output_bytes += len(text.encode())
                expected = answers[query]
                counts.append(len(expected["values"]) if query.split()[0] in ("table", "check") else 1)
                problem = check_answer(query, code, text, expected)
                if problem:
                    failures.append({"query": query, "problem": problem})
                if sampler:
                    continue
                since += spans[-1][1] - start
                if since >= PROBE_EVERY_S or i == len(queries) - 1:
                    after = speed.probe()
                    bracketed += [speed.scale(e - s, before, after)
                                  for s, e in spans[len(bracketed):]]
                    before, since = after, 0.0
    finally:
        if sampler:
            sampler.stop()
    raw = [e - s for s, e in spans]
    scaled = [sampler.scaled(s, e) for s, e in spans] if sampler else bracketed
    return raw, scaled, counts, failures, output_bytes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    naryinv = load_package()
    data = json.loads((HERE / "answers.json").read_text(encoding="utf-8"))
    plan = make_plan(data, args.workload, args.seed, args.passes, args.smoke)
    answers = data["answers"]
    missing = sorted({q for p in plan for q in p if q not in answers})
    if missing:
        raise SystemExit(f"no expected answer for {missing}")
    cache_dir = prebuilt = None
    records = 0
    if args.workload == "cached":
        cache_dir = os.environ["NARY_CACHE_DIR"]
        prebuilt = os.path.join(args.workdir, "prebuilt")
        records = build_prebuilt_cache(naryinv, data["cache_grid"], prebuilt)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.install() if args.trace else None
    raw, scaled, counts, failures, output_bytes = run_passes(
        naryinv, plan, answers, cache_dir, prebuilt, tracer
    )
    result = {
        "raw_latencies_s": raw,
        "latencies_s": scaled,
        "answers": counts,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_records": records,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, output_bytes)
        result["trace_missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

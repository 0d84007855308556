"""Benchmark of naryinv CLI queries, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --smoke                 # reduced run, a few seconds

Each run starts fresh Python processes (``worker.py``) from the checkout's
``src``: one client sends queries through ``naryinv.cli.main`` in a closed
loop, one at a time.  ``--trace 0`` reports the end-to-end metrics; set-up
is repeated in several processes and its median reported.  ``--trace 1``
runs one pass untraced and the same pass twice traced, reports the
per-layer metrics of the first traced pass, and flags any count that
differs between the two traced passes.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Reported times are scaled to one reference speed of the machine, which
``speed.py`` probes while the queries run; ``# unscaled:`` shows the raw ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

DEFAULT_SEED = 1
#: kept out of tuning; a gain claimed on DEFAULT_SEED must also hold here
HOLDOUT_SEED = 9973

#: seconds one pass takes at the probe's reference speed (see speed.py),
#: probes included.  A run makes round(seconds / nominal) passes, so its
#: query count, and with it the tail percentile, is fixed for a given
#: --seconds; on a host slower than the reference it lasts longer.
NOMINAL_PASS_S = {"sweep": 1.7, "single": 3.7, "verify": 1.85, "cached": 0.9}
#: at least 21 queries, so the tail has ten queries beyond it
MIN_PASSES = {"sweep": 2, "single": 2, "verify": 2, "cached": 1}
SETUP_SAMPLES = 9
#: every process must be done by then, well inside the 180 s limit
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "answers_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool, deadline: float | None):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        WORK.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
        self.children = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def child(self, passes=1, trace=0, setup_only=False, spans=None) -> tuple[float, dict | None]:
        """Run one worker; returns (seconds until READY, its result)."""
        self.children += 1
        workdir = os.path.join(self.workdir, f"p{self.children}")
        os.mkdir(workdir)
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("NARY_CACHE_DIR", None)
        if self.workload == "cached":
            env["NARY_CACHE_DIR"] = os.path.join(workdir, "cache")
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--passes", str(passes), "--trace", str(trace),
                "--workdir", workdir]
        if setup_only:
            argv.append("--setup-only")
        if self.smoke:
            argv.append("--smoke")
        if spans:
            argv += ["--spans", spans]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=workdir)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            timeout = None if self.deadline is None else max(1.0, self.deadline - time.monotonic())
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} worker passed the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"{self.workload} worker exited {proc.returncode} "
                             f"before finishing (see its stderr above)")
        return setup_s, None if setup_only else json.loads(out.strip().splitlines()[-1])

    def passes(self, seconds: int) -> int:
        if self.smoke:
            return 1
        return max(MIN_PASSES[self.workload], round(seconds / NOMINAL_PASS_S[self.workload]))


def report_failures(workload: str, failures: list[dict]) -> None:
    for f in failures:
        print(f"FAILED {workload}: {f['query']}: {f['problem']}")


def end_to_end(runner: Runner, seconds: int) -> dict:
    """Untraced run: set-up samples, then the timed passes."""
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.probe()
        raw_setups.append(runner.child(setup_only=True)[0])
        setups.append(speed.scale(raw_setups[-1], before, speed.probe()))
    passes = runner.passes(seconds)
    _, result = runner.child(passes=passes)
    lat = sorted(result["latencies_s"])
    raw = sorted(result["raw_latencies_s"])
    n = len(lat)
    # the highest percentile with at least ten queries beyond it
    tail_index = n - 11 if n >= 11 else n - 1
    tail_pct = 100.0 * (tail_index + 1) / n
    failures = result["failures"]
    report_failures(runner.workload, failures)
    print(f"# {runner.workload} seed={runner.seed} passes={passes} queries={n} "
          f"answers={sum(result['answers'])} tail=p{tail_pct:.1f} of {n} queries"
          + (f" cache_records={result['cache_records']}" if result["cache_records"] else ""))
    print(f"# error_rate {len(failures) / n:.4f} ratio ({len(failures)} failed of {n})")
    print(f"# unscaled: answers_per_s {sum(result['answers']) / sum(raw):.6g} 1/s, "
          f"query_p50_ms {statistics.median(raw) * 1000.0:.6g} ms, "
          f"query_tail_ms {raw[tail_index] * 1000.0:.6g} ms, "
          f"setup_s {statistics.median(raw_setups):.6g} s; "
          f"machine speed {sum(raw) / sum(lat):.3f}x the reference")
    metrics = {
        # a ratio of sums, not a median of passes: every query counts by its time
        "answers_per_s": sum(result["answers"]) / sum(lat),
        "query_p50_ms": statistics.median(lat) * 1000.0,
        "query_tail_ms": lat[tail_index] * 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def per_layer(runner: Runner) -> dict:
    """One untraced and two traced passes of the same seeded queries."""
    spans = str(WORK / f"spans-{runner.workload}-seed{runner.seed}.jsonl")
    _, plain = runner.child()
    _, first = runner.child(trace=1, spans=spans)
    _, second = runner.child(trace=1)
    layers = dict(first["layers"])
    # paired per query, so one slow moment of the machine does not decide it
    layers["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(first["latencies_s"], plain["latencies_s"]))
    differing = [k for k, v in first["layers"].items()
                 if layer_unit(k) != "s" and second["layers"][k] != v]
    for k in differing:
        print(f"NONDETERMINISTIC {runner.workload}: {k} = {first['layers'][k]} "
              f"then {second['layers'][k]} for the same seed")
    failures = plain["failures"] + first["failures"] + second["failures"]
    report_failures(runner.workload, failures)
    for target in first["trace_missing"]:
        print(f"# trace: {target} not found, its metrics read 0")
    attempted = sum(len(r["latencies_s"]) for r in (plain, first, second))
    print(f"# {runner.workload} seed={runner.seed} traced queries={len(first['latencies_s'])} "
          f"spans written to {os.path.relpath(spans)}")
    print(f"# error_rate {len(failures) / attempted:.4f} ratio ({len(failures)} failed of {attempted})")
    return {
        "correct": not failures and not differing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()},
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 smoke: bool, deadline: float | None) -> dict:
    runner = Runner(workload, seed, smoke, deadline)
    try:
        result = per_layer(runner) if trace else end_to_end(runner, seconds)
    finally:
        runner.close()
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    return result


def smoke_check(results: dict[tuple[str, int], dict]) -> list[str]:
    """Every metric named in BENCHMARK.json is printed with its unit."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    problems = []
    for (workload, trace), result in results.items():
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        got = result["metrics"]
        for m in wanted:
            if got.get(m["name"], {}).get("unit") != m["unit"]:
                problems.append(f"{workload}: {m['name']} missing or not in {m['unit']}")
        extra = set(got) - {m["name"] for m in wanted}
        if extra:
            problems.append(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")
        if result["failed"] or not result["correct"]:
            problems.append(f"{workload} trace={trace}: failed queries or differing counts")
    return problems


def main() -> int:
    # turn SIGTERM into SystemExit, so the worker of the moment is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    speed.pin_to_one_cpu()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *NOMINAL_PASS_S])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced pools, untraced and traced, every workload")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    workloads = list(NOMINAL_PASS_S) if args.workload == "all" or args.smoke else [args.workload]
    traces = [0, 1] if args.smoke else [args.trace]
    if len(workloads) * len(traces) > 1:
        deadline = None
    results = {}
    try:
        for workload in workloads:
            for trace in traces:
                results[workload, trace] = run_workload(
                    workload, args.seed, args.seconds, trace, args.smoke, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.smoke:
        problems = smoke_check(results)
        for p in problems:
            print(f"SMOKE {p}")
        print(f"smoke {'FAILED' if problems else 'ok'}: {len(results)} runs")
        return 1 if problems else 0
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for (w, _), r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

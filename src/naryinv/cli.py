"""Command-line interface.

Subcommands::

    nu <n> <d> <k>                    invariant dimension (signed orbit sum)
    gamma <n> <d> <k> --lambda W      highest-weight multiplicity
    count <n> <d> <k> --mu W          weight multiplicity
    orbit <n> [--lambda W]            signed Weyl-orbit terms
    table <n> <d> --kmax K            invariant dimensions for k = 0..K
    series <n> <d> <k> [--dump FILE]  invariant dimension via the series
    check <n> <d> [--kmax K]          cross-check against all oracles

Weights are comma-separated integers of length n - 1, e.g. ``--lambda 1,1``.
Common flags: ``--format plain|json|csv`` (default plain) and
``--limit-states N`` (cap on the terms a series expansion stores, at least
1).  ``nu``, ``gamma`` and ``count`` also take ``--cache``: memoise weight
multiplicities in ``$NARY_CACHE_DIR`` (a warning when it is unset, or when
the file holds unreadable records, which are skipped).  ``check`` prints the
rows ``theorem1``, ``stripping`` and, at n = 2, ``classical-binary``.
Results are always printed as decimal strings; they can exceed 64 bits.
Diagnostics go to stderr, results to stdout.

Exit codes: 0 success, 2 invalid arguments, 3 resource limit exceeded,
4 oracle disagreement (from ``check``), 5 internal error (a result broke
an invariant that holds for every valid input: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .counting import CountCache, cache_from_env, weight_multiplicity
from .dimensions import (
    highest_weight_multiplicity,
    hilbert_series_prefix,
    invariant_dimension,
)
from .errors import InternalError, ResourceLimitError, check_params
from .oracles import binary_invariant_dimension, brute_character, strip_decompose
from .series import MAX_TERMS, dump_series, expand_generating_series
from .weights import signed_orbit_terms

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DISAGREEMENT = 4
EXIT_INTERNAL = 5

CSV_HEADER = ["n", "d", "k", "mu_or_lambda", "result", "method"]


def parse_weight(text: str, n: int, option: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n - 1:
        raise ValueError(
            f"{option} must have n - 1 = {n - 1} comma-separated integers, "
            f"got {len(parts)}"
        )
    values = []
    for pos, raw in enumerate(parts, start=1):
        raw = raw.strip()
        try:
            values.append(int(raw))
        except ValueError:
            raise ValueError(
                f"{option} position {pos}: {raw!r} is not an integer"
            ) from None
    return tuple(values)


def _weight_str(weight) -> str:
    return ",".join(str(x) for x in weight)


def _emit_records(records: list[dict], fmt: str, out) -> None:
    """Render query/result records.

    plain: one result per line (``k`` prefixed for multi-row commands);
    json: one object per line with the full record; csv: fixed header
    ``n,d,k,mu_or_lambda,result,method``.
    """
    if fmt == "json":
        for rec in records:
            obj = {
                "n": rec["n"],
                "d": rec["d"],
                "k": rec["k"],
                "mu_or_lambda": list(rec["weight"]) if rec["weight"] is not None else None,
                "result": str(rec["result"]),
                "method": rec["method"],
                "elapsed_ms": rec["elapsed_ms"],
            }
            out.write(json.dumps(obj) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(
                [
                    rec["n"],
                    rec["d"],
                    rec["k"],
                    _weight_str(rec["weight"]) if rec["weight"] is not None else "",
                    str(rec["result"]),
                    rec["method"],
                ]
            )
    else:
        if len(records) == 1:
            out.write(f"{records[0]['result']}\n")
        else:
            for rec in records:
                out.write(f"{rec['k']} {rec['result']}\n")


def _record(n, d, k, weight, result, method, elapsed_ms) -> dict:
    return {
        "n": n,
        "d": d,
        "k": k,
        "weight": weight,
        "result": result,
        "method": method,
        "elapsed_ms": round(elapsed_ms, 3),
    }


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - start) * 1000.0


def _open_cache(enabled: bool) -> CountCache | None:
    if not enabled:
        return None
    cache = cache_from_env()
    if cache is None:
        print(
            "warning: --cache requested but NARY_CACHE_DIR is unset; "
            "caching disabled",
            file=sys.stderr,
        )
    elif cache.skipped:
        print(
            f"warning: skipped {cache.skipped} unreadable records in {cache.path}",
            file=sys.stderr,
        )
    return cache


def cmd_point(args, out) -> int:
    """``nu``, ``gamma`` and ``count``: one value at one ``(n, d, k)``."""
    query = (args.n, args.d, args.k)
    weight = None
    if args.command == "gamma":
        weight = parse_weight(args.highest, args.n, "--lambda")
    elif args.command == "count":
        weight = parse_weight(args.mu, args.n, "--mu")
    options = {"max_terms": args.limit_states, "cache": _open_cache(args.cache)}

    def run():
        if args.command == "nu":
            return invariant_dimension(*query, **options)
        if args.command == "gamma":
            return highest_weight_multiplicity(*query, weight, **options)
        return weight_multiplicity(*query, weight, **options)

    value, ms = _timed(run)
    method = {"nu": "theorem1", "gamma": "theorem2", "count": "counting"}[args.command]
    _emit_records([_record(*query, weight, value, method, ms)], args.format, out)
    return EXIT_OK


def cmd_orbit(args, out) -> int:
    shift = None
    if args.highest is not None:
        shift = parse_weight(args.highest, args.n, "--lambda")
    terms = signed_orbit_terms(args.n, shift=shift)
    if args.format == "json":
        obj = {
            "n": args.n,
            "shift": list(shift) if shift is not None else None,
            "terms": [
                {"weight": list(t.dominant), "coefficient": t.coefficient}
                for t in terms
            ],
        }
        out.write(json.dumps(obj) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["weight", "coefficient"])
        for t in terms:
            writer.writerow([_weight_str(t.dominant), t.coefficient])
    else:
        for t in terms:
            out.write(f"({_weight_str(t.dominant)}) {t.coefficient:+d}\n")
    return EXIT_OK


def _prefix(args) -> tuple[list[int], float]:
    """Invariant dimensions for k = 0..kmax and the mean time per degree."""
    values, ms = _timed(
        lambda: hilbert_series_prefix(args.n, args.d, args.kmax, args.limit_states)
    )
    return values, ms / len(values)


def cmd_table(args, out) -> int:
    values, ms = _prefix(args)
    records = [
        _record(args.n, args.d, k, None, v, "theorem1", ms)
        for k, v in enumerate(values)
    ]
    _emit_records(records, args.format, out)
    return EXIT_OK


def cmd_series(args, out) -> int:
    def run():
        series = expand_generating_series(
            args.n, args.d, args.k, max_terms=args.limit_states
        )
        value = invariant_dimension(
            args.n, args.d, args.k, args.limit_states, series=series
        )
        return series, value

    (series, value), ms = _timed(run)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            written = dump_series(series, fh)
        print(f"wrote {written} coefficients to {args.dump}", file=sys.stderr)
    _emit_records(
        [_record(args.n, args.d, args.k, None, value, "series", ms)],
        args.format,
        out,
    )
    return EXIT_OK


def cmd_check(args, out) -> int:
    """Compare the signed-orbit dimension against every applicable oracle."""
    n, d = args.n, args.d
    records = []
    disagreements = []
    values, ms = _prefix(args)
    for k, main in enumerate(values):
        stripped = strip_decompose(brute_character(n, d, k))
        others = {"stripping": stripped.get((0,) * (n - 1), 0)}
        if n == 2:
            others["classical-binary"] = binary_invariant_dimension(d, k)
        records.append(_record(n, d, k, None, main, "theorem1", ms))
        for method, value in others.items():
            records.append(_record(n, d, k, None, value, method, 0.0))
            if value != main:
                disagreements.append((k, method, main, value))
        if args.format == "plain":
            detail = " ".join(f"{m}={v}" for m, v in others.items())
            status = "ok" if all(v == main for v in others.values()) else "MISMATCH"
            out.write(f"k={k} theorem1={main} {detail} {status}\n")
    if args.format != "plain":
        _emit_records(records, args.format, out)
    if disagreements:
        for k, method, main, value in disagreements:
            print(
                f"disagreement at k={k}: theorem1={main} but {method}={value}",
                file=sys.stderr,
            )
        return EXIT_DISAGREEMENT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naryinv",
        description="Exact dimension counts for invariants of n-ary forms.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["plain", "json", "csv"], default="plain",
        help="output format (default plain)",
    )
    common.add_argument(
        "--limit-states", type=int, default=MAX_TERMS, metavar="N",
        help="cap on the terms a series expansion stores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, k=True, d=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("n", type=int)
        if d:
            p.add_argument("d", type=int)
        if k:
            p.add_argument("k", type=int)
        if name in ("nu", "gamma", "count"):
            p.add_argument(
                "--cache", action="store_true",
                help="memoise weight multiplicities under $NARY_CACHE_DIR",
            )
        return p

    add("nu", "invariant dimension")
    p = add("gamma", "highest-weight multiplicity")
    p.add_argument("--lambda", dest="highest", required=True, metavar="W",
                   help="dominant weight, comma-separated, length n-1")
    p = add("count", "multiplicity of a weight in the degree-k piece")
    p.add_argument("--mu", required=True, metavar="W",
                   help="weight, comma-separated, length n-1")
    p = add("orbit", "signed Weyl-orbit terms", k=False, d=False)
    p.add_argument("--lambda", dest="highest", default=None, metavar="W",
                   help="optional dominant shift, comma-separated, length n-1")
    p = add("table", "invariant dimensions for k = 0..K", k=False)
    p.add_argument("--kmax", type=int, required=True, metavar="K")
    p = add("series", "invariant dimension via the generating series")
    p.add_argument("--dump", metavar="FILE",
                   help="write the truncated series as JSON lines")
    p = add("check", "cross-check against all applicable oracles", k=False)
    p.add_argument("--kmax", type=int, default=6, metavar="K")
    return parser


HANDLERS = {
    "nu": cmd_point,
    "gamma": cmd_point,
    "count": cmd_point,
    "orbit": cmd_orbit,
    "table": cmd_table,
    "series": cmd_series,
    "check": cmd_check,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        check_params(args.n, max_terms=args.limit_states)
        return HANDLERS[args.command](args, out)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

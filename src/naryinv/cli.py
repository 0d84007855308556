"""Command-line interface.

Subcommands::

    nu <n> <d> <k>                invariant dimension (signed orbit sum)
    gamma <n> <d> <k> --lambda W  highest-weight multiplicity
    count <n> <d> <k> --mu W      weight multiplicity
    orbit <n> [--lambda W]        signed Weyl-orbit terms
    table <n> <d> --kmax K        invariant dimensions for k = 0..K
    series <n> <d> <k>            invariant dimension, tagged ``series``
    check <n> <d> [--kmax K]      cross-check against all oracles

Weights are comma-separated integers of length n - 1, e.g. ``--lambda 1,1``;
another length exits 2 (``--mu must have length n - 1 = 2, got 3``).
A weight whose first entry is negative must be attached with ``=``, as in
``--mu=-1,2``; otherwise argparse reads ``-1,2`` as an option.  The
``--lambda`` of ``gamma`` and ``orbit`` must be dominant (no negative entry).
Every subcommand takes ``--format plain|json|csv`` (default plain).  The
six that expand (all but ``orbit``) take ``--limit-states N``: a cap on the
states a query holds (the cells a series expansion spans, up to the moments
it reads; the cells of ``check``'s character tables, below their caps), at
least 1, checked before anything is allocated.  No command expands uncapped: ``series`` is the
same capped read as ``nu`` under its own method tag, and every coefficient
of the series is the library's ``expand_generating_series(n, d,
k).nonzero()``.  ``nu``, ``gamma`` and ``count`` also take ``--cache``:
memoise weight multiplicities in ``$NARY_CACHE_DIR`` (a warning when it is
unset, or when the file holds unreadable records, which are skipped).
This module is the package's one reader of the environment: it opens the
cache and hands it to the query.  ``check`` prints the rows ``theorem1``,
``stripping`` (each degree's character from one expansion of the product
``prod_i 1/(1 - t x^wt(i))`` over the coefficient indices, stripped into
irreducibles) and, at n = 2, ``classical-binary``.  Each method's column,
k = 0..K, comes from one call, and each of its rows carries the column's
mean time per degree; the rows are written once every column is done, and
character tables of more cells than the cap are refused before any
column is computed.
Results are always printed as decimal strings; they can exceed 64 bits.
Diagnostics go to stderr, results to stdout.

A plain query is read straight off the table of commands, and builds no
``ArgumentParser``: the command comes first, every positional is an ASCII
decimal literal, and each flag comes at most once, as ``--flag value`` or
``--flag=value`` (``--cache`` bare), its value not starting with ``-``
unless attached with ``=``; options may come before, between or after the
positionals.  Every other form, such as ``-h``, ``--``, an abbreviated or
repeated flag or a numeral like ``+5``, goes through argparse, which reads
it with the same result or prints its usage error.

Exit codes: 0 success, 2 invalid arguments or an OS error on a path
(``$NARY_CACHE_DIR`` in opening, its cache file in appending; the message
names the flag) or a cache file whose count turns a sum negative (the
message names the file), 3 resource limit exceeded or a ``MemoryError`` (one
``error:`` line), 4 oracle disagreement (from ``check``), 5 internal error
(a result broke an invariant that holds for every valid input: a bug, not
bad input), 141 a reader closed stdout early (128 + SIGPIPE; nothing more
is printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .counting import CountCache, weight_multiplicity
from .dimensions import (
    highest_weight_multiplicity,
    hilbert_series_prefix,
    invariant_dimension,
)
from .errors import (
    MAX_TERMS,
    InternalError,
    ResourceLimitError,
    check_dominant,
    check_params,
    check_weight,
)
from .oracles import (
    binary_invariant_dimension,
    character_tables,
    kostka_memo,
    strip_decompose,
)
from .weights import signed_orbit_terms

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DISAGREEMENT = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

CSV_HEADER = ["n", "d", "k", "mu_or_lambda", "result", "method"]


def parse_weight(text: str, n: int, option: str) -> tuple[int, ...]:
    values = []
    for pos, raw in enumerate(text.split(","), start=1):
        raw = raw.strip()
        try:
            values.append(int(raw))
        except ValueError:
            raise ValueError(
                f"{option} position {pos}: {raw!r} is not an integer"
            ) from None
    return check_weight(n, values, option)


def _weight_str(weight) -> str:
    return ",".join(str(x) for x in weight)


def _emit_records(records: list[tuple], fmt: str, out, plain: list[str] | None = None) -> None:
    """Render ``(n, d, k, weight, result, method, elapsed_ms)`` records.

    plain: the lines of ``plain`` when given (the rows of ``table`` and
    ``check``), else each bare result; json: one object per line with the
    full record; csv: fixed header ``n,d,k,mu_or_lambda,result,method``.
    """
    if fmt == "plain":
        out.writelines(plain if plain is not None else [f"{record[4]}\n" for record in records])
        return
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER)
    for n, d, k, weight, result, method, ms in records:
        if fmt == "json":
            shown = None if weight is None else list(weight)
            obj = dict(zip(CSV_HEADER, [n, d, k, shown, str(result), method]))
            out.write(json.dumps({**obj, "elapsed_ms": round(ms, 3)}) + "\n")
        else:
            shown = "" if weight is None else _weight_str(weight)
            writer.writerow([n, d, k, shown, result, method])


def _open_cache(enabled: bool) -> CountCache | None:
    """The cache rooted at ``$NARY_CACHE_DIR`` when ``--cache`` is given and it is set."""
    if not enabled:
        return None
    directory = os.environ.get("NARY_CACHE_DIR")
    if not directory:
        print(
            "warning: --cache requested but NARY_CACHE_DIR is unset; "
            "caching disabled",
            file=sys.stderr,
        )
        return None
    try:
        cache = CountCache(directory)
    except OSError as exc:
        where = f"--cache: NARY_CACHE_DIR={directory!r} is not a usable directory"
        raise OSError(f"{where} ({exc.strerror or exc})") from exc
    if cache.skipped:
        print(
            f"warning: skipped {cache.skipped} unreadable records in {cache.path}",
            file=sys.stderr,
        )
    return cache


def cmd_point(args, out) -> int:
    """``nu``, ``gamma``, ``count`` and ``series``: one value at one
    ``(n, d, k)``, from the query function, method tag and weight flag that
    the subcommand's parser sets."""
    query = (args.n, args.d, args.k)
    weight = parse_weight(args.weight, args.n, args.flag) if args.flag else None
    inputs = query if weight is None else (*query, weight)
    cache = _open_cache(args.cache)
    start = time.perf_counter()
    try:
        value = args.query(*inputs, max_terms=args.limit_states, cache=cache)
    except OSError as exc:
        # a query's only OS calls are the cache's appends
        if cache is None:
            raise
        raise OSError(f"--cache: {cache.path!r} cannot be written ({exc.strerror or exc})") from exc
    ms = (time.perf_counter() - start) * 1000.0
    _emit_records([(*query, weight, value, args.method, ms)], args.format, out)
    return EXIT_OK


def cmd_orbit(args, out) -> int:
    """The signed orbit terms.

    plain: one line ``(w1,...,w_{n-1}) +c`` per term, through one template
    for the rank; json: one ``json.dumps`` of the record ``{"n", "shift",
    "terms": [{"weight", "coefficient"}]}``; csv: ``csv.writer`` rows under
    the header ``weight,coefficient``.
    """
    n, shift = args.n, None
    if args.highest is not None:
        shift = check_dominant(n, parse_weight(args.highest, n, "--lambda"))
    terms = signed_orbit_terms(n, shift=shift)
    if args.format == "json":
        shown = None if shift is None else list(shift)
        rows = [{"weight": list(weight), "coefficient": coef} for weight, coef in terms]
        out.write(json.dumps({"n": n, "shift": shown, "terms": rows}) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["weight", "coefficient"])
        writer.writerows([_weight_str(weight), coef] for weight, coef in terms)
    else:
        line = f"({','.join(['%d'] * (n - 1))}) %+d\n"
        out.write("".join([line % (*weight, coef) for weight, coef in terms]))
    return EXIT_OK


def _column(compute, *inputs) -> tuple[list[int], float]:
    """``compute(*inputs)``, one method's values for k = 0..kmax, and its
    mean time per degree in ms."""
    start = time.perf_counter()
    values = compute(*inputs)
    return values, (time.perf_counter() - start) * 1000.0 / len(values)


def cmd_table(args, out) -> int:
    values, ms = _column(hilbert_series_prefix, args.n, args.d, args.kmax, args.limit_states)
    records = [(args.n, args.d, k, None, v, "theorem1", ms) for k, v in enumerate(values)]
    _emit_records(records, args.format, out, [f"{k} {v}\n" for k, v in enumerate(values)])
    return EXIT_OK


def cmd_check(args, out) -> int:
    """Compare the signed-orbit dimension against every applicable oracle.

    Each method's column, its values for k = 0..kmax, comes from one timed
    call, and each of its rows carries the column's mean time per degree.
    Rows are written once every column is done.  One list of disagreement
    lines gives each row's status, the stderr lines and the exit code 4.
    """
    n, d, kmax = args.n, args.d, args.kmax
    zero = (0,) * (n - 1)
    # over-large character tables are refused here, before any column; the
    # iterator is lazy, so the product pass is timed with the stripping
    characters = character_tables(n, d, kmax, args.limit_states)
    # every degree strips through one memo of Kostka tables, which this call owns
    memo = kostka_memo()
    columns = {
        "theorem1": _column(hilbert_series_prefix, n, d, kmax, args.limit_states),
        "stripping": _column(list, (strip_decompose(t, memo).get(zero, 0) for t in characters)),
    }
    if n == 2:
        columns["classical-binary"] = _column(
            list, (binary_invariant_dimension(d, k) for k in range(kmax + 1))
        )
    records, rows, disagreements = [], [], []
    for k, main in enumerate(columns["theorem1"][0]):
        records += [(n, d, k, None, values[k], method, ms) for method, (values, ms) in columns.items()]
        others = {method: values[k] for method, (values, _) in columns.items() if method != "theorem1"}
        lines = [
            f"disagreement at k={k}: theorem1={main} but {m}={v}\n"
            for m, v in others.items()
            if v != main
        ]
        detail = " ".join(f"{m}={v}" for m, v in others.items())
        rows.append(f"k={k} theorem1={main} {detail} {'MISMATCH' if lines else 'ok'}\n")
        disagreements += lines
    _emit_records(records, args.format, out, rows)
    sys.stderr.write("".join(disagreements))
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _commands() -> dict:
    """The one table of subcommands, in the order the help lists them:
    name -> (help, handler, positionals, options, defaults).

    The positionals are the names of the command's int arguments; each
    option is a flag and its ``add_argument`` keywords.  Both
    :func:`build_parser` and :func:`_read_query` read them from here.  The
    point queries carry their query function, method tag and weight flag
    in the defaults.  Built per call, so each handler and query function is
    the one this module binds when the query is read (a wrapper or a patch
    put there takes effect).
    """
    fmt = ("--format", dict(
        choices=["plain", "json", "csv"], default="plain", help="output format (default plain)"))
    cache = ("--cache", dict(
        action="store_true", help="memoise weight multiplicities under $NARY_CACHE_DIR"))
    # first among a command's own options, so that it lists right after --format
    limit = ("--limit-states", dict(
        type=int, default=MAX_TERMS, metavar="N",
        help="cap on the states a query holds: series cells, character-table cells"))

    def weight(flag, help_text):
        return flag, dict(dest="weight", required=True, metavar="W", help=help_text)

    return {
        "nu": (
            "invariant dimension", cmd_point, "n d k", [fmt, limit, cache],
            dict(query=invariant_dimension, method="theorem1", flag=None),
        ),
        "gamma": (
            "highest-weight multiplicity", cmd_point, "n d k",
            [fmt, limit, cache, weight("--lambda", "dominant weight, comma-separated, length n-1")],
            dict(query=highest_weight_multiplicity, method="theorem2", flag="--lambda"),
        ),
        "count": (
            "multiplicity of a weight in the degree-k piece", cmd_point, "n d k",
            [fmt, limit, cache, weight("--mu", "weight, comma-separated, length n-1")],
            dict(query=weight_multiplicity, method="counting", flag="--mu"),
        ),
        "orbit": (
            "signed Weyl-orbit terms", cmd_orbit, "n",
            [fmt, ("--lambda", dict(
                dest="highest", default=None, metavar="W",
                help="optional dominant shift, comma-separated, length n-1"))],
            {},
        ),
        "table": (
            "invariant dimensions for k = 0..K", cmd_table, "n d",
            [fmt, limit, ("--kmax", dict(type=int, required=True, metavar="K"))], {},
        ),
        "series": (
            "invariant dimension via the generating series", cmd_point, "n d k",
            [fmt, limit],
            dict(query=invariant_dimension, method="series", flag=None, cache=False),
        ),
        "check": (
            "cross-check against all applicable oracles", cmd_check, "n d",
            [fmt, limit, ("--kmax", dict(type=int, default=6, metavar="K"))], {},
        ),
    }


def _decimal(text: str) -> int | None:
    """``text`` as an int if it is an ASCII decimal literal, else None.

    Narrower than argparse's ``type=int``, which also takes ``" 5"``,
    ``"+5"``, ``"1_0"`` and non-ASCII digits; those are left to the full
    parser.
    """
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return None


def _dest(flag: str, kwargs: dict) -> str:
    """The attribute argparse stores a flag under."""
    return kwargs.get("dest", flag[2:].replace("-", "_"))


def _read_query(argv: list[str], commands: dict) -> argparse.Namespace | None:
    """The arguments of a plain query, read off its ``commands`` entry, or
    None if ``argv`` is not one.

    A plain query names its command first.  Every positional is an ASCII
    decimal literal.  Each declared flag comes at most once, as ``--flag
    value`` or ``--flag=value``, and a ``store_true`` flag bare; an ``int``
    flag's value is ASCII decimal, a flag with choices takes one of them,
    and every required flag is there.  A token that starts with ``-`` where
    a value or a positional is due is not plain.  Every plain query is one
    that :func:`build_parser` accepts, and the Namespace is the one it
    gives, less ``command``: action defaults, then the command's defaults,
    then what was read.
    """
    if not argv or argv[0] not in commands:
        return None
    _help, handler, positionals, options, defaults = commands[argv[0]]
    declared = dict(options)
    numerals, read = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            numerals.append(token)
            continue
        flag, attached, value = token.partition("=")
        kwargs = declared.get(flag)
        if kwargs is None or _dest(flag, kwargs) in read:
            return None
        if kwargs.get("action") == "store_true":
            if attached:
                return None
            value = True
        else:
            if not attached:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
            if kwargs.get("type") is int:
                value = _decimal(value)
                if value is None:
                    return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        read[_dest(flag, kwargs)] = value
    names = positionals.split()
    values = [_decimal(token) for token in numerals]
    if len(values) != len(names) or None in values:
        return None
    if any(kwargs.get("required") and _dest(flag, kwargs) not in read for flag, kwargs in options):
        return None
    fields = {
        _dest(flag, kwargs): kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        for flag, kwargs in options
    }
    fields.update(defaults, handler=handler, **read)
    fields.update(zip(names, values))
    return argparse.Namespace(**fields)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's full parser, with all seven subcommands.

    A plain query does not use it: :func:`main` reads one with
    :func:`_read_query`.  This one reads every other form (help, no
    command or an unknown one, an abbreviated or repeated flag, ``--``, a
    negative or otherwise unusual numeral, an argument left over) and
    prints the usage errors, so that they list every command.
    """
    parser = argparse.ArgumentParser(
        prog="naryinv",
        description="Exact dimension counts for invariants of n-ary forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, positionals, options, defaults) in _commands().items():
        command = sub.add_parser(name, help=help_text)
        for positional in positionals.split():
            command.add_argument(positional, type=int)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler, **defaults)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """Run one CLI query and return its exit code.

    A plain query (see :func:`_read_query`) builds no ``ArgumentParser``.
    Every other form goes to :func:`build_parser`, which reads it or exits
    with its help or its usage error.  Each call reads its arguments afresh
    and keeps nothing once it returns, so it answers as a fresh process
    would: the Kostka tables of a ``check`` live in a memo that the call
    makes and drops.
    """
    if out is None:
        out = sys.stdout
        if isinstance(getattr(out, "buffer", None), io.FileIO):
            # an unbuffered stdout (PYTHONUNBUFFERED, python -u) drops what a
            # short write leaves, as a closed pipe leaves it: a buffered layer
            # finishes each write or raises BrokenPipeError
            raw = io.FileIO(out.fileno(), "w", closefd=False)
            out = io.TextIOWrapper(io.BufferedWriter(raw), out.encoding, out.errors)
    argv = sys.argv[1:] if argv is None else argv
    args = _read_query(argv, _commands())
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else EXIT_OK
    try:
        check_params(args.n)
        if "limit_states" in args and args.limit_states < 1:
            raise ValueError(f"--limit-states must be at least 1 state, got {args.limit_states}")
        if "kmax" in args and args.kmax < 0:
            raise ValueError(f"--kmax must be at least 0, got {args.kmax}")
        code = args.handler(args, out)
        # a reader that is gone fails this flush, not the one at exit
        out.flush()
        return code
    except (ResourceLimitError, MemoryError) as exc:
        # a MemoryError the interpreter raises carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers goes to the null
        # device, so the interpreter's flush at exit cannot fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Checks on the package as a whole: it must hold under ``python -O``,
which strips ``assert``, keep every name the benchmark imports and answer
its queries, and keep the CLI's documented commands, and the README's
examples, limits, exit codes and layout, in step with the code."""

import argparse
import ast
import gc
import importlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import weakref

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"
README = SRC.parent / "README.md"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "naryinv").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _functools_name(node, aliases):
    """The ``functools`` name a node refers to, or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "functools" else None
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def test_no_memo_outlives_a_call(monkeypatch):
    # nothing at module level is memoised (a function there is looked at
    # through its decorators, since its body runs in a call), so the package
    # holds no memo across calls: each memo is made inside a call, states a
    # finite maxsize, and is dropped with the call
    module_level, unbounded = [], []
    for path in sorted((SRC / "naryinv").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
        }
        module_level += [
            f"{path.name}:{node.lineno}"
            for top in tree.body
            for head in (top.decorator_list if isinstance(top, ast.FunctionDef) else [top])
            for node in ast.walk(head)
            if _functools_name(node, aliases) in ("cache", "lru_cache")
        ]
        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _functools_name(node.func, aliases) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(
                    isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0
                    for size in sizes
                ):
                    bounded.add(id(node.func))
        for node in ast.walk(tree):
            name = _functools_name(node, aliases)
            if name == "cache" or (name == "lru_cache" and id(node) not in bounded):
                unbounded.append(f"{path.name}:{node.lineno}")
    assert (module_level, unbounded) == ([], [])
    # a second `check` in one process builds every Kostka table the first
    # built, and each call's memo is freed as the call returns, with no
    # help from the cycle collector
    import naryinv.oracles as oracles_mod
    from naryinv.cli import main

    build, built, memos = oracles_mod._tableau_contents, [], set()

    def counted(shape, width, memo):
        built[-1] += 1
        memos.add(weakref.ref(memo))
        return build(shape, width, memo)

    monkeypatch.setattr(oracles_mod, "_tableau_contents", counted)
    gc.disable()
    try:
        for _ in range(2):
            built.append(0)
            assert main(["check", "3", "3", "--kmax", "8"], out=io.StringIO()) == 0
            assert [memo() for memo in memos] == [None] * len(built)
    finally:
        gc.enable()
    assert built == [56, 56]


def test_the_benchmark_worker_finds_no_memo_to_clear():
    # the worker clears every memoised function of the package before each
    # query; a process-wide memo would show here, not stay warm between
    # the benchmark's queries
    probe = (
        "import io, naryinv, naryinv.cli, worker\n"
        "print(len(worker.cache_clearers(naryinv)))\n"
        "naryinv.cli.main(['check', '3', '3', '--kmax', '4'], out=io.StringIO())\n"
        "print(len(worker.cache_clearers(naryinv)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)])),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0", "0"]


def test_check_strips_each_degree_through_strip_decompose(monkeypatch):
    # the benchmark's tracer counts stripping by wrapping strip_decompose,
    # so check must strip every degree through it, not around it
    import naryinv.cli as cli_mod

    strip, degrees = cli_mod.strip_decompose, []

    def spy(table, memo):
        degrees.append(table.k)
        return strip(table, memo)

    monkeypatch.setattr(cli_mod, "strip_decompose", spy)
    out = io.StringIO()
    assert cli_mod.main(["check", "3", "3", "--kmax", "4"], out=out) == 0
    assert degrees == [0, 1, 2, 3, 4]
    assert len(out.getvalue().splitlines()) == 5


def _cli_optimized(*argv, cache_dir=None, flags=("-O",)):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NARY_CACHE_DIR", None)
    if cache_dir is not None:
        env["NARY_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, *flags, "-m", "naryinv.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cli_under_optimize_flag(tmp_path):
    bad = _cli_optimized("nu", "3", "3", "4", "--limit-states", "0")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")
    good = _cli_optimized("nu", "3", "3", "4")
    assert good.returncode == 0 and good.stdout == "1\n"
    # a leftover argument falls back to the top-level parser's error
    leftover = _cli_optimized("nu", "3", "3", "4", "extra")
    assert leftover.returncode == 2 and leftover.stdout == ""
    assert leftover.stderr.startswith("usage: naryinv [-h]")
    # a banded orbit walk at rank 7
    banded = _cli_optimized("nu", "7", "2", "7")
    assert banded.returncode == 0 and banded.stdout == "1\n"
    # check runs the oracles, whose refusals and cross-checks must survive -O
    checked = _cli_optimized("check", "3", "2", "--kmax", "3")
    rows = checked.stdout.splitlines()
    assert checked.returncode == 0 and len(rows) == 4
    assert all(row.endswith(" ok") for row in rows)
    # at rank 4, through the four-row Kostka sum; at rank 5, through the
    # recursion's size skip down to it; and at rank 8, where the product
    # pass skips 1,626 of its 1,716 indices as dead, under its box mask and
    # its mass guard
    for n, d, kmax in (("4", "3", "5"), ("5", "2", "5"), ("8", "6", "1")):
        ranked = _cli_optimized("check", n, d, "--kmax", kmax)
        rows = ranked.stdout.splitlines()
        assert ranked.returncode == 0 and len(rows) == int(kmax) + 1
        assert all(row.endswith(" ok") for row in rows)
    # and its size refusal comes before any row
    refused = _cli_optimized("check", "5", "3", "--kmax", "30")
    assert refused.returncode == 3 and refused.stdout == ""
    assert refused.stderr.startswith("error:")
    # a --cache miss appends its records and a hit reads them back, with
    # the bytes the same two queries write without -O
    written = {}
    for flags in (("-O",), ()):
        cache_dir = tmp_path / f"cache{''.join(flags)}"
        for _ in ("miss", "hit"):
            cached = _cli_optimized("nu", "4", "3", "8", "--cache", cache_dir=cache_dir, flags=flags)
            assert (cached.returncode, cached.stdout, cached.stderr) == (0, "1\n", "")
        written[flags] = (cache_dir / "weight-counts.jsonl").read_bytes()
    assert written[("-O",)] == written[()] and written[()].count(b"\n") > 1


def test_benchmark_imports_resolve():
    # a package name the benchmark's worker or confirm.py imports that a
    # refactor drops shows here by name, before either script is run
    imported, unresolved = [], []
    for script in ("worker.py", "confirm.py"):
        tree = ast.parse((PERFBENCH / script).read_text(), script)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("naryinv"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.append(alias.name)
                    if not hasattr(module, alias.name):
                        unresolved.append(f"{script}: {node.module}.{alias.name}")
    assert unresolved == []
    assert {"CountCache", "invariant_dimension_by_series", "moment_targets"} <= set(imported)
    # confirm.py imports the oracles module and reaches its names as
    # attributes, which the import check above cannot see
    oracles = importlib.import_module("naryinv.oracles")
    tree = ast.parse((PERFBENCH / "confirm.py").read_text(), "confirm.py")
    reached = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "oracles"
    }
    assert sorted(name for name in reached if not hasattr(oracles, name)) == []
    assert {
        "brute_character", "strip_decompose", "symmetric_power_dimension",
        "binary_invariant_dimension", "CharacterTable",
    } <= reached
    # the worker builds its cache records from the package-level expansion
    assert callable(importlib.import_module("naryinv").expand_generating_series)


def test_benchmark_answers_confirm():
    # the import check above sees names only; this runs confirm.py, which
    # re-derives every expected answer of the benchmark, among them from
    # strip_decompose over brute-force characters
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "confirm.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "all 390 answers confirmed"


@pytest.mark.parametrize("workload", ["sweep", "single", "verify", "cached"])
def test_benchmark_worker_answers_every_query(tmp_path, workload):
    # one pass of the workload's pool through the path the benchmark times,
    # each answer checked against answers.json by the worker itself
    env = {key: value for key, value in os.environ.items() if key != "NARY_CACHE_DIR"}
    if workload == "cached":
        env["NARY_CACHE_DIR"] = str(tmp_path / "cache")
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--passes", "1", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    ready, report = result.stdout.splitlines()
    assert ready == "READY"
    assert json.loads(report)["failures"] == []


def test_the_tracer_finds_every_target_but_the_two_stale_ones(tmp_path):
    # the tracer skips a target it cannot find and reads 0 for its metrics;
    # the counting.cache_* metrics read CountCache.__init__, get and put, so a
    # rename of any of them must show here, not as a quiet 0 in a traced run
    probe = (
        "import json, sys, naryinv.cli, tracer\n"
        "from naryinv.counting import CountCache\n"
        "t = tracer.install()\n"
        "cache = CountCache(sys.argv[1])\n"
        "cache.put(2, 2, 2, (0,), 2)\n"
        "reopened = CountCache(sys.argv[1])\n"
        "hits = [reopened.get(2, 2, 2, w) for w in [(0,), (2,)]]\n"
        "print(json.dumps([t.missing, hits, t.counts]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)])),
    )
    assert result.returncode == 0, result.stderr
    missing, hits, counts = json.loads(result.stdout)
    # both stale targets wait on ROADMAP item 1
    assert missing == ["dimensions.ternary_invariant_dimension", "counting.count_solutions"]
    assert hits == [2, None]
    assert {key: counts.get(key) for key in ("cache_records_loaded", "cache_hits", "cache_misses")} == {
        "cache_records_loaded": 1, "cache_hits": 1, "cache_misses": 1,
    }
    assert counts["cache_bytes_appended"] == len('{"n": 2, "d": 2, "k": 2, "mu": [0], "count": "2"}\n')


def test_every_benchmark_query_is_plain():
    # the benchmark's speed rests on its queries being read off the command
    # table; the worker sends the cached pools with --cache appended
    from naryinv import cli

    pools = json.loads((PERFBENCH / "answers.json").read_text())["pools"]
    queries = [
        query.split() + (["--cache"] if pool.startswith("cached_") else [])
        for pool, listed in sorted(pools.items())
        for query in listed
    ]
    assert len(queries) == 383
    parser = cli.build_parser()
    for argv in queries:
        read = cli._read_query(argv, cli._commands())
        assert read is not None, argv
        assert vars(read) == {
            key: value for key, value in vars(parser.parse_args(argv)).items() if key != "command"
        }, argv


def test_cli_docstring_lists_every_subcommand(capsys):
    # the module docstring is the CLI's reference; its command list and the
    # parser must name the same subcommands, and each one must have help
    from naryinv import cli

    listing = cli.__doc__.split("Subcommands::\n\n", 1)[1].split("\n\n", 1)[0]
    documented = [line.split()[0] for line in listing.splitlines()]
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert documented == list(subparsers.choices)
    for name in documented:
        assert cli.main([name, "--help"]) == 0, name
        assert capsys.readouterr().out.startswith(f"usage: naryinv {name} ")


def test_series_keeps_one_packed_engine():
    # the layers are ints: neither the expansion nor the type that holds it
    # may build a dict, so a second, dict-keyed engine cannot creep back in
    path = SRC / "naryinv" / "series.py"
    tree = ast.parse(path.read_text(), str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    expand = defs["expand_generating_series"]
    found = [
        f"line {node.lineno}"
        for node in ast.walk(expand)
        if isinstance(node, (ast.Dict, ast.DictComp))
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"dict", "defaultdict", "Counter"})
    ]
    assert found == []
    layers = next(
        node for node in defs["TruncatedSeries"].body
        if isinstance(node, ast.AnnAssign) and node.target.id == "layers"
    )
    assert ast.unparse(layers.annotation) == "tuple[int, ...]"
    # the expansion is an immutable tuple, and nothing caches a dict of its
    # cells on it: ``coefficients`` rebuilds one from the layers on each read
    from naryinv.series import TruncatedSeries

    assert issubclass(TruncatedSeries, tuple)
    names = {
        getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        for node in ast.walk(tree)
    }
    assert "cached_property" not in names


def test_only_the_line_reader_shifts_a_layer_to_read_a_field():
    # one field reader: a layer is shifted right, to read a field, only in
    # TruncatedSeries.line, which coefficient calls as a one-point line;
    # nonzero keeps its read from the bytes of each layer
    path = SRC / "naryinv" / "series.py"
    tree = ast.parse(path.read_text(), str(path))

    def is_layer(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Attribute) and node.attr in ("layer", "layers"):
                return True
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("layer", "layers")

    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert not [
        inner.name for outer in functions for inner in ast.walk(outer)
        if isinstance(inner, ast.FunctionDef) and inner is not outer
    ]
    shifts = [
        function.name
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift) and is_layer(node.left)
    ]
    assert shifts == ["line"]
    methods = {node.name: node for node in functions}
    calls = {
        node.func.attr for node in ast.walk(methods["coefficient"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert calls == {"line"}
    read = {
        node.func.attr for node in ast.walk(methods["nonzero"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert {"to_bytes", "from_bytes"} <= read


def test_orbit_keeps_one_walk():
    # the orbit terms come from the walk over positions alone: weights.py
    # imports no itertools, so no permutation loop can come back beside it
    path = SRC / "naryinv" / "weights.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        (node.module or "").partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and not node.level
    }
    assert "itertools" not in imported
    assert "operator" in imported
    # two half walks, forward and backward, both called from the one
    # function that joins them, and from nowhere else in the package
    callers = []
    for module in SRC.joinpath("naryinv").glob("*.py"):
        for function in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [
                    (module.name, function.name)
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and "_half_walk" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                ]
    assert callers == [("weights.py", "signed_orbit_terms")] * 2


def _package_imports(module):
    """The package modules that ``module`` imports, at any depth of its body."""
    path = SRC / "naryinv" / f"{module}.py"
    tree = ast.parse(path.read_text(), str(path))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module or "")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("naryinv"):
            local.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            local.update(a.name.partition(".")[2] for a in node.names if a.name.startswith("naryinv"))
    return local


def _names_from(module, source):
    """The names ``module`` imports from the package module ``source``."""
    path = SRC / "naryinv" / f"{module}.py"
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == source
        for alias in node.names
    }


def test_oracles_share_no_code_with_the_engine():
    # the oracles certify the counting route, so within the package they may
    # import only the coefficient and weight vocabulary, never the engine
    # (`series`, `counting`, `dimensions`), and from `weights` only the
    # `Weight` type, never the signed-orbit walk or its coordinates
    local = _package_imports("oracles")
    assert local <= {"errors", "forms", "weights"}
    assert {"forms", "weights"} <= local
    assert _names_from("oracles", "weights") == {"Weight"}


def test_oracles_size_every_key_by_one_width_rule():
    # the packed layout is stated once: every width in oracles.py comes from
    # `_field_width(budget)`, and no inline packer shifts by operator.lshift
    path = SRC / "naryinv" / "oracles.py"
    tree = ast.parse(path.read_text(), str(path))
    (width,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_field_width"]

    def bit_lengths(root):
        return [
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bit_length"
        ]

    assert len(width.args.args) == 1
    assert len(bit_lengths(width)) == 1 and bit_lengths(tree) == bit_lengths(width)
    names = {
        getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        for node in ast.walk(tree)
    }
    assert "lshift" not in names


def test_the_engine_multiplies_the_zero_index_first_and_starts_fields_by_one_rule():
    # the guard on the top layer covers every layer only because the zero
    # index is multiplied in first (see the series docstring); and the
    # start width is one rule, `_start_width(top, span)`, which only the
    # expansion calls, once, before it runs `_multiply` narrow or whole
    from naryinv.series import _cells, _places

    for caps in [(0,), (3,), (2, 0, 5), (1, 1, 1, 1), (4, 4)]:
        places = _places(caps)
        for budget in range(4):
            assert next(_cells(caps, places, budget)) == ((0,) * len(caps), 0)
    path = SRC / "naryinv" / "series.py"
    tree = ast.parse(path.read_text(), str(path))
    calls = sorted(
        (func.name, node.func.id)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"_start_width", "_multiply"}
    )
    assert calls == [
        ("expand_generating_series", "_multiply"),
        ("expand_generating_series", "_multiply"),
        ("expand_generating_series", "_start_width"),
    ]
    (start,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_start_width"]
    assert [arg.arg for arg in start.args.args] == ["top", "span"]


def test_the_package_checks_weights_in_one_place():
    for name in ("check_weight", "check_dominant"):
        found = [
            path.name
            for path in sorted((SRC / "naryinv").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        assert found == ["errors.py"], name


def test_the_orbit_walk_derives_its_own_band():
    # dimensions hands the walk a degree budget; the band and the ambient
    # coordinates it is stated in stay in `weights`
    assert _names_from("dimensions", "weights") == {"signed_orbit_terms"}


def test_plethysm_tests_share_no_code_with_the_package():
    # the classical plethysms check gamma with their own partitions: the
    # test imports gamma from the top level, and nothing else of naryinv
    path = SRC.parent / "tests" / "test_plethysm.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert {name for name in imported if name.startswith("naryinv")} == {
        "naryinv.highest_weight_multiplicity"
    }


def test_the_kernel_oracle_shares_no_code_with_the_package():
    # the raising operators' kernel is an independent check of gamma and nu:
    # tests/kernel.py has no import statement but `from __future__`
    path = SRC.parent / "tests" / "kernel.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or "."}
    assert imported <= {"__future__"}


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    # under filterwarnings = ["error"], a warning raised while hypothesis
    # reports a failure must not become an INTERNALERROR that ends the run
    # before the tests after it
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(SRC.parent / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_only_the_cli_reads_the_environment():
    # the library takes what it needs as arguments; the CLI alone reads
    # NARY_CACHE_DIR and opens the cache (an attribute of any name counts,
    # so `import os as o` cannot hide a read)
    found = set()
    for path in sorted((SRC / "naryinv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"environ", "getenv"}:
                found.add(path.name)
    assert sorted(found) == ["cli.py"]


def test_engine_shares_no_code_with_the_oracles():
    # the other side of the boundary: the engine walks its own indices, so
    # the brute-force oracle's walk in `forms` certifies it independently
    for module in ("series", "counting", "dimensions"):
        assert not _package_imports(module) & {"forms", "oracles"}, module


def test_no_public_name_serves_only_the_tests():
    # reference code that no query runs lives in tests/reference.py: every
    # public top-level name of the package must be loaded outside its own
    # definition, in the package or in the benchmark; an import, an
    # `__all__` entry or a docstring does not count
    loads: dict[str, set[tuple[str, int]]] = {}
    defined = []
    for path in sorted((SRC / "naryinv").glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = (str(path), top.lineno)
            if path.parent == PERFBENCH:
                names = []
            elif isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, ast.Assign):
                names = [t.id for t in top.targets if isinstance(t, ast.Name)]
            elif isinstance(top, ast.AnnAssign) and isinstance(top.target, ast.Name):
                names = [top.target.id]
            else:
                names = []
            defined += [(f"{path.stem}.{name}", name, where) for name in names if not name.startswith("_")]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.id, set()).add(where)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.attr, set()).add(where)
    assert len(defined) > 40
    assert [label for label, name, where in defined if not loads.get(name, set()) - {where}] == []


def test_every_expansion_in_the_package_is_capped():
    # no command may expand the whole moment box: each call of the expansion
    # in the package passes caps (fifth or by name, and not None), except the
    # one entry point kept only for perfbench/confirm.py
    capped, uncapped = [], []
    for path in sorted((SRC / "naryinv").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call) or "expand_generating_series" not in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    continue
                named = {kw.arg: kw.value for kw in node.keywords}
                positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
                caps = named.get("caps", positional[4] if len(positional) == len(node.args) >= 5 else None)
                given = caps is not None and not (isinstance(caps, ast.Constant) and caps.value is None)
                (capped if given else uncapped).append(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert capped == ["counting.signed_counts"]
    assert uncapped == ["series.invariant_dimension_by_series"]


def test_one_size_bound():
    # every size bound is errors.MAX_TERMS, the default of --limit-states;
    # the orbit walk's rank bound is derived from it, not a constant
    found = [
        f"{path.stem}.{target.id}"
        for path in sorted((SRC / "naryinv").glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    assert found == ["errors.MAX_TERMS"]


TOP_LEVEL = [
    "InternalError",
    "ResourceLimitError",
    "TruncationError",
    "expand_generating_series",
    "highest_weight_multiplicity",
    "hilbert_series_prefix",
    "invariant_dimension",
    "signed_orbit_terms",
    "weight_multiplicity",
]

# each name the top level does not hold, with the one module it comes from
FROM_MODULES = {
    "counting": ["CountCache", "moment_targets"],
    "forms": ["enumerate_indices"],
    "series": ["TruncatedSeries"],
    "weights": ["SignedOrbitTerm", "Weight", "to_ambient"],
}


def test_top_level_holds_the_documented_api_and_loads_only_the_engine():
    # `import naryinv` must not load the oracles or the index walk they use;
    # the oracles load as a submodule, and no module `__getattr__` serves them
    probe = (
        "import sys, naryinv\n"
        "print(sorted(m for m in sys.modules if m in ('naryinv.oracles', 'naryinv.forms')))\n"
        "print(sorted(naryinv.__all__), '__getattr__' in vars(naryinv))\n"
        "from naryinv import oracles\n"
        "print(oracles.__name__)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", f"{TOP_LEVEL} False", "naryinv.oracles"]
    # `__all__` lists every public name `__init__` binds, and nothing else
    path = SRC / "naryinv" / "__init__.py"
    bound = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    assert sorted(bound - {"__all__", "__version__"}) == TOP_LEVEL
    for module, names in FROM_MODULES.items():
        imported = importlib.import_module(f"naryinv.{module}")
        assert all(hasattr(imported, name) for name in names), module


def test_readme_library_examples_run():
    # the README's Library block, run as written: each expression's value,
    # in order, and each value its comment states as a literal
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values, stated = {}, [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            values.append(eval(code, namespace))
        except SyntaxError:  # a statement, or a blank line
            exec(code, namespace)
            continue
        try:
            stated.append((values[-1], ast.literal_eval(comment.strip())))
        except (SyntaxError, ValueError):  # a comment in words
            pass
    five_terms = [((0, 0), 1), ((1, 1), -2), ((2, 2), -1), ((0, 3), 1), ((3, 0), 1)]
    assert values == [2, 1, 2, five_terms, [1, 0, 1, 1, 1, 1, 2], 2, {(4,): 1, (0,): 1}]
    assert len(stated) == 6 and all(value == literal for value, literal in stated)


def _readme_transcript(heading):
    """``(argv, tail, lines)`` for each ``$ naryinv ...`` line of the first
    ``sh`` block under ``heading``: its arguments, the N of a trailing
    ``| tail -N`` (None without one) and the lines shown below it."""
    block = README.read_text().split(f"\n{heading}\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    sessions = []
    for line in block.splitlines():
        if line.startswith("$ "):
            command, _, tail = line[2:].partition(" | tail -")
            program, *argv = command.split()
            assert program == "naryinv", line
            sessions.append((argv, int(tail) if tail else None, []))
        elif line:
            sessions[-1][2].append(line)
    return sessions


def test_readme_command_examples_run(capsys):
    # the Examples block, run as written: one example per command, each
    # printing the lines below it once its `| tail -N` is applied
    from naryinv import cli

    sessions = _readme_transcript("### Examples")
    assert sorted(argv[0] for argv, _, _ in sessions) == sorted(cli._commands())
    for argv, tail, lines in sessions:
        out = io.StringIO()
        assert cli.main(argv, out=out) == cli.EXIT_OK, argv
        printed = out.getvalue().splitlines()
        assert (printed[-tail:] if tail else printed) == lines, argv
        assert capsys.readouterr().err == "", argv


def test_readme_refusals_are_reproduced(tmp_path, monkeypatch, capsys):
    # every refusal the Limits block quotes exits 3 at once with the quoted
    # line on stderr, byte for byte, prints nothing and creates no file
    from naryinv import cli

    monkeypatch.chdir(tmp_path)
    sessions = _readme_transcript("### Limits")
    assert [" ".join(argv) for argv, _, _ in sessions] == [
        "nu 11 2 2",
        "nu 4 3 64",
        "check 3 4 --kmax 16 --limit-states 15392",
    ]
    for argv, tail, lines in sessions:
        out = io.StringIO()
        assert cli.main(argv, out=out) == cli.EXIT_RESOURCE, argv
        assert tail is None and out.getvalue() == ""
        assert capsys.readouterr().err == "".join(f"{line}\n" for line in lines), argv
    assert list(tmp_path.iterdir()) == []


def test_readme_states_the_rank_bound_and_the_default_limit():
    # the rank bound is the largest n whose n! orderings fit in the limit
    from naryinv.errors import MAX_TERMS

    readme = README.read_text()
    ranks = {int(rank) for rank in re.findall(r"n <= (\d+)", readme)}
    largest = max(n for n in range(2, 30) if math.factorial(n) <= MAX_TERMS)
    assert ranks == {largest}
    default = re.search(r"`--limit-states N` \(default ([\d,]+)", readme).group(1)
    assert int(default.replace(",", "")) == MAX_TERMS


def test_readme_lists_every_exit_code():
    from naryinv import cli

    block = README.read_text().split("\nExit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [int(code) for code in re.findall(r"^- `(\d+)`", block, re.M)]
    assert sorted(listed) == sorted(v for name, v in vars(cli).items() if name.startswith("EXIT_"))


def test_readme_names_no_private_function():
    # a private name is the docstrings' business: the README states the
    # user surface only
    readme = README.read_text()
    private = {
        node.name
        for path in (SRC / "naryinv").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }
    assert "_cells" in private
    assert sorted(name for name in private if re.search(rf"(?<!\w){name}\b", readme)) == []


def test_readme_layout_lists_every_module_once():
    block = README.read_text().split("## Layout\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    package = block.split("src/naryinv/\n", 1)[1].split("\ntests/", 1)[0]
    listed = [line.split()[0] for line in package.splitlines()]
    assert sorted(listed) == sorted(path.name for path in (SRC / "naryinv").glob("*.py"))

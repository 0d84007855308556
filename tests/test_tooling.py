"""Checks on the package as a whole: it must hold under ``python -O``,
which strips ``assert``, and keep every name the benchmark imports."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "naryinv").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _cli_optimized(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NARY_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-O", "-m", "naryinv.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cli_under_optimize_flag():
    bad = _cli_optimized("nu", "3", "3", "4", "--limit-states", "0")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")
    good = _cli_optimized("nu", "3", "3", "4")
    assert good.returncode == 0 and good.stdout == "1\n"


def test_benchmark_imports_resolve():
    # nothing else in the suite runs the benchmark's worker or confirm.py,
    # so a package name they import that a refactor drops would only show
    # when the benchmark is set up
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
    # the worker builds its cache records from the package-level expansion
    assert callable(importlib.import_module("naryinv").expand_generating_series)

"""Checks that must hold under ``python -O``, which strips ``assert``."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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

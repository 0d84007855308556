import argparse
import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryinv import cli
from naryinv.cli import build_parser, main, parse_weight
from naryinv.counting import weight_multiplicity

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


# every subcommand in every format, with elapsed_ms masked to 0: the bytes
# each one prints, pinned so that a change to the CLI layer cannot move them
OUTPUT_MATRIX = {
    "nu 3 3 4": {
        "plain": "1\n",
        "json": (
            '{"n": 3, "d": 3, "k": 4, "mu_or_lambda": null, '
            '"result": "1", "method": "theorem1", "elapsed_ms": 0}\n'
        ),
        "csv": (
            "n,d,k,mu_or_lambda,result,method\r\n"
            "3,3,4,,1,theorem1\r\n"
        ),
    },
    "gamma 2 2 2 --lambda 4": {
        "plain": "1\n",
        "json": (
            '{"n": 2, "d": 2, "k": 2, "mu_or_lambda": [4], '
            '"result": "1", "method": "theorem2", "elapsed_ms": 0}\n'
        ),
        "csv": (
            "n,d,k,mu_or_lambda,result,method\r\n"
            "2,2,2,4,1,theorem2\r\n"
        ),
    },
    "count 3 3 2 --mu 0,3": {
        "plain": "2\n",
        "json": (
            '{"n": 3, "d": 3, "k": 2, "mu_or_lambda": [0, 3], '
            '"result": "2", "method": "counting", "elapsed_ms": 0}\n'
        ),
        "csv": (
            "n,d,k,mu_or_lambda,result,method\r\n"
            '3,3,2,"0,3",2,counting\r\n'
        ),
    },
    "orbit 3 --lambda 1,0": {
        "plain": (
            "(1,0) +1\n"
            "(0,2) -1\n"
            "(2,1) -1\n"
            "(1,3) +1\n"
            "(3,2) -1\n"
            "(4,0) +1\n"
        ),
        "json": (
            '{"n": 3, "shift": [1, 0], "terms": [{"weight": [1, 0], "coefficient": 1}, '
            '{"weight": [0, 2], "coefficient": -1}, {"weight": [2, 1], "coefficient": -1}, '
            '{"weight": [1, 3], "coefficient": 1}, {"weight": [3, 2], "coefficient": -1}, '
            '{"weight": [4, 0], "coefficient": 1}]}\n'
        ),
        "csv": (
            "weight,coefficient\r\n"
            '"1,0",1\r\n'
            '"0,2",-1\r\n'
            '"2,1",-1\r\n'
            '"1,3",1\r\n'
            '"3,2",-1\r\n'
            '"4,0",1\r\n'
        ),
    },
    "table 2 4 --kmax 3": {
        "plain": (
            "0 1\n"
            "1 0\n"
            "2 1\n"
            "3 1\n"
        ),
        "json": (
            '{"n": 2, "d": 4, "k": 0, "mu_or_lambda": null, '
            '"result": "1", "method": "theorem1", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 4, "k": 1, "mu_or_lambda": null, '
            '"result": "0", "method": "theorem1", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 4, "k": 2, "mu_or_lambda": null, '
            '"result": "1", "method": "theorem1", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 4, "k": 3, "mu_or_lambda": null, '
            '"result": "1", "method": "theorem1", "elapsed_ms": 0}\n'
        ),
        "csv": (
            "n,d,k,mu_or_lambda,result,method\r\n"
            "2,4,0,,1,theorem1\r\n"
            "2,4,1,,0,theorem1\r\n"
            "2,4,2,,1,theorem1\r\n"
            "2,4,3,,1,theorem1\r\n"
        ),
    },
    "series 2 2 4": {
        "plain": "1\n",
        "json": (
            '{"n": 2, "d": 2, "k": 4, "mu_or_lambda": null, '
            '"result": "1", "method": "series", "elapsed_ms": 0}\n'
        ),
        "csv": (
            "n,d,k,mu_or_lambda,result,method\r\n"
            "2,2,4,,1,series\r\n"
        ),
    },
    "check 2 2 --kmax 2": {
        "plain": (
            "k=0 theorem1=1 stripping=1 classical-binary=1 ok\n"
            "k=1 theorem1=0 stripping=0 classical-binary=0 ok\n"
            "k=2 theorem1=1 stripping=1 classical-binary=1 ok\n"
        ),
        "json": (
            '{"n": 2, "d": 2, "k": 0, "mu_or_lambda": null, '
            '"result": "1", "method": "theorem1", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 0, "mu_or_lambda": null, '
            '"result": "1", "method": "stripping", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 0, "mu_or_lambda": null, '
            '"result": "1", "method": "classical-binary", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 1, "mu_or_lambda": null, '
            '"result": "0", "method": "theorem1", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 1, "mu_or_lambda": null, '
            '"result": "0", "method": "stripping", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 1, "mu_or_lambda": null, '
            '"result": "0", "method": "classical-binary", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 2, "mu_or_lambda": null, '
            '"result": "1", "method": "theorem1", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 2, "mu_or_lambda": null, '
            '"result": "1", "method": "stripping", "elapsed_ms": 0}\n'
            '{"n": 2, "d": 2, "k": 2, "mu_or_lambda": null, '
            '"result": "1", "method": "classical-binary", "elapsed_ms": 0}\n'
        ),
        "csv": (
            "n,d,k,mu_or_lambda,result,method\r\n"
            "2,2,0,,1,theorem1\r\n"
            "2,2,0,,1,stripping\r\n"
            "2,2,0,,1,classical-binary\r\n"
            "2,2,1,,0,theorem1\r\n"
            "2,2,1,,0,stripping\r\n"
            "2,2,1,,0,classical-binary\r\n"
            "2,2,2,,1,theorem1\r\n"
            "2,2,2,,1,stripping\r\n"
            "2,2,2,,1,classical-binary\r\n"
        ),
    },
}


def test_output_matrix(capsys):
    for query, outputs in OUTPUT_MATRIX.items():
        for fmt, expected in outputs.items():
            code, out = run_cli(*query.split(), "--format", fmt)
            masked = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out)
            assert (code, masked) == (0, expected), (query, fmt)
            assert capsys.readouterr().err == "", (query, fmt)


# sha256 of json.dumps([exit code, stdout, stderr]) for help and usage
# errors, at COLUMNS=80 with elapsed_ms masked, as argparse on Python 3.11
# prints them; taken before the parser was built per command, except
# "orbit -h", re-taken when orbit stopped taking --limit-states, and the
# other "-h" of a command, re-taken when --limit-states came to cap
# character entries as well as series cells; "series -h" re-taken again
# when series lost --dump; the six "-h" of nu, gamma, count, table, series
# and check re-taken when the --limit-states help came to name the unit
# that check sizes its tables in, "character-table cells"
HELP_AND_ERROR_DIGESTS = {
    "": "86eefdf75d9083c001b9df8d2c535ca2e6f40a53b5e4c4185aa16e49dc615d27",
    "-h": "98ec598b2aa0523e1fc3809aded569d5b752d31489d085d38a7133539fa85cc2",
    "--help": "98ec598b2aa0523e1fc3809aded569d5b752d31489d085d38a7133539fa85cc2",
    "foo": "e7449d9516bd5dbccec7ad9565817a5f34dd18040c00cc404451d6153e745b15",
    "NU 3 3 4": "418147fca53eeb4916d3cbc63452a00caa85491bdeb69fefd055b785892bbada",
    "nu 3 3 4 extra": "2e519a1a1142bfb290cf37373ae450e5b04aae49db21ce8c1d13f6fac7c83cec",
    "nu x 3 4": "989d90c0398c2bb6ab396328eec4dd35529d3cdb04d0d65ec4335d68760b8cfd",
    "gamma 3 3 4": "e6d9b27f926a607682e9d564154eb70a5d329d6f604153c04dd960cb76a85eea",
    "count 3 3 2": "c23d8a690dafc3bf264e083abe552b6243396481ea0d66da9571be3a11b5dd92",
    "table 3 3": "a8fb8a736501a3c90ce73b7527b039f3d05bb3122906f88c677013fb968feacb",
    "nu 3 3 4 --format xml": "5e60b017030cab5ef9a4d9888988403562ed881c1a5acc1e40ad4eb1c41fb713",
    "nu 3 3 4 --bogus": "2bb3fad17f5e85a0b234833ea585430a7352bf6b3f717c26cd622b022c882e1d",
    "nu 3 3 4 --limit-states 0": "1f2fcfa6b721d82c0782e1a04ad3455874ae1c9be3f395548b5e082315050ff3",
    "check 2 2 --kmax x": "9deff7bfe487d73e0763bb714baf095cf3956356c458ec09d8bd0d28198a1cd8",
    "nu -h": "debab98845299907e03b7dc635331d919ec46ce8f8247cd6ee7e312a575f3aea",
    "gamma -h": "7151ca68c95736e20dd4585324ecf0ed0f49281afae6329dbb2da55c292d1ce8",
    "count -h": "324afaf8370a3231c7a3c5d2dcf4e461ec32f236ed5ef96a603ee45ebb60481b",
    "orbit -h": "9e8ef9bbe652b0917472fb47e3111502cf255ca96b43888490b5646389958997",
    "table -h": "ad2aa6cf70799073c7c34a122eeeadb21dd5f172a486cab59ccb7a706fb7b12b",
    "series -h": "b5fc7f0c3e190595cc6f68dc685a136e87a85524f77b40d2ad55c4e89b89fbf0",
    "check -h": "d9c39f69bfae67ba8966822700dbfe4ecbd8e38de4e0aa61c2b83a36b5bc81e2",
    # taken while a query was still parsed by the top-level parser and its
    # subparser: leftovers, an abbreviated option, options before the
    # positionals, a negative weight not attached with "=", an option of
    # another command, and "--"
    "table 2 3 --kmax 2 extra": "2e519a1a1142bfb290cf37373ae450e5b04aae49db21ce8c1d13f6fac7c83cec",
    "table 2 3 --km 2": "c4669b26644e3a293c2d4787b167232bdf09ad250773e2e098040bc6d569d84d",
    "nu --format=json 3 3 4": "a72f08cd239381fe560680acb4718a5de33467dc68aae5bb00ef9ac67e40f4c1",
    "count 3 3 4 --mu -1,2": "906233edc7acf05393aa059166d9da05ac81475d97ab466ae851f7109459dfd0",
    "orbit 3 --limit-states 5": "3c0ff60e4805c524891ec92d4753be8cfb97f8bbb1772198a12f4a4a99d29c5f",
    "check 2 2 --kmax 2 x y": "4b15e506b396ad951febf8d8d612a523ec55b00a6dd96bb3365df5949f877647",
    "nu 3 3 4 -- 5": "37fd56cf64375f194cf4656dd14545a2e6b9ff76f58b283d71e0a9003d3241fc",
}


@pytest.mark.parametrize("argv", sorted(HELP_AND_ERROR_DIGESTS))
def test_help_and_error_bytes_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv.split())
    out, err = capsys.readouterr()
    out = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out)
    blob = json.dumps([code, out, err]).encode()
    assert hashlib.sha256(blob).hexdigest() == HELP_AND_ERROR_DIGESTS[argv]


# one plain query per command, in the order of the help
QUERIES = {
    "nu": "nu 2 3 4",
    "gamma": "gamma 2 3 4 --lambda 0",
    "count": "count 2 3 4 --mu 0",
    "orbit": "orbit 3",
    "table": "table 2 3 --kmax 2",
    "series": "series 2 3 4",
    "check": "check 2 2 --kmax 2",
}


def _count_parsers(monkeypatch) -> list:
    """The progs of the ``ArgumentParser``s built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_a_plain_query_builds_no_parser(monkeypatch):
    built = _count_parsers(monkeypatch)
    assert list(QUERIES) == list(cli._commands())
    for argv in QUERIES.values():
        assert run_cli(*argv.split())[0] == 0, argv
        assert built == [], argv


def test_other_forms_build_the_full_parser_alone(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    full = ["naryinv"] + [f"naryinv {name}" for name in QUERIES]
    for argv, code in [
        (["-h"], 0),
        ([], 2),
        (["foo"], 2),
        (["table", "2", "3", "--kmax", "2", "extra"], 2),
        # a form that argparse reads and the reader declines: an abbreviation
        (["table", "2", "3", "--km", "2"], 0),
    ]:
        built.clear()
        assert main(argv) == code, argv
        assert built == full, argv
    capsys.readouterr()


def test_each_call_reads_its_query_afresh(monkeypatch):
    # nothing read is kept: the second call sees what the module binds then
    assert run_cli("nu", "2", "3", "4") == (0, "1\n")
    monkeypatch.setattr(cli, "invariant_dimension", lambda *args, **kwargs: 7)
    assert run_cli("nu", "2", "3", "4") == (0, "7\n")


def _full_parse(argv):
    """``vars`` of the full parser's Namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


# plain forms: every flag, attached with "=" or not, and options before,
# between and after the positionals
PLAIN = [
    *QUERIES.values(),
    "nu --format=json 3 3 4",
    "nu 3 --cache 3 4 --limit-states 9",
    "gamma 3 3 4 --lambda=1,1 --format csv",
    "count 3 3 2 --mu=-1,2 --cache",
    "count 3 3 2 --mu= --limit-states=007",
    "orbit 3 --lambda 1,0 --format=plain",
    "table --kmax=3 2 4",
    "orbit --lambda 2,0 3",
    "check 2 2",
]
# forms the full parser reads that the reader leaves to it
UNUSUAL = [
    "table 2 3 --km 2",
    "nu 3 3 4 --format json --format csv",
    "nu +3 3 4",
    "nu 3 3 1_0",
    "nu 3 3 \u0663",
    "nu 3 3 4 --limit-states -5",
    "nu -- 3 3 4",
    "nu 3 3 4 --cache --cache",
]


@pytest.mark.parametrize("query", PLAIN)
def test_a_plain_query_reads_as_the_full_parser_reads_it(query):
    argv = query.split()
    read = cli._read_query(argv, cli._commands())
    assert read is not None
    full = _full_parse(argv)
    assert full.pop("command") == argv[0]
    assert vars(read) == full


@pytest.mark.parametrize("query", UNUSUAL)
def test_an_unusual_form_is_left_to_the_full_parser(query):
    argv = query.split()
    assert cli._read_query(argv, cli._commands()) is None
    assert _full_parse(argv) is not None


DECIMALS = ["0", "2", "3", "4", "12"]
NUMERALS = [*DECIMALS, "-1", "+5", "1_0", "\u0663", "", " 5"]
FLAGS = sorted({flag for spec in cli._commands().values() for flag, _ in spec[3]})
VALUES = ["json", "xml", "1,1", "-1,2", "x", *NUMERALS]
ODD = ["-h", "--", "--km", "--lim", "--bogus", *(f"{f}={v}" for f in FLAGS for v in VALUES)]


@st.composite
def _argvs(draw):
    """A plain query of a drawn command, with up to two odd groups of
    tokens put in, a group maybe taken out, and the groups shuffled."""
    name = draw(st.sampled_from([*QUERIES, "foo"]))
    _help, _handler, positionals, options, _defaults = cli._commands().get(name, cli._commands()["nu"])
    groups = [[draw(st.sampled_from(DECIMALS))] for _ in positionals.split()]
    for flag, kwargs in options:
        if not (kwargs.get("required") or draw(st.booleans())):
            continue
        if kwargs.get("action"):
            groups.append(draw(st.one_of(
                st.just([flag]), st.sampled_from(VALUES).map(lambda value: [f"{flag}={value}"]))))
            continue
        fitting = kwargs.get("choices") or (DECIMALS if kwargs.get("type") else ["1,1", "0", "-1,2"])
        value = draw(st.sampled_from(fitting))
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    own = [flag for flag, _ in options]
    groups += draw(st.lists(st.one_of(
        st.sampled_from([*NUMERALS, *FLAGS, *ODD]).map(lambda token: [token]),
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
        st.tuples(st.sampled_from(own), st.sampled_from(VALUES)).map(lambda pair: ["=".join(pair)]),
    ), max_size=2))
    if groups and draw(st.booleans()):
        del groups[draw(st.integers(0, len(groups) - 1))]
    return [name, *itertools.chain.from_iterable(draw(st.permutations(groups)))]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_the_reader_never_disagrees_with_the_full_parser(argv):
    read = cli._read_query(argv, cli._commands())
    full = _full_parse(argv)
    if full is None:
        assert read is None
    elif read is not None:
        assert full.pop("command") == argv[0]
        assert vars(read) == full


def test_the_reader_knows_every_keyword_of_the_table():
    # the reader mirrors these keywords alone; another action or type
    # would need it taught first
    for spec in cli._commands().values():
        for flag, kwargs in spec[3]:
            assert flag.startswith("--"), flag
            assert set(kwargs) <= {"action", "choices", "default", "dest", "help", "metavar", "required", "type"}
            assert kwargs.get("action", "store_true") == "store_true", flag
            assert kwargs.get("type", int) is int, flag


def test_orbit_plain_output():
    code, out = run_cli("orbit", "3")
    assert code == 0
    assert out == "(0,0) +1\n(1,1) -2\n(2,2) -1\n(0,3) +1\n(3,0) +1\n"


def test_orbit_plain_output_of_one_entry_weights():
    # rank 2: the line template holds a single weight entry
    assert run_cli("orbit", "2") == (0, "(0) +1\n(2) -1\n")
    assert run_cli("orbit", "2", "--lambda", "3") == (0, "(3) +1\n(5) -1\n")


@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_plain_output_is_one_line_per_term(n):
    from naryinv.weights import signed_orbit_terms

    rng = random.Random(n)
    shifts = [None] + [tuple(rng.randint(0, 3) for _ in range(n - 1)) for _ in range(2)]
    for shift in shifts:
        argv = ["orbit", str(n)]
        if shift is not None:
            argv += ["--lambda", ",".join(map(str, shift))]
        expected = "".join(
            f"({','.join(map(str, w))}) {c:+d}\n" for w, c in signed_orbit_terms(n, shift)
        )
        assert run_cli(*argv) == (0, expected), argv


def test_orbit_plain_output_rank_eight():
    # the 4,782 terms as [[weight, coefficient], ...] in compact JSON; the
    # digest is the one in perfbench/answers.json, which perfbench/confirm.py
    # re-derives by its own enumeration
    code, out = run_cli("orbit", "8")
    assert code == 0
    terms = []
    for line in out.splitlines():
        weight, coef = line.rsplit(" ", 1)
        terms.append([[int(x) for x in weight.strip("()").split(",")], int(coef)])
    text = json.dumps(terms, separators=(",", ":"))
    assert len(terms) == 4782
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "253124c12f4ff2bab4158c7f688cf98885f908d2c6618f6aac16462f857b8505"
    )


def test_orbit_plain_output_generic_shift():
    # 28,853 terms, whose packed walk keys hold 25 entry values, 100 bits
    # of counts; the digest of the plain output was taken before the orbit
    # was walked in halves
    code, out = run_cli("orbit", "8", "--lambda", "1,0,3,2,1,0,3")
    assert code == 0
    assert out.count("\n") == 28853
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "46a3b09ad0feff96a8f0f8c328bd5db86cb6dfb28a13041742cfa8c3264737b1"
    )


def test_orbit_with_shift_and_csv():
    code, out = run_cli("orbit", "2", "--lambda", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["weight,coefficient", "3,1", "5,-1"]


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_csv_and_json_match_the_stdlib_writers(n):
    # orbit's csv and json are the bytes that csv.writer and json.dumps give
    # for the library's terms, at the zero shift and at a random one
    from naryinv.weights import signed_orbit_terms

    rng = random.Random(n)
    for shift in (None, tuple(rng.randint(0, 3) for _ in range(n - 1))):
        argv = ["orbit", str(n)]
        if shift is not None:
            argv += ["--lambda", ",".join(map(str, shift))]
        terms = signed_orbit_terms(n, shift)
        rows = io.StringIO()
        writer = csv.writer(rows)
        writer.writerow(["weight", "coefficient"])
        writer.writerows([",".join(map(str, w)), c] for w, c in terms)
        assert run_cli(*argv, "--format", "csv") == (0, rows.getvalue()), argv
        record = {
            "n": n,
            "shift": None if shift is None else list(shift),
            "terms": [{"weight": list(w), "coefficient": c} for w, c in terms],
        }
        assert run_cli(*argv, "--format", "json") == (0, json.dumps(record) + "\n"), argv


@pytest.mark.parametrize("n", [2, 3, 8])
def test_orbit_writes_json_and_csv_through_the_stdlib_writers(monkeypatch, n):
    # orbit encodes neither format itself: json is one json.dumps and csv
    # one csv.writer, as for every other command, and the bytes are those
    # written without the wrappers
    expected = {fmt: run_cli("orbit", str(n), "--format", fmt) for fmt in ("json", "csv")}
    calls = []

    def wrap(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    wrap(json, "dumps")
    wrap(csv, "writer")
    for fmt, name in (("json", "dumps"), ("csv", "writer")):
        calls.clear()
        assert run_cli("orbit", str(n), "--format", fmt) == expected[fmt]
        assert calls == [name], fmt


def test_orbit_json():
    code, out = run_cli("orbit", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["shift"] is None
    assert {tuple(t["weight"]): t["coefficient"] for t in obj["terms"]} == {
        (0, 0): 1, (1, 1): -2, (2, 2): -1, (0, 3): 1, (3, 0): 1,
    }


def test_nu_plain():
    code, out = run_cli("nu", "2", "3", "4")
    assert code == 0
    assert out.strip() == "1"


def test_json_records_round_trip():
    # re-running the query echoed in a JSON record reproduces the result
    cases = [
        ("nu", "3", "3", "12"),
        ("gamma", "2", "2", "2", "--lambda", "4"),
        ("count", "3", "3", "2", "--mu", "0,3"),
        ("series", "2", "2", "4"),
    ]
    for argv in cases:
        code, out = run_cli(*argv, "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] in {"theorem1", "theorem2", "counting", "series"}
        rerun = [argv[0], str(rec["n"]), str(rec["d"]), str(rec["k"])]
        if rec["mu_or_lambda"] is not None:
            flag = "--lambda" if rec["method"] == "theorem2" else "--mu"
            rerun += [flag, ",".join(str(x) for x in rec["mu_or_lambda"])]
        code2, out2 = run_cli(*rerun, "--format", "json")
        assert code2 == 0
        assert json.loads(out2)["result"] == rec["result"]


def test_table_csv():
    code, out = run_cli("table", "3", "3", "--kmax", "12", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d,k,mu_or_lambda,result,method"
    assert len(lines) == 14
    results = [int(line.split(",")[4]) for line in lines[1:]]
    assert results == [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2]


def test_table_plain_rows():
    code, out = run_cli("table", "2", "4", "--kmax", "6")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [int(v) for _, v in rows] == [1, 0, 1, 1, 1, 1, 2]
    # one row is still a row, not a bare result
    assert run_cli("table", "2", "4", "--kmax", "0") == (0, "0 1\n")


def test_capped_reads_under_a_small_term_limit(capsys):
    # the layers of the (3, 3) series up to degree 12 span 1,911 cells when
    # capped at the targets of the orbit terms; uncapped they span 8,905
    assert run_cli("nu", "3", "3", "12") == (0, "2\n")
    assert run_cli("series", "3", "3", "12", "--limit-states", "2000") == (0, "2\n")
    assert run_cli("series", "3", "3", "12", "--limit-states", "1911") == (0, "2\n")
    capsys.readouterr()
    assert run_cli("series", "3", "3", "12", "--limit-states", "1910") == (3, "")
    # the refusal names the cells the query needs and the limit
    assert re.search(r"\b1911\b.*\b1910\b", capsys.readouterr().err)
    code, out = run_cli("table", "3", "3", "--kmax", "12", "--limit-states", "2000")
    assert code == 0 and out.splitlines()[-1] == "12 2"


def test_reach_quaternary_cubic_degree_40():
    # an uncapped expansion to degree 40 would span 36 million cells, over
    # the default limit; the read capped at the orbit targets stays inside
    assert run_cli("nu", "4", "3", "40") == (0, "7\n")


def test_reach_octonary_form_of_degree_30_at_degree_0():
    # the form has 10,295,472 coefficients, over the index bound; the read
    # at degree 0 caps every moment at 0, so only the zero index is walked
    assert run_cli("nu", "8", "30", "0") == (0, "1\n")


def test_check_octonary_form_of_degree_30_at_degree_0():
    # the character of degree 0 is the empty product alone, so
    # the oracles need no index list either
    assert run_cli("check", "8", "30", "--kmax", "0") == (
        0, "k=0 theorem1=1 stripping=1 ok\n"
    )


def test_check_refuses_its_top_degree_before_any_row(capsys):
    # the layers to k = 30 hold 1 + 30 * 952,952 cells; they are counted
    # before any layer is built, and no degree is worked through or printed
    # first, in any format
    for fmt in ("plain", "json"):
        assert run_cli("check", "5", "3", "--kmax", "30", "--format", fmt) == (3, "")
        assert capsys.readouterr().err == (
            "error: character tables would hold 28588561 cells, "
            "above the limit 5000000\n"
        )


def test_check_limit_states_caps_the_character_cells(capsys):
    # the layers of (3, 3) to k = 6 hold 1 + 6 * 13 * 10 = 781 cells: the
    # caps 18 // 2 = 9 and 18 // 3 = 6, each with room for one shift of 3
    assert run_cli("check", "3", "3", "--kmax", "6", "--limit-states", "780") == (3, "")
    assert capsys.readouterr().err == (
        "error: character tables would hold 781 cells, "
        "above the limit 780\n"
    )


def test_check_agrees_at_ranks_nine_and_ten():
    # the orbit walk at 9! and 10! orderings against stripping
    for n, kmax in ((9, 6), (10, 5)):
        code, out = run_cli("check", str(n), "2", "--kmax", str(kmax))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == kmax + 1 and all(line.endswith(" ok") for line in lines)


def test_count_at_rank_1100():
    # 1,099 moment coordinates: the cells are walked without recursion
    one = ",".join(["1"] + ["0"] * 1098)
    assert run_cli("count", "1100", "1", "1", "--mu", one) == (0, "1\n")
    assert run_cli("count", "1100", "1", "0", "--mu", ",".join(["0"] * 1099)) == (0, "1\n")


def test_check_reaches_past_brute_force():
    # C(30, 16) = 145,422,675 monomials at k = 16, but 15,393 table cells
    code, out = run_cli("check", "3", "4", "--kmax", "16")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 17 and all(row[-1] == "ok" for row in rows)
    code, table = run_cli("table", "3", "4", "--kmax", "16")
    assert code == 0
    expected = [line.split()[1] for line in table.splitlines()]
    assert [row[1].removeprefix("theorem1=") for row in rows] == expected
    assert expected[12] == "7" and expected[15] == "11"


def test_check_enumerates_no_monomial(monkeypatch):
    import naryinv.cli as cli_mod
    import naryinv.oracles as oracles_mod

    def refuse(*args, **kwargs):
        raise AssertionError("check enumerated monomials")

    # its characters come from the product recurrence, not from brute force
    monkeypatch.setattr(oracles_mod, "brute_character", refuse)
    monkeypatch.setattr(cli_mod, "brute_character", refuse, raising=False)
    code, out = run_cli("check", "3", "3", "--kmax", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7 and all(line.endswith(" ok") for line in lines)


def test_check_times_every_oracle_row():
    # each method's column is computed in one call, and every row of it
    # carries the column's mean time per degree
    code, out = run_cli("check", "2", "3", "--kmax", "4", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for method in ("theorem1", "stripping", "classical-binary"):
        column = [r for r in rows if r["method"] == method]
        assert [r["k"] for r in column] == [0, 1, 2, 3, 4], method
        assert len({r["elapsed_ms"] for r in column}) == 1, method
        assert column[0]["elapsed_ms"] > 0, method


def test_check_agrees_on_default_grid():
    for n in (2, 3):
        for d in (1, 2, 3):
            code, out = run_cli("check", str(n), str(d), "--kmax", "6")
            assert code == 0, out
            assert all(line.endswith("ok") for line in out.splitlines())


def test_check_csv_has_oracle_rows():
    code, out = run_cli("check", "2", "2", "--kmax", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d,k,mu_or_lambda,result,method"
    methods = {line.split(",")[5] for line in lines[1:]}
    assert methods == {"theorem1", "stripping", "classical-binary"}


def test_oracle_disagreement_exit_code(monkeypatch, capsys):
    import naryinv.cli as cli_mod

    monkeypatch.setattr(cli_mod, "binary_invariant_dimension", lambda d, k: 7)
    code, text = run_cli("check", "2", "2", "--kmax", "1")
    assert code == 4
    # each row's status and each stderr line name the same disagreement
    assert [row.split()[-1] for row in text.splitlines()] == ["MISMATCH", "MISMATCH"]
    assert capsys.readouterr().err == (
        "disagreement at k=0: theorem1=1 but classical-binary=7\n"
        "disagreement at k=1: theorem1=0 but classical-binary=7\n"
    )


def test_invalid_arguments_exit_code():
    code, _ = run_cli("nu", "2", "3")
    assert code == 2
    code, _ = run_cli("gamma", "3", "3", "2", "--lambda", "1,x")
    assert code == 2
    code, _ = run_cli("gamma", "3", "3", "2", "--lambda", "1")
    assert code == 2
    code, _ = run_cli("gamma", "3", "3", "2", "--lambda", "1,-1")
    assert code == 2
    code, _ = run_cli("nu", "1", "2", "3")
    assert code == 2
    code, _ = run_cli("nu", "2", "3", "4", "--limit-states", "-5")
    assert code == 2
    # more digits than int() converts: argparse's usage error, not a traceback
    code, _ = run_cli("nu", "2", "3", "9" * 5000)
    assert code == 2
    # orbit's shift must be dominant, as gamma's --lambda must
    code, out = run_cli("orbit", "3", "--lambda", "1,-1")
    assert (code, out) == (2, "")
    code, out = run_cli("orbit", "2", "--lambda=-3")
    assert (code, out) == (2, "")


def test_orbit_rejects_limit_states(capsys):
    # orbit expands nothing, so the flag is unknown there, not ignored; the
    # six commands that expand list it in their pinned help bytes
    assert run_cli("orbit", "3", "--limit-states", "5") == (2, "")
    assert "unrecognized arguments: --limit-states 5" in capsys.readouterr().err


def test_bad_limit_names_the_flag_and_its_unit(capsys):
    assert main(["nu", "3", "3", "4", "--limit-states", "0"]) == 2
    assert capsys.readouterr().err == "error: --limit-states must be at least 1 state, got 0\n"
    # the rank is still checked first, in its own words
    assert main(["nu", "1", "3", "4", "--limit-states", "0"]) == 2
    assert capsys.readouterr().err == "error: rank parameter n must be >= 2, got 1\n"


@pytest.mark.parametrize("command", ["table", "check"])
def test_negative_kmax_names_the_flag(command, capsys):
    # the user typed --kmax, not the library's monomial degree k
    assert run_cli(command, "3", "3", "--kmax=-1") == (2, "")
    assert capsys.readouterr().err == "error: --kmax must be at least 0, got -1\n"
    assert run_cli(command, "3", "3", "--kmax=0")[0] == 0


def test_resource_limit_exit_code():
    code, _ = run_cli("nu", "11", "2", "2")
    assert code == 3
    # 11! orderings pass the limit, for the whole orbit too
    assert run_cli("orbit", "11") == (3, "")
    code, _ = run_cli("count", "3", "4", "9", "--mu", "0,0", "--limit-states", "3")
    assert code == 3


def test_internal_error_exit_code(monkeypatch, capsys):
    import naryinv.dimensions as dimensions_mod
    from naryinv.weights import SignedOrbitTerm, signed_orbit_terms

    def flipped(n, shift=None, kd=None):
        # the identity term's sign flipped makes the signed sum negative
        first, *rest = signed_orbit_terms(n, shift=shift, kd=kd)
        return [SignedOrbitTerm(first.dominant, -first.coefficient), *rest]

    monkeypatch.setattr(dimensions_mod, "signed_orbit_terms", flipped)
    code, out = run_cli("nu", "2", "2", "2")
    err = capsys.readouterr().err
    assert code == 5 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "where, argv",
    [
        ("invariant_dimension", ["nu", "3", "3", "4"]),
        ("strip_decompose", ["check", "3", "3", "--kmax", "4"]),
        ("binary_invariant_dimension", ["check", "2", "3", "--kmax", "4"]),
    ],
)
def test_memory_error_exit_code(monkeypatch, capsys, where, argv):
    import naryinv.cli as cli_mod

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, where, exhausted)
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    # check writes its rows only once every column is done
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


def _python(*args):
    """A Python process that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NARY_CACHE_DIR", None)
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )


# `check` with one coefficient index dropped from the oracles' walk
DROP_AN_INDEX = """
import sys
import naryinv.oracles as oracles
walk = oracles.enumerate_indices
oracles.enumerate_indices = lambda n, d, caps=None: walk(n, d, caps)[1:]
from naryinv.cli import main
sys.exit(main(["check", "3", "3", "--kmax", "2"]))
"""


def test_check_refuses_a_character_of_the_wrong_mass(monkeypatch, capsys):
    import naryinv.oracles as oracles_mod

    walk = oracles_mod.enumerate_indices
    monkeypatch.setattr(
        oracles_mod, "enumerate_indices", lambda n, d, caps=None: walk(n, d, caps)[1:]
    )
    code, out = run_cli("check", "3", "3", "--kmax", "2")
    err = capsys.readouterr().err
    assert code == 5 and out == ""
    assert err.startswith("error: internal:") and "mass" in err
    # the mass check is a raise, not an assert, so python -O keeps it
    with _python("-O", "-c", DROP_AN_INDEX) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 5 and out == ""
    assert err.startswith("error: internal:") and "mass" in err


def test_closed_pipe_ends_quietly(monkeypatch):
    # the 4,782 lines of orbit 8 are far larger than a pipe's buffer, so the
    # writer is still writing when the reader goes.  A text stdout over an
    # unbuffered one (PYTHONUNBUFFERED) drops the rest of a write cut short
    # by the closed pipe without raising, so it must not be written through
    for unbuffered in (False, True):
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        with _python("-m", "naryinv.cli", "orbit", "8") as proc:
            assert proc.stdout.readline() == "(0,0,0,0,0,0,0) +1\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141, unbuffered
            assert proc.stderr.read() == ""


@pytest.mark.parametrize("argv", [["orbit", "8"], ["table", "3", "3", "--kmax", "6"]])
def test_an_unbuffered_stdout_prints_what_a_buffered_one_prints(monkeypatch, argv):
    outputs = []
    for unbuffered in (False, True):
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        with _python("-m", "naryinv.cli", *argv) as proc:
            outputs.append(proc.communicate(timeout=60))
        assert proc.returncode == 0
    assert outputs[0] == outputs[1] and outputs[0][1] == ""
    assert outputs[0][0] == run_cli(*argv)[1]


def test_cache_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("NARY_CACHE_DIR", str(tmp_path))
    code, out = run_cli("nu", "2", "3", "4", "--cache")
    assert code == 0 and out.strip() == "1"
    cache_file = tmp_path / "weight-counts.jsonl"
    records = [json.loads(line) for line in cache_file.read_text().splitlines()]
    assert {(r["n"], r["d"], r["k"]) for r in records} == {(2, 3, 4)}
    # warm cache still gives the same answer
    code, out = run_cli("nu", "2", "3", "4", "--cache")
    assert code == 0 and out.strip() == "1"


def test_cache_flag_skips_torn_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NARY_CACHE_DIR", str(tmp_path))
    # a garbage line, then a last line torn by a crash during an append
    (tmp_path / "weight-counts.jsonl").write_text(
        'not json\n{"n": 3, "d": 3, "k": 4, "mu": [0, 0], "cou'
    )
    code, out = run_cli("nu", "3", "3", "4", "--cache")
    assert code == 0 and out.strip() == "1"
    assert capsys.readouterr().err.count("skipped 2 unreadable records") == 1


def test_cache_flag_only_on_point_queries(tmp_path, monkeypatch):
    monkeypatch.setenv("NARY_CACHE_DIR", str(tmp_path))
    for argv in (
        ("orbit", "3"),
        ("table", "2", "2", "--kmax", "2"),
        ("series", "2", "2", "2"),
        ("check", "2", "2", "--kmax", "1"),
    ):
        code, _ = run_cli(*argv, "--cache")
        assert code == 2, argv
    assert not (tmp_path / "weight-counts.jsonl").exists()


def test_cache_dir_that_is_a_file_exits_2(tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    monkeypatch.setenv("NARY_CACHE_DIR", str(not_a_dir))
    code, out = run_cli("nu", "3", "3", "4", "--cache")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "NARY_CACHE_DIR" in err and str(not_a_dir) in err and "--cache" in err


@pytest.mark.parametrize("make", ["fifo", "device"])
def test_cache_file_that_is_not_a_regular_file_exits_2(tmp_path, make):
    # a FIFO blocks the open and /dev/zero reads without end, so the query
    # runs in its own process under a timeout and a 512 MB address-space
    # cap: a regression fails, and neither hangs the suite nor fills memory
    cache_file = tmp_path / "weight-counts.jsonl"
    if make == "fifo":
        os.mkfifo(cache_file)
    else:
        cache_file.symlink_to("/dev/zero")
    env = dict(os.environ, PYTHONPATH=str(SRC), NARY_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "naryinv.cli", "nu", "3", "3", "6", "--cache"],
        capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: --cache: NARY_CACHE_DIR=")
    assert "is not a usable directory" in proc.stderr and "not a regular file" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "3", "3", "12", "--dump", "out.jsonl"],
        # refused at the default limit while --dump expanded uncapped
        ["series", "7", "2", "7", "--dump", "out.jsonl"],
        ["series", "3", "3", "4", "--limit-states", "3", "--dump", "out.jsonl"],
        ["series", "3", "3", "4", "--dump", "missing/out.jsonl"],
        ["series", "3", "3", "6", "--dump="],
        ["series", "3", "3", "6", "--dump", ""],
    ],
    ids=lambda argv: " ".join(token or "''" for token in argv),
)
def test_dump_is_unrecognized(tmp_path, monkeypatch, capsys, argv):
    # --dump is gone: the parser refuses it before anything is expanded,
    # prints nothing on stdout and creates no file or directory
    import naryinv.counting as counting_mod

    def refuse(*args, **kwargs):
        raise AssertionError("expanded a query the parser refuses")

    monkeypatch.setattr(counting_mod, "expand_generating_series", refuse)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == (2, "")
    err = capsys.readouterr().err
    left = " ".join(argv[next(i for i, token in enumerate(argv) if token.startswith("--dump")):])
    assert err.startswith("usage: naryinv [-h]")
    assert err.endswith(f"naryinv: error: unrecognized arguments: {left}\n")
    assert list(tmp_path.iterdir()) == []


def test_wrong_length_weight_names_the_flag(capsys):
    assert run_cli("count", "3", "3", "2", "--mu", "1,2,3") == (2, "")
    assert capsys.readouterr().err == "error: --mu must have length n - 1 = 2, got 3\n"


def test_cache_flag_without_env(monkeypatch, capsys):
    monkeypatch.delenv("NARY_CACHE_DIR", raising=False)
    warning = "warning: --cache requested but NARY_CACHE_DIR is unset; caching disabled\n"
    assert run_cli("nu", "2", "2", "2", "--cache") == (0, "1\n")
    assert capsys.readouterr().err == warning
    # an empty NARY_CACHE_DIR counts as unset
    monkeypatch.setenv("NARY_CACHE_DIR", "")
    assert run_cli("nu", "2", "2", "2", "--cache") == (0, "1\n")
    assert capsys.readouterr().err == warning


def test_cache_with_a_bad_count_exits_2(tmp_path, monkeypatch, capsys):
    # a count no expansion gives turns the signed sum negative: the file is
    # at fault, not the program, so the message names it and no flag
    monkeypatch.setenv("NARY_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "weight-counts.jsonl"
    cache_file.write_text('{"n":3,"d":3,"k":40,"mu":[0,0],"count":"999"}\n')
    assert run_cli("nu", "3", "3", "40", "--cache") == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: negative multiplicity")
    assert f"{cache_file} holds a bad count" in err and "--cache" not in err


@pytest.mark.parametrize("call", ["open", "write"])
def test_a_failed_cache_append_names_the_flag_and_the_file(tmp_path, monkeypatch, capsys, call):
    # the open and the write of an append fail as a read-only directory or a
    # full disk would make them; the query is lost, so nothing is printed
    from naryinv import counting

    monkeypatch.setenv("NARY_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "weight-counts.jsonl"
    failure = {
        "open": OSError(errno.EACCES, os.strerror(errno.EACCES), str(cache_file)),
        "write": OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    }[call]
    real = getattr(counting.os, call)

    def fail(target, *args):
        # the cache's open names its file, and its write is the only one to
        # a descriptor past stderr
        if target == str(cache_file) or (call == "write" and target > 2):
            raise failure
        return real(target, *args)

    monkeypatch.setattr(counting.os, call, fail)
    assert run_cli("nu", "3", "3", "4", "--cache") == (2, "")
    err = capsys.readouterr().err
    assert err == f"error: --cache: {str(cache_file)!r} cannot be written ({failure.strerror})\n"


def test_weight_with_negative_first_entry_attached_with_equals():
    # "--mu -1,2" would read "-1,2" as an option; "--mu=-1,2" is the weight
    expected = weight_multiplicity(3, 3, 2, (-1, 2))
    assert expected > 0
    assert run_cli("count", "3", "3", "2", "--mu=-1,2") == (0, f"{expected}\n")
    assert run_cli("count", "3", "3", "2", "--mu", "-1,2")[0] == 2


def test_parse_weight_error_messages():
    with pytest.raises(ValueError, match="position 2"):
        parse_weight("1,x", 3, "--mu")
    with pytest.raises(ValueError, match="n - 1 = 2"):
        parse_weight("1", 3, "--mu")
    assert parse_weight(" 1 , -2 ", 3, "--mu") == (1, -2)

import io
import json

import pytest

from naryinv.cli import main, parse_weight


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def test_orbit_plain_output():
    code, out = run_cli("orbit", "3")
    assert code == 0
    assert out == "(0,0) +1\n(1,1) -2\n(2,2) -1\n(0,3) +1\n(3,0) +1\n"


def test_orbit_with_shift_and_csv():
    code, out = run_cli("orbit", "2", "--lambda", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["weight,coefficient", "3,1", "5,-1"]


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


def test_series_dump(tmp_path):
    path = tmp_path / "series.jsonl"
    code, out = run_cli("series", "2", "2", "2", "--dump", str(path))
    assert code == 0
    assert out.strip() == "1"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    table = {(r["k"], tuple(r["moments"])): int(r["coefficient"]) for r in records}
    assert table[(2, (2,))] == 2


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
    code, _ = run_cli("check", "2", "2", "--kmax", "1")
    assert code == 4
    assert "disagreement" in capsys.readouterr().err


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


def test_resource_limit_exit_code():
    code, _ = run_cli("nu", "9", "2", "2")
    assert code == 3
    code, _ = run_cli("count", "3", "4", "9", "--mu", "0,0", "--limit-states", "3")
    assert code == 3


def test_internal_error_exit_code(monkeypatch, capsys):
    import naryinv.dimensions as dimensions_mod
    from naryinv.weights import SignedOrbitTerm, signed_orbit_terms

    def flipped(n, shift=None):
        # the identity term's sign flipped makes the signed sum negative
        first, *rest = signed_orbit_terms(n, shift=shift)
        return [SignedOrbitTerm(first.dominant, -first.coefficient), *rest]

    monkeypatch.setattr(dimensions_mod, "signed_orbit_terms", flipped)
    code, out = run_cli("nu", "2", "2", "2")
    err = capsys.readouterr().err
    assert code == 5 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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


def test_cache_flag_without_env(monkeypatch, capsys):
    monkeypatch.delenv("NARY_CACHE_DIR", raising=False)
    code, out = run_cli("nu", "2", "2", "2", "--cache")
    assert code == 0 and out.strip() == "1"
    assert "NARY_CACHE_DIR" in capsys.readouterr().err


def test_parse_weight_error_messages():
    with pytest.raises(ValueError, match="position 2"):
        parse_weight("1,x", 3, "--mu")
    with pytest.raises(ValueError, match="n - 1 = 2"):
        parse_weight("1", 3, "--mu")
    assert parse_weight(" 1 , -2 ", 3, "--mu") == (1, -2)

import errno
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryinv import counting
from naryinv.counting import (
    CountCache,
    moment_targets,
    signed_counts,
    weight_multiplicity,
)
from naryinv.dimensions import hilbert_series_prefix, invariant_dimension
from naryinv.errors import ResourceLimitError
from naryinv.forms import enumerate_indices, weight_from_moments
from naryinv.oracles import brute_character, symmetric_power_dimension
from naryinv.series import TruncatedSeries, check_expansion_size, expand_generating_series
from naryinv.weights import signed_orbit_terms
from reference import dominant_representative, load_count_records


def test_moment_targets_examples():
    for d, k in [(2, 1), (2, 3), (4, 2)]:
        assert moment_targets(2, d, k, (0,)) == (k * d // 2,)
    for d, k in [(3, 1), (3, 2), (2, 3)]:
        base = k * d // 3
        assert moment_targets(3, d, k, (1, 1)) == (base, base - 1)
    assert moment_targets(3, 2, 1, (0, 0)) is None  # 2 not divisible by 3
    assert moment_targets(2, 2, 1, (2,)) == (0,)
    assert moment_targets(2, 1, 1, (3,)) is None  # negative target


def test_moment_targets_accept_negative_weights():
    # shifted orbit terms can probe arbitrary integer weights
    assert moment_targets(2, 2, 2, (-4,)) == (4,)
    assert moment_targets(3, 3, 2, (-3, 0)) == (3, 3)


def test_solution_count_examples():
    # (n, d, k, moment targets, number of index multisets hitting them)
    cases = [(2, 2, 2, (2,), 2), (2, 2, 1, (0,), 1), (2, 2, 0, (1,), 0),
             (2, 2, 2, (-1,), 0)]
    cases += [(n, d, 0, (0,) * (n - 1), 1) for n, d in [(2, 2), (3, 3), (4, 2)]]
    for n, d, k, targets, expected in cases:
        weight = weight_from_moments(n, d, k, targets)
        assert weight_multiplicity(n, d, k, weight) == expected


def test_weight_multiplicity_examples():
    assert weight_multiplicity(2, 2, 2, (0,)) == 2
    assert weight_multiplicity(2, 2, 1, (2,)) == 1
    for n, d in [(2, 3), (3, 2), (4, 2)]:
        assert weight_multiplicity(n, d, 0, (0,) * (n - 1)) == 1
    assert weight_multiplicity(3, 2, 1, (0, 0)) == 0


def test_counts_match_brute_character_tally():
    for n in (2, 3):
        for d in (1, 2, 3):
            for k in range(7):
                table = brute_character(n, d, k).multiplicities
                for w, expected in table.items():
                    assert weight_multiplicity(n, d, k, w) == expected
                # a weight outside the table has count zero
                probe = (k * d + 1,) + (0,) * (n - 2)
                assert probe not in table
                assert weight_multiplicity(n, d, k, probe) == 0


def test_counts_solve_the_raw_weight_system():
    # count directly against the unsolved equations: the moment vector m of
    # a degree-k monomial must satisfy 2*m_1 + m_2 + ... = k*d - w_1 and
    # m_s - m_{s+1} = w_{s+1}
    rng = random.Random(99)
    for n, d, k in [(2, 2, 3), (2, 3, 2), (3, 2, 3), (3, 3, 2), (4, 2, 3)]:
        indices = enumerate_indices(n, d)
        weights = [
            tuple(rng.randint(-4, 4) for _ in range(n - 1)) for _ in range(12)
        ]
        weights.append((0,) * (n - 1))
        for w in weights:
            direct = 0
            for combo in itertools.combinations_with_replacement(indices, k):
                moments = [sum(idx[s] for idx in combo) for s in range(n - 1)]
                if 2 * moments[0] + sum(moments[1:]) != k * d - w[0]:
                    continue
                if any(
                    moments[s] - moments[s + 1] != w[s + 1]
                    for s in range(n - 2)
                ):
                    continue
                direct += 1
            assert weight_multiplicity(n, d, k, w) == direct


def test_counts_are_orbit_symmetric():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.choice([2, 3])
        d = rng.randint(1, 3)
        k = rng.randint(0, 5)
        w = tuple(rng.randint(-5, 5) for _ in range(n - 1))
        assert weight_multiplicity(n, d, k, w) == weight_multiplicity(
            n, d, k, dominant_representative(w)
        )


def _moments_by_search(n, d, k, w):
    """The nonnegative moments of weight ``w`` at degree ``k``, or ``None``.

    The weight fixes ``m[s + 1] = m[s] - w[s + 1]``, so trying every first
    moment up to a bound past any solution finds the one vector, if any,
    that :func:`weight_from_moments` maps back to ``w``.
    """
    for first in range(d * k + n * sum(map(abs, w)) + 1):
        m = tuple(itertools.accumulate([first, *(-x for x in w[1:])]))
        if min(m) >= 0 and weight_from_moments(n, d, k, m) == w:
            return m
    return None


def test_read_plan_reads_exactly_the_feasible_targets(monkeypatch):
    # signed_counts checks and decomposes each term once, then tests it at
    # every degree: it must read exactly the feasible moment_targets, once
    # each, and sum them as a per-term read would; moment_targets itself is
    # checked against a search over the weight system
    rng = random.Random(12)
    real = TruncatedSeries.coefficient
    reads = []

    def recording(self, k, moments):
        reads.append((k, tuple(moments)))
        return real(self, k, moments)

    monkeypatch.setattr(TruncatedSeries, "coefficient", recording)
    drawn = 0
    while drawn < 40:
        n, d = rng.randint(2, 6), rng.randint(1, 5)
        weights = dict.fromkeys(
            tuple(rng.randint(-6, 6) for _ in range(n - 1)) for _ in range(rng.randint(1, 6))
        )
        terms = [(w, rng.randint(1, 3)) for w in weights]
        degrees = rng.sample(range(13), rng.randint(1, 4))
        feasible = {}
        for k in degrees:
            for w, _ in terms:
                targets = moment_targets(n, d, k, w)
                assert targets == _moments_by_search(n, d, k, w), (n, d, k, w)
                if targets is not None:
                    feasible[k, w] = targets
        series = None
        if feasible:
            top = max(k for k, _ in feasible)
            caps = tuple(min(max(column), d * top) for column in zip(*feasible.values()))
            try:
                check_expansion_size(d, top, caps, 200_000)
            except ResourceLimitError:
                continue  # too large to expand here
            series = expand_generating_series(n, d, top, caps=caps)
        drawn += 1
        reads.clear()
        sums = signed_counts(n, d, degrees, terms)
        assert sorted(reads) == sorted((k, t) for (k, _), t in feasible.items())
        expected = [
            sum(c * real(series, k, feasible[k, w]) for w, c in terms if (k, w) in feasible)
            for k in degrees
        ]
        assert sums == expected, (n, d, degrees, terms)


def test_total_mass_over_all_targets():
    for n, d, k in [(2, 2, 4), (2, 3, 3), (3, 2, 3), (3, 3, 2)]:
        series = expand_generating_series(n, d, k)
        total = sum(
            value for (degree, _), value in series.coefficients.items()
            if degree == k
        )
        assert total == symmetric_power_dimension(n, d, k)


def test_state_limit_enforced():
    # one bound on stored terms, shared by every route into the expansion
    weight = weight_from_moments(3, 4, 8, (10, 10))
    with pytest.raises(ResourceLimitError):
        weight_multiplicity(3, 4, 8, weight, max_terms=5)
    with pytest.raises(ResourceLimitError):
        invariant_dimension(3, 4, 9, max_terms=5)
    with pytest.raises(ResourceLimitError):
        expand_generating_series(3, 4, 8, max_terms=5)
    assert weight_multiplicity(3, 4, 8, weight, max_terms=5_000) > 0
    for bad in (0, -5):
        with pytest.raises(ValueError):
            weight_multiplicity(3, 4, 8, weight, max_terms=bad)


def test_validation():
    with pytest.raises(ValueError):
        expand_generating_series(3, 2, 2, caps=(1,))
    with pytest.raises(ValueError):
        moment_targets(3, 2, -1, (0, 0))
    with pytest.raises(ValueError):
        weight_multiplicity(3, 2, 2, (1,))


def test_cache_round_trip(tmp_path):
    cache = CountCache(str(tmp_path))
    cache.put(3, 2, 4, (1, 1), 123456789012345678901234567890)
    size = os.path.getsize(cache.path)
    # a second put of a stored key appends nothing and keeps the first count
    cache.put(3, 2, 4, (1, 1), 7)
    assert os.path.getsize(cache.path) == size
    reloaded = CountCache(str(tmp_path))
    assert reloaded.get(3, 2, 4, (1, 1)) == 123456789012345678901234567890
    assert len(reloaded) == 1


def test_cache_skips_malformed_lines(tmp_path):
    good = {"n": 3, "d": 2, "k": 4, "mu": [1, 1], "count": "7"}
    bad = [
        "{not json",
        json.dumps({**good, "count": "-7"}),
        json.dumps({**good, "count": "7.5"}),
        json.dumps({**good, "count": 7}),
        json.dumps({**good, "mu": [1]}),
        json.dumps({k: v for k, v in good.items() if k != "d"}),
        json.dumps([3, 2, 4]),
        json.dumps(good)[:-5],  # torn last line, no newline
    ]
    path = tmp_path / "weight-counts.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + "\n".join(bad))
    cache = CountCache(str(tmp_path))
    assert cache.skipped == len(bad)
    assert cache.get(3, 2, 4, (1, 1)) == 7 and len(cache) == 1
    # a record appended after the torn line starts a line of its own
    cache.put(3, 2, 5, (1, 1), 11)
    reloaded = CountCache(str(tmp_path))
    assert reloaded.get(3, 2, 5, (1, 1)) == 11
    assert reloaded.skipped == len(bad) and len(reloaded) == 2


def _put_text(n, d, k, mu, count):
    return json.dumps({"n": n, "d": d, "k": k, "mu": list(mu), "count": str(count)})


def test_record_fields_must_be_json_integers(tmp_path):
    # 3.0 and true compare equal to 3 and 1, but a record holds JSON integers
    unreadable = [
        '{"n": 3.0, "d": 2, "k": 5, "mu": [1, 1], "count": "7"}',
        '{"n": 3, "d": 2, "k": 5, "mu": [1, true], "count": "7"}',
        '{"n": 3, "d": 2.0, "k": 5, "mu": [1, 1], "count": "7"}',
        '{"n": 3, "d": 2, "k": 5e0, "mu": [1, 1], "count": "7"}',
        '{"n": 3, "d": 2, "k": 5, "mu": "ab", "count": "7"}',
        '{"n": 3, "d": 2, "k": 5, "mu": [1, 1], "count": "٧"}',
    ]
    # -0 is a JSON integer, 0
    readable = '{"n": 3, "d": 2, "k": 6, "mu": [-0, 1], "count": "08"}'
    (tmp_path / "weight-counts.jsonl").write_text("\n".join([*unreadable, readable]) + "\n")
    cache = CountCache(str(tmp_path))
    assert cache.skipped == len(unreadable) and len(cache) == 1
    assert cache.get(3, 2, 5, (1, 1)) is None
    assert cache.get(3, 2, 6, (0, 1)) == 8


def test_integers_past_the_digit_limit_are_unreadable(tmp_path):
    # json and int() refuse more digits than sys.get_int_max_str_digits()
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no digit limit")
    lines = [
        _put_text(2, 1, int("9" * limit), (0,), 1),
        _put_text(2, 1, 1, (0,), "1" * limit),
        _put_text(2, 1, 2, (0,), "0" * limit),
        _put_text(2, 1, 3, (0,), 1).replace('"k": 3', '"k": 1' + "0" * limit),
        _put_text(2, 1, 4, (0,), "1" * (limit + 1)),
        _put_text(2, 1, 5, (0,), 1).replace("[0]", "[1" + "0" * limit + "]"),
    ]
    path = tmp_path / "weight-counts.jsonl"
    path.write_text("\n".join(lines) + "\n")
    records, skipped, _ = load_count_records(str(path))
    cache = CountCache(str(tmp_path))
    assert (cache.skipped, len(cache)) == (skipped, len(records)) == (3, 3)
    for key in [(2, 1, int("9" * limit), (0,)), *((2, 1, k, (0,)) for k in range(6))]:
        assert cache.get(*key) == records.get(key)


# the keys of drawn records.  The open checks put's lines by pattern alone
# only for n in _SCANNED: the n on either side of it go through the JSON decode
_LOW, _HIGH = counting._SCANNED[0] - 1, counting._SCANNED[-1]
_KEYS = st.tuples(
    st.sampled_from([_LOW, 2, 3, 4, _HIGH, _HIGH + 1]), st.integers(1, 2), st.integers(0, 2)
).flatmap(lambda ndk: st.tuples(*map(st.just, ndk), st.tuples(*[st.integers(-1, 2)] * (ndk[0] - 1))))
_JUNK_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def _cache_line(draw, keys):
    """One line of a cache file, as bytes without its line end."""
    kind = draw(st.sampled_from(
        ["put", "compact", "reordered", "extra", "integer", "arity", "blank", "junk", "bytes"]
    ))
    n, d, k, mu = draw(keys)
    count = draw(st.integers(0, 10**25))
    rec = {"n": n, "d": d, "k": k, "mu": list(mu), "count": str(count)}
    if kind == "put":
        text = _put_text(n, d, k, mu, count)
    elif kind == "compact":
        text = json.dumps(rec, separators=(",", ":"))
    elif kind == "reordered":
        text = json.dumps(dict(draw(st.permutations(list(rec.items())))))
    elif kind == "extra":
        text = json.dumps({**rec, draw(st.sampled_from(["x", "n", "count"])): draw(_JUNK_TEXT)})
    elif kind == "integer":
        # integers in another spelling: some still read, some do not
        field = draw(st.sampled_from(["n", "d", "k", "mu", "count"]))
        value = draw(st.sampled_from([
            -0.0, 1.0, 2.0, True, False, None, "2", "-0", "007", "", "1e2", [1.0], [True], [[1]],
        ]))
        text = json.dumps({**rec, field: value})
        if draw(st.booleans()):
            text = text.replace(": 0,", ": -0,").replace("[0", "[-0")
    elif kind == "arity":
        text = _put_text(n + draw(st.sampled_from([-1, 1])), d, k, mu, count)
    elif kind == "blank":
        text = draw(st.text(" \t\x0b\x0c\x1c\x1f\x85\xa0 　", max_size=4))
    elif kind == "junk":
        text = draw(_JUNK_TEXT)
    else:
        return draw(st.binary(max_size=8))
    if draw(st.booleans()):
        text = draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))
    return text.encode("utf-8")


@st.composite
def _cache_lines(draw):
    """Up to 12 lines with their line ends.  Their keys come from a pool of
    at most 3, so that one key's lines repeat in different formats."""
    pool = st.sampled_from(draw(st.lists(_KEYS, min_size=1, max_size=3)))
    return draw(st.lists(st.tuples(_cache_line(pool), st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=12))


@settings(max_examples=300, deadline=None)
@given(
    lines=_cache_lines(),
    torn=st.integers(0, 60),
    keys=st.lists(_KEYS, max_size=6),
    # n = 5 is outside the pool: the put appends
    added=st.tuples(st.tuples(*[st.integers(-9, 9)] * 4), st.integers(0, 10**40)),
)
def test_cache_loads_as_the_json_reference_does(lines, torn, keys, added):
    data = b"".join(line + end for line, end in lines)
    if lines and torn:
        # a crash cut the last line short: it has no line end
        data = data[: len(data) - len(lines[-1][1]) - torn % (len(lines[-1][0]) + 1)]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "weight-counts.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        records, skipped, separator = load_count_records(path)
        cache = CountCache(directory)
        assert (cache.skipped, len(cache)) == (skipped, len(records))
        for key in {*keys, *records, *(key[:3] + (key[3][::-1],) for key in records)}:
            assert cache.get(*key) == records.get(key)
        # an append after the open writes json.dumps's text on a line of its own
        mu, count = added
        cache.put(5, 1, 0, mu, count)
        with open(path, "rb") as fh:
            assert fh.read() == data + (separator + _put_text(5, 1, 0, mu, count) + "\n").encode()
        again, skipped_again, _ = load_count_records(path)
        assert again == {**records, (5, 1, 0, mu): count} and skipped_again == skipped


@pytest.mark.parametrize("n", [3, 1, 10])
def test_the_last_line_of_a_key_wins_whatever_its_format(tmp_path, n):
    # put's lines are read by an index per (n, d), every other line at the
    # open; the order of the file still decides.  The open checks n = 1 and
    # 10 through the JSON decode alone
    path = tmp_path / "weight-counts.jsonl"
    mu = tuple(range(n - 1))

    def compact(k, count):
        rec = {"n": n, "d": 2, "k": k, "mu": list(mu), "count": str(count)}
        return json.dumps(rec, separators=(",", ":"))

    lines = [
        _put_text(n, 2, 1, mu, 7), compact(1, 8),  # the compact line comes last
        compact(2, 8), _put_text(n, 2, 2, mu, 7),  # the put line comes last
        _put_text(n, 2, 3, mu, 7), compact(3, 8), _put_text(n, 2, 3, mu, 9),
    ]
    path.write_text("\n".join(lines) + "\n")
    records, _, _ = load_count_records(str(path))
    cache = CountCache(str(tmp_path))
    assert [cache.get(n, 2, k, mu) for k in (1, 2, 3)] == [8, 7, 9]
    assert {key: cache.get(*key) for key in records} == records
    # a key the file holds, in either format, is not appended again
    size = path.stat().st_size
    cache.put(n, 2, 1, mu, 5)
    cache.put(n, 2, 2, mu, 5)
    assert path.stat().st_size == size and cache.get(n, 2, 1, mu) == 8
    # a put beats, in its own instance, the lines appended after it
    cache.put(n, 2, 4, mu, 5)
    with open(path, "a") as fh:
        fh.write(compact(4, 8) + "\n" + _put_text(n, 2, 4, mu, 7) + "\n")
    assert cache.get(n, 2, 4, mu) == 5 and len(cache) == 4
    assert CountCache(str(tmp_path)).get(n, 2, 4, mu) == 7


def test_a_file_written_by_put_loads_without_a_json_decode(tmp_path, monkeypatch):
    cache = CountCache(str(tmp_path))
    stored = {}
    for n, d, kmax in [(2, 3, 6), (3, 2, 5), (4, 2, 3)]:
        series = expand_generating_series(n, d, kmax)
        for (k, mom), value in sorted(series.coefficients.items()):
            weight = weight_from_moments(n, d, k, mom)
            cache.put(n, d, k, weight, value)
            stored[n, d, k, weight] = value
    assert any(min(key[3]) < 0 for key in stored)

    def refuse(*args, **kwargs):
        raise AssertionError("a line in put's format went through json")

    monkeypatch.setattr(counting.json, "loads", refuse)
    reloaded = CountCache(str(tmp_path))
    assert reloaded.skipped == 0 and len(reloaded) == len(stored)
    assert all(reloaded.get(*key) == value for key, value in stored.items())


@pytest.mark.parametrize("junk", [
    pytest.param('{"n": 3, "d": 2, "k": 5, "mu": [' + "10, " * 250_000, id="endless-record"),
    pytest.param('{"n": ' + "1" * 1_000_000, id="long-integer"),
    pytest.param(" " * 999_999 + "x", id="spaces"),
    # json gives up with a RecursionError
    pytest.param("[" * 1_000_000, id="deep-nesting"),
])
def test_a_megabyte_junk_line_is_one_skipped_record(tmp_path, junk):
    good = _put_text(2, 2, 2, (0,), 2) + "\n"
    (tmp_path / "weight-counts.jsonl").write_text(good + junk)
    start = time.perf_counter()
    cache = CountCache(str(tmp_path))
    assert time.perf_counter() - start < 5.0
    assert cache.skipped == 1 and len(cache) == 1 and cache.get(2, 2, 2, (0,)) == 2


def _cache_patterns(patterns):
    """Those of ``patterns`` that the count cache compiles: each matches a
    record's count field."""
    return [p for p in patterns if '"count"' in str(p)]


def test_the_record_pattern_is_compiled_on_first_open():
    # every query imports the package; only a --cache query needs a pattern
    probe = (
        "import re\n"
        "compiled, compile = [], re.compile\n"
        "re.compile = lambda pattern, flags=0: compiled.append(pattern) or compile(pattern, flags)\n"
        "import naryinv.cli\n"
        "from naryinv import counting\n"
        "print(counting._RULE, counting._RECORD, counting._SCAN)\n"
        "print(sum('\"count\"' in str(p) for p in compiled))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(counting.__file__))),
    )
    assert (result.returncode, result.stdout) == (0, "None None None\n0\n"), result.stderr


@pytest.mark.parametrize("file", ["missing", "empty"])
def test_puts_into_a_cache_opened_on_no_records_compile_no_pattern(tmp_path, monkeypatch, file):
    # a cache built from nothing, as a set-up builds one, has nothing to scan
    # or index: its lookups are probes of what its puts stored
    if file == "empty":
        (tmp_path / "weight-counts.jsonl").write_bytes(b"")
    for name in ("_RULE", "_RECORD", "_SCAN"):
        monkeypatch.setattr(counting, name, None)
    compiled, compile = [], re.compile
    monkeypatch.setattr(
        counting.re, "compile", lambda pattern, flags=0: compiled.append(pattern) or compile(pattern, flags)
    )
    cache = CountCache(str(tmp_path))
    stored = {(3, 2, k, (k % 5, -1)): 10**k for k in range(100)}
    for key, value in stored.items():
        cache.put(*key, value)
    assert len(cache) == 100 and all(cache.get(*key) == value for key, value in stored.items())
    assert cache.get(4, 2, 1, (0, 0, 0)) is None
    assert _cache_patterns(compiled) == [] and counting._SCAN is counting._RECORD is None
    monkeypatch.undo()
    reloaded = CountCache(str(tmp_path))
    assert len(reloaded) == 100 and all(reloaded.get(*key) == value for key, value in stored.items())


def test_an_open_compiles_the_scan_and_a_lookup_one_index_per_n_d(tmp_path, monkeypatch):
    lines = [_put_text(3, 2, k, (k, 0), k) for k in range(5)] + [_put_text(2, 3, 1, (3,), 1)]
    (tmp_path / "weight-counts.jsonl").write_text("\n".join(lines) + "\n")
    for name in ("_RULE", "_RECORD", "_SCAN"):
        monkeypatch.setattr(counting, name, None)
    compiled, compile = [], re.compile
    monkeypatch.setattr(
        counting.re, "compile", lambda pattern, flags=0: compiled.append(pattern) or compile(pattern, flags)
    )
    cache = CountCache(str(tmp_path))
    assert _cache_patterns(compiled) == [counting._SCAN.pattern]
    # the records of (3, 2) are indexed once; (2, 3) is never asked for
    assert [cache.get(3, 2, k, (k, 0)) for k in range(6)] == [0, 1, 2, 3, 4, None]
    cache.put(3, 2, 5, (5, 0), 5)
    assert cache.get(3, 2, 5, (5, 0)) == 5
    assert len(_cache_patterns(compiled)) == 2 and '"n": 3, "d": 2, ' in compiled[-1]
    assert counting._RECORD is None


def test_put_appends_the_exact_bytes_of_a_record(tmp_path):
    path = tmp_path / "weight-counts.jsonl"
    cache = CountCache(str(tmp_path))
    cache.put(3, 3, 6, (2, 2), 25)
    first = b'{"n": 3, "d": 3, "k": 6, "mu": [2, 2], "count": "25"}\n'
    assert path.read_bytes() == first
    # a count of 1,000 digits is one line like any other
    big = int("7" * 1000)
    cache.put(4, 2, 3, (-1, 0, 2), big)
    line = b'{"n": 4, "d": 2, "k": 3, "mu": [-1, 0, 2], "count": "' + b"7" * 1000 + b'"}\n'
    assert path.read_bytes() == first + line
    assert CountCache(str(tmp_path)).get(4, 2, 3, (-1, 0, 2)) == big


def test_put_after_a_torn_line_starts_a_line_of_its_own(tmp_path):
    path = tmp_path / "weight-counts.jsonl"
    torn = b'{"n": 3, "d": 3, "k": 4, "mu": [0, 0], "cou'
    path.write_bytes(torn)
    cache = CountCache(str(tmp_path))
    cache.put(2, 2, 2, (0,), 2)
    cache.put(2, 2, 4, (0,), 3)
    assert path.read_bytes() == (
        torn + b'\n{"n": 2, "d": 2, "k": 2, "mu": [0], "count": "2"}\n'
        b'{"n": 2, "d": 2, "k": 4, "mu": [0], "count": "3"}\n'
    )


def test_short_writes_are_finished(tmp_path, monkeypatch):
    # a write may take fewer bytes than it is given; the rest must follow
    write, calls = os.write, []

    def short(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:3]))

    monkeypatch.setattr(counting.os, "write", short)
    cache = CountCache(str(tmp_path))
    stored = {(3, 2, k, (k % 3, -1)): 10**k for k in range(12)}
    for key, value in stored.items():
        cache.put(*key, value)
    monkeypatch.undo()
    assert len(calls) > 3 * len(stored)
    reloaded = CountCache(str(tmp_path))
    assert reloaded.skipped == 0 and len(reloaded) == len(stored)
    assert all(reloaded.get(*key) == value for key, value in stored.items())
    expected = "".join(_put_text(*key, value) + "\n" for key, value in stored.items())
    assert (tmp_path / "weight-counts.jsonl").read_text() == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_put_keeps_no_descriptor_open(tmp_path, monkeypatch):
    def descriptors():
        return len(os.listdir("/proc/self/fd"))

    before = descriptors()
    cache = CountCache(str(tmp_path))
    for k in range(1000):
        cache.put(2, 1, k, (k,), k)
    assert descriptors() == before

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(counting.os, "write", full)
    with pytest.raises(OSError):
        cache.put(2, 1, 1000, (1000,), 1000)
    monkeypatch.undo()
    assert descriptors() == before


@pytest.mark.parametrize("call", ["open", "write"])
def test_a_failed_put_stores_nothing(tmp_path, monkeypatch, call):
    # the key is kept only once its line is in the file, so the next put of
    # the key appends the record the failed one could not
    path = tmp_path / "weight-counts.jsonl"
    cache = CountCache(str(tmp_path))
    real, failures = getattr(os, call), [errno.ENOSPC]

    def fails_once(*args):
        if failures:
            code = failures.pop()
            raise OSError(code, os.strerror(code))
        return real(*args)

    monkeypatch.setattr(counting.os, call, fails_once)
    with pytest.raises(OSError):
        cache.put(3, 3, 6, (2, 2), 25)
    assert cache.get(3, 3, 6, (2, 2)) is None and len(cache) == 0
    assert not path.exists() or path.read_bytes() == b""
    cache.put(3, 3, 6, (2, 2), 25)
    assert cache.get(3, 3, 6, (2, 2)) == 25
    assert path.read_bytes() == b'{"n": 3, "d": 3, "k": 6, "mu": [2, 2], "count": "25"}\n'


def test_a_put_after_a_torn_write_starts_a_line_of_its_own(tmp_path, monkeypatch):
    # a write that reaches the file in part and then fails leaves it
    # mid-line; the next record must not be glued onto the torn bytes
    path = tmp_path / "weight-counts.jsonl"
    write, calls = os.write, []

    def torn(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return write(fd, bytes(data[:3]))
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(counting.os, "write", torn)
    cache = CountCache(str(tmp_path))
    with pytest.raises(OSError):
        cache.put(3, 3, 6, (2, 2), 25)
    monkeypatch.undo()
    assert path.read_bytes() == b'{"n'
    cache.put(2, 2, 2, (0,), 2)
    assert path.read_bytes() == b'{"n\n{"n": 2, "d": 2, "k": 2, "mu": [0], "count": "2"}\n'
    reloaded = CountCache(str(tmp_path))
    assert (reloaded.skipped, len(reloaded), reloaded.get(2, 2, 2, (0,))) == (1, 1, 2)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_cache_file_has_the_mode_of_an_append_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        CountCache(str(tmp_path / "cache")).put(2, 2, 2, (0,), 2)
        with open(tmp_path / "appended", "a"):
            pass
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "cache" / "weight-counts.jsonl").st_mode & 0o777
    assert mode == 0o666 & ~umask == os.stat(tmp_path / "appended").st_mode & 0o777


def test_weight_multiplicity_consults_cache(tmp_path):
    cache = CountCache(str(tmp_path))
    # seed a sentinel value: a hit must short-circuit the computation
    cache.put(2, 2, 2, (0,), 9999)
    assert weight_multiplicity(2, 2, 2, (0,), cache=cache) == 9999
    fresh = CountCache(str(tmp_path / "fresh"))
    assert weight_multiplicity(2, 2, 2, (0,), cache=fresh) == 2
    assert fresh.get(2, 2, 2, (0,)) == 2


def _half_cached(directory, n, d, kmax):
    """The orbit terms of a table to ``kmax``, its feasible ``(k, w, c)``,
    and a cache holding the right count at every other one of them."""
    terms = signed_orbit_terms(n, kd=kmax * d)
    feasible = [
        (k, w, c) for k in range(kmax + 1) for w, c in terms
        if moment_targets(n, d, k, w) is not None
    ]
    cache = CountCache(str(directory))
    for k, w, _ in feasible[::2]:
        cache.put(n, d, k, w, weight_multiplicity(n, d, k, w))
    return terms, feasible, cache


@pytest.mark.parametrize("n, d, kmax", [(2, 4, 12), (3, 3, 10), (4, 2, 6)])
def test_cached_and_expanded_reads_in_one_call(tmp_path, monkeypatch, n, d, kmax):
    # cache hits and expanded reads in one call add up to the uncached table
    terms, feasible, cache = _half_cached(tmp_path, n, d, kmax)
    misses = [(k, w) for k, w, _ in feasible[1::2]]
    before = os.path.getsize(cache.path)
    expected = hilbert_series_prefix(n, d, kmax)
    real = TruncatedSeries.coefficient
    reads = []

    def recording(self, k, moments):
        reads.append(k)
        return real(self, k, moments)

    monkeypatch.setattr(TruncatedSeries, "coefficient", recording)
    assert signed_counts(n, d, range(kmax + 1), terms, cache=cache) == expected
    assert sorted(reads) == sorted(k for k, _ in misses)
    # the misses are appended, each once; the hits are not
    with open(cache.path, encoding="utf-8") as fh:
        fh.seek(before)
        appended = [json.loads(line) for line in fh]
    assert sorted((r["k"], tuple(r["mu"])) for r in appended) == sorted(misses)


def test_a_bad_cached_count_among_expanded_reads_names_the_cache(tmp_path):
    n, d, kmax = 3, 3, 10
    terms, feasible, cache = _half_cached(tmp_path, n, d, kmax)
    # one negative term's count, far too large, drives its degree negative
    k, w = next((k, w) for k, w, c in feasible[1::2] if c < 0)
    cache.put(n, d, k, w, 10**6)
    with pytest.raises(ValueError, match=f"at \\(n=3, d=3, k={k}\\): .*holds a bad count") as info:
        signed_counts(n, d, range(kmax + 1), terms, cache=cache)
    assert cache.path in str(info.value)


def test_a_cached_read_plan_lists_each_repeated_degree_once(tmp_path, monkeypatch):
    # degrees repeated and unsorted: each distinct degree is planned once,
    # from the last listed down, each feasible (k, w) is read once and
    # appended to the cache once, and a second call reads nothing
    n, d, degrees = 3, 3, [4, 2, 4, 0]
    terms = signed_orbit_terms(n, kd=max(degrees) * d)
    expected = signed_counts(n, d, degrees, terms)
    feasible = {
        (k, w): moment_targets(n, d, k, w)
        for k in (0, 4, 2) for w, _ in terms
        if moment_targets(n, d, k, w) is not None
    }
    real = TruncatedSeries.coefficient
    reads = []

    def recording(self, k, moments):
        reads.append((k, tuple(moments)))
        return real(self, k, moments)

    monkeypatch.setattr(TruncatedSeries, "coefficient", recording)
    cache = CountCache(str(tmp_path))
    assert signed_counts(n, d, degrees, terms, cache=cache) == expected
    assert sorted(reads) == sorted((k, t) for (k, _), t in feasible.items())
    with open(cache.path, encoding="utf-8") as fh:
        appended = [json.loads(line) for line in fh]
    assert [(r["k"], tuple(r["mu"])) for r in appended] == list(feasible)
    reads.clear()
    assert signed_counts(n, d, degrees, terms, cache=CountCache(str(tmp_path))) == expected
    assert reads == []

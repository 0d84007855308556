import itertools
import json
import os
import random

import pytest

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
from reference import dominant_representative


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

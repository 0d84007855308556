import itertools
import json
import random

import pytest

from naryinv.counting import (
    CountCache,
    cache_from_env,
    moment_targets,
    weight_multiplicity,
)
from naryinv.dimensions import invariant_dimension
from naryinv.errors import ResourceLimitError
from naryinv.forms import enumerate_indices, weight_from_moments
from naryinv.oracles import brute_character, symmetric_power_dimension
from naryinv.series import expand_generating_series
from naryinv.weights import dominant_representative


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
    for n, d, k in [(2, 2, 3), (2, 3, 2), (3, 2, 3), (3, 3, 2)]:
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


def test_cache_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("NARY_CACHE_DIR", raising=False)
    assert cache_from_env() is None
    monkeypatch.setenv("NARY_CACHE_DIR", str(tmp_path))
    cache = cache_from_env()
    assert cache is not None
    cache.put(2, 1, 1, (1,), 1)
    assert (tmp_path / "weight-counts.jsonl").exists()

import io
import json
import random
from fractions import Fraction

import pytest

from naryinv.counting import moment_targets
from naryinv.dimensions import invariant_dimension
from naryinv.errors import ResourceLimitError, TruncationError
from naryinv.forms import weight_from_moments
from naryinv.oracles import brute_character
from naryinv.series import dump_series, expand_generating_series


def test_expand_first_order_binary_linear():
    series = expand_generating_series(2, 1, 1)
    assert series.coefficients == {
        (0, (0,)): 1,
        (1, (0,)): 1,
        (1, (1,)): 1,
    }


def test_expand_degree_zero():
    for n, d in [(2, 1), (3, 3), (4, 2)]:
        series = expand_generating_series(n, d, 0)
        assert series.coefficients == {(0, (0,) * (n - 1)): 1}


def test_coefficient_examples():
    series = expand_generating_series(2, 2, 2)
    assert series.coefficient(0, (0,)) == 1
    assert series.coefficient(2, (2,)) == 2
    assert series.coefficient(2, (5,)) == 0
    with pytest.raises(TruncationError):
        series.coefficient(3, (0,))
    with pytest.raises(ValueError):
        series.coefficient(-1, (0,))


def test_series_matches_brute_character_tally():
    for n, d, bound in [(2, 2, 5), (2, 3, 4), (3, 2, 4), (3, 3, 3)]:
        series = expand_generating_series(n, d, bound)
        tallies = [brute_character(n, d, k).multiplicities for k in range(bound + 1)]
        for (k, mom), value in series.coefficients.items():
            assert tallies[k][weight_from_moments(n, d, k, mom)] == value
        # absent entries are genuinely zero counts
        rng = random.Random(bound * 7 + n)
        for _ in range(20):
            k = rng.randint(0, bound)
            probe = tuple(rng.randint(0, d * bound) for _ in range(n - 1))
            if (k, probe) not in series.coefficients:
                assert series.coefficient(k, probe) == 0
                weight = weight_from_moments(n, d, k, probe)
                assert tallies[k].get(weight, 0) == 0


def test_moment_bounds_invariant():
    series = expand_generating_series(3, 2, 3)
    assert series.coefficients[(0, (0, 0))] == 1
    for (k, mom) in series.coefficients:
        assert 0 <= k <= 3
        assert all(0 <= x <= 2 * 3 for x in mom)


def test_truncation_monotonicity():
    small = expand_generating_series(3, 2, 3)
    large = expand_generating_series(3, 2, 5)
    for key, value in small.coefficients.items():
        assert large.coefficients[key] == value


def test_moment_shift_denominator_and_target_relation():
    # the targets are k*d/n minus a rational shift of the weight: the mean
    # weighted sum minus a tail sum, with denominator dividing n
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 5)
        w = tuple(rng.randint(-6, 6) for _ in range(n - 1))
        head = Fraction(sum((r + 1) * m for r, m in enumerate(w)), n)
        shifts = [head - sum(w[s + 1:]) for s in range(n - 1)]
        assert all((n * s).denominator == 1 for s in shifts)
        d, k = rng.randint(1, 4), rng.randint(0, 5)
        targets = moment_targets(n, d, k, w)
        expected = [Fraction(k * d, n) - s for s in shifts]
        if targets is None:
            assert any(t.denominator != 1 or t < 0 for t in expected)
        else:
            assert list(targets) == expected


def _by_series(n, d, k, series=None):
    if series is None:
        series = expand_generating_series(n, d, k)
    return invariant_dimension(n, d, k, series=series)


def test_invariant_dimension_by_series_examples():
    assert _by_series(2, 2, 2) == 1
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        assert _by_series(n, d, 0) == 1
    assert _by_series(3, 3, 1) == 0


def test_path_equivalence_on_grid():
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            series = expand_generating_series(n, d, 8)
            for k in range(9):
                assert _by_series(n, d, k, series) == invariant_dimension(n, d, k)


def test_series_reuse_validation():
    series = expand_generating_series(2, 2, 4)
    with pytest.raises(ValueError):
        _by_series(3, 2, 2, series)
    with pytest.raises(TruncationError):
        _by_series(2, 2, 6, series)


def test_expansion_resource_limit():
    with pytest.raises(ResourceLimitError):
        expand_generating_series(3, 3, 6, max_terms=10)


def test_dump_series_json_lines():
    series = expand_generating_series(2, 2, 2)
    buf = io.StringIO()
    written = dump_series(series, buf)
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    assert written == len(lines) == len(series.coefficients)
    rebuilt = {}
    for line in lines:
        rec = json.loads(line)
        rebuilt[(rec["k"], tuple(rec["moments"]))] = int(rec["coefficient"])
    assert rebuilt == series.coefficients

import io
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from naryinv.counting import moment_targets
from naryinv.dimensions import hilbert_series_prefix, invariant_dimension
from naryinv.errors import InternalError, ResourceLimitError, TruncationError
from naryinv.forms import weight_from_moments
from naryinv.oracles import brute_character
from naryinv.series import (
    MAX_TERMS,
    _places,
    _span,
    check_expansion_size,
    dump_series,
    expand_generating_series,
)


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


def test_series_is_an_immutable_value():
    series = expand_generating_series(3, 3, 4)
    assert isinstance(series, tuple)
    with pytest.raises(AttributeError):
        series.layers = ()
    # equal expansions are equal values, and each read of the dict is fresh
    assert series == expand_generating_series(3, 3, 4)
    assert series.coefficients is not series.coefficients
    assert series.coefficients == dict(series.nonzero())


def test_coefficient_examples():
    series = expand_generating_series(2, 2, 2)
    assert series.coefficient(0, (0,)) == 1
    assert series.coefficient(2, (2,)) == 2
    assert series.coefficient(2, (5,)) == 0
    with pytest.raises(TruncationError):
        series.coefficient(3, (0,))
    with pytest.raises(ValueError):
        series.coefficient(-1, (0,))
    with pytest.raises(ValueError, match="length n - 1 = 1, got 2"):
        series.coefficient(2, (1, 1))


def test_nonzero_refuses_a_count_past_the_cells_a_layer_spans():
    series = expand_generating_series(2, 2, 2)
    # layer 0 spans one cell; a count in the next field lies past it
    bad = series._replace(layers=(1 << series.width, *series.layers[1:]))
    with pytest.raises(InternalError, match="layer 0 holds a count past the cells it spans"):
        list(bad.nonzero())


def test_series_matches_brute_character_tally():
    for n, d, bound in [(2, 2, 5), (2, 3, 4), (3, 2, 4), (3, 3, 3)]:
        series = expand_generating_series(n, d, bound)
        tallies = [brute_character(n, d, k).multiplicities for k in range(bound + 1)]
        # a fresh dict on each read, so read it once
        coefficients = series.coefficients
        for (k, mom), value in coefficients.items():
            assert tallies[k][weight_from_moments(n, d, k, mom)] == value
        # absent entries are genuinely zero counts
        rng = random.Random(bound * 7 + n)
        for _ in range(20):
            k = rng.randint(0, bound)
            probe = tuple(rng.randint(0, d * bound) for _ in range(n - 1))
            if (k, probe) not in coefficients:
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
    large_coefficients = large.coefficients
    for key, value in small.coefficients.items():
        assert large_coefficients[key] == value


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
    # uncapped series, a capped expansion per degree, and one expansion
    # capped at the targets of every degree
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            series = expand_generating_series(n, d, 8)
            prefix = hilbert_series_prefix(n, d, 8)
            for k in range(9):
                assert _by_series(n, d, k, series) == invariant_dimension(n, d, k) == prefix[k]


def test_series_reuse_validation():
    series = expand_generating_series(2, 2, 4)
    with pytest.raises(ValueError):
        _by_series(3, 2, 2, series)
    with pytest.raises(TruncationError):
        _by_series(2, 2, 6, series)


def test_expansion_resource_limit():
    with pytest.raises(ResourceLimitError):
        expand_generating_series(3, 3, 6, max_terms=10)


def test_expansion_limit_checked_before_allocating():
    cases = [
        # every layer holds the all-zero-index term, so a bound below the
        # number of layers is refused before any layer is built
        lambda: expand_generating_series(2, 1, 10**6, max_terms=10),
        # at the default limit: the layers of (2, 1) up to degree 100,000
        # would span about 5 * 10**9 cells, counted from the layout alone
        lambda: expand_generating_series(2, 1, 100_000, max_terms=MAX_TERMS),
        # a read plan over three million degrees is refused at its top
        # degree, before the reads of the degrees below are listed
        lambda: hilbert_series_prefix(2, 1, 3_000_000),
    ]
    for refused in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                refused()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_expansion_size_is_the_sum_of_the_layer_spans():
    # the closed form counts what the layers span one by one (the per-layer
    # count that nonzero unpacks by): a limit at that count passes, and
    # one below it is refused with both numbers named
    for dims, d, top in itertools.product(range(1, 4), range(1, 4), range(5)):
        for caps in itertools.product(range(d * top + 1), repeat=dims):
            places = _places(caps)
            cells = sum(_span(d, k, caps, places) for k in range(top + 1))
            check_expansion_size(d, top, caps, cells)
            expected = f"at least {cells} cells, above the limit {cells - 1}$"
            with pytest.raises(ResourceLimitError, match=expected):
                check_expansion_size(d, top, caps, cells - 1)


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

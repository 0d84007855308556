import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naryinv.counting as counting_mod
import naryinv.series as series_mod
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
    # a negative moment is out of reach: it reads 0
    assert series.coefficient(2, (-1,)) == 0
    # the checks run in order: the length, then the reach, then the caps
    capped = expand_generating_series(3, 2, 2, caps=(1, 4))
    assert capped.caps == (1, 4)
    with pytest.raises(ValueError, match="length n - 1 = 2, got 3"):
        capped.coefficient(2, (-1, 9, 9))
    # one moment past a cap, another past d * k: out of reach, so 0
    assert capped.coefficient(2, (2, 5)) == 0
    assert capped.coefficient(2, (-1, 2)) == 0
    # within reach but past a cap: the expansion dropped it
    with pytest.raises(TruncationError, match="beyond the expansion caps"):
        capped.coefficient(2, (2, 0))
    assert capped.coefficient(2, (1, 3)) == expand_generating_series(3, 2, 2).coefficient(2, (1, 3))


def test_a_line_reads_only_whole_steps_of_itself():
    # a line's degrees are k - j * n / gcd(n, d) for j >= 0: at n = 3, d = 2
    # a step is 3 degrees and lowers the moments by 2
    series = expand_generating_series(3, 2, 7)
    points = [(1, (1, 0)), (4, (3, 2)), (7, (5, 4))]
    assert series.line(7, (5, 4), [1, 4, 7]) == [series.coefficient(*point) for point in points]
    assert series.line(7, (5, 4), [1, 7]) == [series.coefficient(*points[i]) for i in (0, 2)]
    assert series.line(7, (5, 4), []) == []
    for off in (5, 10):
        with pytest.raises(ValueError, match=f"degree {off} is off the line ending at 7 by steps of 3"):
            series.line(7, (5, 4), [1, off, 7])


def test_nonzero_refuses_a_count_past_the_cells_a_layer_spans():
    series = expand_generating_series(2, 2, 2)
    # layer 0 spans one cell; a count in the next field lies past it
    bad = series._replace(layers=(1 << series.width, *series.layers[1:]))
    with pytest.raises(InternalError, match="layer 0 holds a count past the cells it spans"):
        list(bad.nonzero())
    # at a width off the byte, a count past the last cell can still lie in
    # the byte that cell ends in: the bits are compared, not the bytes
    odd = series._replace(width=5, layers=(1 << 5, *series.layers[1:]))
    with pytest.raises(InternalError, match="layer 0 holds a count past the cells it spans"):
        list(odd.nonzero())


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


def _safe_width(series):
    """Bits of the number of top-degree monomials in the indices an
    expansion multiplies in (its degree-1 monomials): the width no count
    can outgrow."""
    indices = sum(c for (k, _), c in series.nonzero() if k == 1)
    top = math.comb(indices + series.degree_bound - 1, series.degree_bound)
    return top.bit_length()


def test_fields_hold_every_count_below_clear_guard_bits():
    # a field is never wider than the bits of the number of top-degree
    # monomials, and a narrower one ends with its
    # (degree_bound + 1).bit_length() guard bits clear in every layer
    cases = [
        (2, 2, 15, None, 8),  # 136 monomials: w + g = 6 + 5 is past their 8 bits
        (2, 1, 254, None, 8),  # 255 monomials fill 8 bits
        (2, 1, 255, None, 9),  # 256 need 9 bits, below w + g = 4 + 9
        (2, 1, 255, (0,), 1),  # one monomial: 1 bit, below w + g = 4 + 9
        (3, 3, 6, None, 10),  # w + g = 10, below the 13 bits of 5,005 monomials
        (4, 2, 5, (3, 2, 4), 11),  # 2,002 monomials: 11 bits, below w + g = 12
    ]
    for n, d, bound, caps, width in cases:
        series = expand_generating_series(n, d, bound, caps=caps)
        assert series.width == width <= _safe_width(series), (n, d, bound, caps)
        if width < _safe_width(series):
            below = 1 << (width - (bound + 1).bit_length())
            assert all(count < below for _, count in series.nonzero()), (n, d, bound, caps)
    # 1,936 bits of layers at 8 bits a field, and the top degree is right
    series = expand_generating_series(2, 2, 15)
    assert sum(layer.bit_length() for layer in series.layers) == 1936
    top = {weight_from_moments(2, 2, 15, m): c for (k, m), c in series.coefficients.items() if k == 15}
    assert top == brute_character(2, 2, 15).multiplicities


def _packed(n, d, bound, caps, places, width):
    """The layers an expansion holds at ``width``, packed from the
    brute-force tallies, which share no code with the engine."""
    layers = []
    for k in range(bound + 1):
        tally = brute_character(n, d, k).multiplicities
        layer = 0
        for m in itertools.product(*(range(min(c, d * k) + 1) for c in caps)):
            count = tally.get(weight_from_moments(n, d, k, m), 0)
            layer |= count << (sum(map(int.__mul__, m, places)) * width)
        layers.append(layer)
    return tuple(layers)


# the code of `_multiply` itself: a call to it is seen in its own frame,
# so whatever a wrapper round it passes on is what is read
_MULTIPLY_CODE = series_mod._multiply.__code__


def _first_indices(n, d, bound, caps):
    """The first of the indices each `_multiply` call gets while
    ``expand_generating_series(n, d, bound, caps=caps)`` runs."""
    firsts = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _MULTIPLY_CODE:
            firsts.append(frame.f_locals["indices"][0])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        expand_generating_series(n, d, bound, caps=caps)
    finally:
        sys.setprofile(previous)
    return firsts


def test_the_zero_index_is_multiplied_in_first():
    # the module docstring's guard argument: the zero moment vector, at
    # cell 0, goes in before any other index, under full and clipped caps
    for n, d, bound in itertools.product(range(2, 6), range(1, 5), range(4)):
        for caps in (None, (d * bound // 2,) * (n - 1), tuple(range(n - 1))):
            firsts = _first_indices(n, d, bound, caps)
            assert firsts and set(firsts) == {((0,) * (n - 1), 0)}, (n, d, bound, caps)


def test_a_start_width_too_small_restarts_once_at_the_bits_of_top(monkeypatch):
    multiply = series_mod._multiply
    runs = []

    def counted(*args):
        layers = multiply(*args)
        runs.append(layers is not None)
        return layers

    # (n, d, bound, caps, the width at the bits of top, the unforced width)
    cases = [(3, 2, 8, None, 11, 10), (3, 3, 6, None, 13, 10), (4, 2, 5, (3, 2, 4), 11, 11)]
    for n, d, bound, caps, safe, start in cases:
        narrow = expand_generating_series(n, d, bound, caps=caps)
        with monkeypatch.context() as patch:
            patch.setattr(series_mod, "_start_width", lambda top, span: 1)
            patch.setattr(series_mod, "_multiply", counted)
            runs.clear()
            forced = expand_generating_series(n, d, bound, caps=caps)
        # the guard trips on the narrow pass, and the pass at the bits of
        # top, which is not guarded, gives every layer as packed by brute force
        assert runs == [False, True], (n, d, bound, caps)
        assert (forced.width, narrow.width) == (safe, start), (n, d, bound, caps)
        assert forced.width == _safe_width(forced)
        assert forced.layers == _packed(n, d, bound, forced.caps, forced.places, forced.width)
        assert forced.coefficients == narrow.coefficients


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nonzero_and_coefficient_agree_at_widths_off_the_byte(data):
    n, d = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
    bound = data.draw(st.integers(0, 4))
    caps = tuple(data.draw(st.integers(0, d * bound)) for _ in range(n - 1))
    series = expand_generating_series(n, d, bound, caps=caps)
    # the engine's own width, and the same counts repacked at another
    # width that holds them and is not a whole number of bytes
    least = max(count for _, count in series.nonzero()).bit_length()
    width = data.draw(st.integers(least, 40).filter(lambda w: w % 8))
    cells = [(k, m) for k in range(bound + 1)
             for m in itertools.product(*(range(min(c, d * k) + 1) for c in series.caps))]
    layers = [0] * (bound + 1)
    for k, m in cells:
        cell = sum(map(int.__mul__, m, series.places))
        layers[k] |= series.coefficient(k, m) << (cell * width)
    for packed in (series, series._replace(width=width, layers=tuple(layers))):
        read = dict(packed.nonzero())
        assert all(packed.coefficient(k, m) == read.get((k, m), 0) for k, m in cells)
        assert all(value for value in read.values())
    assert dict(series.nonzero()) == read


def test_a_deep_capped_query_reads_narrow_fields(monkeypatch):
    # nu 6 2 18 reads one expansion to degree 18, 55,440 cells a layer:
    # the bits of its top-degree monomials give its fields 35 bits, the
    # guarded start 28
    built = []

    def expand(*args):
        built.append(expand_generating_series(*args))
        return built[-1]

    monkeypatch.setattr(counting_mod, "expand_generating_series", expand)
    assert invariant_dimension(6, 2, 18) == 1
    (series,) = built
    assert series.width <= 30 < _safe_width(series) == 35


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


# sha256 of every nonzero coefficient of the uncapped expansion, one JSON
# line each in the order nonzero() yields them, as the CLI's former
# `series --dump` wrote them before the layers were packed into ints
UNCAPPED_DIGESTS = {
    (3, 3, 12): "454c923bb56844bc9290318d130a7bd6b5c864fbd947dd65ba671b3c3d1ea551",
    (5, 2, 10): "815e8e55e7fadecba01b3c7301fc875ac059b07f8bac30ca61476183f18cc817",
}


@pytest.mark.parametrize("query", sorted(UNCAPPED_DIGESTS))
def test_uncapped_expansion_bytes_pinned(query):
    text = "".join(
        json.dumps({"k": k, "moments": list(moments), "coefficient": str(value)}) + "\n"
        for (k, moments), value in expand_generating_series(*query).nonzero()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == UNCAPPED_DIGESTS[query]

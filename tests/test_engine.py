"""Differential tests of the series engine against brute-force weight tallies.

The tally enumerates every monomial and shares no code with the packed
expansion, so any disagreement is a fault of the engine: of its packing,
its guard bits, its caps or the targets it reads.
"""

import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naryinv.counting import signed_counts, weight_multiplicity
from naryinv.errors import TruncationError
from naryinv.forms import weight_from_moments
from naryinv.oracles import brute_character
from naryinv.series import expand_generating_series

SETTINGS = settings(max_examples=60, deadline=None)


@functools.cache
def tally(n, d, k):
    return brute_character(n, d, k).multiplicities


@st.composite
def degrees(draw):
    return draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 5))


def weights(n, d, k):
    """Weights of the tally (nonzero counts) mixed with arbitrary integer
    weights: non-dominant, infeasible or out of range."""
    bound = k * d + 2
    anywhere = st.tuples(*[st.integers(-bound, bound)] * (n - 1))
    return st.one_of(st.sampled_from(sorted(tally(n, d, k))), anywhere)


@SETTINGS
@given(st.data())
def test_weight_multiplicity_equals_tally(data):
    n, d, k = data.draw(degrees())
    w = data.draw(weights(n, d, k))
    assert weight_multiplicity(n, d, k, w) == tally(n, d, k).get(w, 0)


@SETTINGS
@given(st.data())
def test_weights_sharing_one_expansion(data):
    # several terms over several degrees are read off one expansion, capped
    # at the coordinatewise maxima of their targets, so the caps differ per
    # component and most targets sit below some cap; the coefficients are
    # distinct powers of 3, so a read credited to the wrong term or degree
    # changes a sum
    n, d, k = data.draw(degrees())
    ks = data.draw(st.lists(st.integers(0, k), min_size=1, max_size=4))
    ws = data.draw(st.lists(weights(n, d, k), min_size=1, max_size=6))
    terms = [(w, 3**i) for i, w in enumerate(ws)]
    expected = [sum(c * tally(n, d, j).get(w, 0) for w, c in terms) for j in ks]
    assert signed_counts(n, d, ks, terms) == expected


@st.composite
def capped_cases(draw):
    n, d, k = draw(degrees())
    caps = draw(st.tuples(*[st.integers(0, d * k + 1)] * (n - 1)))
    return n, d, k, caps


@SETTINGS
@given(capped_cases())
# caps on and just past a field boundary (2**width - 1 and 2**width)
@example((3, 2, 4, (7, 1)))
@example((3, 3, 3, (8, 0)))
@example((4, 2, 4, (3, 4, 0)))
@example((2, 1, 5, (3,)))
# caps below d: one index entry must not carry out of a narrow field
@example((3, 4, 2, (0, 1)))
def test_capped_expansion_equals_tally(case):
    n, d, k, caps = case
    series = expand_generating_series(n, d, k, caps=caps)
    table = tally(n, d, k)
    for m in itertools.product(*(range(c + 1) for c in caps)):
        if all(x <= d * k for x in m):
            expected = table.get(weight_from_moments(n, d, k, m), 0)
            assert series.coefficient(k, m) == expected
    # a moment the caps dropped is unknown, not zero
    for s, c in enumerate(caps):
        if c < d * k:
            beyond = tuple(c + 1 if t == s else 0 for t in range(n - 1))
            with pytest.raises(TruncationError):
                series.coefficient(k, beyond)

"""Differential tests of the series engine against brute-force weight tallies.

The tally enumerates every monomial and shares no code with the packed
expansion, so any disagreement is a fault of the engine: of its cell
layout, its field width, its cap masks or the targets it reads.
"""

import functools
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naryinv.counting import signed_counts, weight_multiplicity
from naryinv.errors import TruncationError
from naryinv.forms import weight_from_moments
from naryinv.oracles import brute_character
from naryinv.series import expand_generating_series

SETTINGS = settings(max_examples=80, deadline=None)


@functools.cache
def tally(n, d, k):
    return brute_character(n, d, k).multiplicities


#: most monomials a drawn degree may have, so that the tally stays quick;
#: it admits every k <= 5 for n <= 4 (the largest, (4, 3, 5), has 42,504)
#: and bounds k only at n = 5
MAX_MONOMIALS = 50_000


@st.composite
def degrees(draw):
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    indices = math.comb(n - 1 + d, d)
    top = max(k for k in range(6) if math.comb(indices + k - 1, k) <= MAX_MONOMIALS)
    return n, d, draw(st.integers(0, top))


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
    # caps on the edges of a radix: 0, below d, at d and next to it, so at
    # or next to an index entry, as well as anywhere up to just past d * k
    n, d, k = draw(degrees())
    edges = st.sampled_from(sorted({0, 1, d - 1, d, d + 1}))
    cap = st.one_of(edges, st.integers(0, d * k + 1))
    return n, d, k, draw(st.tuples(*[cap] * (n - 1)))


@SETTINGS
@given(capped_cases())
# caps at 2**j - 1 and 2**j, and caps that differ by component
@example((3, 2, 4, (7, 1)))
@example((3, 3, 3, (8, 0)))
@example((4, 2, 4, (3, 4, 0)))
@example((2, 1, 5, (3,)))
# caps below d: one index entry alone passes the cap of its radix
@example((3, 4, 2, (0, 1)))
# cap 0 on some radices, others open: the index entries that reach them
# are dropped, the rest must still land in the right cells
@example((4, 2, 3, (0, 6, 6)))
@example((5, 2, 3, (6, 0, 6, 0)))
# a cap below d and a cap equal to an index entry, at rank 5
@example((5, 3, 2, (2, 3, 1, 6)))
@example((5, 2, 3, (2, 1, 2, 2)))
# cap 0 leaves only the zero index, so the fields are 8 bits wide, half
# the width of the uncapped expansion's
@example((2, 1, 255, (0,)))
def test_capped_expansion_equals_tally(case):
    n, d, k, caps = case
    series = expand_generating_series(n, d, k, caps=caps)
    # the engine masks every layer, so every layer is checked
    for j in range(k + 1):
        table = tally(n, d, j)
        for m in itertools.product(*(range(min(c, d * j) + 1) for c in caps)):
            expected = table.get(weight_from_moments(n, d, j, m), 0)
            assert series.coefficient(j, m) == expected
    # a moment the caps dropped is unknown, not zero
    for s, c in enumerate(caps):
        if c < d * k:
            beyond = tuple(c + 1 if t == s else 0 for t in range(n - 1))
            with pytest.raises(TruncationError):
                series.coefficient(k, beyond)

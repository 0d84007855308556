import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import naryinv.errors as errors_mod
import naryinv.forms as forms_mod
from naryinv.forms import enumerate_indices
from naryinv.oracles import brute_character, character_tables
from reference import coefficient_weight, monomial_weight


def test_enumerate_indices_examples():
    assert enumerate_indices(2, 2) == [(0,), (1,), (2,)]
    assert enumerate_indices(3, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(enumerate_indices(3, 3)) == 10


def test_enumeration_matches_counting_formula():
    for n in range(2, 6):
        for d in range(1, 5):
            indices = enumerate_indices(n, d)
            assert len(indices) == math.comb(n - 1 + d, n - 1)
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)
            assert all(sum(i) <= d and min(i) >= 0 for i in indices)


def test_enumeration_has_no_bound_of_its_own(monkeypatch):
    # each caller sizes a superset of the index set under its own limit,
    # so a limit it raises must not meet a hidden one on the index set
    monkeypatch.setattr(errors_mod, "MAX_TERMS", 5)
    monkeypatch.setattr(forms_mod, "MAX_TERMS", 5, raising=False)
    assert len(list(character_tables(3, 3, 1, max_terms=100))) == 2
    assert brute_character(3, 3, 1, max_monomials=100).multiplicities


def test_coefficient_weight_examples():
    for n, d in [(2, 1), (3, 3), (4, 2)]:
        assert coefficient_weight(n, d, (0,) * (n - 1)) == (d,) + (0,) * (n - 2)
    assert coefficient_weight(2, 2, (1,)) == (0,)
    assert coefficient_weight(3, 3, (1, 1)) == (0, 0)


def test_monomial_weight_examples():
    assert monomial_weight(3, 2, {}) == (0, 0)
    assert monomial_weight(2, 2, {(1,): 2}) == (0,)
    assert monomial_weight(2, 3, {(0,): 1, (3,): 1}) == (0,)


def _random_exponent(rng, indices):
    support = rng.sample(indices, k=rng.randint(0, min(4, len(indices))))
    return {i: rng.randint(1, 3) for i in support}


def test_monomial_weight_is_additive_and_consistent():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 4)
        d = rng.randint(1, 4)
        indices = enumerate_indices(n, d)
        a = _random_exponent(rng, indices)
        b = _random_exponent(rng, indices)
        merged = dict(a)
        for i, e in b.items():
            merged[i] = merged.get(i, 0) + e
        wa, wb = monomial_weight(n, d, a), monomial_weight(n, d, b)
        assert monomial_weight(n, d, merged) == tuple(
            x + y for x, y in zip(wa, wb)
        )
        # the weight is the exponent-weighted sum of the factor weights
        expected = [0] * (n - 1)
        for i, e in a.items():
            for s, x in enumerate(coefficient_weight(n, d, i)):
                expected[s] += e * x
        assert wa == tuple(expected)


@settings(max_examples=60)
@given(st.integers(1, 5), st.data())
def test_first_component_bound(d, data):
    n = data.draw(st.integers(2, 4))
    indices = enumerate_indices(n, d)
    exponent = data.draw(
        st.dictionaries(st.sampled_from(indices), st.integers(0, 4), max_size=5)
    )
    k = sum(exponent.values())
    w = monomial_weight(n, d, exponent)
    assert -k * d <= w[0] <= k * d


def test_validation_errors():
    with pytest.raises(ValueError):
        coefficient_weight(3, 2, (1,))
    with pytest.raises(ValueError):
        coefficient_weight(2, 2, (3,))
    with pytest.raises(ValueError):
        coefficient_weight(2, 2, (-1,))
    with pytest.raises(ValueError):
        monomial_weight(2, 2, {(1,): -1})
    with pytest.raises(ValueError):
        enumerate_indices(2, 0)
    with pytest.raises(ValueError):
        enumerate_indices(1, 2)

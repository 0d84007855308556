import math
import random

import pytest
from hypothesis import given, strategies as st

import naryinv.weights as weights_mod
from naryinv.errors import ResourceLimitError
from naryinv.weights import (
    dominant_representative,
    from_ambient,
    signed_orbit_terms,
    signed_permutations,
    to_ambient,
    weyl_vector,
)


def test_to_ambient_examples():
    assert to_ambient((1, 1)) == (0, 1, 2)
    assert to_ambient((0, 0)) == (0, 0, 0)
    assert to_ambient((2,)) == (0, 2)


def test_round_trip_on_random_weights():
    rng = random.Random(20240811)
    for _ in range(1000):
        n = rng.randint(2, 6)
        w = tuple(rng.randint(-20, 20) for _ in range(n - 1))
        assert from_ambient(to_ambient(w)) == w


def test_ambient_normalised_to_min_zero():
    assert min(to_ambient((-3, 1))) == 0
    assert min(to_ambient((5, -9, 2))) == 0


def test_dominant_representative_examples():
    assert dominant_representative((2, -1)) == (1, 1)
    assert dominant_representative((-1, 2)) == (1, 1)
    assert dominant_representative((0, 0)) == (0, 0)
    assert dominant_representative((-1, -1)) == (1, 1)


weights = st.integers(2, 5).flatmap(
    lambda n: st.tuples(*([st.integers(-15, 15)] * (n - 1)))
)


@given(weights)
def test_dominant_representative_is_dominant_and_idempotent(w):
    dom = dominant_representative(w)
    assert all(x >= 0 for x in dom)
    assert dominant_representative(dom) == dom


@given(weights, st.randoms(use_true_random=False))
def test_dominant_representative_is_orbit_invariant(w, rng):
    ambient = list(to_ambient(w))
    rng.shuffle(ambient)
    assert dominant_representative(from_ambient(ambient)) == dominant_representative(w)


def test_weyl_vector():
    assert weyl_vector(3) == (1, 1)
    assert weyl_vector(2) == (1,)
    assert weyl_vector(5) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        weyl_vector(1)


def test_five_term_identity_rank_three():
    assert signed_orbit_terms(3) == [
        ((0, 0), 1),
        ((1, 1), -2),
        ((2, 2), -1),
        ((0, 3), 1),
        ((3, 0), 1),
    ]


def test_orbit_terms_rank_two():
    assert signed_orbit_terms(2) == [((0,), 1), ((2,), -1)]
    for d in (1, 3, 7):
        assert signed_orbit_terms(2, shift=(d,)) == [((d,), 1), ((d + 2,), -1)]


def test_identity_term_always_present_with_coefficient_one():
    # the half-sum of positive roots is regular, so only the identity maps
    # it to itself
    for n in range(2, 7):
        terms = dict(signed_orbit_terms(n))
        assert terms[(0,) * (n - 1)] == 1


def test_raw_signs_sum_to_zero():
    for n in range(2, 7):
        assert sum(sign for sign, _ in signed_permutations(n)) == 0


def test_aggregated_coefficients_bounded_by_group_order():
    for n in range(2, 7):
        terms = signed_orbit_terms(n)
        assert sum(abs(c) for _, c in terms) <= math.factorial(n)


def test_orbit_terms_are_dominant_and_deduplicated():
    for n in range(2, 7):
        terms = signed_orbit_terms(n)
        doms = [t.dominant for t in terms]
        assert len(set(doms)) == len(doms)
        assert all(all(x >= 0 for x in dom) for dom in doms)
        assert all(c != 0 for _, c in terms)


def test_orbit_rank_limit(monkeypatch):
    with pytest.raises(ResourceLimitError):
        signed_orbit_terms(9)
    # the bound is read at call time
    monkeypatch.setattr(weights_mod, "MAX_ORBIT_RANK", 3)
    assert len(signed_orbit_terms(3)) == 5
    with pytest.raises(ResourceLimitError):
        signed_orbit_terms(4)


def test_shift_validation():
    with pytest.raises(ValueError):
        signed_orbit_terms(3, shift=(1,))
    with pytest.raises(ValueError):
        signed_orbit_terms(1)


def test_signed_permutations_cover_the_group():
    perms = list(signed_permutations(4))
    assert len(perms) == 24
    assert len({p for _, p in perms}) == 24
    # parity check against a direct transposition count
    for sign, perm in perms:
        parity = 1
        seen = [False] * 4
        for start in range(4):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                parity = -parity
        assert sign == parity

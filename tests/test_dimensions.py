import random

import pytest

from naryinv.dimensions import (
    hilbert_series_prefix,
    highest_weight_multiplicity,
    invariant_dimension,
)
from naryinv.oracles import (
    binary_invariant_dimension,
    brute_character,
    strip_decompose,
    symmetric_power_dimension,
    weyl_dimension,
)


def test_invariant_dimension_known_values():
    assert invariant_dimension(2, 3, 4) == 1
    for n, d in [(2, 2), (3, 3), (4, 2)]:
        assert invariant_dimension(n, d, 0) == 1
    assert [invariant_dimension(3, 3, k) for k in range(13)] == [
        1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2,
    ]


def test_hilbert_series_prefixes():
    assert hilbert_series_prefix(2, 2, 4) == [1, 0, 1, 0, 1]
    assert hilbert_series_prefix(2, 4, 6) == [1, 0, 1, 1, 1, 1, 2]
    for n, d in [(2, 3), (3, 2)]:
        assert hilbert_series_prefix(n, d, 0) == [1]


def test_quadratic_forms_have_periodic_dimensions():
    # the invariant ring of a quadratic form is generated by its
    # discriminant, of degree n in the coefficients
    for n in (2, 3, 4):
        prefix = hilbert_series_prefix(n, 2, 2 * n)
        assert prefix == [1 if k % n == 0 else 0 for k in range(2 * n + 1)]


def test_linear_form_has_only_constants():
    assert hilbert_series_prefix(2, 1, 6) == [1, 0, 0, 0, 0, 0, 0]


def test_binary_quintic_prefix():
    # free generators in degrees 4 and 8 below degree 12
    assert hilbert_series_prefix(2, 5, 8) == [1, 0, 0, 0, 1, 0, 0, 0, 2]


def test_binary_reduction_matches_classical_count():
    for d in range(1, 9):
        for k in range(13):
            assert invariant_dimension(2, d, k) == binary_invariant_dimension(d, k)


def test_divisibility_vanishing():
    rng = random.Random(314159)
    seen = 0
    while seen < 500:
        n = rng.randint(2, 5)
        d = rng.randint(1, 10)
        k = rng.randint(0, 20)
        if (k * d) % n == 0:
            continue
        seen += 1
        assert invariant_dimension(n, d, k) == 0


def test_highest_weight_multiplicity_examples():
    for n, d in [(2, 2), (2, 5), (3, 3), (4, 2)]:
        top = (d,) + (0,) * (n - 2)
        assert highest_weight_multiplicity(n, d, 1, top) == 1
    assert highest_weight_multiplicity(2, 2, 2, (4,)) == 1
    assert highest_weight_multiplicity(2, 2, 1, (1,)) == 0


def test_zero_shift_reduces_to_invariant_dimension():
    for n in (2, 3):
        for d in (1, 2, 3):
            for k in range(7):
                assert highest_weight_multiplicity(
                    n, d, k, (0,) * (n - 1)
                ) == invariant_dimension(n, d, k)


def test_multiplicities_resolve_the_symmetric_power():
    # summing multiplicity times irreducible dimension over every dominant
    # weight of the character recovers the full graded dimension
    for n in (2, 3):
        for d in (1, 2, 3):
            for k in range(6):
                table = brute_character(n, d, k)
                dominants = [
                    w for w in table.multiplicities if all(x >= 0 for x in w)
                ]
                total = sum(
                    highest_weight_multiplicity(n, d, k, w) * weyl_dimension(n, w)
                    for w in dominants
                )
                assert total == symmetric_power_dimension(n, d, k)


def test_multiplicities_match_stripping_oracle():
    for n in (2, 3):
        for d in (1, 2, 3):
            for k in range(6):
                stripped = strip_decompose(brute_character(n, d, k))
                for w, count in stripped.items():
                    assert highest_weight_multiplicity(n, d, k, w) == count


def test_hermite_reciprocity():
    # degree-k invariants of the binary d-ic match degree-d ones of the k-ic
    for d in range(1, 11):
        for k in range(1, 11):
            assert invariant_dimension(2, d, k) == invariant_dimension(2, k, d)


def test_ternary_cubic_series():
    # the invariants of the ternary cubic are freely generated in degrees 4, 6
    expected = [
        sum(1 for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0)
        for k in range(61)
    ]
    assert hilbert_series_prefix(3, 3, 60) == expected


def test_results_are_nonnegative():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.choice([2, 3])
        d = rng.randint(1, 4)
        k = rng.randint(0, 8)
        assert invariant_dimension(n, d, k) >= 0


def test_validation():
    with pytest.raises(ValueError):
        invariant_dimension(1, 2, 2)
    with pytest.raises(ValueError):
        invariant_dimension(2, 0, 2)
    with pytest.raises(ValueError):
        invariant_dimension(2, 2, -1)
    with pytest.raises(ValueError):
        highest_weight_multiplicity(3, 2, 2, (1, -1))
    with pytest.raises(ValueError):
        highest_weight_multiplicity(3, 2, 2, (1,))
    with pytest.raises(ValueError):
        hilbert_series_prefix(2, 2, -1)

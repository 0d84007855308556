import io
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

import naryinv.weights as weights_mod
from naryinv.cli import main
from naryinv.counting import moment_targets
from naryinv.errors import ResourceLimitError
from naryinv.weights import check_weight, signed_orbit_terms, to_ambient
from reference import dominant_representative, from_ambient


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


def _reference_orbit_terms(n, shift):
    # the signed sum as written: every permutation, its inversion count, and
    # the dominant representative of shift + rho - s(rho) in weight coordinates
    acc = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2)
        )
        s_rho = tuple(perm[s + 1] - perm[s] for s in range(n - 1))
        moved = tuple(shift[s] + 1 - s_rho[s] for s in range(n - 1))
        dom = dominant_representative(moved)
        acc[dom] = acc.get(dom, 0) + (-1) ** inversions
    terms = [(dom, coef) for dom, coef in acc.items() if coef]
    return sorted(terms, key=lambda t: (max(t[0]), t[0]))


def test_orbit_terms_match_reference():
    rng = random.Random(5)
    for n in range(2, 7):
        shifts = [(0,) * (n - 1), (1,) * (n - 1), (3,) + (0,) * (n - 2)]
        shifts += [tuple(rng.randint(0, 4) for _ in range(n - 1)) for _ in range(2)]
        for shift in shifts:
            assert signed_orbit_terms(n, shift) == _reference_orbit_terms(n, shift)
    # rank 7, and shifts that are not dominant: permutations act on
    # positions, so the orbit sum does not rely on a sorted base vector
    shifts = [(7, (0,) * 6), (7, (2, 0, 1, 3, 0, 1)), (5, (2, -3, 0, 1)), (4, (-1, 2, -2))]
    for n, shift in shifts:
        assert signed_orbit_terms(n, shift) == _reference_orbit_terms(n, shift)


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


def test_check_weight_names_the_entry_that_is_not_an_integer():
    with pytest.raises(ValueError, match="weight position 2: 1.5 is not an integer"):
        check_weight(3, (1, 1.5))


def _band_shifts(n, rng):
    # zero, rho and two random dominant shifts
    shifts = [(0,) * (n - 1), (1,) * (n - 1)]
    shifts += [tuple(rng.randint(0, 3) for _ in range(n - 1)) for _ in range(2)]
    return shifts


def _largest_entry(n, total, weight):
    # the largest of the term's ambient entries {base[q[j]] - j}, which sum
    # to total: to_ambient(weight) moved by the constant that makes it so
    ambient = to_ambient(weight)
    lift, rest = divmod(total - sum(ambient), n)
    assert rest == 0
    return max(ambient) + lift


def test_band_keeps_exactly_the_terms_within_it():
    rng = random.Random(15)
    for n in range(2, 8):
        d = 2 + n % 2
        for shift in _band_shifts(n, rng):
            total = sum(to_ambient(shift))
            whole = signed_orbit_terms(n, shift)
            largest = [_largest_entry(n, total, t.dominant) for t in whole]
            for k in range(3 * n + 1):
                top = (k * d + total) // n
                banded = signed_orbit_terms(n, shift, k * d)
                # the band drops whole terms, never a sign: the kept terms
                # are the whole walk's, in its order, with its coefficients
                # (also where n does not divide k*d + sum, so no term is
                # feasible: the band is a floor, not the divisibility test)
                within = [t for t, x in zip(whole, largest) if x <= top]
                assert banded == within, (n, shift, k)
                if (k * d + total) % n == 0:
                    feasible = [
                        t for t in whole if moment_targets(n, d, k, t.dominant) is not None
                    ]
                    assert banded == feasible, (n, shift, k)


def test_top_degree_band_keeps_every_lower_degree():
    rng = random.Random(16)
    for n in range(2, 8):
        d = 1 + n % 3
        for shift in _band_shifts(n, rng):
            k_max = 3 * n
            banded = set(signed_orbit_terms(n, shift, k_max * d))
            for t in signed_orbit_terms(n, shift):
                targets = (moment_targets(n, d, k, t.dominant) for k in range(k_max + 1))
                if any(x is not None for x in targets):
                    assert t in banded, (n, d, shift, t)


def test_band_below_the_mean_entry_is_empty():
    # a term's entries sum to sum(to_ambient(shift)), so its largest entry
    # is at least their mean; at the mean only the flat term is left
    # (budgets picked so that the band's largest entry is -1, 0 and 1)
    assert signed_orbit_terms(3, kd=-3) == []
    assert signed_orbit_terms(3, kd=0) == [((0, 0), 1)]
    assert signed_orbit_terms(4, (1, 0, 2), kd=0) == []


@pytest.mark.parametrize(
    "argv, answer",
    [
        ("nu 8 2 8", "1"),
        ("nu 8 3 7", "0"),
        ("gamma 8 3 8 --lambda 1,0,0,0,0,0,0", "0"),
    ],
)
def test_banded_answers_at_rank_eight(argv, answer):
    # answers of the whole-orbit sum, taken before the walk was banded
    out = io.StringIO()
    assert main(argv.split(), out=out) == 0
    assert out.getvalue() == answer + "\n"

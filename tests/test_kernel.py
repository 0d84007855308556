"""Theorem 1 and Theorem 2 against the raising operators' kernel.

``kernel.kernel_multiplicity`` counts highest-weight vectors directly, as
the joint kernel of the raising operators on a weight space of the
coefficient polynomials; it shares no code with the package (a tooling
test holds the import boundary).  Its rank is taken modulo a prime, so a
mismatch is recomputed at a second prime before it is reported.
"""

import itertools

from kernel import PRIME, _rank, kernel_multiplicity
from naryinv import highest_weight_multiplicity, hilbert_series_prefix

#: the (n, d, kmax) grids of the benchmark's ``check`` queries: 116 degrees
VERIFY_GRIDS = [
    (3, 3, 8), (4, 2, 8), (3, 4, 6), (2, 5, 12), (2, 6, 10), (3, 2, 12),
    (2, 4, 14), (4, 3, 5), (5, 2, 5), (3, 5, 5), (2, 3, 20),
]

#: (n, d, kmax) grids on which every highest weight with |lam| <= k * d is
#: compared: 1,825 weights, 226 of them with a nonzero multiplicity
WEIGHT_GRIDS = [(3, 3, 6), (3, 2, 8), (4, 2, 4), (3, 4, 4), (2, 5, 8)]

SECOND_PRIME = 2**31 - 1


def _mismatches(cases, package):
    """``(case, kernel, kernel at a second prime, package)`` wherever the
    kernel disagrees with the package."""
    out = []
    for (n, d, k, lam), expected in zip(cases, package):
        got = kernel_multiplicity(n, d, k, lam)
        if got != expected:
            again = kernel_multiplicity(n, d, k, lam, SECOND_PRIME)
            out.append(((n, d, k, lam), got, again, expected))
    return out


def test_invariants_are_the_kernel_of_the_raising_operators():
    cases, package = [], []
    for n, d, kmax in VERIFY_GRIDS:
        cases += [(n, d, k, (0,) * (n - 1)) for k in range(kmax + 1)]
        package += hilbert_series_prefix(n, d, kmax)
    assert len(cases) == 116
    assert _mismatches(cases, package) == []


def test_highest_weight_vectors_are_the_kernel_of_the_raising_operators():
    cases = [
        (n, d, k, lam)
        for n, d, kmax in WEIGHT_GRIDS
        for k in range(kmax + 1)
        for lam in itertools.product(range(k * d + 1), repeat=n - 1)
        if sum(lam) <= k * d
    ]
    package = [highest_weight_multiplicity(*case) for case in cases]
    assert (len(cases), sum(map(bool, package))) == (1825, 226)
    assert _mismatches(cases, package) == []


def test_classical_binary_invariants():
    # the binary quartic has invariants in degrees 2 and 3 and none in 1;
    # the binary quadratic's discriminant spans its degree-2 invariants
    assert [kernel_multiplicity(2, 4, k, (0,)) for k in range(4)] == [1, 0, 1, 1]
    assert kernel_multiplicity(2, 2, 2, (0,)) == 1
    # S^k(S^1 C^n) = V_(k): the only highest weight is k on the first label
    assert kernel_multiplicity(3, 1, 3, (3, 0)) == 1
    assert kernel_multiplicity(3, 1, 3, (1, 1)) == 0


def test_a_small_prime_can_only_enlarge_the_kernel():
    # a rank mod p is at most the rank over Q, so a kernel computed mod p is
    # at least the true one; at p = 2 the even entries vanish and some grow
    cases = [(3, 3, k, (0, 0)) for k in range(9)] + [(2, 6, k, (0,)) for k in range(9)]
    exact = [kernel_multiplicity(*case) for case in cases]
    mod2 = [kernel_multiplicity(*case, prime=2) for case in cases]
    assert all(a >= b for a, b in zip(mod2, exact))
    assert mod2 != exact


def test_rank_counts_independent_sparse_vectors():
    vectors = [{0: 1, 1: 2}, {1: 1, 2: 1}, {0: 1, 1: 3, 2: 1}, {2: PRIME}]
    # the third is the sum of the first two; the fourth is zero mod PRIME
    assert _rank(vectors, PRIME) == 2
    assert _rank([{0: 3}, {0: 1}], 3) == 1

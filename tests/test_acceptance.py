"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact integer equality; the time budgets are part of
the criteria.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import io
import itertools
import random
import time

from naryinv.cli import main
from naryinv.dimensions import (
    hilbert_series_prefix,
    highest_weight_multiplicity,
    invariant_dimension,
)
from naryinv.oracles import (
    alternating_multiplicity_sum,
    binary_invariant_dimension,
    brute_character,
    strip_decompose,
    symmetric_power_dimension,
    weyl_dimension,
)
from naryinv.series import expand_generating_series
from naryinv.counting import weight_multiplicity


def _report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_five_term_orbit_output():
    start = time.perf_counter()
    buf = io.StringIO()
    code = main(["orbit", "3"], out=buf)
    elapsed = time.perf_counter() - start
    expected = "(0,0) +1\n(1,1) -2\n(2,2) -1\n(0,3) +1\n(3,0) +1\n"
    ok = code == 0 and buf.getvalue() == expected and elapsed < 1.0
    _report(1, "rank-3 five-term orbit, byte-exact", ok)


def test_criterion_2_binary_reduction():
    start = time.perf_counter()
    ok = all(
        invariant_dimension(2, d, k) == binary_invariant_dimension(d, k)
        for d in range(1, 9)
        for k in range(13)
    )
    elapsed = time.perf_counter() - start
    _report(2, "binary case equals bounded-partition count", ok and elapsed < 10.0)


def test_criterion_3_stripping_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for n in (2, 3):
        for d in (1, 2, 3):
            for k in range(7):
                stripped = strip_decompose(brute_character(n, d, k))
                if stripped.get((0,) * (n - 1), 0) != invariant_dimension(n, d, k):
                    ok = False
    elapsed = time.perf_counter() - start
    _report(3, "dimension equals stripped zero-weight entry", ok and elapsed < 60.0)


def test_criterion_4_alternating_sum_detects_zero():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        for comps in itertools.product(range(6), repeat=n - 1):
            expected = 1 if not any(comps) else 0
            if alternating_multiplicity_sum(n, comps) != expected:
                ok = False
    elapsed = time.perf_counter() - start
    _report(4, "signed multiplicity sum is the zero-weight indicator", ok and elapsed < 30.0)


def test_criterion_5_series_path_equivalence():
    start = time.perf_counter()
    ok = True
    for n in (2, 3):
        for d in (1, 2, 3):
            series = expand_generating_series(n, d, 8)
            for k in range(9):
                # one uncapped expansion against a capped one per degree
                if invariant_dimension(n, d, k, series=series) != invariant_dimension(n, d, k):
                    ok = False
    elapsed = time.perf_counter() - start
    _report(5, "series route equals orbit-sum route", ok and elapsed < 60.0)


def test_criterion_6_character_identity():
    ok = True
    for n in (2, 3):
        for d in (1, 2, 3):
            for k in range(7):
                table = brute_character(n, d, k).multiplicities
                for w, count in table.items():
                    if weight_multiplicity(n, d, k, w) != count:
                        ok = False
    _report(6, "solution counts equal brute-force weight tallies", ok)


def test_criterion_7_dimension_sum():
    ok = True
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
                if total != symmetric_power_dimension(n, d, k):
                    ok = False
    _report(7, "multiplicity-weighted dimensions sum to the graded dimension", ok)


def test_criterion_8_known_value_regressions():
    ok = hilbert_series_prefix(2, 4, 6) == [1, 0, 1, 1, 1, 1, 2]
    ok = ok and [invariant_dimension(3, 3, k) for k in range(13)] == [
        1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2,
    ]
    ok = ok and invariant_dimension(2, 3, 4) == 1
    _report(8, "known dimension sequences", ok)


def test_criterion_9_divisibility_vanishing():
    rng = random.Random(20260810)
    ok = True
    checked = 0
    while checked < 500:
        n = rng.randint(2, 5)
        d = rng.randint(1, 10)
        k = rng.randint(0, 20)
        if (k * d) % n == 0:
            continue
        checked += 1
        if invariant_dimension(n, d, k) != 0:
            ok = False
    _report(9, "dimension vanishes when n does not divide k*d", ok)

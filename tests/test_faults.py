"""Planted faults: each cross-check must catch the fault it is named with.

Every row of ``FAULTS`` plants one fault with ``monkeypatch`` and names the
check that must fail under it.  A check is a function that raises
``AssertionError`` when it finds something wrong; the unpatched package
passes every one.  A fault that its check lets through is a check that
does not bite.
"""

import io
import re
from typing import Callable, NamedTuple

import pytest

import naryinv.cli as cli_mod
import naryinv.dimensions as dimensions_mod
import naryinv.oracles as oracles_mod
import naryinv.series as series_mod
import naryinv.weights as weights_mod
import test_cli
import test_oracles
import test_series
import test_weights
from naryinv.cli import main
from naryinv.weights import signed_orbit_terms


def check_exits_zero():
    """``check 4 3 --kmax 5``, a grid of the benchmark's ``verify`` pool:
    Theorem 1 agrees with stripping at every degree."""
    code = main(["check", "4", "3", "--kmax", "5"], out=io.StringIO())
    assert code == 0, f"check exits {code}"


def pinned_orbit_digests():
    """``orbit 8``, at the zero weight and at a generic shift, prints the
    bytes pinned in the CLI tests."""
    test_cli.test_orbit_plain_output_rank_eight()
    test_cli.test_orbit_plain_output_generic_shift()


def _forward_walk_signed_as_backward(monkeypatch):
    half_walk = weights_mod._half_walk

    def walk(positions, steps, every, rivals):
        return half_walk(positions, steps, every, 0)

    monkeypatch.setattr(weights_mod, "_half_walk", walk)


def _band_one_too_tight(monkeypatch):
    def terms(n, shift=None, kd=None):
        return signed_orbit_terms(n, shift, kd - n if kd is not None and kd >= n else kd)

    monkeypatch.setattr(dimensions_mod, "signed_orbit_terms", terms)


def _terms_in_reverse_order(monkeypatch):
    def terms(n, shift=None, kd=None):
        return signed_orbit_terms(n, shift, kd)[::-1]

    monkeypatch.setattr(cli_mod, "signed_orbit_terms", terms)


def _last_term_dropped(monkeypatch):
    def terms(n, shift=None, kd=None):
        return signed_orbit_terms(n, shift, kd)[:-1]

    monkeypatch.setattr(dimensions_mod, "signed_orbit_terms", terms)


def _three_row_tables(change):
    """A fault that passes every three-row Kostka table, wherever it is
    read, through ``change``; the recursion reads its inner shapes through
    the module attribute, so four rows and more see the changed tables."""

    def plant(monkeypatch):
        contents = oracles_mod._tableau_contents

        def changed(shape, width):
            table = contents(shape, width)
            return change(table) if len(shape) == 3 else table

        monkeypatch.setattr(oracles_mod, "_tableau_contents", changed)

    return plant


def _indices_in_reverse_order(monkeypatch):
    multiply = series_mod._multiply

    def reverse(indices, *rest):
        return multiply(indices[::-1], *rest)

    monkeypatch.setattr(series_mod, "_multiply", reverse)


class Fault(NamedTuple):
    plant: Callable[[pytest.MonkeyPatch], None]
    # each check that must fail, with a pattern of the message it fails with
    checks: dict[Callable[[], None], str]


# a wrong three-row table shows at the first three-row top compared cell by
# cell, and in `check` at stripping's guard, an internal error (exit 5)
THREE_ROW_CHECKS = {
    test_oracles.test_tableau_contents_match_tableaux_filled_cell_by_cell: re.escape("(0, 0, 0)"),
    check_exits_zero: "check exits 5",
}

FAULTS = {
    # the walk differs from the permutation reference's terms at n = 2
    "forward half signed as the backward one": Fault(
        _forward_walk_signed_as_backward,
        {test_weights.test_orbit_terms_match_reference: re.escape("== [((0,), 1), ((2,), -1)]")},
    ),
    "band one entry too tight": Fault(_band_one_too_tight, {check_exits_zero: "check exits 4"}),
    # the failed comparison shows the pinned digest of ``orbit 8``
    "terms in reverse order": Fault(
        _terms_in_reverse_order, {pinned_orbit_digests: "253124c12f4f"}
    ),
    "last term dropped": Fault(_last_term_dropped, {check_exits_zero: "check exits 4"}),
    "three-row tables lose their last entry": Fault(
        _three_row_tables(lambda table: dict(list(table.items())[:-1])),
        THREE_ROW_CHECKS,
    ),
    "three-row counts one too high": Fault(
        _three_row_tables(lambda table: {mu: c + 1 for mu, c in table.items()}),
        THREE_ROW_CHECKS,
    ),
    # n = 2, d = 1, degree bound 1, uncapped: the first case with two indices
    "indices multiplied in reverse order": Fault(
        _indices_in_reverse_order,
        {test_series.test_the_zero_index_is_multiplied_in_first: re.escape("(2, 1, 1, None)")},
    ),
}


@pytest.fixture(autouse=True)
def empty_kostka_memo():
    """No Kostka table built under a fault is left in the memo, and none
    built before one is read under it."""
    contents = oracles_mod._tableau_contents
    contents.cache_clear()
    yield
    contents.cache_clear()


@pytest.mark.parametrize(
    "check",
    sorted({c for fault in FAULTS.values() for c in fault.checks}, key=lambda c: c.__name__),
)
def test_the_unpatched_package_passes_every_check(check):
    check()


@pytest.mark.parametrize("name", FAULTS)
def test_every_planted_fault_fails_its_check(name, monkeypatch):
    fault = FAULTS[name]
    fault.plant(monkeypatch)
    for check, shows in fault.checks.items():
        with pytest.raises(AssertionError, match=shows):
            check()

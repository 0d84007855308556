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
import naryinv.weights as weights_mod
import test_cli
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


class Fault(NamedTuple):
    plant: Callable[[pytest.MonkeyPatch], None]
    check: Callable[[], None]
    shows: str  # a pattern of the message the check fails with


FAULTS = {
    # the walk differs from the permutation reference's terms at n = 2
    "forward half signed as the backward one": Fault(
        _forward_walk_signed_as_backward, test_weights.test_orbit_terms_match_reference,
        re.escape("== [((0,), 1), ((2,), -1)]"),
    ),
    "band one entry too tight": Fault(_band_one_too_tight, check_exits_zero, "check exits 4"),
    # the failed comparison shows the pinned digest of ``orbit 8``
    "terms in reverse order": Fault(_terms_in_reverse_order, pinned_orbit_digests, "253124c12f4f"),
    "last term dropped": Fault(_last_term_dropped, check_exits_zero, "check exits 4"),
}


@pytest.mark.parametrize("check", sorted({f.check for f in FAULTS.values()}, key=lambda c: c.__name__))
def test_the_unpatched_package_passes_every_check(check):
    check()


@pytest.mark.parametrize("name", FAULTS)
def test_every_planted_fault_fails_its_check(name, monkeypatch):
    fault = FAULTS[name]
    fault.plant(monkeypatch)
    with pytest.raises(AssertionError, match=fault.shows):
        fault.check()

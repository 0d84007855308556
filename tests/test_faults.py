"""Planted faults: each cross-check must catch the fault it is named with.

Every row of ``FAULTS`` plants one fault with ``monkeypatch`` and names the
check that must fail under it.  A check is a function that raises
``AssertionError`` when it finds something wrong; it may ask for pytest's
``monkeypatch`` and ``capsys`` by name, as a test does.  The unpatched
package passes every one.  A fault that its check lets through is a check
that does not bite.
"""

import functools
import inspect
import io
import re
from typing import Callable, NamedTuple

import pytest

import naryinv.cli as cli_mod
import naryinv.counting as counting_mod
import naryinv.dimensions as dimensions_mod
import naryinv.oracles as oracles_mod
import naryinv.series as series_mod
import naryinv.weights as weights_mod
import test_cli
import test_oracles
import test_plethysm
import test_series
import test_weights
from naryinv.cli import main
from naryinv.errors import InternalError
from naryinv.weights import signed_orbit_terms


def check_exits_zero():
    """``check 4 3 --kmax 5``, a grid of the benchmark's ``verify`` pool:
    Theorem 1 agrees with stripping at every degree."""
    code = main(["check", "4", "3", "--kmax", "5"], out=io.StringIO())
    assert code == 0, f"check exits {code}"


def check_three_rows_exits_zero():
    """``check 3 3 --kmax 8``, a grid of the benchmark's ``verify`` pool
    whose modules have three rows."""
    code = main(["check", "3", "3", "--kmax", "8"], out=io.StringIO())
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


def _row_tables(rows, change):
    """A fault that passes every Kostka table of ``rows`` rows, wherever it
    is read, through ``change``: stripping reads its tops, and the
    recursion of five rows and more its inner shapes, through the module
    attribute.  Three and four rows are counted with no inner shape, so
    only n = 3 modules read three-row tables, and n = 4 and 5 four-row
    ones."""

    def plant(monkeypatch):
        contents = oracles_mod._tableau_contents

        def changed(shape, width):
            table = contents(shape, width)
            return change(table) if len(shape) == rows else table

        monkeypatch.setattr(oracles_mod, "_tableau_contents", changed)

    return plant


def _last_entry_lost(table):
    return dict(list(table.items())[:-1])


def _counts_one_too_high(table):
    return {mu: c + 1 for mu, c in table.items()}


def _width_blind_memo(monkeypatch):
    """The Kostka memo keyed by shape alone: the table first built for a
    shape is served, as a fresh dict, at every width."""
    build, first = oracles_mod._tableau_contents.__wrapped__, {}

    @functools.lru_cache(maxsize=4096)
    def contents(shape, width):
        if shape not in first:
            first[shape] = build(shape, width)
        return dict(first[shape])

    monkeypatch.setattr(oracles_mod, "_tableau_contents", contents)


def _partitions_one_field_short(monkeypatch):
    """Every packed partition the product pass reads out, masked one field
    short: its first part, the top field, is dropped."""
    cells = oracles_mod._dominant_cells

    def short(n, d, kmax, units, width):
        mask = (1 << (n - 1) * width) - 1
        return [
            [(key & mask, at, orbit) for key, at, orbit in reads]
            for reads in cells(n, d, kmax, units, width)
        ]

    monkeypatch.setattr(oracles_mod, "_dominant_cells", short)


def _first_shift_one_field_up(monkeypatch):
    """The first index's shift in each product pass, that of the highest
    weight ``(d, 0, ..., 0)`` at the moment vector 0, moved one field, a
    cell, up: to the cell of the moment vector ``(1, 0, ..., 0)``."""
    cells = oracles_mod._index_cells

    def moved(n, d, caps, units):
        first, *rest = cells(n, d, caps, units)
        return [first + units[0], *rest]

    monkeypatch.setattr(oracles_mod, "_index_cells", moved)


def _last_cap_one_short(monkeypatch):
    """The product pass's box with its last coordinate capped one short, in
    its mask and in its test for dead indices; the strides stay."""
    box = oracles_mod._moment_box

    def short(n, d, kmax):
        caps, places = box(n, d, kmax)
        return [*caps[:-1], caps[-1] - 1], places

    monkeypatch.setattr(oracles_mod, "_moment_box", short)


def _shift_read_backwards(monkeypatch):
    """The walk's ``base`` built from the shift's ambient vector with the
    shift's components in reverse order: the same at the zero shift."""
    ambient = weights_mod.to_ambient
    monkeypatch.setattr(weights_mod, "to_ambient", lambda weight: ambient(tuple(weight)[::-1]))


def _indices_in_reverse_order(monkeypatch):
    multiply = series_mod._multiply

    def reverse(indices, *rest):
        return multiply(indices[::-1], *rest)

    monkeypatch.setattr(series_mod, "_multiply", reverse)


def _read_bound_one_short(monkeypatch):
    coefficient = series_mod.TruncatedSeries.coefficient

    def read(self, k, moments):
        m = tuple(moments)
        count = coefficient(self, k, m)
        return 0 if max(m) == self.d * k else count

    monkeypatch.setattr(series_mod.TruncatedSeries, "coefficient", read)


def _zero_target_refused(monkeypatch):
    targets = counting_mod._targets

    def feasible(n, kd, term):
        found = targets(n, kd, term)
        return None if found is not None and min(found) == 0 else found

    monkeypatch.setattr(counting_mod, "_targets", feasible)


def _caps_one_short(monkeypatch):
    caps = counting_mod._caps

    def short(reads):
        first, *rest = caps(reads)
        return (first - 1, *rest)

    monkeypatch.setattr(counting_mod, "_caps", short)


def _start_width_two_bits_narrow(monkeypatch):
    start = series_mod._start_width
    monkeypatch.setattr(series_mod, "_start_width", lambda top, span: start(top, span) - 2)


def _no_guard_test(monkeypatch):
    multiply = series_mod._multiply
    monkeypatch.setattr(series_mod, "_multiply", lambda *args: multiply(*args[:-1], 0))


def _narrow_start_unguarded(monkeypatch):
    """A start forced to 2 bits below the guard bits, with no guard test:
    the narrow pass runs to its end, and a count past its field carries."""
    _no_guard_test(monkeypatch)
    monkeypatch.setattr(series_mod, "_start_width", lambda top, span: 2)


def _one_guard_bit_too_few(monkeypatch):
    """The guard count feeds the field width, as the bits added to the
    start width, and the alarm, as the top bits of each field: the width
    loses one bit, and the alarm the lowest guard bit of each field."""
    start, multiply = series_mod._start_width, series_mod._multiply
    monkeypatch.setattr(series_mod, "_start_width", lambda top, span: start(top, span) - 1)
    monkeypatch.setattr(
        series_mod, "_multiply", lambda *args: multiply(*args[:-1], args[-1] & args[-1] << 1)
    )


def _fallback_width_one_bit_short(monkeypatch):
    """The fallback width, the bits of the top-degree monomials, feeds the
    unguarded ``_multiply`` and the series built from its layers: both get
    one bit less.  The test that picks the fallback keeps its bound."""
    multiply, build = series_mod._multiply, series_mod.TruncatedSeries
    short = []

    def narrow(indices, caps, places, bound, width, alarm):
        short.append(0 if alarm else 1)
        return multiply(indices, caps, places, bound, width - short[-1], alarm)

    def series(n, d, bound, caps, places, width, layers):
        return build(n, d, bound, caps, places, width - short[-1], layers)

    monkeypatch.setattr(series_mod, "_multiply", narrow)
    monkeypatch.setattr(series_mod, "TruncatedSeries", series)


def _size_one_cell_short(monkeypatch):
    """An estimate one cell short is refused only past one cell more, in
    both modules that size an expansion."""
    size = series_mod.check_expansion_size

    def short(d, degree_bound, caps, max_terms):
        size(d, degree_bound, caps, max_terms + 1)

    monkeypatch.setattr(series_mod, "check_expansion_size", short)
    monkeypatch.setattr(counting_mod, "check_expansion_size", short)


class Fault(NamedTuple):
    plant: Callable[[pytest.MonkeyPatch], None]
    # each check that must fail, with a pattern of the message it fails with
    checks: dict[Callable[..., None], str]


def product_characters_at_rank_four():
    """The product pass of ``check 4 3 --kmax 5`` against brute force at
    every degree: brute force shifts no cell.  A pass that its own mass
    guard refuses fails here too, since no table then reaches brute force."""
    try:
        test_oracles.test_product_characters_match_brute_force_at_every_degree((4, 3, 5))
    except InternalError as refused:
        raise AssertionError(f"the product pass refused its tables: {refused}") from refused


def classical_plethysms_at_rank_three():
    """Both classical plethysm rules, at every highest weight of rank 3
    they cover: they share no code with the package."""
    test_plethysm.test_classical_plethysms(3)


# a wrong table shows at the first top of its rows compared cell by cell,
# and in `check` of modules with those rows at stripping's leftover guard,
# an internal error (exit 5)
THREE_ROW_CHECKS = {
    test_oracles.test_tableau_contents_match_tableaux_filled_cell_by_cell: re.escape("(0, 0, 0)"),
    check_three_rows_exits_zero: "check exits 5",
}
FOUR_ROW_CHECKS = {
    test_oracles.test_tableau_contents_match_tableaux_filled_cell_by_cell: re.escape(
        "(0, 0, 0, 0)"
    ),
    check_exits_zero: "check exits 5",
}

# the engine's field widths, pinned exactly, and its one restart when a
# start width is too narrow
GUARDED_WIDTHS = test_series.test_fields_hold_every_count_below_clear_guard_bits
RESTARTS_ONCE = test_series.test_a_start_width_too_small_restarts_once_at_the_bits_of_top

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
        _row_tables(3, _last_entry_lost), THREE_ROW_CHECKS
    ),
    "three-row counts one too high": Fault(_row_tables(3, _counts_one_too_high), THREE_ROW_CHECKS),
    "four-row tables lose their last entry": Fault(
        _row_tables(4, _last_entry_lost), FOUR_ROW_CHECKS
    ),
    "four-row counts one too high": Fault(_row_tables(4, _counts_one_too_high), FOUR_ROW_CHECKS),
    # n = 2, d = 1, degree bound 1, uncapped: the first case with two indices
    "indices multiplied in reverse order": Fault(
        _indices_in_reverse_order,
        {test_series.test_the_zero_index_is_multiplied_in_first: re.escape("(2, 1, 1, None)")},
    ),
    # the zero weight reads its targets (0, 0, 0) at degree 0 as 0
    "read bound one short": Fault(_read_bound_one_short, {check_exits_zero: "check exits 4"}),
    # the same read, refused as infeasible
    "a zero target refused": Fault(_zero_target_refused, {check_exits_zero: "check exits 4"}),
    # a read past the caps raises TruncationError, a ValueError (exit 2)
    "caps one short": Fault(_caps_one_short, {check_exits_zero: "check exits 2"}),
    # the guard trips, and the expansion restarts at the 13 bits of top
    # where 10 bits are pinned
    "start width two bits too narrow": Fault(
        _start_width_two_bits_narrow, {GUARDED_WIDTHS: re.escape("(3, 3, 6, None)")}
    ),
    # the narrow pass that the restart test forces, 1 bit below the guard,
    # runs to its end: one pass where two are pinned
    "no guard test": Fault(_no_guard_test, {RESTARTS_ONCE: re.escape("(3, 2, 8, None)")}),
    # 9 bits where 10 are pinned
    "one guard bit too few": Fault(
        _one_guard_bit_too_few, {GUARDED_WIDTHS: re.escape("(3, 3, 6, None)")}
    ),
    # 7 bits where 8 are pinned, and 0 bits for the one monomial of degree 0
    "fallback width one bit short": Fault(
        _fallback_width_one_bit_short,
        {
            GUARDED_WIDTHS: re.escape("(2, 2, 15, None)"),
            test_cli.test_reach_octonary_form_of_degree_30_at_degree_0: re.escape("(0, '0\\n')"),
        },
    ),
    # the one expansion `check 4 3 --kmax 5` makes, degree 4 capped at
    # (5, 4, 3), gets 5-bit fields where it starts at 13 unforced: 51 of
    # its counts are wrong, and Theorem 1 reads 32 at degree 4 where
    # stripping reads 0
    "a narrow start with no guard test": Fault(
        _narrow_start_unguarded, {check_exits_zero: "check exits 4"}
    ),
    # `series 3 3 12` spans 1,911 cells, and a limit of 1,910 passes
    "size estimate one cell short": Fault(
        _size_one_cell_short,
        {test_cli.test_capped_reads_under_a_small_term_limit: re.escape("(0, '2\\n') == (3, '')")},
    ),
    # (1, 0), the first top whose table holds a nonzero key, unpacks at
    # 10 bits the key its table packed at 1 bit
    "a width-blind Kostka memo": Fault(
        _width_blind_memo,
        {test_oracles.test_tableau_contents_agree_across_widths: re.escape("(1, 0)")},
    ),
    # stripping's leftover guard, an internal error (exit 5), finds a count
    # left at a partition it never reads
    "partitions one field short": Fault(
        _partitions_one_field_short, {check_exits_zero: "check exits 5"}
    ),
    # degree 1 holds the highest weight's count at the cell of (2, 1, 0, 0),
    # an orbit of 12 weights where (3, 0, 0, 0) has 4, so the pass's mass
    # guard refuses it before brute force compares a table, and `check`
    # exits 5
    "a product shift one field up": Fault(
        _first_shift_one_field_up,
        {
            product_characters_at_rank_four: re.escape("degree 1 has mass 28, not 20"),
            check_exits_zero: "check exits 5",
        },
    ),
    # the cap of m_2 falls from 3 to 2, so degree 4 loses the cells at
    # m_2 = 3, such as (3, 3, 3, 3), and the mass guard refuses it
    "a coordinate cap one short": Fault(
        _last_cap_one_short,
        {
            product_characters_at_rank_four: re.escape("degree 4 has mass 8762, not 8855"),
            check_exits_zero: "check exits 5",
        },
    ),
    # the zero shift reads the same backwards, so `check` cannot see it; the
    # walk at the shift (3, 0) of n = 3 lists the terms of (0, 3), and the
    # multiplicity of V_(2, 0) in S^1(S^2 C^3) = S^2 C^3 reads 0
    "the shift read backwards": Fault(
        _shift_read_backwards,
        {
            test_weights.test_orbit_terms_match_reference: re.escape("!= ((3, 0), 1)"),
            classical_plethysms_at_rank_three: re.escape("item: (2, 1, (2, 0, 0), 1, 0)"),
        },
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


def _run(check, capsys):
    """Run ``check`` on what it asks for: a ``monkeypatch`` of its own,
    undone when it returns, and ``capsys``, emptied first."""
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        fixtures = {"monkeypatch": patch, "capsys": capsys}
        check(**{name: fixtures[name] for name in inspect.signature(check).parameters})


@pytest.mark.parametrize(
    "check",
    sorted({c for fault in FAULTS.values() for c in fault.checks}, key=lambda c: c.__name__),
)
def test_the_unpatched_package_passes_every_check(check, capsys):
    _run(check, capsys)


@pytest.mark.parametrize("name", FAULTS)
def test_every_planted_fault_fails_its_check(name, monkeypatch, capsys):
    fault = FAULTS[name]
    fault.plant(monkeypatch)
    for check, shows in fault.checks.items():
        with pytest.raises(AssertionError, match=shows):
            _run(check, capsys)

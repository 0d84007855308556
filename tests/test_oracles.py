import hashlib
import io
import itertools
import math
import random
import re
from collections import Counter

import pytest

import naryinv.oracles as oracles_mod
from naryinv.cli import main
from naryinv.errors import InternalError, ResourceLimitError
from naryinv.forms import enumerate_indices
from naryinv.oracles import (
    CharacterTable,
    binary_invariant_dimension,
    brute_character,
    character_tables,
    strip_decompose,
    symmetric_power_dimension,
)
from naryinv.weights import to_ambient
from reference import (
    alternating_multiplicity_sum,
    dict_product_tables,
    dominant_weights,
    from_ambient,
    gelfand_tsetlin_contents,
    kostka_number,
    module_table,
    monomial_weight,
    orbit_expansion,
    weyl_dimension,
)


def test_brute_character_examples():
    assert brute_character(2, 2, 2).multiplicities[(0,)] == 2
    for n, d in [(2, 2), (3, 3)]:
        assert brute_character(n, d, 0).multiplicities == {(0,) * (n - 1): 1}
    assert brute_character(2, 1, 2).multiplicities == {(2,): 1, (0,): 1, (-2,): 1}


def test_brute_character_total_mass():
    for n, d, k in [(2, 2, 4), (2, 4, 3), (3, 2, 3), (3, 3, 4)]:
        table = brute_character(n, d, k)
        assert sum(table.multiplicities.values()) == symmetric_power_dimension(n, d, k)


def test_brute_character_is_orbit_symmetric():
    table = brute_character(3, 2, 3).multiplicities
    for w, count in table.items():
        for perm in itertools.permutations(to_ambient(w)):
            assert table.get(from_ambient(perm), 0) == count


# sha256 of repr(sorted(multiplicities.items())), taken from the
# monomial-by-monomial tally before it became one Counter over moment vectors
BRUTE_DIGESTS = {
    (2, 5, 12): "ec68b1ef860077bc93b6bb41f43e1f159ebd82c8f8244b164d355d9d7c6f24e5",
    (3, 3, 6): "18c46784b80570a8b898db04b446c6d80661d96cd8071a3a8a91880fe6df4d2e",
    (4, 2, 6): "49d780e657d776ecbe48df9fa2f0a68f1dfbcb2dd2c6d5ed3afd37c3f3b91f3e",
    (5, 2, 4): "fd306d6006a2b970cdcf567cf5186148847fb1f1f1dd7e6b4446caa8ef4d9dcb",
    (4, 3, 1): "fa49c98959ded9bbc3482be19ffde975b55f18a284e6b74ff04d6e9ecc945342",
    (3, 2, 0): "f07bf0c685b4b7368f9fbdefe4b787ed2f2ac8f1d5651def29be0ebbc32b1ad3",
    (2, 1, 0): "502b58bc64726f44106e1251db04bf9d010ef7a01a63c0be646b5916cd516c63",
    # taken before the moments were packed, at a field width's edges:
    # d * k = 16 needs every bit of its field, d * k = 15 fills one exactly
    (3, 4, 4): "ca6055de1b3b5df24709dba3683f50171fcd26878bcd030f6220ad582dfeb5df",
    (4, 5, 3): "7a0103e97b54f1186b076f1cd9db5c1c19f4b29a22793f499e71c0fe89d29812",
}


def _product_character(n, d, k):
    """The last table of the product expansion to ``k``, whose fields are
    sized for ``2 * d * k`` with a spare bit, unpacked to its dominant
    weights and expanded over their orbits to the whole character."""
    *_, table = character_tables(n, d, k)
    return CharacterTable(n, d, k, orbit_expansion(dominant_weights(table)))


# both routes to a character: the exhaustive tally and the product recurrence
CHARACTER_ROUTES = (brute_character, _product_character)


@pytest.mark.parametrize("query", sorted(BRUTE_DIGESTS))
def test_brute_character_tables_pinned(query):
    for route in CHARACTER_ROUTES:
        table = route(*query).multiplicities
        text = repr(sorted(table.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == BRUTE_DIGESTS[query], route


def _tally_per_monomial(n, d, k):
    table = Counter()
    for combo in itertools.combinations_with_replacement(enumerate_indices(n, d), k):
        table[monomial_weight(n, d, Counter(combo))] += 1
    return dict(table)


# (3, 4, 4) and (5, 2, 4): d * k = 16, a power of two, so the largest moment
# needs the top bit of its field; (4, 5, 3), (3, 5, 3) and (4, 1, 7):
# d * k = 2^m - 1 fills its field exactly
@pytest.mark.parametrize(
    "query",
    [(2, 1, 0), (2, 3, 5), (2, 4, 4), (3, 1, 6), (3, 2, 4), (4, 2, 3), (5, 1, 4),
     (5, 2, 2), (3, 4, 4), (5, 2, 4), (4, 5, 3), (3, 5, 3), (4, 1, 7)],
)
def test_brute_character_matches_a_per_monomial_tally(query):
    tally = _tally_per_monomial(*query)
    for route in CHARACTER_ROUTES:
        assert route(*query).multiplicities == tally, route


# the `check` grids of the benchmark's verify pool
VERIFY_GRIDS = [
    (3, 3, 8), (4, 2, 8), (3, 4, 6), (2, 5, 12), (2, 6, 10), (3, 2, 12),
    (2, 4, 14), (4, 3, 5), (5, 2, 5), (3, 5, 5), (2, 3, 20),
]


@pytest.mark.parametrize("grid", VERIFY_GRIDS)
def test_product_characters_match_brute_force_at_every_degree(grid):
    n, d, kmax = grid
    tables = list(character_tables(n, d, kmax))
    assert [t.k for t in tables] == list(range(kmax + 1))
    for table in tables:
        full = orbit_expansion(dominant_weights(table))
        assert full == brute_character(n, d, table.k).multiplicities


# beyond brute force's reach: heavy `check` grids, a rank with all but 90
# of its 1,716 indices dead, and a degree of 600
PAST_BRUTE_FORCE = [
    (3, 8, 16), (4, 3, 14), (5, 3, 8), (7, 2, 9), (6, 1, 25), (8, 6, 1), (6, 5, 3), (2, 1, 600),
]


@pytest.mark.parametrize(
    "grid",
    [(n, d, kmax) for n in range(2, 7) for d in range(1, 5) for kmax in range(7)]
    + PAST_BRUTE_FORCE,
)
def test_product_characters_match_the_dict_pass(grid):
    tables = list(character_tables(*grid))
    assert tables == dict_product_tables(*grid, tables[0].width)


def test_product_characters_refuse_their_top_degree_first():
    # the cells are counted when the iterator is made, before any layer is
    # built or any table asked for: 1 + 30 * 952,952 of them, each layer a
    # box of strides (49, 34, 26, 22)
    with pytest.raises(ResourceLimitError, match="hold 28588561 cells"):
        character_tables(5, 3, 30)


def test_product_characters_hold_the_entries_they_are_sized_by():
    for n, d, kmax in itertools.product(range(2, 5), range(1, 4), range(5)):
        # one cell at degree 0, and at each other degree one per moment
        # vector of the box, coordinate j capped at d * kmax // (j + 2)
        caps = [d * kmax // (j + 2) for j in range(n - 1)]
        cells = 1 + kmax * math.prod(cap + min(d, cap) + 1 for cap in caps)
        tables = character_tables(n, d, kmax, max_terms=cells)
        # the tables hold dominant weights only; their orbits hold every
        # moment vector of every degree
        entries = sum(math.comb(d * k + n - 1, n - 1) for k in range(kmax + 1))
        orbits = sum(_orbit_size(to_ambient(w)) for t in tables for w in dominant_weights(t))
        assert orbits == entries, (n, d, kmax)
        if kmax:  # at kmax = 0 the count is 1, and no limit is below it
            with pytest.raises(ResourceLimitError) as refused:
                character_tables(n, d, kmax, max_terms=cells - 1)
            assert f" {cells} cells, above the limit {cells - 1}" in str(refused.value)


def test_product_characters_check_their_mass(monkeypatch):
    # the zero index dropped from the walk: degree 0, the empty product, is
    # whole and handed out; degree 1 lacks the highest weight (3, 0), whose
    # orbit holds 3 of the 10 weights, and the pass raises before its table
    walk = oracles_mod.enumerate_indices
    monkeypatch.setattr(
        oracles_mod, "enumerate_indices", lambda n, d, caps=None: walk(n, d, caps)[1:]
    )
    tables = character_tables(3, 3, 2)
    assert next(tables).partitions == {0: 1}
    with pytest.raises(InternalError, match="degree 1 has mass 7, not 10"):
        next(tables)


def test_product_characters_check_each_degree_before_handing_it_out(monkeypatch):
    # a dimension wrong at degree 2 alone: degrees 0 and 1 are handed out
    # whole, and the pass raises at degree 2, before its table
    dimension = oracles_mod.symmetric_power_dimension
    monkeypatch.setattr(
        oracles_mod,
        "symmetric_power_dimension",
        lambda n, d, k: dimension(n, d, k) + (k == 2),
    )
    tables = character_tables(3, 3, 4)
    first = [next(tables), next(tables)]
    assert first == dict_product_tables(3, 3, 4, first[0].width)[:2]
    with pytest.raises(InternalError, match="degree 2 has mass 55, not 56"):
        next(tables)


def test_product_characters_build_one_moment_box(monkeypatch):
    # the box that sizes the tables is the box the pass runs over, at every
    # kmax, 0 among them
    box, built = oracles_mod._moment_box, []
    monkeypatch.setattr(
        oracles_mod, "_moment_box", lambda *grid: built.append(grid) or box(*grid)
    )
    for kmax in range(4):
        built.clear()
        assert len(list(character_tables(3, 2, kmax))) == kmax + 1
        assert built == [(3, 2, kmax)]


def test_the_index_walk_stops_at_the_caps(monkeypatch):
    # at (8, 6, 1) the caps are (3, 2, 1, 1, 1, 0, 0): 90 of the 1,716
    # indices are live, and the walk builds those alone, in the order of
    # the uncapped walk
    walk, built = oracles_mod.enumerate_indices, []

    def counted(n, d, caps):
        indices = walk(n, d, caps)
        built.append(indices)
        return indices

    monkeypatch.setattr(oracles_mod, "enumerate_indices", counted)
    assert main(["check", "8", "6", "--kmax", "1"], out=io.StringIO()) == 0
    assert [len(indices) for indices in built] == [90]
    caps = oracles_mod._moment_box(8, 6, 1)[0]
    assert built[0] == [i for i in enumerate_indices(8, 6) if all(map(int.__le__, i, caps))]


def test_product_characters_reach_a_large_degree():
    # Sym^k of the binary linear form is the irreducible of highest weight k
    for table in character_tables(2, 1, 600):
        full = orbit_expansion(dominant_weights(table))
        assert full == {(table.k - 2 * j,): 1 for j in range(table.k + 1)}


# 2 * d * kmax a power of two: at the top degree the largest field value
# fills its (2 * d * kmax).bit_length() bits, right below the spare bit
@pytest.mark.parametrize("grid", [(2, 4, 8), (4, 2, 4), (3, 1, 8), (2, 1, 8)])
def test_product_characters_read_out_only_dominant_weights(grid):
    n, d, kmax = grid
    edges = Counter()
    for table in character_tables(n, d, kmax):
        brute = brute_character(n, d, table.k).multiplicities
        dominant = dominant_weights(table)
        assert orbit_expansion(dominant) == brute
        assert dominant == {w: c for w, c in brute.items() if min(w) >= 0}
        # the mask's edges: a zero component is kept, a -1 component dropped
        edges["zero kept"] += sum(0 in w for w in dominant)
        edges["-1 dropped"] += sum(-1 in w for w in brute)
    assert edges["zero kept"]
    # binary weights of an even-degree form are even, so never -1
    assert bool(edges["-1 dropped"]) == (n > 2 or d % 2 == 1)


# each grid fills a field exactly: 2 * d * kmax is 64 at (2, 4, 8), 32 at
# (3, 2, 8) and 16 at (5, 1, 8), the top bit below the spare bit.  At
# (6, 1, 7) a partition sum of up to 35 exceeds a 5-bit field, and no key
# holds it: the first part, at most d * kmax = 7, sets the width
@pytest.mark.parametrize(
    "grid, width", [((2, 4, 8), 8), ((3, 2, 8), 7), ((5, 1, 8), 6), ((6, 1, 7), 5)]
)
def test_product_characters_at_the_edges_of_their_field_width(grid, width):
    n, d, kmax = grid
    for table in character_tables(n, d, kmax):
        assert table.width == width
        brute = brute_character(n, d, table.k).multiplicities
        assert dominant_weights(table) == {w: c for w, c in brute.items() if min(w) >= 0}
    out = io.StringIO()
    assert main(["check", str(n), str(d), "--kmax", str(kmax)], out=out) == 0
    rows = out.getvalue().splitlines()
    assert len(rows) == kmax + 1 and all(row.endswith(" ok") for row in rows)


def test_brute_character_resource_limit():
    with pytest.raises(ResourceLimitError):
        brute_character(3, 3, 6, max_monomials=100)


def test_highest_weight_has_multiplicity_one():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 4)
        w = tuple(rng.randint(0, 4) for _ in range(n - 1))
        assert kostka_number(n, w, w) == 1


def test_kostka_known_multiplicities():
    assert kostka_number(3, (1, 1), (0, 0)) == 2
    assert kostka_number(2, (2,), (0,)) == 1
    assert kostka_number(2, (2,), (2,)) == 1
    assert kostka_number(2, (2,), (-2,)) == 1
    # outside the module
    assert kostka_number(2, (2,), (1,)) == 0
    assert kostka_number(2, (2,), (4,)) == 0
    assert kostka_number(3, (1, 1), (3, 0)) == 0


def test_kostka_is_orbit_symmetric():
    assert kostka_number(3, (2, 2), (2, -1)) == kostka_number(3, (2, 2), (1, 1))


def _orbit_size(ambient):
    size = math.factorial(len(ambient))
    for rep in Counter(ambient).values():
        size //= math.factorial(rep)
    return size


def _narrowest(top):
    """The fewest bits per field that hold the parts of ``top``.  They hold
    its contents too: a letter fills at most one box of each column, so no
    count exceeds the first part."""
    return max(1, top[0].bit_length())


def test_kostka_multiplicities_sum_to_weyl_dimension():
    rng = random.Random(17)
    samples = [(2, (6,)), (3, (2, 2)), (3, (3, 1)), (4, (1, 0, 1)), (4, (2, 1, 2))]
    # long runs of equal entries and trailing zeros in the top, where the
    # interlacing ranges of the tableau recursion collapse to one value
    samples += [(5, (0, 3, 0, 0)), (5, (2, 0, 0, 2)), (5, (4, 0, 0, 0)), (4, (0, 5, 0))]
    samples += [
        (n, tuple(rng.randint(0, 3) for _ in range(n - 1)))
        for n in (2, 3, 4)
        for _ in range(3)
    ]
    for n, top in samples:
        # walk every weight in the module via dominant representatives
        total = 0
        top_ambient = sorted(to_ambient(top), reverse=True)
        rank_sum = sum(top_ambient)
        bound = top_ambient[0]
        for ambient in itertools.product(range(bound + 1), repeat=n):
            if sum(ambient) != rank_sum:
                continue
            if list(ambient) != sorted(ambient, reverse=True):
                continue
            mult = kostka_number(n, top, from_ambient(sorted(ambient)))
            total += mult * _orbit_size(ambient)
        assert total == weyl_dimension(n, top)
        # the table itself holds those weights and no others
        width = _narrowest(top_ambient)
        table = module_table(tuple(top_ambient), width)
        assert sum(m * _orbit_size(oracles_mod._unpack(lam, n, width)) for lam, m in table.items()) == total


# sha256 of the multiplicities over every n <= 4, highest weight with
# entries below 4 and weight with entries in -4..4 (47,988 lookups), taken
# while the Freudenthal tables were keyed by descending ambient vectors
KOSTKA_DIGEST = "da0be7c18a25ac551bd13c58ce95b9aa6e64c6bfd37f4d653dcd6446227f38ad"


def test_kostka_multiplicities_pinned():
    values = [
        kostka_number(n, top, w)
        for n in (2, 3, 4)
        for top in itertools.product(range(4), repeat=n - 1)
        for w in itertools.product(range(-4, 5), repeat=n - 1)
    ]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == KOSTKA_DIGEST


def _partitions(total, largest):
    """Partitions of ``total`` into parts at most ``largest``, descending."""
    if total == 0:
        yield ()
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def _standard_tableaux(shape):
    """Standard tableaux of ``shape`` by the hook-length formula."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = math.prod(
        (row - j) + (columns[j] - i) - 1
        for i, row in enumerate(shape)
        for j in range(row)
    )
    return math.factorial(sum(shape)) // hooks


def test_zero_weight_multiplicity_is_the_hook_length_formula():
    # the zero weight of the module with ambient vector lam, a partition of
    # n padded to n parts, has content (1, ..., 1): its multiplicity is the
    # number of standard tableaux of lam, past the ranks the digests pin
    checked = 0
    for n in range(2, 9):
        for lam in _partitions(n, n):
            lam += (0,) * (n - len(lam))
            top = from_ambient(lam[::-1])
            assert kostka_number(n, top, (0,) * (n - 1)) == _standard_tableaux(lam), lam
            checked += 1
    assert checked == 65


def _fillings(shape, content):
    """Semistandard tableaux of ``shape`` with ``content``, counted by
    filling one cell at a time in reading order: each row weakly
    increasing, each column strictly increasing, letter ``i`` used
    ``content[i - 1]`` times."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    grid = {}
    left = list(content)

    def fill(at):
        if at == len(cells):
            return 1
        r, c = cells[at]
        lowest = max(grid.get((r, c - 1), 1), grid.get((r - 1, c), 0) + 1)
        found = 0
        for letter in range(lowest, len(content) + 1):
            if left[letter - 1]:
                left[letter - 1] -= 1
                grid[r, c] = letter
                found += fill(at + 1)
                left[letter - 1] += 1
        return found

    return fill(0)


def _padded(total, n):
    """Partitions of ``total`` into at most ``n`` parts, padded to ``n``."""
    return [lam + (0,) * (n - len(lam)) for lam in _partitions(total, total) if len(lam) <= n]


# every top, repeated parts and trailing zeros included, where the
# recursion's inner shapes collapse and its size skip is tight
TOPS = [
    top
    for n, most in [(2, 8), (3, 8), (4, 8), (5, 8), (6, 6)]
    for size in range(most + 1)
    for top in _padded(size, n)
]


def test_tableau_contents_match_tableaux_filled_cell_by_cell():
    # the package's own counts, before stripping removes any full column
    for top in TOPS:
        expected = {}
        for mu in _padded(sum(top), len(top)):
            count = _fillings(top, mu[::-1])
            if count:
                expected[mu[::-1]] = count
        width = _narrowest(top)
        contents = oracles_mod.kostka_memo()(top, width)
        # field s counts letter s + 1
        assert {oracles_mod._unpack(key, len(top), width): c for key, c in contents.items()} == expected, top


def _match_gelfand_tsetlin_patterns(shape):
    """``_tableau_contents(shape)`` at the narrowest width and 9 bits wider
    equals the Gelfand--Tsetlin patterns of ``shape`` at ascending
    contents."""
    patterns = gelfand_tsetlin_contents(shape)
    expected = {mu: k for mu, k in patterns.items() if list(mu) == sorted(mu)}
    for width in (_narrowest(shape), _narrowest(shape) + 9):
        contents = oracles_mod.kostka_memo()(shape, width)
        # field s counts letter s + 1
        unpacked = {oracles_mod._unpack(mu, len(shape), width): k for mu, k in contents.items()}
        assert unpacked == expected, (shape, width)


def test_three_row_contents_count_gelfand_tsetlin_patterns():
    # every three-row shape with a <= 12, nonzero last rows included: the
    # n = 3 tops past the tops of size 8 that tableaux filled cell by cell
    # cover
    for a in range(13):
        for b in range(a + 1):
            for c in range(b + 1):
                _match_gelfand_tsetlin_patterns((a, b, c))


def test_four_row_contents_count_gelfand_tsetlin_patterns():
    # every four-row shape with a <= 10, zero rows included: the n = 4 tops
    # and the inner shapes of five-row tops, counted by one sum, past the
    # tops of size 8 that tableaux filled cell by cell cover
    for a in range(11):
        for b in range(a + 1):
            for c in range(b + 1):
                for e in range(c + 1):
                    _match_gelfand_tsetlin_patterns((a, b, c, e))


def _memos_of_each_check(monkeypatch, *argvs):
    """The Kostka memo that each ``check`` call makes, as it ends."""
    import naryinv.cli as cli_mod

    make, memos = cli_mod.kostka_memo, []

    def made():
        memos.append(make())
        return memos[-1]

    monkeypatch.setattr(cli_mod, "kostka_memo", made)
    for argv in argvs:
        assert main(argv, out=io.StringIO()) == 0
    return memos


def test_one_verify_pass_builds_and_reads_the_pinned_kostka_tables(monkeypatch):
    # each query makes its own memo, as a fresh process would; three and
    # four rows are counted with no inner shape, so the memo holds only the
    # tops stripped and the four-row inner shapes of five-row tops (a
    # recursion down to three rows read 1,058 misses and 1,321 hits, one
    # down to two rows 1,969 and 8,429)
    argvs = [["check", str(n), str(d), "--kmax", str(kmax)] for n, d, kmax in VERIFY_GRIDS]
    infos = [memo.cache_info() for memo in _memos_of_each_check(monkeypatch, *argvs)]
    assert len(infos) == len(VERIFY_GRIDS)
    assert (sum(i.misses for i in infos), sum(i.hits for i in infos)) == (636, 829)


def test_a_kostka_memo_keeps_the_4096_tables_used_last():
    # more shapes than it holds keep a memo at its bound, and the shape
    # asked for longest ago is the one built again: the first shape, asked
    # for again before the memo fills, stays, and the second goes
    memo = oracles_mod.kostka_memo()
    shapes = (
        (total - b - c, b, c)
        for total in itertools.count()
        for c in range(total // 3 + 1)
        for b in range(c, (total - c) // 2 + 1)
    )
    shapes = list(itertools.islice(shapes, 4096 + 5))
    # keyed by shape and width: 8 bits hold every part of these shapes
    for shape in shapes[:4096] + shapes[:1] + shapes[4096:]:
        memo(shape, 8)
    assert (memo.cache_info().currsize, memo.cache_info().maxsize) == (4096, 4096)
    misses = memo.cache_info().misses
    memo(shapes[0], 8)
    memo(shapes[-1], 8)
    assert memo.cache_info().misses == misses
    memo(shapes[1], 8)
    assert memo.cache_info().misses == misses + 1


def test_tableau_contents_agree_across_widths():
    # the memo is keyed by shape and width: one shape at the narrowest
    # width that holds it and at a wider one is two entries, one table
    for top in TOPS:
        contents = oracles_mod.kostka_memo()
        widths = (_narrowest(top), _narrowest(top) + 9)
        built = {width: contents(top, width) for width in widths}
        assert built[widths[0]] is not built[widths[1]]
        info = contents.cache_info()
        assert all(contents(top, width) is built[width] for width in widths)
        assert contents.cache_info().hits == info.hits + 2
        assert contents.cache_info().misses == info.misses
        unpacked = [
            {oracles_mod._unpack(key, len(top), width): c for key, c in built[width].items()}
            for width in widths
        ]
        assert unpacked[0] == unpacked[1], top


def test_module_tables_match_tableaux_filled_cell_by_cell():
    assert len(TOPS) == 209
    for top in TOPS:
        expected = {}
        for mu in _padded(sum(top), len(top)):
            count = _fillings(top, mu)
            if count:
                expected[tuple(x - mu[-1] for x in mu)] = count
        width = _narrowest(top)
        table = module_table(top, width)
        # a partition is packed as its ascending vector
        assert {oracles_mod._unpack(key, len(top), width)[::-1]: c for key, c in table.items()} == expected, top


def test_two_row_contents_match_tableaux_filled_cell_by_cell():
    # the binary tops: three and four rows are counted without inner
    # shapes, and more rows recurse down to four, so no inner shape has
    # two; nonzero last rows included, though no stripped top ends in one
    for a in range(9):
        for b in range(a + 1):
            expected = {}
            for p in range((a + b) // 2 + 1):
                count = _fillings((a, b), (p, a + b - p))
                if count:
                    expected[p, a + b - p] = count
            width = _narrowest((a, b))
            contents = oracles_mod.kostka_memo()((a, b), width)
            # field s counts letter s + 1
            assert {oracles_mod._unpack(key, 2, width): c for key, c in contents.items()} == expected


def test_packed_partitions_round_trip_in_lexicographic_order():
    # parts up to 12: 4 bits hold them, 32 bits hold them with room; each
    # partition is packed as its ascending vector, so the first part, last
    # in the vector, is the most significant field
    for width in (4, 32):
        checked = 0
        for rows in range(1, 6):
            parts = list(itertools.combinations_with_replacement(range(13), rows))
            for p in parts:
                assert oracles_mod._unpack(oracles_mod._pack(p, width), rows, width) == p
            assert sorted(parts, key=lambda p: oracles_mod._pack(p, width)) == sorted(
                parts, key=lambda p: p[::-1]
            )
            checked += len(parts)
        assert checked == 8567


@pytest.mark.parametrize(
    "table, shape, width",
    [
        (CharacterTable(2, 1, 0, {(2**32,): 1}), (2**32, 0), 35),
        # the ordinary partition (2**31, 0, 0, 0, 0) comes first in the walk;
        # its first part 2**31 sets the width, not the sum 2**32 of
        # (2**30, 2**30, 2**30, 2**30, 0)
        (
            CharacterTable(
                5, 1, 0,
                {(0, 0, 0, 0): 1, (1, 0, 0, 0): 2, (0, 0, 0, 2**31): 1, (2**30, 0, 0, 0): 1},
            ),
            (2**31, 0, 0, 0, 0),
            34,
        ),
        # the first part 35, not the largest component 7, sets the width:
        # fields sized for 7 would hold the parts only up to 31
        (CharacterTable(6, 1, 0, {(7, 7, 7, 7, 7): 1}), (35, 28, 21, 14, 7, 0), 8),
    ],
    ids=["table0-shape0", "table1-shape1", "table2-shape2"],
)
def test_the_field_width_adapts_to_the_largest_partition(table, shape, width, monkeypatch):
    # a partition of 2**32 needs 33 bits a field, more than 32; its table
    # would have 2**31 entries, so the first one asked for stops the run
    calls = []

    def build(shape, width, memo):
        calls.append((shape, width))
        raise LookupError("stop before building")

    monkeypatch.setattr(oracles_mod, "_tableau_contents", build)
    with pytest.raises(LookupError, match="stop before building"):
        strip_decompose(table)
    assert calls == [(shape, width)]


def test_weyl_dimension_examples():
    for n in (2, 3, 4):
        assert weyl_dimension(n, (0,) * (n - 1)) == 1
    assert weyl_dimension(3, (1, 1)) == 8
    for d in range(7):
        assert weyl_dimension(2, (d,)) == d + 1
    assert weyl_dimension(4, (1, 0, 1)) == 15


def test_alternating_sum_detects_the_zero_weight():
    assert alternating_multiplicity_sum(3, (0, 0)) == 1
    assert alternating_multiplicity_sum(3, (1, 1)) == 0
    assert alternating_multiplicity_sum(2, (4,)) == 0
    assert alternating_multiplicity_sum(2, (0,)) == 1
    assert alternating_multiplicity_sum(4, (0, 0, 0)) == 1
    assert alternating_multiplicity_sum(4, (2, 0, 1)) == 0


def test_strip_decompose_examples():
    assert strip_decompose(brute_character(2, 2, 2)) == {(4,): 1, (0,): 1}
    assert strip_decompose(brute_character(3, 2, 0)) == {(0, 0): 1}
    assert strip_decompose(brute_character(3, 3, 4)).get((0, 0), 0) == 1


def test_strip_decompose_dimension_bookkeeping():
    for n, d, k in [(2, 3, 4), (3, 2, 3), (3, 3, 3)]:
        table = brute_character(n, d, k)
        stripped = strip_decompose(table)
        assert all(v > 0 for v in stripped.values())
        total = sum(v * weyl_dimension(n, w) for w, v in stripped.items())
        assert total == sum(table.multiplicities.values())


# sha256 of repr(sorted(strip_decompose(brute_character(*query)).items())),
# taken while stripping walked ambient vectors in dominance order
STRIP_DIGESTS = {
    (2, 5, 12): "1e5f0be8be6dc43617e3011f42f7dfa584cf7233607cfd5d563078dfaf73267b",
    (3, 3, 6): "14e2bfba0b131d952927051fce21d50eeb0b25eb5e17d989ca6b58a70f852fff",
    (4, 2, 6): "eabe13122f4a47829cb96ebaf8960f8e022394809bc958dcd5a0469c37ab97f3",
    (5, 2, 4): "dbd118f9f4ef9b10ee4d5b4c32f355227d5d9bf4ffcff58ca873b47985ff5ea3",
    (3, 4, 4): "91053dadaa5ca464323257e07bc280e2f5108b7c6b33762a8d9496dd015ee273",
    (4, 5, 3): "5a4b3d509444c30c570e755e3b38cece5ffeca88a8caa56118cd1e063264f82b",
}


@pytest.mark.parametrize("query", sorted(STRIP_DIGESTS))
def test_strip_decompose_pinned(query):
    text = repr(sorted(strip_decompose(brute_character(*query)).items()))
    assert hashlib.sha256(text.encode()).hexdigest() == STRIP_DIGESTS[query]


def _character(n, modules):
    """The full character of a sum of modules, ``{highest: copies}``, built
    orbit by orbit from Kostka numbers.  ``strip_decompose`` reads only the
    multiplicities, so ``d`` and ``k`` are placeholders."""
    table = Counter()
    for top, copies in modules.items():
        # a dominant weight of the module spans at most the ambient range
        # of the highest weight, which is the sum of its entries
        for w in itertools.product(range(sum(top) + 1), repeat=n - 1):
            mult = kostka_number(n, top, w)
            for ambient in set(itertools.permutations(to_ambient(w))):
                table[from_ambient(ambient)] += copies * mult
    # the orbit walk missed no weight
    assert sum(table.values()) == sum(c * weyl_dimension(n, t) for t, c in modules.items())
    return CharacterTable(n=n, d=1, k=0, multiplicities=dict(table))


@pytest.mark.parametrize(
    "n, modules",
    [
        # neither of (3, 0) and (0, 3) dominates the other; their partitions
        # (3, 3, 0) and (3, 0, 0) are walked in lexicographic order
        (3, {(3, 0): 2, (0, 3): 1, (1, 1): 3, (0, 0): 1}),
        (3, {(2, 2): 1, (4, 1): 2, (1, 4): 2, (0, 0): 4}),
        # (2, 0, 0), (1, 0, 1) and (0, 0, 2) are pairwise incomparable; their
        # partitions (2, 2, 2, 0), (2, 1, 1, 0) and (2, 0, 0, 0) are walked
        # in lexicographic order
        (4, {(2, 0, 0): 1, (1, 0, 1): 2, (0, 0, 2): 3, (0, 1, 0): 1, (0, 0, 0): 2}),
    ],
)
def test_strip_decompose_inverts_a_sum_of_modules(n, modules):
    assert strip_decompose(_character(n, modules)) == modules


@pytest.mark.parametrize(
    "table",
    [
        # a negative entry: stripping (2, 0) leaves -2 at the partition (0, 0)
        CharacterTable(2, 1, 2, {(2,): 1, (0,): -1}),
        # a listed weight too small: stripping (2, 0) leaves -1 at (0, 0)
        CharacterTable(2, 1, 2, {(2,): 1, (0,): 0}),
        # weights the module of (3, 3, 0) needs are never listed, so what
        # stripping it leaves there is never read
        CharacterTable(3, 1, 3, {(3, 0): 1}),
    ],
)
def test_strip_decompose_refuses_a_table_that_is_not_a_character(table):
    with pytest.raises(InternalError, match=r"partition \(\d+(, \d+)*\)"):
        strip_decompose(table)


@pytest.mark.parametrize(
    "table",
    [
        # too long: the extra entry is not dropped
        CharacterTable(2, 1, 1, {(1, 0): 1}),
        # too short: bad input, not a fault of the code (InternalError)
        CharacterTable(3, 1, 1, {(1,): 1}),
    ],
)
def test_strip_decompose_refuses_a_weight_of_the_wrong_length(table):
    (weight,) = table.multiplicities
    with pytest.raises(ValueError, match=re.escape(f"weight {weight} must have length")):
        strip_decompose(table)


@pytest.mark.parametrize(
    "table, message",
    [
        # a fractional multiplicity was stripped as a number: (0,) kept 0.5
        (
            CharacterTable(2, 1, 2, {(2,): 1, (0,): 1.5, (-2,): 1}),
            "multiplicity of weight (0,): 1.5 is not an integer",
        ),
        # a float weight entry failed deep in the packing with a TypeError
        (
            CharacterTable(2, 1, 1, {(1.0,): 1, (-1.0,): 1}),
            "weight (1.0,) position 1: 1.0 is not an integer",
        ),
    ],
    ids=["fractional-multiplicity", "float-weight"],
)
def test_strip_decompose_refuses_an_entry_that_is_not_an_integer(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        strip_decompose(table)


def test_module_tables_lie_lexicographically_below_their_partition():
    # strip_decompose walks partitions in decreasing lexicographic order, so
    # no module may reach a partition above its own
    keys = 0
    for n in range(2, 6):
        for parts in itertools.combinations_with_replacement(range(13), n - 1):
            if sum(parts) <= 12:
                lam = (*sorted(parts, reverse=True), 0)
                width = _narrowest(lam)
                table = module_table(lam, width)
                assert table[oracles_mod._pack(lam[::-1], width)] == 1
                assert all(oracles_mod._unpack(key, n, width)[::-1] <= lam for key in table)
                keys += len(table)
    assert keys == 4097


def test_binary_invariant_dimension_examples():
    assert binary_invariant_dimension(3, 4) == 1
    assert binary_invariant_dimension(4, 5) == 1
    for d in range(1, 7):
        assert binary_invariant_dimension(d, 0) == 1
    assert binary_invariant_dimension(3, 1) == 0  # odd product


def test_binary_invariant_dimension_at_large_degree():
    # deep enough that a recursive partition count would overflow the stack
    assert binary_invariant_dimension(1, 1000) == 0
    assert binary_invariant_dimension(2, 600) == 1
    assert binary_invariant_dimension(3, 400) == binary_invariant_dimension(400, 3) == 1
    # the binary quartic's Hilbert series is 1/((1-t^2)(1-t^3))
    quartic = [1] + [0] * 600
    for a in (2, 3):
        for j in range(a, 601):
            quartic[j] += quartic[j - a]
    assert [binary_invariant_dimension(4, k) for k in range(598, 601)] == quartic[598:]


def test_binary_oracles_agree_with_each_other():
    for d in range(1, 7):
        for k in range(11):
            stripped = strip_decompose(brute_character(2, d, k))
            assert stripped.get((0,), 0) == binary_invariant_dimension(d, k)

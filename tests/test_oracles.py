import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

import naryinv.oracles as oracles_mod
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
    from_ambient,
    kostka_number,
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
    sized for ``2 * d * k`` with a spare bit, expanded from its dominant
    weights over their orbits to the whole character."""
    *_, table = character_tables(n, d, k)
    return table._replace(multiplicities=orbit_expansion(table.multiplicities))


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
        full = orbit_expansion(table.multiplicities)
        assert full == brute_character(n, d, table.k).multiplicities


def test_product_characters_refuse_their_top_degree_first():
    # the entries are summed from kmax down when the iterator is made,
    # before any table is asked for: the top two degrees pass the limit
    with pytest.raises(ResourceLimitError, match="at least 5722171 entries"):
        character_tables(5, 3, 30)


def test_product_characters_hold_the_entries_they_are_sized_by():
    for n, d, kmax in itertools.product(range(2, 5), range(1, 4), range(5)):
        count = sum(math.comb(d * k + n - 1, n - 1) for k in range(kmax + 1))
        tables = character_tables(n, d, kmax, max_terms=count)
        # the tables hold dominant weights only; their orbits hold every entry
        orbits = sum(_orbit_size(to_ambient(w)) for t in tables for w in t.multiplicities)
        assert orbits == count, (n, d, kmax)
        if kmax:  # at kmax = 0 the count is 1, and no limit is below it
            with pytest.raises(ResourceLimitError) as refused:
                character_tables(n, d, kmax, max_terms=count - 1)
            assert f" {count} entries, above the limit {count - 1}" in str(refused.value)


def test_product_characters_check_their_mass(monkeypatch):
    # one index dropped from the walk: every degree >= 1 falls short of the
    # symmetric-power dimension, and the pass raises before the first table
    walk = oracles_mod.enumerate_indices
    monkeypatch.setattr(oracles_mod, "enumerate_indices", lambda n, d: walk(n, d)[1:])
    with pytest.raises(InternalError, match="degree 1 has mass 9, not 10"):
        next(character_tables(3, 3, 2))


def test_product_characters_reach_a_large_degree():
    # Sym^k of the binary linear form is the irreducible of highest weight k
    for table in character_tables(2, 1, 600):
        full = orbit_expansion(table.multiplicities)
        assert full == {(table.k - 2 * j,): 1 for j in range(table.k + 1)}


# 2 * d * kmax a power of two: at the top degree the largest field value
# fills its (2 * d * kmax).bit_length() bits, right below the spare bit
@pytest.mark.parametrize("grid", [(2, 4, 8), (4, 2, 4), (3, 1, 8), (2, 1, 8)])
def test_product_characters_read_out_only_dominant_weights(grid):
    n, d, kmax = grid
    edges = Counter()
    for table in character_tables(n, d, kmax):
        brute = brute_character(n, d, table.k).multiplicities
        assert orbit_expansion(table.multiplicities) == brute
        assert table.multiplicities == {w: c for w, c in brute.items() if min(w) >= 0}
        # the mask's edges: a zero component is kept, a -1 component dropped
        edges["zero kept"] += sum(0 in w for w in table.multiplicities)
        edges["-1 dropped"] += sum(-1 in w for w in brute)
    assert edges["zero kept"]
    # binary weights of an even-degree form are even, so never -1
    assert bool(edges["-1 dropped"]) == (n > 2 or d % 2 == 1)


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
        table = oracles_mod._module_table(tuple(top_ambient))
        assert sum(m * _orbit_size(lam) for lam, m in table.items()) == total


def test_kostka_memo_is_bounded():
    memo = oracles_mod._module_table
    cap = memo.cache_info().maxsize
    assert cap is not None
    # the cheapest modules first: small weights of rank 3, 4 and 5
    small = (
        (n, w)
        for total in itertools.count()
        for n in (3, 4, 5)
        for w in itertools.product(range(total + 1), repeat=n - 1)
        if sum(w) == total
    )
    for n, w in itertools.islice(small, cap + 5):
        assert kostka_number(n, w, w) == 1
    assert memo.cache_info().currsize <= cap


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


def test_module_tables_match_tableaux_filled_cell_by_cell():
    # every top, repeated parts and trailing zeros included, where the
    # recursion's inner shapes collapse and its size skip is tight
    def padded(total, n):
        return [lam + (0,) * (n - len(lam)) for lam in _partitions(total, total) if len(lam) <= n]

    tops = [
        top
        for n, most in [(2, 8), (3, 8), (4, 8), (5, 8), (6, 6)]
        for size in range(most + 1)
        for top in padded(size, n)
    ]
    assert len(tops) == 209
    for top in tops:
        expected = {}
        for mu in padded(sum(top), len(top)):
            count = _fillings(top, mu)
            if count:
                expected[tuple(x - mu[-1] for x in mu)] = count
        assert oracles_mod._module_table(top) == expected, top


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


def test_module_tables_lie_lexicographically_below_their_partition():
    # strip_decompose walks partitions in decreasing lexicographic order, so
    # no module may reach a partition above its own
    keys = 0
    for n in range(2, 6):
        for parts in itertools.combinations_with_replacement(range(13), n - 1):
            if sum(parts) <= 12:
                lam = (*sorted(parts, reverse=True), 0)
                table = oracles_mod._module_table(lam)
                assert table[lam] == 1 and all(key <= lam for key in table)
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

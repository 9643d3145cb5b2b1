"""Differential tests: the whole-window bitset paths against the oracles.

The Apery set, membership, gaps, genus, symmetry, the Apery strata and the
orders are computed in the package by intersections of whole-window bitsets
and lookups in the tables they fill; here each is compared with a slow twin
in ``oracles.py``, on random small generator lists and on the study
instances.
"""

import dataclasses
import itertools
import math
import random
import time
import tracemalloc
from array import array

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numsem import (
    InternalInconsistency,
    NonMinimal,
    SearchConfig,
    SpParameters,
    apery_strata,
    audit_delta,
    build,
    check_offset3,
    classify_c3,
    construct_sp,
    hilbert_function,
    induced_elements,
    is_symmetric,
    is_tangent_cone_cm,
    maximal_representations,
    order_of,
    order_table,
    recover_sp_parameters,
    search_decreasing,
    strata_tables,
    support_size,
)
from numsem import core, filtration, grading, search, structure
from numsem._bitset import (
    PackedColumns,
    add_generator,
    bits_to_tuple,
    closure_bits,
    fold_classes,
    frobenius_window,
)
from numsem.corpus import minimalize

import data
import oracles


def check_apery(S):
    assert S.apery().elems == oracles.apery(list(S.gens))


def check_contains(S):
    e, f = S.e, S.f
    member = oracles.members_upto(list(S.gens), f + 3 * e)
    for s in range(-3 * e, f + 3 * e + 1):
        assert S.contains(s) == (s >= 0 and member[s]), s


def check_gaps_and_genus(S):
    want = oracles.gaps(list(S.gens))
    assert S.gaps() == want
    assert S.genus() == len(want)


def check_symmetry(S):
    assert is_symmetric(S) == oracles.is_symmetric_scan(list(S.gens))


def check_strata(S):
    strata = apery_strata(S)
    placed = [0]
    for k, elems in strata.strata.items():
        for w in elems:
            assert oracles.order(list(S.gens), w) == k, w
        placed.extend(elems)
    assert sorted(placed) == list(oracles.apery(list(S.gens)))
    assert strata.d == max(strata.strata, default=0)


def check_orders(S):
    """order_of and the order table's ``order`` against the array DP, on
    every member up to f + r_stop*e and on the far reads at 2 to 4 times that
    bound, which the order table answers from its last column."""
    bound = S.f + strata_tables(S).r_stop * S.e
    want = oracles.order_dp(list(S.gens), 4 * bound)
    table = order_table(S)
    assert {s: table.order(s) for s in range(bound + 1) if S.contains(s)} == {
        s: k for s, k in enumerate(want[: bound + 1]) if k is not None
    }
    for s in [*range(bound + 1), *range(2 * bound, 4 * bound + 1)]:
        if want[s] is not None:
            assert order_of(S, s) == want[s], s


def check_columns(S):
    """Each column the order table derives against the array DP:
    ``table_column(table, h)[c]`` is the smallest s = c mod e with
    ord(s) >= h, for h = 0 .. stable_from + 2, and a class gains 0 or e from
    one column to the next."""
    table = order_table(S)
    e = S.e
    columns = [oracles.table_column(table, h) for h in range(table.stable_from + 3)]
    want = oracles.order_dp(list(S.gens), S.f + len(columns) * e)
    for h, column in enumerate(columns):
        smallest = {}
        for s, k in enumerate(want):
            if k is not None and k >= h:
                smallest.setdefault(s % e, s)
        assert column == [smallest[c] for c in range(e)], h
    for low, high in zip(columns, columns[1:]):
        assert {b - a for a, b in zip(low, high)} <= {0, e}


def check_tables(S):
    """C_k, D_k and D_k^t against their definitions, read off the array DP,
    for every level up to r_stop: C_k holds the x of order k with x - e
    outside (k-1)M, D_k the y of order k-1 with ord(y + e) > k, and D_k^t
    those with ord(y + e) = t.  The dicts hold exactly the levels below
    r_stop, in increasing order, and k0 is the first nonempty D_k."""
    t = strata_tables(S)
    e, r_stop = S.e, t.r_stop
    ords = oracles.order_dp(list(S.gens), S.f + (r_stop + 4) * e)

    def landed(x, k):  # x - e is in (k-1)M
        return x >= e and ords[x - e] is not None and ords[x - e] >= k - 1

    split = {}
    for k in range(1, r_stop + 1):
        c_k = tuple(x for x, o in enumerate(ords) if o == k and not landed(x, k))
        assert t.c_sets.get(k, ()) == c_k, (S.gens, k)
        if k == 1:
            continue
        d_k = tuple(y for y, o in enumerate(ords) if o == k - 1 and ords[y + e] > k)
        assert t.d_sets.get(k, ()) == d_k, (S.gens, k)
        for y in d_k:
            split.setdefault(k, {}).setdefault(ords[y + e], []).append(y)
    want = {k: {u: tuple(ys) for u, ys in sorted(by.items())} for k, by in split.items()}
    assert t.d_split == want, S.gens
    assert [(k, list(by)) for k, by in t.d_split.items()] == [
        (k, list(by)) for k, by in want.items()
    ]
    assert list(t.c_sets) == list(range(1, r_stop))
    assert list(t.d_sets) == list(range(2, r_stop))
    assert t.k0 == min(want, default=None)


def check_leaf(S):
    """The search's early-exit sweep against the full order table."""
    limit = S.f + S.e
    hit = search._candidate_is_hit(S.gens, closure_bits(S.gens, limit), limit)
    assert hit == hilbert_function(S).is_decreasing


CHECKS = [
    check_apery,
    check_contains,
    check_gaps_and_genus,
    check_symmetry,
    check_strata,
    check_orders,
    check_columns,
    check_tables,
    check_leaf,
]


@st.composite
def small_semigroups(draw):
    values = draw(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6)
    )
    if math.gcd(*values) != 1:
        values = values + [values[0] + 1]
    return build(list(minimalize(values)))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(S=small_semigroups())
def test_fast_paths_match_oracles(check, S):
    check(S)


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_fast_paths_match_oracles_on_study_instances(check, study_instances):
    for S in study_instances:
        check(S)


# Ladders small enough for the oracles.  Their windows are wide against
# e * v, but not past the min-plus threshold, so each fill is forced.
LADDERS = [(30, 31), (60, 61, 62), (21, 23), (25, 26, 27), (16, 17, 19, 20)]

# _MIN_PLUS_ABOVE values that force each fill of the order table.
FILLS = {"bitset": 1 << 62, "min_plus": -1}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("fill", FILLS)
@settings(max_examples=60, deadline=None)
@given(S=small_semigroups())
@example(S=build([1]))
@example(S=build([2, 3]))
def test_both_fills_match_oracles(fill, check, S):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grading, "_MIN_PLUS_ABOVE", FILLS[fill])
        check(build(list(S.gens)))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("fill", FILLS)
def test_both_fills_match_oracles_on_study_instances_and_ladders(
    monkeypatch, fill, check, study_instances
):
    monkeypatch.setattr(grading, "_MIN_PLUS_ABOVE", FILLS[fill])
    for gens in [S.gens for S in study_instances] + LADDERS:
        check(build(list(gens)))


@pytest.mark.parametrize(
    "gens, c, runs",
    [
        ((11, 12, 27), 10, ((5, 6), (9, 10))),
        ((21, 23, 98), 7, ((5, 8), (11, 14))),
        ((20, 27, 30, 71), 13, ((4, 7), (9, 10))),
    ],
)
@pytest.mark.parametrize("fill", FILLS)
def test_order_reads_stall_runs(monkeypatch, fill, gens, c, runs):
    """Semigroups with a class of two stall runs: ``order()`` adds both to
    the first move, against the array DP on every member up to f + r_stop*e
    and on the far reads at 2 to 4 times that bound."""
    monkeypatch.setattr(grading, "_MIN_PLUS_ABOVE", FILLS[fill])
    S = build(list(gens))
    assert order_table(S).runs[c] == runs
    check_orders(S)
    check_columns(S)


@st.composite
def two_generator_semigroups(draw):
    a = draw(st.integers(min_value=2, max_value=12))
    b = draw(st.sampled_from([b for b in range(a + 1, 3 * a + 1) if math.gcd(a, b) == 1]))
    return build([a, b])


@settings(max_examples=100, deadline=None)
@given(S=st.one_of(small_semigroups(), two_generator_semigroups()))
@example(S=build([1]))
def test_representation_reads_match_oracles(S):
    """maximal_representations, support_size and induced_elements against
    the brute-force oracles, on every member s <= f + 3e and every level
    0 <= h <= ord(s); every record passes the check it skipped when made."""
    gens = list(S.gens)
    for s in range(S.f + 3 * S.e + 1):
        if not S.contains(s):
            continue
        want = oracles.max_representations(gens, s)
        k = sum(want[0])
        reps = maximal_representations(S, s)
        assert [(r.gens, r.coeffs, r.value, r.order) for r in reps] == [
            (S.gens, c, s, k) for c in want
        ], s
        supports = tuple(tuple(g for g, c in zip(gens, coeffs) if c) for coeffs in want)
        info = support_size(S, s)
        assert (info.size, info.per_rep_supports) == (max(map(len, supports)), supports), s
        for rep in reps:
            grading._check_record(rep)  # valid by construction, unchecked when made
            for h in range(k + 1):
                assert induced_elements(rep, h) == oracles.induced_values(
                    gens, rep.coeffs, h
                ), (s, rep.coeffs, h)


def _table_fields(gens):
    """Every field of the order table and the columns it derives up to
    ``stable_from``; the repr keeps the dict key order."""
    table = order_table(build(list(gens)))
    columns = [oracles.table_column(table, h) for h in range(table.stable_from + 1)]
    return repr(
        (
            table.hilbert,
            table.tables,
            table.apery_strata,
            table.first,
            table.runs,
            columns,
            table.stable_from,
        )
    )


def _fills_agree(monkeypatch, gens):
    """The min-plus fill against its twin, the bitset fill, on ``gens``:
    their H and C_n, then every field of the table under each, dict order
    included.  Returns the field width w of the min-plus fill's columns."""
    widths = []

    class Recorded(PackedColumns):
        def __init__(self, e, bound):
            super().__init__(e, bound)
            widths.append(self.w)

    monkeypatch.setattr(grading, "PackedColumns", Recorded)
    S = build(list(gens))
    assert grading._min_plus_fill(S) == grading._bitset_fill(S)
    tables = []
    for above in FILLS.values():
        monkeypatch.setattr(grading, "_MIN_PLUS_ABOVE", above)
        tables.append(_table_fields(gens))
    assert tables[0] == tables[1]
    return widths[0]


@pytest.mark.parametrize(
    "gens, width",
    [
        ((100, 101), 16),
        ((200, 201), 18),
        ((400, 401), 20),
        ((99, 101), 16),
        ((80, 81, 82), 15),
        ((150, 151, 157), 16),
        ((70, 79, 83), 14),  # window 5.7 times e * v
        ((78, 79, 311), 15),  # window 20.9 times e * v, just above the threshold
        # A perfbench wide draw whose bitset fill sweeps 169 levels.
        ((400, 403, 907, 959, 975, 1087, 1392, 1816, 2093, 2335), 19),
        # Entry bounds max(Ap) + e * e + max(gens) of 2**12 - 1 and 2**12,
        # then 2**13 - 1 and 2**13: the field width steps by one across each.
        ((45, 46), 13),
        ((41, 78, 115), 14),
        ((59, 108, 157), 14),
        ((67, 76, 161), 15),
    ],
)
def test_fills_agree_on_wide_ladders(monkeypatch, gens, width):
    """The two fills where the oracles are too slow, each at the field width
    it should derive."""
    assert _fills_agree(monkeypatch, gens) == width


@st.composite
def mid_window_semigroups(draw):
    """Generators in (e, 2e), so all minimal, with a window f + e of 2 to 40
    times e * v: the band around the threshold between the two fills."""
    e = draw(st.integers(min_value=5, max_value=60))
    above = draw(st.sets(st.integers(min_value=e + 1, max_value=2 * e - 1), min_size=1, max_size=4))
    S = build(sorted({e, *above} if math.gcd(e, *above) == 1 else {e, e + 1, *above}))
    assume(2 <= (S.f + e) / (e * S.v) <= 40)
    return S


@settings(max_examples=60, deadline=None)
@given(S=mid_window_semigroups())
def test_fills_agree_around_the_threshold(S):
    """The two fills, field for field, on windows whose width decides
    between them."""
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        for above in FILLS.values():
            patch.setattr(grading, "_MIN_PLUS_ABOVE", above)
            tables.append(_table_fields(S.gens))
    assert tables[0] == tables[1]


def _strata(gens, bits, limit):
    """The strata nM minus (n+1)M, less ne, that the level sweep yields on a
    closure."""
    return [stratum for _, stratum in grading._levels(gens, bits, limit)]


def test_level_sweep_does_not_depend_on_its_window(property_corpus):
    """The strata of the level sweep, and the level it stops at, are the
    same on every closure it may be given: exact over [0, limit] with
    limit = f + e (the order table's), f + 2e, 2(f + e), or the window that
    ``frobenius_window`` grows from the fold over [0, 2 * max(gens)] (a
    search leaf's)."""
    for S in property_corpus + [build([1]), build([2, 3]), build([100, 101])]:
        gens, f, e = S.gens, S.f, S.e
        windows = [(closure_bits(gens, n), n) for n in (f + e, f + 2 * e, 2 * (f + e))]
        top = 2 * gens[-1]
        windows.append(frobenius_window(closure_bits(gens, top), gens, top))
        want, *rest = [_strata(gens, *window) for window in windows]
        assert rest == [want] * 3, gens


def test_level_sweep_stays_in_its_window(property_corpus):
    """Every set the level sweep yields, at every level, fits the caller's
    one window [0, limit]: no int is wider than limit + 1 bits."""
    for S in property_corpus + [build([1]), build([2, 3]), build([100, 101])]:
        limit = S.f + S.e
        for level in grading._levels(S.gens, closure_bits(S.gens, limit), limit):
            assert max(x.bit_length() for x in level) <= limit + 1, S.gens


@pytest.mark.parametrize("gens", [(2, 8388607), (3, 5592404)])
def test_column_fields_hold_every_entry_the_budget_allows(monkeypatch, gens):
    """The semigroup keeps its Apery table, column 0 of the min-plus fill,
    as an ``array("i")``.  Under the window budget B >= e * max(gens), an
    Apery element is at most (e-1) * max(gens) + 1 <= B, a column entry at
    most that plus (e-1) * e, itself below B, and a min-plus candidate at
    most that plus a generator <= B, so every value the fill meets stays
    below 3B; that must stay below 2**31, the array's limit, so a larger
    budget fails here until the table's type is re-derived.  The fill sizes
    its fields from the table: at the budget's edge, where e * max(gens) is
    2**24 - 2 and 2**24 - 4, they are 26 bits wide.  Both fills there: their
    H and C_n, and every field of the table."""
    assert array("i").itemsize == 4
    budget = core._WINDOW_BUDGET
    assert 3 * budget < 2**31
    a, b = gens
    assert a * b <= budget and math.gcd(a, b) == 1
    assert build([a, b]).f == a * b - a - b
    assert _fills_agree(monkeypatch, gens) == 26


def test_min_plus_table_keeps_no_column_a_level():
    """<2000, 2003, 5999> takes the min-plus fill, on 24-bit fields, and
    has 867 stall runs over 1,333 levels.  The fill holds one packed column
    of 2000 * 24 bits (6 KB) at a time and keeps only H and C_n, so the
    traced peak of the table's build stays far below the 8 MB that one
    column-wide set a level would take."""
    S = build([2000, 2003, 5999])
    assert S.f + S.e > grading._MIN_PLUS_ABOVE * S.e * S.v
    tracemalloc.start()
    try:
        table = grading.OrderTable(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, table.runs)) == 867
    assert peak < 3 * 1024 * 1024
# The packed-column kernel against plain lists, at e = 1, 2, a prime and 400,
# and at entry bounds 2**k - 1 and 2**k, across which the field width steps
# by one.
PACKED_CASES = [
    (e, bound, width)
    for e in (1, 2, 13, 400)
    for k in (9, 13)
    for bound, width in ((2**k - 1, k + 1), (2**k, k + 2))
]


def _packed_twin(values, width):
    """A list packed the plain way: entry c at bit width * c."""
    return sum(x << width * c for c, x in enumerate(values))


def _entries(rng, e, top):
    """e entries in [0, top], both ends included when e allows."""
    values = [rng.randint(0, top) for _ in range(e)]
    values[0], values[-1] = top, 0
    return values


@pytest.mark.parametrize("e, bound, width", PACKED_CASES)
def test_packed_layout_and_pack_match_plain_lists(e, bound, width):
    """The width is one bit more than the bound takes, the masks are the
    plain sums of their fields, and ``pack`` puts entry c in field c."""
    cols = PackedColumns(e, bound)
    assert cols.w == width
    assert cols.field == (1 << width) - 1
    assert cols.ones == _packed_twin([1] * e, width)
    assert cols.high == _packed_twin([1 << width - 1] * e, width)
    assert cols.mask == _packed_twin([(1 << width) - 1] * e, width)
    values = _entries(random.Random(e * bound), e, bound)
    assert cols.pack(values) == _packed_twin(values, width)


@pytest.mark.parametrize("e, bound, width", PACKED_CASES)
def test_packed_min_rotated_matches_plain_lists(e, bound, width):
    """Field c of ``min_rotated(a, b, rotation(g))`` is
    min(a[c], b[(c - g) % e] + g) whenever every entry and candidate is at
    most the bound: for g = e (a rotation by zero fields), g below and above
    e, a multiple of e, and the bound itself, with a tie forced."""
    rng = random.Random(e + bound)
    cols = PackedColumns(e, bound)
    for g in sorted({e, 1, e + 1, 3 * e, 2 * e + 5, rng.randint(1, bound), bound}):
        if g > bound:
            continue
        a, b = _entries(rng, e, bound), _entries(rng, e, bound - g)
        a[e // 2] = b[(e // 2 - g) % e] + g
        want = [min(a[c], b[(c - g) % e] + g) for c in range(e)]
        got = cols.min_rotated(_packed_twin(a, width), _packed_twin(b, width), cols.rotation(g))
        assert got == _packed_twin(want, width), g


@pytest.mark.parametrize("e, bound, width", PACKED_CASES)
def test_packed_read_matches_plain_lists(e, bound, width):
    """``read`` gives the entries of the flagged fields, by ascending class,
    with flags at a field's lowest bit."""
    rng = random.Random(e * width)
    cols = PackedColumns(e, bound)
    values = _entries(rng, e, bound)
    column = _packed_twin(values, width)
    for chosen in ([], list(range(e)), sorted(rng.sample(range(e), (e + 1) // 2))):
        flags = _packed_twin([int(c in chosen) for c in range(e)], width)
        assert cols.read(column, flags) == [values[c] for c in chosen]


def naive_bit_scan(bits):
    return tuple(x for x in range(bits.bit_length()) if (bits >> x) & 1)


@pytest.mark.parametrize(
    "bits",
    [
        0,
        1,
        1 << 7,
        1 << 8,
        1 << 33,
        1 << 63,
        (1 << 63) | 1,
        (1 << 255) | 1,  # the widest int peeled whole
        (1 << 256) | (1 << 255),  # the narrowest one cut into words
        1 << 64,
        (1 << 64) - 1,
        (1 << 200) | (1 << 64) | 1,  # zero bytes and zero words inside
        (0xFF << 120) | (1 << 71) | (1 << 8),
        sum(1 << x for x in range(0, 1000, 7)),
        pytest.param(1 << 4096, id="one-bit-past-64-zero-words"),
        pytest.param((1 << 100_000) | (1 << 64) | 1, id="three-bits-in-100k"),
        pytest.param((((1 << 64) - 1) << 640) | (1 << 5000), id="full-word-in-sparse"),
        pytest.param(sum(1 << (64 * i) for i in range(0, 800, 8)), id="bit-per-8-words-dense"),
        pytest.param(sum(1 << (64 * i) for i in range(0, 800, 9)), id="bit-per-9-words-sparse"),
    ],
)
def test_bits_to_tuple_matches_naive_scan(bits):
    assert bits_to_tuple(bits) == naive_bit_scan(bits)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=700), max_size=40))
def test_bits_to_tuple_round_trip(positions):
    bits = 0
    for x in positions:
        bits |= 1 << x
    assert bits_to_tuple(bits) == naive_bit_scan(bits) == tuple(sorted(set(positions)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20_000), max_size=12))
def test_bits_to_tuple_round_trip_sparse(positions):
    bits = 0
    for x in positions:
        bits |= 1 << x
    assert bits_to_tuple(bits) == tuple(sorted(set(positions)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=70),
    st.lists(st.integers(min_value=0, max_value=5_000), max_size=40),
)
@example(1, [0, 1, 2])
@example(64, [63, 64, 128, 4095])
@example(13, [])
def test_fold_classes_matches_residues(e, positions):
    bits = 0
    for x in positions:
        bits |= 1 << x
    folded = fold_classes(bits, e)
    assert folded == sum(1 << c for c in {x % e for x in positions})
    assert folded.bit_length() <= e


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8, unique=True)
)
def test_minimality_test_matches_oracle(gens):
    """The one minimality test (``add_generator``, folded over the ascending
    generators) against "g is in the closure of the others", in the three
    places that read it: the step itself, ``minimalize`` and validation."""
    gens = sorted(gens)
    want = oracles.redundant(gens)
    bits, gen_bits, failed = 1, 0, set()
    for g in gens:
        grown = add_generator(bits, gen_bits, g, gens[-1])
        if grown:
            bits, gen_bits = grown, gen_bits | 1 << g
        else:
            failed.add(g)
    assert failed == want
    assert minimalize(gens) == tuple(g for g in gens if g not in want)
    if want and math.gcd(*gens) == 1:
        message = "^generator %d is a sum of the others$" % min(want)
        with pytest.raises(NonMinimal, match=message):
            build(gens)
    elif math.gcd(*gens) == 1:
        assert build(gens).gens == tuple(gens)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8, unique=True),
    st.data(),
)
def test_add_generator_fold_in_any_order(values, data):
    """Folding ``add_generator`` as the search walk does (e first, the rest
    in any order, a window reaching past the largest value) succeeds iff the
    values are minimal, and then ends at their closure."""
    e = min(values)
    order = [e] + data.draw(st.permutations([x for x in values if x != e]))
    limit = max(values) + data.draw(st.integers(min_value=0, max_value=60))
    bits, gen_bits = 1, 0
    for x in order:
        bits = add_generator(bits, gen_bits, x, limit)
        if not bits:
            break
        gen_bits |= 1 << x
    assert bool(bits) == (not oracles.redundant(sorted(values)))
    if bits:
        assert bits == closure_bits(values, limit)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=7), st.data())
def test_from_closure_matches_build(values, data):
    """The private entry, given the closure that the ``minimalize`` fold
    leaves over any window from max(values) up to past f + e, makes the
    semigroup ``build`` makes from the kept values."""
    if math.gcd(*values) != 1:
        values = values + [values[0] + 1]
    vals = sorted(set(values))
    want = build(list(minimalize(vals)))
    top = max(vals[-1], want.f + want.e) + want.e
    limit = data.draw(st.integers(min_value=vals[-1], max_value=top))
    bits, kept = 1, ()
    for x in vals:
        grown = add_generator(bits, 0, x, limit)
        if grown:
            bits, kept = grown, kept + (x,)
    S = core.NumericalSemigroup._from_closure(kept, bits, limit)
    assert (S.gens, S.e, S.v, S.f) == (want.gens, want.e, want.v, want.f)
    assert S._ap_class == want._ap_class


def test_duplicate_generator_message():
    with pytest.raises(NonMinimal, match="^generator 19 appears twice$"):
        build([13, 24, 19, 19])


def test_two_generator_closed_forms_at_scale():
    """<200, 201> against the closed forms, in well under a second (about
    30 ms on a 2-core x86 box, most of it the sweep of 200 levels; a
    per-element bit loop over the window takes about 1 s on the same
    semigroup)."""
    a, b = 200, 201
    want = oracles.two_generator(a, b)
    start = time.perf_counter()
    S = build([a, b])
    strata = apery_strata(S)
    profile = hilbert_function(S)
    assert S.f == want["frobenius"]
    assert S.genus() == want["genus"]
    assert is_symmetric(S)
    assert S.apery().elems == want["apery"]
    assert strata.strata == want["strata"]
    assert profile.values == want["hilbert"]
    assert profile.stable_at == want["stable_at"]
    assert is_tangent_cone_cm(S) == want["tangent_cone_cm"]
    assert time.perf_counter() - start < 0.5


def test_far_representation_reads_at_scale():
    """<1000, 1001> at s = 1,598,999 = 599 * 1000 + 999 * 1001, against the
    closed forms: that is its one maximal representation, and at level h it
    induces p * 1000 + (h - p) * 1001 for max(0, h - 999) <= p <= min(599, h).
    The 200 reads at h = 700..899 (up to 600 values each) take about 25 ms
    on a 2-core x86 box; a descent that tries every count of the last
    generator took about 6 s on the same reads."""
    a, b, s = 1000, 1001, 1598999
    S = build([a, b])
    reps = maximal_representations(S, s)
    assert [rep.coeffs for rep in reps] == [(599, 999)]
    assert support_size(S, s).size == 2
    levels = range(700, 900)
    start = time.perf_counter()
    got = [induced_elements(reps[0], h) for h in levels]
    elapsed = time.perf_counter() - start
    for h, values in zip(levels, got):
        want = {p * a + (h - p) * b for p in range(max(0, h - 999), min(599, h) + 1)}
        assert values == sorted(want), h
    assert elapsed < 0.5


@pytest.mark.parametrize("shift", [-1, 1])
def test_apery_theorem_check_raises(monkeypatch, shift):
    """An f off by one breaks |Ap| = e or max Ap = f + e, caught at build."""
    real = core.largest_missing
    monkeypatch.setattr(core, "largest_missing", lambda *args: real(*args) + shift)
    with pytest.raises(InternalInconsistency):
        build([5, 7, 9])


def _stall(monkeypatch):
    """Never stabilize: every other step sets the bit just above the window,
    so T_{n+1} and T_n always differ there."""
    real, steps = grading.shift_sum, itertools.count()
    monkeypatch.setattr(
        grading,
        "shift_sum",
        lambda bits, gens, mask: real(bits, gens, mask) | (mask + 1) * (next(steps) % 2),
    )
    return lambda: hilbert_function(build(list(data.E13)))


def _feed(change):
    """Let ``change(n, stratum)`` rewrite the stratum of level n, less ne,
    that the table sees."""

    def fixture(monkeypatch):
        real = grading._levels

        def levels(gens, bits, limit):
            for n, (here, stratum) in enumerate(real(gens, bits, limit)):
                yield here, change(n, stratum)

        monkeypatch.setattr(grading, "_levels", levels)
        return lambda: hilbert_function(build(list(data.E13)))

    return fixture


def _refill(change):
    """Let ``change(values, c_sets)`` edit, in place, what the bitset fill
    hands the table of E13."""

    def fixture(monkeypatch):
        real = grading._bitset_fill

        def fill(S):
            out = real(S)
            change(*out)
            return out

        monkeypatch.setattr(grading, "_bitset_fill", fill)
        return lambda: hilbert_function(build(list(data.E13)))

    return fixture


def _recount(x, source, target):
    """Move x from C_source to C_target (x added only, for no source) in
    the bitset fill of E13."""

    def change(values, c_sets):
        if source:
            c_sets[source] = tuple(y for y in c_sets[source] if y != x)
        c_sets[target] = tuple(sorted(c_sets[target] + (x,)))

    return _refill(change)


def _drop_c2(monkeypatch):
    real = filtration.strata_tables
    monkeypatch.setattr(
        filtration,
        "strata_tables",
        lambda S: dataclasses.replace(real(S), c_sets={**real(S).c_sets, 2: ()}),
    )
    return lambda: audit_delta(build(list(data.E13)))


def _min_plus_jump(monkeypatch):
    """The min-plus fill on E13 with the Apery element 19 raised by 2e:
    column 1 still reaches the generator 19 = 0 + 19, so its class moves
    by -2e from level 0."""
    monkeypatch.setattr(grading, "_MIN_PLUS_ABOVE", -1)

    def run():
        S = build(list(data.E13))
        S._ap_class[19 % 13] += 26
        return hilbert_function(S)

    return run


def _min_plus_between(monkeypatch):
    """The min-plus fill on E13 with the Apery element 43 = 19 + 24 lowered
    to 42: column 1 still reaches 43, so its class moves by 1 from level 0,
    and no class moves down."""
    monkeypatch.setattr(grading, "_MIN_PLUS_ABOVE", -1)

    def run():
        S = build(list(data.E13))
        S._ap_class[43 % 13] -= 1
        return hilbert_function(S)

    return run


def _min_plus_stall(monkeypatch):
    """The min-plus fill on <2, 3> through the private entry, its generators
    given as (3, 2): 3 is taken for e, the Apery table is [0, 4, 2], and the
    shift by 2 < e holds some class in place at every level, so every move
    is 0 or e but level e - 1 = 2 is not stable."""
    monkeypatch.setattr(grading, "_MIN_PLUS_ABOVE", -1)
    gens = (3, 2)
    return lambda: hilbert_function(
        core.NumericalSemigroup._from_closure(gens, closure_bits(gens, 6), 6)
    )


def _non_minimal_entry(monkeypatch):
    """(3, 4, 7) through the private entry, which trusts its caller's
    minimality proof: 7 = 3 + 4 is in 2M, so H_R(1) = 2 while v = 3."""
    gens = (3, 4, 7)
    return lambda: hilbert_function(
        core.NumericalSemigroup._from_closure(gens, closure_bits(gens, 14), 14)
    )


def _accept_every_leaf(monkeypatch):
    monkeypatch.setattr(search, "_candidate_is_hit", lambda gens, bits, limit: True)
    return lambda: search_decreasing(SearchConfig((13, 13), 4, gen_bound_per_e=3))


def _corrupt_hit_proof(monkeypatch):
    """The proof's order table of each hit sees its least generator above e
    in 2M, so that Apery element gets no order; the leaf sweep, which reads
    the search module's own reference to the levels, sees the true ones."""
    real = grading._levels

    def levels(gens, bits, limit):
        for n, (here, stratum) in enumerate(real(gens, bits, limit)):
            yield here, stratum & ~(1 << gens[1] - gens[0]) if n == 1 else stratum

    monkeypatch.setattr(grading, "_levels", levels)
    return lambda: search_decreasing(SearchConfig((13, 13), 3, gen_bound_per_e=4))


def _flagged_leaf_without_decrease(monkeypatch):
    """Every v = e-3 leaf is a hit unswept, as its shape forces the decrease;
    here the proof's order table of each one reads as that of <3, 4, 5>, which
    never decreases, so the proof is what stops it."""
    flat = grading.OrderTable(build([3, 4, 5]))
    monkeypatch.setattr(search, "OrderTable", lambda S: flat)
    return lambda: search_decreasing(SearchConfig((13, 13), 3, gen_bound_per_e=4))


def _wrong_dimension_hit(monkeypatch):
    """Every task of a v = e-4 search returns a decreasing family member of
    e = 13 and v = 10 = e-3: only its embedding dimension tells it apart."""
    hit = build([13, 14, 17, 29, 32, 33, 35, 36, 37, 38])
    monkeypatch.setattr(search, "_run_task", lambda task: [hit])
    return lambda: search_decreasing(SearchConfig((13, 13), 4, gen_bound_per_e=3))


def _order_one_too_high(monkeypatch):
    """The descent of E13's element 57 = 19 + 19 + 19 asked for a coefficient
    sum of ord(57) + 1 = 4, which no representation of 57 has."""
    real = grading.order_of
    monkeypatch.setattr(grading, "order_of", lambda S, s: real(S, s) + 1)
    return lambda: maximal_representations(build(list(data.E13)), 57)


def _no_c3_witness(monkeypatch):
    """E13 has |Ap_2| = 3 and |C_3| = 4, so classify_c3 needs the witness
    pair (19, 24) of C_2; here none is found."""
    monkeypatch.setattr(structure, "_pair", lambda ap1, two: None)
    return lambda: classify_c3(build(list(data.E13)))


def _sp_sum_on_apery(monkeypatch):
    """The p = 1 family member with its order table cached by
    ``check_offset3``, and then the Apery element of the class of
    2a + 2b = 62 set to 62 itself: the pattern still reads off the cached
    table, and 62 has no Apery element below it to drop alpha from."""

    def run():
        params = SpParameters(1, 1, data.SP_FAMILY[1][0], 2, 2, 3)
        S = construct_sp(params)
        check_offset3(S)
        value = 2 * params.n_i + 2 * params.n_j
        S._ap_class[value % 13] = value
        return recover_sp_parameters(S)

    return run


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_stall, "did not stabilize by level 12"),
        # H_R(r) = e - 1 at the level r = 5 where E13 is stable.
        (_refill(lambda values, c_sets: values.__setitem__(5, 12)), "H_R"),
        # The Apery element 19 of E13 never gets an order.
        (
            _feed(lambda n, stratum: stratum & ~(1 << 19 - 13) if n == 1 else stratum),
            "Apery strata",
        ),
        # 2e = 26 leaves 2M, so stratum 1 of E13 holds two elements of class 0,
        # while its class leaves level 1 once.
        (
            _feed(lambda n, stratum: stratum | 1 << 26 - 13 if n == 1 else stratum),
            "classes leave level",
        ),
        # 57 = 44 + e, a landing in C_3: 44 has order 1, so its run starts
        # at 2 and ends at 3.  Read in C_2, the run would end where it
        # starts; 13 = 0 + e read in C_2 would start at level 1, below D_2;
        # read in C_4, 57 passes as a run (2, 4), but C_3 is one short of
        # H(3) - H(2) + |D_3|.
        (_recount(57, 3, 2), "57 in C_2 is not a landing"),
        (_recount(13, None, 2), "13 in C_2 is not a landing"),
        (_recount(57, 3, 4), "delta mismatch at level 3"),
        (_min_plus_jump, "moves by other than 0 or e"),
        (_min_plus_between, "moves by other than 0 or e"),
        (_min_plus_stall, "did not stabilize by level 2"),
        (_drop_c2, "delta mismatch"),
        (_accept_every_leaf, "re-verification"),
        (_corrupt_hit_proof, "Apery strata|not a landing"),
        (_flagged_leaf_without_decrease, "fails re-verification"),
        (_wrong_dimension_hit, r"embedding dimension 10, not e - 4 = 9"),
        (_non_minimal_entry, r"H_R\(1\) = 2 != v = 3"),
        (_order_one_too_high, "no representation of 57 at order 4"),
        (_no_c3_witness, "no witness pair"),
        (_sp_sum_on_apery, "no Apery element below 62"),
    ],
    ids=[
        "stabilization",
        "hilbert_tail",
        "apery_strata",
        "class_moves",
        "landing_at_its_start",
        "landing_below_d2",
        "landing_level",
        "min_plus_moves",
        "min_plus_between",
        "min_plus_stabilization",
        "delta_audit",
        "search_reverify",
        "search_proof_table",
        "search_flagged_leaf",
        "search_dimension",
        "embedding_dimension",
        "maximal_representation",
        "c3_witness",
        "sp_drop",
    ],
)
def test_internal_checks_raise(monkeypatch, corrupt, message):
    """Each theorem the engine checks raises on a table that breaks it."""
    with pytest.raises(InternalInconsistency, match=message):
        corrupt(monkeypatch)()

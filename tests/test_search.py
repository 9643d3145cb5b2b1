import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem import (
    BadRange,
    ConstraintViolation,
    NonMinimal,
    ResourceLimit,
    SearchConfig,
    SemigroupError,
    SpParameters,
    apery_strata,
    build,
    check_offset3,
    check_offset4,
    construct_sp,
    hilbert_function,
    is_symmetric,
    recover_sp_parameters,
    residue_admissible,
    residue_table,
    search_decreasing,
    search_results_csv,
    sp_generator_list,
    strata_tables,
)
from numsem import grading, search
from numsem._bitset import add_generator, largest_missing
from numsem.structure import _FOUR_ZERO, _OFFSET3

import data
import oracles


def test_residue_row_examples():
    assert residue_admissible(13, 4).admissible
    assert not residue_admissible(13, 5).admissible  # 3h lands on 2 mod 13
    assert not residue_admissible(13, 12).admissible  # h + 1 vanishes mod 13
    assert not residue_admissible(17, 1).admissible  # n_j = n_i
    with pytest.raises(BadRange):
        residue_admissible(13, 0)
    with pytest.raises(BadRange):
        residue_admissible(13, 13)
    with pytest.raises(BadRange, match="modulus e must be at least 2"):
        residue_admissible(1, 1)


def test_residue_row_missing_classes():
    """At e = 13, h = 4 the base products miss the classes the five degree-4/5
    products must cover."""
    assert residue_admissible(13, 4).missing_classes == (7, 10, 11)


def test_residue_row_collision_detail():
    row = residue_admissible(13, 5)
    assert row.base_classes.count(2) == 2  # 2*n_i and 3*n_j collide


def test_residue_table_13():
    rows = residue_table(13)
    assert [r.h for r in rows if r.admissible] == [4, 10]


@pytest.mark.parametrize("e", [10, 11, 12])
def test_residue_table_small_moduli_all_fail(e):
    assert not [r.h for r in residue_table(e) if r.admissible]


def test_residue_table_range():
    with pytest.raises(BadRange):
        residue_table(9)


def test_sp_family_printed_lists():
    for p, (kprime, expected) in data.SP_FAMILY.items():
        params = SpParameters(p, 1, kprime, 2, 2, 3)
        assert sp_generator_list(params) == expected


def test_sp_family_members_validate():
    for p, (kprime, _) in data.SP_FAMILY.items():
        S = construct_sp(SpParameters(p, 1, kprime, 2, 2, 3))
        assert (S.e, S.v) == (13, 10)
        assert 2 in hilbert_function(S).decreasing_levels
        assert not is_symmetric(S)
        verdict = check_offset3(S)
        assert verdict.decreasing and verdict.pattern and verdict.consistent


def test_sp_parameter_constraints():
    with pytest.raises(ConstraintViolation):
        SpParameters(1, 1, 5, 2, 2, 3)  # k' beyond 4k - 2
    with pytest.raises(ConstraintViolation):
        SpParameters(1, 1, -2, 2, 2, 3)  # violates 4k' > 3k - p
    with pytest.raises(ConstraintViolation):
        SpParameters(13, 1, 0, 2, 2, 3)
    with pytest.raises(ConstraintViolation):
        SpParameters(6, 1, 0, 3, 2, 3)  # alpha must stay below gamma
    with pytest.raises(ConstraintViolation, match="k must be at least 1"):
        SpParameters(1, 0, 0, 0, 0, 1)
    with pytest.raises(ConstraintViolation, match="non-negative"):
        SpParameters(6, 1, 0, -1, 2, 3)


def test_sp_n_j_lies_above_the_multiplicity():
    """The constraints alone put n_j above 13, so sp_generator_list needs no
    check of it: every valid (p, k, k') with k <= 8 has n_j >= 16."""
    valid = 0
    for p in range(1, 13):
        for k in range(1, 9):
            for kprime in range(-4, 4 * k + 1):
                try:
                    params = SpParameters(p, k, kprime, 0, 0, 1)
                except ConstraintViolation:
                    continue
                assert params.n_j >= 16, params
                valid += 1
    assert valid == 1404


def test_sp_candidates_that_are_no_members():
    with pytest.raises(ConstraintViolation, match="derived generator falls below"):
        sp_generator_list(SpParameters(1, 1, 1, 5, 0, 6))
    with pytest.raises(NonMinimal, match="generator 59 is a sum of the others"):
        construct_sp(SpParameters(1, 1, 1, 0, 0, 1))


def test_sp_parameter_recovery_round_trip():
    for p, (kprime, _) in data.SP_FAMILY.items():
        params = SpParameters(p, 1, kprime, 2, 2, 3)
        assert recover_sp_parameters(construct_sp(params)) == params


def test_sp_recovery_rejects_outsiders(e13):
    assert recover_sp_parameters(build([2, 3])) is None
    assert recover_sp_parameters(build(list(data.CHAIN_E17))) is None
    # e = 13 and v = 10, but consecutive generators: no offset-3 pattern.
    assert recover_sp_parameters(build(list(range(13, 23)))) is None


@pytest.mark.parametrize(
    "pair",
    [
        # Classes 6 and 5 of E13's generators: neither is 4 times the other.
        (19, 44),
        # Classes 6 and 11 = 4 * 6, but k' = (63 - 24) / 13 = 3 > 4k - 2 = 2:
        # SpParameters raises ConstraintViolation, read as not a member.
        (19, 63),
    ],
    ids=["no_ratio_4", "constraint_violation"],
)
def test_sp_recovery_rejects_witness_pairs_outside_the_family(monkeypatch, e13, pair):
    """The pair the offset-3 detector names must have class ratio 4 and
    parameters inside the family's inequalities; every family member meets
    both, so the detector's verdict on E13 is replaced by one naming the pair."""
    verdict = check_offset3(e13)
    monkeypatch.setattr(
        search, "check_offset3", lambda S: dataclasses.replace(verdict, witnesses=(pair,))
    )
    assert recover_sp_parameters(e13) is None


def test_search_config_validation():
    with pytest.raises(BadRange):
        SearchConfig(e_range=(10, 12), v_offset=5, gen_bound_per_e=20)
    with pytest.raises(BadRange):
        SearchConfig(e_range=(10, 12), v_offset=3)
    with pytest.raises(BadRange, match="workers must be at least 1"):
        SearchConfig(e_range=(10, 12), v_offset=3, gen_bound=20, workers=0)
    cfg = SearchConfig(e_range=(10, 12), v_offset=3, gen_bound=20)
    with pytest.raises(BadRange):
        cfg.bound_for(10)  # 20 < 3 * 10


def test_search_empty_range():
    """A range whose low end passes its high end is refused: searched, it
    would list no hit, which reads as a result."""
    with pytest.raises(BadRange, match="12..10 runs backwards"):
        SearchConfig(e_range=(12, 10), v_offset=3, gen_bound_per_e=20)


def test_search_refuses_bounds_over_the_window_budget(monkeypatch):
    """Every leaf is built, and build refuses e * max(gens) > 2**24, so a
    search whose top multiplicity times its bound passes that is refused
    before any task is listed.  13 * 1290556 is just over 2**24; 12 times
    it is not."""

    def listed(e, bound):
        raise AssertionError("tasks listed for e = %d" % e)

    monkeypatch.setattr(search, "_cells", listed)
    for e_range in [(13, 13), (12, 13)]:
        with pytest.raises(ResourceLimit, match="window budget"):
            search_decreasing(SearchConfig(e_range, 3, gen_bound=1290556))
    with pytest.raises(BadRange, match="backwards"):
        SearchConfig((13, 12), 3, gen_bound_per_e=10**6)


@pytest.mark.parametrize(
    "e_range", [(0, 0), (-3, -1), (0, 1), (1, 0)], ids=["0..0", "-3..-1", "0..1", "1..0"]
)
def test_search_config_rejects_multiplicities_below_1(e_range):
    """No semigroup has multiplicity below 1; e = 0 would divide by zero
    when the search lists its tasks."""
    with pytest.raises(BadRange, match="at least 1"):
        SearchConfig(e_range, 4, gen_bound=10)


def test_search_small_moduli_empty():
    """Below e = 10 no ten values fit in distinct classes, so every v = e-3
    shape is dropped; at e = 10..12 none completes to a decrease."""
    cfg = SearchConfig(e_range=(4, 12), v_offset=3, gen_bound_per_e=20)
    assert search_decreasing(cfg) == []


def test_expand_skeleton_drops_shapes_with_two_values_in_one_class(monkeypatch):
    """A shape's values lie in distinct classes mod e and every other class
    takes one generator, so a listed shape completes to v = e - len(named).

    Every leaf is kept here (the decrease test always passes), so the
    completions show.  At e = 13 the v = e-3 shape of the pair (14, 17)
    completes to a family member.  The v = e-4 shape of (14, 16) whose
    order-3 Apery element is 3 * 14 = 42 names a value in the class of 16,
    and its walk would make v = e-3 leaves; it is never listed, because
    16 = 3 * 14 (mod 13) and the class table of n_i = 14 leaves out class 3."""
    monkeypatch.setattr(search, "_candidate_is_hit", lambda gens, bits, limit: True)
    e, bound = 13, 6 * 13
    leaves = search._expand_skeleton(
        e, (13, 14, 17, 29, 32, 35, 38), (28, 31, 34), False, bound
    )
    assert [S.gens for S in leaves] == [data.SP_FAMILY[1][1]]
    assert leaves[0].v == e - 3
    assert 16 % e == 42 % e == 3 and search._classes(_OFFSET3, e, (14 % e,)) == (4, 10)
    listed = {(forced, named) for forced, named, _ in search._cell_shapes(4, e, 14, bound)}
    assert ((13, 14, 17, 29, 32, 35), (28, 31, 34, 51)) in listed
    assert not [forced for forced, _ in listed if forced[2] % e == 3]
    assert ((13, 14, 16, 31, 33, 35), (28, 30, 32, 42)) not in listed


def _shapes_on(e, a, b):
    """Each shape on the roles (a, b), as (table verdict, real values): the
    v = e-3 shape, its four (3, 1) shapes and, for each c in (e, 3e], the
    two (4, 0) shapes."""
    base, ap2 = _OFFSET3.skeleton(e, (a, b))
    admitted = b % e in search._classes(_OFFSET3, e, (a % e,))
    yield admitted, base + ap2
    c3 = _OFFSET3.d2e(a, b)
    for ap3 in c3:
        forced = (e, a, b) + tuple(x - e for x in c3 if x != ap3)
        yield admitted, forced + ap2 + (ap3,)
    for shape in _FOUR_ZERO:
        classes = search._classes(shape, e, (a % e, b % e))
        for c in range(e + 1, 3 * e + 1):
            yield c % e in classes, sum(shape.skeleton(e, (a, b, c)), ())


@pytest.mark.parametrize("e", [4, 9, 10, 12, 13, 14, 17, 20])
def test_class_table_equals_the_class_test_on_real_values(e):
    """The slow twin of ``_classes``: for every real a, b and c in (e, 3e],
    the table's verdict on their classes is the one-per-class test on the
    shape's real values, for the v = e-3 shape, the (3, 1) shapes and both
    (4, 0) shapes."""
    seen = set()
    for a in range(e + 1, 3 * e + 1):
        for b in range(e + 1, 3 * e + 1):
            for admitted, values in _shapes_on(e, a, b):
                one_per_class = len({x % e for x in values}) == len(values)
                assert admitted == one_per_class, (e, a, b, values)
                seen.add(admitted)
    assert seen == ({False, True} if e >= 13 else {False})


def test_class_table_is_empty_up_to_e_12():
    """For e <= 12 no class r of n_i admits a class of b, so neither offset
    lists a shape at any generator bound: H_R is non-decreasing at v = e-3
    and v = e-4 for every e <= 12 (the paper's e < 12, and e = 12 too).  The
    ordered admissible pairs (r, s) at e = 13..20 are pinned."""
    for e in range(1, 13):
        assert not any(search._classes(_OFFSET3, e, (r,)) for r in range(e)), e
    for v_offset in (3, 4):
        assert search._tasks_for(SearchConfig((1, 12), v_offset, gen_bound_per_e=1000)) == []
    pairs = [sum(len(search._classes(_OFFSET3, e, (r,))) for r in range(e)) for e in range(13, 21)]
    assert pairs == [24, 36, 24, 72, 96, 72, 144, 168]


def test_search_e13_hits(sp_instances):
    cfg = SearchConfig(e_range=(13, 13), v_offset=3, gen_bound_per_e=6)
    results = search_decreasing(cfg)
    assert results
    found = {S.gens for S in results}
    # every family member whose generators fit under the bound is found
    expected_present = 0
    for S in sp_instances:
        if max(S.gens) <= 6 * 13:
            assert S.gens in found
            expected_present += 1
    assert expected_present == 9
    orbit_branches = set()
    for S in results:
        assert S.e == 13 and S.v == 10
        profile = hilbert_function(S)
        assert profile.is_decreasing
        verdict = check_offset3(S)
        assert verdict.pattern and verdict.consistent
        a, b = verdict.witnesses[0]
        assert b % 13 in ((4 * a) % 13, (10 * a) % 13)
        orbit_branches.add("4" if b % 13 == (4 * a) % 13 else "10")
        # the forced ten distinct elements of the decreasing skeleton
        tables = strata_tables(S)
        ten = {13, a, b, 3 * a - 13, 2 * a + b - 13, a + 2 * b - 13, 3 * b - 13}
        ten |= {2 * a, a + b, 2 * b}
        assert len(ten) == 10
        assert set(tables.c_sets[2]) == {2 * a, a + b, 2 * b}
        for x in ten:
            assert S.contains(x)
    assert orbit_branches == {"4", "10"}


def test_search_offset4_reproduces_known_instances():
    cfg = SearchConfig(e_range=(17, 17), v_offset=4, gen_bound=59)
    results = search_decreasing(cfg)
    found = {S.gens for S in results}
    assert data.AP24_E17_B in found
    assert data.CHAIN_E17 in found
    for S in results:
        assert S.v == S.e - 4
        assert hilbert_function(S).is_decreasing
        verdict = check_offset4(S)
        assert verdict.pattern and verdict.consistent


def test_search_offset4_multi_modulus_range():
    cfg = SearchConfig(e_range=(15, 16), v_offset=4, gen_bound_per_e=3)
    for S in search_decreasing(cfg):
        assert S.v == S.e - 4
        assert hilbert_function(S).is_decreasing
        verdict = check_offset4(S)
        assert verdict.pattern and verdict.consistent


@pytest.mark.parametrize("e, v, bound, count", [(13, 10, 45, 6), (11, 8, 44, 0)])
def test_search_equals_shape_free_twin(e, v, bound, count):
    """The shape lemma, checked: a walk over every ascending choice of v - 1
    generators in distinct classes, with no shape at all, finds exactly the
    search's hits.  A shape the search fails to list shows up here."""
    want = oracles.search_shape_free(e, v, bound)
    cfg = SearchConfig(e_range=(e, e), v_offset=e - v, gen_bound=bound)
    assert [S.gens for S in search_decreasing(cfg)] == want
    assert len(want) == count


def test_sp_family_equals_search_at_8e():
    """The e = 13, v = 10 decreasing semigroups are one parametric family:
    at 8e its members are exactly the search's hits, and the parameters read
    back off every hit."""
    bound = 8 * 13
    results = search_decreasing(SearchConfig((13, 13), 3, gen_bound=bound))
    assert [S.gens for S in results] == oracles.sp_family_members(bound)
    assert len(results) == 694
    for S in results:
        assert recover_sp_parameters(S) is not None


@pytest.mark.parametrize(
    "e_range, v_offset, bound_kw",
    [
        ((13, 15), 3, dict(gen_bound_per_e=6)),
        ((13, 14), 4, dict(gen_bound_per_e=6)),
        ((16, 18), 4, dict(gen_bound=60)),
        ((14, 14), 4, dict(gen_bound_per_e=7)),
    ],
    ids=["v=e-3", "v=e-4", "v=e-4 bound 60", "v=e-4 7e"],
)
def test_detector_witnesses_are_listed_shapes(e_range, v_offset, bound_kw):
    """The search and the detectors read one table of shapes: every hit's
    detector witness is the role tuple of a shape its cell lists, whose
    forced values are generators of the hit and whose named values lie in
    its Apery set.  The two-generator shapes are symmetric in their roles
    and listed with a < b, so a pair witness is looked up ascending: at 7e,
    e = 14, the (3, 1) hit <14,23,25,55,57,59,66,68,77,86> has the witness
    (25, 23), listed as the shape on (23, 25) that keeps 3 * 25 as Ap_3."""
    cfg = SearchConfig(e_range=e_range, v_offset=v_offset, **bound_kw)
    detect = {3: check_offset3, 4: check_offset4}[v_offset]
    results = search_decreasing(cfg)
    assert results
    for S in results:
        gens, apery = set(S.gens), set(S.apery())
        witnesses = detect(S).witnesses
        assert witnesses
        for roles in witnesses:
            if len(roles) == 2:
                roles = tuple(sorted(roles))
            shapes = search._cell_shapes(v_offset, S.e, roles[0], cfg.bound_for(S.e))
            assert any(
                forced[1 : len(roles) + 1] == roles
                and set(forced) <= gens
                and set(named) <= apery
                for forced, named, _ in shapes
            ), (S.gens, roles)


@pytest.mark.parametrize(
    "e_range, v_offset, bound_kw, hits",
    [
        ((13, 14), 4, dict(gen_bound_per_e=6), 51),
        ((16, 18), 4, dict(gen_bound=60), 88),
        ((13, 15), 3, dict(gen_bound_per_e=6), 1574),
    ],
    ids=["v=e-4", "v=e-4 bound 60", "v=e-3"],
)
def test_cells_complete_each_hit_once(e_range, v_offset, bound_kw, hits):
    """The shapes partition the hits: summed over every cell, the
    completions are exactly the deduplicated hits, so no shape lists a
    semigroup another shape (or the same shape in another cell) lists."""
    cfg = SearchConfig(e_range=e_range, v_offset=v_offset, **bound_kw)
    completions = sum(len(search._run_task(task)) for task in search._tasks_for(cfg))
    assert completions == len(search_decreasing(cfg)) == hits


@pytest.mark.parametrize(
    "cfg",
    [SearchConfig((13, 14), 3, gen_bound_per_e=4), SearchConfig((16, 18), 4, gen_bound=60)],
    ids=["v=e-3", "v=e-4 bound 60"],
)
def test_flagged_shapes_decrease_at_level_2(monkeypatch, cfg):
    """A shape flagged ``decreases`` forces more generators y = s - e than it
    names Apery elements, so its leaves are hits without a sweep.  Here the
    sweep runs on every leaf again: each leaf of a flagged shape is a hit
    whose first decrease is at level 2, and the swept hits are the search's."""
    want = [S.gens for S in search_decreasing(cfg)]
    real = search._candidate_is_hit
    swept = []
    monkeypatch.setattr(
        search,
        "_candidate_is_hit",
        lambda gens, bits, limit: swept.append((gens, bits, limit)) or real(gens, bits, limit),
    )
    hits, flagged = set(), []
    for v_offset, e, n_i, bound in search._tasks_for(cfg):
        for forced, named, decreases in search._cell_shapes(v_offset, e, n_i, bound):
            start = len(swept)
            hits.update(S.gens for S in search._expand_skeleton(e, forced, named, False, bound))
            if decreases:
                flagged += swept[start:]
    assert sorted(hits) == want
    assert flagged
    for gens, bits, limit in flagged:
        S = build(list(gens))
        assert real(gens, bits, limit) and largest_missing(bits, limit) == S.f, gens
        assert hilbert_function(S).decreasing_levels[0] == 2, gens
    assert {gens[0] for gens, _, _ in flagged} == set(range(cfg.e_range[0], cfg.e_range[1] + 1))


def test_swept_leaves_are_closed_once_by_their_walk(monkeypatch):
    """The level sweep makes no closure: a swept leaf is decided on the one
    its walk holds, so at v = e-4, e = 16..18, bound 60 only the proof's
    order table closes generators, once for each hit it proves."""
    real_closure, real_hit = grading.closure_bits, search._candidate_is_hit
    closed, swept = [], []

    def hit(gens, bits, limit):
        before = len(closed)
        out = real_hit(gens, bits, limit)
        swept.append(len(closed) - before)
        return out

    monkeypatch.setattr(grading, "closure_bits", lambda *a: closed.append(a[0]) or real_closure(*a))
    monkeypatch.setattr(search, "_candidate_is_hit", hit)
    hits = search_decreasing(SearchConfig((16, 18), 4, gen_bound=60))
    assert len(hits) == 88
    assert closed == [S.gens for S in hits]
    assert swept and not any(swept)


@pytest.mark.parametrize(
    "cfg",
    [SearchConfig((13, 13), 3, gen_bound_per_e=4), SearchConfig((17, 17), 4, gen_bound=59)],
    ids=["v=e-3", "v=e-4"],
)
def test_search_hits_keep_only_their_hilbert_profile(cfg):
    """A hit keeps the Hilbert profile its proof read off a full order table,
    not the table; every other read builds one as for a fresh semigroup."""
    hits = search_decreasing(cfg)
    assert hits
    for S in hits:
        assert S._order_table is None
        fresh = build(S.gens)
        assert hilbert_function(S) == hilbert_function(fresh)
        assert S._order_table is None
        assert strata_tables(S) == strata_tables(fresh)
        assert apery_strata(S) == apery_strata(fresh)
        assert pickle.loads(pickle.dumps(S)).gens == S.gens


def test_search_csv_shape(sp_instances):
    csv = search_results_csv(sp_instances[:1])
    lines = csv.splitlines()
    assert lines[0] == "e,v,generators,hilbert,decreasing_levels"
    assert lines[1] == "13,10,13;14;17;29;32;33;35;36;37;38,1;10;9;11;12;13,2"
    assert csv.endswith("\n")


def test_search_agrees_with_raw_enumeration():
    """Differential check against brute force.  At e = 10 raw subset
    enumeration (no skeleton at all) finds nothing, like the search; at
    e = 13..17 the slow twin completes the same shapes by the full product
    over every value of each missing class (no pruning, no cap) and keeps
    what builds and decreases."""
    import itertools

    brute = []
    for combo in itertools.combinations(range(11, 29), 6):
        try:
            S = build((10,) + combo)
        except SemigroupError:
            continue  # gcd > 1 or not minimal
        if hilbert_function(S).is_decreasing:
            brute.append(S.gens)
    cfg = SearchConfig(e_range=(10, 10), v_offset=3, gen_bound=30)
    assert sorted(brute) == sorted(S.gens for S in search_decreasing(cfg))
    assert brute == []

    cases = [
        ((13, 13), 3, dict(gen_bound_per_e=4), 16),
        ((13, 13), 3, dict(gen_bound_per_e=5), 55),
        ((15, 16), 4, dict(gen_bound_per_e=3), 2),
        ((17, 17), 4, dict(gen_bound=59), 26),
    ]
    shapes = {3: oracles.offset3_skeletons, 4: oracles.offset4_skeletons}
    for e_range, v_offset, bound_kw, count in cases:
        cfg = SearchConfig(e_range=e_range, v_offset=v_offset, **bound_kw)
        want = []
        for e in range(e_range[0], e_range[1] + 1):
            bound = cfg.bound_for(e)
            skeletons = shapes[v_offset](e, bound)
            want += oracles.search_by_product(e, skeletons, bound)
        assert [S.gens for S in search_decreasing(cfg)] == want
        assert len(want) == count


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=6, unique=True),
    st.lists(st.integers(min_value=2, max_value=60), max_size=4),
)
def test_redundancy_is_monotone(gens, extra):
    """The premise of the search's pruning: a generator that the others
    reach stays reached when more values are added, and folding the grown
    set through the walk's step fails."""
    gens = sorted(gens)
    values = sorted(set(gens) | {gens[0] + gens[1]})
    before = oracles.redundant(values)
    assert before
    grown = sorted(set(values) | set(extra))
    assert before <= oracles.redundant(grown)
    bits, gen_bits = 1, 0
    for x in grown:
        bits = add_generator(bits, gen_bits, x, grown[-1])
        if not bits:
            break
        gen_bits |= 1 << x
    assert not bits


def test_search_worker_determinism():
    cfg1 = SearchConfig(e_range=(13, 13), v_offset=3, gen_bound_per_e=4, workers=1)
    cfg2 = SearchConfig(e_range=(13, 13), v_offset=3, gen_bound_per_e=4, workers=3)
    csv1 = search_results_csv(search_decreasing(cfg1))
    csv2 = search_results_csv(search_decreasing(cfg2))
    assert csv1 == csv2


def test_search_offset4_worker_determinism():
    cfg1 = SearchConfig(e_range=(15, 16), v_offset=4, gen_bound_per_e=3, workers=1)
    cfg2 = SearchConfig(e_range=(15, 16), v_offset=4, gen_bound_per_e=3, workers=2)
    csv1 = search_results_csv(search_decreasing(cfg1))
    csv2 = search_results_csv(search_decreasing(cfg2))
    assert csv1 == csv2
    assert csv1.count("\n") == 3


def test_search_workers_capped_at_cpu_count(monkeypatch):
    """A worker count far above the CPU count asks the pool for the CPU count.

    The pool is replaced by an in-process stand-in and the CPU count by 3,
    so no process starts.
    """
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    wide = search_decreasing(SearchConfig((13, 13), 3, gen_bound_per_e=4, workers=10**6))
    assert asked == [3]
    serial = search_decreasing(SearchConfig((13, 13), 3, gen_bound_per_e=4, workers=1))
    assert asked == [3]
    assert [S.gens for S in wide] == [S.gens for S in serial]


_POOL_ON_DEMAND = """
import os, sys
import numsem, numsem.cli
from numsem import SearchConfig, search_decreasing

assert numsem.cli.main(["info", "13,19,24"]) == 0
pool_tree = ("concurrent.futures", "multiprocessing")
assert not [m for m in pool_tree if m in sys.modules], sorted(sys.modules)
serial = search_decreasing(SearchConfig((13, 13), 3, gen_bound_per_e=4, workers=1))
assert not [m for m in pool_tree if m in sys.modules]
pooled = search_decreasing(SearchConfig((13, 13), 3, gen_bound_per_e=4, workers=2))
assert [S.gens for S in pooled] == [S.gens for S in serial]
assert len(serial) == 16
assert ("concurrent.futures" in sys.modules) == ((os.cpu_count() or 1) > 1)
"""


def test_process_pool_loads_on_the_first_parallel_search():
    """A fresh interpreter imports numsem and its CLI, and runs a CLI read
    and a serial search, without loading the process pool; a two-worker
    search then loads it and finds the serial hits."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _POOL_ON_DEMAND],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("generators: 13,19,24\n")

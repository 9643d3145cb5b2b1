import copy
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem import (
    EmptyGenerators,
    GcdNotOne,
    InvalidGenerator,
    NonMinimal,
    NumericalSemigroup,
    ResourceLimit,
    apery,
    build,
    contains,
    frobenius,
    gaps,
    hilbert_function,
    parse_generators,
)
from numsem._bitset import closure_bits
from numsem.corpus import minimalize

import data
import oracles


def test_build_reference_semigroup(e13):
    assert e13.e == 13
    assert e13.v == 10
    assert e13.gens == data.E13


def test_build_smallest_nontrivial():
    S = build([2, 3])
    assert (S.e, S.v, S.f) == (2, 2, 1)


def test_build_rejects_common_divisor():
    with pytest.raises(GcdNotOne):
        build([4, 6])


def test_build_rejects_redundant_generator():
    # 38 = 2 * 19 is already inside <13, 19, 24>
    with pytest.raises(NonMinimal):
        build([13, 19, 24, 38])


def test_build_rejects_duplicates_and_junk():
    with pytest.raises(EmptyGenerators):
        build([])
    with pytest.raises(NonMinimal):
        build([3, 3, 4])
    with pytest.raises(InvalidGenerator):
        build([0, 3])
    with pytest.raises(InvalidGenerator):
        build([-2, 3])


def test_build_refuses_windows_over_budget():
    """e * max(gens) = 2**24 + 2 is refused before any window is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="8388609"):
            build([2, (1 << 23) + 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the window alone would take 1 MiB
    assert build([2, (1 << 23) - 1]).f == (1 << 23) - 3  # f = b - 2 for <2, b>


def test_build_keeps_no_window():
    """<1000, 1001> is closed over a 1M-bit window; only its 8 KB Apery
    table outlives the build."""
    tracemalloc.start()
    try:
        S = build([1000, 1001])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert S.f == 998999
    assert held < 32 * 1024


def test_semigroup_attributes_can_be_neither_set_nor_deleted(e13):
    for name in ("e", "gens", "_ap_class", "new"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(e13, name, 1)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(e13, name)
    assert (e13.e, e13.gens) == (13, data.E13)


@pytest.mark.parametrize(
    "clone",
    [lambda S: pickle.loads(pickle.dumps(S)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_pickle_and_copy_rebuild(clone, study_instances):
    """A clone is rebuilt from the generators, without the cached order table."""
    for S in study_instances + [build([1000, 1001])]:
        want = hilbert_function(S)
        T = clone(S)
        assert T == S and T is not S
        assert T._order_table is None
        assert (T.f, T.apery()) == (S.f, S.apery())
        assert hilbert_function(T) == want


def test_from_closure_grows_the_window():
    """A v = e-4 search leaf whose Apery element 63 = 3 * 21 lies above its
    walk's window [0, 60]: the private entry grows that window before it
    reads f and the Apery table."""
    gens = (16, 17, 21, 35, 36, 39, 40, 41, 43, 44, 45, 46)
    S = NumericalSemigroup._from_closure(gens, closure_bits(gens, 60), 60)
    want = build(list(gens))
    assert max(S.apery()) == 63
    assert (S.gens, S.v, S.f, S.apery()) == (want.gens, want.v, want.f, want.apery())


def test_build_accepts_naturals():
    S = build([1])
    assert (S.e, S.v, S.f) == (1, 1, -1)
    assert S.apery().elems == (0,)
    assert S.gaps() == set()


def test_contains(e13):
    assert not e13.contains(31)  # 44 is an Apery element, so 44 - 13 is out
    assert e13.contains(0)
    assert e13.contains(57)  # 3 * 19
    assert not e13.contains(-5)
    assert e13.contains(10**6)  # far beyond the window


def test_frobenius_values(e13):
    assert build([2, 3]).frobenius() == 1
    assert e13.frobenius() == data.E13_FROBENIUS
    assert build([3, 4]).frobenius() == 5


def test_apery_values(e13):
    assert e13.apery().elems == data.E13_APERY
    assert build([2, 3]).apery().elems == (0, 3)
    assert build([3, 4]).apery().elems == (0, 4, 8)


def test_gaps_values(e13):
    assert build([2, 3]).gaps() == {1}
    assert build([3, 4]).gaps() == {1, 2, 5}
    assert len(e13.gaps()) == data.E13_GAP_COUNT


def test_module_functions_match_methods(e13):
    for x in (-5, 0, 31, 57, 10**6):
        assert contains(e13, x) == e13.contains(x)
    assert frobenius(e13) == e13.frobenius()
    assert apery(e13) == e13.apery()
    assert gaps(e13) == e13.gaps()


def test_apery_set_is_a_sized_container(e13):
    ap = e13.apery()
    assert len(ap) == e13.e == len(data.E13_APERY)
    assert all(w in ap for w in data.E13_APERY)
    assert 0 in ap and e13.frobenius() + e13.e in ap
    assert 13 not in ap and 31 not in ap


def test_equal_generator_sets_hash_alike(e13):
    again = build(reversed(data.E13))
    assert again is not e13 and again == e13
    assert hash(again) == hash(e13)
    assert len({e13, again, build([2, 3])}) == 2


def test_membership_matches_oracle(e13):
    member = oracles.members_upto(list(e13.gens), 200)
    for x in range(201):
        assert e13.contains(x) == member[x]


def test_apery_invariants(study_instances):
    for S in study_instances:
        ap = S.apery().elems
        assert len(ap) == S.e
        assert ap[0] == 0
        assert max(ap) == S.e + S.f
        assert len({w % S.e for w in ap}) == S.e
        for w in ap:
            assert not S.contains(w - S.e)


def test_contains_monotone_above_frobenius(study_instances):
    for S in study_instances:
        assert all(S.contains(S.f + t) for t in range(1, 3 * S.e))


def test_horizon_extension_is_consistent():
    S = build([5, 7, 9])
    member = oracles.members_upto([5, 7, 9], 200)
    for x in range(201):
        assert S.contains(x) == member[x]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=6))
def test_build_accepts_exactly_minimal_sets(values):
    """Round trip: the minimal generators of <values> always build, the built
    semigroup has the same members, and any strictly larger generating list
    is rejected as non-minimal."""
    import math

    if math.gcd(*values) != 1:
        values = values + [values[0] + 1]  # force coprimality
    gens = minimalize(values)
    S = build(list(gens))
    assert S.gens == gens
    limit = 3 * max(values) + 40
    member = oracles.members_upto(sorted(set(values)), limit)
    for x in range(limit + 1):
        assert S.contains(x) == member[x]
    if set(values) - set(gens):
        with pytest.raises(NonMinimal):
            build(sorted(set(values)))


def test_shared_instance_is_thread_safe(e13):
    """Concurrent readers agree with a fresh copy."""
    import threading

    from numsem import hilbert_function, order_of

    fresh = build(list(data.E13))
    errors = []

    def worker(offset):
        try:
            for x in range(offset, 400 + offset):
                assert e13.contains(x) == fresh.contains(x)
            assert order_of(e13, 105 + 13 * offset) >= 5
            assert hilbert_function(e13).values == data.E13_HILBERT
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_parse_generators():
    assert parse_generators("13,19,24") == [13, 19, 24]
    assert parse_generators(" 2 , 3 ") == [2, 3]
    with pytest.raises(InvalidGenerator):
        parse_generators("2,x")
    with pytest.raises(EmptyGenerators):
        parse_generators(" , ")

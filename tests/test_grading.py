import pytest

from numsem import (
    BadLevel,
    ConstraintViolation,
    MaximalRepresentation,
    NotMember,
    apery_strata,
    build,
    induced_elements,
    maximal_representations,
    order_of,
    strata_tables,
    support_size,
)

import data
import oracles


def test_order_examples(e13):
    assert order_of(e13, 38) == 2
    assert order_of(e13, 0) == 0
    assert order_of(e13, 105) == 5


def test_order_rejects_non_members(e13):
    with pytest.raises(NotMember):
        order_of(e13, 31)
    with pytest.raises(NotMember):
        order_of(e13, -1)


def test_orders_match_representation_oracle(e13):
    for s in [x for x in range(120) if e13.contains(x)]:
        assert order_of(e13, s) == oracles.order(list(e13.gens), s)


def test_ord_map_matches_dp_oracle(e13):
    from numsem import order_table

    table = order_table(e13)
    got = {s: table.order(s) for s in range(151) if e13.contains(s)}
    want = oracles.order_dp(list(e13.gens), 150)
    for s in range(151):
        assert got.get(s) == want[s]


def test_maximal_representation_unique_for_105(e13):
    reps = maximal_representations(e13, 105)
    assert len(reps) == 1
    assert reps[0].coeffs == (0, 3, 2, 0, 0, 0, 0, 0, 0, 0)  # 3*19 + 2*24
    assert reps[0].order == 5


def test_maximal_representation_of_double_multiplicity(e13):
    reps = maximal_representations(e13, 2 * e13.e)
    assert [r.coeffs for r in reps] == [(2,) + (0,) * 9]


def test_maximal_representations_small_three_generator():
    S = build([7, 8, 9])
    reps = maximal_representations(S, 24)
    assert [r.coeffs for r in reps] == [(0, 3, 0), (1, 1, 1)]
    assert [tuple(r) for r in oracles.max_representations([7, 8, 9], 24)] == [
        (0, 3, 0),
        (1, 1, 1),
    ]


def test_maximal_representations_match_oracle(e13):
    for s in [x for x in range(90) if e13.contains(x)]:
        got = [r.coeffs for r in maximal_representations(e13, s)]
        assert got == oracles.max_representations(list(e13.gens), s)


def test_support_sizes(e13):
    assert support_size(e13, 105).size == 2
    assert support_size(e13, 13).size == 1  # the multiplicity alone
    assert support_size(build([7, 8, 9]), 24).size == 3


def test_induced_elements(e13):
    rep = maximal_representations(e13, 105)[0]
    assert induced_elements(rep, 3) == [57, 62, 67]
    assert induced_elements(rep, 5) == [105]
    assert induced_elements(rep, 0) == [0]
    rep62 = maximal_representations(e13, 62)[0]
    assert induced_elements(rep62, 2) == [38, 43]
    with pytest.raises(BadLevel):
        induced_elements(rep, 6)
    with pytest.raises(BadLevel):
        induced_elements(rep, -1)


def test_induced_elements_above_the_coefficient_sum():
    """A hand-built representation whose coefficients do not sum to its
    order, or are not one non-negative count per generator, is refused, not
    read as having no sub-combination or one of the wrong size."""
    rep = MaximalRepresentation((3, 5), (1, 0), 3, 2)
    with pytest.raises(ConstraintViolation, match="sum to 1, not its order 2"):
        induced_elements(rep, 2)
    for rep in (
        MaximalRepresentation((3, 5), (0, 2, 1), 13, 3),
        MaximalRepresentation((3, 5), (-1, 4), 17, 3),
    ):
        with pytest.raises(ConstraintViolation, match="do not count"):
            induced_elements(rep, 2)


def test_apery_strata_reference(e13):
    st = apery_strata(e13)
    assert st.strata[2] == (38, 43, 48)
    assert st.d == 2
    assert st.h_r_prime == data.E13_HRPRIME


def test_apery_strata_small():
    st = apery_strata(build([2, 3]))
    assert st.strata == {1: (3,)}
    assert st.d == 1
    assert st.h_r_prime == (1, 1)


def test_apery_strata_chain_instance():
    st = apery_strata(build(list(data.CHAIN_E17)))
    assert st.strata[2] == (38, 41, 44)
    assert st.strata[3] == (57,)


def test_strata_sizes(study_instances):
    for S in study_instances:
        st = apery_strata(S)
        assert sum(len(v) for v in st.strata.values()) == S.e - 1
        assert len(st.strata[1]) == S.v - 1


def test_order_superadditive(study_instances):
    for S in study_instances[:6]:
        members = [x for x in range(2 * S.e + 40) if S.contains(x)]
        for a in members[:20]:
            for b in members[:20]:
                assert order_of(S, a + b) >= order_of(S, a) + order_of(S, b)


def test_induced_elements_have_exact_order(e13):
    tables = strata_tables(e13)
    for k, elems in tables.c_sets.items():
        for s in elems:
            for rep in maximal_representations(e13, s):
                for h in range(rep.order + 1):
                    for value in induced_elements(rep, h):
                        assert order_of(e13, value) == h


def test_support_chain(study_instances):
    """Union-over-all-representations supports shrink as the level grows."""
    for S in study_instances:
        tables = strata_tables(S)
        supports = {}
        for k in sorted(tables.c_sets):
            if k < 2:
                continue
            union = set()
            for s in tables.c_sets[k]:
                for rep in maximal_representations(S, s):
                    union.update(rep.apery_support())
            supports[k] = union
        levels = sorted(supports)
        for a, b in zip(levels, levels[1:]):
            if supports[b]:
                assert supports[b] <= supports[a]


def test_shifted_jump_elements_avoid_multiplicity(study_instances):
    """For g in any D_h, no maximal representation of g + e uses e."""
    for S in study_instances:
        tables = strata_tables(S)
        for elems in tables.d_sets.values():
            for g in elems:
                for rep in maximal_representations(S, g + S.e):
                    assert rep.coeffs[0] == 0

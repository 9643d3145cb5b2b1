import itertools

import pytest

from numsem import (
    BadConfig,
    BetaCount,
    ConstraintViolation,
    MaximalRepresentation,
    TwoGenConfig,
    beta_brute_force,
    beta_closed_form,
    build,
    maximal_representations,
    strata_tables,
    support_count_bound,
)

import data


def config(reps, k, h, n_i=7, n_j=9):
    return TwoGenConfig(n_i, n_j, tuple(reps), k, h)


def test_single_pair_examples():
    assert beta_closed_form(config([(3, 2)], 5, 3)) == 3
    assert beta_closed_form(config([(5, 0)], 5, 3)) == 1
    assert beta_closed_form(config([(0, 5)], 5, 3)) == 1
    assert beta_closed_form(config([(2, 2)], 4, 2)) == 3  # both above the level


def test_two_pair_example():
    assert beta_closed_form(config([(0, 4), (1, 3)], 4, 3)) == 2


def test_three_pair_equality_case():
    assert beta_closed_form(config([(0, 6), (1, 5), (2, 4)], 6, 4)) == 3


def test_brute_force_counts():
    got = beta_brute_force(config([(3, 2)], 5, 3))
    assert got == BetaCount(3, 3)
    # single-generator power induces exactly one element per level
    assert beta_brute_force(config([(4, 0)], 4, 2)).formal == 1


def test_bad_configs():
    with pytest.raises(BadConfig):
        config([(3, 2)], 5, 5)  # level too high
    with pytest.raises(BadConfig):
        config([(3, 2)], 5, 1)  # level too low
    with pytest.raises(BadConfig):
        config([(3, 3)], 5, 3)  # wrong order
    with pytest.raises(BadConfig):
        config([(2, 3), (1, 4)], 5, 3)  # not ascending
    with pytest.raises(BadConfig):
        config([], 5, 3)
    with pytest.raises(BadConfig, match="distinct and positive"):
        config([(3, 2)], 5, 3, n_i=5, n_j=5)
    with pytest.raises(BadConfig, match="at least 3"):
        config([(1, 1)], 2, 2)


def all_configs(k_max):
    for k in range(3, k_max + 1):
        for h in range(2, k):
            for r in range(1, k + 2):
                for combo in itertools.combinations(range(k + 1), r):
                    yield config([(a, k - a) for a in combo], k, h)


def test_closed_form_matches_brute_force_exhaustively():
    checked = 0
    for cfg in all_configs(8):
        counts = beta_brute_force(cfg)
        assert beta_closed_form(cfg) == counts.formal, cfg
        assert counts.numeric <= counts.formal
        # over a single generator pair, distinct coefficient pairs have
        # distinct values, so the two counts agree
        assert counts.numeric == counts.formal
        assert counts.formal >= min(cfg.h + 1, len(cfg.reps))
        checked += 1
    assert checked > 4000


def rep_with(coeffs, gens):
    value = sum(c * g for c, g in zip(coeffs, gens))
    return MaximalRepresentation(tuple(gens), tuple(coeffs), value, sum(coeffs))


def test_support_count_bound_cases():
    gens = (11, 13, 15, 17, 19)
    wide = rep_with((0, 1, 1, 1, 1), gens)  # q = 4, k = 4
    assert support_count_bound(wide, 2) == 5  # h(q-h)+1 and >= q
    assert support_count_bound(wide, 2) >= 4
    tall = rep_with((0, 5, 0, 0, 0), gens)  # q = 1
    assert support_count_bound(tall, 2) == 1
    three = rep_with((0, 2, 1, 1, 0), gens)  # q = 3, k = 4
    assert support_count_bound(three, 3) == 3
    with pytest.raises(BadConfig):
        support_count_bound(rep_with((1, 1, 1, 1, 0), gens), 2)
    with pytest.raises(BadConfig):
        support_count_bound(wide, 4)  # h must stay below the order
    with pytest.raises(BadConfig, match="at least one generator"):
        support_count_bound(rep_with((0, 0, 0, 0, 0), gens), 2)  # the rep of 0
    # Hand-built records that are not one non-negative coefficient per
    # generator are refused when they are made; unchecked, each would read
    # as q = 2, bound 2.
    for gens, coeffs, value in (((13, 19, 24), (0, -1, 4), 77), ((13, 19), (0, 2, 1), 38)):
        with pytest.raises(ConstraintViolation, match="do not count"):
            MaximalRepresentation(gens, coeffs, value, 3)
    # A level that is not an int, or is a bool, is refused: 2.0 gave 2.
    for rep, h in ((MaximalRepresentation((3, 5, 7), (0, 2, 2), 24, 4), 2.0), (three, 3.0), (wide, True)):
        with pytest.raises(BadConfig, match="not an integer"):
            support_count_bound(rep, h)


def test_support_count_bound_on_real_tables(study_instances):
    """The bound never exceeds the actual |C_h|."""
    exercised = 0
    for S in study_instances:
        tables = strata_tables(S)
        for k, elems in tables.c_sets.items():
            if k < 3:
                continue
            for s in elems:
                for rep in maximal_representations(S, s):
                    if rep.coeffs[0] or not any(rep.coeffs[1:]):
                        continue
                    for h in range(2, rep.order):
                        bound = support_count_bound(rep, h)
                        assert bound <= len(tables.c_sets.get(h, ()))
                        exercised += 1
    assert exercised


def _two_generator_shift_rep(S, x):
    """A maximal representation of x + e supported on two generators, if any."""
    for rep in maximal_representations(S, x + S.e):
        if rep.coeffs[0] == 0 and len(rep.apery_support()) == 2:
            return rep
    return None


def test_disjoint_support_pair_instance():
    """Two jump elements with disjoint two-generator shifted supports induce
    value-disjoint families, so |C_h| covers both counts."""
    info = data.DISJOINT_SUPPORT_INSTANCE
    S = build(list(info["gens"]))
    tables = strata_tables(S)
    k = info["k"]
    assert info["x1"] in tables.d_sets[k] and info["x2"] in tables.d_sets[k]
    r1 = _two_generator_shift_rep(S, info["x1"])
    r2 = _two_generator_shift_rep(S, info["x2"])
    assert r1 and r2
    assert not set(r1.apery_support()) & set(r2.apery_support())
    k1, k2 = r1.order, r2.order
    r = min(k1, k2) - k
    from numsem import induced_elements

    for h in range(2, k + r + 1):
        vals1 = set(induced_elements(r1, h))
        vals2 = set(induced_elements(r2, h))
        assert not vals1 & vals2
        c_h = set(tables.c_sets.get(h, ()))
        assert vals1 | vals2 <= c_h
        assert len(c_h) >= len(vals1) + len(vals2)
        if h < k + r:
            assert len(c_h) >= 4


def test_two_generator_pair_bounds_across_corpus(property_corpus):
    """Hunt the fixed corpus for jump pairs with two-generator shifted
    supports and assert the induced-count conclusions on every find."""
    from numsem import induced_elements

    disjoint_found = shared_found = 0
    instances = [build(list(data.DISJOINT_SUPPORT_INSTANCE["gens"])),
                 build(list(data.SHARED_SUPPORT_INSTANCE["gens"]))]
    for S in instances + property_corpus[:300]:
        tables = strata_tables(S)
        for k, dk in tables.d_sets.items():
            if len(dk) < 2:
                continue
            shifted = [(x, _two_generator_shift_rep(S, x)) for x in dk]
            shifted = [(x, r) for x, r in shifted if r is not None]
            for i, (x1, r1) in enumerate(shifted):
                for x2, r2 in shifted[i + 1 :]:
                    s1, s2 = set(r1.apery_support()), set(r2.apery_support())
                    overlap = s1 & s2
                    if not overlap:
                        disjoint_found += 1
                        r = min(r1.order, r2.order) - k
                        for h in range(2, k + r + 1):
                            v1 = set(induced_elements(r1, h))
                            v2 = set(induced_elements(r2, h))
                            assert not v1 & v2
                            assert len(tables.c_sets.get(h, ())) >= len(v1) + len(v2)
                    elif len(overlap) == 1:
                        shared_found += 1
                        nj = overlap.pop()
                        outer = [
                            next(c for g, c in zip(r.gens, r.coeffs) if c and g != nj)
                            for r in (r1, r2)
                        ]
                        floor = 3 if outer == [1, 1] else 4
                        for h in range(2, k):
                            assert len(tables.c_sets.get(h, ())) >= floor
    assert disjoint_found >= 1 and shared_found >= 1


def test_shared_support_pair_instance():
    """Two jump elements sharing one generator in their shifted supports force
    |C_h| >= 3 when both outer coefficients are 1, and >= 4 otherwise."""
    info = data.SHARED_SUPPORT_INSTANCE
    S = build(list(info["gens"]))
    tables = strata_tables(S)
    k = info["k"]
    assert info["x1"] in tables.d_sets[k] and info["x2"] in tables.d_sets[k]
    r1 = _two_generator_shift_rep(S, info["x1"])
    r2 = _two_generator_shift_rep(S, info["x2"])
    shared = set(r1.apery_support()) & set(r2.apery_support())
    assert len(shared) == 1
    nj = shared.pop()

    def outer_coeff(rep):
        for g, c in zip(rep.gens, rep.coeffs):
            if c and g != nj and g != rep.gens[0]:
                return c
        raise AssertionError

    ones = outer_coeff(r1) == 1 and outer_coeff(r2) == 1
    for h in range(2, k):
        floor = 3 if ones else 4
        assert len(tables.c_sets.get(h, ())) >= floor

import pytest

from numsem import (
    BadLevel,
    audit_delta,
    build,
    hilbert_function,
    is_tangent_cone_cm,
    strata_tables,
)

import data
import oracles


def test_hilbert_reference(e13):
    hp = hilbert_function(e13)
    assert hp.values == data.E13_HILBERT
    assert hp.stable_at == 5
    assert hp.decreasing_levels == (2,)
    assert hp.arrow_text() == "[1,10,9,11,12,13->]"


def test_hilbert_value_at_negative_level(e13):
    """A negative level raises the package's BadLevel, not a bare ValueError."""
    hp = hilbert_function(e13)
    with pytest.raises(BadLevel, match="-1"):
        hp.value_at(-1)
    assert hp.value_at(0) == 1


def test_hilbert_small():
    hp = hilbert_function(build([2, 3]))
    assert hp.values == (1, 2)
    assert hp.stable_at == 1
    assert not hp.is_decreasing


def test_hilbert_goldens():
    for gens, expected in data.GOLDEN_HILBERT.items():
        hp = hilbert_function(build(list(gens)))
        assert hp.values == expected, gens


def test_hilbert_matches_oracle(e13):
    got = hilbert_function(e13)
    want = oracles.hilbert_values(list(e13.gens), 8)
    for n in range(9):
        assert got.value_at(n) == want[n]


def test_hilbert_head_values(study_instances):
    for S in study_instances:
        hp = hilbert_function(S)
        assert hp.values[0] == 1
        assert hp.value_at(1) == S.v
        assert hp.values[-1] == S.e


def test_tables_reference(e13):
    t = strata_tables(e13)
    want = data.E13_TABLES
    assert t.d_sets == {2: want["D2"], 3: want["D3"], 4: want["D4"], 5: want["D5"]}
    assert t.c_sets[2] == want["C2"]
    assert t.c_sets[3] == want["C3"]
    assert t.c_sets[4] == want["C4"]
    assert t.c_sets[5] == want["C5"]
    assert t.c_sets[1] == e13.gens[1:]
    assert t.k0 == 2
    assert t.d_split[2] == {3: want["D2"]}
    assert t.d_split[4] == {5: want["D4"]}


def test_tables_match_oracle(e13):
    for k in range(2, 6):
        d_k, c_k = oracles.dk_ck(list(e13.gens), k)
        t = strata_tables(e13)
        assert t.d_sets.get(k, ()) == d_k
        assert t.c_sets.get(k, ()) == c_k


def test_tables_trivial_instance():
    t = strata_tables(build([2, 3]))
    assert all(not v for v in t.d_sets.values())
    assert t.k0 is None


def test_audit_reference_levels(e13):
    audit = audit_delta(e13)
    assert audit.levels[2] == (-1, -1)  # 9 - 10 and 3 - 4
    assert audit.levels[3] == (2, 2)  # 11 - 9 and 4 - 2
    assert audit.ok


def test_audit_trivial():
    assert audit_delta(build([2, 3])).ok


def test_audit_random(random_instances):
    for S in random_instances:
        assert audit_delta(S).ok


def test_tangent_cone_cm():
    assert is_tangent_cone_cm(build([5, 6, 7]))  # arithmetic generators
    assert is_tangent_cone_cm(build([2, 3]))


def test_tangent_cone_not_cm(e13):
    assert not is_tangent_cone_cm(e13)


def test_cm_iff_no_jumps(random_instances):
    for S in random_instances:
        t = strata_tables(S)
        assert is_tangent_cone_cm(S) == all(not v for v in t.d_sets.values())
        if is_tangent_cone_cm(S):
            assert not hilbert_function(S).is_decreasing


def test_decrease_forces_large_jump_sets(study_instances, sp_instances):
    """At a decreasing level k, |D_k| >= max(1 + |C_k|, k + 2); overall some
    |D_k| >= k + 2 must appear."""
    for S in study_instances + sp_instances:
        hp = hilbert_function(S)
        if not hp.is_decreasing:
            continue
        t = strata_tables(S)
        for k in hp.decreasing_levels:
            dk = len(t.d_sets.get(k, ()))
            ck = len(t.c_sets.get(k, ()))
            assert dk >= max(1 + ck, k + 2)
        assert any(len(v) >= k + 2 for k, v in t.d_sets.items())


def test_jump_landing_bound(study_instances):
    """ord(g + e) stays within k + d - 1 for g in D_k."""
    from numsem import apery_strata, order_of

    for S in study_instances:
        d = apery_strata(S).d
        t = strata_tables(S)
        for k, elems in t.d_sets.items():
            for g in elems:
                assert order_of(S, g + S.e) <= k + d - 1
        for k, split in t.d_split.items():
            for t_level, elems in split.items():
                for g in elems:
                    assert order_of(S, g + S.e) == t_level


def test_empty_third_stratum_forces_shifted_tables(random_instances):
    from numsem import apery_strata

    exercised = 0
    for S in random_instances:
        if apery_strata(S).size(3):
            continue
        t = strata_tables(S)
        for k in range(2, t.r_stop + 1):
            dk = t.d_sets.get(k, ())
            ck1 = t.c_sets.get(k + 1, ())
            assert tuple(x + S.e for x in dk) == ck1
            exercised += bool(dk)
    assert exercised  # the corpus must include nontrivial witnesses


def test_arrivals_decompose_into_apery_and_landings(study_instances, random_instances):
    """C_k is the order-k Apery elements plus the landings D_h^k + e."""
    from numsem import apery_strata

    for S in study_instances + random_instances[:60]:
        strata = apery_strata(S)
        t = strata_tables(S)
        for k in range(2, t.r_stop + 1):
            want = set(strata.strata.get(k, ()))
            for h, split in t.d_split.items():
                if h < k:
                    want |= {x + S.e for x in split.get(k, ())}
            assert set(t.c_sets.get(k, ())) == want, (S.gens, k)


def test_tables_match_oracle_random():
    from numsem.corpus import random_corpus

    for S in random_corpus(777, 40, dense_every=4, e_min=5, e_max=24, span=5):
        gens = list(S.gens)
        hp = hilbert_function(S)
        want = oracles.hilbert_values(gens, min(hp.stable_at + 3, 9))
        for n, w in enumerate(want):
            assert hp.value_at(n) == w, (S.gens, n)
        t = strata_tables(S)
        for k in range(2, min(t.r_stop + 1, 7)):
            d_k, c_k = oracles.dk_ck(gens, k)
            assert t.d_sets.get(k, ()) == d_k, (S.gens, k)
            assert t.c_sets.get(k, ()) == c_k, (S.gens, k)


def test_wide_two_generator_instances():
    """Large Frobenius numbers keep every table exact and consistent."""
    from numsem import is_symmetric

    for pair in ([11, 197], [7, 361], [23, 24], [2, 1001]):
        S = build(pair)
        profile = hilbert_function(S)
        assert is_tangent_cone_cm(S)
        assert is_symmetric(S)
        assert profile.values[-1] == S.e
        assert audit_delta(S).ok


def test_stabilization_certificate(random_instances):
    for S in random_instances[:40]:
        hp = hilbert_function(S)
        t = strata_tables(S)
        assert hp.value_at(t.r_stop) == S.e
        assert hp.value_at(t.r_stop + 3) == S.e
        levels = set(t.d_sets) | set(t.c_sets)
        assert max(levels, default=1) < t.r_stop

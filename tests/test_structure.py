import dataclasses
import time
from itertools import combinations

import pytest

from numsem import (
    HypothesisFailed,
    apery_strata,
    audit_delta,
    build,
    check_chain_structure,
    check_offset3,
    check_offset4,
    check_power_apery_tail,
    classification_report,
    classify_c3,
    hilbert_function,
    is_symmetric,
    match_ap2_size4_case,
    recover_sp_parameters,
    strata_tables,
)
from numsem import structure
from numsem.cli import _encode
from numsem.corpus import random_corpus

import data


def test_symmetry_examples(e13):
    assert is_symmetric(build([3, 4]))
    assert is_symmetric(build([2, 3]))
    assert not is_symmetric(e13)


def test_symmetry_definitions_agree(study_instances, random_instances):
    """Gap reflection and Apery reflection give the same verdict."""
    for S in study_instances + random_instances[:80]:
        ap = set(S.apery())
        top = S.e + S.f
        apery_form = all((s in ap) == ((top - s) in ap) for s in ap) and all(
            (top - s) not in ap
            for s in range(top + 1)
            if S.contains(s) and s not in ap
        )
        assert is_symmetric(S) == apery_form


def test_classify_c3_reference(e13):
    pattern = classify_c3(e13)
    assert pattern.witnesses == ((19, 24),)


def test_classify_c3_study_instance():
    pattern = classify_c3(build(list(data.STUDY_E19_DEC2)))
    assert pattern.witnesses == ((21, 24),)


def test_classify_c3_small_c3_returns_none():
    # <7, 8, 9, 10>: |Ap_2| = 3 but C_3 is too small to carry the pattern
    S = build([7, 8, 9, 10])
    tables = strata_tables(S)
    assert len(tables.c_sets.get(3, ())) <= 3
    assert classify_c3(S) is None


def test_classify_c3_hypothesis():
    with pytest.raises(HypothesisFailed):
        classify_c3(build(list(data.AP24_E17_B)))  # |Ap_2| = 4 there


def test_ap24_cases():
    m = match_ap2_size4_case(build(list(data.AP24_E30)))
    assert m.case == "b"
    assert m.all_cases == ("b",)
    assert (37, 33, 98) in m.witnesses
    assert not m.equality  # C_3 fills only part of the candidate set

    m = match_ap2_size4_case(build(list(data.AP24_E17_B)))
    assert m.case == "b"
    assert (19, 22, 31) in m.witnesses
    assert m.equality

    m = match_ap2_size4_case(build(list(data.AP24_E17_D)))
    assert m.case == "d"
    assert (22, 37, 29) in m.witnesses
    assert m.equality

    m = match_ap2_size4_case(build([13, 44, 47, 69]))
    assert (m.case, m.all_cases) == ("e", ("e",))
    assert m.witnesses == ((44, 47, 69),)
    assert m.equality

    m = match_ap2_size4_case(build([16, 23, 38, 56, 63, 65]))
    assert (m.case, m.all_cases) == ("c", ("c",))
    assert m.witnesses == ((23, 38, 56, 65),)
    assert m.equality


def test_ap24_hypothesis(e13):
    with pytest.raises(HypothesisFailed):
        match_ap2_size4_case(e13)


def test_offset3_reference(e13):
    v = check_offset3(e13)
    assert v.applicable
    assert v.decreasing and v.decreasing_at_2 and v.short_profile and v.pattern
    assert v.witnesses == ((19, 24),)
    assert v.consistent
    tables = strata_tables(e13)
    assert tuple(x + 13 for x in tables.d_sets[2]) == tables.c_sets[3]


def test_offset3_family_member():
    S = build([13, 14, 17, 29, 32, 33, 35, 36, 37, 38])
    v = check_offset3(S)
    assert v.applicable and v.decreasing and v.pattern and v.consistent
    assert (14, 17) in v.witnesses


def test_offset3_beyond_the_paper_decreases_at_two_levels():
    """An e = 19, v = e-3 search hit whose H_R decreases at levels 2 and 3:
    the first decrease is the least of the levels, and the v = e-3 pattern,
    the delta audit and non-symmetry still hold."""
    S = build([19, 21, 24, 41, 44, 46, 47, 49, 50, 51, 52, 53, 54, 55, 56, 58])
    profile = hilbert_function(S)
    assert profile.values == (1, 16, 15, 14, 17, 18, 19)
    assert profile.decreasing_levels == (2, 3)
    v = check_offset3(S)
    assert v.pattern and v.decreasing_at_2 and v.consistent
    assert v.witnesses == ((21, 24),)
    assert audit_delta(S).ok
    assert not is_symmetric(S)


def test_offset3_not_applicable():
    assert not check_offset3(build([2, 3])).applicable


def test_offset3_negative_case():
    # v = e - 3 without a decrease: all conditions must come out false together
    S = build([10, 11, 12, 13, 14, 15, 16])
    assert S.v == S.e - 3
    v = check_offset3(S)
    assert v.applicable and not v.decreasing and v.consistent


def test_offset4_profiles():
    v = check_offset4(build(list(data.AP24_E17_B)))
    assert v.applicable and v.profile == (4, 0)
    assert v.decreasing and v.pattern and v.level == 2 and v.consistent
    assert len(strata_tables(build(list(data.AP24_E17_B))).c_sets[3]) == 5

    v = check_offset4(build(list(data.CHAIN_E19_POWER)))
    assert v.applicable and v.profile == (3, 1)
    assert v.pattern and v.level == 3 and v.consistent

    v = check_offset4(build(list(data.CHAIN_E17)))
    assert v.applicable and v.profile == (3, 1)
    assert v.pattern and v.level == 2 and v.consistent


def test_offset4_not_applicable(e13):
    assert not check_offset4(e13).applicable  # v = e - 3 there


def test_chain_structure():
    c = check_chain_structure(build(list(data.CHAIN_E17)))
    assert c.applicable and (c.ell, c.d) == (2, 3)
    assert (19, 22) in c.witnesses
    assert c.ok
    # 4 * 19 = 76 = 59 + 17 with 59 in D_2
    tables = strata_tables(build(list(data.CHAIN_E17)))
    assert 59 in tables.d_sets[2]

    c = check_chain_structure(build(list(data.CHAIN_E30)))
    assert c.applicable and (c.ell, c.d) == (4, 4)
    assert c.ok and (33, 37) in c.witnesses

    for gens in (data.CHAIN_E19_POWER, data.CHAIN_E19_MIXED):
        c = check_chain_structure(build(list(gens)))
        assert c.applicable and (c.ell, c.d) == (3, 3) and c.ok
        assert c.not_symmetric


@pytest.mark.parametrize(
    "gens, emptied, ell, chain_ok",
    [(data.CHAIN_E17, ("d_sets", 2), 2, True), (data.CHAIN_E19_POWER, ("c_sets", 3), 3, False)],
    ids=["power-fails", "chain-fails"],
)
def test_chain_report_keeps_the_chain_apart_from_the_power_test(
    monkeypatch, gens, emptied, ell, chain_ok
):
    """With D_ell emptied, the chain C_2..C_ell still holds but (d+1)*n_i
    misses D_ell + e: chain_ok is true and power_in_d_ell false.  With C_3
    emptied at ell = 3 the chain fails, and so does everything after it."""
    S = build(list(gens))
    tables = strata_tables(S)
    field, level = emptied
    patched = dataclasses.replace(tables, **{field: {**getattr(tables, field), level: ()}})
    monkeypatch.setattr(structure, "strata_tables", lambda S: patched)
    c = check_chain_structure(S)
    assert c.applicable and c.ell == ell
    assert (c.chain_ok, c.power_in_d_ell, c.ok, c.witnesses) == (chain_ok, False, False, ())


def test_chain_not_applicable(e13):
    assert not check_chain_structure(e13).applicable  # |Ap_3| = 0


def test_power_tail():
    t = check_power_apery_tail(build(list(data.CHAIN_E30)))
    assert t.applicable and (t.r0, t.d, t.witness) == (3, 4, 33)
    assert t.ok
    st = apery_strata(build(list(data.CHAIN_E30)))
    assert st.strata[3] == (99,) and st.strata[4] == (132,)

    t = check_power_apery_tail(build(list(data.AP24_E30)))
    assert t.applicable and t.witness == 33 and t.ok

    # r_0 = d: out of scope
    assert not check_power_apery_tail(build(list(data.CHAIN_E17))).applicable
    assert not check_power_apery_tail(build([2, 3])).applicable


def test_gorenstein_guard(property_corpus):
    """Symmetric with v >= e - 4 never decreases."""
    exercised = 0
    for S in property_corpus:
        if S.v >= S.e - 4 and is_symmetric(S):
            assert not hilbert_function(S).is_decreasing
            exercised += 1
    assert exercised >= 20


def test_decreasing_with_three_apery2_has_c3_pattern(study_instances, sp_instances):
    for S in study_instances + sp_instances:
        if not hilbert_function(S).is_decreasing:
            continue
        if apery_strata(S).size(2) != 3:
            continue
        pattern = classify_c3(S)
        assert pattern is not None and len(pattern.witnesses) >= 1


def test_decreasing_with_four_apery2_matches_exactly_one_case(study_instances):
    for S in study_instances:
        if not hilbert_function(S).is_decreasing:
            continue
        if apery_strata(S).size(2) != 4:
            continue
        m = match_ap2_size4_case(S)
        assert m is not None and len(m.all_cases) == 1


def test_chain_hypotheses_force_non_symmetry(property_corpus):
    for S in property_corpus:
        c = check_chain_structure(S)
        if c.applicable:
            assert c.not_symmetric


def test_classification_report_degenerate():
    report = classification_report(build([1]))
    assert report.symmetric
    assert not report.offset3.applicable
    assert not report.chain.applicable
    assert report.sp_params is None


def test_classification_report_shape(e13):
    report = classification_report(e13)
    assert report.symmetric is False
    assert report.c3_pattern.witnesses == ((19, 24),)
    assert report.ap24_case is None
    assert report.offset3.holds
    assert report.c3_pattern.pair == (19, 24)
    assert not report.offset4.applicable and not report.offset4.holds
    assert report.sp_params is not None and report.sp_params.p == 6


def test_report_recovers_the_family_parameters(property_corpus, sp_instances):
    """The report reads the family's parameters off the offset-3 verdict it
    already holds, and they are those ``recover_sp_parameters`` reads; the
    property corpus holds every family member."""
    members = 0
    for S in property_corpus:
        params = classification_report(S).sp_params
        assert params == recover_sp_parameters(S), S.gens
        members += params is not None
    assert members >= len(sp_instances) == 12


def test_report_runs_the_offset3_detector_once(monkeypatch, sp_instances):
    calls = []
    real = structure.check_offset3

    def counted(S):
        calls.append(S)
        return real(S)

    monkeypatch.setattr(structure, "check_offset3", counted)
    for S in sp_instances:
        calls.clear()
        assert classification_report(S).sp_params is not None
        assert calls == [S]


def _wide_ap24(e):
    """<e, e + c : 1 <= c < e, c not in {2, 4, 6, 8}>: v = e - 4, |Ap_2| = 4."""
    return [e] + [e + c for c in range(1, e) if c not in (2, 4, 6, 8)]


def _detector_corpus(study_instances, sp_instances):
    instances = study_instances + sp_instances + random_corpus(13, 500, dense_every=3)
    return instances + [build(_wide_ap24(e)) for e in range(20, 61, 4)]


def test_roles_agree_with_enumerating_ap1(monkeypatch, study_instances, sp_instances):
    """Tuples of the roles give the |Ap_2| = 4 detectors (the five cases and
    the (4, 0) profile of v = e-4) the verdicts and witnesses, in the same
    order, that tuples of all of Ap_1 give."""
    instances = _detector_corpus(study_instances, sp_instances)
    fast = [_encode(classification_report(S)) for S in instances]
    monkeypatch.setattr(structure, "_roles", lambda ap1, target: ap1)
    for S, want in zip(instances, fast):
        assert _encode(classification_report(S)) == want, S


def _pair_by_enumeration(ap1, two):
    """The pair a < b of Ap_1 with two = {2a, a+b, 2b}, found by trying every
    pair of Ap_1; asserts that at most one fits."""
    fits = [(a, b) for a, b in combinations(ap1, 2) if two == {2 * a, a + b, 2 * b}]
    assert len(fits) <= 1, fits
    return fits[0] if fits else None


def test_pair_agrees_with_enumerating_ap1(monkeypatch, study_instances, sp_instances):
    """Reading the two-generator pair off C_2 / Ap_2 gives every detector the
    verdicts and witnesses that enumerating pairs of Ap_1 gives."""
    instances = _detector_corpus(study_instances, sp_instances)
    fast = [_encode(classification_report(S)) for S in instances]
    monkeypatch.setattr(structure, "_pair", _pair_by_enumeration)
    for S, want in zip(instances, fast):
        assert _encode(classification_report(S)) == want, S


@pytest.mark.parametrize(
    "ap1, two, want",
    [
        ((19, 24, 30), {38, 43, 48}, (19, 24)),
        ((19, 24), {38, 43, 48, 50}, None),  # |two| = 4
        ((19, 24), {38}, None),  # {2a} alone
        ((19, 24), {39, 43, 48}, None),  # odd least element
        ((19, 30), {38, 43, 48}, None),  # the half 24 is not in Ap_1
        ((24, 30), {38, 43, 48}, None),  # the half 19 is not in Ap_1
        ((), set(), None),
    ],
)
def test_pair_cases(ap1, two, want):
    assert structure._pair(ap1, two) == want
    assert _pair_by_enumeration(ap1, two) == want


def test_wide_ap24_member_is_classified_fast():
    """At e = 320 (|Ap_1| = 315) the detectors stay linear in v."""
    S = build(_wide_ap24(320))
    start = time.perf_counter()
    report = classification_report(S)
    assert time.perf_counter() - start < 2.0
    assert report.ap24_case.case == "b"
    assert report.offset4.profile == (4, 0)

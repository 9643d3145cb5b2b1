"""Structural pattern detectors for decreasing Hilbert functions.

Each detector evaluates the hypotheses and the conclusion of one structure
statement independently, reports every witness assignment it finds, and
returns NotApplicable (a first-class verdict, distinct from false) when the
hypotheses do not hold.  Detectors never trust each other: every reported
witness is re-verified against the computed C_k / D_k sets.

The Apery-set shapes of a decrease at level 2 (v = e-3, and the two (4, 0)
shapes of v = e-4) live in one table of ``_Shape`` entries, written once
over their roles.  The detectors match C_2 / Ap_2, C_3 and D_2 + e against
its entries, and the classification search derives from the same entries
the generators a shape forces and the Apery elements it names; the (3, 1)
shapes of v = e-4 are the v = e-3 entry with one C_3 element kept as Ap_3.
A two-generator shape {2a, a+b, 2b} is read directly off its least and
largest element (``_pair``); only the |Ap_2| = 4 shapes try tuples of
candidate roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, NamedTuple

from .core import NumericalSemigroup
from .errors import HypothesisFailed, InternalInconsistency
from .filtration import hilbert_function, strata_tables
from .grading import apery_strata

__all__ = [
    "Ap24Match",
    "C3Pattern",
    "ChainReport",
    "ClassificationReport",
    "PowerTailVerdict",
    "Offset3Verdict",
    "Offset4Verdict",
    "check_chain_structure",
    "check_offset3",
    "check_offset4",
    "check_power_apery_tail",
    "classification_report",
    "classify_c3",
    "is_symmetric",
    "match_ap2_size4_case",
]


def is_symmetric(S: NumericalSemigroup) -> bool:
    """True iff x in S exactly when f - x is a gap.

    Decided by counting: S is symmetric iff 2 g(S) = f + 1, with g the genus
    (Rosales and Garcia-Sanchez, Numerical Semigroups, Springer 2009).
    """
    return 2 * S.genus() == S.f + 1


def _ap1(S: NumericalSemigroup) -> tuple[int, ...]:
    return apery_strata(S).strata.get(1, ())


def _roles(ap1: tuple[int, ...], target: set[int]) -> tuple[int, ...]:
    """The elements of Ap_1 that are halves x/2 of elements x of ``target``, or
    differences x - h with h such a half, ascending.  Every |Ap_2| = 4 shape
    doubles a generator into Ap_2, and every other role meets a doubled one in
    a sum there, so tuples of the roles find the witnesses that tuples of
    Ap_1 find, in the same order, at O(|target|^2) cost."""
    members = set(ap1)
    halves = {x // 2 for x in target if not x % 2 and x // 2 in members}
    return tuple(sorted(halves | {x - h for x in target for h in halves} & members))


def _set(tables, which: str, k: int) -> set[int]:
    store = tables.c_sets if which == "c" else tables.d_sets
    return set(store.get(k, ()))


# -- the shapes of a decrease at level 2 --------------------------------------


class _Shape(NamedTuple):
    """One Apery-set shape of a decrease at level 2, over its roles (a, b) or
    (a, b, c): the sums in Ap_2, the sums in D_2 + e, and whether the shape
    is symmetric in a and b and so read with a < b only.

    The search's form of a shape is the generators it forces, e, the roles
    and D_2 + e minus e, and the Apery elements it names, Ap_2; the
    detectors match C_2 or Ap_2, then C_3 and D_2 + e, against the sums.
    """

    ap2: Callable[..., tuple[int, ...]]
    d2e: Callable[..., tuple[int, ...]]
    ordered: bool = False

    def reads(self, roles: tuple[int, ...]) -> bool:
        return not self.ordered or roles[0] < roles[1]

    def skeleton(self, e: int, roles: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """(forced, named) of the shape on ``roles``."""
        forced = (e,) + roles + tuple([x - e for x in self.d2e(*roles)])
        return forced, self.ap2(*roles)

    def pinned(self, roles: tuple[int, ...], ap2: set[int]) -> set[int] | None:
        """The D_2 + e sums on ``roles`` when the shape reads them and its
        Ap_2 sums make ``ap2``, else None.  Ap_2, the test that fails almost
        always, goes first."""
        if self.reads(roles) and ap2 == set(self.ap2(*roles)):
            return set(self.d2e(*roles))
        return None


# v = e-3: C_2 = Ap_2 on two generators, and C_3 = D_2 + e.  It is also the
# two-generator C_2 / C_3 pattern of |Ap_2| = 3, and with one element of C_3
# kept as Ap_3 it is the (3, 1) profile of v = e-4.
_OFFSET3 = _Shape(
    lambda a, b: (2 * a, a + b, 2 * b),
    lambda a, b: (3 * a, 2 * a + b, a + 2 * b, 3 * b),
    ordered=True,
)


def _pair(ap1: tuple[int, ...], two: set[int]) -> tuple[int, int] | None:
    """The pair (a, b) of Ap_1 with ``two`` = {2a, a+b, 2b}, else None.  As
    2a < a+b < 2b, a and b are the halves of the least and the largest
    element, so at most one pair fits."""
    a, b = min(two, default=0) // 2, max(two, default=0) // 2
    fits = a < b and two == set(_OFFSET3.ap2(a, b)) and a in ap1 and b in ap1
    return (a, b) if fits else None


# v = e-4, profile (4, 0): the three-generator shapes, cases (b) and (d) of
# the |Ap_2| = 4 taxonomy, with C_3 = D_2 + e.
_FOUR_ZERO = (
    _Shape(
        lambda a, b, c: (2 * a, a + b, 2 * b, a + c),
        lambda a, b, c: (3 * a, 2 * a + b, a + 2 * b, 3 * b, 2 * a + c),
    ),
    _Shape(
        lambda a, b, c: (2 * a, a + b, 2 * b, 2 * c),
        lambda a, b, c: (3 * a, 2 * a + b, a + 2 * b, 3 * b, 3 * c),
        ordered=True,
    ),
)


# -- C_3 pattern on two generators ------------------------------------------


@dataclass(frozen=True)
class C3Pattern:
    """C_3 = {3a, 2a+b, a+2b, 3b} together with C_2 = {2a, a+b, 2b}."""

    witnesses: tuple[tuple[int, int], ...]

    @property
    def pair(self) -> tuple[int, int]:
        return self.witnesses[0]


def classify_c3(S: NumericalSemigroup) -> C3Pattern | None:
    """Find the two-generator shape of C_3 when |Ap_2| = 3 and |C_3| >= 4."""
    strata = apery_strata(S)
    if strata.size(2) != 3:
        raise HypothesisFailed("|Ap_2| = %d, need 3" % strata.size(2))
    tables = strata_tables(S)
    c3 = _set(tables, "c", 3)
    if len(c3) <= 3:
        return None
    pair = _pair(_ap1(S), _set(tables, "c", 2))
    if pair is None or set(_OFFSET3.d2e(*pair)) != c3:
        raise InternalInconsistency("|C_3| >= 4 with |Ap_2| = 3 but no witness pair")
    return C3Pattern((pair,))


# -- |Ap_2| = 4 case analysis -------------------------------------------------


@dataclass(frozen=True)
class Ap24Match:
    """One matching case of the five |Ap_2| = 4 shapes.

    ``case`` is a tag in 'a'..'e'.  For the containment cases (b, d) the
    match records whether C_3 actually fills the whole candidate set.
    """

    case: str
    witnesses: tuple[tuple[int, ...], ...]
    equality: bool
    all_cases: tuple[str, ...] = ()


def _four_zero_candidates(roles, ap2, c3):
    """Cases (b) and (d), the (4, 0) shapes, on triples of ``roles``: yield
    (case tag, role tuple, whether C_3 fills the candidate set) where C_3
    lies inside their D_2 + e."""
    for triple in permutations(roles, 3):
        for case, shape in zip("bd", _FOUR_ZERO):
            cand = shape.pinned(triple, ap2)
            if cand is not None and c3 <= cand:
                yield case, triple, c3 == cand


def _ap24_candidates(ap1, ap2, c3):
    """Yield (case tag, role tuple, whether C_3 fills the candidate set)."""
    roles = _roles(ap1, ap2)
    yield from _four_zero_candidates(roles, ap2, c3)
    for a, b, c in permutations(roles, 3):
        # (a): 2a, a+b, a+c, b+c with triple-supported C_3
        if b < c and ap2 == {2 * a, a + b, a + c, b + c}:
            cand = {a + b + c, 3 * a, 2 * a + b, 2 * a + c}
            if c3 == cand:
                yield "a", (a, b, c), True
        # (e): 2a, 2b, a+c, b+c
        if a < b and ap2 == {2 * a, 2 * b, a + c, b + c}:
            cand = {3 * a, 2 * a + c, 2 * b + c, 3 * b}
            if c3 == cand:
                yield "e", (a, b, c), True
    # (c): 2a, a+b, 2b, h+k with {h, k} disjoint from the pattern pair
    members = set(ap1)
    for a, b in combinations(roles, 2):
        if {2 * a, a + b, 2 * b} <= ap2:
            # |Ap_2| = 4 and 2a < a+b < 2b leave exactly one element
            (extra,) = ap2 - {2 * a, a + b, 2 * b}
            cand = {3 * a, 2 * a + b, a + 2 * b, 3 * b}
            if c3 != cand:
                continue
            for h in ap1:
                k = extra - h
                if h < k and k in members and not {h, k} & {a, b}:
                    yield "c", (a, b, h, k), True


def match_ap2_size4_case(S: NumericalSemigroup) -> Ap24Match | None:
    """Match the |Ap_2| = 4 shape taxonomy; None when no case fits."""
    strata = apery_strata(S)
    if strata.size(2) != 4:
        raise HypothesisFailed("|Ap_2| = %d, need 4" % strata.size(2))
    ap2 = set(strata.strata[2])
    c3 = _set(strata_tables(S), "c", 3)
    by_case: dict[str, list] = {}
    eq_by_case: dict[str, bool] = {}
    for case, roles, equality in _ap24_candidates(_ap1(S), ap2, c3):
        by_case.setdefault(case, []).append(roles)
        eq_by_case[case] = eq_by_case.get(case, False) or equality
    if not by_case:
        return None
    case = sorted(by_case)[0]
    return Ap24Match(
        case, tuple(by_case[case]), eq_by_case[case], tuple(sorted(by_case))
    )


# -- v = e - 3 equivalence ----------------------------------------------------


@dataclass(frozen=True)
class Offset3Verdict:
    """Independent evaluation of the v = e-3 decrease conditions.

    ``decreasing``, ``decreasing_at_2``, ``short_profile`` (H_{R'} equals
    [1, e-4, 3]) and ``pattern`` (C_2 and D_2 + e = C_3 on two generators)
    are each computed on their own; ``consistent`` records that they agree
    the way the equivalence demands.
    """

    applicable: bool
    decreasing: bool = False
    decreasing_at_2: bool = False
    short_profile: bool = False
    pattern: bool = False
    witnesses: tuple[tuple[int, int], ...] = ()

    @property
    def consistent(self) -> bool:
        if not self.applicable:
            return True
        third = self.short_profile and self.pattern
        return self.decreasing == self.decreasing_at_2 == third

    @property
    def holds(self) -> bool:
        return self.applicable and self.decreasing


def check_offset3(S: NumericalSemigroup) -> Offset3Verdict:
    if S.v != S.e - 3:
        return Offset3Verdict(applicable=False)
    profile = hilbert_function(S)
    strata = apery_strata(S)
    tables = strata_tables(S)
    c2, c3 = _set(tables, "c", 2), _set(tables, "c", 3)
    d2_shift = {x + S.e for x in _set(tables, "d", 2)}
    pair = _pair(_ap1(S), c2)
    pattern = pair is not None and set(_OFFSET3.d2e(*pair)) == c3 == d2_shift
    return Offset3Verdict(
        applicable=True,
        decreasing=profile.is_decreasing,
        decreasing_at_2=2 in profile.decreasing_levels,
        short_profile=strata.h_r_prime == (1, S.e - 4, 3),
        pattern=pattern,
        witnesses=(pair,) if pattern else (),
    )


# -- v = e - 4 equivalences ---------------------------------------------------


@dataclass(frozen=True)
class Offset4Verdict:
    """v = e-4 decrease detector, split by the (|Ap_2|, |Ap_3|) profile.

    For profile (4, 0): the two C_3 = D_2 + e shapes on three generators,
    equivalent to a decrease at level 2.  For profile (3, 1): the
    two-generator C_3 shape with the D_h + e chain carrying 4*n_i, h = 2 or
    3, equivalent to a decrease at some level <= 3.
    """

    applicable: bool
    profile: tuple[int, int] | None = None
    decreasing: bool = False
    target_decrease: bool = False
    pattern: bool = False
    witnesses: tuple[tuple[int, ...], ...] = ()
    level: int | None = None

    @property
    def consistent(self) -> bool:
        if not self.applicable:
            return True
        return self.target_decrease == self.pattern

    @property
    def holds(self) -> bool:
        return self.applicable and self.decreasing


def _chain_values(a: int, b: int, h: int) -> set[int]:
    """{h*a + b, (h-1)*a + 2b, ..., (h+1)*b}."""
    return {(h + 1 - m) * a + m * b for m in range(1, h + 2)}


def check_offset4(S: NumericalSemigroup) -> Offset4Verdict:
    if S.v != S.e - 4:
        return Offset4Verdict(applicable=False)
    strata = apery_strata(S)
    profile = (strata.size(2), strata.size(3))
    if profile not in ((4, 0), (3, 1)):
        return Offset4Verdict(applicable=False, profile=profile)
    hp = hilbert_function(S)
    tables = strata_tables(S)
    ap1, ap2 = _ap1(S), set(strata.strata[2])
    c3 = _set(tables, "c", 3)
    if profile == (4, 0):
        # Cases (b) and (d) of the |Ap_2| = 4 taxonomy with C_3 = D_2 + e; no
        # roles match both, as their Ap_2 would need a + c = 2c.
        d2_shift = {x + S.e for x in _set(tables, "d", 2)}
        cases = _four_zero_candidates(_roles(ap1, ap2), ap2, c3) if c3 == d2_shift else ()
        wits = [roles for _, roles, full in cases if full]
        level = 2 if wits else None
        target = 2 in hp.decreasing_levels
    else:
        wits, level = [], None
        # Ap_2 and C_3 make the two-generator pattern, read in either order.
        pair = _pair(ap1, ap2)
        if pair and c3 == set(_OFFSET3.d2e(*pair)):
            for a, b in (pair, pair[::-1]):
                for h in (2, 3):
                    dh_shift = {x + S.e for x in _set(tables, "d", h)}
                    if dh_shift == {4 * a} | _chain_values(a, b, h):
                        wits.append((a, b))
                        level = h if level is None else min(level, h)
        target = any(l <= 3 for l in hp.decreasing_levels)
    return Offset4Verdict(
        applicable=True,
        profile=profile,
        decreasing=hp.is_decreasing,
        target_decrease=target,
        pattern=bool(wits),
        witnesses=tuple(wits),
        level=level,
    )


# -- two-generator chain structure (|Ap_2| = 3, |Ap_3| = 1) -------------------


@dataclass(frozen=True)
class ChainReport:
    """Chain structure when |Ap_2| = 3, |Ap_3| = 1 and H_R decreases.

    Verifies ell <= d, the full two-generator chains C_2..C_ell, that
    (d+1)*n_i lands in D_ell + e, the power tail Ap_k = {k n_i} when
    (ell, d) != (3, 3), the shape of D_ell + e, and non-symmetry.
    """

    applicable: bool
    ell: int | None = None
    d: int | None = None
    witnesses: tuple[tuple[int, int], ...] = ()
    ell_at_most_d: bool = False
    chain_ok: bool = False
    power_in_d_ell: bool = False
    tail_ok: bool = False
    d_ell_pattern_ok: bool = False
    not_symmetric: bool = False

    @property
    def ok(self) -> bool:
        if not self.applicable:
            return True
        return (
            self.ell_at_most_d
            and self.chain_ok
            and self.power_in_d_ell
            and self.tail_ok
            and self.d_ell_pattern_ok
            and self.not_symmetric
        )


def check_chain_structure(S: NumericalSemigroup) -> ChainReport:
    strata = apery_strata(S)
    hp = hilbert_function(S)
    if strata.size(2) != 3 or strata.size(3) != 1 or not hp.is_decreasing:
        return ChainReport(applicable=False)
    tables = strata_tables(S)
    ell = min(hp.decreasing_levels)
    d = strata.d
    wits = []
    any_chain = False
    any_pattern = False
    any_tail = False
    # ell >= 2, as H(1) = v >= H(0), so the chain pins C_2 = {2a, a+b, 2b}.
    pair = _pair(_ap1(S), _set(tables, "c", 2))
    for a, b in (pair, pair[::-1]) if pair else ():
        chain_ok = all(
            _set(tables, "c", r) == {(r - m) * a + m * b for m in range(r + 1)}
            for r in range(2, ell + 1)
        )
        if not chain_ok:
            continue
        any_chain = True
        d_ell_shift = {x + S.e for x in _set(tables, "d", ell)}
        if (d + 1) * a not in d_ell_shift:
            continue
        wits.append((a, b))
        if d_ell_shift == {(d + 1) * a} | _chain_values(a, b, ell):
            any_pattern = True
        if (ell, d) == (3, 3) or all(
            set(strata.strata.get(k, ())) == {k * a} for k in range(3, d + 1)
        ):
            any_tail = True
    return ChainReport(
        applicable=True,
        ell=ell,
        d=d,
        witnesses=tuple(wits),
        ell_at_most_d=ell <= d,
        chain_ok=any_chain,
        power_in_d_ell=bool(wits),
        tail_ok=any_tail,
        d_ell_pattern_ok=any_pattern,
        not_symmetric=not is_symmetric(S),
    )


# -- single-element Apery tail ------------------------------------------------


@dataclass(frozen=True)
class PowerTailVerdict:
    """If some |Ap_r| = 1 with least such r_0 < d, the tail is one generator's
    powers: Ap_k = {k*n_i} for r_0 <= k <= d, and k*n_i stays in Ap_k below r_0."""

    applicable: bool
    r0: int | None = None
    d: int | None = None
    witness: int | None = None
    tail_ok: bool = False
    head_ok: bool = False

    @property
    def ok(self) -> bool:
        return (not self.applicable) or (self.tail_ok and self.head_ok)


def check_power_apery_tail(S: NumericalSemigroup) -> PowerTailVerdict:
    strata = apery_strata(S)
    d = strata.d
    singles = [r for r in range(3, d + 1) if strata.size(r) == 1]
    if not singles:
        return PowerTailVerdict(applicable=False)
    r0 = min(singles)
    if r0 >= d:
        return PowerTailVerdict(applicable=False, r0=r0, d=d)
    # Ap_r0 = {u}.  The k terms of a maximal representation of an element
    # of Ap_k, k > r0, are minimal generators other than e, and any r0 of
    # them sum to an element of Ap_r0, which is u; so all k are one a with
    # r0 * a = u.  A sum of h of the d terms of d * a, h * a is in Ap_h.
    a = strata.strata[r0][0] // r0
    tail_ok = all(set(strata.strata[k]) == {k * a} for k in range(r0, d + 1))
    head_ok = tail_ok and all(k * a in strata.strata.get(k, ()) for k in range(1, r0))
    return PowerTailVerdict(True, r0, d, a if tail_ok else None, tail_ok, head_ok)


# -- aggregate report ---------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """All structure detectors, plus recovered family parameters when e = 13."""

    symmetric: bool
    c3_pattern: C3Pattern | None
    ap24_case: Ap24Match | None
    offset3: Offset3Verdict
    offset4: Offset4Verdict
    chain: ChainReport
    power_tail: PowerTailVerdict
    sp_params: "SpParameters | None"


def classification_report(S: NumericalSemigroup) -> ClassificationReport:
    from .search import recover_sp_parameters

    strata = apery_strata(S)
    c3_pattern = None
    if strata.size(2) == 3:
        c3_pattern = classify_c3(S)
    ap24 = None
    if strata.size(2) == 4:
        ap24 = match_ap2_size4_case(S)
    return ClassificationReport(
        symmetric=is_symmetric(S),
        c3_pattern=c3_pattern,
        ap24_case=ap24,
        offset3=check_offset3(S),
        offset4=check_offset4(S),
        chain=check_chain_structure(S),
        power_tail=check_power_apery_tail(S),
        sp_params=recover_sp_parameters(S),
    )

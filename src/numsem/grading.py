"""The order filtration: ord, maximal representations, supports, strata.

For a semigroup element s, ord(s) is the largest h such that s is a sum of
h nonzero elements; equivalently the largest coefficient sum over all ways
of writing s in the generators.  With M the nonzero elements, the sets
hM = {s : ord(s) >= h} form the order filtration.

One fill per semigroup records the filtration up to the first level r with
(r+1)M = rM + e.  From that level on, adding the multiplicity is a
bijection between consecutive strata, so the fill has seen all there is.
It records the Hilbert function and the sets C_k.  The smallest element
of hM in a class moves by e a level from the order of the class's Apery
element on, except through one run of levels h..t-1 for each y of the
class in D_h^t (y has order h - 1 and y + e order t).  C_k is the order-k
Apery elements plus the landings D_h^k + e, h < k, and h is one more than
ord(y), read off the runs of the lower levels; this gives D_k, D_k^t and
the Apery strata.  Per class, the first move and the stall runs are the
Apery table of the filtration (Cortadellas Benitez and Zarzuela
Armengou, J. Algebra 328, 2011).  ``order_table`` keeps them on the
semigroup; ``order_of`` is a lookup in them.

Two fills produce the same record, and neither keeps a level's column of
smallest elements past that level.  The bitset fill sweeps the levels hM,
each shifted down by he, as bitsets on the table's one window [0, f + e],
a few at a time, and the classes that move at a level are its stratum
folded mod e.
The min-plus fill derives each column from the one before with no window,
on the column packed as one int with a field per class by
``_bitset.PackedColumns``, the one home of that format: a level is v - 1
of its rotate-and-min steps, each a few whole-int operations, and the
classes that move are the fields that grow.  The fill hands the kernel a
bound on every value it forms, max(Ap) + e * e for a column entry plus
max(gens) for a min-plus candidate, and the kernel sizes its fields from
it so that none overflows or borrows into the next.  The table takes the
min-plus fill when the window f + e is more than ``_MIN_PLUS_ABOVE`` times
e * v (the two-generator ladders, whose windows are about e**2 bits, and
other very sparse semigroups), and the bitset fill otherwise; each is the
other's differential twin in the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import ge
from typing import Iterator

from ._bitset import (
    PackedColumns, bits_to_tuple, closure_bits, fold_classes, shift_sum, window_mask
)
from .core import NumericalSemigroup
from .errors import BadLevel, ConstraintViolation, InternalInconsistency, NotMember

__all__ = [
    "AperyStratification",
    "FiltrationTables",
    "HilbertProfile",
    "MaximalRepresentation",
    "OrderTable",
    "SupportInfo",
    "apery_strata",
    "induced_elements",
    "maximal_representations",
    "order_of",
    "order_table",
    "support_size",
]


def _levels(gens: tuple[int, ...], bits: int, limit: int) -> Iterator[tuple[int, int]]:
    """Yield (T_n, the stratum of level n less ne) as bitsets over [0, limit]
    for n = 0, 1, ..., r, where T_n = nM - ne and r is the least n >= 1 with
    (r+1)M = rM + e; ``gens[0]`` is e, and ``bits`` is the closure of
    ``gens``, exact over [0, limit], with its top e bits members, so that
    limit >= f + e.

    T_0 is S and T_1 is M - e.  x is in T_{n+1} iff x + e - g is in T_n for
    some generator g, so T_{n+1} is the sum of T_n and the generators less
    e, and a step is exact over [0, limit] as g >= e.  Every T_n holds every
    integer above f, being ne plus a member, and T_n is inside T_{n+1}, as
    nM + e is inside (n+1)M.  The stratum nM minus (n+1)M less ne is T_n
    minus T_{n+1} + e: an element of order n is at most f + (n+1)e, so the
    stratum lies in [0, f + e].  (r+1)M = rM + e iff T_{r+1} = T_r, which
    the window decides, as both hold every integer above f; once the
    identity holds at r it holds at every higher level, since
    (r+2)M = M + (r+1)M = M + rM + e = (r+1)M + e.  It holds by r = e - 1:
    among r+2 >= e+1 partial sums of a representation two agree mod e, and
    the block between them is a multiple of e with at least as many copies
    of e as the summands it replaces.  A sweep past that level raises.
    """
    e = gens[0]
    hard_stop = max(1, e - 1)
    mask = window_mask(limit + e)
    # Every integer above limit - e is a member, so the e above limit are too.
    here, above = bits, (bits & ~1 | ((1 << e) - 1) << limit + 1) >> e
    n = 0
    while True:
        yield here, here & ~(above << e)
        if n and above == here:
            return
        if n == hard_stop:
            raise InternalInconsistency(
                "order filtration did not stabilize by level %d" % hard_stop
            )
        n += 1
        here, above = above, shift_sum(above, gens, mask) >> e


# OrderTable takes the min-plus fill when the window f + e is more than this
# many times e * v.  Each fill timed alone (best of 5, of 3 from e = 200 on;
# Python 3.11, x86) on 5,112 semigroups, the two deck corpora of perfbench seeds 1-2, 300 random
# draws with e = 5..160, 300 sparse ones (one or two generators from
# (e, 3e]), 60 at e = 200 and 400 as in perfbench's wide workload and four
# ladders; the median min-plus time over the bitset time, by ratio
# (f + e) / (e * v), each input's quotient the median of three scans:
#
#   ratio <= 1     2     3     4     5     6     7     8     10    12
#   time     3.01  2.25  1.97  1.80  1.69  1.58  1.52  1.42  1.38  1.24
#   ratio <= 16    18    20    24    28    32    40    48    64    more
#   time     1.13  1.01  0.93  0.89  0.99  0.93  0.69  0.67  0.59  0.30
#
# Between 18 and 20 the inputs whose bitset fill takes under 70 microseconds
# still run 1.1 to 1.2 times as long on the min-plus fill, so the crossover
# is taken at 20.
_MIN_PLUS_ABOVE = 20


def _bitset_fill(S: NumericalSemigroup) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """H(0..r) and C_1..C_r from the level sweep, run on the table's one
    closure of the generators, over [0, f + e].

    Each level n is read off the stratum nM minus (n+1)M, less ne, that
    ``_levels`` yields: H(n) is its size, and C_n, its elements outside
    (n-1)M + e, is the stratum minus T_{n-1} shifted back up by ne; y and
    y + ne share a class, so the shifted stratum folds as it is.  The
    smallest element of nM in a class moves by e at level n iff the stratum
    meets the class: its element x there is that smallest one, as every
    larger member of the class is in (n-1)M + e, inside nM.  So a class
    holds at most one element of each order, and the fill checks that the
    stratum meets as many classes as it has elements.  The stratum is
    folded onto its classes (bit c for class c) in whole-int steps; no
    Python step is taken per class.  At r every class moves, as
    (r+1)M = rM + e, the stop test of ``_levels``.
    """
    e = S.e
    values: list[int] = []
    c_sets: dict[int, tuple[int, ...]] = {}
    below = last = 0
    limit = S.f + e
    for n, (here, stratum) in enumerate(_levels(S.gens, closure_bits(S.gens, limit), limit)):
        if n:
            moved = fold_classes(last, e).bit_count()
            if moved != values[n - 1]:
                raise InternalInconsistency(
                    "%d classes leave level %d, which holds %d elements"
                    % (moved, n - 1, values[n - 1])
                )
            c_sets[n] = bits_to_tuple((stratum & ~below) << n * e)
        values.append(stratum.bit_count())
        below, last = here, stratum
    return values, c_sets


def _min_plus_fill(S: NumericalSemigroup) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """What ``_bitset_fill`` returns, H(0..r) and C_1..C_r, from the columns
    alone, with no window.

    Column n holds the smallest element of nM in each class.  (n+1)M is the
    union of g + nM over the generators g, so column n + 1 is the min over g
    of column n shifted by g: class c takes entry (c - g) % e plus g, and
    g = e adds e in place.  Each class moves by 0 or e, as nM + e is inside
    (n+1)M, itself inside nM, and a class of nM is an upward-closed
    progression from its column entry.  So H(n) is the number of classes
    that move, level n is stable ((n+1)M = nM + e) when all of them do, and
    the entry x of class c is in C_n when its class moves at n but not at
    n - 1.  A move of any other size raises, and so does a sweep past level
    e - 1, as in ``_levels``.

    The recurrence runs on whole columns in the packed format of
    ``_bitset.PackedColumns`` (class c in the w-bit field at bit wc): the
    min with column n shifted by g is one ``min_rotated`` step, with the
    rotation amounts of each generator taken once per fill.  The kernel's
    width holds every value the fill forms: column 0 is the Apery table, a
    level adds at most e to an entry, and the sweep stops by level
    max(1, e - 1) <= e, so an entry is at most max(Ap) + e * e and a
    candidate at most that plus max(gens).  The bound is read off the table
    the fill is given, so it holds for any column 0, checked or not.  Only
    the column of the current level is kept.
    """
    e, gens, apery = S.e, S.gens, S._ap_class
    hard_stop = max(1, e - 1)
    cols = PackedColumns(e, max(apery) + e * e + max(gens))
    min_rotated = cols.min_rotated
    # Column n shifted by e: a rotation by zero fields, plus e in place.
    up = cols.rotation(e)[2]
    rotations = [cols.rotation(g) for g in gens[1:]]
    values: list[int] = []
    c_sets: dict[int, tuple[int, ...]] = {}
    column, before = cols.pack(apery), 0
    n = 0
    while True:
        step = column + up
        for rotation in rotations:
            step = min_rotated(step, column, rotation)
        # Every entry fits its field, so step - column is e times a set of
        # fields (bit wc: class c moves) iff every class moves by 0 or e.
        now, rest = divmod(step - column, e)
        if rest or now & cols.ones != now:
            raise InternalInconsistency(
                "a class moves by other than 0 or e = %d from level %d" % (e, n)
            )
        h = now.bit_count()
        values.append(h)
        if n:
            c_sets[n] = tuple(sorted(cols.read(column, now & ~before)))
            if h == e:
                return values, c_sets
        if n == hard_stop:
            raise InternalInconsistency(
                "order filtration did not stabilize by level %d" % hard_stop
            )
        column, before = step, now
        n += 1


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values H_R(0..stable_at), plus certified tail.

    ``values`` ends at the first index from which every later value equals
    the multiplicity; ``decreasing_levels`` lists the levels l with
    H_R(l) < H_R(l-1).
    """

    values: tuple[int, ...]
    stable_at: int
    decreasing_levels: tuple[int, ...]

    @property
    def is_decreasing(self) -> bool:
        return bool(self.decreasing_levels)

    def value_at(self, n: int) -> int:
        if n < 0:
            raise BadLevel("level %d is negative" % n)
        return self.values[n] if n < len(self.values) else self.values[-1]

    def arrow_text(self) -> str:
        """Render like ``[1,10,9,11,12,13->]``."""
        return "[%s->]" % ",".join(map(str, self.values))


@dataclass(frozen=True)
class FiltrationTables:
    """The sets D_k and C_k through the index where both vanish for good.

    ``d_sets[k]`` = elements of order k-1 whose order jumps past k after
    adding the multiplicity (k >= 2).  ``c_sets[k]`` = order-k elements not
    landed on from (k-1)M (k >= 1; level 1 is the non-multiplicity minimal
    generators).  ``d_split[k][t]`` refines D_k by the landing order t.
    ``k0`` is the least k with D_k nonempty, None when the tangent cone is
    Cohen-Macaulay.  All D_k and C_k with k >= r_stop are empty.
    """

    d_sets: dict[int, tuple[int, ...]]
    c_sets: dict[int, tuple[int, ...]]
    d_split: dict[int, dict[int, tuple[int, ...]]]
    k0: int | None
    r_stop: int


@dataclass(frozen=True)
class AperyStratification:
    """The Apery set partitioned by order.

    ``strata[k]`` lists the Apery elements of order k; ``d`` is the largest
    order present; ``h_r_prime`` is [1, |Ap_1|, ..., |Ap_d|], the Hilbert
    function of the Artinian quotient by the multiplicity element.
    """

    strata: dict[int, tuple[int, ...]]
    d: int
    h_r_prime: tuple[int, ...]

    def size(self, k: int) -> int:
        return len(self.strata.get(k, ()))


class OrderTable:
    """What one fill of the order filtration of S records.

    Per residue class c mod e, ``first[c]`` is the order of the class's
    Apery element ``apery[c]``, and ``runs[c]`` holds a pair (h, t) for each
    y of the class in D_h^t, ascending.  From ``apery[c]`` on, each e added
    is one order more, except from y, of order h - 1, to y + e, of order t:
    the smallest element of the class in hM moves by e at every level from
    ``first[c]`` on but h..t-1, where it stays at y + e.  ``hilbert``,
    ``tables`` and ``apery_strata`` are what ``hilbert_function``,
    ``strata_tables`` and ``apery_strata`` return, and ``stable_from`` is r,
    the first level with (r+1)M = rM + e.

    A fill returns H(0..r) and C_1..C_r, C_n being the elements of order n
    outside (n-1)M + e; ``_bitset_fill`` reads them off the level bitsets,
    ``_min_plus_fill`` off the columns alone (see each), chosen by the
    width of the window against e * v.  Everything after is shared.  An x
    in C_k is the Apery element of its class c, which sets ``first[c]`` = k,
    or y = x - e has order h - 1 < k - 1 and is in D_h^k; then class c
    moves at h - 1, stays at h..k-1 and moves at k, which is the run
    (h, k).  Every y in D_h lands so in C_t, t = ord(y + e) > h, so this
    yields D_h, D_h^t, the Apery strata and the runs.  The levels are read
    in ascending k, so when x is read the Apery element of its class and
    every run of the class that lands below k are in the table, and
    h = ``order(x - e)`` + 1 is exact; a landing with h outside 2..k-1
    raises.  A class holds at most one element of each order, so H(n)
    counts the classes that move at n.  The bitset fill checks that each
    stratum meets as many classes as it has elements, the min-plus fill each
    move against {0, e}; either implies it.  Last, the table is checked
    against H(k) - H(k-1) = |C_k| - |D_k| at every level 2 <= k < r_stop,
    which catches a landing read at the wrong level.
    """

    __slots__ = (
        "e", "apery", "first", "runs", "stable_from", "hilbert", "tables", "apery_strata"
    )

    def __init__(self, S: NumericalSemigroup):
        e, apery = S.e, S._ap_class
        fill = _min_plus_fill if S.f + e > _MIN_PLUS_ABOVE * e * S.v else _bitset_fill
        values, c_sets = fill(S)
        r = len(values) - 1

        # Each y in D_h lands in C_t, t > h: the last nonempty C_k bounds D_h.
        r_stop = max((k + 1 for k, v in c_sets.items() if v), default=2)
        apery_parts: dict[int, list[int]] = {}  # k -> Apery elements of order k
        landings: dict[int, dict[int, list[int]]] = {h: {} for h in range(2, r_stop)}
        self.e, self.apery = e, apery
        self.first = first = [0] * e
        # A tuple per class, so a class with no run reads one empty tuple.
        self.runs = runs = [()] * e
        for k in range(1, r_stop):
            for x in c_sets[k]:
                c = x % e
                if apery[c] == x:
                    apery_parts.setdefault(k, []).append(x)
                    first[c] = k
                    continue
                h = self.order(x - e) + 1
                if not 2 <= h < k:
                    raise InternalInconsistency("%d in C_%d is not a landing" % (x, k))
                landings[h].setdefault(k, []).append(x - e)
                runs[c] += ((h, k),)
        c_sets = {k: c_sets[k] for k in range(1, r_stop)}
        d_sets: dict[int, tuple[int, ...]] = dict.fromkeys(landings, ())
        d_split: dict[int, dict[int, tuple[int, ...]]] = {}
        for h, split in landings.items():
            if split:
                d_sets[h] = tuple(sorted(y for part in split.values() for y in part))
                d_split[h] = {t: tuple(part) for t, part in split.items()}
        k0 = min(d_split, default=None)
        # H_R(n) = e on the computed tail; past r it follows from
        # (r+1)M = rM + e, which the sweep checked.
        for n in range(r_stop - 1, r + 1):
            if values[n] != e:
                raise InternalInconsistency("H_R(%d) = %d != e" % (n, values[n]))
        stable_at = r_stop - 1
        while stable_at > 0 and values[stable_at - 1] == e:
            stable_at -= 1
        decreasing = tuple(l for l in range(1, r_stop) if values[l] < values[l - 1])

        d = max(apery_parts, default=0)
        strata = {k: tuple(apery_parts.get(k, ())) for k in range(1, d + 1)}
        if sum(len(v) for v in strata.values()) + 1 != e:
            raise InternalInconsistency("Apery strata sizes do not sum to e")
        profile = (1,) + tuple(len(strata[k]) for k in range(1, d + 1))
        # M \ 2M is the minimal generating set, so a non-minimal S fails here.
        if values[1] != S.v:
            raise InternalInconsistency("H_R(1) = %d != v = %d" % (values[1], S.v))
        for k in range(2, r_stop):
            delta, sizes = values[k] - values[k - 1], len(c_sets[k]) - len(d_sets[k])
            if delta != sizes:
                raise InternalInconsistency(
                    "delta mismatch at level %d: %d vs %d" % (k, delta, sizes)
                )

        self.stable_from = r
        self.hilbert = HilbertProfile(tuple(values[: stable_at + 1]), stable_at, decreasing)
        self.tables = FiltrationTables(d_sets, c_sets, d_split, k0, r_stop)
        self.apery_strata = AperyStratification(strata, d, profile)

    def order(self, s: int) -> int:
        """ord(s) for a member s (no membership check here).

        s is ``apery[c] + q * e`` in its class c, and ord(s) is
        ``first[c] + q`` plus t - h for each run (h, t) of the class that
        starts at or below the order reached so far.
        """
        e = self.e
        c = s % e
        k = self.first[c] + (s - self.apery[c]) // e
        for h, t in self.runs[c]:
            if h > k:
                break
            k += t - h
        return k


def order_table(S: NumericalSemigroup) -> OrderTable:
    """The order table of S, computed on first use and kept on S."""
    table = S._order_table
    if table is None:
        table = OrderTable(S)
        object.__setattr__(S, "_order_table", table)
    return table


def order_of(S: NumericalSemigroup, s: int) -> int:
    """Largest h with s in hM; 0 exactly for s = 0."""
    if s < 0 or not S.contains(s):
        raise NotMember("%d is not in %r" % (s, S))
    return order_table(S).order(s)


@dataclass(frozen=True)
class MaximalRepresentation:
    """A generator combination of maximal coefficient sum.

    ``coeffs`` aligns with ``gens`` (ascending); the coefficient sum equals
    the order of ``value``.  A record built by hand, or by
    ``dataclasses.replace``, is checked once, when it is made, by
    ``_check_record``; those of ``maximal_representations`` hold the rule
    by construction.  The reads trust every record they are given.
    """

    gens: tuple[int, ...]
    coeffs: tuple[int, ...]
    value: int
    order: int

    def __post_init__(self):
        _check_record(self)

    def support(self) -> tuple[int, ...]:
        """Generators used, including the multiplicity when it appears."""
        return tuple(g for g, c in zip(self.gens, self.coeffs) if c)

    def apery_support(self) -> tuple[int, ...]:
        """Generators used, not counting the multiplicity."""
        return tuple(g for g, c in zip(self.gens[1:], self.coeffs[1:]) if c)


def _maximal_coeffs(S: NumericalSemigroup, s: int) -> tuple[int, list[tuple[int, ...]]]:
    """(ord(s), the coefficient vectors of s with that sum, sorted).

    The descent fixes the coefficients from the largest generator down.  It
    skips the generators g with g + (cnt - 1) * e > rem, which no sum of cnt
    generators to rem can use, and tries only the counts t of the next one
    that leave a remainder the cnt - t smaller generators can make: between
    (cnt - t) * e and (cnt - t) * gens[idx - 1].  The last two, e and
    gens[1], are then forced: t * gens[1] + (cnt - t) * e = rem has at most
    one solution.
    """
    k = order_of(S, s)
    gens = S.gens
    if len(gens) == 1:  # <1>: s = k * 1
        return k, [(k,)]
    e, g1 = gens[0], gens[1]
    found: list[tuple[int, ...]] = []
    coeffs = [0] * len(gens)

    def descend(idx: int, rem: int, cnt: int) -> None:
        idx = bisect_right(gens, rem - (cnt - 1) * e, 0, idx + 1) - 1
        if idx <= 1:  # e and gens[1] are left, or e alone (then t = 0)
            t, r = divmod(rem - cnt * e, g1 - e)
            if not r and 0 <= t <= cnt:
                coeffs[0], coeffs[1] = cnt - t, t
                found.append(tuple(coeffs))
            return
        g, lower = gens[idx], gens[idx - 1]
        top = min(cnt, (rem - cnt * e) // (g - e))
        low = max(0, -((cnt * lower - rem) // (g - lower)))
        for t in range(top, low - 1, -1):
            coeffs[idx] = t
            descend(idx - 1, rem - t * g, cnt - t)
        coeffs[idx] = 0

    descend(len(gens) - 1, s, k)
    if not found:
        raise InternalInconsistency("no representation of %d at order %d" % (s, k))
    found.sort()
    return k, found


def maximal_representations(
    S: NumericalSemigroup, s: int
) -> list[MaximalRepresentation]:
    """All coefficient vectors of coefficient sum ord(s), lexicographic order.

    The enumeration goes from the largest generator down.  It visits only
    the generators that fit in what is left to make, and only their counts
    that leave a remainder the smaller generators can make with the
    coefficients left; the counts of e and gens[1] then follow from one
    division.  Raises NotMember when s is not in S.

    The records skip the check a hand-built one gets, since each holds the
    rule by construction: ``gens`` is ``S.gens``, validated and strictly
    ascending; the descent gives one non-negative count per generator; and
    the counts sum to ``cnt = ord(s)``.
    """
    k, found = _maximal_coeffs(S, s)
    return [_record(S.gens, c, s, k) for c in found]


def _record(
    gens: tuple[int, ...], coeffs: tuple[int, ...], value: int, order: int
) -> MaximalRepresentation:
    """A MaximalRepresentation made without ``__post_init__``'s check."""
    rep = object.__new__(MaximalRepresentation)
    rep.__dict__.update(gens=gens, coeffs=coeffs, value=value, order=order)
    return rep


@dataclass(frozen=True)
class SupportInfo:
    """Support data of an element across all its maximal representations.

    ``size`` is the largest number of distinct generators appearing in one
    maximal representation, the multiplicity included when used.  Elements
    of the sets C_k (k >= 2) never use the multiplicity, so there the count
    agrees with the support over non-multiplicity generators.
    """

    size: int
    per_rep_supports: tuple[tuple[int, ...], ...]


def support_size(S: NumericalSemigroup, s: int) -> SupportInfo:
    """The supports of the maximal representations of s, in the order of
    ``maximal_representations``, and the size of the largest.

    Raises NotMember when s is not in S.
    """
    _, found = _maximal_coeffs(S, s)
    supports = tuple(tuple(compress(S.gens, c)) for c in found)
    return SupportInfo(max(map(len, supports)), supports)


def _check_record(rep: MaximalRepresentation) -> None:
    """Raise ConstraintViolation unless ``rep`` is a record of the kind
    ``maximal_representations`` makes: one non-negative coefficient per
    generator, coefficients that sum to its order, and generators that
    strictly ascend.  Its value is taken as given.  It runs once per record,
    when a record is built other than by ``maximal_representations``."""
    gens, coeffs = rep.gens, rep.coeffs
    if len(coeffs) != len(gens) or coeffs and min(coeffs) < 0:
        raise ConstraintViolation("coefficients %r do not count %r" % (coeffs, gens))
    total = sum(coeffs)
    if total != rep.order:
        raise ConstraintViolation(
            "representation coefficients sum to %d, not its order %d" % (total, rep.order)
        )
    if any(map(ge, gens, gens[1:])):
        raise ConstraintViolation("generators %r do not strictly ascend" % (gens,))


def induced_elements(rep: MaximalRepresentation, h: int) -> list[int]:
    """Values of all sub-combinations of ``rep`` with coefficient sum h.

    Every induced element has order exactly h.  The enumeration visits only
    the support of ``rep``, from its largest generator down, and only the
    counts that leave a number the smaller ones can take; the last two
    generators of the support then give an arithmetic progression of
    values, one per count of the larger, and a two-generator support is
    that one progression.  ``rep`` is not checked here: a record holds the
    rule from when it is made (``MaximalRepresentation``).  Raises BadLevel
    unless h is an int (not a bool) in [0, ord].
    """
    if not isinstance(h, int) or isinstance(h, bool):
        raise BadLevel("level %r is not an integer" % (h,))
    if h < 0 or h > rep.order:
        raise BadLevel("level %d not in [0, %d]" % (h, rep.order))
    if h == 0:
        return [0]
    gens = tuple(compress(rep.gens, rep.coeffs))
    coeffs = [c for c in rep.coeffs if c]
    if len(gens) == 1:
        return [h * gens[0]]
    if len(gens) == 2:
        # t copies of gens[1] and h - t of gens[0]; gens[0] < gens[1].
        step = gens[1] - gens[0]
        base = h * gens[0]
        low, top = max(0, h - coeffs[0]), min(coeffs[1], h)
        return list(range(base + low * step, base + top * step + 1, step))
    below = [0, *accumulate(coeffs)]  # below[i]: the coefficient sum of gens[:i]
    values: set[int] = set()

    def descend(idx: int, left: int, acc: int) -> None:
        g = gens[idx]
        top = min(coeffs[idx], left)
        low = max(0, left - below[idx])
        if idx == 1:
            # t copies of g and left - t of gens[0], for t = low .. top.
            step = g - gens[0]
            base = acc + left * gens[0]
            values.update(range(base + low * step, base + top * step + 1, step))
            return
        for t in range(top, low - 1, -1):
            descend(idx - 1, left - t, acc + t * g)

    descend(len(gens) - 1, h, 0)
    return sorted(values)


def apery_strata(S: NumericalSemigroup) -> AperyStratification:
    return order_table(S).apery_strata

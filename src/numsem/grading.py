"""The order filtration: ord, maximal representations, supports, strata.

For a semigroup element s, ord(s) is the largest h such that s is a sum of
h nonzero elements; equivalently the largest coefficient sum over all ways
of writing s in the generators.  With M the nonzero elements, the sets
hM = {s : ord(s) >= h} form the order filtration.

One fill per semigroup records the filtration up to the first level r with
(r+1)M = rM + e.  From that level on, adding the multiplicity is a
bijection between consecutive strata, so the fill has seen all there is.
It records the Hilbert function, the sets C_k and, at each level h <= r,
the classes mod e that stall there.  The smallest element of hM in a class
moves by e a level from the order of the class's Apery element on, except
through one run of levels h..t-1 for each y of the class in D_h^t (y has
order h - 1 and y + e order t).  C_k is the order-k Apery elements plus
the landings D_h^k + e, h < k, which gives D_k, D_k^t and the Apery
strata; per class, the first move and the stall runs are the Apery table
of the filtration (Cortadellas Benitez and Zarzuela Armengou, J. Algebra
328, 2011).  ``order_table`` keeps them on the semigroup; ``order_of`` is a
lookup in them.

Two fills produce the same record, and neither keeps a level's column of
smallest elements past that level.  The bitset fill sweeps the levels hM,
each shifted down by he, as bitsets on the table's one window [0, f + e],
a few at a time, and the classes that move at a level are its stratum
folded mod e.
The min-plus fill derives each column from the one before with no window,
on the column packed as one int with a 32-bit field per class: a level is
v - 1 rotations of it and field-wise mins, each a whole-int operation, and
the classes that move are the fields that grow.  No field overflows or
borrows into the next, as ``ResourceLimit`` keeps every column entry below
2**25 and every min-plus candidate below 2**26, far below the top bit
2**31 of a field.  The table takes the min-plus fill when the window f + e
is more than ``_MIN_PLUS_ABOVE`` times e * v (the two-generator ladders,
whose windows are about e**2 bits, and other very sparse semigroups), and
the bitset fill otherwise; each is the other's differential twin in the
tests.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterator

from ._bitset import bits_to_tuple, closure_bits, fold_classes, shift_sum, window_mask
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
# (f + e) / (e * v):
#
#   ratio <= 1     2     3     4     5     6     7     8     10    12
#   time     2.40  1.85  1.64  1.52  1.43  1.37  1.35  1.30  1.26  1.26
#   ratio <= 16    20    24    28    32    40    48    64    more
#   time     1.25  1.12  1.00  0.93  0.81  0.71  0.63  0.58  0.45
_MIN_PLUS_ABOVE = 24


def _pack(column: array) -> int:
    """A column as one int with a 32-bit field a class: class c in bits
    32c..32c+31."""
    return int.from_bytes(struct.pack("<%di" % len(column), *column), "little")


def _bitset_fill(S: NumericalSemigroup) -> tuple[list[int], list[int], dict]:
    """The stalls at levels 0..r, H(0..r) and C_1..C_r from the level sweep,
    run on the table's one closure of the generators, over [0, f + e].

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
    Python step is taken per class.  A class stalls at n when it moved at a
    level below n but does not move at n.  At r every class moves, as
    (r+1)M = rM + e, the stop test of ``_levels``.
    """
    e = S.e
    stalls: list[int] = []
    values: list[int] = []
    c_sets: dict[int, tuple[int, ...]] = {}
    started = below = last = 0
    limit = S.f + e
    for n, (here, stratum) in enumerate(_levels(S.gens, closure_bits(S.gens, limit), limit)):
        if n:
            moved = fold_classes(last, e)
            if moved.bit_count() != values[n - 1]:
                raise InternalInconsistency(
                    "%d classes leave level %d, which holds %d elements"
                    % (moved.bit_count(), n - 1, values[n - 1])
                )
            started |= moved
            stalls.append(started ^ moved)
            c_sets[n] = bits_to_tuple((stratum & ~below) << n * e)
        values.append(stratum.bit_count())
        below, last = here, stratum
    stalls.append(0)
    return stalls, values, c_sets


def _min_plus_fill(S: NumericalSemigroup) -> tuple[list[int], list[int], dict]:
    """What ``_bitset_fill`` returns, from the columns alone, with no window,
    the stall of class c at bit 32c.

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

    The recurrence runs on whole columns, each one int with a 32-bit field
    a class (class c in bits 32c..32c+31): a shift by g is a rotation of the
    fields by g mod e plus g in every field, and the min of two columns is
    one borrow test of all fields at once.  No field overflows or borrows
    into the next: ``ResourceLimit`` keeps e * max(gens) <= 2**24, so an
    Apery element is at most (e-1) * max(gens) + 1 <= 2**24, a column entry
    at most that plus (e-1) * e < 2**25, and a candidate at most that plus a
    generator < 2**26, below the top bit 2**31 of a field; a field with its
    top bit set minus another field never goes below 0.  Only the column of
    the current level is kept.
    """
    e, gens = S.e, S.gens
    hard_stop = max(1, e - 1)
    mask = (1 << 32 * e) - 1
    ones = mask // 0xFFFF_FFFF  # 1 in every field
    high = ones << 31  # the top bit of every field
    up = e * ones  # e in every field
    # Column n shifted by g is its rotation left by g mod e fields, plus g.
    shifts = [(32 * (g % e), 32 * (e - g % e), g * ones) for g in gens[1:]]
    stalls: list[int] = []
    values: list[int] = []
    c_sets: dict[int, tuple[int, ...]] = {}
    column, before, started = _pack(S._ap_class), 0, 0
    n = 0
    while True:
        step = column + up
        for left, right, plus in shifts:
            b = ((column << left) & mask | column >> right) + plus
            # The top bit of a field survives the subtraction iff step >= b there.
            t = ((step | high) - b) & high
            step ^= (step ^ b) & ((t >> 31) * 0xFFFF_FFFF)
        # Every entry fits its field, so step - column is e times a set of
        # fields (bit 32c: class c moves) iff every class moves by 0 or e.
        now, rest = divmod(step - column, e)
        if rest or now & ones != now:
            raise InternalInconsistency(
                "a class moves by other than 0 or e = %d from level %d" % (e, n)
            )
        h = now.bit_count()
        values.append(h)
        # The classes that moved below n and do not move at n.
        started |= now
        stalls.append(started ^ now)
        if n:
            c_sets[n] = tuple(
                sorted(column >> p & 0xFFFF_FFFF for p in bits_to_tuple(now & ~before))
            )
            if h == e:
                return stalls, values, c_sets
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
    ``first[c]`` on but h..t-1, where it stalls at y + e.  ``hilbert``,
    ``tables`` and ``apery_strata`` are what ``hilbert_function``,
    ``strata_tables`` and ``apery_strata`` return, and ``stable_from`` is r,
    the first level with (r+1)M = rM + e.

    A fill returns the classes that stall at levels 0..r (class c at bit c
    times a stride of 1 or 32), H(0..r) and C_1..C_r, C_n being the
    elements of order n outside (n-1)M + e; ``_bitset_fill`` reads them off
    the level bitsets, ``_min_plus_fill`` off the columns alone (see each),
    chosen by the width of the window against e * v.  Everything after is
    shared.  An x in C_k is the Apery element of its class c, which sets
    ``first[c]`` = k, or y = x - e has order h - 1 < k - 1 and is in D_h^k;
    then class c moves at h - 1, stalls at h..k-1 and moves at k, which is
    the run (h, k).  Every y in D_h lands so in C_t, t = ord(y + e) > h, so
    this yields D_h, D_h^t, the Apery strata and the runs.  Each run is
    checked against the stalls: it ends at level k, where its class moves,
    and it starts at a level h, 2 <= h < k, after a move, so every C_k
    element that is not an Apery element ends a run; one that does not
    raises.  A class holds at most one element of each order, so H(n)
    counts the classes that move at n.  The bitset fill checks that each
    stratum meets as many classes as it has elements, the min-plus fill each
    move against {0, e}; either implies it.
    """

    __slots__ = (
        "e", "apery", "first", "runs", "stable_from", "hilbert", "tables", "apery_strata"
    )

    def __init__(self, S: NumericalSemigroup):
        e, apery = S.e, S._ap_class
        if S.f + e > _MIN_PLUS_ABOVE * e * S.v:
            stride, (stalls, values, c_sets) = 32, _min_plus_fill(S)
        else:
            stride, (stalls, values, c_sets) = 1, _bitset_fill(S)
        r = len(values) - 1

        # Each y in D_h lands in C_t, t > h: the last nonempty C_k bounds D_h.
        r_stop = max((k + 1 for k, v in c_sets.items() if v), default=2)
        apery_parts: dict[int, list[int]] = {}  # k -> Apery elements of order k
        landings: dict[int, dict[int, list[int]]] = {h: {} for h in range(2, r_stop)}
        first = [0] * e
        # A tuple per class, so a class with no run reads one empty tuple.
        runs: list[tuple[tuple[int, int], ...]] = [()] * e
        for k in range(1, r_stop):
            for x in c_sets[k]:
                c = x % e
                if apery[c] == x:
                    apery_parts.setdefault(k, []).append(x)
                    first[c] = k
                    continue
                # stalls[0] is empty, so the walk stops at h >= 1.
                p, h = c * stride, k
                while stalls[h - 1] >> p & 1:
                    h -= 1
                if h == k or h < 2 or stalls[k] >> p & 1:
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

        self.e = e
        self.apery = apery
        self.first = first
        self.runs = runs
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

    def column(self, h: int) -> list[int]:
        """The smallest element of hM in each class mod e, h >= 0."""
        e, out = self.e, []
        for x, k, runs in zip(self.apery, self.first, self.runs):
            for start, end in runs:
                if h < start:
                    break
                x, k = x + (start - k) * e, end
            out.append(x + max(h - k, 0) * e)
        return out

    def ord_map(self, limit: int) -> dict[int, int]:
        """{s: ord(s)} for every member s in [0, limit]."""
        apery = self.apery
        return {s: self.order(s) for s in range(limit + 1) if s >= apery[s % self.e]}


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
    the order of ``value``.
    """

    gens: tuple[int, ...]
    coeffs: tuple[int, ...]
    value: int
    order: int

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
    """
    k, found = _maximal_coeffs(S, s)
    return [MaximalRepresentation(S.gens, c, s, k) for c in found]


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


def induced_elements(rep: MaximalRepresentation, h: int) -> list[int]:
    """Values of all sub-combinations of ``rep`` with coefficient sum h.

    Every induced element has order exactly h.  The enumeration visits only
    the support of ``rep``, from its largest generator down, and only the
    counts that leave a number the smaller ones can take; the last two
    generators of the support then give an arithmetic progression of
    values, one per count of the larger.  Raises ConstraintViolation when
    the coefficients of ``rep`` do not sum to its order; its value is taken
    as given.
    """
    if h < 0 or h > rep.order:
        raise BadLevel("level %d not in [0, %d]" % (h, rep.order))
    if h == 0:
        return [0]
    gens = tuple(compress(rep.gens, rep.coeffs))
    coeffs = [c for c in rep.coeffs if c]
    below = [0, *accumulate(coeffs)]  # below[i]: the coefficient sum of gens[:i]
    if below[-1] != rep.order:
        raise ConstraintViolation(
            "representation coefficients sum to %d, not its order %d" % (below[-1], rep.order)
        )
    if len(gens) == 1:
        return [h * gens[0]]
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

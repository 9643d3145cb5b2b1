"""The order filtration: ord, maximal representations, supports, strata.

For a semigroup element s, ord(s) is the largest h such that s is a sum of
h nonzero elements; equivalently the largest coefficient sum over all ways
of writing s in the generators.  The sets hM = {s : ord(s) >= h} are kept as
bitsets: level h+1 is the union over generators g of (level h) + g, a few
shift/OR operations per level.

The table also locates the first level r at which (r+1)M = rM + e.  From
that level on, adding the multiplicity is a bijection between consecutive
strata, which certifies that every downstream table is complete.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ._bitset import bits_to_tuple, shift_sum, window_mask
from .core import NumericalSemigroup
from .errors import BadLevel, InternalInconsistency, NotMember

__all__ = [
    "AperyStratification",
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


class OrderTable:
    """Bitsets of the sets hM over a shared window [0, limit].

    Grown on demand: asking for a level (or for the order of a large element)
    rebuilds the window with doubling, so repeated queries stay cheap.  The
    table is append-only after construction and safe for concurrent reads.
    """

    def __init__(self, S: NumericalSemigroup):
        self.S = S
        self._levels: list[int] = []
        self._limit = -1
        self._stable_from: int | None = None
        self._lock = threading.Lock()
        self._require(2)

    @property
    def horizon(self) -> int:
        return self._limit

    def _require(self, levels: int, value: int = 0) -> tuple[list[int], int]:
        """Ensure levels 0..levels exist and the window covers ``value``.

        Returns (level list, window mask).  A rebuild swaps in a complete
        replacement list at least as long as the old one, so a snapshot
        obtained here stays valid for concurrent readers.
        """
        S = self.S
        need = max(S.f + (levels + 2) * S.e, value + S.e, 3 * S.e)
        with self._lock:
            if need > self._limit:
                levels = max(levels, len(self._levels) - 1)
                limit = max(need, 2 * self._limit, S.f + (levels + 8) * S.e)
                mask = window_mask(limit)
                base = S.members_upto(limit)
                fresh = [base, base & ~1]
                while len(fresh) <= levels:
                    fresh.append(shift_sum(fresh[-1], S.gens, mask))
                self._levels = fresh
                self._limit = limit
            else:
                mask = window_mask(self._limit)
                while len(self._levels) <= levels:
                    self._levels.append(shift_sum(self._levels[-1], S.gens, mask))
            return self._levels, mask

    def snapshot(self, levels: int) -> tuple[list[int], int]:
        """A coherent (levels, mask) view covering levels 0..levels."""
        return self._require(levels)

    def level(self, h: int) -> int:
        """Bitset of hM over the current window."""
        levels = self._levels
        if h >= len(levels):
            levels, _ = self._require(h)
        return levels[h]

    def stratum(self, h: int) -> int:
        """Bitset of the elements of order exactly h."""
        levels, _ = self._require(h + 1)
        return levels[h] & ~levels[h + 1]

    def by_order(self, bits: int, h: int = 1) -> dict[int, int]:
        """Split a subset of hM by order: {order: bitset of that order}.

        Nonempty parts only, in increasing order; one intersection per level.
        """
        parts: dict[int, int] = {}
        while bits:
            above = self.level(h + 1)
            if here := bits & ~above:
                parts[h] = here
            bits &= above
            h += 1
        return parts

    def order(self, s: int) -> int:
        """ord(s) for a member s (no membership check here)."""
        if s == 0:
            return 0
        levels, _ = self._require(2, value=s)
        h = 1
        while True:
            if h + 1 >= len(levels):
                levels, _ = self._require(h + 1)
            if not (levels[h + 1] >> s) & 1:
                return h
            h += 1

    def ord_map(self, limit: int) -> dict[int, int]:
        """{s: ord(s)} for every member s in [0, limit]."""
        members = self.S.members_upto(limit)
        return {s: self.order(s) for s in range(limit + 1) if (members >> s) & 1}

    @property
    def stable_from(self) -> int:
        """Least r >= 1 with (r+1)M = rM + e.

        The check is a window comparison, valid because any element above
        f + (r+1)e of order > r keeps order >= r when e is subtracted; once
        the identity holds at r it holds at every higher level, since
        (r+2)M = M + (r+1)M = M + rM + e = (r+1)M + e.  It always holds by
        r = e - 1: among r+2 >= e+1 partial sums of a representation two
        agree mod e, and the block between them is a multiple of e with at
        least as many copies of e as the summands it replaces.
        """
        if self._stable_from is None:
            S = self.S
            hard_stop = max(1, S.e - 1)
            r = 1
            while True:
                levels, mask = self._require(r + 1)
                if levels[r + 1] == (levels[r] << S.e) & mask:
                    self._stable_from = r
                    break
                r += 1
                if r > hard_stop:
                    raise InternalInconsistency(
                        "order filtration did not stabilize by level %d" % hard_stop
                    )
        return self._stable_from


def order_table(S: NumericalSemigroup) -> OrderTable:
    """The (cached) order table of S."""
    return S._memo("order_table", lambda: OrderTable(S))


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


def maximal_representations(
    S: NumericalSemigroup, s: int
) -> list[MaximalRepresentation]:
    """All coefficient vectors of coefficient sum ord(s), lexicographic order."""
    k = order_of(S, s)
    gens = S.gens
    n = len(gens)
    if s == 0:
        return [MaximalRepresentation(gens, (0,) * n, 0, 0)]
    found: list[tuple[int, ...]] = []
    coeffs = [0] * n

    def descend(idx: int, rem: int, cnt: int) -> None:
        g = gens[idx]
        if idx == 0:
            if rem == cnt * g:
                coeffs[0] = cnt
                found.append(tuple(coeffs))
                coeffs[0] = 0
            return
        lower_max = gens[idx - 1]
        lower_min = gens[0]
        for t in range(min(rem // g, cnt), -1, -1):
            rem2 = rem - t * g
            cnt2 = cnt - t
            if rem2 > cnt2 * lower_max:
                break  # t smaller only makes rem2 larger
            if rem2 < cnt2 * lower_min:
                continue
            coeffs[idx] = t
            descend(idx - 1, rem2, cnt2)
            coeffs[idx] = 0

    descend(n - 1, s, k)
    if not found:
        raise InternalInconsistency("no representation of %d at order %d" % (s, k))
    found.sort()
    return [MaximalRepresentation(gens, c, s, k) for c in found]


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
    reps = maximal_representations(S, s)
    supports = tuple(r.support() for r in reps)
    return SupportInfo(max(len(sup) for sup in supports), supports)


def induced_elements(rep: MaximalRepresentation, h: int) -> list[int]:
    """Values of all sub-combinations of ``rep`` with coefficient sum h.

    Every induced element has order exactly h.
    """
    if h < 0 or h > rep.order:
        raise BadLevel("level %d not in [0, %d]" % (h, rep.order))
    gens = rep.gens
    coeffs = rep.coeffs
    n = len(gens)
    values: set[int] = set()

    def descend(idx: int, left: int, acc: int) -> None:
        if left == 0:
            values.add(acc)
            return
        if idx < 0:
            return
        tail = sum(coeffs[: idx + 1])
        if tail < left:
            return
        top = min(coeffs[idx], left)
        for t in range(top, -1, -1):
            descend(idx - 1, left - t, acc + t * gens[idx])

    descend(n - 1, h, 0)
    return sorted(values)


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


def apery_strata(S: NumericalSemigroup) -> AperyStratification:
    return S._memo("apery_strata", lambda: _compute_strata(S))


def _compute_strata(S: NumericalSemigroup) -> AperyStratification:
    parts = order_table(S).by_order(S._apery_bits() & ~1)
    d = max(parts, default=0)
    strata = {k: bits_to_tuple(parts.get(k, 0)) for k in range(1, d + 1)}
    profile = (1,) + tuple(len(strata[k]) for k in range(1, d + 1))
    if sum(len(v) for v in strata.values()) + 1 != S.e:
        raise InternalInconsistency("Apery strata sizes do not sum to e")
    return AperyStratification(strata, d, profile)

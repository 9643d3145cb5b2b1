"""Core numerical semigroup arithmetic.

A numerical semigroup is a cofinite additive submonoid of the naturals,
identified with its unique minimal generating set.  The smallest nonzero
element is the multiplicity e, the number of minimal generators is the
embedding dimension v, and the largest integer outside the semigroup is the
Frobenius number f.

A semigroup keeps only its Apery table: the Apery element of each residue
class mod e.  Construction grows the generators' closure one at a time over
[0, 2*max(gens)], which is the minimality test; one tail then doubles that
window until it holds f + e (at most max(e-1, 2)*max(gens) bits), reads f
and the Apery table off it, and drops it.  ``_from_closure`` enters that
tail with a caller's closure (a search leaf, a corpus draw).  Membership,
gaps and genus are read off the table, with no window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._bitset import (
    add_generator,
    class_table,
    frobenius_window,
    largest_missing,
    window_mask,
)
from .errors import (
    EmptyGenerators,
    GcdNotOne,
    InternalInconsistency,
    InvalidGenerator,
    NonMinimal,
    ResourceLimit,
)

__all__ = [
    "AperySet",
    "NumericalSemigroup",
    "apery",
    "build",
    "contains",
    "frobenius",
    "gaps",
    "parse_generators",
]

# max(e, 2) * max(gens) bounds every window the package allocates: the
# construction closure, at most max(e-1, 2) * max(gens) bits, is dropped once
# the Apery table is read off it.  The level sweep runs on a closure that
# holds f + e, the order table's over [0, f + e] or a search leaf's, which
# ``frobenius_window`` grows from [0, bound] to at most the construction
# closure's width (the search refuses e * bound past the budget); no level's
# window is wider than its closure's plus e.  The cached order table keeps two
# entries a class and a pair a stall run; its fill keeps H and C_n and no
# per-level set, and the min-plus fill holds one column of w * e bits, its
# field width w derived from the Apery table, not from this budget.
_WINDOW_BUDGET = 1 << 24


def parse_generators(text: str) -> list[int]:
    """Parse a comma-separated list of positive integers, e.g. ``"13,19,24"``."""
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise EmptyGenerators("no generators in %r" % text)
    gens = []
    for item in items:
        try:
            value = int(item)
        except ValueError:
            raise InvalidGenerator("not an integer: %r" % item) from None
        gens.append(value)
    return gens


@dataclass(frozen=True)
class AperySet:
    """The e smallest semigroup elements, one per residue class mod e.

    Equivalently the members s with s - e outside the semigroup.  Contains 0
    and e + f; its maximum is e + f.
    """

    elems: tuple[int, ...]

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __contains__(self, x: int) -> bool:
        return x in self.elems


class NumericalSemigroup:
    """A numerical semigroup given by its minimal generators.

    The constructor validates the generator list: it must be non-empty,
    positive, have gcd 1, and be minimal (no generator representable by the
    others).  Instances are immutable.  An instance keeps its Apery table,
    built with it; the closure it is read off is dropped.  The order table
    (``grading.order_table``) is computed on first use and cached.  A search
    hit instead keeps only the Hilbert profile its proof read off a full,
    uncached order table (``_hilbert``; None otherwise).  Pickling and
    copying rebuild from the generators, with every check and without either.
    """

    __slots__ = ("gens", "e", "v", "f", "_ap_class", "_order_table", "_hilbert")

    def __init__(self, gens: Iterable[int]):
        raw = list(gens)
        if not raw:
            raise EmptyGenerators("generator list is empty")
        for g in raw:
            if not isinstance(g, int) or isinstance(g, bool) or g <= 0:
                raise InvalidGenerator("generator %r is not a positive integer" % (g,))
        e, top = min(raw), max(raw)
        if e * top > _WINDOW_BUDGET:
            raise ResourceLimit(
                "multiplicity %d times largest generator %d exceeds the window budget %d"
                % (e, top, _WINDOW_BUDGET)
            )
        ordered = sorted(raw)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise NonMinimal("generator %d appears twice" % a)
        common = math.gcd(*ordered)
        if common != 1:
            raise GcdNotOne("gcd of %s is %d" % (ordered, common))
        # The first to fail the ascending fold is the smallest redundant one.
        bits = 1
        for g in ordered:
            bits = add_generator(bits, 0, g, 2 * top)
            if not bits:
                raise NonMinimal("generator %d is a sum of the others" % g)
        self._settle(tuple(ordered), bits, 2 * top)

    @classmethod
    def _from_closure(cls, gens: tuple[int, ...], bits: int, limit: int) -> NumericalSemigroup:
        """The semigroup of ``gens``, ascending, minimal and of gcd 1, from
        their closure ``bits``, exact over [0, limit >= max(gens)]."""
        S = object.__new__(cls)
        S._settle(gens, bits, limit)
        return S

    def _settle(self, gens: tuple[int, ...], bits: int, limit: int) -> None:
        """Grow the closure ``bits`` of ``gens``, exact over [0, limit], to
        hold f + e; read, check and set f and the Apery table."""
        e = gens[0]
        bits, cutoff = frobenius_window(bits, gens, limit)
        f = largest_missing(bits, cutoff)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "v", len(gens))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_order_table", None)
        object.__setattr__(self, "_hilbert", None)
        # The Apery set is the members s with s - e outside.  The theorems
        # that pin it down: e elements, one per class, 0 and maximum f + e.
        column = bits & ~(bits << e) & window_mask(f + e)
        ap_class = class_table(column, e)
        if (
            column.bit_count() != e
            or not column & 1
            or ap_class[0]
            or ap_class.count(0) != 1
            or column.bit_length() != f + e + 1
        ):
            raise InternalInconsistency(
                "Apery set of %r is not e = %d elements, one per class, from 0 to f + e"
                % (self, e)
            )
        object.__setattr__(self, "_ap_class", ap_class)

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

    def __delattr__(self, name):
        raise AttributeError("NumericalSemigroup is immutable")

    def __reduce__(self):
        return NumericalSemigroup, (self.gens,)

    # -- membership --------------------------------------------------------

    def contains(self, s: int) -> bool:
        """Membership test in O(1), with no window.

        The members of a residue class mod e are its Apery element w and
        w + e, w + 2e, ..., so s is a member iff s >= w.  Negative integers
        fall below every Apery element and are never members.
        """
        return s >= self._ap_class[s % self.e]

    __contains__ = contains

    # -- classical invariants ----------------------------------------------

    def frobenius(self) -> int:
        """Largest integer outside the semigroup (-1 when the semigroup is N)."""
        return self.f

    def apery(self) -> AperySet:
        """Apery set with respect to the multiplicity."""
        return AperySet(tuple(sorted(self._ap_class)))

    def gaps(self) -> set[int]:
        """The finite complement of the semigroup in the naturals: in each
        residue class, the integers below its Apery element."""
        e = self.e
        return {x for c, w in enumerate(self._ap_class) for x in range(c, w, e)}

    def genus(self) -> int:
        """Number of gaps, by Selmer's formula g = (sum(Ap) - e(e-1)/2) / e
        (Rosales and Garcia-Sanchez, Numerical Semigroups, 2009, Prop. 2.12)."""
        e = self.e
        return (sum(self._ap_class) - e * (e - 1) // 2) // e

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, NumericalSemigroup) and self.gens == other.gens

    def __hash__(self) -> int:
        return hash(self.gens)

    def __repr__(self) -> str:
        return "NumericalSemigroup(%s)" % ", ".join(map(str, self.gens))


def build(gens: Iterable[int]) -> NumericalSemigroup:
    """Validate a generator list and build the semigroup it generates."""
    return NumericalSemigroup(gens)


def contains(S: NumericalSemigroup, s: int) -> bool:
    return S.contains(s)


def frobenius(S: NumericalSemigroup) -> int:
    return S.frobenius()


def apery(S: NumericalSemigroup) -> AperySet:
    return S.apery()


def gaps(S: NumericalSemigroup) -> set[int]:
    return S.gaps()

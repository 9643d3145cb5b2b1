"""Core numerical semigroup arithmetic.

A numerical semigroup is a cofinite additive submonoid of the naturals,
identified with its unique minimal generating set.  The smallest nonzero
element is the multiplicity e, the number of minimal generators is the
embedding dimension v, and the largest integer outside the semigroup is the
Frobenius number f.

The Apery set is read off a membership bitset over a window fixed at
construction, [0, (e-1)*max(gens)], which holds f + e.  Membership itself is
a lookup in the Apery set, with no window.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._bitset import (
    bits_to_tuple,
    closure_bits,
    irreducible_bits,
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

# e * max(gens) bounds every window the package allocates: validation spans
# max(gens) bits, the membership table (e-1) * max(gens), and the Apery
# columns of the level sweep at most 8 * e**2 bytes.
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
    others).  Instances are immutable: the Apery table and the order table
    (``grading.order_table``) are computed on first use and kept, and a race
    between two threads only computes them twice.
    """

    __slots__ = ("gens", "e", "v", "f", "_bits", "_ap_class", "_order_table")

    def __init__(self, gens: Iterable[int]):
        cleaned = self._validate(gens)
        object.__setattr__(self, "gens", cleaned)
        object.__setattr__(self, "e", cleaned[0])
        object.__setattr__(self, "v", len(cleaned))
        bits, f = self._initial_table(cleaned)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_ap_class", None)
        object.__setattr__(self, "_order_table", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("NumericalSemigroup is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def _validate(gens: Iterable[int]) -> tuple[int, ...]:
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
        # A generator is redundant iff the others already reach it, i.e. iff
        # it is a sum of two nonzero members; report the smallest such.
        limit = ordered[-1]
        gen_bits = 0
        for g in ordered:
            gen_bits |= 1 << g
        closure = closure_bits(ordered, limit)
        redundant = gen_bits & ~irreducible_bits(closure, ordered, window_mask(limit))
        if redundant:
            g = (redundant & -redundant).bit_length() - 1
            raise NonMinimal("generator %d is a sum of the others" % g)
        return tuple(ordered)

    @staticmethod
    def _initial_table(gens: tuple[int, ...]) -> tuple[int, int]:
        """(membership bitset over [0, cutoff], Frobenius number).

        Every residue class mod e is reached with at most e - 1 generators,
        so f + e <= (e - 1) * max(gens) < cutoff.
        """
        cutoff = (gens[0] - 1) * gens[-1] + 1
        bits = closure_bits(gens, cutoff)
        return bits, largest_missing(bits, cutoff)

    # -- membership --------------------------------------------------------

    def contains(self, s: int) -> bool:
        """Membership test in O(1), with no window.

        The members of a residue class mod e are its Apery element w and
        w + e, w + 2e, ..., so s is a member iff s >= w.  Negative integers
        fall below every Apery element and are never members.
        """
        ap_class = self._ap_class or self._compute_apery()
        return s >= ap_class[s % self.e]

    __contains__ = contains

    # -- classical invariants ----------------------------------------------

    def frobenius(self) -> int:
        """Largest integer outside the semigroup (-1 when the semigroup is N)."""
        return self.f

    def apery(self) -> AperySet:
        """Apery set with respect to the multiplicity."""
        return AperySet(tuple(sorted(self._ap_class or self._compute_apery())))

    def _apery_bits(self) -> int:
        """Bitset of the members s with s - e not a member, all within [0, f + e]."""
        bits = self._bits
        return bits & ~(bits << self.e) & window_mask(self.f + self.e)

    def _compute_apery(self) -> array:
        """The Apery element of each residue class mod e, indexed by class.

        Computed on first use and kept, packed at 8 bytes a class (a race
        only computes it twice).
        Checks the theorems that pin the set down: it has e elements, one
        per class, contains 0 and has maximum f + e.
        """
        e, top = self.e, self.f + self.e
        elems = bits_to_tuple(self._apery_bits())
        by_class = {w % e: w for w in elems}
        if len(elems) != e or len(by_class) != e or (elems[0], elems[-1]) != (0, top):
            raise InternalInconsistency(
                "Apery set of %r is not e = %d elements, one per class, from 0 to f + e"
                % (self, e)
            )
        ap_class = array("q", (by_class[r] for r in range(e)))
        object.__setattr__(self, "_ap_class", ap_class)
        return ap_class

    def gaps(self) -> set[int]:
        """The finite complement of the semigroup in the naturals."""
        return set(bits_to_tuple(~self._bits & window_mask(self.f)))

    def genus(self) -> int:
        """Number of gaps: f + 1 minus the members in [0, f]."""
        return self.f + 1 - (self._bits & window_mask(self.f)).bit_count()

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

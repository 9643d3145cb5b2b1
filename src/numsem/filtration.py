"""Hilbert function and the jump/landing sets of the order filtration.

H_R(n) counts the elements of order exactly n.  The set D_k collects the
elements whose order jumps past k when the multiplicity is added; C_k
collects the order-k elements that are not reached from (k-1)M by adding
the multiplicity.  Their sizes control the Hilbert function level by level:
H_R(k) - H_R(k-1) = |C_k| - |D_k|, and the tangent cone is Cohen-Macaulay
exactly when every D_k is empty.

All sets are materialized sorted, and every profile carries a certified
stabilization index: past it the function equals the multiplicity forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bitset import bits_to_tuple
from .core import NumericalSemigroup
from .errors import InternalInconsistency
from .grading import order_table

__all__ = [
    "DeltaAudit",
    "FiltrationTables",
    "HilbertProfile",
    "audit_delta",
    "hilbert_function",
    "is_tangent_cone_cm",
    "strata_tables",
]


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
            raise ValueError("negative level")
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
class DeltaAudit:
    """Per-level check of H_R(k) - H_R(k-1) = |C_k| - |D_k|."""

    levels: dict[int, tuple[int, int]]  # k -> (hilbert delta, |C_k| - |D_k|)

    @property
    def ok(self) -> bool:
        return all(a == b for a, b in self.levels.values())


def _bundle(S: NumericalSemigroup) -> tuple[HilbertProfile, FiltrationTables]:
    return S._memo("filtration", lambda: _compute_bundle(S))


def _compute_bundle(S: NumericalSemigroup) -> tuple[HilbertProfile, FiltrationTables]:
    table = order_table(S)
    e = S.e
    stable = table.stable_from
    top = stable + e + 1
    levels, mask = table.snapshot(top + 1)

    strata = [levels[h] & ~levels[h + 1] for h in range(top + 1)]
    values = [s.bit_count() for s in strata]

    d_sets: dict[int, tuple[int, ...]] = {}
    c_sets: dict[int, tuple[int, ...]] = {}
    d_split: dict[int, dict[int, tuple[int, ...]]] = {}
    c_sets[1] = bits_to_tuple(strata[1] & ~((levels[0] << e) & mask))
    last_active = 1
    for k in range(2, stable + 2):
        d_bits = strata[k - 1] & (levels[k + 1] >> e)
        c_bits = strata[k] & ~((levels[k - 1] << e) & mask)
        d_sets[k] = bits_to_tuple(d_bits)
        c_sets[k] = bits_to_tuple(c_bits)
        if d_sets[k] or c_sets[k]:
            last_active = k
        if d_bits:
            landing = table.by_order(d_bits << e, k + 1)  # D_k + e lies in (k+1)M
            d_split[k] = {t: bits_to_tuple(b >> e) for t, b in landing.items()}

    r_stop = max(2, last_active + 1)
    for k in list(d_sets):
        if k >= r_stop:
            del d_sets[k], c_sets[k]
            d_split.pop(k, None)

    k0 = min((k for k, v in d_sets.items() if v), default=None)

    # Certified tail: e consecutive values equal to e past the last active level.
    for n in range(r_stop - 1, r_stop + e - 1):
        if values[n] != e:
            raise InternalInconsistency("H_R(%d) = %d != e" % (n, values[n]))
    stable_at = r_stop - 1
    while stable_at > 0 and values[stable_at - 1] == e:
        stable_at -= 1
    decreasing = tuple(
        l for l in range(1, r_stop) if values[l] < values[l - 1]
    )
    profile = HilbertProfile(tuple(values[: stable_at + 1]), stable_at, decreasing)
    tables = FiltrationTables(d_sets, c_sets, d_split, k0, r_stop)
    return profile, tables


def hilbert_function(S: NumericalSemigroup) -> HilbertProfile:
    """Exact Hilbert function with certified stabilization at e."""
    return _bundle(S)[0]


def strata_tables(S: NumericalSemigroup) -> FiltrationTables:
    """The D_k / C_k / D_k^t tables of S."""
    return _bundle(S)[1]


def audit_delta(S: NumericalSemigroup) -> DeltaAudit:
    """Check H_R(k) - H_R(k-1) = |C_k| - |D_k| at every level.

    A failure is an InternalInconsistency: the identity is a theorem, so a
    mismatch can only mean the engine is broken.
    """
    profile, tables = _bundle(S)
    levels: dict[int, tuple[int, int]] = {}
    for k in range(2, tables.r_stop + 1):
        delta = profile.value_at(k) - profile.value_at(k - 1)
        sizes = len(tables.c_sets.get(k, ())) - len(tables.d_sets.get(k, ()))
        levels[k] = (delta, sizes)
        if delta != sizes:
            raise InternalInconsistency(
                "delta mismatch at level %d: %d vs %d" % (k, delta, sizes)
            )
    return DeltaAudit(levels)


def is_tangent_cone_cm(S: NumericalSemigroup) -> bool:
    """True iff every D_k is empty (the associated graded ring is CM)."""
    tables = strata_tables(S)
    return all(not v for v in tables.d_sets.values())

"""Hilbert function and the jump/landing sets of the order filtration.

H_R(n) counts the elements of order exactly n.  The set D_k collects the
elements whose order jumps past k when the multiplicity is added; C_k
collects the order-k elements that are not reached from (k-1)M by adding
the multiplicity.  Their sizes control the Hilbert function level by level:
H_R(k) - H_R(k-1) = |C_k| - |D_k|, and the tangent cone is Cohen-Macaulay
exactly when every D_k is empty.

All of it is read off the order table of ``grading``, which one sweep of
the filtration fills.  All sets are materialized sorted, and every profile
carries a certified stabilization index: past it the function equals the
multiplicity forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NumericalSemigroup
from .errors import InternalInconsistency
from .grading import FiltrationTables, HilbertProfile, order_table

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
class DeltaAudit:
    """Per-level check of H_R(k) - H_R(k-1) = |C_k| - |D_k|."""

    levels: dict[int, tuple[int, int]]  # k -> (hilbert delta, |C_k| - |D_k|)

    @property
    def ok(self) -> bool:
        return all(a == b for a, b in self.levels.values())


def hilbert_function(S: NumericalSemigroup) -> HilbertProfile:
    """Exact Hilbert function with certified stabilization at e.

    A search hit returns the profile its proof kept; any other semigroup
    reads its (cached) order table.
    """
    if S._hilbert is not None:
        return S._hilbert
    return order_table(S).hilbert


def strata_tables(S: NumericalSemigroup) -> FiltrationTables:
    """The D_k / C_k / D_k^t tables of S."""
    return order_table(S).tables


def audit_delta(S: NumericalSemigroup) -> DeltaAudit:
    """Check H_R(k) - H_R(k-1) = |C_k| - |D_k| at every level.

    A failure is an InternalInconsistency: the identity is a theorem, so a
    mismatch can only mean the engine is broken.
    """
    profile, tables = hilbert_function(S), strata_tables(S)
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

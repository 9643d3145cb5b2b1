"""Counting induced elements of two-generator configurations.

A configuration fixes two generators n_i < n_j and a list of coefficient
pairs (a_r, b_r), all of common order a_r + b_r = k.  At a level h below k,
each pair contributes the sub-combinations p*n_i + (h-p)*n_j with p <= a_r
and h - p <= b_r.  The closed form counts the distinct coefficient pairs so
produced; the brute force enumerates them, and also counts the distinct
numeric values (which can only collide across different generator pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadConfig

__all__ = [
    "BetaCount",
    "TwoGenConfig",
    "beta_brute_force",
    "beta_closed_form",
    "support_count_bound",
]


@dataclass(frozen=True)
class TwoGenConfig:
    """Coefficient pairs of common order k over two generators, and a level h."""

    n_i: int
    n_j: int
    reps: tuple[tuple[int, int], ...]
    k: int
    h: int

    def __post_init__(self):
        if self.n_i == self.n_j or self.n_i <= 0 or self.n_j <= 0:
            raise BadConfig("generators must be distinct and positive")
        if self.k < 3:
            raise BadConfig("common order k must be at least 3")
        if not 2 <= self.h <= self.k - 1:
            raise BadConfig("level h must satisfy 2 <= h <= k-1")
        if not 1 <= len(self.reps) <= self.k + 1:
            raise BadConfig("need between 1 and k+1 coefficient pairs")
        last = -1
        for a, b in self.reps:
            if a < 0 or b < 0 or a + b != self.k:
                raise BadConfig("pair (%d, %d) does not have order %d" % (a, b, self.k))
            if a <= last:
                raise BadConfig("pairs must be strictly increasing in a")
            last = a


@dataclass(frozen=True)
class BetaCount:
    """Formal count of induced coefficient pairs, and count of their values."""

    formal: int
    numeric: int


def beta_closed_form(config: TwoGenConfig) -> int:
    """Number of distinct level-h coefficient pairs induced by the configuration.

    Case split on where h falls among the first coefficients a_1 < ... < a_p:
    all of them at or above h, h strictly inside, or all below.
    """
    k, h = config.k, config.h
    avals = [a for a, _ in config.reps]
    width = k - h
    if h <= avals[0]:
        b1 = k - avals[0]
        return 1 + min(b1, h)
    below = [a for a in avals if a < h]
    i = len(below)
    total = i + min(avals[0], width)
    for j in range(1, i):
        total += min(avals[j] - avals[j - 1] - 1, width)
    if i == len(avals):
        return total
    b_next = k - avals[i]
    return total + 1 + min(h - avals[i - 1] - 1, b_next)


def beta_brute_force(config: TwoGenConfig) -> BetaCount:
    """Enumerate the induced level-h pairs directly.

    A pair (p, h-p) is induced by (a, b) iff p <= a and h - p <= b.
    """
    k, h = config.k, config.h
    pairs = set()
    for a, b in config.reps:
        for p in range(0, h + 1):
            if p <= a and h - p <= b:
                pairs.add(p)
    values = {p * config.n_i + (h - p) * config.n_j for p in pairs}
    return BetaCount(len(pairs), len(values))


def support_count_bound(rep, h: int) -> int:
    """Guaranteed lower bound on |C_h| from one maximal representation in C_k.

    The representation must use q >= 1 non-multiplicity generators, each with
    positive coefficient, and the multiplicity not at all; h must satisfy
    2 <= h < k.  For q >= h+1 the bound is h*(q-h) + 1 (which is >= q);
    for q <= h it is q.  ``rep`` is not checked here: a
    MaximalRepresentation holds the record rule from when it is made.
    Raises BadConfig unless h is an int (not a bool).
    """
    coeffs = rep.coeffs
    k = rep.order
    if coeffs[0] != 0:
        raise BadConfig("representation must not use the multiplicity")
    q = sum(1 for c in coeffs[1:] if c)
    if q == 0:
        raise BadConfig("representation must use at least one generator")
    if not isinstance(h, int) or isinstance(h, bool):
        raise BadConfig("level h %r is not an integer" % (h,))
    if not 2 <= h < k:
        raise BadConfig("level h must satisfy 2 <= h < k")
    if q >= h + 1:
        return h * (q - h) + 1
    return q

"""Reproducible random semigroup instances for property testing.

Instances are drawn from a seeded generator and reduced to their minimal
generating sets, so a fixed seed always yields the same corpus.
"""

from __future__ import annotations

import math
import random

from ._bitset import add_generator
from .core import NumericalSemigroup

__all__ = ["minimalize", "random_corpus", "random_semigroup"]


def minimalize(values: list[int]) -> tuple[int, ...]:
    """Minimal generating set of the submonoid generated by ``values``: the
    ascending values that the smaller ones do not reach."""
    return _fold(values)[0]


def _fold(values: list[int]) -> tuple[tuple[int, ...], int, int]:
    """``minimalize``'s set, its closure over [0, limit] and limit = max(values)."""
    vals = sorted(set(values))
    bits, kept, limit = 1, (), vals[-1] if vals else 0
    for x in vals:
        grown = add_generator(bits, 0, x, limit)
        if grown:
            bits, kept = grown, kept + (x,)
    return kept, bits, limit


def _draw(rng: random.Random, values: list[int], top: int) -> NumericalSemigroup:
    """The semigroup of ``values``, e first, topped up with draws from
    (e, top] until the gcd is 1, then minimalized."""
    while math.gcd(*values) != 1:
        values.append(rng.randint(values[0] + 1, top))
    return NumericalSemigroup._from_closure(*_fold(values))


def random_semigroup(
    rng: random.Random,
    e_min: int = 10,
    e_max: int = 40,
    span: int = 6,
    picks: tuple[int, int] = (2, 9),
) -> NumericalSemigroup:
    """One random semigroup: multiplicity in [e_min, e_max], extra generators
    drawn from (e, span*e], topped up until the gcd is 1, then minimalized."""
    e = rng.randint(e_min, e_max)
    count = rng.randint(*picks)
    pool = [rng.randint(e + 1, span * e) for _ in range(count)]
    return _draw(rng, [e] + pool, span * e)


def random_dense_semigroup(
    rng: random.Random, e_min: int = 10, e_max: int = 30
) -> NumericalSemigroup:
    """A random semigroup with many generators packed just above e.

    Dense instances keep the Apery orders low, which exercises the small-d
    side of the filtration (empty third stratum, near-maximal embedding
    dimension).
    """
    e = rng.randint(e_min, e_max)
    count = rng.randint(max(2, e // 2), e - 1)
    pool = rng.sample(range(e + 1, 3 * e), min(count, 2 * e - 2))
    return _draw(rng, [e] + pool, 3 * e)


def random_corpus(
    seed: int, count: int, dense_every: int = 0, **kwargs
) -> list[NumericalSemigroup]:
    """A fixed-seed corpus of ``count`` random semigroups.

    With ``dense_every`` = n > 0, every n-th instance is drawn dense.
    """
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        if dense_every and idx % dense_every == dense_every - 1:
            out.append(random_dense_semigroup(rng))
        else:
            out.append(random_semigroup(rng, **kwargs))
    return out

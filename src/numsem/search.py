"""Classification searches for decreasing Hilbert functions.

Two layers:

* residue admissibility — for a candidate pair with n_j = h * n_i modulo e,
  the nine products of degree <= 3 must occupy distinct nonzero residue
  classes, and the classes still missing from a full system must be covered
  by the five degree-4/5 products.  This reproduces the printed admissibility
  table row by row.

* bounded exhaustive search — instead of arbitrary generator sets, enumerate
  witness pairs (or triples) and the shapes of the Apery set they force.  A
  shape is the generators it forces and the Apery elements of order >= 2 it
  names, one per residue class; every other class takes one generator, so
  v = e - #named.  The shapes are read off the table the structure
  detectors match against (``structure._Shape``); only the cuts on the
  roles are the search's own.  Whether a shape's values lie in distinct
  classes depends only on its roles' classes, so that rule is a table over
  residues (``_classes``), decided once per multiplicity: a role steps by e
  through the classes it admits, and a colliding shape is never listed.
  Every candidate value for a remaining class sits below
  that class's smallest element in the subsemigroup generated by the forced
  generators (the final Apery element can only be smaller), so the
  enumeration is exhaustive within the generator bound; only pairs whose
  shapes fit the bound are listed.  The classes are filled
  depth-first, one ``add_generator`` step each, and a prefix is cut as soon
  as one of its generators becomes a sum of the others: adding generators
  never makes a redundant one minimal again, so no completion of that
  prefix is minimal.  A shape that forces more generators y = s - e, s a
  sum of three of its roles, than it names Apery elements decreases at
  level 2 at every leaf (the count is in ``_expand_skeleton``): that is
  every shape of v = e-3 and the (4, 0) shapes of v = e-4, whose leaves are
  hits as they stand, each made from the closure the walk holds for it.
  The leaves of the (3, 1) shapes are decided before any is made: the
  walk's closure is grown past f + e, the levels are swept on that closure
  up to their first decrease, and only a hit is made, from the same one.
  Every hit is re-verified by a full order table, whose H_R(1) = v check
  backs up the pruning and whose decrease backs up the count, and then
  keeps only the Hilbert profile that table proved: the table itself is
  dropped, not cached on the hit.  With more than one
  worker the (e, n_i) cells run in a process pool, which the first such
  search imports; a serial search never loads it.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from ._bitset import add_generator, bits_to_tuple, frobenius_window
from .core import _WINDOW_BUDGET, NumericalSemigroup
from .errors import BadRange, InternalInconsistency, ResourceLimit
from .filtration import hilbert_function
from .grading import OrderTable, _levels
from .structure import _FOUR_ZERO, _OFFSET3, _Shape

# concurrent.futures.ProcessPoolExecutor, imported by the first search that
# runs more than one worker: its import tree (multiprocessing, pickle,
# subprocess, ...) would otherwise be most of what ``import numsem`` costs.
ProcessPoolExecutor = None

__all__ = [
    "ResidueRow",
    "SearchConfig",
    "residue_admissible",
    "residue_table",
    "search_decreasing",
    "search_results_csv",
]


# -- residue admissibility ----------------------------------------------------


@dataclass(frozen=True)
class ResidueRow:
    """One row of the admissibility table for n_j = h * n_i (mod e).

    ``base_classes`` are the residues of n_i, 2n_i, 3n_i, n_j, n_i+n_j,
    2n_i+n_j, 2n_j, n_i+2n_j, 3n_j in that order (n_i normalized to class 1).
    ``extra_classes`` are the residues of 2n_i+2n_j, 3n_i+n_j, n_i+3n_j,
    3n_i+2n_j, 2n_i+3n_j, the products available to complete the residue
    system when the embedding dimension is e - 3.
    """

    e: int
    h: int
    base_classes: tuple[int, ...]
    extra_classes: tuple[int, ...]
    admissible: bool

    @property
    def missing_classes(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(1, self.e)) - set(self.base_classes)))


@cache
def _classes(shape: _Shape, e: int, prefix: tuple[int, ...]) -> tuple[int, ...]:
    """The classes t in 1..e-1 for which ``shape`` on the residues
    ``prefix + (t,)`` has its values in distinct classes mod e.  Every value
    of a shape is an integer combination of e and its roles, so whether its
    real values collide mod e depends only on the roles' classes: this is
    the search's one-per-class rule, decided once per (shape, e, prefix)."""
    values = {t: sum(shape.skeleton(e, prefix + (t,)), ()) for t in range(1, e)}
    return tuple(t for t, vals in values.items() if len({x % e for x in vals}) == len(vals))


def residue_admissible(e: int, h: int) -> ResidueRow:
    """Admissibility of the class pair (1, h) modulo e.

    Accepts 1 <= h <= e-1; the printed table starts at h = 4 because smaller
    h collides with a base class, which this check reproduces.
    """
    if e < 2:
        raise BadRange("modulus e must be at least 2")
    if not 1 <= h <= e - 1:
        raise BadRange("h must satisfy 1 <= h <= e-1")
    base = tuple(x % e for x in (1, 2, 3, h, h + 1, h + 2, 2 * h, 2 * h + 1, 3 * h))
    extra = tuple(x % e for x in (2 * h + 2, h + 3, 3 * h + 1, 2 * h + 3, 3 * h + 2))
    # the v = e-3 shape on (1, h) has the classes of 0 and ``base``
    distinct = h in _classes(_OFFSET3, e, (1,))
    # the classes lie in [0, e): they cover 1..e-1 iff e - 1 distinct ones are nonzero
    covered = distinct and len(set(base + extra) - {0}) == e - 1
    return ResidueRow(e, h, base, extra, distinct and covered)


def residue_table(e: int) -> list[ResidueRow]:
    """Rows h = 4 .. e-1 of the admissibility table."""
    if e < 10:
        raise BadRange("the table is defined for e >= 10")
    return [residue_admissible(e, h) for h in range(4, e)]


# -- bounded exhaustive search -------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Bounded search space: multiplicities, v = e - v_offset, generator cap.

    ``gen_bound_per_e`` scales the cap with the multiplicity (the usual way
    to state it); ``gen_bound`` is an absolute cap.  Exactly one is set.
    """

    e_range: tuple[int, int]
    v_offset: int
    gen_bound: int | None = None
    gen_bound_per_e: int | None = None
    workers: int = 1

    def __post_init__(self):
        if (self.gen_bound is None) == (self.gen_bound_per_e is None):
            raise BadRange("set exactly one of gen_bound / gen_bound_per_e")
        if min(self.e_range) < 1:
            raise BadRange("multiplicities must be at least 1")
        if self.e_range[0] > self.e_range[1]:
            raise BadRange("e-range %d..%d runs backwards" % tuple(self.e_range))
        if self.v_offset not in (3, 4):
            raise BadRange("v_offset must be 3 or 4")
        if self.workers < 1:
            raise BadRange("workers must be at least 1")

    def bound_for(self, e: int) -> int:
        if self.gen_bound is not None:
            bound = self.gen_bound
        else:
            bound = self.gen_bound_per_e * e
        if bound < 3 * e:
            raise BadRange("generator bound %d is below 3e = %d" % (bound, 3 * e))
        return bound


def _candidate_is_hit(gens: tuple[int, ...], bits: int, limit: int) -> bool:
    """Fast check that H_R of the semigroup of the ascending, minimal
    ``gens`` decreases, from their closure ``bits``, exact over [0, limit]
    and with its top e bits members: the order filtration is swept on that
    closure's window up to its first decrease, or to stabilization, after
    which the function never moves again; H_R(n) is the size of the stratum
    ``_levels`` yields at n.  It reads no Apery table and makes no closure,
    so a leaf is decided on the one its walk holds, before it is made."""
    h_prev = 1  # H_R(0)
    for _, stratum in _levels(gens, bits, limit):
        h_cur = stratum.bit_count()
        if h_cur < h_prev:
            return True
        h_prev = h_cur
    return False


def _expand_skeleton(
    e: int, forced: tuple[int, ...], named: tuple[int, ...], decreases: bool, bound: int
) -> list[NumericalSemigroup]:
    """Complete one shape to its minimal semigroups whose levels decrease.

    A shape is the generators it forces (e first) and the Apery elements of
    order >= 2 it names, in distinct classes mod e (``_cell_shapes`` lists no
    other), and each other class takes one generator: v = e - len(named).
    The forced generators, then one value per remaining class chosen
    depth-first, are folded through ``add_generator`` over [0, bound].
    Redundancy is monotone (more generators never make a redundant one
    minimal again), so a failed step cuts its whole prefix, and a failed
    root drops the shape.  A surviving leaf's fold is its minimality proof,
    and its closure, exact over [0, bound], is grown until it holds f + e
    (past the bound when an Apery element lies above it).  A leaf of a
    shape not flagged ``decreases`` is decided before it is made:
    ``_candidate_is_hit`` sweeps the levels on that closure.  Only a hit is
    made into a semigroup, from the same closure: each leaf's generators
    are closed once, by its walk.  Every class holds a generator or a named
    sum of generators, so the gcd is 1, and the Apery checks raising at a
    hit is an engine fault.

    A leaf of a shape flagged ``decreases`` is a hit without a sweep.  Every
    minimal generator but e lies in Ap_1, so the Apery elements of order
    >= 2 number e - v = len(named), and C_2, the order-2 elements outside
    M + e, is the set of Apery elements of order 2: |C_2| <= len(named).
    Each forced y = s - e, s a sum of three roles, is a minimal generator
    with y + e in 3M, so y is in D_2, and the forced values lie in distinct
    classes.  So H(2) - H(1) = |C_2| - |D_2| < 0 when the forced y outnumber
    the named elements, and as H(1) = v >= H(0), level 2 is the first
    decrease.
    """
    hits: list[NumericalSemigroup] = []
    if max(forced) > bound:
        return hits
    root, root_gens = 1, 0
    for g in forced:
        root = add_generator(root, root_gens, g, bound)
        if not root:
            return hits
        root_gens |= 1 << g
    # A remaining class's Apery element lies below its smallest element in
    # the shape's closure (of order >= 2), in steps of e.  c + e is always
    # open: it is below 3e <= bound, and a closure element of a class that
    # no forced value holds sums two or more forced values above e.
    choices = [
        sum(1 << x for x in range(c + e, bound + 1, e)) & ~root
        for c in sorted(set(range(e)) - {x % e for x in forced + named})
    ]
    # Each entry: (classes filled, generators, their closure, generator bits).
    stack = [(0, forced, root, root_gens)]
    while stack:
        depth, gens, closure, gen_bits = stack.pop()
        if depth == len(choices):
            gens = tuple(sorted(gens))
            closure, limit = frobenius_window(closure, gens, bound)
            if decreases or _candidate_is_hit(gens, closure, limit):
                hits.append(NumericalSemigroup._from_closure(gens, closure, limit))
            continue
        # The closure holds e, so a reached value of a class leaves out every
        # later one too: what remains is the values below the first reached.
        for x in bits_to_tuple(choices[depth] & ~closure):
            grown = add_generator(closure, gen_bits, x, bound)
            if grown:
                stack.append((depth + 1, gens + (x,), grown, gen_bits | 1 << x))
    return hits


def _flagged(
    roles: tuple[int, ...], forced: tuple[int, ...], named: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """(forced, named, decreases) of a shape on ``roles``: its forced values
    are e, the roles and the generators y = s - e, s a sum of three roles,
    and ``decreases`` says whether those y outnumber the named Apery
    elements, which makes every leaf decrease at level 2."""
    return forced, named, len(forced) - 1 - len(roles) > len(named)


def _cell_shapes(v_offset: int, e: int, a: int, bound: int) -> Iterator[tuple]:
    """The shapes, as (forced, named, decreases), of one (e, n_i = a) cell
    of the v = e - v_offset search, for each b, read off the structure table.

    v = e-3 has one shape per b > a.  v = e-4 has the (3, 1) shapes and the
    (4, 0) three-generator shapes.  A (3, 1) shape keeps one element of the
    two-generator C_3 in the Apery set and drops the other three by e to
    generators; its walk tries every open value of the kept element's class,
    so its completions hold the decreases at level 2 (4a - e a generator
    when 3a is kept) as well as at level 3.  Every v = e-4 shape holds the
    v = e-3 shape's classes on (a, b), so b steps by e through the classes
    that the v = e-3 table admits for a, and c through those the (4, 0)
    shape's table admits for (a, b); the cuts on b and c are the bounds.

    ``decreases`` is set when the shape forces more generators y = s - e
    than it names Apery elements: 4 > 3 at v = e-3 and 5 > 4 for the (4, 0)
    shapes, whose leaves all decrease at level 2 (see ``_expand_skeleton``),
    but 3 < 4 for the (3, 1) shapes, whose leaves are swept.
    """
    # v = e-3 forces 3b - e, so b <= (bound + e) / 3; every v = e-4 shape
    # forces a + 2b - e or more, so b <= (bound + e - a) / 2.
    lo, hi = (a + 1, (bound + e) // 3) if v_offset == 3 else (e + 1, (bound + e - a) // 2)
    for s in _classes(_OFFSET3, e, (a % e,)):
        for b in range(lo + (s - lo) % e, hi + 1, e):
            base, ap2 = _OFFSET3.skeleton(e, (a, b))
            if v_offset == 3:
                yield _flagged((a, b), base, ap2)
                continue
            # a (3, 1) shape names one element of the v = e-3 shape's C_3
            # (its D_2 + e) as Ap_3; like that shape, it is symmetric in a, b
            if _OFFSET3.reads((a, b)):
                c3 = _OFFSET3.d2e(a, b)
                for ap3 in c3:
                    forced = (e, a, b) + tuple(x - e for x in c3 if x != ap3)
                    yield _flagged((a, b), forced, ap2 + (ap3,))
            # (4, 0): a shape's values hold the v = e-3 shape's on (a, b), so
            # if those pass the bound, no c fits.
            if max(base) > bound:
                continue
            for shape in _FOUR_ZERO:
                for t in _classes(shape, e, (a % e, s)) if shape.reads((a, b)) else ():
                    for c in range(t + e, bound + 1, e):
                        yield _flagged((a, b, c), *shape.skeleton(e, (a, b, c)))


def _cells(e: int, bound: int) -> Iterator[int]:
    """The n_i of the (e, n_i) cells: every shape forces 3n_i - e or more,
    so n_i <= (bound + e) / 3, and the class of n_i admits some b (class 0
    admits none)."""
    return (
        n_i for n_i in range(e + 1, (bound + e) // 3 + 1) if _classes(_OFFSET3, e, (n_i % e,))
    )


def _tasks_for(config: SearchConfig) -> list[tuple[int, int, int, int]]:
    lo, hi = config.e_range
    bounds = [(e, config.bound_for(e)) for e in range(lo, hi + 1)]
    # The walk's window [0, bound] and each leaf's grown one fit in e * bound
    # bits; refuse a bound above the window budget before listing any task.
    if bounds and hi * bounds[-1][1] > _WINDOW_BUDGET:
        raise ResourceLimit(
            "multiplicity %d times generator bound %d exceeds the window budget %d"
            % (hi, bounds[-1][1], _WINDOW_BUDGET)
        )
    return [
        (config.v_offset, e, n_i, bound) for e, bound in bounds for n_i in _cells(e, bound)
    ]


def _run_task(task: tuple[int, int, int, int]) -> list[NumericalSemigroup]:
    """All hits of one (e, n_i) cell: each of its shapes, completed."""
    v_offset, e, n_i, bound = task
    hits: list[NumericalSemigroup] = []
    for forced, named, decreases in _cell_shapes(v_offset, e, n_i, bound):
        hits.extend(_expand_skeleton(e, forced, named, decreases, bound))
    return hits


def search_decreasing(config: SearchConfig) -> list[NumericalSemigroup]:
    """All semigroups in the configured space whose Hilbert function decreases.

    Deterministic for any worker count: results are deduplicated by their
    minimal generating set and sorted by (e, generators).  Every hit is
    re-verified before it is returned: its embedding dimension must be
    e - v_offset, and a full order table on the semigroup made at its leaf,
    with every check of its construction, must decrease; that includes the
    leaves taken as hits unswept because their shape forces the decrease,
    so a fault in that count raises here.  The hit then keeps
    that table's Hilbert profile, which ``hilbert_function`` returns, and
    not the table: any other read builds and caches one on demand, as for a
    fresh semigroup.  An empty list is a valid outcome.
    The process pool is imported by the first call that runs more than one
    worker; a serial search never loads it.
    Raises ResourceLimit when e * bound exceeds the window budget.
    """
    global ProcessPoolExecutor
    tasks = _tasks_for(config)
    # A fork pool starts all of its workers at once, so never ask for more
    # than there are tasks or CPUs.
    workers = min(config.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1 and ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        chunks = pool.map(_run_task, tasks, chunksize=8) if pool else map(_run_task, tasks)
        found = {S.gens: S for chunk in chunks for S in chunk}
    out = [found[gens] for gens in sorted(found)]
    for S in out:
        if S.v != S.e - config.v_offset:
            raise InternalInconsistency(
                "search hit has embedding dimension %d, not e - %d = %d: %s"
                % (S.v, config.v_offset, S.e - config.v_offset, S.gens)
            )
        profile = OrderTable(S).hilbert
        if not profile.is_decreasing:
            raise InternalInconsistency("search hit fails re-verification: %s" % (S.gens,))
        object.__setattr__(S, "_hilbert", profile)
    return out


def search_results_csv(results: list[NumericalSemigroup]) -> str:
    """CSV rows: e, v, generators, Hilbert values, decreasing levels.

    Lists inside a cell are semicolon-separated so the row stays unquoted.
    """
    lines = ["e,v,generators,hilbert,decreasing_levels"]
    for S in results:
        profile = hilbert_function(S)
        lines.append(
            "%d,%d,%s,%s,%s"
            % (
                S.e,
                S.v,
                ";".join(map(str, S.gens)),
                ";".join(map(str, profile.values)),
                ";".join(map(str, profile.decreasing_levels)),
            )
        )
    return "\n".join(lines) + "\n"

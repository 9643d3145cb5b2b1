"""Brute-force oracles, independent of the bitset engine.

Everything here is written the slow, obvious way: array DP for membership,
full DFS over generator combinations for orders and representations, and
plain scans for Apery sets and Hilbert values.  Tests freeze values computed
by these and diff them against the package.  Only the search twins at the
end call into the package: ``search_by_product`` for ``build`` and
``hilbert_function``, ``search_shape_free`` for the minimality step and the
leaf test, and ``sp_family_members`` for ``construct_sp``.  One function
reads an order table: ``table_column`` derives a column of smallest
elements from its ``apery``, ``first`` and ``runs``.
"""

import itertools
import math


def members_upto(gens, limit):
    member = [False] * (limit + 1)
    member[0] = True
    for x in range(1, limit + 1):
        member[x] = any(member[x - g] for g in gens if g <= x)
    return member


def frobenius(gens):
    limit = (gens[0] - 1) * max(gens) + 1
    member = members_upto(gens, limit)
    return max((x for x in range(limit + 1) if not member[x]), default=-1)


def apery(gens):
    e = gens[0]
    f = frobenius(gens)
    member = members_upto(gens, f + e + 1)
    out = {}
    for x in range(f + e + 1):
        if member[x] and x % e not in out:
            out[x % e] = x
    return tuple(sorted(out.values()))


def redundant(gens):
    """The generators that the others reach, by the array DP on the others."""
    out = set()
    for g in gens:
        others = [h for h in gens if h != g]
        if others and members_upto(others, g)[g]:
            out.add(g)
    return out


def gaps(gens):
    """The integers in [0, f] outside the semigroup, by the array DP."""
    f = frobenius(gens)
    member = members_upto(gens, max(f, 0))
    return {x for x in range(f + 1) if not member[x]}


def is_symmetric_scan(gens):
    """Gap reflection scan: x is a member iff f - x is a gap, for x in [0, f]."""
    f = frobenius(gens)
    if f < 0:
        return True
    member = members_upto(gens, f)
    return all(member[x] != member[f - x] for x in range(f + 1))


def two_generator(a, b):
    """Closed forms for <a, b> with 1 < a < b coprime.

    f = ab - a - b (Sylvester), genus (a-1)(b-1)/2, the Apery set is
    {j*b : 0 <= j < a}, and j*b has order j: below ab its only
    representation is j copies of b.  The elements of order n are the
    i*a + (n-i)*b, so H_R(n) = n + 1 until it reaches a at n = a - 1 and
    stays there.  The tangent cone is k[x, y]/(y^a) with x, y of degree 1,
    a hypersurface, so it is CM.
    """
    return {
        "frobenius": a * b - a - b,
        "genus": (a - 1) * (b - 1) // 2,
        "apery": tuple(j * b for j in range(a)),
        "strata": {j: (j * b,) for j in range(1, a)},
        "hilbert": tuple(range(1, a + 1)),
        "stable_at": a - 1,
        "tangent_cone_cm": True,
    }


def representations(gens, s):
    """Every coefficient vector over gens summing to s (complete DFS)."""
    gens = tuple(gens)
    out = []

    def rec(idx, rem, acc):
        if idx == len(gens) - 1:
            g = gens[idx]
            if rem % g == 0:
                out.append(acc + (rem // g,))
            return
        g = gens[idx]
        for t in range(rem // g, -1, -1):
            rec(idx + 1, rem - t * g, acc + (t,))

    rec(0, s, ())
    return out


def order(gens, s):
    """ord(s) as the maximal coefficient sum over all representations."""
    reps = representations(gens, s)
    if not reps:
        raise ValueError("%d is not a member" % s)
    return max(sum(r) for r in reps)


def max_representations(gens, s):
    reps = representations(gens, s)
    k = max(sum(r) for r in reps)
    return sorted(r for r in reps if sum(r) == k)


def induced_values(gens, coeffs, h):
    """Sorted values of every t <= coeffs (coefficientwise) with coefficient
    sum h, by brute force over the full product of 0..c_i."""
    values = set()
    for t in itertools.product(*(range(c + 1) for c in coeffs)):
        if sum(t) == h:
            values.add(sum(x * g for x, g in zip(t, gens)))
    return sorted(values)


def order_dp(gens, limit):
    """ord over [0, limit] by array DP (independent of set shifting)."""
    member = members_upto(gens, limit)
    ords = [None] * (limit + 1)
    ords[0] = 0
    for x in range(1, limit + 1):
        if not member[x]:
            continue
        best = None
        for g in gens:
            if g <= x and ords[x - g] is not None:
                cand = ords[x - g] + 1
                best = cand if best is None else max(best, cand)
        ords[x] = best
    return ords


def table_column(table, h):
    """The smallest element of hM in each class mod e, h >= 0, from an order
    table: the class's Apery element moves on by e at every level from
    ``first[c]`` on, except through each stall run (start, end), where it
    waits from level start to end."""
    e, out = table.e, []
    for x, k, runs in zip(table.apery, table.first, table.runs):
        for start, end in runs:
            if h < start:
                break
            x, k = x + (start - k) * e, end
        out.append(x + max(h - k, 0) * e)
    return out


def hilbert_values(gens, upto):
    """H(0..upto) by counting orders over a wide enough window."""
    e, f = gens[0], frobenius(gens)
    limit = f + (upto + 2) * e
    ords = order_dp(gens, limit)
    counts = [0] * (upto + 1)
    for value in ords:
        if value is not None and value <= upto:
            counts[value] += 1
    return tuple(counts)


def dk_ck(gens, k):
    """(D_k, C_k) by the definitions, over a wide enough window."""
    e, f = gens[0], frobenius(gens)
    limit = f + (k + 4) * e
    ords = order_dp(gens, limit)

    def ord_at(x):
        return ords[x] if 0 <= x <= limit else None

    d_k = tuple(
        x
        for x in range(limit - e)
        if ords[x] == k - 1 and ord_at(x + e) is not None and ords[x + e] > k
    )
    c_k = tuple(
        x
        for x in range(limit + 1)
        if ords[x] == k and (x - e < 0 or ords[x - e] is None or ords[x - e] <= k - 2)
    )
    return d_k, c_k


def offset3_skeletons(e, bound):
    """(forced, occupied) for each witness pair e < n_i < n_j <= bound of a
    v = e-3 decrease: the nine products of degree <= 3 lie in distinct
    nonzero classes, and the forced generators are e, n_i, n_j and the four
    degree-3 products minus e."""
    for n_i in range(e + 1, bound + 1):
        for n_j in range(n_i + 1, bound + 1):
            base = (n_i, 2 * n_i, 3 * n_i, n_j, n_i + n_j, 2 * n_i + n_j)
            base += (2 * n_j, n_i + 2 * n_j, 3 * n_j)
            classes = {x % e for x in base}
            if len(classes) == 9 and 0 not in classes:
                forced = (e, n_i, n_j, 3 * n_i - e, 2 * n_i + n_j - e)
                forced += (n_i + 2 * n_j - e, 3 * n_j - e)
                yield forced, classes | {0}


def offset4_skeletons(e, bound):
    """(forced, occupied) for each v = e-4 shape: the (3, 1) chains with the
    order jump at level 2 or 3, and the two (4, 0) three-generator shapes,
    every pair and triple of values in (e, bound] tried in turn."""
    values = [x for x in range(e + 1, bound + 1) if x % e]
    for a in values:
        for b in values:
            if b % e == a % e:
                continue
            ap2 = {2 * a % e, (a + b) % e, 2 * b % e}
            forced = (e, a, b, 4 * a - e, 2 * a + b - e, a + 2 * b - e, 3 * b - e)
            occupied = {x % e for x in forced} | ap2 | {3 * a % e}
            if len(occupied) == 11:
                yield forced, occupied
            c3 = (3 * a, 2 * a + b, a + 2 * b, 3 * b)
            for ap3 in c3 if a < b else ():
                forced = (e, a, b) + tuple(x - e for x in c3 if x != ap3)
                occupied = {x % e for x in forced} | ap2 | {ap3 % e}
                if len(occupied) == 10:
                    yield forced, occupied
            for c in values:
                base = (e, a, b, c, 3 * a - e, 2 * a + b - e, a + 2 * b - e, 3 * b - e)
                pat1 = base + (2 * a + c - e,)
                occupied = {x % e for x in pat1} | ap2 | {(a + c) % e}
                if len(occupied) == 13:
                    yield pat1, occupied
                pat2 = base + (3 * c - e,)
                occupied = {x % e for x in pat2} | ap2 | {2 * c % e}
                if a < b and len(occupied) == 13:
                    yield pat2, occupied


def search_by_product(e, skeletons, bound):
    """Sorted generator tuples of the decreasing semigroups a bounded search
    must find, by brute force over completions.

    Each skeleton with every generator <= bound is completed by the full
    product of the values of each missing class in (e, bound], no pruning
    and no cap.  Every candidate is built; non-minimal ones raise and are
    dropped, the rest are kept iff H_R decreases.
    """
    from numsem import NonMinimal, build, hilbert_function

    hits = set()
    for forced, occupied in skeletons:
        if max(forced) > bound:
            continue
        missing = sorted(set(range(e)) - occupied)
        choices = [range(cls + e, bound + 1, e) for cls in missing]
        for extras in itertools.product(*choices):
            try:
                S = build(forced + extras)
            except NonMinimal:
                continue
            if hilbert_function(S).is_decreasing:
                hits.add(S.gens)
    return sorted(hits)


def search_shape_free(e, v, bound):
    """Sorted generator tuples of the multiplicity-e, embedding-dimension-v
    semigroups whose H_R decreases, every generator <= bound, by a walk that
    knows no shape, pair or named Apery element.

    Minimal generators lie in distinct classes mod e, so the walk chooses
    v - 1 values in (e, bound], ascending and one per class, folding each
    through ``add_generator`` (an ascending fold fails at the first
    redundant value), and gives each leaf the search's leaf test.
    """
    from numsem._bitset import add_generator, frobenius_window
    from numsem.search import _candidate_is_hit

    hits = []
    # Each entry: (generators, their closure over [0, bound], classes used).
    stack = [((e,), add_generator(1, 0, e, bound), 1)]
    while stack:
        gens, closure, classes = stack.pop()
        if len(gens) == v:
            if math.gcd(*gens) == 1:
                if _candidate_is_hit(gens, *frobenius_window(closure, gens, bound)):
                    hits.append(gens)
            continue
        for x in range(gens[-1] + 1, bound + 1):
            if not classes >> x % e & 1:
                grown = add_generator(closure, 0, x, bound)
                if grown:
                    stack.append((gens + (x,), grown, classes | 1 << x % e))
    return sorted(hits)


def sp_family_members(bound):
    """Sorted generator tuples of the e = 13 family members whose ten
    generators fit in (13, bound] and whose H_R decreases.

    Walks every (p, k, k') with n_i, n_j and the four degree-3 products
    minus 13 in (13, bound], and every alpha, beta, gamma in the interval
    that keeps its derived generator in (13, bound]; ``SpParameters`` and
    ``construct_sp`` reject what is not a member.
    """
    from numsem import ConstraintViolation, NonMinimal, hilbert_function
    from numsem.search import SpParameters, construct_sp

    def fits(x):
        return 13 < x <= bound

    def drops(x):
        """The lambdas with x - 13 * lambda in (13, bound]."""
        return range(max(0, -((bound - x) // 13)), (x - 14) // 13 + 1)

    members = set()
    for p in range(1, 13):
        for k in range(1, (bound - p) // 13 + 1):
            a = 13 * k + p
            for kprime in range(-2, 4 * k - 1):
                b = 13 * kprime + 4 * p
                if not all(map(fits, (a, b, 3 * a - 13, 2 * a + b - 13))):
                    continue
                if not all(map(fits, (a + 2 * b - 13, 3 * b - 13))):
                    continue
                for alpha, beta, gamma in itertools.product(
                    drops(2 * a + 2 * b), drops(3 * a + b), drops(3 * a + 2 * b)
                ):
                    try:
                        S = construct_sp(SpParameters(p, k, kprime, alpha, beta, gamma))
                    except (ConstraintViolation, NonMinimal):
                        continue
                    if hilbert_function(S).is_decreasing:
                        members.add(S.gens)
    return sorted(members)

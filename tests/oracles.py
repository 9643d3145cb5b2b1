"""Brute-force oracles, independent of the bitset engine.

Everything here is written the slow, obvious way: array DP for membership,
full DFS over generator combinations for orders and representations, and
plain scans for Apery sets and Hilbert values.  Tests freeze values computed
by these and diff them against the package.
"""

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
    representation is j copies of b.
    """
    return {
        "frobenius": a * b - a - b,
        "genus": (a - 1) * (b - 1) // 2,
        "apery": tuple(j * b for j in range(a)),
        "strata": {j: (j * b,) for j in range(1, a)},
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

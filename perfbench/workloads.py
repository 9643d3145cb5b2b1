"""The four benchmark workloads: deck, wide, query and search.

Each workload builds its inputs from a seed in its constructor; that is the
set-up the benchmark times.  Then:

* ``prepare`` returns what a pass reads (the warm set for query, else None);
* ``run_pass`` times every public call the workload makes, one caller, no
  threads, and calls ``tick`` after every ``calibrate_every`` of them, so
  that run.py can take the machine's speed about four times a pass, or
  after every call where a call takes 0.1 s or more;
* ``traced_pass`` makes the same calls broken into one call per layer, in
  pipeline order, each inside a span of the tracer it is given;
* ``hilbert_gens`` lists the semigroups whose first ``hilbert_function``
  call is measured for peak memory.

``check`` verifies one output in full; the ``Checker`` in run.py calls it
once per item and afterwards only compares outputs for identity.  No check
depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

from numsem import (
    SearchConfig,
    SpParameters,
    apery_strata,
    audit_delta,
    build,
    check_chain_structure,
    check_offset3,
    check_offset4,
    check_power_apery_tail,
    classify_c3,
    cli,
    construct_sp,
    corpus,
    hilbert_function,
    induced_elements,
    is_symmetric,
    is_tangent_cone_cm,
    match_ap2_size4_case,
    maximal_representations,
    order_of,
    recover_sp_parameters,
    search_decreasing,
    search_results_csv,
    strata_tables,
    support_count_bound,
    support_size,
)

perf = time.perf_counter

# The twelve golden study instances of the test suite.
STUDY = [
    (13, 19, 24, 44, 49, 54, 55, 59, 60, 66),
    (17, 19, 22, 43, 45, 46, 47, 48, 49, 50, 52, 54, 59),
    (19, 21, 24, 46, 47, 49, 50, 51, 52, 53, 54, 55, 56, 58, 60),
    (19, 21, 24, 44, 46, 49, 50, 51, 52, 53, 54, 55, 56, 58, 60),
    (30, 33, 37, 73, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86,
     87, 88, 89, 91, 92, 94, 95, 98, 101),
    (30, 33, 37, 73, 76, 77, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88,
     89, 91, 92, 94, 95, 98, 101, 108),
    (17, 19, 22, 31, 40, 42, 43, 45, 46, 47, 49, 52, 54),
    (17, 22, 29, 37, 49, 64, 69, 70, 79, 82, 84, 89, 94),
    (19, 21, 24, 47, 49, 50, 51, 52, 53, 54, 55, 56, 58, 60),
    (19, 21, 24, 65, 68, 70, 71, 73, 74, 75, 77, 79),
    (19, 21, 24, 46, 49, 51, 52, 54, 55, 56, 58, 60),
    (30, 33, 37, 64, 68, 71, 73, 75, 76, 78, 79, 80, 82, 83, 84, 85, 86,
     87, 88, 89, 91, 92, 95),
]

# k' of the twelve e = 13 family members, by p; k = 1, (alpha, beta, gamma) = (2, 2, 3).
FAMILY_KPRIME = {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0,
                 8: -1, 9: -1, 10: -1, 11: -1, 12: -2}


def family_gens() -> list[tuple[int, ...]]:
    return [
        construct_sp(SpParameters(p, 1, kp, 2, 2, 3)).gens
        for p, kp in sorted(FAMILY_KPRIME.items())
    ]


# Input sizes.  "full" is the benchmark; "tiny" only exercises the harness.
SIZES = {
    "full": {
        "deck_random": 2200,
        "wide_ladder": (100, 200),
        "wide_random": (200, 400),
        "wide_hilbert": 400,
        "query_draws": 800,
        "query_elements": 11000,
        "query_budget": 64000,
        "query_order_reads": 8000,
        "search": (
            ("v3", dict(e_range=(13, 13), v_offset=3, gen_bound_per_e=12), 5782),
            ("v4", dict(e_range=(16, 18), v_offset=4, gen_bound=60), 88),
        ),
    },
    "tiny": {
        "deck_random": 6,
        "wide_ladder": (12, 20),
        "wide_random": (20, 30),
        "wide_hilbert": 30,
        "query_draws": 10,
        "query_elements": 20,
        "query_budget": 3000,
        "query_order_reads": 250,
        "search": (
            ("v3", dict(e_range=(13, 13), v_offset=3, gen_bound_per_e=4), 16),
            ("v4", dict(e_range=(15, 16), v_offset=4, gen_bound_per_e=3), 2),
        ),
    },
}


class ItemError:
    """Stands in for the output of a call that raised."""

    def __init__(self, exc: BaseException):
        self.text = "%s: %s" % (type(exc).__name__, exc)

    def __repr__(self) -> str:
        return "ItemError(%s)" % self.text


# -- deck and wide: the numsem CLI, in-process ------------------------------


class CliWorkload:
    """Semigroups run through ``numsem.cli.main`` with stdout in a buffer.

    An entry is (verb, gens, n) where n is set for the ladder <n, n+1>,
    whose invariants have a closed form.
    """

    latency_unit = "call"
    pause_gc = False

    def __init__(self, entries, calibrate_every: int):
        self.entries = entries
        self.calibrate_every = calibrate_every
        self.argvs = [
            [verb, ",".join(map(str, gens)), "--format", "json"]
            for verb, gens, _ in entries
        ]
        self.weights = [1] * len(entries)

    def prepare(self):
        return None

    def run_pass(self, ctx, keep=True, tick=None):
        lat, outs = [], []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = perf()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # an item that raises counts as failed
                    rc = ItemError(exc)
                t1 = perf()
            lat.append(t1 - t0)
            outs.append((rc, buf.getvalue()) if keep else None)
            if tick and len(lat) % self.calibrate_every == 0:
                tick()
        return lat, outs

    def traced_pass(self, tr, ctx):
        outs = []
        counts = {"core.window_bits": 0, "filtration.levels": 0}
        start = perf()
        for i, ((verb, gens, _), argv) in enumerate(zip(self.entries, self.argvs)):
            tr.item = i
            try:
                with tr.span("bench.item"):
                    _layered(tr, verb, gens, counts)
                    report = tr.call("cli.execute", _execute, argv)
                    text = tr.call("cli.render", cli.render, report, "json")
                outs.append((report.exit_code, text))
            except Exception as exc:
                outs.append((ItemError(exc), ""))
        return perf() - start, outs, counts

    def hilbert_gens(self, ctx):
        return [gens for _, gens, _ in self.entries]

    def canon(self, out):
        rc, text = out
        return ("%r\n%s" % (rc, text)).encode()

    def check(self, i, out, ctx):
        rc, text = out
        if rc != 0:
            return False
        verb, gens, n = self.entries[i]
        payload = json.loads(text)["payload"]
        if list(payload["generators"]) != sorted(gens):
            return False
        values = payload["hilbert"]["values"]
        e, f = payload["e"], payload["frobenius"]
        ok = values[0] == 1 and values[-1] == e
        if verb == "info":
            ok = ok and _check_info(payload)
        if n is not None:
            ok = (
                ok
                and f == n * n - n - 1
                and values == list(range(1, n + 1))
                and payload.get("tangent_cone_cm", True) is True
            )
        return ok


def _execute(argv):
    return cli.execute(cli.parse(argv))


def _layered(tr, verb, gens, counts):
    """The work of one `info` (or `hilbert`) call, one span per layer call."""
    S = tr.call("core.build", build, gens)
    if verb == "info":
        tr.call("core.apery", S.apery)
    tr.call("filtration.hilbert", hilbert_function, S)
    if verb == "info":
        tables = tr.call("filtration.tables", strata_tables, S)
        audit = tr.call("filtration.audit", audit_delta, S)
        if not audit.ok:
            raise AssertionError("delta audit failed for %s" % (gens,))
        tr.call("filtration.cm", is_tangent_cone_cm, S)
        strata = tr.call("grading.apery_strata", apery_strata, S)
        tr.call("structure.symmetric", is_symmetric, S)
        if strata.size(2) == 3:
            tr.call("structure.c3", classify_c3, S)
        if strata.size(2) == 4:
            tr.call("structure.ap24", match_ap2_size4_case, S)
        tr.call("structure.offset3", check_offset3, S)
        tr.call("structure.offset4", check_offset4, S)
        tr.call("structure.chain", check_chain_structure, S)
        tr.call("structure.tail", check_power_apery_tail, S)
        tr.call("structure.sp_recover", recover_sp_parameters, S)
    else:
        tables = strata_tables(S)  # already computed by hilbert_function
    counts["core.window_bits"] += S.f + tables.r_stop * S.e
    counts["filtration.levels"] += tables.r_stop


def _check_info(payload) -> bool:
    """Apery set shape and the per-level identity H(k) - H(k-1) = |C_k| - |D_k|."""
    e, f, ap = payload["e"], payload["frobenius"], payload["apery"]
    if len(ap) != e or len({a % e for a in ap}) != e or max(ap) != f + e:
        return False
    values = payload["hilbert"]["values"]
    c_sets, d_sets = payload["c_sets"], payload["d_sets"]
    top = max([len(values)] + [int(k) for k in c_sets] + [int(k) for k in d_sets]) + 1

    def h(n):
        return values[n] if n < len(values) else values[-1]

    for k in range(2, top + 1):
        sizes = len(c_sets.get(str(k), ())) - len(d_sets.get(str(k), ()))
        if h(k) - h(k - 1) != sizes:
            return False
    cm = all(not v for v in d_sets.values())
    return payload["tangent_cone_cm"] == cm


# At least three extra generators per sparse draw.  With the default of two,
# the three-generator draws have windows up to ten times wider, and which of
# them a seed happens to draw decided item_p99_ms by 25 % from seed to seed.
CORPUS_PICKS = (3, 9)


def deck(seed: int, size: str) -> CliWorkload:
    """Many small semigroups: the seeded corpus, the study set, the e = 13 family."""
    n = SIZES[size]["deck_random"]
    gens = [S.gens for S in corpus.random_corpus(seed, n, dense_every=3, picks=CORPUS_PICKS)]
    gens += STUDY + family_gens()
    return CliWorkload([("info", g, None) for g in gens], calibrate_every=560)  # 4 per pass


def wide(seed: int, size: str) -> CliWorkload:
    """A few large windows: the ladder <n, n+1>, two seeded draws, one hilbert."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    entries = [("info", (n, n + 1), n) for n in cfg["wide_ladder"]]
    for e in cfg["wide_random"]:
        # span 6 with at least 5 picks keeps the window (f + r*e) within about
        # a factor of two across seeds; fewer picks give rare draws with a
        # window ten times wider, which would make the seed decide the pass time.
        S = corpus.random_semigroup(rng, e_min=e, e_max=e, span=6, picks=(5, 9))
        entries.append(("info", S.gens, None))
    n = cfg["wide_hilbert"]
    entries.append(("hilbert", (n, n + 1), n))
    return CliWorkload(entries, calibrate_every=1)


# -- query: point reads on warm semigroups ----------------------------------


def _elements(S, cap: int | None = None) -> list[int]:
    """The elements of every C_k and D_k of S, ascending; at most ``cap`` of
    them, evenly spaced, when a cap is given."""
    tables = strata_tables(S)
    found = sorted({s for sets in (tables.c_sets, tables.d_sets) for v in sets.values() for s in v})
    if cap is None or len(found) <= cap:
        return found
    return [found[j * len(found) // cap] for j in range(cap)]


# The reads of a corpus semigroup cover at most this many of its C_k / D_k
# elements.  Uncapped, one large draw (e = 40, 165 elements) made half of a
# pass's slowest reads, and which draws a seed made moved item_p99_ms by 16 %
# (quartile spread over ten seeds); capped at 25 that was 6 %.
QUERY_CAP = 25


class QueryWorkload:
    """order_of reads, then maximal representations and what hangs off them.

    The warm set is built and swept (Hilbert function and D/C tables) before
    every pass, outside the timed region, so that every pass pays for the
    window growth the far ``order_of`` reads cause.
    """

    latency_unit = "query"
    calibrate_every = 16000  # 4 per pass
    # A read takes 2 to 100 microseconds, as long as one young-generation
    # collection, so the timed passes run with the cyclic collector paused
    # (as timeit does); run.py collects before each pass, outside the timing.
    pause_gc = True

    def __init__(self, seed: int, size: str):
        cfg = SIZES[size]
        self.gens = list(STUDY) + family_gens()
        self.fixed = len(self.gens)  # read in full; the corpus slice is capped
        # The corpus slice runs until it holds a fixed number of C_k / D_k
        # elements, more than a pass of ``budget`` reads gets to.  Every pass,
        # whatever the seed, makes the same number of reads.
        self.budget = cfg["query_budget"]
        count = 0
        for S in corpus.random_corpus(seed, cfg["query_draws"], dense_every=3, picks=CORPUS_PICKS):
            if count >= cfg["query_elements"]:
                break
            count += len(_elements(S, QUERY_CAP))
            self.gens.append(S.gens)
        rng = random.Random(seed)
        warm = self.prepare()
        windows = [S.f + strata_tables(S).r_stop * S.e for S, _ in warm]
        self.order_queries = []
        for q in range(cfg["query_order_reads"]):
            idx = q % len(warm)
            S, window = warm[idx][0], windows[idx]
            if q % 10 == 9:  # one read in ten lands far past the window
                s = rng.randint(2 * window, 4 * window)
            else:
                s = rng.randint(0, window)
                while not S.contains(s):
                    s = rng.randint(0, window)
            self.order_queries.append((idx, s))
        self.weights = None  # one per query; known only after a pass

    def prepare(self):
        warm = []
        for i, gens in enumerate(self.gens):
            S = build(gens)
            hilbert_function(S)
            warm.append((S, _elements(S, None if i < self.fixed else QUERY_CAP)))
        return warm

    def _plan(self, warm):
        """Every read of a pass, in order, as (key, function, args).

        The result of each read is sent back into the generator, which needs
        the maximal representations to plan the reads that hang off them.
        """
        for idx, s in self.order_queries:
            yield ("order_of", idx, s), order_of, (warm[idx][0], s)
        for idx, (S, elements) in enumerate(warm):
            for s in elements:
                reps = yield ("maxrep", idx, s), maximal_representations, (S, s)
                yield ("support", idx, s), support_size, (S, s)
                if isinstance(reps, ItemError):
                    continue
                for r, rep in enumerate(reps):
                    for h in range(1, rep.order):
                        yield ("induced", idx, s, r, h), induced_elements, (rep, h)
                        if h >= 2 and rep.coeffs[0] == 0:
                            yield ("bound", idx, s, r, h), support_count_bound, (rep, h)

    def _queries(self, call, warm):
        """Make the first ``budget`` reads of the plan through ``call``."""
        plan = self._plan(warm)
        value = None
        for _ in range(self.budget):
            try:
                key, fn, args = plan.send(value)
            except StopIteration:
                return
            value = call(key, fn, *args)

    def run_pass(self, ctx, keep=True, tick=None):
        lat, outs = [], []

        def call(key, fn, *args):
            t0 = perf()
            try:
                value = fn(*args)
            except Exception as exc:
                value = ItemError(exc)
            lat.append(perf() - t0)
            outs.append((key, value) if keep else None)
            if tick and len(lat) % self.calibrate_every == 0:
                tick()
            return value

        self._queries(call, ctx)
        return lat, outs

    def traced_pass(self, tr, ctx):
        outs = []
        counts = {"grading.reps": 0}
        names = {
            "order_of": "grading.order_of",
            "maxrep": "grading.maxrep",
            "support": "grading.support",
            "induced": "grading.induced",
            "bound": "combinatorics.bound",
        }

        def call(key, fn, *args):
            tr.item = len(outs)
            try:
                value = tr.call(names[key[0]], fn, *args)
            except Exception as exc:
                value = ItemError(exc)
            if key[0] == "maxrep" and not isinstance(value, ItemError):
                counts["grading.reps"] += len(value)
            outs.append((key, value))
            return value

        start = perf()
        with tr.span("bench.pass"):
            self._queries(call, ctx)
        return perf() - start, outs, counts

    def hilbert_gens(self, ctx):
        return list(self.gens)

    def canon(self, out):
        key, value = out
        if not isinstance(value, ItemError):
            if key[0] == "maxrep":
                value = [rep.coeffs for rep in value]
            elif key[0] == "support":
                value = (value.size, value.per_rep_supports)
        return ("%r %r" % (key, value)).encode()

    def check(self, i, out, warm):
        key, value = out
        if isinstance(value, ItemError):
            return False
        kind, idx = key[0], key[1]
        S = warm[idx][0]
        if kind == "order_of":
            s = key[2]
            return value == 0 if s == 0 else 0 < value <= s // S.e
        if kind == "maxrep":
            s = key[2]
            k = order_of(S, s)
            return bool(value) and all(
                sum(rep.coeffs) == k
                and rep.order == k
                and sum(c * g for c, g in zip(rep.coeffs, rep.gens)) == s
                for rep in value
            )
        if kind == "support":
            reps = maximal_representations(S, key[2])
            return value.size == max(len(rep.support()) for rep in reps)
        if kind == "induced":
            h = key[4]
            return bool(value) and all(order_of(S, v) == h for v in value)
        return isinstance(value, int) and value >= 1  # bound


# -- search: bounded classification searches --------------------------------


class SearchWorkload:
    """``search_decreasing`` (workers=1) per configuration, then its CSV.

    The search space is fixed; the seed is only echoed.  An item is a search
    cell (e, n_i), so each configuration weighs as many items as it has cells.
    """

    latency_unit = "configuration"
    pause_gc = False
    calibrate_every = 1

    def __init__(self, seed: int, size: str):
        self.configs = [
            (name, SearchConfig(**kwargs), hits)
            for name, kwargs, hits in SIZES[size]["search"]
        ]
        self.weights = [cells(cfg) for _, cfg, _ in self.configs]
        self.last_hits = []

    def prepare(self):
        return None

    def run_pass(self, ctx, keep=True, tick=None):
        lat, outs = [], []
        for name, cfg, _ in self.configs:
            t0 = perf()
            try:
                hits = search_decreasing(cfg)
                out = (len(hits), search_results_csv(hits))
            except Exception as exc:
                out = (ItemError(exc), "")
            lat.append(perf() - t0)
            outs.append(out if keep else None)
            if tick and len(lat) % self.calibrate_every == 0:
                tick()
        return lat, outs

    def traced_pass(self, tr, ctx):
        outs = []
        found = []
        start = perf()
        for name, cfg, _ in self.configs:
            tr.item = name
            try:
                hits = tr.call("search." + name, search_decreasing, cfg)
                with tr.span("search.reverify"):
                    for j, S in enumerate(hits):
                        tr.item = "%s/%d" % (name, j)
                        T = tr.call("core.build", build, S.gens)
                        tr.call("filtration.hilbert", hilbert_function, T)
                tr.item = name
                csv = tr.call("search.csv", search_results_csv, hits)
                outs.append((len(hits), csv))
                found.extend(S.gens for S in hits)
            except Exception as exc:
                outs.append((ItemError(exc), ""))
        self.last_hits = found
        n_cells = sum(self.weights)
        counts = {
            "search.cells": n_cells,
            "search.hits": len(found),
            "search.hit_ratio": len(found) / n_cells,
        }
        return perf() - start, outs, counts

    def hilbert_gens(self, ctx):
        return list(self.last_hits)

    def canon(self, out):
        count, csv = out
        return ("%r\n%s" % (count, csv)).encode()

    def check(self, i, out, ctx):
        count, csv = out
        if count != self.configs[i][2]:
            return False
        rows = csv.splitlines()
        if rows[0] != "e,v,generators,hilbert,decreasing_levels" or len(rows) != count + 1:
            return False
        for row in rows[1:]:
            e, _, _, hilbert, decreasing = row.split(",")
            if not decreasing or hilbert.split(";")[-1] != e:
                return False
        return True


def cells(cfg: SearchConfig) -> int:
    """Number of search cells (e, n_i): e in range, e < n_i <= bound, e not dividing n_i."""
    lo, hi = cfg.e_range
    total = 0
    for e in range(lo, hi + 1):
        bound = cfg.bound_for(e)
        total += (bound - e) - (bound // e - 1)
    return total


WORKLOADS = {"deck": deck, "wide": wide, "query": QueryWorkload, "search": SearchWorkload}

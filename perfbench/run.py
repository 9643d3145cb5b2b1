"""numsem benchmark: one seeded workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload deck --seed 1 --seconds 20 --trace 0

Run from the root of a numsem checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run times whole passes over the
workload and prints the end-to-end metrics; with ``--trace 1`` it times the
same work broken into one span per layer call and prints the per-layer
metrics, writing the spans to ``perfbench/out/``.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
SETUP_RUNS = 9
# End-to-end times are reported in units of this much calibration-loop time;
# see calibrate() and NOTES.md.
CAL_REF_S = 0.005
perf = time.perf_counter

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_mb": "MB",
}

# Span names whose total time is a per-layer metric (metric = name + "_s").
SPAN_METRICS = (
    "core.build", "core.apery",
    "filtration.hilbert", "filtration.tables", "filtration.audit", "filtration.cm",
    "grading.apery_strata", "grading.order_of", "grading.maxrep",
    "grading.support", "grading.induced",
    "combinatorics.bound",
    "structure.symmetric", "structure.offset3", "structure.offset4",
    "structure.chain", "structure.tail", "structure.c3", "structure.ap24",
    "structure.sp_recover",
    "search.v3", "search.v4", "search.reverify", "search.csv",
    "cli.execute", "cli.render",
)
LAYERS = ("bench", "core", "filtration", "grading", "combinatorics",
          "structure", "search", "cli")
COUNT_METRICS = {
    "core.window_bits": "bit",
    "filtration.levels": "count",
    "grading.reps": "count",
    "search.cells": "count",
    "search.hits": "count",
    "search.hit_ratio": "hit/cell",
}


def per_layer_units() -> dict[str, str]:
    units = {"setup.import_s": "s"}
    units.update((name + "_s", "s") for name in SPAN_METRICS)
    units.update(COUNT_METRICS)
    units["filtration.hilbert_peak_mb"] = "MB"
    units.update((layer + ".self_s", "s") for layer in LAYERS)
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def import_numsem():
    """Import numsem from this checkout's src/, never from elsewhere."""
    init = SRC / "numsem" / "__init__.py"
    if not init.is_file():
        raise SystemExit("perfbench: %s not found; run from a numsem checkout" % init)
    sys.path.insert(0, str(SRC))
    t0 = perf()
    import numsem

    took = perf() - t0
    if Path(numsem.__file__).resolve() != init.resolve():
        raise SystemExit("perfbench: imported numsem from %s, not %s" % (numsem.__file__, init))
    return took


# -- set-up -------------------------------------------------------------------


def probe(args) -> None:
    """Child side of the set-up and peak-memory measurements.

    Imports numsem and builds the workload's inputs, then says so on stdout.
    The peak probe then runs one pass and reports the process's peak
    resident memory.
    """
    import_s = import_numsem()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size)
    print(json.dumps({"import_s": import_s}), flush=True)
    if args.probe == "peak":
        wl.run_pass(wl.prepare(), keep=False)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_mb": maxrss_kb / 1024}), flush=True)


def run_probe(args, kind: str) -> tuple[float, dict]:
    """Seconds until a fresh interpreter has its inputs, and what it reported."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", kind, "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    t0 = perf()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        took = perf() - t0
        rest = proc.stdout.read()
        if proc.wait(timeout=170) != 0 or not ready:
            raise SystemExit("perfbench: %s probe failed" % kind)
    reported = json.loads(ready)
    for line in rest.splitlines():
        reported.update(json.loads(line))
    return took, reported


def measure_setup(args) -> tuple[float, float, float]:
    """Median set-up time over fresh interpreters, unscaled and at reference
    speed (see calibrate()), and the median import time."""
    setups, scaled, imports = [], [], []
    before = calibrate()
    for _ in range(SETUP_RUNS):
        took, reported = run_probe(args, "setup")
        after = calibrate()
        setups.append(took)
        scaled.append(took * 2 * CAL_REF_S / (before + after))
        imports.append(reported["import_s"])
        before = after
    return statistics.median(setups), statistics.median(scaled), statistics.median(imports)


def calibrate() -> float:
    """Median of five runs of a fixed pure-Python loop, in seconds.

    Other tenants of a shared host slow this loop and numsem alike, by up to
    1.9 times and for seconds to minutes at a time.  End-to-end times are
    therefore reported at reference speed: each run of a workload's
    ``calibrate_every`` items, and each set-up probe, is multiplied by
    CAL_REF_S over the mean of the calibrations taken just before and just
    after it.
    """
    runs = []
    for _ in range(5):
        t0 = perf()
        table, acc, bits = {}, 0, (1 << 3000) | 0x9E3779B97F4A7C15
        for i in range(20000):
            x = (bits >> (i % 3000)) & 0xFFFF
            table[i & 511] = x
            acc += x % 7
        runs.append(perf() - t0)
    return statistics.median(runs)


# -- output checks --------------------------------------------------------------


class Checker:
    """Checks each item's output in full once, then only for identity.

    Each pass also gets a digest over all its outputs.  Where a frozen digest
    applies, a mismatch fails every item of the pass.
    """

    def __init__(self, workload, expected_digest: str | None):
        self.wl = workload
        self.expected = expected_digest
        self.ref: dict[int, tuple[bytes, bool]] = {}
        self.digests: set[str] = set()
        self.errors: list[str] = []

    def verify(self, outs, ctx) -> tuple[int, int]:
        """(items attempted, items failed) for one pass."""
        weights = self.wl.weights or [1] * len(outs)
        digest = hashlib.sha256()
        failed = 0
        for i, (out, weight) in enumerate(zip(outs, weights)):
            key = hashlib.blake2b(self.wl.canon(out), digest_size=16).digest()
            digest.update(key)
            if i not in self.ref:
                self.ref[i] = (key, self._check(i, out, ctx))
            ref_key, ok = self.ref[i]
            if not (ok and key == ref_key):
                failed += weight
        hexdigest = digest.hexdigest()
        self.digests.add(hexdigest)
        attempted = sum(weights[: len(outs)])
        if len(outs) != len(weights) or (self.expected and hexdigest != self.expected):
            message = "digest %s does not match %s" % (hexdigest, self.expected)
            if message not in self.errors:
                self.errors.append(message)
            failed = attempted
        return attempted, failed

    def _check(self, i, out, ctx) -> bool:
        try:
            ok = self.wl.check(i, out, ctx)
        except Exception as exc:
            ok = False
            self.errors.append("item %d: check raised %s: %s" % (i, type(exc).__name__, exc))
        if not ok and len(self.errors) < 20:
            self.errors.append("item %d failed: %.200r" % (i, out))
        return ok


def expected_digest(workload: str, seed: int, size: str) -> str | None:
    frozen = json.loads(EXPECTED.read_text())[size]
    if seed == frozen["seed"] or workload in frozen["seed_independent"]:
        return frozen[workload]
    return None


# -- statistics -----------------------------------------------------------------


def latency_percentiles(passes_lat: list[list[float]]) -> tuple[float, float, int, int]:
    """(p50, tail, tail percentile, sample count) over per-item latencies.

    One sample per item: its median latency across passes, so the sample
    count is fixed by the input, not by how many passes fit in the run.  The
    tail is p99 when at least ten samples lie beyond it, else the highest
    percentile that has ten beyond, and never below the median.
    """
    n = min(len(lat) for lat in passes_lat)
    samples = sorted(statistics.median(lat[i] for lat in passes_lat) for i in range(n))
    q = max(50, min(99, math.floor(100 * (n - 10) / n)))
    tail = samples[max(0, math.ceil(q * n / 100) - 1)]
    p50 = statistics.median(samples)
    return p50, max(tail, p50), q, n


def measure_peak(fn) -> float:
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# -- the two kinds of run ----------------------------------------------------------


def run_plain(args, wl, checker, report) -> tuple[dict, int, int]:
    begin = perf()
    _, reported = run_probe(args, "peak")
    peak_took = perf() - begin
    walls, scales, lats = [], [], []
    attempted = failed = 0
    begin = perf()
    before = calibrate()
    while not walls or perf() - begin < args.seconds:
        ctx = wl.prepare()
        gc.collect()
        cals = [before]
        if wl.pause_gc:
            gc.disable()
        try:
            lat, outs = wl.run_pass(ctx, tick=lambda: cals.append(calibrate()))
        finally:
            gc.enable()
        every = wl.calibrate_every
        if len(lat) % every:
            cals.append(calibrate())
        chunk_scales = [2 * CAL_REF_S / (x + y) for x, y in zip(cals, cals[1:])]
        lats.append([x * chunk_scales[i // every] for i, x in enumerate(lat)])
        before = cals[-1]
        a, f = checker.verify(outs, ctx)
        attempted, failed = attempted + a, failed + f
        walls.append(sum(lat))
        scales.append(sum(lats[-1]) / walls[-1])
    wall_s = statistics.median(sum(lat) for lat in lats)
    p50, tail, q, n = latency_percentiles(lats)
    items = sum(wl.weights) if wl.weights else len(lats[0])
    report("peak probe %.1f s; %d timed passes in %.1f s" % (peak_took, len(walls), perf() - begin))
    report("pass times (sum of item latencies) %s s, scaled to reference speed by %s" % (
        " ".join("%.4f" % w for w in walls), " ".join("%.3f" % k for k in scales)))
    report("latency per %s: median of %d passes for each of n=%d samples; "
           "item_p99_ms is p%d" % (wl.latency_unit, len(walls), n, q))
    metrics = {
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "item_p50_ms": p50 * 1e3,
        "item_p99_ms": tail * 1e3,
        "peak_mb": reported["peak_mb"],
    }
    return metrics, attempted, failed


def run_traced(wl, checker, seconds, report, trace_path) -> tuple[dict, int, int]:
    """Traced passes alternating with untraced twins; metrics from the fastest traced one."""
    from numsem import build, hilbert_function
    from tracing import NullTracer, Tracer, summarize

    plain_walls, traced = [], []
    attempted = failed = 0
    begin = perf()
    while not traced or perf() - begin < seconds:
        pair = (NullTracer(), Tracer())
        for tracer in pair if len(traced) % 2 == 0 else pair[::-1]:
            ctx = wl.prepare()
            wall, outs, counts = wl.traced_pass(tracer, ctx)
            a, f = checker.verify(outs, ctx)
            attempted, failed = attempted + a, failed + f
            if isinstance(tracer, Tracer):
                traced.append((wall, tracer.spans, counts))
            else:
                plain_walls.append(wall)
    wall, spans, counts = min(traced, key=lambda t: t[0])
    total, own = summarize(spans)

    ctx = wl.prepare()
    hilbert_peak = 0.0
    for gens in wl.hilbert_gens(ctx):
        S = build(gens)
        hilbert_peak = max(hilbert_peak, measure_peak(lambda: hilbert_function(S)))

    metrics = {name + "_s": total.get(name, 0.0) for name in SPAN_METRICS}
    metrics.update((layer + ".self_s", own.get(layer, 0.0)) for layer in LAYERS)
    metrics.update((name, counts.get(name, 0)) for name in COUNT_METRICS)
    metrics["filtration.hilbert_peak_mb"] = hilbert_peak
    metrics["trace.overhead_s"] = wall - min(plain_walls)
    metrics["trace.spans"] = len(spans)
    report("traced passes: %s s; untraced twins: %s s; reporting the fastest traced pass" % (
        " ".join("%.4f" % t[0] for t in traced), " ".join("%.4f" % w for w in plain_walls)))
    report("self time of the layers covers %.4f s of that pass's %.4f s" % (sum(own.values()), wall))
    OUT.mkdir(exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"fields": ["id", "parent", "item", "name", "start", "end"],
                   "spans": spans}, fh, separators=(",", ":"))
    report("its spans are in %s" % trace_path.relative_to(ROOT))
    return metrics, attempted, failed


def main(argv=None, expected: str | None = "frozen") -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["deck", "wide", "query", "search"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: minutes-to-seconds inputs for the harness smoke test")
    ap.add_argument("--probe", choices=["setup", "peak"], help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe:
        probe(args)
        return {}

    import_numsem()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    def report(line: str) -> None:
        print("# " + line)

    report("workload %s seed %d size %s trace %d" % (args.workload, args.seed, args.size, args.trace))
    took = perf()
    setup_raw, setup_s, import_s = measure_setup(args)
    report("set-up probes took %.1f s" % (perf() - took))
    wl = WORKLOADS[args.workload](args.seed, args.size)
    if expected == "frozen":
        expected = expected_digest(args.workload, args.seed, args.size)
    checker = Checker(wl, expected)
    if args.trace:
        trace_path = OUT / ("trace_%s_%d.json" % (args.workload, args.seed))
        metrics, attempted, failed = run_traced(wl, checker, args.seconds, report, trace_path)
        metrics["setup.import_s"] = import_s
        units = per_layer_units()
    else:
        metrics, attempted, failed = run_plain(args, wl, checker, report)
        metrics["setup_s"] = setup_s
        units = END_TO_END
    report("set-up: median of %d fresh interpreters, %.4f s unscaled (import %.4f s)"
           % (SETUP_RUNS, setup_raw, import_s))
    report("output digest %s, frozen %s" % (" ".join(sorted(checker.digests)), expected))
    for line in checker.errors[:20]:
        report("check: " + line)
    report("failed_ratio %s (%d of %d items)" % (failed / attempted, failed, attempted))
    for name in units:
        report("%-28s %14.6g %s" % (name, metrics[name], units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()

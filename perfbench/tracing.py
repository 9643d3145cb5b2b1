"""In-memory spans around the benchmark's calls into numsem.

A span is (id, parent id, item id, name, start, end).  The layer is the part
of the name before the first dot.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    """Records a span around every ``span`` block and every ``call``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def call(self, name: str, fn, *args):
        with _Span(self, name):
            return fn(*args)


class NullTracer:
    """The same interface, recording nothing: the untraced twin of a pass."""

    item = None

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN

    def call(self, name: str, fn, *args):
        return fn(*args)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "item", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._open[-1] if tr._open else None
        self.item = tr.item
        tr._open.append(self.sid)
        self.start = perf()
        return self

    def __exit__(self, *exc):
        end = perf()
        tr = self.tracer
        tr._open.pop()
        tr.spans[self.sid] = (self.sid, self.parent, self.item, self.name, self.start, end)
        return False


def summarize(spans) -> tuple[dict, dict]:
    """Total seconds per span name, and self seconds per layer.

    A span's self time is its duration minus the time its children cover;
    children of one span run one after another, so that is the sum of their
    durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, item, name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for sid, parent, item, name, start, end in spans:
        total[name] += end - start
        own[name.split(".", 1)[0]] += end - start - covered[sid]
    return dict(total), dict(own)

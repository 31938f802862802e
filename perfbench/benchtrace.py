"""Spans recorded around the benchmark's own calls into cklef.

A span is (name, start, end, parent, case).  Spans are kept in memory and
written out with the case result when the child exits.  With tracing off
every ``span`` call returns one shared no-op context, so the untraced run
pays only an attribute lookup and a method call per wrapped call.
"""

from __future__ import annotations

import time


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name
        self.index = -1

    def __enter__(self):
        rec = self.rec
        parent = rec.stack[-1] if rec.stack else None
        self.index = len(rec.spans)
        rec.spans.append([self.name, time.perf_counter(), None, parent, rec.case])
        rec.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.index][2] = time.perf_counter()
        rec.stack.pop()
        return False


class Recorder:
    """Collects spans for one case; ``enabled=False`` records nothing."""

    def __init__(self, case: str, enabled: bool):
        self.case = case
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children.

    Spans of one case come from one thread and nest properly, so the time
    children cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals

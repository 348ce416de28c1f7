"""In-memory span recorder and the arithmetic the per-module metrics use.

A span is one call of a wrapped function: its name (``module.operation``),
start and end on the ``perf_counter`` clock, the span that was open when it
started (its parent), and the run it belongs to. Spans stay in memory while
the benchmark runs and are written out once at the end.

This file knows nothing about the simulator; ``probes.py`` decides which of
its functions get wrapped and under which names.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

__all__ = [
    "Span",
    "Tracer",
    "covered",
    "self_time",
    "children_index",
    "in_call_order",
    "layer_gaps",
]


class Span:
    """One recorded call. ``counts`` holds work counted while it was the
    innermost open span (or by its own note hook)."""

    __slots__ = ("id", "name", "parent", "run", "start", "end", "counts")

    def __init__(self, id, name, parent, run, start, end=None, counts=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = start
        self.end = end
        self.counts = counts if counts is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "run": self.run,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Records a span around every call of the functions it wraps.

    Single-threaded by design: the simulator runs one client after another,
    so a plain stack of open spans gives each call its parent.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[Span] = []

    def wrap(self, func, name, note=None):
        """Return ``func`` wrapped in a span named ``name``. ``note(span, args,
        kwargs, result)`` runs after the call, outside the timed interval."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, parent, self.run, self.clock())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` of the innermost open span."""
        if self._open:
            counts = self._open[-1].counts
            counts[name] = counts.get(name, 0) + amount

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it covered by its children."""
    return span.duration - covered(
        [(c.start, c.end) for c in children], span.start, span.end
    )


def children_index(spans) -> dict[int, list[Span]]:
    """Parent id -> its child spans in start order."""
    index: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            index[span.parent].append(span)
    for kids in index.values():
        kids.sort(key=lambda s: s.start)
    return index


def in_call_order(children, name: str) -> list[Span]:
    """The children named ``name``; the k-th one served network layer k."""
    return [c for c in children if c.name == name]


def layer_gaps(parent: Span, children, first: str, last: str) -> list[float]:
    """Per layer k, the time from the end of layer k's ``last`` call to the
    start of layer k+1's ``first`` call (or to the end of ``parent`` for the
    final layer): the work a layered loop does after its traced steps."""
    starts = [c.start for c in in_call_order(children, first)]
    ends = [c.end for c in in_call_order(children, last)]
    nexts = starts[1:] + [parent.end]
    return [nxt - end for end, nxt in zip(ends, nexts)]

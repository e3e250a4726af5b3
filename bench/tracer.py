"""Outside-in span tracer: wraps attributes, never edits the package source.

A :class:`Tracer` replaces a module function or a class method with a
wrapper that records one span per call (name, start, end, parent span) and
an optional per-span count. Spans live in flat arrays while the run lasts
and are written out by :meth:`Tracer.dump` once it ends. Leaving the
``with`` block puts every original attribute back.

Self time of a span is its duration minus the durations of its direct
children. Calls nest strictly on one thread, so every self time is >= 0
and the self times of a tree add up exactly to its root's duration.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path


class Tracer:
    """Span recorder for wrapped callables on a single thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def patch(self, owner, attr: str, span: str, *, count=None, delta=None) -> None:
        """Wrap ``owner.attr`` so that each call records a span named ``span``.

        ``count(result)`` stores a count on the span after the call;
        ``delta(args)`` is taken before and after the call and the
        difference is stored instead. The original is looked up in the
        owner's own ``__dict__`` so that restoring puts back exactly the
        object that was there (a plain function for a method).
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, span, count, delta))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span: str, count, delta):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends, counts = (
            self.name, self.parent, self.start, self.end, self.count
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            counts.append(-delta(args) if delta is not None else 0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if delta is not None:
                counts[i] += delta(args)
            elif count is not None:
                counts[i] = count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self nanoseconds, summed counts."""
        return summarize(self.names, self.name, self.parent, self.start, self.end, self.count)

    def dump(self, path: Path) -> None:
        """Write the raw spans: a JSON header line, then the packed arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "arrays": [[key, getattr(self, key).typecode] for key in _ARRAYS],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for key in _ARRAYS:
                getattr(self, key).tofile(handle)


_ARRAYS = ("name", "parent", "start", "end", "count")


def summarize(names, name, parent, start, end, count) -> dict[str, dict[str, int]]:
    """Aggregate spans by name; ``self_ns`` excludes direct children.

    ``min_self_ns`` < 0 would mean a child outlived its parent, i.e. the
    spans do not nest and the self times cannot be trusted.
    """
    n = len(name)
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    out = {
        label: {"calls": 0, "total_ns": 0, "self_ns": 0, "min_self_ns": 0, "count": 0}
        for label in names
    }
    for i in range(n):
        row = out[names[name[i]]]
        duration = end[i] - start[i]
        own = duration - child_ns[i]
        row["min_self_ns"] = own if row["calls"] == 0 else min(row["min_self_ns"], own)
        row["calls"] += 1
        row["total_ns"] += duration
        row["self_ns"] += own
        row["count"] += count[i]
    return out


def root_ns(parent, start, end) -> int:
    """Summed duration of the spans that have no parent span."""
    return sum(end[i] - start[i] for i in range(len(parent)) if parent[i] < 0)

"""Spans around the benchmark's calls into the library.

Spans are recorded from outside the library, at each call the benchmark
makes into a module's public function, and kept in flat arrays until the
phase ends.  Each span has a name, a start, an end, a parent span and the
item it belongs to; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter


class NoTrace:
    """Stand-in used for the untraced, end-to-end phase."""

    active = False

    def call(self, name, fn, *args):
        return fn(*args)

    def begin_item(self, item: int, tag: str = "") -> None:
        pass

    def end_item(self) -> None:
        pass


class Tracer:
    active = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.tags: dict[int, str] = {}
        self._stack: list[int] = []
        self._item = -1

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def begin_item(self, item: int, tag: str = "") -> None:
        self._item = item
        if tag:
            self.tags[item] = tag
        self._open("item")

    def end_item(self) -> None:
        self._close(self._stack[-1])
        self._item = -1

    def summary(self) -> dict:
        """Per span name: calls, busy (self) seconds and median duration;
        per (name, item tag): median duration."""
        n = len(self.name)
        child = [0.0] * n
        durations: dict[str, list[float]] = {}
        busy: dict[str, float] = {}
        by_tag: dict[tuple[str, str], list[float]] = {}
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += d
        for i in range(n):
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            durations.setdefault(name, []).append(d)
            busy[name] = busy.get(name, 0.0) + d - child[i]
            tag = self.tags.get(self.item[i])
            if tag:
                by_tag.setdefault((name, tag), []).append(d)
        return {
            "spans": n,
            "layers": {name: {"calls": len(ds), "busy_s": busy[name],
                              "p50_us": statistics.median(ds) * 1e6}
                       for name, ds in durations.items()},
            "tagged_p50_us": {f"{name}.{tag}": statistics.median(ds) * 1e6
                              for (name, tag), ds in by_tag.items()},
        }

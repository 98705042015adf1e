"""In-memory spans around calls into the package's layers.

A span records name, start, end, parent span and thread id.  Spans opened on
a worker thread that has no open span of its own (the library's simulation
thread pool) take the innermost open span of the thread that created the
tracer as parent, so filter-kernel spans nest under their `run_sk_scheme`.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Spans kept in memory.  `phase` tags each span as the measured loop's
    ("workload") or the layer probe's; `enabled` turns recording off for the
    untraced cycles of a traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "workload"
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        rec = {"name": name, "phase": self.phase, "parent": parent,
               "thread": threading.get_ident(), "start": time.perf_counter(),
               "end": None, **attrs}
        with self._lock:
            idx = rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def select(self, name: str) -> list[dict]:
        """Closed spans named `name`: the workload's if it made any, else the
        layer probe's."""
        done = [s for s in self.spans if s["name"] == name and s["end"] is not None]
        own = [s for s in done if s["phase"] == "workload"]
        return own or [s for s in done if s["phase"] == "probe"]

    def median(self, name: str) -> float | None:
        spans = self.select(name)
        if not spans:
            return None
        return statistics.median(s["end"] - s["start"] for s in spans)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            if s["end"] is None:
                out.append(0.0)
                continue
            covered = union_length(
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(i, ()) if c["end"] > s["start"] and c["start"] < s["end"])
            out.append(s["end"] - s["start"] - covered)
        return out

    def export(self) -> list[dict]:
        """Spans with times relative to the first span, plus self time."""
        if not self.spans:
            return []
        base = self.spans[0]["start"]
        return [
            {**s, "start": s["start"] - base,
             "end": None if s["end"] is None else s["end"] - base,
             "self": self_s}
            for s, self_s in zip(self.spans, self.self_times())
        ]

"""In-memory spans around calls into the program's public functions.

The traced run wraps layer entry points from the benchmark's own code
(the program is not edited): each call records ``(name, start, end,
parent)`` in memory, and :meth:`Tracer.dump` writes them once at exit.
A layer's self time is its spans' time minus the time its direct child
spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: "list[tuple]" = []  # (id, name, start, end, parent, count)
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result)`` optionally records a work count
        on the span (for example shapes per ``plan_batch`` call).
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = tracer._new_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = count(args, kwargs, result) if count is not None else 1
            with tracer._lock:
                tracer.spans.append((sid, name, start, end, parent, n))
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with self._lock:
            rows = list(self.spans)
        with open(path, "w") as fh:
            json.dump(rows, fh)


def load_spans(path: str) -> "list[tuple]":
    with open(path) as fh:
        return [tuple(row) for row in json.load(fh)]


def layer_summary(spans) -> "dict[str, dict]":
    """Per span name: calls, work count, total, self time and per-call
    durations (seconds)."""
    child_time: "dict[int, float]" = {}
    for _sid, _name, start, end, parent, _n in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: "dict[str, dict]" = {}
    for sid, name, start, end, _parent, n in spans:
        slot = out.setdefault(
            name, {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0,
                   "durations": []}
        )
        duration = end - start
        slot["calls"] += 1
        slot["count"] += n
        slot["total_s"] += duration
        slot["self_s"] += max(0.0, duration - child_time.get(sid, 0.0))
        slot["durations"].append(duration)
    return out


def self_time_report(summary: "dict[str, dict]") -> dict:
    """Printable per-layer self/total time (no per-call lists)."""
    return {
        name: {
            "calls": s["calls"],
            "self_s": round(s["self_s"], 6),
            "total_s": round(s["total_s"], 6),
        }
        for name, s in sorted(summary.items())
    }

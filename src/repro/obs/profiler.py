"""Hierarchical span profiler with thread/process-safe aggregation.

Design goals, in priority order:

1. **Near-zero overhead when disabled.**  :func:`span` performs one module
   flag check and returns a shared no-op context manager — no allocation,
   no clock read, no locking.  Instrumentation can therefore live
   permanently in hot-ish paths (the executor, the corpus engine phases).
2. **Hierarchical.**  Spans nest via a per-thread stack; every completed
   span records its full slash-joined path (``corpus/evaluate/streamk``),
   so reports and flamegraphs reconstruct the call tree without any
   global registration.
3. **Mergeable.**  The collected state is a flat, picklable event list.
   Worker processes (``evaluate_corpus_sharded``) ship
   :func:`snapshot_profile` dictionaries back to the parent, which folds
   them in with :func:`merge_profile`; per-event ``pid``/``tid`` fields
   keep the provenance for the Perfetto export
   (:func:`repro.obs.export.profile_to_chrome`).

Activation: programmatic (:func:`enable_profiling`) or via the
``REPRO_PROFILE=1`` environment variable (read at import, and re-read by
the CLI through :func:`sync_profiling_with_env` so ``REPRO_PROFILE=1
python -m repro ...`` always works).  Timestamps are
:func:`time.perf_counter` seconds; clock origins differ between
processes, so cross-process exports normalize per-``pid``.
"""

from __future__ import annotations

import functools
import os
import threading
import time

__all__ = [
    "Profile",
    "SpanEvent",
    "disable_profiling",
    "enable_profiling",
    "get_profile",
    "merge_profile",
    "profiled",
    "profiler_report",
    "profiling_enabled",
    "reset_profile",
    "snapshot_profile",
    "span",
    "sync_profiling_with_env",
]

_ENV_PROFILE = "REPRO_PROFILE"

_TRUE_VALUES = ("1", "true", "yes", "on")


def _env_enabled() -> bool:
    return os.environ.get(_ENV_PROFILE, "").strip().lower() in _TRUE_VALUES


class SpanEvent:
    """One completed span: immutable, tuple-backed, picklable."""

    __slots__ = ("path", "start", "end", "pid", "tid", "depth")

    def __init__(
        self,
        path: str,
        start: float,
        end: float,
        pid: int,
        tid: int,
        depth: int,
    ):
        self.path = path
        self.start = start
        self.end = end
        self.pid = pid
        self.tid = tid
        self.depth = depth

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    def as_tuple(self) -> tuple:
        return (self.path, self.start, self.end, self.pid, self.tid, self.depth)

    @classmethod
    def from_tuple(cls, t: tuple) -> "SpanEvent":
        return cls(*t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpanEvent(%r, %.6f..%.6f, pid=%d, tid=%d, depth=%d)" % (
            self.path, self.start, self.end, self.pid, self.tid, self.depth
        )


class Profile:
    """Thread-safe collection of completed :class:`SpanEvent` records."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events: "list[SpanEvent]" = []

    # -- recording ----------------------------------------------------- #

    def record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    # -- access -------------------------------------------------------- #

    @property
    def events(self) -> "list[SpanEvent]":
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- merge / snapshot ---------------------------------------------- #

    def snapshot(self) -> dict:
        """Picklable representation (ships across process boundaries)."""
        return {
            "version": 1,
            "events": [e.as_tuple() for e in self.events],
        }

    def merge(self, snapshot: "dict | Profile") -> None:
        """Fold another profile (or snapshot dict) into this one."""
        if isinstance(snapshot, Profile):
            incoming = snapshot.events
        else:
            incoming = [SpanEvent.from_tuple(t) for t in snapshot.get("events", ())]
        with self._lock:
            self._events.extend(incoming)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- aggregation --------------------------------------------------- #

    def aggregate(self) -> "dict[str, dict]":
        """Per-path totals: ``{path: {count, total_s, self_s}}``.

        ``self_s`` is the time not attributed to any *direct* child span
        (children one path level deeper); it never goes below zero even
        for concurrent (multi-worker) children that overlap their parent.
        """
        agg: "dict[str, dict]" = {}
        for e in self.events:
            slot = agg.setdefault(e.path, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += e.duration
        for path, slot in agg.items():
            child_total = sum(
                other["total_s"]
                for other_path, other in agg.items()
                if other_path.startswith(path + "/")
                and "/" not in other_path[len(path) + 1:]
            )
            slot["self_s"] = max(0.0, slot["total_s"] - child_total)
        return agg

    def report(self, min_fraction: float = 0.0) -> str:
        """Fixed-width text table of aggregated spans, sorted by path."""
        agg = self.aggregate()
        if not agg:
            return "(no spans recorded; is profiling enabled?)"
        roots = [
            p for p in agg
            if not any(p.startswith(q + "/") for q in agg if q != p)
        ]
        grand = sum(agg[p]["total_s"] for p in roots) or 1.0
        lines = [
            "%-44s %7s %10s %10s %6s"
            % ("span", "count", "total", "self", "%")
        ]
        lines.append("-" * 80)
        for path in sorted(agg):
            slot = agg[path]
            frac = slot["total_s"] / grand
            if frac < min_fraction:
                continue
            depth = path.count("/")
            label = "  " * depth + path.rsplit("/", 1)[-1]
            lines.append(
                "%-44s %7d %9.3fs %9.3fs %5.1f%%"
                % (label[:44], slot["count"], slot["total_s"], slot["self_s"],
                   100.0 * frac)
            )
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Module-level profiler state                                            #
# --------------------------------------------------------------------- #

_PROFILE = Profile()
_ENABLED = _env_enabled()
_LOCAL = threading.local()


def profiling_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _ENABLED


def enable_profiling() -> None:
    """Start recording spans (idempotent)."""
    global _ENABLED
    _ENABLED = True


def disable_profiling() -> None:
    """Stop recording spans; already-recorded events are kept."""
    global _ENABLED
    _ENABLED = False


def sync_profiling_with_env() -> bool:
    """Re-read ``REPRO_PROFILE`` and set the enabled flag accordingly.

    The CLI calls this at entry so the environment variable works without
    caring about import order; returns the resulting enabled state.
    """
    global _ENABLED
    _ENABLED = _env_enabled()
    return _ENABLED


def get_profile() -> Profile:
    """The process-global profile all spans record into."""
    return _PROFILE


def reset_profile() -> None:
    """Drop all recorded spans and this thread's open-span stack.

    Clearing the stack matters for forked sweep workers: the child
    inherits the parent's thread-local stack (the parent forks while
    inside ``span("sharded_pool")``), and without a reset every worker
    span would be misrooted under the parent's open span.  The fabric
    worker entry point (``fabric._fabric_worker_main``) calls this
    before recording anything.
    """
    _PROFILE.clear()
    _LOCAL.stack = []


def snapshot_profile() -> dict:
    """Picklable snapshot of the global profile (worker -> parent)."""
    return _PROFILE.snapshot()


def merge_profile(snapshot: "dict | Profile") -> None:
    """Merge a worker snapshot into the global profile."""
    _PROFILE.merge(snapshot)


def profiler_report(min_fraction: float = 0.0) -> str:
    """Text report of the global profile (see :meth:`Profile.report`)."""
    return _PROFILE.report(min_fraction=min_fraction)


# --------------------------------------------------------------------- #
# Spans                                                                  #
# --------------------------------------------------------------------- #


class _NullSpan:
    """Shared no-op context manager: the disabled-profiler fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: pushes itself on the thread-local stack, records on exit."""

    __slots__ = ("name", "_path", "_depth", "_start")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        parent = stack[-1] if stack else None
        self._path = (parent + "/" + self.name) if parent else self.name
        self._depth = len(stack)
        stack.append(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        _LOCAL.stack.pop()
        _PROFILE.record(
            SpanEvent(
                path=self._path,
                start=self._start,
                end=end,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=self._depth,
            )
        )
        return False


def span(name: str):
    """Context manager timing one named, hierarchical span.

    Usage::

        with span("corpus/evaluate"):
            with span("streamk"):     # recorded as corpus/evaluate/streamk
                ...

    When profiling is disabled this returns a shared no-op object — the
    cost is a single module flag check, safe for permanently-instrumented
    code paths.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _Span(name)


def profiled(name: "str | None" = None):
    """Decorator form of :func:`span`; defaults to the function's name."""

    def wrap(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if not _ENABLED:
                return fn(*args, **kwargs)
            with _Span(label):
                return fn(*args, **kwargs)

        return inner

    return wrap

"""Process-wide counters/metrics registry.

A flat, always-on registry of named monotonic counters.  Increments are a
dict update under a lock — cheap enough that instrumented subsystems
batch-report at natural boundaries (one executor run, one cache replay,
one calibration lookup) rather than per inner-loop event.

Naming convention: dotted ``subsystem.event`` names, with ``.hit`` /
``.miss`` pairs for anything cache-shaped so :func:`hit_rate` can derive
rates uniformly.  Counters in use (``a.b|c`` is shorthand for ``a.b``
and ``a.c``):

======================================  =================================
``paramcache.memo_hit|disk_hit|miss``   calibration cache lookups
``paramcache.write_failed``             calibration store hit ENOSPC/EROFS
``paramcache.corrupt_quarantined``      corrupt calibrations set aside
``evalcache.memo_hit|disk_hit|miss``    corpus-evaluation memo lookups
``evalcache.write_failed``              evaluation store hit ENOSPC/EROFS
``evalcache.corrupt_quarantined``       corrupt evaluations set aside
``executor.runs|ctas|segments``         discrete-event executor volume
``executor.spin_waits|signals``         flag-protocol events
``l2sim.fragment.hit|miss``             FragmentCache replay outcomes
``l2sim.fragment.hit_bytes|miss_bytes`` ...and their byte volumes
``l2sim.line.hit|miss`` (etc.)          SetAssociativeCache, when published
``journal.replayed``                    WAL records replayed on resume
``journal.skipped_shards``              digest-verified shards not re-run
``journal.torn_tail_truncated``         torn WAL tails dropped on replay
``journal.fingerprint_mismatch``        foreign journals ignored
``journal.digest_mismatch``             stale shard artifacts re-run
``journal.duplicate_done``              a shard's second ``shard_done``
``journal.bounds_adopted``              resume kept the journal's shards
``journal.init_lock_stolen``            dead initializer's lock taken over
``journal.checkpoint_corrupt``          unparsable checkpoint ignored
``journal.compacted``                   checkpoints written, WAL reset
``harness.journal.degraded``            journal writes hit ENOSPC/EROFS
``harness.drained_interrupts``          SIGINT/SIGTERM drains of a sweep
``harness.shards_ok``                   shards evaluated
``fabric.claims|commits``               fabric leases won / shards committed
``fabric.heartbeats``                   lease renewals
``fabric.heartbeat_failed``             lease renewals that hit an OSError
``fabric.lease_expired|reclaims``       stale leases seen / unlinked
``fabric.steals``                       reclaimed shards claimed again
``fabric.degraded``                     lease/journal I/O fell back to serial
``fabric.serial_fallback_shards``       shards evaluated by such fallbacks
``fabric.workers_lost``                 workers that exited abnormally
``fabric.pool_unusable``                workers could not be started
``fabric.parent_fallback``              parent finished open shards itself
``fabric.merge_reevaluated``            merge re-ran an unverifiable shard
``fabric.unusable``                     ``--join`` fell back to a sweep
``faults.chaos_kills``                  chaos kill points fired
``plancache.hot_hit|disk_hit|miss``     tiered plan-cache lookups (serve)
``plancache.evicted``                   hot-tier LRU evictions
``plancache.corrupt_quarantined``       corrupt plan shards set aside
``plancache.flush_failed``              plan-shard writes hit ENOSPC/EROFS
``serve.requests``                      plan queries accepted by the daemon
``serve.cache_hit|cache_miss``          ...split by plan-cache outcome
``serve.adaptive_hit|adaptive_miss``    Stream-K++ winner-cache outcomes
``serve.batches|batched_queries``       micro-batches flushed / their size
``serve.unique_shapes``                 deduped shapes actually planned
``serve.shed``                          misses rejected at max_queue_depth
``serve.deadline_expired``              requests dropped past their budget
``serve.abandoned``                     timed-out waiters pulled off queue
``serve.degraded_rejected``             misses rejected by an open breaker
``serve.draining|draining_rejected``    drains started / requests refused
``serve.breaker_open``                  breaker trips (planner failing)
``serve.breaker_half_open``             cooldown probes admitted
``serve.breaker_closed``                probe succeeded; breaker recovered
``serve.chaos_injected``                planner chaos activations (seam)
``serve.oversized_line``                request lines over max_line_bytes
``serve.idle_disconnects``              idle connections reaped
``serve.stop_timeout``                  accept loop failed to stop in time
``bloom.insert|delete``                 counting-filter membership writes
``bloom.query_hit|query_miss``          counting-filter probe outcomes
``bloom.saturated``                     counters stuck at the ceiling
``adaptive.hit|miss``                   winner served vs evaluator run
``adaptive.filter_fp``                  filter said yes, table said no
``adaptive.evicted``                    winner-table LRU evictions
======================================  =================================

Like the profiler, worker processes ship :func:`snapshot_counters` back to
the parent, which folds them in with :func:`merge_counters` — so a sharded
corpus sweep reports one coherent set of totals.
"""

from __future__ import annotations

import threading

__all__ = [
    "counters_report",
    "get_counter",
    "hit_rate",
    "inc_counter",
    "merge_counters",
    "reset_counters",
    "snapshot_counters",
]

_LOCK = threading.Lock()
_COUNTERS: "dict[str, int]" = {}


def inc_counter(name: str, n: int = 1) -> int:
    """Add ``n`` to counter ``name`` (creating it at 0); returns the new value."""
    with _LOCK:
        value = _COUNTERS.get(name, 0) + int(n)
        _COUNTERS[name] = value
        return value


def get_counter(name: str) -> int:
    """Current value of ``name`` (0 if never incremented)."""
    with _LOCK:
        return _COUNTERS.get(name, 0)


def snapshot_counters() -> "dict[str, int]":
    """Copy of all counters (picklable; worker -> parent transport)."""
    with _LOCK:
        return dict(_COUNTERS)


def merge_counters(snapshot: "dict[str, int]") -> None:
    """Fold a worker snapshot into this process's registry (additive)."""
    with _LOCK:
        for name, value in snapshot.items():
            _COUNTERS[name] = _COUNTERS.get(name, 0) + int(value)


def reset_counters() -> None:
    """Zero the registry (tests, repeated CLI invocations)."""
    with _LOCK:
        _COUNTERS.clear()


def hit_rate(prefix: str) -> "float | None":
    """Hit rate for a ``<prefix>.*hit`` / ``<prefix>.*miss`` counter family.

    Any counter named ``<prefix>.X`` where ``X`` ends in ``hit`` counts as
    a hit (so ``memo_hit`` and ``disk_hit`` both do), and likewise for
    ``miss``; byte-volume counters (``*_bytes``) are excluded.  Returns
    ``None`` when nothing has been counted yet.
    """
    hits = misses = 0
    with _LOCK:
        for name, value in _COUNTERS.items():
            if not name.startswith(prefix + "."):
                continue
            leaf = name[len(prefix) + 1:]
            if leaf.endswith("_bytes"):
                continue
            if leaf.endswith("hit"):
                hits += value
            elif leaf.endswith("miss"):
                misses += value
    total = hits + misses
    if total == 0:
        return None
    return hits / total


def counters_report() -> str:
    """Text table of every counter, with derived hit rates appended."""
    snap = snapshot_counters()
    if not snap:
        return "(no counters recorded)"
    width = max(len(k) for k in snap)
    lines = ["%-*s %14s" % (width, "counter", "value")]
    lines.append("-" * (width + 15))
    for name in sorted(snap):
        lines.append("%-*s %14d" % (width, name, snap[name]))
    prefixes = sorted({n.rsplit(".", 1)[0] for n in snap if "." in n})
    rate_lines = []
    for prefix in prefixes:
        rate = hit_rate(prefix)
        if rate is not None:
            rate_lines.append("%-*s %13.1f%%" % (width, prefix + " hit rate", 100 * rate))
    if rate_lines:
        lines.append("-" * (width + 15))
        lines.extend(rate_lines)
    return "\n".join(lines)

"""Sharded + memoized corpus evaluation.

:func:`repro.harness.vectorized.evaluate_corpus` is embarrassingly
parallel over problems — every output element depends only on its own
(m, n, k) row — so a corpus can be split into contiguous shards, each
evaluated in a worker process, and the per-system arrays concatenated
back in order.  Sharding is **exact**: the merged
:class:`~repro.harness.vectorized.SystemTimings` is bitwise identical to
the single-process result for any shard size (asserted in the tests).

On top of sharding sits a **content-keyed memo**: evaluations are keyed
by SHA-256 of the shape array bytes plus the dtype name, the GPU
fingerprint (:func:`repro.model.paramcache.gpu_fingerprint`), and the
engine version — so Table 1, Figure 6, and Figure 7 share one FP64 corpus
evaluation instead of recomputing three, and *any* identical corpus
re-query is free.  The memo is in-process by default; point
``REPRO_EVAL_CACHE_DIR`` (or the ``cache_dir`` argument) at a directory
to persist evaluations across processes as ``.npz`` artifacts in the
journal's shard encoding plus a ``key`` field, published atomically
(:func:`repro.durable.publish`: temp + fsync + rename, safe under
concurrent writers).  Corrupt persisted evaluation artifacts are
quarantined (renamed ``*.corrupt``, counted in
``evalcache.corrupt_quarantined``) and recomputed rather than re-parsed
forever; artifact *writes* that hit a full or read-only filesystem are
dropped (``evalcache.write_failed``) instead of crashing the sweep.

There is one multi-process path: ``jobs > 1`` runs that many workers of
the lease fabric (:mod:`repro.harness.fabric`) over a shard journal
(:mod:`repro.harness.journal`) — the caller's ``journal=DIR``, or a
temporary one removed when the sweep returns.  Workers claim shards
through atomic leases; a worker that raises or dies has its shard
claimed again by a peer once its lease is released or expires, and if
every worker is gone the parent finishes the open shards itself
(``fabric.parent_fallback``).  Shard evaluation is deterministic, so
every path yields the bitwise-exact corpus result.  ``jobs=1`` evaluates
in-process, journaled when a journal is given.  The calibration cache
(:mod:`repro.model.paramcache`) is warmed before forking, so workers do
not re-run simulator microbenchmarks.

With a journal a sweep is **durable** (docs/CHECKPOINTING.md): every
shard completion is committed to a write-ahead journal (fsync'd
CRC-framed records + a digest-verified per-shard npz store) the instant
it lands.  ``resume=True`` replays the journal on startup and skips
completed shards (``journal.skipped_shards``), so a sweep killed at
*any* instant — SIGKILL included — resumes to the bitwise-identical
merged result.  During a sweep, SIGINT/SIGTERM install a drain handler:
dispatch stops, completions so far stay journaled, workers are
terminated and joined, and :class:`~repro.errors.SweepInterrupted`
propagates so the CLI can exit with the distinct resumable status.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import signal
import tempfile
import threading
import zipfile

import numpy as np

from ..durable import publish, quarantine, wipe
from ..errors import ConfigurationError, SweepInterrupted
from ..gemm.dtypes import DtypeConfig
from ..gemm.tiling import Blocking
from ..gpu.spec import GpuSpec
from ..model.paramcache import calibrate_cached, gpu_fingerprint
from ..obs import counters as _counters
from ..obs.profiler import span
from .journal import ShardJournal, timings_from_npz, timings_npz_bytes
from .vectorized import SystemTimings, evaluate_corpus

__all__ = [
    "EVAL_ENGINE_VERSION",
    "corpus_fingerprint",
    "evaluate_corpus_cached",
    "evaluate_corpus_sharded",
    "merge_timings",
    "clear_eval_memo",
    "wipe_eval_cache",
]

#: Bump whenever the numerical output of ``evaluate_corpus`` changes, so
#: persisted evaluation artifacts from older engines are never reused.
EVAL_ENGINE_VERSION = 1

_ENV_EVAL_CACHE_DIR = "REPRO_EVAL_CACHE_DIR"

#: Minimum rows per shard: below this, process fan-out costs more than the
#: vectorized evaluation itself.
_MIN_SHARD_ROWS = 256

#: Test seam: when set, called as ``hook(shard_index, worker_index)`` in
#: a fabric worker after it claims a shard and before it evaluates it —
#: lets the test suite make a given worker raise or die while holding a
#: lease.  Inherited by forked workers; never set in production code
#: paths.
_SHARD_FAULT_HOOK = None

#: Test seam: when set, called as ``hook(event, shard_index)`` in the
#: *parent* (``event`` is ``"done"``) for each shard completion it
#: observes — lets tests inject a signal/interrupt at a deterministic
#: point between shard boundaries.
_DISPATCH_HOOK = None

_MEMO: "dict[str, SystemTimings]" = {}


# --------------------------------------------------------------------- #
# Signal-safe lifecycle: drain on SIGINT/SIGTERM                         #
# --------------------------------------------------------------------- #

#: Set by the drain handler; checked by the dispatch loop at shard
#: boundaries.  A plain Event keeps the handler async-signal-trivial.
_DRAIN_EVENT = threading.Event()


def _drain_handler(signum, frame) -> None:
    """SIGINT/SIGTERM: request a drain; never interrupt a journal write."""
    _DRAIN_EVENT.set()


@contextlib.contextmanager
def _drain_signals():
    """Install the drain handler for the duration of a sweep.

    Replacing Python's default KeyboardInterrupt delivery means a signal
    can no longer land *inside* a journal append or cache write — the
    handler only sets a flag, and the dispatch loop drains at the next
    shard boundary.  Outside the main thread (where ``signal.signal``
    is illegal) the sweep runs with default delivery; the ``finally``
    blocks still reap the workers.
    """
    installed = []
    try:
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous = signal.signal(sig, _drain_handler)
                except (ValueError, OSError):  # pragma: no cover
                    continue
                installed.append((sig, previous))
        yield
    finally:
        for sig, previous in installed:
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _DRAIN_EVENT.clear()


def _check_drain() -> None:
    """Raise :class:`SweepInterrupted` if a drain signal is pending."""
    if _DRAIN_EVENT.is_set():
        _counters.inc_counter("harness.drained_interrupts")
        _DRAIN_EVENT.clear()
        raise SweepInterrupted()


# --------------------------------------------------------------------- #
# Sharding                                                               #
# --------------------------------------------------------------------- #


def merge_timings(parts: "list[SystemTimings]") -> SystemTimings:
    """Concatenate shard results back into one :class:`SystemTimings`."""
    if not parts:
        raise ConfigurationError("cannot merge zero shards")
    first = parts[0]
    for p in parts[1:]:
        if p.dtype_name != first.dtype_name or p.gpu_name != first.gpu_name:
            raise ConfigurationError("shards disagree on dtype/GPU")
        if p.cublas_variant_names != first.cublas_variant_names:
            raise ConfigurationError("shards disagree on cuBLAS variants")
    if len(parts) == 1:
        return first
    choice = None
    if all(p.cublas_choice is not None for p in parts):
        choice = np.concatenate([p.cublas_choice for p in parts])
    return SystemTimings(
        shapes=np.concatenate([p.shapes for p in parts]),
        dtype_name=first.dtype_name,
        gpu_name=first.gpu_name,
        streamk=np.concatenate([p.streamk for p in parts]),
        singleton=np.concatenate([p.singleton for p in parts]),
        cublas=np.concatenate([p.cublas for p in parts]),
        oracle=np.concatenate([p.oracle for p in parts]),
        cublas_choice=choice,
        cublas_variant_names=list(first.cublas_variant_names),
    )


def _resolve_jobs(jobs: "int | None") -> int:
    """``None``/``1`` => in-process; ``<= 0`` => one per *available* CPU.

    "Available" respects the process's CPU affinity mask
    (``os.sched_getaffinity``) — under cgroup/affinity-restricted
    runners, ``os.cpu_count()`` reports the machine, not the quota, and
    oversubscribing the mask makes every worker a straggler.  Constrained
    cgroups can expose an empty or one-element mask (and some runtimes
    raise ``ValueError``); the result is always clamped to >= 1 so the
    sweep degrades to in-process evaluation instead of launching zero
    workers.
    """
    if jobs is None or jobs == 1:
        return 1
    if jobs <= 0:
        try:
            available = len(os.sched_getaffinity(0))
        except (AttributeError, OSError, ValueError):
            # non-Linux, or a runtime that refuses the syscall
            available = os.cpu_count() or 1
        return max(1, available)
    return jobs


def _shard_bounds(
    n: int, jobs: int, shard_rows: "int | None"
) -> "list[tuple[int, int]]":
    """Deterministic contiguous shard layout for an ``n``-row corpus."""
    if shard_rows is None:
        shard_rows = max(_MIN_SHARD_ROWS, -(-n // (4 * max(jobs, 1))))
    shard_rows = max(1, int(shard_rows))
    edges = list(range(0, n, shard_rows)) + [n]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _shard_content_fp(shapes: np.ndarray) -> str:
    """Short content fingerprint of one shard's rows (journal forensics)."""
    return hashlib.sha256(
        np.ascontiguousarray(shapes).tobytes()
    ).hexdigest()[:16]


def _commit_hooks(chaos):
    """The parent's per-commit callback: test dispatch hook, then the
    chaos kill point — which fires only after the commit is durable, so
    a chaos SIGKILL always leaves a journal that resumes past it."""

    def on_commit(shard_index: int) -> None:
        if _DISPATCH_HOOK is not None:
            _DISPATCH_HOOK("done", shard_index)
        if chaos is not None:
            chaos.on_shard_done()

    return on_commit


def _run_shards_serial(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jr: ShardJournal,
    results: "list[SystemTimings | None]",
    pending: "list[int]",
    on_commit=None,
    fallback: bool = False,
) -> None:
    """The one in-process shard loop: journal, evaluate, commit, hook.

    Runs ``jobs=1`` sweeps and every fallback of the fabric (a worker
    whose lease I/O fails, a parent whose workers are all gone, a join
    that cannot lease); ``fallback`` counts each shard in
    ``fabric.serial_fallback_shards``.  Leases are ignored: re-evaluating
    a shard a silent peer also holds is safe (digest-idempotent commits)
    and finishing the sweep beats waiting on lease state.
    """
    for i in pending:
        _check_drain()
        lo, hi = jr.bounds[i]
        fp = _shard_content_fp(shapes[lo:hi])
        jr.record_started(i, fingerprint=fp)
        with span("shard"):
            results[i] = evaluate_corpus(shapes[lo:hi], dtype, gpu)
        _counters.inc_counter("harness.shards_ok")
        if fallback:
            _counters.inc_counter("fabric.serial_fallback_shards")
        jr.record_done(i, results[i], fingerprint=fp)
        if on_commit is not None:
            on_commit(i)


def _merge_shards(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jr: ShardJournal,
    results: "list[SystemTimings | None]",
) -> SystemTimings:
    """Merge barrier: every shard in order, from memory or the journal.

    A shard this process did not evaluate is loaded digest-verified from
    the journal; one whose artifact is missing or fails verification is
    re-evaluated in-process (``fabric.merge_reevaluated``) — the merge
    never trusts an unverified byte, and determinism makes the repaired
    result identical to the journaled one.
    """
    jr.refresh_completed()
    parts: "list[SystemTimings]" = []
    for i, (lo, hi) in enumerate(jr.bounds):
        res = results[i] if results[i] is not None else jr.load_completed(i)
        if res is None:
            _counters.inc_counter("fabric.merge_reevaluated")
            res = evaluate_corpus(shapes[lo:hi], dtype, gpu)
            jr.record_done(
                i, res, fingerprint=_shard_content_fp(shapes[lo:hi])
            )
        parts.append(res)
    with span("merge_shards"):
        return merge_timings(parts)


def _interrupted(exc: SweepInterrupted, jr: ShardJournal) -> None:
    """Stamp a drain with the journal's durable progress."""
    exc.completed = len(jr.refresh_completed())
    exc.total = len(jr.bounds)
    exc.journal_dir = jr.directory


def evaluate_corpus_sharded(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jobs: "int | None" = None,
    shard_rows: "int | None" = None,
    journal: "str | None" = None,
    resume: bool = False,
    chaos=None,
    workers: "int | None" = None,
    join: bool = False,
    lease_seconds: "float | None" = None,
    heartbeat_seconds: "float | None" = None,
    chaos_worker=None,
) -> SystemTimings:
    """Evaluate a corpus across ``jobs`` fabric worker processes.

    ``jobs=None``/``1`` runs in-process; ``jobs<=0`` means "one per
    available CPU" (affinity-aware); ``workers`` is a second spelling of
    ``jobs``.  ``shard_rows`` overrides the shard size (default: roughly
    four shards per worker for load balance, never below
    ``_MIN_SHARD_ROWS``).  ``jobs > 1`` runs the lease fabric
    (:func:`repro.harness.fabric.run_workers`) over ``journal``, or over
    a temporary journal when none is given: workers claim shards,
    heartbeat while evaluating, and a dead worker's shard is claimed
    again after ``lease_seconds``.  ``chaos_worker``
    (:class:`repro.faults.chaos.ChaosWorkerKill` or a ``POINT[:K]``
    spec) arms a kill point in worker 0.  The result is independent of
    every knob: raising, crashing or unstartable workers all end in the
    bitwise-identical single-process result.

    ``journal=DIR`` makes the sweep **durable** (docs/CHECKPOINTING.md):
    each shard completion is committed to a write-ahead journal under
    ``DIR`` the moment it lands, ``resume=True`` replays the journal and
    skips digest-verified completed shards (``resume=False`` starts the
    journal afresh), and killing the process at any instant — including
    SIGKILL via ``chaos`` (:class:`repro.faults.chaos.ChaosKill`, fired
    after each commit the parent observes) — loses at most the open
    shards.  SIGINT/SIGTERM during a sharded sweep drain cleanly:
    dispatch stops, workers are reaped, and
    :class:`~repro.errors.SweepInterrupted` is raised.

    ``join=True`` joins a (possibly concurrent) sweep rooted at
    ``journal`` as one worker (:func:`repro.harness.fabric.join_sweep`);
    a join that cannot run at all degrades to this function's ordinary
    journaled path (``fabric.unusable``) — never an abort.
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    jobs = _resolve_jobs(workers if workers is not None else jobs)
    n = shapes.shape[0]

    if join:
        if journal is None:
            raise ConfigurationError(
                "joining a fabric sweep requires its shared journal "
                "directory: pass journal=DIR"
            )
        from . import fabric  # local import: fabric imports this module

        try:
            return fabric.join_sweep(
                shapes, dtype, gpu, journal,
                shard_rows=shard_rows,
                lease_seconds=lease_seconds,
                heartbeat_seconds=heartbeat_seconds,
                chaos=chaos_worker,
            )
        except (SweepInterrupted, ConfigurationError):
            raise
        except Exception:
            # Degradation ladder: a join that cannot run falls back to
            # the ordinary journaled path below.
            _counters.inc_counter("fabric.unusable")
    scratch = None
    if journal is None:
        if jobs == 1 or n <= _MIN_SHARD_ROWS:
            return evaluate_corpus(shapes, dtype, gpu)
        journal = scratch = tempfile.mkdtemp(prefix="repro-sweep-")
    try:
        return _journaled_sweep(
            shapes, dtype, gpu, jobs, shard_rows, journal, resume,
            chaos, lease_seconds, heartbeat_seconds, chaos_worker,
        )
    except SweepInterrupted as exc:
        if scratch is not None:
            # Nothing survives a temporary journal to resume from.
            exc.completed = exc.total = exc.journal_dir = None
        raise
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _journaled_sweep(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jobs: int,
    shard_rows: "int | None",
    journal: str,
    resume: bool,
    chaos,
    lease_seconds: "float | None",
    heartbeat_seconds: "float | None",
    chaos_worker,
) -> SystemTimings:
    """Open the journal, evaluate its open shards, merge, compact."""
    jr = ShardJournal.open(
        journal,
        corpus_key=corpus_fingerprint(shapes, dtype, gpu),
        bounds=_shard_bounds(shapes.shape[0], jobs, shard_rows),
        resume=resume,
        dtype_name=dtype.name,
        gpu_name=gpu.name,
    )
    try:
        # Resumed journals own the shard layout.
        results: "list[SystemTimings | None]" = [None] * len(jr.bounds)
        for i in sorted(jr.completed):
            res = jr.load_completed(i)
            if res is not None:
                results[i] = res
                _counters.inc_counter("journal.skipped_shards")
        pending = [i for i, r in enumerate(results) if r is None]
        if pending:
            # Warm the persistent calibration cache before forking so
            # workers hit the memo instead of racing on microbenchmarks.
            calibrate_cached(gpu, Blocking(*dtype.default_blocking), dtype)
            on_commit = _commit_hooks(chaos)
            with span("sharded_pool"), _drain_signals():
                try:
                    # A degraded journal cannot coordinate workers.
                    if jobs == 1 or jr.degraded:
                        _run_shards_serial(
                            shapes, dtype, gpu, jr, results, pending,
                            on_commit=on_commit,
                        )
                    else:
                        from . import fabric

                        fabric.run_workers(
                            shapes, dtype, gpu, jr, results,
                            workers=min(jobs, len(pending)),
                            lease_seconds=lease_seconds,
                            heartbeat_seconds=heartbeat_seconds,
                            chaos_worker=chaos_worker,
                            on_commit=on_commit,
                        )
                except SweepInterrupted as exc:
                    _interrupted(exc, jr)
                    raise
        merged = _merge_shards(shapes, dtype, gpu, jr, results)
        jr.compact()
        return merged
    finally:
        jr.close()


# --------------------------------------------------------------------- #
# Content-keyed memoization                                              #
# --------------------------------------------------------------------- #


def corpus_fingerprint(
    shapes: np.ndarray, dtype: DtypeConfig, gpu: GpuSpec
) -> str:
    """Content key for one evaluation: corpus bytes + dtype + GPU + engine."""
    shapes = np.ascontiguousarray(np.asarray(shapes, dtype=np.int64))
    h = hashlib.sha256()
    h.update(b"repro-eval-v%d" % EVAL_ENGINE_VERSION)
    h.update(dtype.name.encode("utf-8"))
    h.update(gpu_fingerprint(gpu).encode("utf-8"))
    h.update(np.int64(shapes.shape[0]).tobytes())
    h.update(shapes.tobytes())
    return h.hexdigest()


def _eval_cache_dir(cache_dir: "str | None") -> "str | None":
    return cache_dir or os.environ.get(_ENV_EVAL_CACHE_DIR) or None


def _eval_entry_path(root: str, key: str) -> str:
    return os.path.join(
        root, "eval", "eval_v%d_%s.npz" % (EVAL_ENGINE_VERSION, key[:24])
    )


def _load_eval(path: str, key: str) -> "SystemTimings | None":
    if not os.path.exists(path):
        return None  # plain miss, not corruption
    try:
        with np.load(path, allow_pickle=False) as doc:
            if str(doc["key"]) != key:
                return None  # truncated-hash collision: a miss, keep it
            return timings_from_npz(doc)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        # The file exists but cannot be parsed as this engine's artifact:
        # quarantine it and recompute instead of retrying forever.
        quarantine(path, "evalcache.corrupt_quarantined")
        return None


def _store_eval(path: str, key: str, res: SystemTimings) -> None:
    """Persist one evaluation atomically; never raises.

    A full or read-only filesystem (``ENOSPC``/``EROFS``/any ``OSError``)
    bumps ``evalcache.write_failed`` and the sweep continues uncached
    instead of crashing.
    """
    try:
        publish(path, timings_npz_bytes(res, key=np.str_(key)))
    except OSError:
        _counters.inc_counter("evalcache.write_failed")


def evaluate_corpus_cached(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jobs: "int | None" = None,
    cache_dir: "str | None" = None,
    journal: "str | None" = None,
    resume: bool = False,
) -> SystemTimings:
    """Content-memoized :func:`evaluate_corpus` (optionally sharded).

    Identical corpora (same shape bytes, dtype, GPU, engine version) are
    evaluated once per process; with a persistent cache directory, once
    per machine.  ``journal``/``resume`` thread through to
    :func:`evaluate_corpus_sharded` for sweeps that must survive being
    killed (a memo/disk hit returns immediately — the cached artifact
    already *is* the completed sweep).
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    key = corpus_fingerprint(shapes, dtype, gpu)
    res = _MEMO.get(key)
    if res is not None:
        _counters.inc_counter("evalcache.memo_hit")
        return res
    root = _eval_cache_dir(cache_dir)
    if root is not None:
        res = _load_eval(_eval_entry_path(root, key), key)
        if res is not None:
            _counters.inc_counter("evalcache.disk_hit")
            _MEMO[key] = res
            return res
    _counters.inc_counter("evalcache.miss")
    res = evaluate_corpus_sharded(
        shapes, dtype, gpu, jobs=jobs, journal=journal, resume=resume
    )
    _MEMO[key] = res
    if root is not None:
        _store_eval(_eval_entry_path(root, key), key, res)
    return res


def clear_eval_memo() -> None:
    """Drop the in-process evaluation memo."""
    _MEMO.clear()


def wipe_eval_cache(cache_dir: "str | None" = None) -> int:
    """Delete persisted evaluation artifacts; returns the number removed."""
    root = _eval_cache_dir(cache_dir)
    if root is None:
        return 0
    return wipe(os.path.join(root, "eval"), "eval_", (".npz", ".corrupt"))

"""Lease-based multi-worker sweep fabric: work-centric shard claiming.

The WAL shard journal (:mod:`repro.harness.journal`) makes a sweep
durable for *one* process; this module promotes it into a coordination
substrate so many worker processes — the children a ``jobs > 1`` sweep
forks (``repro sweep --jobs N``, the only multi-process sweep path), or
fully independent ``repro sweep --join DIR`` invocations that merely
share a filesystem — evaluate one corpus together.  The design mirrors
the paper's thesis at the process level: Stream-K replaces static
ownership of output tiles with work-centric claiming of the iteration
domain, and the fabric replaces static shard assignment with
work-centric claiming of the shard domain.  A fixed
worker-to-shard partition strands work on the slowest or deadest
worker; a claim queue lets whoever is alive finish the sweep.

How a shard flows through the fabric:

1. **Claim** — a worker creates ``leases/shard_NNNNN.lease`` with
   ``O_CREAT | O_EXCL``, binding the lease to its identity
   (``host:pid:nonce``).  Exactly one creator wins and journals
   ``shard_started`` with its identity (forensics).  The lease file is
   the only record of who holds a claim.
2. **Heartbeat** — while evaluating, a daemon thread atomically
   rewrites the lease file with an incrementing sequence number every
   ``heartbeat_seconds``; the WAL is not touched.
3. **Commit** — the result goes through the journal's existing
   artifact-then-``shard_done`` protocol (npz published + fsync'd
   *before* the record lands), then the lease is released.
4. **Reclaim** — a worker with nothing left to claim watches the open
   shards' lease files.  A lease whose *content* has not changed for
   longer than ``lease_seconds`` — measured on the observer's own
   monotonic clock from when it first saw that content, so no
   cross-process clock comparison is ever made — belongs to a dead,
   SIGKILLed, or wedged worker: the observer unlinks the lease, and the
   shard is claimable again (``fabric.lease_expired`` / ``fabric.reclaims``).

**Why double execution is safe.**  Leases are liveness metadata, never
a safety mechanism.  Shard evaluation is deterministic — the same rows
on the same engine produce bitwise-identical ``SystemTimings`` — and a
commit is a digest-carrying ``shard_done`` whose artifact is verified
on load.  If a lease expires while its holder is merely slow (not
dead) and a second worker re-evaluates the shard, both commit the same
bytes under the same digest; replay keeps one canonical completion
(``journal.duplicate_done``) and the merge is byte-identical to an
uninterrupted single-process run.  The worst race costs wasted work,
never a wrong answer — exactly Stream-K's fixup argument transplanted
to the harness.

**Degradation ladder.**  Any ``OSError`` on lease or journal I/O
degrades: a worker falls back to plain in-process evaluation of the
remaining shards (``fabric.degraded``), and the ``--jobs N`` parent
finishes the sweep itself if every child dies or none can be forked
(``fabric.parent_fallback``).  A worker that raises or crashes
mid-shard (``fabric.workers_lost``) costs its peers one lease release
or one lease budget, never the result.  The fabric never aborts a sweep
that plain evaluation could finish.

Chaos coverage (:class:`repro.faults.chaos.ChaosWorkerKill`, the CI
``fabric`` job) SIGKILLs workers at the claim, mid-evaluation, and
pre-commit boundaries and asserts the surviving workers' merged
``.npz`` is byte-identical to the reference.  See
``docs/CHECKPOINTING.md`` for the full contract.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from multiprocessing.connection import wait as _wait_ready

import numpy as np

from ..durable import publish, wipe
from ..errors import SweepInterrupted
from ..faults.chaos import ChaosWorkerKill
from ..gemm.dtypes import DtypeConfig, get_dtype_config
from ..gemm.tiling import Blocking
from ..gpu.spec import GpuSpec
from ..model.paramcache import calibrate_cached
from ..obs import counters as _counters
from ..obs import profiler as _profiler
from ..obs.profiler import span
from . import parallel as _parallel
from .journal import ShardJournal
from .parallel import (
    _check_drain,
    _drain_signals,
    _interrupted,
    _merge_shards,
    _run_shards_serial,
    _shard_bounds,
    _shard_content_fp,
    corpus_fingerprint,
)
from .vectorized import SystemTimings, evaluate_corpus

__all__ = [
    "DEFAULT_HEARTBEAT_FRACTION",
    "DEFAULT_LEASE_SECONDS",
    "LeaseManager",
    "join_sweep",
    "make_worker_id",
    "resolve_heartbeat_seconds",
    "resolve_lease_seconds",
    "run_workers",
]

_ENV_LEASE_SECONDS = "REPRO_LEASE_SECONDS"
_ENV_HEARTBEAT_SECONDS = "REPRO_HEARTBEAT_SECONDS"

#: Lease expiry budget: a claim whose heartbeat content is unchanged for
#: this long (on the observer's monotonic clock) is reclaimable.
DEFAULT_LEASE_SECONDS = 30.0

#: Default heartbeat interval as a fraction of the lease budget — six
#: renewals per budget means several must be *lost* before a live
#: worker's shard is stolen (stealing is safe anyway, just wasteful).
DEFAULT_HEARTBEAT_FRACTION = 1.0 / 6.0

_LEASES_SUBDIR = "leases"

#: Poll interval when a worker has nothing claimable and no lease has
#: expired yet.
_FABRIC_POLL_S = 0.02

#: Longest the ``jobs > 1`` parent sleeps between drain checks while it
#: waits on its workers' exits and telemetry.
_PARENT_WAKE_S = 0.1


def resolve_lease_seconds(value: "float | None" = None) -> float:
    """Explicit value, else ``$REPRO_LEASE_SECONDS``, else 30s."""
    if value is not None:
        return max(0.05, float(value))
    raw = os.environ.get(_ENV_LEASE_SECONDS)
    if raw:
        try:
            return max(0.05, float(raw))
        except ValueError:
            pass
    return DEFAULT_LEASE_SECONDS


def resolve_heartbeat_seconds(
    value: "float | None", lease_seconds: float
) -> float:
    """Explicit value, else ``$REPRO_HEARTBEAT_SECONDS``, else lease/6.

    Clamped to at most half the lease budget: a heartbeat slower than
    the expiry clock would make every live worker look dead.
    """
    resolved = None
    if value is not None:
        resolved = float(value)
    else:
        raw = os.environ.get(_ENV_HEARTBEAT_SECONDS)
        if raw:
            try:
                resolved = float(raw)
            except ValueError:
                resolved = None
    if resolved is None:
        resolved = lease_seconds * DEFAULT_HEARTBEAT_FRACTION
    return max(0.01, min(resolved, lease_seconds / 2.0))


def make_worker_id(index: "int | None" = None) -> str:
    """Unique worker identity: ``host:pid:nonce[:wN]``.

    The nonce distinguishes two incarnations with a recycled pid — a
    reclaimed worker's stale lease must never be mistaken for the
    replacement's live one.
    """
    try:
        host = socket.gethostname() or "localhost"
    except OSError:  # pragma: no cover - exotic resolver failure
        host = "localhost"
    wid = "%s:%d:%s" % (host, os.getpid(), os.urandom(4).hex())
    if index is not None:
        wid += ":w%d" % int(index)
    return wid


class LeaseManager:
    """Atomic O_EXCL shard leases with observer-clock expiry.

    One instance per worker.  ``try_claim`` creates the lease file
    exclusively; ``heartbeat`` atomically rewrites it with a fresh
    sequence number; ``expired_shards`` tracks, per open shard, the
    last lease *content* seen and when this observer first saw it — a
    lease is expired when its content has sat unchanged past the
    budget.  Measuring age on the observer's own monotonic clock makes
    expiry immune to cross-host clock skew and catches wedged workers
    (process alive, heartbeat thread stopped) exactly like dead ones.

    Raises ``OSError`` only where the caller is expected to degrade
    (directory creation, claim-file write); observation and release are
    best-effort.
    """

    def __init__(
        self, directory: str, worker_id: str, lease_seconds: float
    ):
        self.lease_dir = os.path.join(directory, _LEASES_SUBDIR)
        os.makedirs(self.lease_dir, exist_ok=True)
        self.worker_id = worker_id
        self.lease_seconds = float(lease_seconds)
        self._held: "set[int]" = set()
        #: shard -> (last content bytes, monotonic time first seen)
        self._observed: "dict[int, tuple[bytes, float]]" = {}

    def lease_path(self, shard: int) -> str:
        return os.path.join(self.lease_dir, "shard_%05d.lease" % shard)

    def _payload(self, seq: int) -> bytes:
        return (
            json.dumps(
                {
                    "worker": self.worker_id,
                    "seq": int(seq),
                    "wall": time.time(),  # human forensics only
                },
                sort_keys=True,
            ).encode("utf-8")
            + b"\n"
        )

    def try_claim(self, shard: int) -> bool:
        """Atomically claim ``shard``; False when someone else holds it."""
        try:
            fd = os.open(
                self.lease_path(shard),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(self._payload(0))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            # Claim file exists but may be empty: release and re-raise
            # so the worker degrades rather than holding a husk.
            self.release(shard)
            raise
        self._held.add(shard)
        return True

    def heartbeat(self, shard: int, seq: int) -> None:
        """Renew the lease: atomic rewrite with a fresh sequence number."""
        publish(self.lease_path(shard), self._payload(seq))

    def release(self, shard: int) -> None:
        """Drop a lease this worker holds (best-effort)."""
        self._held.discard(shard)
        try:
            os.unlink(self.lease_path(shard))
        except OSError:
            pass

    def expired_shards(self, shards: "list[int]") -> "list[int]":
        """Open shards whose lease content has outlived the budget.

        Never reports a shard this worker holds, a shard with no lease
        file (that one is simply claimable), or a lease whose content
        changed since the last observation (its holder is heartbeating).
        """
        now = time.monotonic()
        expired = []
        for shard in shards:
            if shard in self._held:
                continue
            try:
                with open(self.lease_path(shard), "rb") as fh:
                    content = fh.read()
            except OSError:
                self._observed.pop(shard, None)
                continue
            prev = self._observed.get(shard)
            if prev is None or prev[0] != content:
                self._observed[shard] = (content, now)
                continue
            if now - prev[1] > self.lease_seconds:
                expired.append(shard)
        return expired

    def reclaim(self, shard: int) -> bool:
        """Unlink an expired lease; False when a peer won the race.

        Losing the unlink race (``FileNotFoundError``) is benign: some
        other observer reclaimed it first and the shard is — or is
        about to be — claimable again.
        """
        self._observed.pop(shard, None)
        try:
            os.unlink(self.lease_path(shard))
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True


class _HeartbeatThread(threading.Thread):
    """Renews one shard's lease until stopped (daemon: dies with worker).

    A renewal failure stops the thread quietly
    (``fabric.heartbeat_failed``): the shard will eventually look
    expired to peers and be re-evaluated — wasted work, never a wrong
    answer — while this worker's own commit still stands if it lands
    first.
    """

    def __init__(self, lease: LeaseManager, shard: int, interval_s: float):
        super().__init__(name="fabric-heartbeat", daemon=True)
        self._lease = lease
        self._shard = shard
        self._interval_s = interval_s
        self._stop_evt = threading.Event()

    def run(self) -> None:
        seq = 0
        while not self._stop_evt.wait(self._interval_s):
            seq += 1
            try:
                self._lease.heartbeat(self._shard, seq)
            except OSError:
                _counters.inc_counter("fabric.heartbeat_failed")
                return
            _counters.inc_counter("fabric.heartbeats")

    def stop(self) -> None:
        self._stop_evt.set()
        self.join(timeout=5.0)


def _as_worker_chaos(chaos) -> "ChaosWorkerKill | None":
    if chaos is None or isinstance(chaos, ChaosWorkerKill):
        return chaos
    return ChaosWorkerKill.parse(chaos)


def _chaos_spec(chaos) -> "str | None":
    """Serialize a chaos config for a child process (specs only — an
    in-process ``action`` seam cannot cross a process boundary)."""
    if chaos is None:
        return None
    if isinstance(chaos, ChaosWorkerKill):
        return "%s:%d" % (chaos.point, chaos.after)
    return str(chaos)


def _open_shards(jr: ShardJournal) -> "list[int]":
    """Shards with no durable completion in the journal yet."""
    done = jr.refresh_completed()
    return [i for i in range(len(jr.bounds)) if i not in done]


def _worker_loop(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jr: ShardJournal,
    lease: LeaseManager,
    heartbeat_seconds: float,
    claim_offset: int = 0,
    chaos: "ChaosWorkerKill | None" = None,
    check_stop=None,
    on_commit=None,
) -> None:
    """Claim/evaluate/commit until every shard is durably done.

    The loop is the fabric's heart: refresh peers' commits, claim the
    next open shard (starting ``claim_offset`` shards in, so cohort
    workers fan out instead of contending on shard 0), heartbeat while
    evaluating, commit through the journal, release, then call
    ``on_commit(shard)``.  When nothing is claimable, run a reclaim pass
    over expired leases; when nothing is expired either, sleep briefly
    and re-check.  ``check_stop`` runs before every claim (a drain, or
    an orphaned worker noticing its parent is gone).  Raises ``OSError``
    only for lease/journal I/O failure — the caller degrades to serial
    evaluation.
    """
    bounds = jr.bounds
    reclaimed: "set[int]" = set()
    while True:
        if check_stop is not None:
            check_stop()
        open_shards = _open_shards(jr)
        if not open_shards:
            return
        off = claim_offset % len(open_shards)
        progressed = False
        for i in open_shards[off:] + open_shards[:off]:
            if check_stop is not None:
                check_stop()
            if not lease.try_claim(i):
                continue
            # A peer may have committed (and released) this shard
            # between our refresh and the claim: don't re-evaluate it.
            if i in jr.refresh_completed():
                lease.release(i)
                continue
            progressed = True
            _counters.inc_counter("fabric.claims")
            if i in reclaimed:
                _counters.inc_counter("fabric.steals")
            lo, hi = bounds[i]
            fp = _shard_content_fp(shapes[lo:hi])
            jr.record_started(i, fingerprint=fp, worker=lease.worker_id)
            if chaos is not None:
                chaos.on_event("claim")
            hb = _HeartbeatThread(lease, i, heartbeat_seconds)
            hb.start()
            try:
                if _parallel._SHARD_FAULT_HOOK is not None:
                    _parallel._SHARD_FAULT_HOOK(i, claim_offset)
                if chaos is not None:
                    chaos.on_event("eval")
                with span("shard"):
                    res = evaluate_corpus(shapes[lo:hi], dtype, gpu)
                _counters.inc_counter("harness.shards_ok")
                if chaos is not None:
                    chaos.on_event("commit")
                jr.record_done(i, res, fingerprint=fp)
                _counters.inc_counter("fabric.commits")
            finally:
                hb.stop()
                lease.release(i)
            if on_commit is not None:
                on_commit(i)
        if progressed:
            continue
        open_shards = _open_shards(jr)
        if not open_shards:
            return
        expired = lease.expired_shards(open_shards)
        for i in expired:
            _counters.inc_counter("fabric.lease_expired")
            if lease.reclaim(i):
                _counters.inc_counter("fabric.reclaims")
                reclaimed.add(i)
        if not expired:
            time.sleep(_FABRIC_POLL_S)


def join_sweep(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    journal_dir: str,
    shard_rows: "int | None" = None,
    lease_seconds: "float | None" = None,
    heartbeat_seconds: "float | None" = None,
    chaos=None,
    worker_id: "str | None" = None,
) -> SystemTimings:
    """Join a (possibly already running) fabric sweep as one worker.

    Independent invocations pointed at the same ``journal_dir`` on a
    shared filesystem cooperate with no parent process: the first
    arrival initializes the shared journal, every worker claims shards
    until none are open, and **each** invocation then runs the merge
    barrier and returns the full digest-verified result — byte-identical
    across all of them and to a single-process run.  The journal is
    deliberately not compacted here (a peer may still be appending).
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    lease_s = resolve_lease_seconds(lease_seconds)
    hb_s = resolve_heartbeat_seconds(heartbeat_seconds, lease_s)
    chaos = _as_worker_chaos(chaos)
    key = corpus_fingerprint(shapes, dtype, gpu)
    bounds = _shard_bounds(shapes.shape[0], 1, shard_rows)
    jr = ShardJournal.open_shared(
        journal_dir, key, bounds, dtype.name, gpu.name
    )
    try:
        if jr.degraded:
            _counters.inc_counter("fabric.degraded")
            return evaluate_corpus(shapes, dtype, gpu)
        calibrate_cached(gpu, Blocking(*dtype.default_blocking), dtype)
        results: "list[SystemTimings | None]" = [None] * len(jr.bounds)
        with span("fabric_join"), _drain_signals():
            try:
                try:
                    lease = LeaseManager(
                        journal_dir, worker_id or make_worker_id(), lease_s
                    )
                    _worker_loop(
                        shapes, dtype, gpu, jr, lease, hb_s,
                        chaos=chaos, check_stop=_check_drain,
                    )
                except OSError:
                    _counters.inc_counter("fabric.degraded")
                    _run_shards_serial(
                        shapes, dtype, gpu, jr, results, _open_shards(jr),
                        fallback=True,
                    )
            except SweepInterrupted as exc:
                _interrupted(exc, jr)
                raise
            return _merge_shards(shapes, dtype, gpu, jr, results)
    finally:
        jr.close()


def _ship(conn) -> bool:
    """Send this worker's profile and counters since the last ship to
    the parent, then reset them; False when the parent is gone."""
    try:
        conn.send(
            (_profiler.snapshot_profile(), _counters.snapshot_counters())
        )
    except OSError:
        return False
    _profiler.reset_profile()
    _counters.reset_counters()
    return True


def _fabric_worker_main(
    shapes: np.ndarray,
    dtype_name: str,
    gpu: GpuSpec,
    journal_dir: str,
    corpus_key: str,
    bounds: "list[tuple[int, int]]",
    worker_index: int,
    lease_seconds: float,
    heartbeat_seconds: float,
    chaos_spec: "str | None",
    profile: bool,
    conn,
) -> None:
    """Child-process entry point for one fabric worker of a ``jobs > 1``
    sweep: telemetry goes home over ``conn`` after every commit."""
    # Forked children inherit the parent's drain handler; restore the
    # default so the parent's terminate() can always kill us, and
    # ignore Ctrl-C (delivered to the whole foreground process group)
    # so only the parent drains.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    if profile:
        _profiler.enable_profiling()
    # Drop the inherited profile, open-span stack and counters so only
    # this worker's own telemetry is shipped home.
    _profiler.reset_profile()
    _counters.reset_counters()

    def check_parent() -> None:
        # An orphan stops claiming: with its parent gone nobody merges,
        # and a resume must not race a stray appender.
        if os.getppid() != parent:
            raise SystemExit(0)

    def on_commit(_shard: int) -> None:
        if not _ship(conn):
            raise SystemExit(0)

    dtype = get_dtype_config(dtype_name)
    chaos = ChaosWorkerKill.parse(chaos_spec) if chaos_spec else None
    jr = ShardJournal.open_shared(
        journal_dir, corpus_key, bounds, dtype.name, gpu.name
    )
    try:
        if jr.degraded:
            return  # the parent's fallback finishes the sweep
        try:
            lease = LeaseManager(
                journal_dir, make_worker_id(worker_index), lease_seconds
            )
            _worker_loop(
                shapes, dtype, gpu, jr, lease, heartbeat_seconds,
                claim_offset=worker_index, chaos=chaos,
                check_stop=check_parent, on_commit=on_commit,
            )
        except OSError:
            _counters.inc_counter("fabric.degraded")
            _run_shards_serial(
                shapes, dtype, gpu, jr, [None] * len(jr.bounds),
                _open_shards(jr), on_commit=on_commit, fallback=True,
            )
    finally:
        jr.close()
        _ship(conn)
        conn.close()


def _clear_leases(directory: str) -> None:
    """Remove every lease file before a parent starts its workers.

    The parent owns the journal for the whole sweep, so a lease already
    there was left by a worker of an earlier run that was killed — its
    shard is claimable now, not after the lease budget runs out.
    """
    wipe(os.path.join(directory, _LEASES_SUBDIR))


def run_workers(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jr: ShardJournal,
    results: "list[SystemTimings | None]",
    workers: int,
    lease_seconds: "float | None" = None,
    heartbeat_seconds: "float | None" = None,
    chaos_worker=None,
    on_commit=None,
) -> None:
    """Evaluate ``jr``'s open shards with ``workers`` forked workers.

    The parent side of a ``jobs > 1`` sweep
    (:func:`repro.harness.parallel.evaluate_corpus_sharded` opens the
    journal before and merges after).  It evaluates nothing while a
    worker lives: it waits on the workers' exit sentinels and telemetry
    pipes — waking at least every ``_PARENT_WAKE_S`` to honour a drain —
    merges each worker's profiler and counter snapshots, and calls
    ``on_commit(shard)`` for every commit it observes in the journal.
    ``chaos_worker`` (a :class:`~repro.faults.chaos.ChaosWorkerKill` or
    its ``POINT[:K]`` spec) is armed in worker 0 only, so chaos runs
    always have a survivor.  A worker that exits abnormally is counted
    in ``fabric.workers_lost``; its shard is claimed again by a peer.
    When every worker is gone — or none could start
    (``fabric.pool_unusable``) — with shards still open, the parent
    finishes them in-process (``fabric.parent_fallback``) into
    ``results``: losing all workers degrades, never aborts.
    """
    lease_s = resolve_lease_seconds(lease_seconds)
    hb_s = resolve_heartbeat_seconds(heartbeat_seconds, lease_s)
    chaos_spec = _chaos_spec(chaos_worker)
    _clear_leases(jr.directory)
    seen = set(jr.refresh_completed())

    def observe() -> "list[int]":
        pending = _open_shards(jr)
        for i in sorted(set(jr.completed) - seen):
            seen.add(i)
            if on_commit is not None:
                on_commit(i)
        return pending

    procs: "list" = []
    conns: "list" = []
    try:
        try:
            ctx = multiprocessing.get_context()
            for w in range(workers):
                recv, send = ctx.Pipe(duplex=False)
                p = ctx.Process(
                    target=_fabric_worker_main,
                    args=(
                        shapes, dtype.name, gpu, jr.directory,
                        jr.corpus_key, jr.bounds, w, lease_s, hb_s,
                        chaos_spec if w == 0 else None,
                        _profiler.profiling_enabled(), send,
                    ),
                    daemon=True,
                )
                p.start()
                send.close()
                procs.append(p)
                conns.append(recv)
        except Exception:
            # Fork limits/sandboxing: the parent finishes below.
            _counters.inc_counter("fabric.pool_unusable")
        live = list(procs)
        while live or conns:
            _check_drain()
            ready = _wait_ready(
                [p.sentinel for p in live] + conns, timeout=_PARENT_WAKE_S
            )
            for conn in [c for c in conns if c in ready]:
                try:
                    prof_snap, counter_snap = conn.recv()
                except (EOFError, OSError):
                    conns.remove(conn)
                    conn.close()
                    continue
                _profiler.merge_profile(prof_snap)
                _counters.merge_counters(counter_snap)
            for p in [p for p in live if p.sentinel in ready]:
                p.join()
                live.remove(p)
                if p.exitcode != 0:
                    _counters.inc_counter("fabric.workers_lost")
            observe()
        pending = observe()
        if pending:
            _counters.inc_counter("fabric.parent_fallback")
            _run_shards_serial(
                shapes, dtype, gpu, jr, results, pending,
                on_commit=on_commit, fallback=True,
            )
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join()
        for conn in conns:
            conn.close()

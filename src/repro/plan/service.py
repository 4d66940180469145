"""The serving core: micro-batched planning over the tiered plan cache.

:class:`PlanService` is the in-process engine behind ``repro serve``
(:mod:`repro.plan.server` wraps it in a socket front-end, which is
what ``repro loadgen`` drives).  It implements the serving contract of
``docs/SERVING.md``:

* **Hit path** — :meth:`submit` resolves cache hits synchronously on the
  calling thread (one LRU lookup, no queueing), which is why hit latency
  is microseconds and independent of the batching window.
* **Miss path** — misses are enqueued to a single batcher thread that
  waits up to ``batch_window_s`` (or until ``max_batch`` queued misses)
  for concurrent queries to pile up, then groups them by ``(dtype,
  gpu)`` binding and prices each group's *unique* shapes through **one**
  :func:`repro.plan.core.plan_batch` call — one batched Appendix A.1
  argmin and one batched walk instead of N scalar model evaluations.
  Results fill the plan cache and resolve every waiter.
* **Warm start** — construction optionally pre-runs the persistent
  calibration (:func:`repro.model.paramcache.calibrate_cached`) for the
  configured bindings so the first miss never pays simulator
  microbenchmarks inline.

The service is **overload-resilient by construction**
(:mod:`repro.plan.resilience`; docs/SERVING.md "Overload behavior"):

* **Admission control** — the miss queue is bounded
  (``max_queue_depth``); once full, the *newest* request is shed
  deterministically with :class:`OverloadedError` (``serve.shed``)
  instead of growing the queue without bound.
* **Deadline propagation** — callers may attach a ``deadline_ms``
  budget.  A waiter never blocks past its deadline, and the batcher
  drops already-expired entries *before* planning them
  (``serve.deadline_expired``); a waiter whose wait lapses removes its
  queue entry so abandoned requests never consume a batch slot
  (``serve.abandoned``).
* **Circuit breaker** — ``breaker_threshold`` consecutive batcher
  failures open a :class:`~repro.plan.resilience.CircuitBreaker`
  around ``plan_batch``: misses are rejected fast with
  :class:`DegradedError` while cache hits keep being served;
  after ``breaker_cooldown_s`` one half-open probe decides recovery.
* **Graceful drain** — :meth:`drain` stops admitting, the batcher
  flushes in-flight work, and :meth:`stats`/:meth:`health` keep
  answering (``state`` field) all the way through :meth:`close`.

Counters (:mod:`repro.obs.counters`): ``serve.requests``,
``serve.cache_hit`` / ``serve.cache_miss`` (the pair behind
``hit_rate("serve.cache")``), ``serve.batches``,
``serve.batched_queries``, ``serve.unique_shapes``, plus the
resilience family: ``serve.shed``, ``serve.deadline_expired``,
``serve.abandoned``, ``serve.degraded_rejected``,
``serve.draining_rejected``, ``serve.breaker_{open,half_open,closed}``,
``serve.chaos_injected``.  Each flush of the batcher runs under an obs
span named ``serve_batch``; queue depth and batch occupancy are tracked
in :meth:`stats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..gemm.dtypes import DtypeConfig, get_dtype_config
from ..gemm.tiling import Blocking
from ..gpu.spec import DEFAULT_GPU_NAME, GpuSpec, resolve_gpu
from ..model.paramcache import calibrate_cached, gpu_fingerprint
from ..obs.counters import inc_counter
from ..obs.profiler import span
from .cache import PlanCache
from .core import Plan, plan_batch
from .resilience import (
    CircuitBreaker,
    DeadlineExpiredError,
    DegradedError,
    DrainingError,
    OverloadedError,
    PlanTimeoutError,
    parse_chaos,
)

__all__ = ["ServeConfig", "PlanService", "DEFAULT_DTYPE_NAME"]

#: Serving default precision (matches the CLI's ``--dtype`` default).
DEFAULT_DTYPE_NAME = "fp16_fp32"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`PlanService` (see docs/SERVING.md)."""

    #: Micro-batching window: how long the batcher waits for concurrent
    #: misses to coalesce before pricing the batch.  Bounds worst-case
    #: added miss latency; never delays cache hits.
    batch_window_s: float = 0.002
    #: Queued misses that trigger an immediate flush before the window
    #: expires (prevents unbounded batches under heavy load).
    max_batch: int = 256
    #: Hot-tier LRU capacity per ``(dtype, gpu)`` binding.
    cache_capacity: int = 65536
    #: Run persistent calibration for ``warm_bindings`` at startup.
    warm: bool = True
    #: Load/flush persistent plan shards (tier 2).
    persist: bool = True
    #: Cache root override (defaults to ``$REPRO_CACHE_DIR`` rules).
    cache_dir: "str | None" = None
    #: ``(gpu, dtype)`` pairs calibrated at startup when ``warm``.
    warm_bindings: "tuple[tuple[str, str], ...]" = (
        (DEFAULT_GPU_NAME, DEFAULT_DTYPE_NAME),
    )
    #: Admission control: bound on queued misses.  At the bound, new
    #: misses are shed (reject-newest, ``OverloadedError``) instead of
    #: queueing — deterministic load-shedding.
    max_queue_depth: int = 1024
    #: Consecutive batcher failures that open the circuit breaker
    #: (0 disables the breaker).
    breaker_threshold: int = 3
    #: Open-state cooldown before a half-open probe is admitted.
    breaker_cooldown_s: float = 1.0
    #: Planner chaos spec (test seam; ``off``/``stall:S[:N]``/
    #: ``fail[:N]``).  Any non-``None`` value — including ``"off"`` —
    #: also authorizes the wire protocol's ``chaos`` op.
    chaos_spec: "str | None" = None

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ConfigurationError(
                "max_queue_depth must be positive, got %r"
                % (self.max_queue_depth,)
            )
        if self.breaker_cooldown_s < 0:
            raise ConfigurationError("breaker_cooldown_s must be >= 0")


class _Pending:
    """One in-flight miss: a waiter slot resolved by the batcher."""

    __slots__ = (
        "key", "binding", "event", "plan", "error", "enqueued_at",
        "deadline_at", "probe",
    )

    def __init__(
        self,
        binding,
        key,
        enqueued_at: float,
        deadline_at: "float | None" = None,
        probe: bool = False,
    ):
        self.binding = binding
        self.key = key
        self.event = threading.Event()
        self.plan: "Plan | None" = None
        self.error: "BaseException | None" = None
        self.enqueued_at = enqueued_at
        #: Absolute ``perf_counter`` instant after which planning this
        #: entry is wasted work (None = no deadline).
        self.deadline_at = deadline_at
        #: This entry was admitted as the breaker's half-open probe;
        #: any path that drops it unplanned must release the slot
        #: (``CircuitBreaker.cancel_probe``) or the breaker wedges.
        self.probe = probe


class _Binding:
    """Resolved (dtype, gpu) pair plus its cache and calibration."""

    def __init__(self, dtype: DtypeConfig, gpu: GpuSpec, config: ServeConfig):
        self.dtype = dtype
        self.gpu = gpu
        self.key = (dtype.name, gpu_fingerprint(gpu))
        self.cache = PlanCache(
            gpu,
            dtype,
            capacity=config.cache_capacity,
            cache_dir=config.cache_dir,
            persist=config.persist,
        )
        self.params = None  # calibrated lazily or by warm-up

    def calibrated(self):
        if self.params is None:
            self.params = calibrate_cached(
                self.gpu, Blocking(*self.dtype.default_blocking), self.dtype
            )
        return self.params


class PlanService:
    """Thread-safe plan server: sync cache hits, micro-batched misses.

    Use as a context manager, or call :meth:`close` to stop the batcher
    thread and flush plan shards::

        with PlanService() as svc:
            plan = svc.submit(4096, 4096, 4096)
    """

    def __init__(self, config: "ServeConfig | None" = None):
        self.config = config or ServeConfig()
        self._bindings: "dict[tuple[str, str], _Binding]" = {}
        self._bindings_lock = threading.Lock()
        self._queue: "list[_Pending]" = []
        self._cond = threading.Condition()
        self._stop = False
        self._draining = False
        self._closed = False
        self._started_at = time.perf_counter()
        self._breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        # Planner chaos (test seam): armed at boot by chaos_spec; a
        # non-None spec (even "off") authorizes runtime re-arming.
        self.chaos_allowed = self.config.chaos_spec is not None
        self._chaos = parse_chaos(self.config.chaos_spec)
        # Latency ledgers (seconds), split by cache outcome.
        self._stats_lock = threading.Lock()
        self._hit_lat: "list[float]" = []
        self._miss_lat: "list[float]" = []
        self._batch_sizes: "list[int]" = []
        self._max_queue_depth = 0
        self._requests_total = 0
        self._shed = 0
        self._deadline_expired = 0
        self._abandoned = 0
        self._degraded_rejects = 0
        self._draining_rejects = 0
        if self.config.warm:
            for gpu_ref, dtype_ref in self.config.warm_bindings:
                self._binding(dtype_ref, gpu_ref).calibrated()
        self._batcher = threading.Thread(
            target=self._batch_loop, name="plan-batcher", daemon=True
        )
        self._batcher.start()

    # ------------------------------------------------------------------ #
    # Request path                                                        #
    # ------------------------------------------------------------------ #

    def _binding(self, dtype_ref, gpu_ref) -> _Binding:
        dtype = (
            get_dtype_config(dtype_ref)
            if isinstance(dtype_ref, str)
            else dtype_ref
        )
        gpu = resolve_gpu(gpu_ref)
        key = (dtype.name, gpu_fingerprint(gpu))
        with self._bindings_lock:
            binding = self._bindings.get(key)
            if binding is None:
                binding = _Binding(dtype, gpu, self.config)
                self._bindings[key] = binding
            return binding

    def submit(
        self,
        m: int,
        n: int,
        k: int,
        dtype: "DtypeConfig | str" = DEFAULT_DTYPE_NAME,
        gpu: "GpuSpec | str" = DEFAULT_GPU_NAME,
        timeout: "float | None" = 30.0,
        deadline_ms: "float | None" = None,
    ) -> Plan:
        """Plan one query; blocks until the plan is available.

        Hits return synchronously from the calling thread; misses ride
        the next micro-batch.  The returned plan's ``provenance`` tells
        which path it took (``cache:*`` vs ``model``).

        ``deadline_ms`` is the caller's total latency budget: the wait
        never blocks past it, and the batcher drops the entry unplanned
        if the budget lapses while it is queued.  Structured rejections
        (:mod:`repro.plan.resilience`): :class:`OverloadedError` when
        the miss queue is full, :class:`DegradedError` while the
        circuit breaker is open, :class:`DeadlineExpiredError` /
        :class:`PlanTimeoutError` when the budget or ``timeout``
        lapses, :class:`DrainingError` once :meth:`drain` has begun.
        """
        if self._draining or self._stop:
            inc_counter("serve.draining_rejected")
            with self._stats_lock:
                self._draining_rejects += 1
            raise DrainingError(
                "PlanService is closed"
                if self._closed
                else "PlanService is draining; no new queries accepted"
            )
        if m <= 0 or n <= 0 or k <= 0:
            raise ConfigurationError(
                "problem dimensions must be positive, got (%d, %d, %d)"
                % (m, n, k)
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(
                "deadline_ms must be positive, got %r" % (deadline_ms,)
            )
        t0 = time.perf_counter()
        inc_counter("serve.requests")
        with self._stats_lock:
            self._requests_total += 1
        binding = self._binding(dtype, gpu)
        plan = binding.cache.get(m, n, k)
        if plan is not None:
            inc_counter("serve.cache_hit")
            with self._stats_lock:
                self._hit_lat.append(time.perf_counter() - t0)
            return plan

        inc_counter("serve.cache_miss")
        # Breaker gate: while open, only hits are served — a wedged or
        # poisoned planner must not take hit traffic down with it.
        if not self._breaker.admit():
            inc_counter("serve.degraded_rejected")
            with self._stats_lock:
                self._degraded_rejects += 1
            raise DegradedError(
                "circuit breaker %s after repeated plan-batch failures; "
                "serving cache hits only" % self._breaker.state
            )
        # Admitted while half-open == admitted AS the probe (the breaker
        # holds one slot).  If a concurrent outcome already moved the
        # state on, the slot was released with it — not our probe.
        is_probe = self._breaker.state == "half_open"
        deadline_at = t0 + deadline_ms / 1e3 if deadline_ms is not None else None
        pending = _Pending(
            binding, (int(m), int(n), int(k)), t0, deadline_at, probe=is_probe
        )
        with self._cond:
            if self._draining:
                self._breaker.cancel_probe()
                inc_counter("serve.draining_rejected")
                with self._stats_lock:
                    self._draining_rejects += 1
                raise DrainingError(
                    "PlanService is draining; no new queries accepted"
                )
            # Admission control: reject-newest at the bound.  The
            # decision depends only on the queue depth at arrival, so a
            # seeded replay sheds byte-identically.
            if len(self._queue) >= self.config.max_queue_depth:
                self._breaker.cancel_probe()
                inc_counter("serve.shed")
                with self._stats_lock:
                    self._shed += 1
                raise OverloadedError(
                    "miss queue full (depth %d >= max_queue_depth %d); "
                    "request shed"
                    % (len(self._queue), self.config.max_queue_depth)
                )
            self._queue.append(pending)
            depth = len(self._queue)
            self._cond.notify_all()
        with self._stats_lock:
            self._max_queue_depth = max(self._max_queue_depth, depth)
        wait_s = timeout
        if deadline_at is not None:
            remaining = deadline_at - time.perf_counter()
            wait_s = remaining if wait_s is None else min(wait_s, remaining)
        if not pending.event.wait(max(wait_s, 0.0) if wait_s is not None else None):
            # Remove the orphan so the batcher never plans work nobody
            # will read (and it stops consuming a batch slot).
            self._abandon(pending)
            if deadline_at is not None and time.perf_counter() >= deadline_at:
                raise DeadlineExpiredError(
                    "deadline of %.1f ms expired before a plan was ready"
                    % deadline_ms
                )
            raise PlanTimeoutError(
                "plan request timed out after %.1fs (batcher stalled?)"
                % (timeout or 0.0)
            )
        if pending.error is not None:
            raise pending.error
        with self._stats_lock:
            self._miss_lat.append(time.perf_counter() - t0)
        assert pending.plan is not None
        return pending.plan

    def _abandon(self, pending: _Pending) -> bool:
        """Remove a timed-out waiter's entry from the miss queue.

        Returns True when the entry was still queued (and is now
        removed, counted as ``serve.abandoned``); False when the
        batcher had already claimed it.
        """
        with self._cond:
            try:
                self._queue.remove(pending)
            except ValueError:
                # The batcher already claimed it; the batch outcome (or
                # the deadline-drop in _run_batch) settles the probe.
                return False
        if pending.probe:
            # The probe dies unplanned: free the half-open slot or no
            # future miss could ever be admitted to close the breaker.
            self._breaker.cancel_probe()
        inc_counter("serve.abandoned")
        with self._stats_lock:
            self._abandoned += 1
        return True

    # ------------------------------------------------------------------ #
    # Batcher                                                             #
    # ------------------------------------------------------------------ #

    def _batch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if self._stop and not self._queue:
                    return
                # Window: wait for concurrent misses to coalesce, but
                # flush early once max_batch are queued.
                deadline = time.perf_counter() + self.config.batch_window_s
                while (
                    len(self._queue) < self.config.max_batch
                    and not self._stop
                ):
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                batch = self._queue[: self.config.max_batch]
                del self._queue[: self.config.max_batch]
            self._run_batch(batch)

    def _run_batch(self, batch: "list[_Pending]") -> None:
        # Deadline propagation: drop entries whose budget lapsed while
        # queued — planning them is pure waste, nobody is waiting.
        now = time.perf_counter()
        live: "list[_Pending]" = []
        for pending in batch:
            if pending.deadline_at is not None and now >= pending.deadline_at:
                if pending.probe:
                    # Dropped unplanned: release the half-open slot so
                    # the breaker can admit a fresh probe.
                    self._breaker.cancel_probe()
                inc_counter("serve.deadline_expired")
                with self._stats_lock:
                    self._deadline_expired += 1
                pending.error = DeadlineExpiredError(
                    "deadline expired while queued; dropped before planning"
                )
                pending.event.set()
            else:
                live.append(pending)
        if not live:
            return
        with self._stats_lock:
            self._batch_sizes.append(len(live))
        inc_counter("serve.batches")
        inc_counter("serve.batched_queries", len(live))
        # Group by binding, then price each group's unique shapes in ONE
        # plan_batch call — the whole point of the micro-batcher.
        groups: "dict[tuple, list[_Pending]]" = {}
        for pending in live:
            groups.setdefault(pending.binding.key, []).append(pending)
        with span("serve_batch"):
            chaos = self._chaos
            if chaos is not None:
                try:
                    chaos.apply()  # stall sleeps here; fail raises
                except BaseException as exc:
                    self._breaker.record_failure()
                    for pending in live:
                        pending.error = exc
                        pending.event.set()
                    return
            for members in groups.values():
                binding = members[0].binding
                unique = sorted({p.key for p in members})
                inc_counter("serve.unique_shapes", len(unique))
                try:
                    shapes = np.array(unique, dtype=np.int64)
                    result = plan_batch(
                        shapes,
                        binding.dtype,
                        binding.gpu,
                        params=binding.calibrated(),
                    )
                    by_key = {unique[i]: result.plan(i) for i in range(len(unique))}
                    for plan in by_key.values():
                        binding.cache.put(plan)
                    for pending in members:
                        pending.plan = by_key[pending.key]
                        pending.event.set()
                    self._breaker.record_success()
                except BaseException as exc:  # propagate to every waiter
                    self._breaker.record_failure()
                    for pending in members:
                        pending.error = exc
                        pending.event.set()

    # ------------------------------------------------------------------ #
    # Introspection / shutdown                                            #
    # ------------------------------------------------------------------ #

    def _state(self) -> str:
        """Lifecycle/health state: ``serving`` | ``degraded`` (breaker
        not closed) | ``draining`` | ``closed``."""
        if self._closed:
            return "closed"
        if self._draining or self._stop:
            return "draining"
        if self._breaker.state != "closed":
            return "degraded"
        return "serving"

    def stats(self) -> dict:
        """Aggregate serving statistics (the ``stats`` op of the wire
        protocol and the numbers ``repro serve`` prints on shutdown).

        Never raises, even mid-shutdown: once :meth:`close` has run the
        batcher thread is gone (``None``) and the snapshot reports
        ``"state": "closed"`` instead of touching it.
        """

        def pct_us(values, q):
            return float(np.percentile(values, q)) * 1e6 if values else None

        with self._stats_lock:
            hits, misses = list(self._hit_lat), list(self._miss_lat)
            sizes = list(self._batch_sizes)
            depth = self._max_queue_depth
        batcher = getattr(self, "_batcher", None)
        requests = len(hits) + len(misses)
        return {
            "state": self._state(),
            "batcher_alive": bool(batcher is not None and batcher.is_alive()),
            "requests": requests,
            "hits": len(hits),
            "misses": len(misses),
            "hit_rate": (len(hits) / requests) if requests else None,
            "batches": len(sizes),
            "mean_batch_occupancy": (
                float(np.mean(sizes)) if sizes else None
            ),
            "max_queue_depth": depth,
            "queue_depth": len(self._queue),
            "breaker": self._breaker.state,
            "shed": self._shed,
            "deadline_expired": self._deadline_expired,
            "abandoned": self._abandoned,
            "degraded_rejects": self._degraded_rejects,
            "hit_p50_us": pct_us(hits, 50),
            "hit_p99_us": pct_us(hits, 99),
            "miss_p50_us": pct_us(misses, 50),
            "miss_p99_us": pct_us(misses, 99),
            "uptime_s": time.perf_counter() - self._started_at,
            "bindings": sorted(
                "%s@%s" % (b.dtype.name, b.gpu.name)
                for b in self._bindings.values()
            ),
        }

    def health(self) -> dict:
        """Cheap liveness/overload snapshot (the ``health`` wire op).

        Unlike :meth:`stats` this takes no percentiles — it is safe to
        poll at high frequency and never raises, at any lifecycle
        stage.
        """
        with self._stats_lock:
            requests = self._requests_total
            shed = self._shed
            deadline_expired = self._deadline_expired
            abandoned = self._abandoned
            degraded = self._degraded_rejects
        return {
            "state": self._state(),
            "uptime_s": time.perf_counter() - self._started_at,
            "queue_depth": len(self._queue),
            "max_queue_depth": self.config.max_queue_depth,
            "breaker": self._breaker.state,
            "requests": requests,
            "shed": shed,
            # _requests_total already counts shed requests (incremented
            # at submit() entry), so the rate is shed over all requests.
            "shed_rate": (shed / requests) if requests else 0.0,
            "deadline_expired": deadline_expired,
            "abandoned": abandoned,
            "degraded_rejects": degraded,
        }

    def arm_chaos(self, spec: "str | None") -> str:
        """(Re-)arm the planner chaos seam at runtime (``chaos`` op).

        Only honored when the service was constructed with a non-None
        ``chaos_spec`` — a production daemon cannot be chaos-injected
        over the wire.  Returns the active spec (``"off"`` when
        disarmed).
        """
        if not self.chaos_allowed:
            raise ConfigurationError(
                "chaos injection not enabled; start the daemon with "
                "--chaos-plan to allow it"
            )
        self._chaos = parse_chaos(spec)
        return self._chaos.spec() if self._chaos is not None else "off"

    def drain(self) -> None:
        """Stop admitting new queries; in-flight work keeps flushing.

        New :meth:`submit` calls raise :class:`DrainingError`
        immediately; queued misses are still planned and their waiters
        resolved.  :meth:`stats` and :meth:`health` keep answering.
        """
        with self._cond:
            if not self._draining:
                self._draining = True
                inc_counter("serve.draining")

    def close(self) -> None:
        """Drain, stop the batcher (flushing queued work), and flush
        plan shards.  Idempotent; :meth:`stats` stays callable after.

        If the batcher does not exit within the join timeout (a wedged
        planner that outlived its chaos budget), the shard flush is
        skipped — flushing under a live writer could interleave with
        the batcher's own ``cache.put`` calls — and the still-running
        thread stays visible as ``batcher_alive`` in :meth:`stats`
        (``serve.close_wedged``).
        """
        self.drain()
        with self._cond:
            if self._stop:
                return
            self._stop = True
            self._cond.notify_all()
        batcher = self._batcher
        wedged = False
        if batcher is not None:
            batcher.join(timeout=10.0)
            wedged = batcher.is_alive()
        if wedged:
            inc_counter("serve.close_wedged")
        else:
            self._batcher = None
        self._closed = True
        if not wedged:
            with self._bindings_lock:
                for binding in self._bindings.values():
                    binding.cache.flush()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

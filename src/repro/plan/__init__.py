"""``repro.plan`` — the planning side of the plan/evaluate split.

Everything under this package answers *"what should we launch?"* as pure
arithmetic over ``(m, n, k, dtype, gpu)``; nothing here materializes a
schedule or runs the discrete-event simulator (that is the evaluation
side: :mod:`repro.harness`, :mod:`repro.gpu.executor`).

* :mod:`~repro.plan.core` — :func:`plan_query` / :func:`plan_batch`, the
  one batched implementation every consumer shares (scalar queries,
  corpus sweeps, the serving daemon).
* :mod:`~repro.plan.cache` — tiered plan cache (hot LRU → persistent
  shard), keyed on shape + dtype + GPU fingerprint, invalidated by
  engine version or fingerprint change.
* :mod:`~repro.plan.service` — micro-batching :class:`PlanService`:
  synchronous cache hits, window-coalesced misses.
* :mod:`~repro.plan.resilience` — the overload contract: structured
  rejections (``overloaded``/``deadline_expired``/``degraded``/...),
  the circuit breaker, the client retry policy, and the deterministic
  planner-chaos seam.
* :mod:`~repro.plan.server` — JSONL TCP front-end (``repro serve``).
* :mod:`~repro.plan.client` — resilient wire client
  (:class:`PlanClient`): one blocking connection, deadline propagation,
  seeded-backoff retries.
* :mod:`~repro.plan.loadgen` — deterministic Zipf load generator
  (``repro loadgen``) that always drives a daemon over TCP, and its
  latency/QPS report.

The serving contract (wire schema, cache keys, invalidation, latency
expectations) is documented in ``docs/SERVING.md``.
"""

from .cache import PlanCache, wipe_plan_cache
from .core import (
    KIND_NAMES,
    PLAN_ENGINE_VERSION,
    Plan,
    PlanBatch,
    plan_batch,
    plan_query,
    roofline_time,
    traffic_bytes,
)
from .client import PlanClient
from .loadgen import LoadgenConfig, run_loadgen, zipf_trace
from .resilience import (
    CircuitBreaker,
    DeadlineExpiredError,
    DegradedError,
    DrainingError,
    OverloadedError,
    PlanTimeoutError,
    RetryPolicy,
    ServeRejected,
)
from .server import PlanServer
from .service import DEFAULT_DTYPE_NAME, PlanService, ServeConfig

__all__ = [
    "KIND_NAMES",
    "PLAN_ENGINE_VERSION",
    "Plan",
    "PlanBatch",
    "plan_batch",
    "plan_query",
    "roofline_time",
    "traffic_bytes",
    "PlanCache",
    "wipe_plan_cache",
    "PlanService",
    "ServeConfig",
    "DEFAULT_DTYPE_NAME",
    "PlanServer",
    "PlanClient",
    "LoadgenConfig",
    "run_loadgen",
    "zipf_trace",
    "ServeRejected",
    "OverloadedError",
    "DeadlineExpiredError",
    "DegradedError",
    "DrainingError",
    "PlanTimeoutError",
    "CircuitBreaker",
    "RetryPolicy",
]

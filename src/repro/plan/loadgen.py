"""Zipf-distributed load generator for the plan-serving path.

Production GEMM traffic is heavily repeat-shape (the same attention and
MLP extents recur every step), which is the regime the plan cache is
built for.  This module reproduces that regime deterministically: a
*universe* of distinct shapes drawn by the corpus generator
(:func:`repro.corpus.generator.generate_corpus`, seed-pinned), sampled
with Zipf rank weights ``P(rank i) ∝ 1 / i**s`` by a seeded
:func:`numpy.random.default_rng` — so every run of ``repro loadgen``
with the same knobs replays byte-for-byte the same request trace.

Every run drives the real serving path: client threads, each with its
own :class:`~repro.plan.client.PlanClient`, speak the JSONL protocol of
:mod:`repro.plan.server` to a ``repro serve`` daemon — the one at
``--connect HOST:PORT`` or, without it, a
:class:`~repro.plan.server.PlanServer` booted on an ephemeral local
port for the length of the run.

The report splits client-observed latency by cache outcome — the
hit/miss split, not the blended number, is the serving contract's
headline (docs/SERVING.md, "Tail-latency expectations").

The generator also exercises the *client* half of the overload
contract (docs/SERVING.md, "Overload behavior"): per-request
``deadline_ms`` budgets and seeded exponential-backoff retries on
``overloaded``/``timeout`` rejections.  Retry outcomes and a per-code
rejection breakdown land in the report, and because every backoff draw
is seeded, a replayed run makes byte-identical retry decisions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..corpus.generator import CorpusSpec, generate_corpus
from ..errors import ConfigurationError
from ..gpu.spec import DEFAULT_GPU_NAME
from .client import PlanClient
from .resilience import RetryPolicy
from .server import PlanServer
from .service import DEFAULT_DTYPE_NAME, PlanService, ServeConfig

__all__ = ["LoadgenConfig", "zipf_trace", "run_loadgen"]


@dataclass(frozen=True)
class LoadgenConfig:
    """Knobs of one load-generation run (all deterministic given seed)."""

    #: Total requests to issue across all client threads.
    requests: int = 2000
    #: Number of distinct shapes in the Zipf universe.
    universe: int = 256
    #: Zipf exponent ``s``; larger skews harder toward the hot ranks.
    zipf_s: float = 1.1
    #: Seed for both the shape universe and the rank sampling.
    seed: int = 0
    #: Concurrent client threads (concurrency drives batch occupancy).
    clients: int = 4
    #: Precision and GPU every request asks for.
    dtype: str = DEFAULT_DTYPE_NAME
    gpu: str = DEFAULT_GPU_NAME
    #: Per-request latency budget propagated to the service (None = no
    #: deadline); expired requests are dropped, never planned.
    deadline_ms: "float | None" = None
    #: Retries per request on ``overloaded``/``timeout`` rejections.
    retries: int = 0
    #: First-retry backoff before seeded jitter (exponential, capped).
    backoff_ms: float = 5.0
    #: Transport/service timeout per attempt.
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.requests <= 0 or self.universe <= 0 or self.clients <= 0:
            raise ConfigurationError(
                "requests, universe, and clients must be positive"
            )
        if self.zipf_s < 0:
            raise ConfigurationError("zipf_s must be non-negative")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be positive")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.backoff_ms < 0:
            raise ConfigurationError("backoff_ms must be >= 0")

    def retry_policy(self, client_index: int) -> RetryPolicy:
        """The seeded per-client retry policy (distinct jitter streams
        per client thread, reproducible across runs)."""
        return RetryPolicy(
            max_retries=self.retries,
            base_backoff_s=self.backoff_ms / 1e3,
            seed=self.seed * 8191 + client_index,
        )


def zipf_trace(config: LoadgenConfig) -> np.ndarray:
    """The deterministic request trace: a ``(requests, 3)`` shape array.

    Rank ``i`` of the universe (corpus order) is drawn with probability
    proportional to ``1 / (i + 1)**s``.  Same config, same trace —
    byte-for-byte.
    """
    universe = generate_corpus(CorpusSpec(size=config.universe, seed=config.seed))
    ranks = np.arange(1, config.universe + 1, dtype=np.float64)
    probs = ranks ** (-config.zipf_s)
    probs /= probs.sum()
    rng = np.random.default_rng(config.seed)
    idx = rng.choice(config.universe, size=config.requests, p=probs)
    return universe[idx]


class _Recorder:
    """Thread-safe (latency, hit?) ledger shared by the client threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.hit_lat: "list[float]" = []
        self.miss_lat: "list[float]" = []
        self.errors: "list[str]" = []
        self.outcomes: "dict[str, int]" = {}
        self.retries = 0

    def record(self, latency_s: float, hit: bool) -> None:
        with self._lock:
            (self.hit_lat if hit else self.miss_lat).append(latency_s)

    def fail(self, message: str, code: "str | None" = None) -> None:
        with self._lock:
            self.errors.append(message)
            key = code or "error"
            self.outcomes[key] = self.outcomes.get(key, 0) + 1

    def merge_client(self, stats: dict) -> None:
        with self._lock:
            self.retries += stats["retries"]


def _drive_socket(
    host: str, port: int, trace: np.ndarray, config: LoadgenConfig
) -> _Recorder:
    rec = _Recorder()

    def worker(index: int, rows: np.ndarray) -> None:
        with PlanClient(
            host,
            port,
            timeout_s=config.timeout_s,
            retry=config.retry_policy(index),
        ) as client:
            for m, n, k in rows:
                t0 = time.perf_counter()
                reply = client.plan(
                    int(m), int(n), int(k),
                    dtype=config.dtype, gpu=config.gpu,
                    deadline_ms=config.deadline_ms,
                )
                latency = time.perf_counter() - t0
                if not reply.get("ok"):
                    rec.fail(str(reply.get("error")), reply.get("code"))
                    continue
                rec.record(latency, reply.get("cache") == "hit")
            rec.merge_client(client.stats)

    # Fan the trace out round-robin so hot ranks spread across threads.
    threads = [
        threading.Thread(
            target=worker, args=(i, trace[i::config.clients]), daemon=True
        )
        for i in range(config.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rec


def run_loadgen(
    config: "LoadgenConfig | None" = None,
    connect: "tuple[str, int] | None" = None,
    serve_config: "ServeConfig | None" = None,
) -> dict:
    """Replay one Zipf trace over TCP and return the latency/QPS report.

    ``connect`` targets a running daemon; otherwise a
    :class:`PlanServer` over a fresh ``PlanService(serve_config)`` is
    booted on an ephemeral port and stopped after the replay (its boot
    and shutdown are not timed).  The report is the JSON written by
    ``repro loadgen --out`` and the payload ``bench_serve`` aggregates.
    """
    config = config or LoadgenConfig()
    trace = zipf_trace(config)

    server = None
    if connect is None:
        server = PlanServer(PlanService(serve_config), port=0).start()
        connect = ("127.0.0.1", server.port)
    try:
        t0 = time.perf_counter()
        rec = _drive_socket(connect[0], connect[1], trace, config)
        elapsed = time.perf_counter() - t0
    finally:
        if server is not None:
            server.stop()

    def pct_us(values, q):
        return float(np.percentile(values, q)) * 1e6 if values else None

    completed = len(rec.hit_lat) + len(rec.miss_lat)
    hit_p99 = pct_us(rec.hit_lat, 99)
    miss_p99 = pct_us(rec.miss_lat, 99)
    return {
        "requests": config.requests,
        "completed": completed,
        "failed": len(rec.errors),
        "errors": rec.errors[:10],
        "universe": config.universe,
        "zipf_s": config.zipf_s,
        "seed": config.seed,
        "clients": config.clients,
        "dtype": config.dtype,
        "gpu": config.gpu,
        "elapsed_s": elapsed,
        "qps": completed / elapsed if elapsed > 0 else None,
        "deadline_ms": config.deadline_ms,
        "retries": rec.retries,
        "outcomes": dict(sorted(rec.outcomes.items())),
        "hits": len(rec.hit_lat),
        "misses": len(rec.miss_lat),
        "hit_rate": (len(rec.hit_lat) / completed) if completed else None,
        "hit_p50_us": pct_us(rec.hit_lat, 50),
        "hit_p99_us": hit_p99,
        "miss_p50_us": pct_us(rec.miss_lat, 50),
        "miss_p99_us": pct_us(rec.miss_lat, 99),
        "p99_speedup_hit_vs_miss": (
            miss_p99 / hit_p99 if hit_p99 and miss_p99 else None
        ),
    }

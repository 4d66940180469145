"""Tiered plan cache: hot in-memory LRU over a persistent JSON shard.

Sits between the serving layer (:mod:`repro.plan.service`) and the pure
planner (:mod:`repro.plan.core`).  Because a :class:`~repro.plan.core.Plan`
is a pure function of ``(m, n, k, dtype, gpu)`` plus the calibrated model
constants, caching is sound exactly as long as the key captures everything
the arithmetic depends on:

* **Key** — ``(m, n, k)`` within a cache bound to one ``(dtype,
  gpu-fingerprint)`` pair at the precision's shipped blocking.  The GPU
  *name* is never the key: :func:`repro.model.paramcache.gpu_fingerprint`
  hashes every ``GpuSpec`` field, so editing any hardware constant
  re-keys the cache.
* **Invalidation** — structural, never temporal.  A persisted shard
  carries ``(engine_version, gpu_fingerprint, dtype)`` in its header and
  its filename; a mismatch on either the planner version
  (:data:`repro.plan.core.PLAN_ENGINE_VERSION`) or the fingerprint makes
  the whole shard a clean miss.  Stale shards are left for the next
  flush to supersede; corrupt shards are quarantined to ``*.corrupt``.

Storage follows :mod:`repro.model.paramcache` conventions: shards live
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) in ``plans/``,
writes are atomic (:func:`repro.durable.publish`: private temp file,
fsync, ``os.replace``), filesystem failures degrade to memory-only
operation, and ``REPRO_NO_DISK_CACHE=1`` disables the disk tier
outright.

Counters (:mod:`repro.obs.counters`): ``plancache.hot_hit``,
``plancache.disk_hit``, ``plancache.miss``, ``plancache.evicted``,
``plancache.flush_failed``, ``plancache.corrupt_quarantined``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from collections import OrderedDict

import numpy as np

from ..durable import publish, quarantine, wipe
from ..gemm.dtypes import DtypeConfig, get_dtype_config
from ..gpu.spec import GpuSpec
from ..model.cost import StreamKModelParams
from ..model.paramcache import default_cache_dir, gpu_fingerprint
from ..obs.counters import inc_counter
from . import core as _core
from .core import Plan, plan_batch

__all__ = ["PlanCache", "wipe_plan_cache"]

_ENV_NO_DISK = "REPRO_NO_DISK_CACHE"

#: Default hot-tier capacity.  A Plan decodes to a few hundred bytes, so
#: the default bounds the hot tier to tens of MB — comfortably larger
#: than the paper's full 32,824-shape corpus.
_DEFAULT_CAPACITY = 65536


def _disk_enabled() -> bool:
    return os.environ.get(_ENV_NO_DISK, "") not in ("1", "true", "yes")


class PlanCache:
    """Two-tier plan cache for one ``(gpu, dtype)`` serving binding.

    Tier 1 is an :class:`~collections.OrderedDict` LRU keyed on
    ``(m, n, k)``; tier 2 is one JSON shard on disk, loaded wholesale at
    construction and rewritten by :meth:`flush`.  All methods are
    thread-safe (the serving daemon hits :meth:`get` from client threads
    while the batcher thread calls :meth:`put`).

    Plans returned from the cache are bitwise-identical to a cold
    :func:`~repro.plan.core.plan_query` — only the ``provenance`` field
    (excluded from equality) records which tier they came from.
    """

    def __init__(
        self,
        gpu: GpuSpec,
        dtype: "DtypeConfig | str",
        capacity: int = _DEFAULT_CAPACITY,
        cache_dir: "str | None" = None,
        persist: bool = True,
    ):
        self.gpu = gpu
        self.dtype = get_dtype_config(dtype) if isinstance(dtype, str) else dtype
        self.capacity = max(1, int(capacity))
        self.cache_dir = cache_dir or default_cache_dir()
        self.persist = bool(persist) and _disk_enabled()
        self.fingerprint = gpu_fingerprint(gpu)
        self._lock = threading.Lock()
        self._hot: "OrderedDict[tuple[int, int, int], Plan]" = OrderedDict()
        self._disk: "dict[tuple[int, int, int], Plan]" = {}
        self._dirty = False
        if self.persist:
            self._load_shard()

    # ------------------------------------------------------------------ #
    # Key / path plumbing                                                 #
    # ------------------------------------------------------------------ #

    @property
    def engine_version(self) -> int:
        """Planner version this cache is bound to (module attribute read
        at call time, so a version bump invalidates live caches too)."""
        return _core.PLAN_ENGINE_VERSION

    def shard_path(self) -> str:
        """Path of this binding's persistent shard; version + fingerprint
        + dtype in the filename make stale shards unreachable by name."""
        name = "plans_v%d_%s_%s.json" % (
            self.engine_version,
            self.fingerprint[:20],
            self.dtype.name,
        )
        return os.path.join(self.cache_dir, "plans", name)

    # ------------------------------------------------------------------ #
    # Lookup / insert                                                     #
    # ------------------------------------------------------------------ #

    def get(self, m: int, n: int, k: int) -> "Plan | None":
        """Cached plan for ``(m, n, k)``, or ``None`` on miss.

        Hot hits refresh LRU recency; disk hits promote into the hot
        tier.  Either way the returned plan differs from a cold
        computation only in ``provenance``.
        """
        key = (int(m), int(n), int(k))
        with self._lock:
            plan = self._hot.get(key)
            if plan is not None:
                self._hot.move_to_end(key)
                inc_counter("plancache.hot_hit")
                return dataclasses.replace(plan, provenance="cache:hot")
            plan = self._disk.get(key)
            if plan is not None:
                self._insert(key, plan)
                inc_counter("plancache.disk_hit")
                return dataclasses.replace(plan, provenance="cache:disk")
        inc_counter("plancache.miss")
        return None

    def put(self, plan: Plan) -> None:
        """Insert one plan (stale-engine or foreign-GPU plans are refused)."""
        if (
            plan.engine_version != self.engine_version
            or plan.gpu_fingerprint != self.fingerprint
            or plan.dtype_name != self.dtype.name
        ):
            return
        with self._lock:
            self._insert((plan.m, plan.n, plan.k), plan)
            self._dirty = True

    def _insert(self, key, plan: Plan) -> None:
        self._hot[key] = dataclasses.replace(plan, provenance="model")
        self._hot.move_to_end(key)
        while len(self._hot) > self.capacity:
            self._hot.popitem(last=False)
            inc_counter("plancache.evicted")

    def plan_or_compute(
        self,
        m: int,
        n: int,
        k: int,
        params: "StreamKModelParams | None" = None,
    ) -> Plan:
        """Serve from cache, or run a one-row :func:`plan_batch` and fill."""
        plan = self.get(m, n, k)
        if plan is not None:
            return plan
        shapes = np.array([[m, n, k]], dtype=np.int64)
        plan = plan_batch(shapes, self.dtype, self.gpu, params=params).plan(0)
        self.put(plan)
        return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._hot)

    # ------------------------------------------------------------------ #
    # Persistence                                                         #
    # ------------------------------------------------------------------ #

    def _load_shard(self) -> None:
        """Populate the disk tier from this binding's shard, if valid."""
        path = self.shard_path()
        try:
            with open(path) as fh:
                raw = fh.read()
        except OSError:
            return  # plain miss, not corruption
        try:
            doc = json.loads(raw)
        except ValueError:
            quarantine(path, "plancache.corrupt_quarantined")
            return
        try:
            if (
                doc["version"] != self.engine_version
                or doc["gpu_fingerprint"] != self.fingerprint
                or doc["dtype"] != self.dtype.name
            ):
                return  # stale shard: clean miss, superseded on next flush
            for payload in doc["plans"]:
                plan = Plan.from_payload(payload)
                if (
                    plan.engine_version == self.engine_version
                    and plan.gpu_fingerprint == self.fingerprint
                ):
                    self._disk[(plan.m, plan.n, plan.k)] = plan
        except (KeyError, TypeError, ValueError):
            self._disk.clear()
            quarantine(path, "plancache.corrupt_quarantined")

    def flush(self) -> "str | None":
        """Atomically persist the merged tiers; returns the path or ``None``.

        Disk entries not currently hot are retained (a short-lived server
        must not erode the shard), newest-first up to ``capacity``.
        """
        if not self.persist:
            return None
        with self._lock:
            if not self._dirty and not self._hot:
                return None
            merged: "OrderedDict[tuple, Plan]" = OrderedDict()
            for key, plan in self._disk.items():
                merged[key] = plan
            for key, plan in self._hot.items():
                merged[key] = plan  # hot recency wins
            keep = list(merged.items())[-self.capacity:]
            doc = {
                "version": self.engine_version,
                "gpu_fingerprint": self.fingerprint,
                "gpu_name": self.gpu.name,
                "dtype": self.dtype.name,
                "plans": [plan.to_payload() for _, plan in keep],
            }
        path = self.shard_path()
        try:
            text = json.dumps(doc, sort_keys=True) + "\n"
            publish(path, text.encode("utf-8"))
        except OSError:
            inc_counter("plancache.flush_failed")
            return None
        with self._lock:
            self._dirty = False
        return path


def wipe_plan_cache(cache_dir: "str | None" = None) -> int:
    """Delete every persisted plan shard; returns the number removed."""
    root = os.path.join(cache_dir or default_cache_dir(), "plans")
    return wipe(root, "plans_", (".json", ".corrupt"))

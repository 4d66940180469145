"""Persistent calibration cache for :class:`StreamKModelParams`.

The paper calibrates {a, b, c, d} "once per target architecture"; this
module makes the reproduction behave the same way across *processes*.  A
cold process would otherwise re-run the simulator microbenchmarks of
:func:`repro.model.calibrate.calibrate` for every (GPU, blocking, dtype)
combination it touches — wasted work for corpus sweeps, sharded workers,
and repeated CLI invocations.

Two cache levels:

* an in-process memo (exact-fingerprint keyed dict), and
* a versioned on-disk JSON store under ``$REPRO_CACHE_DIR`` (default
  ``~/.cache/repro``), keyed by (GPU fingerprint, blocking, dtype, model
  version).

Invalidation is structural, not temporal: the **GPU fingerprint** hashes
every :class:`~repro.gpu.spec.GpuSpec` field, so any change to the
simulated hardware produces a different key, and
:data:`CALIBRATION_CACHE_VERSION` must be bumped whenever the calibration
procedure or the executor cost structure changes meaning.  Entries whose
version or fingerprint no longer match are ignored (and overwritten on the
next store).

Writes are safe under concurrent writers: each store is an atomic
publish (:func:`repro.durable.publish`: private temp file in the
destination directory, fsync, :func:`os.replace`).  A missing or
unwritable cache directory degrades silently to in-memory-only
operation.  Set ``REPRO_NO_DISK_CACHE=1``
to disable the disk layer outright; ``wipe_calibration_cache()`` (or
``python -m repro cache --wipe``) clears it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from ..durable import publish, quarantine, wipe
from ..gemm.dtypes import DtypeConfig
from ..gemm.tiling import Blocking
from ..gpu.spec import GpuSpec
from ..obs.counters import inc_counter
from ..obs.profiler import span
from .calibrate import calibrate
from .cost import StreamKModelParams

__all__ = [
    "CALIBRATION_CACHE_VERSION",
    "calibrate_cached",
    "default_cache_dir",
    "gpu_fingerprint",
    "load_cached_params",
    "store_params",
    "wipe_calibration_cache",
    "clear_memory_cache",
]

#: Bump whenever :func:`repro.model.calibrate.calibrate` or the executor
#: cost structure changes in a way that alters the fitted constants.
CALIBRATION_CACHE_VERSION = 1

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_ENV_NO_DISK = "REPRO_NO_DISK_CACHE"

_MEMORY: "dict[tuple, StreamKModelParams]" = {}


def default_cache_dir() -> str:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(_ENV_CACHE_DIR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _disk_enabled() -> bool:
    return os.environ.get(_ENV_NO_DISK, "") not in ("1", "true", "yes")


def gpu_fingerprint(gpu: GpuSpec) -> str:
    """Content hash of every :class:`GpuSpec` field.

    Any change to the simulated hardware (SM count, clocks, MAC rates,
    bandwidth model, ...) yields a new fingerprint and therefore a cache
    miss — the invalidation rule for persisted calibrations.
    """
    payload = json.dumps(dataclasses.asdict(gpu), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _entry_path(
    cache_dir: str, fp: str, blocking: Blocking, dtype: DtypeConfig
) -> str:
    name = "calib_v%d_%s_%dx%dx%d_%s.json" % (
        CALIBRATION_CACHE_VERSION,
        fp[:20],
        blocking.blk_m,
        blocking.blk_n,
        blocking.blk_k,
        dtype.name,
    )
    return os.path.join(cache_dir, "calibration", name)


def load_cached_params(
    gpu: GpuSpec,
    blocking: Blocking,
    dtype: DtypeConfig,
    cache_dir: "str | None" = None,
) -> "StreamKModelParams | None":
    """Load a persisted calibration, or ``None`` on miss/stale/corrupt.

    A *stale* entry (version bump, different GPU fingerprint) is a
    legitimate miss — it is left in place and overwritten by the next
    store.  A *corrupt* entry (unparsable JSON, missing or mistyped
    fields) is quarantined: renamed to ``*.corrupt`` and counted in
    ``paramcache.corrupt_quarantined``.
    """
    fp = gpu_fingerprint(gpu)
    path = _entry_path(cache_dir or default_cache_dir(), fp, blocking, dtype)
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError:
        return None  # plain miss, not corruption
    try:
        doc = json.loads(raw)
    except ValueError:
        quarantine(path, "paramcache.corrupt_quarantined")
        return None
    try:
        if (
            doc["version"] != CALIBRATION_CACHE_VERSION
            or doc["gpu_fingerprint"] != fp
            or tuple(doc["blocking"]) != blocking.as_tuple
            or doc["dtype"] != dtype.name
        ):
            return None  # stale, will be overwritten on next store
        return StreamKModelParams(
            a=float(doc["a"]),
            b=float(doc["b"]),
            c=float(doc["c"]),
            d=float(doc["d"]),
            blocking=blocking.as_tuple,
            dtype_name=dtype.name,
            gpu_name=str(doc.get("gpu_name", gpu.name)),
        )
    except (KeyError, TypeError, ValueError):
        quarantine(path, "paramcache.corrupt_quarantined")
        return None


def store_params(
    params: StreamKModelParams,
    gpu: GpuSpec,
    cache_dir: "str | None" = None,
) -> "str | None":
    """Persist one calibration atomically; returns the path or ``None``.

    Concurrent writers race benignly: each publishes its own temporary
    file and the last rename wins with a complete document.  Any
    filesystem failure (``ENOSPC``, ``EROFS``, unwritable directory)
    bumps ``paramcache.write_failed`` and degrades to in-memory-only
    caching instead of propagating.
    """
    fp = gpu_fingerprint(gpu)
    blocking = Blocking(*params.blocking)
    dtype_name = params.dtype_name
    path = _entry_path(
        cache_dir or default_cache_dir(), fp, blocking, _DtypeKey(dtype_name)
    )
    doc = {
        "version": CALIBRATION_CACHE_VERSION,
        "gpu_fingerprint": fp,
        "gpu_name": gpu.name,
        "blocking": list(params.blocking),
        "dtype": dtype_name,
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "d": params.d,
    }
    try:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        publish(path, text.encode("utf-8"))
    except OSError:
        inc_counter("paramcache.write_failed")
        return None
    return path


class _DtypeKey:
    """Minimal duck-type carrying just the ``name`` used in cache keys."""

    def __init__(self, name: str):
        self.name = name


def calibrate_cached(
    gpu: GpuSpec,
    blocking: Blocking,
    dtype: DtypeConfig,
    cache_dir: "str | None" = None,
) -> StreamKModelParams:
    """Calibrated constants through the two-level cache.

    Lookup order: in-process memo -> on-disk store -> run the simulator
    microbenchmarks (and persist the result).  Only the default
    depth/split microbenchmark sets are cached; callers needing custom
    sets should call :func:`repro.model.calibrate.calibrate` directly.
    """
    fp = gpu_fingerprint(gpu)
    key = (fp, blocking.as_tuple, dtype.name)
    params = _MEMORY.get(key)
    if params is not None:
        inc_counter("paramcache.memo_hit")
        return params
    if _disk_enabled():
        params = load_cached_params(gpu, blocking, dtype, cache_dir)
        if params is not None:
            inc_counter("paramcache.disk_hit")
            _MEMORY[key] = params
            return params
    inc_counter("paramcache.miss")
    with span("calibrate"):
        params = calibrate(gpu, blocking, dtype)
    _MEMORY[key] = params
    if _disk_enabled():
        store_params(params, gpu, cache_dir)
    return params


def wipe_calibration_cache(cache_dir: "str | None" = None) -> int:
    """Delete every persisted calibration; returns the number removed."""
    root = os.path.join(cache_dir or default_cache_dir(), "calibration")
    return wipe(root, "calib_", (".json", ".corrupt"))


def clear_memory_cache() -> None:
    """Drop the in-process memo (tests and calibration-invalidation)."""
    _MEMORY.clear()

"""Self-healing sharded evaluation + evaluation-cache quarantine.

The acceptance bar: a fabric worker that raises or dies mid-sweep must
yield the bitwise-exact corpus result — a peer claims its shard, or the
parent finishes the sweep — with every recovery step visible in the
``fabric.*`` obs counters.  (A fork that cannot start is covered by
``test_fabric.py::TestFabricSweep::test_parent_fallback_when_no_worker_can_run``.)
"""

import os

import numpy as np
import pytest

from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.gemm import FP64
from repro.gpu import A100
from repro.harness import parallel
from repro.harness.parallel import (
    _resolve_jobs,
    clear_eval_memo,
    corpus_fingerprint,
    evaluate_corpus_cached,
    evaluate_corpus_sharded,
)
from repro.harness.vectorized import evaluate_corpus
from repro.obs.counters import get_counter, reset_counters

from .test_parallel import assert_timings_equal


@pytest.fixture(scope="module")
def shapes():
    return generate_corpus(CorpusSpec(size=700))


@pytest.fixture(scope="module")
def reference(shapes):
    return evaluate_corpus(shapes, FP64, A100)


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    clear_eval_memo()
    reset_counters()
    monkeypatch.setattr(parallel, "_SHARD_FAULT_HOOK", None)
    yield
    clear_eval_memo()
    reset_counters()


def _raise_in_worker0(shard_index, worker_index):
    if worker_index == 0:
        raise RuntimeError("injected failure (worker 0, shard %d)" % shard_index)


def _crash_worker0(shard_index, worker_index):
    if worker_index == 0:
        os._exit(1)  # hard death while holding the shard's lease


def _always_raise(shard_index, worker_index):
    raise RuntimeError("permanently failing shard %d" % shard_index)


class TestRetry:
    """Failing fabric workers: a peer or the parent re-runs their shards."""

    def _sweep(self, shapes, **kw):
        return evaluate_corpus_sharded(
            shapes, FP64, A100, jobs=2, shard_rows=175, **kw
        )

    def test_failing_workers_retry_to_exact_result(
        self, shapes, reference, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_SHARD_FAULT_HOOK", _raise_in_worker0)
        got = self._sweep(shapes)
        assert_timings_equal(got, reference)
        # Worker 0 released its lease as it died; worker 1 ran all four.
        assert get_counter("fabric.workers_lost") == 1
        assert get_counter("harness.shards_ok") == 4
        assert get_counter("fabric.parent_fallback") == 0

    def test_crashed_worker_times_out_and_retries(
        self, shapes, reference, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_SHARD_FAULT_HOOK", _crash_worker0)
        got = self._sweep(shapes, lease_seconds=0.5, heartbeat_seconds=0.1)
        assert_timings_equal(got, reference)
        # The dead worker's lease outlived its budget and was reclaimed.
        assert get_counter("fabric.workers_lost") == 1
        assert get_counter("fabric.lease_expired") >= 1
        assert get_counter("fabric.reclaims") >= 1
        assert get_counter("fabric.steals") >= 1

    def test_exhausted_retries_fall_back_to_serial(
        self, shapes, reference, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_SHARD_FAULT_HOOK", _always_raise)
        got = self._sweep(shapes)
        assert_timings_equal(got, reference)
        assert get_counter("fabric.workers_lost") == 2
        assert get_counter("fabric.parent_fallback") == 1
        assert get_counter("fabric.serial_fallback_shards") == 4
        assert get_counter("fabric.commits") == 0


class TestResolveJobs:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert _resolve_jobs(0) == 3
        assert _resolve_jobs(-1) == 3

    def test_falls_back_without_affinity(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity syscall")

        monkeypatch.setattr(os, "sched_getaffinity", boom)
        assert _resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_explicit_values_pass_through(self):
        assert _resolve_jobs(None) == 1
        assert _resolve_jobs(1) == 1
        assert _resolve_jobs(7) == 7

    def test_empty_affinity_mask_clamps_to_one(self, monkeypatch):
        """Constrained cgroups can expose an empty mask; never build a
        zero-worker pool (regression: used to return 0)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        assert _resolve_jobs(0) == 1
        assert _resolve_jobs(-4) == 1

    def test_one_element_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert _resolve_jobs(0) == 1

    def test_affinity_valueerror_falls_back(self, monkeypatch):
        def refuse(pid):
            raise ValueError("affinity mask unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", refuse)
        assert _resolve_jobs(0) == max(1, os.cpu_count() or 1)


class TestEvalCacheQuarantine:
    def _entry_path(self, tmp_path, shapes):
        key = corpus_fingerprint(shapes, FP64, A100)
        return parallel._eval_entry_path(str(tmp_path), key)

    def test_corrupt_artifact_quarantined_and_recomputed(
        self, shapes, tmp_path
    ):
        small = shapes[:64]
        evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        path = self._entry_path(tmp_path, small)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"\x00not a zip archive")
        clear_eval_memo()
        res = evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        assert_timings_equal(res, evaluate_corpus(small, FP64, A100))
        assert os.path.exists(path + ".corrupt")
        assert get_counter("evalcache.corrupt_quarantined") == 1
        # Recomputation re-stored a clean artifact under the original name.
        assert os.path.exists(path)

    def test_truncated_zip_quarantined(self, shapes, tmp_path):
        small = shapes[:64]
        evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        path = self._entry_path(tmp_path, small)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])  # valid zip magic, torn tail
        clear_eval_memo()
        evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        assert os.path.exists(path + ".corrupt")
        assert get_counter("evalcache.corrupt_quarantined") == 1

    def test_enospc_store_degrades_without_partial_files(
        self, shapes, tmp_path, monkeypatch
    ):
        """A full disk during the atomic publish leaves no temp file, a
        ``evalcache.write_failed`` count, and an unharmed result."""
        import errno

        small = shapes[:64]

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(parallel.os, "replace", no_space)
        res = evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        assert_timings_equal(res, evaluate_corpus(small, FP64, A100))
        assert get_counter("evalcache.write_failed") == 1
        eval_dir = os.path.join(str(tmp_path), "eval")
        leftovers = [
            p for p in os.listdir(eval_dir) if p.endswith(".tmp")
        ] if os.path.isdir(eval_dir) else []
        assert leftovers == []
        assert not os.path.exists(self._entry_path(tmp_path, small))

    def test_enospc_paramcache_store_counts_and_continues(
        self, monkeypatch, tmp_path
    ):
        import errno

        from repro.gemm.tiling import Blocking
        from repro.model import paramcache
        from repro.model.paramcache import calibrate_cached, clear_memory_cache

        clear_memory_cache()
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(paramcache.os, "replace", no_space)
        params = calibrate_cached(
            A100, Blocking(*FP64.default_blocking), FP64,
            cache_dir=str(tmp_path),
        )
        assert params is not None  # calibration itself unharmed
        assert get_counter("paramcache.write_failed") == 1
        calib_dir = os.path.join(str(tmp_path), "calibration")
        leftovers = [
            p for p in os.listdir(calib_dir) if p.endswith(".tmp")
        ] if os.path.isdir(calib_dir) else []
        assert leftovers == []
        clear_memory_cache()

    def test_key_mismatch_is_a_miss_not_corruption(self, shapes, tmp_path):
        a, b = shapes[:64], shapes[:65]
        evaluate_corpus_cached(a, FP64, A100, cache_dir=str(tmp_path))
        path_a = self._entry_path(tmp_path, a)
        path_b = self._entry_path(tmp_path, b)
        # Impersonate corpus B with A's (valid, wrong-key) artifact.
        os.replace(path_a, path_b)
        clear_eval_memo()
        res = evaluate_corpus_cached(b, FP64, A100, cache_dir=str(tmp_path))
        assert_timings_equal(res, evaluate_corpus(b, FP64, A100))
        assert not os.path.exists(path_b + ".corrupt")
        assert get_counter("evalcache.corrupt_quarantined") == 0


def _publish_journal_shard(tmp, timings):
    from repro.harness.journal import ShardJournal

    jr = ShardJournal.open(tmp, corpus_key="k", bounds=[(0, 64)])
    yield
    assert jr.record_done(0, timings) is None
    assert not os.path.exists(jr.shard_path(0))
    jr.close()
    yield "harness.journal.degraded", os.path.dirname(jr.shard_path(0))


def _publish_checkpoint(tmp, timings):
    from repro.harness.journal import ShardJournal

    jr = ShardJournal.open(tmp, corpus_key="k", bounds=[(0, 64)])
    jr.record_done(0, timings)
    yield
    jr.compact()
    assert jr.degraded and not os.path.exists(jr.checkpoint_path)
    jr.close()
    yield "harness.journal.degraded", tmp


def _publish_lease_heartbeat(tmp, timings):
    from repro.harness.fabric import LeaseManager, _HeartbeatThread

    lease = LeaseManager(tmp, "host:1:aaaa", lease_seconds=30.0)
    assert lease.try_claim(0)
    with open(lease.lease_path(0), "rb") as fh:
        claimed = fh.read()
    yield
    hb = _HeartbeatThread(lease, 0, interval_s=0.01)
    hb.start()
    hb.join(timeout=5.0)  # the first failed renewal ends the thread
    assert not hb.is_alive()
    with open(lease.lease_path(0), "rb") as fh:
        assert fh.read() == claimed
    assert get_counter("fabric.heartbeats") == 0
    yield "fabric.heartbeat_failed", lease.lease_dir


def _publish_eval_cache(tmp, timings):
    key = corpus_fingerprint(timings.shapes, FP64, A100)
    path = parallel._eval_entry_path(tmp, key)
    yield
    parallel._store_eval(path, key, timings)
    assert not os.path.exists(path)
    yield "evalcache.write_failed", os.path.dirname(path)


def _publish_store_params(tmp, timings):
    from repro.model.cost import StreamKModelParams
    from repro.model.paramcache import store_params

    params = StreamKModelParams(
        a=1.0, b=2.0, c=3.0, d=4.0, blocking=FP64.default_blocking,
        dtype_name=FP64.name, gpu_name=A100.name,
    )
    yield
    assert store_params(params, A100, cache_dir=tmp) is None
    yield "paramcache.write_failed", os.path.join(tmp, "calibration")


def _publish_plan_flush(tmp, timings):
    from repro.plan import PlanCache

    cache = PlanCache(A100, FP64, cache_dir=tmp, persist=True)
    m, n, k = (int(v) for v in timings.shapes[0])
    cache.plan_or_compute(m, n, k)
    yield
    assert cache.flush() is None
    assert not os.path.exists(cache.shard_path())
    yield "plancache.flush_failed", os.path.dirname(cache.shard_path())


class TestPublishFsyncFailure:
    """``os.fsync`` hitting ENOSPC inside the shared atomic publish: every
    site leaves no temp file and no target, and degrades as it always has
    (each through its own counter)."""

    @pytest.mark.parametrize(
        "site",
        [
            _publish_journal_shard,
            _publish_checkpoint,
            _publish_lease_heartbeat,
            _publish_eval_cache,
            _publish_store_params,
            _publish_plan_flush,
        ],
        ids=lambda f: f.__name__[len("_publish_"):],
    )
    def test_enospc_fsync_degrades_without_temp_files(
        self, site, shapes, tmp_path, monkeypatch
    ):
        import errno

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        steps = site(str(tmp_path), evaluate_corpus(shapes[:64], FP64, A100))
        next(steps)  # set-up, with a working disk
        with monkeypatch.context() as full_disk:
            full_disk.setattr(os, "fsync", no_space)
            counter, directory = next(steps)
        assert get_counter(counter) == 1
        leftovers = [
            p for p in os.listdir(directory) if p.endswith(".tmp")
        ] if os.path.isdir(directory) else []
        assert leftovers == []

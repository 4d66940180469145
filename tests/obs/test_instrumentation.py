"""End-to-end instrumentation: the wired-in spans and counters fire.

These tests pin the acceptance criteria of the observability layer:
cache hit/miss counters are nonzero on warm-cache paths, executor
volumes are published, sharded workers ship their telemetry home, and
the profiler costs <5% on a 2000-shape corpus evaluation when enabled.
"""

import os
import time

import numpy as np
import pytest

from repro.corpus import CorpusSpec, generate_corpus
from repro.gemm import FP16_FP32, Blocking, GemmProblem, TileGrid
from repro.gpu import A100, HYPOTHETICAL_4SM
from repro.harness import run_schedule
from repro.harness.parallel import (
    clear_eval_memo,
    evaluate_corpus_cached,
    evaluate_corpus_sharded,
)
from repro.harness.vectorized import evaluate_corpus
from repro.model.paramcache import calibrate_cached
from repro.obs import counters, profiler
from repro.schedules.stream_k import stream_k_schedule


@pytest.fixture
def fig2_schedule():
    problem = GemmProblem(384, 384, 128, dtype=FP16_FP32)
    return stream_k_schedule(TileGrid(problem, Blocking(128, 128, 32)), 4)


class TestExecutorCounters:
    def test_volumes_published_per_run(self, fig2_schedule):
        run_schedule(fig2_schedule, HYPOTHETICAL_4SM, execute_numeric=False)
        assert counters.get_counter("executor.runs") == 1
        assert counters.get_counter("executor.ctas") == 4
        assert counters.get_counter("executor.segments") > 4
        assert counters.get_counter("executor.signals") == 3

    def test_spans_recorded_when_profiling(self, fig2_schedule):
        profiler.enable_profiling()
        run_schedule(fig2_schedule, HYPOTHETICAL_4SM, execute_numeric=False)
        paths = {e.path for e in profiler.get_profile().events}
        assert "executor_run" in paths


class TestCacheCounters:
    def test_paramcache_warm_lookup_hits_memo(self):
        dtype = FP16_FP32
        blocking = Blocking(*dtype.default_blocking)
        calibrate_cached(HYPOTHETICAL_4SM, blocking, dtype)  # warm
        counters.reset_counters()
        calibrate_cached(HYPOTHETICAL_4SM, blocking, dtype)
        assert counters.get_counter("paramcache.memo_hit") >= 1
        assert counters.hit_rate("paramcache") == 1.0

    def test_evalcache_miss_then_memo_hit(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_CACHE_DIR", raising=False)
        clear_eval_memo()
        shapes = generate_corpus(CorpusSpec(size=64))
        evaluate_corpus_cached(shapes, FP16_FP32, A100)
        assert counters.get_counter("evalcache.miss") == 1
        evaluate_corpus_cached(shapes, FP16_FP32, A100)
        assert counters.get_counter("evalcache.memo_hit") == 1
        assert counters.hit_rate("evalcache") == pytest.approx(0.5)
        clear_eval_memo()

    def test_evalcache_disk_hit_across_memo_clears(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_EVAL_CACHE_DIR", raising=False)
        clear_eval_memo()
        shapes = generate_corpus(CorpusSpec(size=64))
        evaluate_corpus_cached(shapes, FP16_FP32, A100, cache_dir=str(tmp_path))
        clear_eval_memo()  # simulate a fresh process
        evaluate_corpus_cached(shapes, FP16_FP32, A100, cache_dir=str(tmp_path))
        assert counters.get_counter("evalcache.disk_hit") == 1
        clear_eval_memo()

    def test_l2sim_counters_from_cache_replay(self, fig2_schedule):
        run_schedule(
            fig2_schedule, HYPOTHETICAL_4SM,
            execute_numeric=False, memory_model="cache_sim",
        )
        hits = counters.get_counter("l2sim.fragment.hit")
        misses = counters.get_counter("l2sim.fragment.miss")
        assert hits + misses > 0
        assert misses > 0  # compulsory misses always exist
        assert counters.hit_rate("l2sim.fragment") is not None


class TestShardedTelemetry:
    def test_worker_spans_and_counters_merge_into_parent(self):
        profiler.enable_profiling()
        shapes = generate_corpus(CorpusSpec(size=700))
        res = evaluate_corpus_sharded(shapes, FP16_FP32, A100, jobs=2)
        assert res.streamk.shape == (700,)
        events = profiler.get_profile().events
        shard_events = [e for e in events if e.path == "shard"]
        # 700 rows at >=256 rows/shard -> 3 shards, each profiled in a worker.
        assert len(shard_events) == 3
        assert all(e.pid != os.getpid() for e in shard_events)
        # Worker pids are preserved for the Perfetto export.
        assert len({e.pid for e in shard_events}) >= 1
        # The parent's own pool/merge spans are there too.
        paths = {e.path for e in events}
        assert "sharded_pool" in paths and "merge_shards" in paths
        # Nested engine spans shipped home from the workers.
        assert any(e.path == "shard/evaluate_corpus" for e in events)

    def test_sharded_result_matches_inprocess(self):
        shapes = generate_corpus(CorpusSpec(size=600))
        a = evaluate_corpus_sharded(shapes, FP16_FP32, A100, jobs=2)
        b = evaluate_corpus(shapes, FP16_FP32, A100)
        np.testing.assert_array_equal(a.streamk, b.streamk)
        np.testing.assert_array_equal(a.cublas, b.cublas)


class TestOverhead:
    def test_enabled_profiler_costs_under_5_percent(self):
        """Acceptance: <5% on a 2000-shape corpus evaluation.

        The corpus engine records ~10 coarse spans per evaluation, so the
        true cost is microseconds; min-of-N timing plus a tiny absolute
        epsilon keeps the assertion robust to scheduler noise.  Disabled
        and enabled runs alternate, so host drift over the measurement
        reaches both sides alike instead of reading as overhead.
        """
        shapes = generate_corpus(CorpusSpec(size=2000))
        evaluate_corpus(shapes, FP16_FP32, A100)  # warm calibration + caches

        def timed():
            t0 = time.perf_counter()
            evaluate_corpus(shapes, FP16_FP32, A100)
            return time.perf_counter() - t0

        disabled = enabled = float("inf")
        profiler.reset_profile()
        for _ in range(5):
            profiler.disable_profiling()
            disabled = min(disabled, timed())
            profiler.enable_profiling()
            enabled = min(enabled, timed())
        profiler.disable_profiling()
        assert len(profiler.get_profile()) > 0  # spans actually recorded
        assert enabled <= disabled * 1.05 + 2e-3, (
            "profiler overhead %.1f%% (disabled %.4fs, enabled %.4fs)"
            % (100 * (enabled / disabled - 1), disabled, enabled)
        )

    def test_disabled_span_overhead_is_flag_check(self):
        """Disabled spans allocate nothing: same object every call."""
        profiler.disable_profiling()
        from repro.obs.profiler import span

        objs = {id(span("a")) for _ in range(100)}
        assert len(objs) == 1
        assert len(profiler.get_profile()) == 0

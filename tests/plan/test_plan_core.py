"""The planning layer's core contract: one arithmetic, every consumer.

Pins the plan/evaluate split the serving daemon depends on: a scalar
``plan_query`` is a one-row ``plan_batch``; the library's per-problem
``StreamKLibrary.plan`` is the batched planner's whole record;
and the corpus engine's ``streamk_times`` is exactly the batch's
``time_s`` column.
"""

import numpy as np
import pytest

from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.errors import ConfigurationError
from repro.gemm.dtypes import FP16_FP32, FP64
from repro.gemm.problem import GemmProblem
from repro.gpu.spec import available_gpus, resolve_gpu
from repro.ensembles.streamk_library import StreamKLibrary
from repro.harness.vectorized import streamk_times
from repro.plan import KIND_NAMES, Plan, plan_batch, plan_query

SHAPES = generate_corpus(CorpusSpec(size=96, seed=7))

#: One shape per planning regime on A100 (108 SMs, fp16 256x128 tiles).
REGIME_SHAPES = {
    "data_parallel": (4096, 6912, 512),  # tiles % p == 0
    "basic_stream_k": (512, 512, 4096),  # tiles < p
    "two_tile": (4096, 4096, 4096),  # everything else
}


class TestScalarBatchEquivalence:
    def test_plan_query_is_one_row_of_plan_batch(self):
        gpu = resolve_gpu("a100")
        batch = plan_batch(SHAPES, FP16_FP32, gpu)
        for i in range(len(batch)):
            m, n, k = (int(v) for v in SHAPES[i])
            assert plan_query(m, n, k, FP16_FP32, gpu) == batch.plan(i)

    def test_streamk_times_is_the_time_column(self):
        gpu = resolve_gpu("a100")
        batch = plan_batch(SHAPES, FP16_FP32, gpu)
        assert np.array_equal(
            streamk_times(SHAPES, FP16_FP32, gpu), batch.time_s
        )

    @pytest.mark.parametrize("kind,shape", sorted(REGIME_SHAPES.items()))
    def test_regimes_resolve_as_expected(self, kind, shape):
        plan = plan_query(*shape, FP16_FP32, resolve_gpu("a100"))
        assert plan.kind == kind
        assert plan.kind in KIND_NAMES


class TestLibraryParity:
    """StreamKLibrary.plan is a plan_query at the library's constants and
    blocking: whole records agree, time and makespan included."""

    @pytest.mark.parametrize("gpu_name", available_gpus())
    def test_plan_fields_match_library_across_presets(self, gpu_name):
        gpu = resolve_gpu(gpu_name)
        lib = StreamKLibrary(gpu, FP16_FP32)
        for m, n, k in SHAPES[:32]:
            problem = GemmProblem(int(m), int(n), int(k), dtype=FP16_FP32)
            assert lib.plan(problem) == plan_query(
                int(m), int(n), int(k), FP16_FP32, gpu,
                params=lib.params, blocking=lib.blocking,
            )

    def test_fp64_regime_boundaries(self, gpu4):
        """One shape per regime on the 4-SM GPU (FP64 64x64 tiles):
        4 tiles divide evenly, 1 tile is fewer than 4 SMs, 6 tiles are
        neither."""
        lib = StreamKLibrary(gpu4, FP64)
        for (m, n, k), kind in (
            ((128, 128, 1024), "data_parallel"),
            ((64, 64, 4096), "basic_stream_k"),
            ((192, 128, 1024), "two_tile"),
        ):
            problem = GemmProblem(m, n, k, dtype=FP64)
            plan = lib.plan(problem)
            assert plan.kind == kind
            assert lib.build_schedule(problem).metadata["kind"] == kind
            assert plan == plan_query(
                m, n, k, FP64, gpu4, params=lib.params, blocking=lib.blocking
            )


class TestPlanRecord:
    def test_payload_round_trip_is_lossless(self):
        plan = plan_query(384, 384, 1536, FP16_FP32, resolve_gpu("a100"))
        assert Plan.from_payload(plan.to_payload()) == plan

    def test_provenance_excluded_from_equality(self):
        import dataclasses

        plan = plan_query(384, 384, 1536, FP16_FP32, resolve_gpu("a100"))
        assert dataclasses.replace(plan, provenance="cache:hot") == plan

    def test_carries_cache_key_material(self):
        from repro.model.paramcache import gpu_fingerprint
        from repro.plan import PLAN_ENGINE_VERSION

        gpu = resolve_gpu("rtx3090")
        plan = plan_query(256, 256, 256, "fp32", gpu)
        assert plan.engine_version == PLAN_ENGINE_VERSION
        assert plan.gpu_fingerprint == gpu_fingerprint(gpu)
        assert plan.dtype_name == "fp32"
        assert plan.gpu_name == "rtx3090"

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigurationError):
            plan_query(0, 128, 128, FP16_FP32, resolve_gpu("a100"))

    def test_rejects_malformed_shapes(self):
        with pytest.raises(ConfigurationError):
            plan_batch(
                np.ones((4, 2), dtype=np.int64),
                FP16_FP32,
                resolve_gpu("a100"),
            )

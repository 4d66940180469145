"""Vectorized engine consistency tests.

The corpus numbers are only as good as the agreement between the vectorized
formulas and the object-path implementations, so every family is checked
element-by-element against its scalar twin.
"""

import numpy as np
import pytest

from repro.corpus import CorpusSpec, generate_corpus
from repro.errors import ConfigurationError
from repro.gemm import FP16_FP32, FP64, Blocking, GemmProblem, TileGrid
from repro.gpu import (
    A100,
    AnalyticalMemoryModel,
    basic_streamk_makespan,
    persistent_dp_makespan,
    two_tile_hybrid_makespan,
)
from repro.ensembles import (
    KernelVariant,
    StreamKLibrary,
    cublas_select,
    oracle_select,
    singleton_variant,
    variant_time_s,
)
from repro.harness.vectorized import (
    dp_times,
    evaluate_corpus,
    fixed_split_times,
    streamk_times,
)
from repro.model.gridsize import select_grid_size
from repro.schedules import two_tile_schedule

SHAPES = generate_corpus(CorpusSpec(size=60, seed=7))


class TestDpTimesMatchScalar:
    @pytest.mark.parametrize("dtype", [FP64, FP16_FP32])
    def test_matches_variant_time(self, dtype):
        blocking = Blocking(*dtype.default_blocking)
        vec = dp_times(SHAPES, blocking, dtype, A100)
        variant = singleton_variant(dtype)
        for i in range(0, len(SHAPES), 7):
            p = GemmProblem(*(int(v) for v in SHAPES[i]), dtype=dtype)
            assert vec[i] == pytest.approx(variant_time_s(variant, p, A100), rel=1e-9)


class TestFixedSplitMatchesScalar:
    @pytest.mark.parametrize("s", [2, 8, 32])
    def test_matches_variant_time(self, s):
        blocking = Blocking(128, 128, 32)
        vec = fixed_split_times(SHAPES, blocking, s, FP16_FP32, A100)
        variant = KernelVariant("fixed_split", blocking, s=s)
        for i in range(0, len(SHAPES), 11):
            p = GemmProblem(*(int(v) for v in SHAPES[i]), dtype=FP16_FP32)
            assert vec[i] == pytest.approx(variant_time_s(variant, p, A100), rel=1e-9)

    def test_s1_degenerates_to_dp(self):
        blocking = Blocking(128, 128, 32)
        assert np.allclose(
            fixed_split_times(SHAPES, blocking, 1, FP16_FP32, A100),
            dp_times(SHAPES, blocking, FP16_FP32, A100),
        )


def _scalar_streamk_time(lib, problem):
    """The library's kernel priced by the scalar path alone: the regime's
    closed form, the analytical memory model over the materialized
    schedule, composed by roofline."""
    gpu, cost = lib.gpu, lib.cost
    grid = TileGrid(problem, lib.blocking)
    t, ipt, p = grid.num_tiles, grid.iters_per_tile, gpu.num_sms
    g_small = None
    if t % p == 0:
        makespan = persistent_dp_makespan(t, p, ipt, cost)
    elif t < p:
        g_small = select_grid_size(grid, lib.params, gpu.total_cta_slots).g
        makespan = basic_streamk_makespan(t, g_small, ipt, cost)
    else:
        makespan = two_tile_hybrid_makespan(t, p, ipt, cost)
    sched = two_tile_schedule(grid, p, g_small=g_small)
    traffic = AnalyticalMemoryModel().traffic(sched, gpu, cost).total
    memory = traffic / float(gpu.achieved_bandwidth(sched.g))
    return max(makespan / gpu.clock_hz, memory) + gpu.launch_latency_s


class TestStreamKMatchesLibrary:
    @pytest.mark.parametrize("dtype", [FP64, FP16_FP32])
    def test_matches_library_time(self, dtype):
        lib = StreamKLibrary(A100, dtype)
        vec = streamk_times(SHAPES, dtype, A100, params=lib.params)
        for i in range(len(SHAPES)):
            p = GemmProblem(*(int(v) for v in SHAPES[i]), dtype=dtype)
            assert vec[i] == pytest.approx(
                _scalar_streamk_time(lib, p), rel=1e-6
            ), str(p)


class TestEvaluateCorpus:
    @pytest.fixture(scope="class")
    def result(self):
        return evaluate_corpus(SHAPES, FP16_FP32, A100)

    def test_all_systems_positive(self, result):
        for col in (result.streamk, result.singleton, result.cublas, result.oracle):
            assert (col > 0).all()
            assert col.shape == (len(SHAPES),)

    def test_oracle_never_worse_than_singleton(self, result):
        assert (result.oracle <= result.singleton * (1 + 1e-12)).all()

    def test_cublas_choice_recorded(self, result):
        assert result.cublas_choice.shape == (len(SHAPES),)
        assert len(result.cublas_variant_names) == 24

    def test_cublas_matches_scalar_selection(self, result):
        for i in range(0, len(SHAPES), 13):
            p = GemmProblem(*(int(v) for v in SHAPES[i]), dtype=FP16_FP32)
            choice = cublas_select(p, A100)
            assert result.cublas[i] == pytest.approx(choice.time_s, rel=1e-9)
            assert (
                result.cublas_variant_names[result.cublas_choice[i]]
                == choice.variant.name
            )

    def test_oracle_matches_scalar_oracle(self, result):
        for i in range(0, len(SHAPES), 17):
            p = GemmProblem(*(int(v) for v in SHAPES[i]), dtype=FP16_FP32)
            assert result.oracle[i] == pytest.approx(
                oracle_select(p, A100).time_s, rel=1e-9
            )

    def test_bad_shape_array_rejected(self):
        with pytest.raises(ConfigurationError):
            dp_times(np.ones((4, 2)), Blocking(128, 128, 32), FP16_FP32, A100)

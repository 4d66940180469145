"""Experiment entry-point tests on reduced corpora."""

import numpy as np
import pytest

from repro.corpus import CorpusSpec
from repro.gemm import FP16_FP32, FP64
from repro.harness import (
    fig1_data_parallel_quantization,
    fig2_tile_splitting,
    fig3_hybrid_schedules,
    fig4_corpus_statistics,
    fig7_speedup_vs_cublas,
    fig8_analytical_model,
    fig9_strong_scaling,
    relative_performance_table,
    roofline_landscapes,
)

SMALL = CorpusSpec(size=400)


class TestIllustrativeFigures:
    def test_fig1_ceilings(self):
        out = fig1_data_parallel_quantization()
        assert out["a_128x128"]["utilization"] == pytest.approx(0.75)
        assert out["b_128x64"]["utilization"] == pytest.approx(0.90)
        assert out["a_128x128"]["tiles"] == 9
        assert out["b_128x64"]["waves"] == 5

    def test_fig2_stream_k_wins(self):
        out = fig2_tile_splitting()
        assert out["b_stream_k_g4"]["quantization_efficiency"] == pytest.approx(1.0)
        assert out["b_stream_k_g4"]["iters_per_cta"] == 72  # paper's number
        assert out["a_fixed_split_s2"]["quantization_efficiency"] == pytest.approx(0.9)

    def test_fig3_two_tile_dominates_one_tile(self):
        out = fig3_hybrid_schedules()
        assert (
            out["c_two_tile_dp"]["utilization"]
            > out["b_dp_one_tile"]["utilization"]
        )
        assert out["b_dp_one_tile"]["wait_cycles"] > 0
        assert out["c_two_tile_dp"]["k_aligned_fraction"] > 0.5

    def test_fig9_strong_scaling_speedup(self):
        out = fig9_strong_scaling()
        assert out["speedup"] > 2.0
        assert out["data_parallel"]["utilization"] == pytest.approx(0.25)


class TestCorpusExperiments:
    def test_fig4_statistics(self):
        out = fig4_corpus_statistics()
        assert out["count"] == 32_824
        assert out["axis_min"] >= 128 and out["axis_max"] <= 8192
        assert out["volume_orders_of_magnitude"] > 4.5

    def test_fig8_matches_paper(self):
        out = fig8_analytical_model()
        for key in ("a_256x3584x8192", "b_1024x1024x1024", "c_128x128x16384"):
            assert out[key]["g_best"] == out[key]["paper_g_best"]

    def test_tables_have_four_columns(self):
        cols = relative_performance_table(FP64, spec=SMALL)
        assert len(cols) == 4
        names = list(cols)
        assert names[0].startswith("vs CUTLASS 64x64x16")
        assert "vs cuBLAS" in names[1]
        assert "oracle" in names[3]

    def test_fig7_reports_both_regimes(self):
        out = fig7_speedup_vs_cublas(FP64, spec=SMALL)
        assert out["compute_bound_count"] > 0
        assert out["speedup"].shape == out["intensity"].shape

    def test_rooflines_have_all_four_systems(self):
        out = roofline_landscapes(FP16_FP32, spec=SMALL, num_bins=6)
        assert set(out) == {
            "data_parallel_singleton",
            "cublas_like",
            "cutlass_oracle",
            "stream_k",
        }
        for system in out.values():
            assert system["band_width"] >= 0
            assert system["summary"]

    def test_timings_cached_across_calls(self):
        t1 = relative_performance_table(FP64, spec=SMALL)
        t2 = relative_performance_table(FP64, spec=SMALL)
        assert t1["vs cuBLAS"].average == t2["vs cuBLAS"].average


class TestJobsEnv:
    def test_junk_repro_jobs_names_the_value(self, monkeypatch):
        from repro.errors import ConfigurationError
        from repro.harness.experiments import corpus_timings

        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS='abc'"):
            corpus_timings(FP64, spec=SMALL)

    @pytest.mark.parametrize("raw, jobs", [("", 1), (" 2 ", 2), ("0", 0)])
    def test_repro_jobs_parses_integers(self, monkeypatch, raw, jobs):
        from repro.harness.experiments import _env_jobs

        monkeypatch.setenv("REPRO_JOBS", raw)
        assert _env_jobs() == jobs

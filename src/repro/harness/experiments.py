"""One entry point per paper table/figure (the E-* index in DESIGN.md).

Every function regenerates the data behind one evaluation artifact and
returns it as plain dicts/arrays; the ``benchmarks/`` directory wraps each
in a pytest-benchmark target that also prints the paper-shaped rows.
EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..corpus.filters import compute_bound_mask, ops_per_byte
from ..errors import ConfigurationError
from ..corpus.generator import PAPER_CORPUS, CorpusSpec, generate_corpus
from ..gemm.dtypes import FP16_FP32, FP64, DtypeConfig
from ..gemm.problem import GemmProblem
from ..gemm.tiling import Blocking, TileGrid
from ..gpu.spec import HYPOTHETICAL_4SM, GpuSpec, default_gpu
from ..metrics.roofline import band_width, roofline_points, roofline_summary
from ..metrics.stats import RelativePerformance, relative_performance, slowdown_fraction
from ..model.calibrate import calibrate
from ..model.gridsize import sweep_grid_sizes
from ..obs.profiler import span
from ..schedules.data_parallel import data_parallel_schedule
from ..schedules.fixed_split import fixed_split_schedule
from ..schedules.hybrid import dp_one_tile_schedule, two_tile_schedule
from ..schedules.stream_k import stream_k_schedule
from .parallel import evaluate_corpus_cached
from .runner import run_schedule
from .vectorized import SystemTimings, evaluate_corpus  # noqa: F401 (re-export)

__all__ = [
    "fig1_data_parallel_quantization",
    "fig2_tile_splitting",
    "fig3_hybrid_schedules",
    "fig4_corpus_statistics",
    "roofline_landscapes",
    "fig7_speedup_vs_cublas",
    "relative_performance_table",
    "fig8_analytical_model",
    "fig9_strong_scaling",
    "corpus_timings",
]

# The illustrative figures use the paper's 4-SM GPU and BLK_K = 4 so the
# iteration counts match the text (72 MAC-loop iterations per CTA in
# Figure 2b).
_ILLUSTRATION_BLOCKING = Blocking(128, 128, 4)
_ILLUSTRATION_BLOCKING_HALF = Blocking(128, 64, 4)

_ENV_JOBS = "REPRO_JOBS"

def _env_jobs() -> int:
    """``$REPRO_JOBS`` as a worker count (default 1; ``0`` = all cores).

    A value that is not an integer raises
    :class:`~repro.errors.ConfigurationError` naming it, instead of a
    bare ``ValueError`` deep inside a sweep.
    """
    raw = os.environ.get(_ENV_JOBS, "").strip() or "1"
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            "%s=%r is not an integer worker count (0 = all cores)"
            % (_ENV_JOBS, raw)
        ) from None


def corpus_timings(
    dtype: DtypeConfig,
    gpu: "GpuSpec | None" = None,
    spec: CorpusSpec = PAPER_CORPUS,
) -> "tuple[np.ndarray, SystemTimings]":
    """(shapes, per-system times) for a corpus.

    ``gpu=None`` resolves to the registry default
    (:func:`repro.gpu.spec.default_gpu`, the paper's A100 testbed); pass
    any registered preset or a custom
    :meth:`~repro.gpu.spec.GpuSpec.from_json` device to sweep other
    hardware.

    Served through the content-keyed evaluation memo
    (:func:`repro.harness.parallel.evaluate_corpus_cached`), so Table 1,
    Figure 6, and Figure 7 share a single FP64 corpus evaluation — and any
    other identical corpus query is free.  Set ``REPRO_JOBS`` to shard the
    first (cold) evaluation across worker processes, and
    ``REPRO_EVAL_CACHE_DIR`` to persist evaluations across processes.
    """
    gpu = gpu if gpu is not None else default_gpu()
    with span("generate_corpus"):
        shapes = generate_corpus(spec)
    res = evaluate_corpus_cached(shapes, dtype, gpu, jobs=_env_jobs())
    return res.shapes, res


# --------------------------------------------------------------------- #
# Figures 1-3, 9: illustrative schedules on the 4-SM GPU                 #
# --------------------------------------------------------------------- #


def fig1_data_parallel_quantization() -> "dict":
    """Figure 1: DP schedules of 384x384x128 on 4 SMs.

    (a) 128x128 tiles: 9 tiles, 3 waves, 75% utilization ceiling;
    (b) 128x64 tiles: 18 tiles, 5 waves, 90% ceiling.
    """
    gpu = HYPOTHETICAL_4SM
    problem = GemmProblem(384, 384, 128, dtype=FP16_FP32)
    out = {}
    for label, blocking in (
        ("a_128x128", _ILLUSTRATION_BLOCKING),
        ("b_128x64", _ILLUSTRATION_BLOCKING_HALF),
    ):
        grid = TileGrid(problem, blocking)
        run = run_schedule(
            data_parallel_schedule(grid), gpu, execute_numeric=True
        )
        out[label] = {
            "tiles": grid.num_tiles,
            "waves": -(-grid.num_tiles // gpu.num_sms),
            "quantization_efficiency": run.quantization_efficiency,
            "utilization": run.result.trace.utilization(),
            "time_s": run.time_s,
            "max_rel_error": run.max_rel_error,
        }
    return out


def fig2_tile_splitting() -> "dict":
    """Figure 2: fixed-split s=2 (90%) vs basic Stream-K g=4 (~100%) on
    the same 384x384x128 problem; Stream-K CTAs carry 72 iterations."""
    gpu = HYPOTHETICAL_4SM
    problem = GemmProblem(384, 384, 128, dtype=FP16_FP32)
    grid = TileGrid(problem, _ILLUSTRATION_BLOCKING)
    fs = run_schedule(fixed_split_schedule(grid, 2), gpu)
    sk = run_schedule(stream_k_schedule(grid, 4), gpu)
    sk_sched = stream_k_schedule(grid, 4)
    return {
        "a_fixed_split_s2": {
            "g": fs.g,
            "quantization_efficiency": fs.quantization_efficiency,
            "utilization": fs.result.trace.utilization(),
            "time_s": fs.time_s,
        },
        "b_stream_k_g4": {
            "g": sk.g,
            "iters_per_cta": int(sk_sched.max_iters_per_cta),
            "quantization_efficiency": sk.quantization_efficiency,
            "utilization": sk.result.trace.utilization(),
            "time_s": sk.time_s,
        },
    }


def fig3_hybrid_schedules(memory_model: str = "cache_sim") -> "dict":
    """Figure 3: basic SK vs the two hybrids for 896x384x128 on 4 SMs.

    Reports utilization, wait cycles (the latency-hiding claim), DRAM
    traffic (the cache-skew claim, via the fragment-cache replay), and
    end-to-end time for each schedule.
    """
    gpu = HYPOTHETICAL_4SM
    problem = GemmProblem(896, 384, 128, dtype=FP16_FP32)
    grid = TileGrid(problem, _ILLUSTRATION_BLOCKING)
    out = {}
    for label, sched in (
        ("a_basic_stream_k", stream_k_schedule(grid, gpu.num_sms)),
        ("b_dp_one_tile", dp_one_tile_schedule(grid, gpu.num_sms)),
        ("c_two_tile_dp", two_tile_schedule(grid, gpu.num_sms)),
    ):
        run = run_schedule(sched, gpu, memory_model=memory_model)
        out[label] = {
            "g": run.g,
            "k_aligned_fraction": sched.k_aligned_fraction,
            "utilization": run.result.trace.utilization(),
            "wait_cycles": run.result.trace.total_wait_cycles,
            "dram_bytes": run.result.traffic.total,
            "input_dram_bytes": run.result.traffic.input_a
            + run.result.traffic.input_b,
            "time_s": run.time_s,
        }
    return out


def fig9_strong_scaling() -> "dict":
    """Figure 9: 128x128x384 on 4 SMs — DP serializes the k axis in one
    CTA; Stream-K spreads it across the machine."""
    gpu = HYPOTHETICAL_4SM
    problem = GemmProblem(128, 128, 384, dtype=FP16_FP32)
    grid = TileGrid(problem, _ILLUSTRATION_BLOCKING)
    dp = run_schedule(data_parallel_schedule(grid), gpu)
    sk = run_schedule(stream_k_schedule(grid, gpu.num_sms), gpu)
    return {
        "data_parallel": {
            "g": dp.g,
            "utilization": dp.result.trace.utilization(),
            "time_s": dp.time_s,
        },
        "stream_k": {
            "g": sk.g,
            "utilization": sk.result.trace.utilization(),
            "time_s": sk.time_s,
        },
        "speedup": dp.time_s / sk.time_s,
    }


# --------------------------------------------------------------------- #
# Figure 4: the corpus                                                   #
# --------------------------------------------------------------------- #


def fig4_corpus_statistics(spec: CorpusSpec = PAPER_CORPUS) -> "dict":
    """Figure 4: corpus size, per-axis domain, and volume span."""
    shapes = generate_corpus(spec)
    volume = shapes.astype(np.float64).prod(axis=1)
    return {
        "count": int(shapes.shape[0]),
        "axis_min": int(shapes.min()),
        "axis_max": int(shapes.max()),
        "volume_orders_of_magnitude": float(
            np.log10(volume.max() / volume.min())
        ),
        "volume_min": float(volume.min()),
        "volume_max": float(volume.max()),
    }


# --------------------------------------------------------------------- #
# Figures 5/6: roofline landscapes; Figure 7 + Tables 1/2: comparisons   #
# --------------------------------------------------------------------- #


def roofline_landscapes(
    dtype: DtypeConfig,
    gpu: "GpuSpec | None" = None,
    spec: CorpusSpec = PAPER_CORPUS,
    num_bins: int = 12,
) -> "dict":
    """Figures 5 (FP16->32) and 6 (FP64): per-system utilization bands.

    Returns, per system, the binned percentile envelope and the mean band
    width; the paper's claim is streamk < oracle < cublas <= singleton in
    spread.
    """
    gpu = gpu if gpu is not None else default_gpu()
    shapes, res = corpus_timings(dtype, gpu, spec)
    out = {}
    for system, times in (
        ("data_parallel_singleton", res.singleton),
        ("cublas_like", res.cublas),
        ("cutlass_oracle", res.oracle),
        ("stream_k", res.streamk),
    ):
        intensity, pct = roofline_points(shapes, times, gpu, dtype)
        out[system] = {
            "summary": roofline_summary(intensity, pct, num_bins=num_bins),
            "band_width": band_width(intensity, pct, num_bins=num_bins),
            "median_percent_of_peak": float(np.median(pct)),
        }
    return out


def relative_performance_table(
    dtype: DtypeConfig,
    gpu: "GpuSpec | None" = None,
    spec: CorpusSpec = PAPER_CORPUS,
) -> "dict[str, RelativePerformance]":
    """Tables 1 and 2: Stream-K relative performance columns.

    Columns: vs the same-blocking CUTLASS data-parallel kernel, vs the
    cuBLAS-like ensemble, vs that ensemble restricted to compute-bound
    problems, and vs the idealized data-parallel oracle.
    """
    shapes, res = corpus_timings(dtype, gpu, spec)
    cb = compute_bound_mask(shapes, dtype)
    cols = {
        "vs CUTLASS %dx%dx%d" % dtype.default_blocking: relative_performance(
            res.singleton, res.streamk
        ),
        "vs cuBLAS": relative_performance(res.cublas, res.streamk),
        "vs cuBLAS >%g ops/B" % dtype.compute_bound_ops_per_byte: (
            relative_performance(res.cublas[cb], res.streamk[cb])
        ),
        "vs CUTLASS oracle": relative_performance(res.oracle, res.streamk),
    }
    return cols


def fig7_speedup_vs_cublas(
    dtype: DtypeConfig,
    gpu: "GpuSpec | None" = None,
    spec: CorpusSpec = PAPER_CORPUS,
) -> "dict":
    """Figure 7: Stream-K speedup vs the cuBLAS-like ensemble, overall and
    in the compute-bound regime ("unilaterally higher performance")."""
    shapes, res = corpus_timings(dtype, gpu, spec)
    cb = compute_bound_mask(shapes, dtype)
    speedup = res.cublas / res.streamk
    intensity = ops_per_byte(shapes, dtype)
    return {
        "overall": relative_performance(res.cublas, res.streamk),
        "compute_bound": relative_performance(res.cublas[cb], res.streamk[cb]),
        "compute_bound_count": int(cb.sum()),
        "slowdown_fraction_overall": slowdown_fraction(res.cublas, res.streamk),
        "slowdown_fraction_compute_bound": slowdown_fraction(
            res.cublas[cb], res.streamk[cb], tol=0.02
        ),
        "intensity": intensity,
        "speedup": speedup,
    }


# --------------------------------------------------------------------- #
# Figure 8: the analytical model                                         #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig8Scenario:
    name: str
    problem: GemmProblem
    paper_g_best: int


FIG8_SCENARIOS = (
    Fig8Scenario("a_256x3584x8192", GemmProblem(256, 3584, 8192, dtype=FP16_FP32), 108),
    Fig8Scenario("b_1024x1024x1024", GemmProblem(1024, 1024, 1024, dtype=FP16_FP32), 64),
    Fig8Scenario("c_128x128x16384", GemmProblem(128, 128, 16384, dtype=FP16_FP32), 8),
)


def fig8_analytical_model(gpu: "GpuSpec | None" = None) -> "dict":
    """Figure 8: modeled runtime vs grid size for the three strong-scaling
    scenarios, plus the selected optimum vs the paper's."""
    gpu = gpu if gpu is not None else default_gpu()
    blocking = Blocking(128, 128, 32)
    params = calibrate(gpu, blocking, FP16_FP32)
    out = {"params": {"a": params.a, "b": params.b, "c": params.c, "d": params.d}}
    for sc in FIG8_SCENARIOS:
        grid = TileGrid(sc.problem, blocking)
        candidates, times = sweep_grid_sizes(grid, params, gpu.num_sms)
        best = int(candidates[int(np.argmin(times))])
        out[sc.name] = {
            "tiles": grid.num_tiles,
            "iters_per_tile": grid.iters_per_tile,
            "g_best": best,
            "paper_g_best": sc.paper_g_best,
            "candidates": candidates,
            "predicted_cycles": times,
        }
    return out


# Re-exported for the FP64 variants of the corpus experiments.
TABLE1_DTYPE = FP64
TABLE2_DTYPE = FP16_FP32

"""Evaluation harness: single-problem runs, vectorized corpus sweeps, and
one entry point per paper table/figure.

Three layers, by scale:

* :mod:`~repro.harness.runner` — run ONE problem under ONE decomposition,
  numerically validated against ``A @ B`` and priced by the simulator
  (:func:`run_schedule` / :func:`run_decomposition`).
* :mod:`~repro.harness.vectorized` — the corpus engine: closed-form
  per-system times for tens of thousands of shapes with no per-problem
  Python loop (:func:`evaluate_corpus` -> :class:`SystemTimings`).
* :mod:`~repro.harness.parallel` — exact process-sharding plus a
  content-keyed evaluation memo on top of the engine
  (:func:`evaluate_corpus_sharded`, :func:`evaluate_corpus_cached`),
  with :mod:`~repro.harness.journal` underneath for durability: a
  write-ahead shard journal so killed sweeps resume bitwise-identically
  (``repro sweep``, docs/CHECKPOINTING.md), and
  :mod:`~repro.harness.fabric` on top for horizontal scale: the one
  multi-process path, a lease-based fabric where worker processes
  *claim* shards from the shared journal (``repro sweep --jobs N`` /
  ``--join DIR``) and dead workers' shards are reclaimed after lease
  expiry.

:mod:`~repro.harness.experiments` packages these as one entry point per
paper artifact (``fig1_...``–``fig9_...``, ``relative_performance_table``);
:mod:`~repro.harness.crosshw` sweeps the schedule comparison across
several :class:`~repro.gpu.spec.GpuSpec` points (``repro crosshw``);
:mod:`~repro.harness.io` writes the JSON/CSV artifacts the benchmarks
commit.  The harness phases are span-instrumented through
:mod:`repro.obs` — set ``REPRO_PROFILE=1`` to see where corpus time goes.
"""

from .crosshw import (
    CROSSHW_SCHEDULES,
    CrossHwCell,
    CrossHwResult,
    format_crosshw_table,
    run_crosshw,
)
from .experiments import (
    FIG8_SCENARIOS,
    corpus_timings,
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
from .fabric import LeaseManager, join_sweep, make_worker_id
from .io import timings_to_rows, write_csv, write_json
from .journal import (
    RESUMABLE_EXIT_STATUS,
    ShardJournal,
    default_journal_dir,
    timings_digest,
)
from .parallel import (
    EVAL_ENGINE_VERSION,
    corpus_fingerprint,
    evaluate_corpus_cached,
    evaluate_corpus_sharded,
    merge_timings,
    wipe_eval_cache,
)
from .runner import MeasuredRun, run_decomposition, run_schedule
from .vectorized import (
    SystemTimings,
    dp_times,
    evaluate_corpus,
    fixed_split_times,
    streamk_times,
)

__all__ = [
    "CROSSHW_SCHEDULES",
    "CrossHwCell",
    "CrossHwResult",
    "EVAL_ENGINE_VERSION",
    "FIG8_SCENARIOS",
    "LeaseManager",
    "MeasuredRun",
    "RESUMABLE_EXIT_STATUS",
    "ShardJournal",
    "SystemTimings",
    "default_journal_dir",
    "timings_digest",
    "format_crosshw_table",
    "run_crosshw",
    "corpus_fingerprint",
    "corpus_timings",
    "dp_times",
    "evaluate_corpus",
    "evaluate_corpus_cached",
    "evaluate_corpus_sharded",
    "join_sweep",
    "make_worker_id",
    "merge_timings",
    "wipe_eval_cache",
    "fig1_data_parallel_quantization",
    "fig2_tile_splitting",
    "fig3_hybrid_schedules",
    "fig4_corpus_statistics",
    "fig7_speedup_vs_cublas",
    "fig8_analytical_model",
    "fig9_strong_scaling",
    "fixed_split_times",
    "relative_performance_table",
    "roofline_landscapes",
    "run_decomposition",
    "run_schedule",
    "streamk_times",
    "timings_to_rows",
    "write_csv",
    "write_json",
]

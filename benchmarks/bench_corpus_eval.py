"""Corpus-evaluation engine throughput (the perf budget of every bench).

Every table/figure bench in this directory pays one or more corpus sweeps
through :func:`repro.harness.evaluate_corpus`.  This bench times the engine
itself — FP64 and FP16->FP32 over the paper corpus — and records the
numbers next to the seed engine's timings so regressions (or wins) in the
vectorized fast paths show up as first-class artifacts.

Two numbers per precision:

* **cold** — first evaluation in the process.  Includes calibration (via
  the persistent cache when one is populated) and numpy warmup.
* **warm** — steady-state re-evaluation, the cost every *additional*
  table/figure sharing the corpus would pay without the content-keyed
  memo in :mod:`repro.harness.parallel` (with it, they pay ~0).

Only a full-corpus run writes its artifacts: under
``benchmarks/artifacts/`` and as ``BENCH_corpus_eval.json`` at the repo
root (the committed before/after record).  ``REPRO_CORPUS_SIZE``
shrinks the corpus for smoke runs, which write nothing; the
5x acceptance assertion only fires on the full 32,824-shape corpus.
"""

import os
import time

from repro.corpus import PAPER_CORPUS, generate_corpus
from repro.gemm import FP16_FP32, FP64
from repro.gpu import A100
from repro.harness import evaluate_corpus, write_json

from .common import banner, corpus_spec, emit

#: Seed-engine timings (pre-vectorization), measured on the reference
#: container over the full 32,824-shape FP64 corpus.  "cold" is the first
#: evaluation in a fresh process; "warm" is a steady-state re-evaluation.
SEED_BASELINE_S = {"fp64_cold": 9.66, "fp64_warm": 3.18}

ROOT_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_corpus_eval.json",
)


def run_corpus_eval(shapes):
    """Time cold/warm FP64 and FP16->FP32 sweeps; return seconds."""
    timings = {}
    t0 = time.perf_counter()
    evaluate_corpus(shapes, FP64, A100)
    timings["fp64_cold_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    evaluate_corpus(shapes, FP64, A100)
    timings["fp64_warm_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    evaluate_corpus(shapes, FP16_FP32, A100)
    timings["fp16_fp32_s"] = time.perf_counter() - t0
    return timings


def test_corpus_eval_engine(benchmark):
    spec = corpus_spec()
    shapes = generate_corpus(spec)
    timings = benchmark.pedantic(
        run_corpus_eval, args=(shapes,), rounds=1, iterations=1
    )
    n = shapes.shape[0]
    full = spec.size == PAPER_CORPUS.size

    banner("Corpus evaluation engine (%d shapes)" % n)
    print("FP64 cold      : %7.3f s  (%8.0f shapes/s)"
          % (timings["fp64_cold_s"], n / timings["fp64_cold_s"]))
    print("FP64 warm      : %7.3f s  (%8.0f shapes/s)"
          % (timings["fp64_warm_s"], n / timings["fp64_warm_s"]))
    print("FP16->FP32     : %7.3f s  (%8.0f shapes/s)"
          % (timings["fp16_fp32_s"], n / timings["fp16_fp32_s"]))
    if full:
        print("seed FP64 cold : %7.3f s  -> %.1fx faster"
              % (SEED_BASELINE_S["fp64_cold"],
                 SEED_BASELINE_S["fp64_cold"] / timings["fp64_cold_s"]))
        print("seed FP64 warm : %7.3f s  -> %.1fx faster"
              % (SEED_BASELINE_S["fp64_warm"],
                 SEED_BASELINE_S["fp64_warm"] / timings["fp64_warm_s"]))

    payload = {
        "corpus_size": int(n),
        "full_corpus": bool(full),
        "measured_s": timings,
        "seed_baseline_s": SEED_BASELINE_S,
        "shapes_per_s": {k: n / v for k, v in timings.items()},
    }
    if full:
        emit("corpus_eval", payload)
        write_json(ROOT_ARTIFACT, payload)
        # Acceptance bar: >= 5x over the seed single-process engine.
        assert SEED_BASELINE_S["fp64_cold"] / timings["fp64_cold_s"] >= 5.0
    # Engine throughput floor holds at any corpus size.
    assert n / timings["fp64_warm_s"] > 5_000

"""``sweep``: the durable corpus sweep behind ``repro sweep``.

Each iteration is a fresh ``worker.py sweep`` process with a fresh cache
directory and journal: set-up (imports, seeded corpus, calibration of
both precisions) until ``READY``, then a durable ``jobs=2`` sweep of
FP64 and FP16->FP32 (timed), then the same sweep resumed from its
journal (timed separately: the recovery path after a crash).
Iterations repeat back to back for the run's seconds.  The output check
compares every merged digest with single-process ``evaluate_corpus`` on
the same shapes, computed here after the timed region.
"""

from __future__ import annotations

import json
import os
import time

from common import Worker, emit, median, overhead, percentile, use_program_in_process
from tracing import layer_summary, load_spans, self_time_report

CORPUS_SIZE = 32_824
SMOKE_SIZE = 2_000
JOBS = 2
MIN_ITERATIONS = 3
DTYPES = ("fp64", "fp16_fp32")


def _sweep_pass(run_dir, seed: int, size: int, seconds: float, traced: bool) -> dict:
    iterations = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(iterations) < MIN_ITERATIONS):
        cache = run_dir.fresh("cache")
        args = ["sweep", "--seed", str(seed), "--size", str(size),
                "--jobs", str(JOBS), "--journal", os.path.join(cache, "journal")]
        env = {}
        if traced:
            spans = os.path.join(cache, "spans.json")
            args += ["--spans", spans]
            env["REPRO_PROFILE"] = "1"
        worker = Worker(args, cache, **env)
        try:
            setup_s = worker.ready()
            result = worker.result()
        finally:
            worker.stop()
        result["setup_s"] = setup_s
        if traced:
            result["spans"] = load_spans(spans)
            with open(spans + ".obs") as fh:
                result["obs"] = json.load(fh)
        iterations.append(result)
    return {"iterations": iterations, "size": size}


def _end_to_end(p: dict) -> dict:
    its = p["iterations"]
    sweep_s = [it["sweep_s"] for it in its]
    return {
        "setup_s": median([it["setup_s"] for it in its]),
        "p50_ms": percentile(sweep_s, 50.0) * 1e3,
        "p90_ms": percentile(sweep_s, 90.0) * 1e3,
        "peak_rps": 1.0 / median(sweep_s),
        "shapes_per_s": len(DTYPES) * p["size"] / median(sweep_s),
        "pristine_s": median(sweep_s),
        "faulted_s": median([it["resume_s"] for it in its]),
        "rss_mb": median([it["rss_mb"] for it in its]),
    }


def reference_digests(seed: int, size: int) -> "list[str]":
    """Single-process ``evaluate_corpus`` digests for both precisions."""
    use_program_in_process()
    from repro.corpus.generator import CorpusSpec, generate_corpus
    from repro.gemm.dtypes import get_dtype_config
    from repro.gpu.spec import resolve_gpu
    from repro.harness.journal import timings_digest
    from repro.harness.vectorized import evaluate_corpus

    shapes = generate_corpus(CorpusSpec(size=size, seed=seed))
    gpu = resolve_gpu("a100")
    return [
        timings_digest(evaluate_corpus(shapes, get_dtype_config(d), gpu))
        for d in DTYPES
    ]


def _obs_seconds(events, leaf: str, under: str = "") -> "tuple[float, int]":
    """Total seconds and count of ``repro.obs`` spans named ``leaf``
    (optionally below a span named ``under``)."""
    total, count = 0.0, 0
    for path, start, end, *_ in events:
        parts = path.split("/")
        if parts[-1] == leaf and (not under or under in parts[:-1]):
            total += end - start
            count += 1
    return total, count


def per_layer(p: dict) -> dict:
    its = p["iterations"]
    n = len(its)
    summaries = [layer_summary(it["spans"]) for it in its]

    def spans_total(name: str, key: str = "total_s") -> float:
        return sum(s.get(name, {}).get(key, 0.0) for s in summaries) / n

    def obs_total(leaf: str, under: str = "evaluate_corpus") -> "tuple[float, int]":
        pairs = [_obs_seconds(it["obs"], leaf, under) for it in its]
        return sum(t for t, _ in pairs) / n, sum(c for _, c in pairs) / n

    streamk_s, streamk_calls = obs_total("streamk")
    singleton_s, _ = obs_total("singleton")
    oracle_s, _ = obs_total("oracle")
    cublas_s, _ = obs_total("cublas_ensemble")
    shard_s, shards = obs_total("shard", under="")
    sweep_s = median([it["sweep_s"] for it in its])
    return {
        "corpus.generate_s": spans_total("corpus.generate"),
        "model.calibrate_s": spans_total("model.calibrate"),
        "harness.streamk_s": streamk_s,
        "harness.dp_s": singleton_s + oracle_s,
        "harness.cublas_s": cublas_s,
        "harness.shards": shards,
        "harness.shard_eval_s": shard_s,
        "harness.commit_s": spans_total("harness.commit"),
        "harness.merge_s": spans_total("harness.merge"),
        "harness.parallel_eff": shard_s / (sweep_s * JOBS),
        "core.plan_batch_ms": 1e3 * streamk_s / streamk_calls if streamk_calls else 0.0,
        "core.shapes_per_call": (
            len(DTYPES) * p["size"] / streamk_calls if streamk_calls else 0.0
        ),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir,
        smoke: bool = False) -> dict:
    size = SMOKE_SIZE if smoke else CORPUS_SIZE
    plain = _sweep_pass(run_dir, seed, size, seconds, traced=False)
    metrics = _end_to_end(plain)
    emit("end_to_end", metrics)
    passes = [plain]
    if trace:
        traced = _sweep_pass(run_dir, seed, size, seconds, traced=True)
        passes.append(traced)
        emit("self_time", self_time_report(layer_summary(traced["iterations"][0]["spans"])))
        traced_metrics = _end_to_end(traced)
        metrics = dict(per_layer(traced), **overhead(metrics, traced_metrics))
    want = reference_digests(seed, size)
    attempted = failed = 0
    for p in passes:
        for it in p["iterations"]:
            for got in (it["digests"], it["resumed_digests"]):
                for g, w in zip(got, want):
                    attempted += 1
                    if g != w:
                        failed += 1
                        emit("check", "digest mismatch: %s != %s" % (g, w))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


"""Program process for the ``sweep`` and ``simulate`` workloads.

Run by :mod:`sweep` / :mod:`simulate` in a fresh process per iteration
(the way ``repro sweep`` and ``repro faults`` run).  It prints ``READY``
once imports and set-up are done, then one JSON line with the timed
results.  ``--spans PATH`` wraps the layers' public functions in
:class:`tracing.Tracer` spans and writes them (and, for the sweep, the
program's own ``repro.obs`` spans) to ``PATH`` at exit.

Modes::

    worker.py sweep    --seed S --size N --journal DIR [--spans PATH]
    worker.py simulate --seed S --cells JSON [--spans PATH]
    worker.py oracle   --seed S --cells JSON      # python executor
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from tracing import Tracer

GPU_NAME = "a100"
SWEEP_DTYPES = ("fp64", "fp16_fp32")
RESUMES = 9


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ready() -> None:
    print("READY", flush=True)


def _trace_sweep(tracer: Tracer) -> None:
    import repro.corpus.generator as generator
    import repro.harness.journal as journal
    import repro.harness.parallel as parallel
    import repro.model.paramcache as paramcache

    tracer.wrap(generator, "generate_corpus", "corpus.generate")
    tracer.wrap(paramcache, "calibrate_cached", "model.calibrate")
    tracer.wrap(parallel, "calibrate_cached", "model.calibrate")
    tracer.wrap(parallel, "evaluate_corpus_sharded", "harness.sweep")
    tracer.wrap(parallel, "merge_timings", "harness.merge")
    tracer.wrap(journal.ShardJournal, "record_done", "harness.commit")


def run_sweep(args, tracer: "Tracer | None") -> dict:
    if tracer is not None:
        _trace_sweep(tracer)
    import repro.corpus.generator as generator
    import repro.harness.parallel as parallel
    import repro.model.paramcache as paramcache
    from repro.gemm.dtypes import get_dtype_config
    from repro.gemm.tiling import Blocking
    from repro.gpu.spec import resolve_gpu
    from repro.harness.journal import timings_digest

    gpu = resolve_gpu(GPU_NAME)
    dtypes = [get_dtype_config(d) for d in SWEEP_DTYPES]
    shapes = generator.generate_corpus(
        generator.CorpusSpec(size=args.size, seed=args.seed)
    )
    for dtype in dtypes:
        paramcache.calibrate_cached(gpu, Blocking(*dtype.default_blocking), dtype)
    _ready()

    def sweep(resume: bool) -> "tuple[float, list[str]]":
        t0 = time.perf_counter()
        results = [
            parallel.evaluate_corpus_sharded(
                shapes, dtype, gpu, jobs=args.jobs, workers=args.workers,
                journal=os.path.join(args.journal, dtype.name), resume=resume,
            )
            for dtype in dtypes
        ]
        wall = time.perf_counter() - t0
        return wall, [timings_digest(r) for r in results]

    sweep_s, digests = sweep(resume=False)
    # The recovery path after a crash: every shard is already committed,
    # so this is journal replay, artifact load and merge.  It is short,
    # so it is repeated and the median kept.
    resumes = [sweep(resume=True) for _ in range(RESUMES)]
    resumed = resumes[0][1]
    if any(r[1] != resumed for r in resumes):
        resumed = ["resumes disagree"]
    return {
        "sweep_s": sweep_s,
        "resume_s": sorted(r[0] for r in resumes)[RESUMES // 2],
        "digests": digests,
        "resumed_digests": resumed,
        "rss_mb": _peak_rss_mb(),
    }


def _trace_simulate(tracer: Tracer) -> None:
    import repro.faults.injector as injector
    import repro.faults.sweep as fsweep
    import repro.gpu.costmodel as costmodel
    import repro.gpu.executor as executor
    import repro.schedules.flatten as flatten

    def segments(_args, _kwargs, trace) -> int:
        return sum(len(c.segments) for c in trace.ctas)

    tracer.wrap(fsweep, "run_fault_sweep", "faults.sweep")
    tracer.wrap(fsweep, "build_registered_schedule", "schedules.build")
    tracer.wrap(fsweep, "check_protocol_invariants", "faults.check")
    tracer.wrap(flatten, "flatten_work_items", "schedules.flatten")
    tracer.wrap(costmodel.KernelCostModel, "build_task_arrays", "gpu.price")
    tracer.wrap(executor.Executor, "run_arrays", "gpu.simulate", count=segments)
    for name in (
        "signal_drops", "signal_delays", "slot_multipliers",
        "preempt_penalties", "mem_latency_multipliers",
    ):
        tracer.wrap(injector.FaultInjector, name, "faults.inject")


def _problem(spec: dict):
    from repro.gemm.dtypes import get_dtype_config
    from repro.gemm.problem import GemmProblem

    return GemmProblem(
        spec["m"], spec["n"], spec["k"], dtype=get_dtype_config(spec["dtype"])
    )


def run_cells(args, tracer: "Tracer | None", executor: str) -> dict:
    """Simulate each cell with one ``run_fault_sweep`` call, the call
    ``repro faults --schedules NAME --severities S`` makes."""
    if tracer is not None:
        _trace_simulate(tracer)
    import repro.faults.sweep as fsweep
    from repro.gpu.spec import resolve_gpu

    gpu = resolve_gpu(GPU_NAME)
    cells = json.loads(args.cells)
    problems = {json.dumps(c["problem"], sort_keys=True): _problem(c["problem"])
                for c in cells}
    _ready()
    out = []
    for cell in cells:
        problem = problems[json.dumps(cell["problem"], sort_keys=True)]
        t0 = time.perf_counter()
        (result,) = fsweep.run_fault_sweep(
            problem, gpu,
            severities=(cell["severity"],),
            schedule_names=(cell["schedule"],),
            seed=args.seed,
            executor=executor,
        )
        seconds = time.perf_counter() - t0
        out.append({
            "key": cell["key"],
            "seconds": seconds,
            "makespan": result.makespan,
            "deadlocked": result.deadlocked,
            "injections": result.injections,
        })
    return {"cells": out, "rss_mb": _peak_rss_mb()}


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("sweep", "simulate", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--journal", default=None)
    p.add_argument("--cells", default=None)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    tracer = Tracer() if args.spans else None
    if args.mode == "sweep":
        result = run_sweep(args, tracer)
    else:
        executor = "numpy" if args.mode == "simulate" else "python"
        result = run_cells(args, tracer, executor)
    if tracer is not None:
        tracer.dump(args.spans)
        if args.mode == "sweep":
            from repro.obs.profiler import get_profile

            with open(args.spans + ".obs", "w") as fh:
                json.dump([e.as_tuple() for e in get_profile().events], fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

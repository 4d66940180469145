"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``plan``       show how the Stream-K library would launch one problem
``simulate``   run one problem under every decomposition and compare
``model``      print the Appendix A.1 grid-size curve for a problem
``corpus``     evaluate a corpus slice and print the Tables-1/2 columns
``calibrate``  print the calibrated {a, b, c, d} constants
``cache``      show or wipe the on-disk calibration / evaluation caches
``trace``      export one schedule's execution as Chrome/Perfetto JSON
``profile``    profile a corpus evaluation (span report + counters)
``faults``     straggler-severity x schedule fault sweep (docs/FAULTS.md)
``crosshw``    schedule comparison across several GPUs (docs/HARDWARE.md)
``sweep``      durable corpus sweep: WAL journal, ``--resume``, chaos
               kill, multi-worker lease fabric (``--jobs N``/``--join``)
               (docs/CHECKPOINTING.md)
``serve``      long-running plan server: micro-batched queries, tiered
               plan cache, JSONL-over-TCP protocol (docs/SERVING.md)
``loadgen``    deterministic Zipf load generator for the serving path;
               reports QPS and p50/p99 split by cache hit/miss
``adapt``      Stream-K++ adaptive-selection replay: a winner table over
               the analytic or ensemble-oracle policy vs cold planning,
               with per-strategy regret vs the oracle (docs/ADAPTIVE.md)

Every command accepts ``--dtype {fp64,fp16_fp32,fp32,bf16_fp32}`` and
``--gpu NAME|path.json`` where ``NAME`` is a registered preset (see
``repro.gpu.spec.available_gpus``) and a path loads a custom device via
:meth:`~repro.gpu.spec.GpuSpec.from_json_file` (schema in
docs/HARDWARE.md).  Setting ``REPRO_PROFILE=1`` makes any command print
a span-profiler report and the counters registry to stderr on exit (see
:mod:`repro.obs` and README.md's environment-variable table).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .corpus.filters import compute_bound_mask
from .errors import SweepInterrupted
from .corpus.generator import CorpusSpec, generate_corpus
from .gemm.dtypes import DTYPE_CONFIGS, get_dtype_config
from .gemm.problem import GemmProblem
from .gemm.tiling import Blocking, TileGrid
from .gpu.backends import EXECUTOR_BACKENDS, set_default_executor
from .gpu.spec import DEFAULT_GPU_NAME, available_gpus, resolve_gpu
from .metrics.report import format_utilization
from .obs import profiler as _profiler
from .schedules.registry import DECOMPOSITION_NAMES

__all__ = ["main", "build_parser"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dtype", default="fp16_fp32", choices=sorted(DTYPE_CONFIGS),
        help="precision configuration (default fp16_fp32)",
    )
    p.add_argument(
        "--gpu", default=DEFAULT_GPU_NAME, metavar="NAME|PATH.json",
        help="simulated GPU: a registered preset (%s) or a path to a "
        "custom spec JSON (default %s; see docs/HARDWARE.md)"
        % (", ".join(available_gpus()), DEFAULT_GPU_NAME),
    )
    _add_executor(p)


def _add_executor(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--executor", default=None, choices=EXECUTOR_BACKENDS,
        help="executor simulation backend (default: $REPRO_EXECUTOR, else "
        "python; numpy is bitwise identical and much faster)",
    )


def _add_shape(p: argparse.ArgumentParser) -> None:
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)


def _add_journal(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead journal directory for durable checkpoint/resume "
        "(default $REPRO_JOURNAL_DIR; see docs/CHECKPOINTING.md)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="replay the journal and skip digest-verified completed shards",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stream-K reproduction: work-centric GEMM decomposition "
        "on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="show the Stream-K launch plan")
    _add_shape(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="compare every decomposition")
    _add_shape(p)
    _add_common(p)
    p.add_argument(
        "--numeric", action="store_true",
        help="also execute numerically and validate against A @ B",
    )

    p = sub.add_parser("model", help="Appendix A.1 grid-size curve")
    _add_shape(p)
    _add_common(p)

    p = sub.add_parser("corpus", help="corpus-scale system comparison")
    _add_common(p)
    p.add_argument("--size", type=int, default=2000, help="corpus slice size")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (0 = all cores, default 1)",
    )
    _add_journal(p)

    p = sub.add_parser("calibrate", help="print {a, b, c, d}")
    _add_common(p)

    p = sub.add_parser("cache", help="inspect or wipe the on-disk caches")
    p.add_argument(
        "--wipe", action="store_true",
        help="delete cached calibration constants and corpus evaluations",
    )

    p = sub.add_parser(
        "trace",
        help="export one schedule's simulated execution as Perfetto JSON",
    )
    _add_shape(p)
    _add_common(p)
    p.add_argument(
        "--schedule", default="stream_k", choices=DECOMPOSITION_NAMES,
        help="decomposition to trace (default stream_k)",
    )
    p.add_argument(
        "--g", type=int, default=None, metavar="G",
        help="grid size (stream_k), splitting factor (fixed_split), or "
        "g_small (two_tile_stream_k); default: one CTA per SM",
    )
    p.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="output path for the Chrome trace_event JSON "
        "(default trace.json; open at https://ui.perfetto.dev)",
    )

    p = sub.add_parser(
        "faults",
        help="sweep fault severity x schedule; report makespan degradation",
    )
    _add_shape(p)
    _add_common(p)
    p.add_argument(
        "--severities", default="0,0.25,0.5,1,2", metavar="S0,S1,...",
        help="comma-separated straggler severities (default 0,0.25,0.5,1,2)",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="fault-injection seed (same seed => bit-identical sweep)",
    )
    p.add_argument(
        "--schedules", default=None, metavar="NAME,...",
        help="decompositions to sweep (default: all registered: %s)"
        % ",".join(DECOMPOSITION_NAMES),
    )
    p.add_argument(
        "--drop-signals", type=float, default=0.0, metavar="P",
        help="additionally drop each flag publication with probability P "
        "(dropped signals surface as a diagnosed DEADLOCK, never a hang)",
    )
    p.add_argument(
        "--no-check", action="store_true",
        help="skip the protocol invariant checker replay per cell",
    )

    p = sub.add_parser(
        "crosshw",
        help="schedule comparison across several GPUs (one corpus pass "
        "per device; see docs/HARDWARE.md)",
    )
    p.add_argument(
        "--dtype", default="fp16_fp32", choices=sorted(DTYPE_CONFIGS),
        help="precision configuration (default fp16_fp32)",
    )
    _add_executor(p)
    p.add_argument(
        "--gpus", default="a100,h100_sxm,v100_sxm2,rtx3090",
        metavar="NAME|PATH,...",
        help="comma-separated devices: registered presets (%s) and/or "
        "spec-JSON paths (default a100,h100_sxm,v100_sxm2,rtx3090)"
        % ", ".join(available_gpus()),
    )
    p.add_argument(
        "--schedules", default="data_parallel,fixed_split,stream_k,cublas",
        metavar="NAME,...",
        help="schedule families to compare "
        "(default data_parallel,fixed_split,stream_k,cublas; "
        "also: oracle)",
    )
    p.add_argument("--size", type=int, default=2000, help="corpus slice size")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per device evaluation (0 = all cores, "
        "default 1)",
    )
    _add_journal(p)

    p = sub.add_parser(
        "sweep",
        help="durable, resumable corpus sweep: every shard completion is "
        "committed to a write-ahead journal (docs/CHECKPOINTING.md)",
    )
    _add_common(p)
    p.add_argument("--size", type=int, default=2000, help="corpus slice size")
    p.add_argument(
        "--jobs", "--workers", dest="jobs", type=int, default=1,
        metavar="N",
        help="lease-fabric worker processes that claim shards from the "
        "journal, with heartbeat/lease-expiry reclaim of dead workers' "
        "shards (0 = all cores, default 1 = in-process; "
        "docs/CHECKPOINTING.md)",
    )
    p.add_argument(
        "--shard-rows", type=int, default=None, metavar="R",
        help="rows per shard (default: ~4 shards per worker)",
    )
    _add_journal(p)
    p.add_argument(
        "--chaos-kill-after", type=int, default=None, metavar="K",
        help="chaos mode: SIGKILL this process right after the K-th shard "
        "completion is durably journaled (testing the resume contract)",
    )
    p.add_argument(
        "--join", default=None, metavar="DIR",
        help="lease fabric: join a (possibly concurrent) sweep rooted at "
        "journal directory DIR as one worker; every joiner merges and "
        "reports the full result once all shards are committed",
    )
    p.add_argument(
        "--lease-seconds", type=float, default=None, metavar="S",
        help="lease expiry budget before a dead/wedged worker's shard is "
        "reclaimed (default $REPRO_LEASE_SECONDS or 30)",
    )
    p.add_argument(
        "--heartbeat-seconds", type=float, default=None, metavar="S",
        help="lease renewal interval while evaluating a claimed shard "
        "(default $REPRO_HEARTBEAT_SECONDS or lease/6)",
    )
    p.add_argument(
        "--chaos-worker-kill", default=None, metavar="POINT[:K]",
        help="chaos mode: SIGKILL one fabric worker at its K-th "
        "claim/eval/commit boundary (worker 0 under --jobs N, this "
        "process under --join)",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="optionally write the merged timings as an .npz artifact",
    )

    p = sub.add_parser(
        "serve",
        help="serve plan queries over TCP: micro-batched misses, tiered "
        "plan cache (docs/SERVING.md)",
    )
    _add_common(p)
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="TCP port (default 0 = pick an ephemeral port)",
    )
    p.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port number to PATH once listening "
        "(scripts use this with --port 0)",
    )
    p.add_argument(
        "--batch-window-ms", type=float, default=2.0, metavar="MS",
        help="micro-batching window for cache misses (default 2.0; hits "
        "never wait)",
    )
    p.add_argument(
        "--max-batch", type=int, default=256, metavar="N",
        help="flush a miss batch early once N queries are queued "
        "(default 256)",
    )
    p.add_argument(
        "--cache-capacity", type=int, default=65536, metavar="N",
        help="hot-tier LRU capacity per (dtype, gpu) binding (default 65536)",
    )
    p.add_argument(
        "--no-warm", action="store_true",
        help="skip calibration warm-up for the --dtype/--gpu binding at "
        "startup",
    )
    p.add_argument(
        "--no-persist", action="store_true",
        help="disable the persistent plan-shard tier (memory-only cache)",
    )
    p.add_argument(
        "--idle-timeout-s", type=float, default=30.0, metavar="S",
        help="disconnect a client whose connection is idle (no request "
        "line) for S seconds, freeing its handler thread (default 30)",
    )
    p.add_argument(
        "--max-queue-depth", type=int, default=1024, metavar="N",
        help="admission control: bound on queued cache misses; at the "
        "bound new misses are shed with a structured 'overloaded' error "
        "instead of queueing (default 1024)",
    )
    p.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="K",
        help="consecutive plan-batch failures that open the circuit "
        "breaker (misses rejected fast, hits still served; 0 disables; "
        "default 3)",
    )
    p.add_argument(
        "--breaker-cooldown-ms", type=float, default=1000.0, metavar="MS",
        help="open-breaker cooldown before a half-open probe is admitted "
        "(default 1000)",
    )
    p.add_argument(
        "--chaos-plan", default=None, metavar="SPEC",
        help="deterministic planner chaos (test seam): off | stall:S[:N] "
        "| fail[:N]; any value (including 'off') also authorizes the "
        "wire protocol's chaos op (docs/SERVING.md)",
    )
    p.add_argument(
        "--demo", type=int, default=None, metavar="N",
        help="self-contained demo: boot the daemon on an ephemeral local "
        "port, replay an N-request Zipf trace over its socket, print the "
        "serving stats, and exit",
    )

    p = sub.add_parser(
        "loadgen",
        help="replay a deterministic Zipf trace against the serving path "
        "and report QPS + hit/miss latency percentiles",
    )
    _add_common(p)
    p.add_argument(
        "--requests", type=int, default=2000, metavar="N",
        help="total requests to issue (default 2000)",
    )
    p.add_argument(
        "--universe", type=int, default=256, metavar="N",
        help="distinct shapes in the Zipf universe (default 256)",
    )
    p.add_argument(
        "--zipf-s", type=float, default=1.1, metavar="S",
        help="Zipf exponent; larger skews harder to hot shapes "
        "(default 1.1)",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="trace seed (same knobs + seed => byte-identical trace)",
    )
    p.add_argument(
        "--clients", type=int, default=4, metavar="C",
        help="concurrent client threads (default 4)",
    )
    p.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive a running `repro serve` daemon instead of a local one "
        "started for the run",
    )
    p.add_argument(
        "--batch-window-ms", type=float, default=2.0, metavar="MS",
        help="micro-batching window of the local daemon started when "
        "--connect is not given (default 2.0)",
    )
    p.add_argument(
        "--no-warm", action="store_true",
        help="skip startup calibration of the local daemon started when "
        "--connect is not given",
    )
    p.add_argument(
        "--no-persist", action="store_true",
        help="keep the plan cache of the local daemon started when "
        "--connect is not given memory-only",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request latency budget propagated to the service; "
        "expired requests are dropped, never planned (default: none)",
    )
    p.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retries per request on overloaded/timeout rejections, with "
        "seeded exponential backoff + jitter (default 0)",
    )
    p.add_argument(
        "--backoff-ms", type=float, default=5.0, metavar="MS",
        help="first-retry backoff before jitter; doubles per retry, "
        "capped (default 5)",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="optionally write the full report as JSON",
    )

    p = sub.add_parser(
        "adapt",
        help="replay Zipf traffic through the Stream-K++ adaptive "
        "selector: hit rate, selection latency vs cold planning, and "
        "regret vs the oracle (docs/ADAPTIVE.md)",
    )
    _add_common(p)
    p.add_argument(
        "--requests", type=int, default=20000, metavar="N",
        help="total requests to replay (default 20000)",
    )
    p.add_argument(
        "--universe", type=int, default=512, metavar="N",
        help="distinct shapes in the Zipf universe (default 512)",
    )
    p.add_argument(
        "--zipf-s", type=float, default=1.1, metavar="S",
        help="Zipf exponent; larger skews harder to hot shapes "
        "(default 1.1)",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="trace seed (same knobs => byte-identical replay)",
    )
    p.add_argument(
        "--evaluator", default="ensemble", choices=("ensemble", "analytic"),
        help="miss path: 'ensemble' measures every cuBLAS-style variant "
        "and remembers the oracle winner (default); 'analytic' runs the "
        "planning arithmetic only",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="optionally write the full report as JSON",
    )

    p = sub.add_parser(
        "profile",
        help="profile a corpus evaluation: span report + counters",
    )
    _add_common(p)
    p.add_argument("--size", type=int, default=2000, help="corpus slice size")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (0 = all cores, default 1)",
    )
    p.add_argument(
        "--repeat", type=int, default=2, metavar="R",
        help="evaluate the corpus R times so cache counters show the warm "
        "path (default 2)",
    )
    p.add_argument(
        "--flame", action="store_true",
        help="also print a text flamegraph of the span tree",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="optionally write the profile as Chrome trace_event JSON",
    )

    return parser


def _cmd_plan(args) -> int:
    from .ensembles.streamk_library import StreamKLibrary

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    problem = GemmProblem(args.m, args.n, args.k, dtype=dtype)
    lib = StreamKLibrary(gpu, dtype)
    grid = TileGrid(problem, lib.blocking)
    plan = lib.plan(problem)
    print("problem        : %s" % problem)
    print("blocking       : %s" % lib.blocking)
    print("tiles          : %d (%d x %d), %d iters/tile"
          % (grid.num_tiles, grid.tiles_m, grid.tiles_n, grid.iters_per_tile))
    print("plan           : %s" % plan.kind)
    print("grid size      : %d CTAs on %d SMs" % (plan.g, gpu.num_sms))
    print("aligned iters  : %s" % format_utilization(plan.k_aligned_fraction, decimals=0))
    print("fixup exchanges: %d" % plan.fixup_stores)
    print("predicted time : %.1f us (%.1f TFLOP/s)"
          % (plan.time_s * 1e6, problem.flops / plan.time_s / 1e12))
    return 0


def _cmd_simulate(args) -> int:
    from .harness.runner import run_schedule
    from .ensembles.streamk_library import StreamKLibrary
    from .schedules.data_parallel import data_parallel_schedule
    from .schedules.fixed_split import fixed_split_schedule
    from .schedules.stream_k import stream_k_schedule

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    problem = GemmProblem(args.m, args.n, args.k, dtype=dtype)
    lib = StreamKLibrary(gpu, dtype)
    grid = TileGrid(problem, lib.blocking)
    schedules = [
        data_parallel_schedule(grid),
        fixed_split_schedule(grid, 2),
        stream_k_schedule(grid, min(gpu.num_sms, grid.total_iters)),
        lib.build_schedule(problem),
    ]
    print("%-24s %6s %9s %12s %10s" % ("schedule", "g", "util", "time (us)", "TFLOP/s"))
    for sched in schedules:
        run = run_schedule(sched, gpu, execute_numeric=args.numeric)
        note = ""
        if run.max_rel_error is not None:
            note = "  [validated, err %.1e]" % run.max_rel_error
        print(
            "%-24s %6d %9s %12.1f %10.1f%s"
            % (
                sched.name,
                run.g,
                format_utilization(run.result.trace.utilization()),
                run.time_s * 1e6,
                run.tflops,
                note,
            )
        )
    return 0


def _cmd_model(args) -> int:
    from .model.calibrate import calibrate
    from .model.gridsize import select_grid_size

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    problem = GemmProblem(args.m, args.n, args.k, dtype=dtype)
    blocking = Blocking(*dtype.default_blocking)
    grid = TileGrid(problem, blocking)
    params = calibrate(gpu, blocking, dtype)
    decision = select_grid_size(grid, params, gpu.total_cta_slots)
    print("constants: a=%.1f b=%.1f c=%.2f d=%.1f cycles"
          % (params.a, params.b, params.c, params.d))
    print("g_best = %d (predicted %.0f cycles)"
          % (decision.g, decision.predicted_cycles))
    marks = sorted({1, 2, 4, 8, 16, 32, 64, len(decision.candidates), decision.g})
    for g in marks:
        if g <= len(decision.candidates):
            star = "  <-- g_best" if g == decision.g else ""
            print("  g=%4d  %12.0f cycles%s" % (g, decision.predictions[g - 1], star))
    return 0


def _cmd_corpus(args) -> int:
    from .harness.journal import default_journal_dir
    from .harness.parallel import evaluate_corpus_sharded
    from .metrics.report import format_relative_table
    from .metrics.stats import relative_performance

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    shapes = generate_corpus(CorpusSpec(size=args.size))
    res = evaluate_corpus_sharded(
        shapes, dtype, gpu, jobs=args.jobs,
        journal=args.journal or default_journal_dir(), resume=args.resume,
    )
    cb = compute_bound_mask(shapes, dtype)
    cols = {
        "vs CUTLASS %dx%dx%d" % dtype.default_blocking: relative_performance(
            res.singleton, res.streamk
        ),
        "vs cuBLAS": relative_performance(res.cublas, res.streamk),
        "vs cuBLAS (CB)": relative_performance(res.cublas[cb], res.streamk[cb]),
        "vs oracle": relative_performance(res.oracle, res.streamk),
    }
    print(
        format_relative_table(
            cols,
            title="Stream-K %s relative performance (%d shapes, %d compute-bound)"
            % (dtype.name, args.size, int(np.sum(cb))),
        )
    )
    return 0


def _cmd_calibrate(args) -> int:
    from .model.calibrate import calibrate

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    blocking = Blocking(*dtype.default_blocking)
    params = calibrate(gpu, blocking, dtype)
    print("gpu=%s dtype=%s blocking=%s" % (gpu.name, dtype.name, blocking))
    print("a = %10.2f cycles  (fixed per-CTA cost)" % params.a)
    print("b = %10.2f cycles  (partial-sum store)" % params.b)
    print("c = %10.2f cycles  (per MAC-loop iteration)" % params.c)
    print("d = %10.2f cycles  (per-peer fixup)" % params.d)
    return 0


def _cmd_cache(args) -> int:
    import os

    from .harness.parallel import wipe_eval_cache
    from .model.paramcache import default_cache_dir, wipe_calibration_cache

    root = default_cache_dir()
    eval_root = os.environ.get("REPRO_EVAL_CACHE_DIR") or root
    print("cache root : %s" % root)
    for sub, base in (("calibration", root), ("eval", eval_root)):
        d = os.path.join(base, sub)
        try:
            files = [os.path.join(d, f) for f in sorted(os.listdir(d))]
        except OSError:
            files = []
        size = sum(os.path.getsize(f) for f in files if os.path.isfile(f))
        print("  %-11s %d file(s), %d bytes  (%s)" % (sub, len(files), size, d))
    if args.wipe:
        n = wipe_calibration_cache() + wipe_eval_cache(eval_root)
        print("wiped %d cached file(s)" % n)
    return 0


def _cmd_trace(args) -> int:
    from .harness.runner import run_schedule
    from .obs.export import trace_to_chrome, write_chrome_trace
    from .schedules.registry import make_decomposition

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    problem = GemmProblem(args.m, args.n, args.k, dtype=dtype)
    blocking = Blocking(*dtype.default_blocking)
    grid = TileGrid(problem, blocking)
    default_g = max(1, min(gpu.num_sms, grid.total_iters))
    kwargs: "dict[str, int]" = {}
    if args.schedule == "fixed_split":
        kwargs["s"] = args.g if args.g is not None else 2
    elif args.schedule == "stream_k":
        kwargs["g"] = args.g if args.g is not None else default_g
    elif args.schedule in ("two_tile_stream_k", "dp_one_tile_stream_k"):
        kwargs["p"] = gpu.num_sms
        if args.schedule == "two_tile_stream_k" and args.g is not None:
            kwargs["g_small"] = args.g
    schedule = make_decomposition(args.schedule, **kwargs).build(grid)
    run = run_schedule(schedule, gpu, execute_numeric=False)
    trace = run.result.trace
    doc = trace_to_chrome(
        trace,
        name="%s %dx%dx%d %s on %s"
        % (schedule.name, args.m, args.n, args.k, dtype.name, gpu.name),
        clock_hz=gpu.clock_hz,
    )
    write_chrome_trace(args.out, doc)
    print("schedule    : %s (g=%d) on %s" % (schedule.name, run.g, gpu.name))
    print("makespan    : %.0f cycles (%.2f us simulated)"
          % (trace.makespan, run.time_s * 1e6))
    print("utilization : %s (%d spin-wait cycles)"
          % (format_utilization(trace.utilization()), trace.total_wait_cycles))
    print("events      : %d across %d SM-slot tracks"
          % (len(doc["traceEvents"]), trace.num_sm_slots))
    print("wrote %s -- open it at https://ui.perfetto.dev "
          "(see docs/TRACING.md)" % args.out)
    return 0


def _cmd_faults(args) -> int:
    import dataclasses

    from .errors import ConfigurationError
    from .faults import FaultConfig, format_sweep_table, run_fault_sweep
    from .obs.counters import get_counter

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    problem = GemmProblem(args.m, args.n, args.k, dtype=dtype)
    try:
        severities = tuple(
            float(s) for s in args.severities.split(",") if s.strip() != ""
        )
    except ValueError:
        raise ConfigurationError(
            "--severities must be comma-separated numbers, got %r"
            % args.severities
        ) from None
    names = (
        tuple(s for s in args.schedules.split(",") if s)
        if args.schedules
        else DECOMPOSITION_NAMES
    )

    def factory(severity, seed):
        cfg = FaultConfig.straggler_sweep_point(severity, seed)
        if args.drop_signals > 0.0:
            cfg = dataclasses.replace(cfg, signal_drop_prob=args.drop_signals)
        return cfg

    cells = run_fault_sweep(
        problem,
        gpu,
        severities=severities,
        schedule_names=names,
        seed=args.seed,
        config_factory=factory,
        check=not args.no_check,
    )
    print(
        "fault sweep: %dx%dx%d %s on %s, seed %d%s"
        % (
            args.m, args.n, args.k, dtype.name, gpu.name, args.seed,
            "" if args.no_check else " (every cell invariant-checked)",
        )
    )
    print(format_sweep_table(cells))
    injected = sum(len(c.injections) and sum(c.injections.values()) for c in cells)
    deadlocked = sum(1 for c in cells if c.deadlocked)
    print(
        "injected faults: %d across %d cells (%d deadlocked); "
        "invariant checks passed: %d"
        % (injected, len(cells), deadlocked, get_counter("faults.invariant_checks"))
    )
    return 0


def _cmd_crosshw(args) -> int:
    from .harness.crosshw import format_crosshw_table, run_crosshw
    from .harness.journal import default_journal_dir

    dtype = get_dtype_config(args.dtype)
    gpus = [g.strip() for g in args.gpus.split(",") if g.strip()]
    schedules = [s.strip() for s in args.schedules.split(",") if s.strip()]
    shapes = generate_corpus(CorpusSpec(size=args.size))
    result = run_crosshw(
        gpus,
        schedules,
        shapes,
        dtype,
        jobs=args.jobs,
        journal=args.journal or default_journal_dir(),
        resume=args.resume,
    )
    print(format_crosshw_table(result))
    print()
    for name in (spec_name for spec_name in result.winners):
        print("%-16s winner: %s" % (name, result.winners[name]))
    return 0


def _cmd_sweep(args) -> int:
    from .errors import ConfigurationError
    from .faults.chaos import ChaosKill, ChaosWorkerKill
    from .harness.journal import default_journal_dir, write_timings_npz
    from .harness.parallel import _resolve_jobs, evaluate_corpus_sharded
    from .metrics.report import format_relative_table
    from .metrics.stats import relative_performance
    from .obs.counters import get_counter

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    journal_dir = args.join or args.journal or default_journal_dir()
    if journal_dir is None:
        raise ConfigurationError(
            "repro sweep needs a journal directory: pass --journal DIR or "
            "set REPRO_JOURNAL_DIR (see docs/CHECKPOINTING.md)"
        )
    chaos = (
        ChaosKill(args.chaos_kill_after)
        if args.chaos_kill_after is not None
        else None
    )
    fabric_mode = args.join is not None or _resolve_jobs(args.jobs) > 1
    chaos_worker = None
    if args.chaos_worker_kill is not None:
        # Validate the spec up front so a typo fails fast instead of
        # deep inside a worker process.
        chaos_worker = ChaosWorkerKill.parse(args.chaos_worker_kill)
        if not fabric_mode:
            raise ConfigurationError(
                "--chaos-worker-kill targets lease-fabric workers: "
                "combine it with --jobs N / --workers N or --join DIR "
                "(N > 1)"
            )
    shapes = generate_corpus(CorpusSpec(size=args.size))
    res = evaluate_corpus_sharded(
        shapes,
        dtype,
        gpu,
        jobs=args.jobs,
        shard_rows=args.shard_rows,
        journal=journal_dir,
        resume=args.resume or args.join is not None,
        chaos=chaos,
        join=args.join is not None,
        lease_seconds=args.lease_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
        chaos_worker=chaos_worker,
    )
    skipped = get_counter("journal.skipped_shards")
    evaluated = get_counter("harness.shards_ok")
    print("journal    : %s" % journal_dir)
    print("shards     : %d skipped (journal), %d evaluated%s"
          % (skipped, evaluated,
             "  [degraded: journal-less]"
             if get_counter("harness.journal.degraded") else ""))
    if fabric_mode:
        print("fabric     : %d claim(s), %d commit(s), %d lease(s) "
              "expired, %d reclaim(s)"
              % (get_counter("fabric.claims"),
                 get_counter("fabric.commits"),
                 get_counter("fabric.lease_expired"),
                 get_counter("fabric.reclaims")))
    if args.out:
        write_timings_npz(args.out, res)
        print("artifact   : wrote merged timings to %s" % args.out)
    cb = compute_bound_mask(shapes, dtype)
    cols = {
        "vs CUTLASS %dx%dx%d" % dtype.default_blocking: relative_performance(
            res.singleton, res.streamk
        ),
        "vs cuBLAS": relative_performance(res.cublas, res.streamk),
        "vs cuBLAS (CB)": relative_performance(res.cublas[cb], res.streamk[cb]),
        "vs oracle": relative_performance(res.oracle, res.streamk),
    }
    print(
        format_relative_table(
            cols,
            title="Stream-K %s relative performance (%d shapes, %d compute-bound)"
            % (dtype.name, args.size, int(np.sum(cb))),
        )
    )
    return 0


def _serve_config(args) -> "object":
    from .plan.service import ServeConfig

    return ServeConfig(
        batch_window_s=args.batch_window_ms / 1e3,
        max_batch=getattr(args, "max_batch", 256),
        cache_capacity=getattr(args, "cache_capacity", 65536),
        warm=not getattr(args, "no_warm", False),
        persist=not getattr(args, "no_persist", False),
        warm_bindings=((args.gpu, args.dtype),),
        max_queue_depth=getattr(args, "max_queue_depth", 1024),
        breaker_threshold=getattr(args, "breaker_threshold", 3),
        breaker_cooldown_s=getattr(args, "breaker_cooldown_ms", 1000.0) / 1e3,
        chaos_spec=getattr(args, "chaos_plan", None),
    )


def _print_loadgen_report(report: dict) -> None:
    print(
        "requests    : %d completed, %d failed (universe %d, zipf s=%.2f, "
        "%d clients)"
        % (
            report["completed"], report["failed"], report["universe"],
            report["zipf_s"], report["clients"],
        )
    )
    print(
        "throughput  : %.0f req/s sustained (%.2f s elapsed)"
        % (report["qps"] or 0.0, report["elapsed_s"])
    )
    print(
        "hit rate    : %s (%d hits / %d misses)"
        % (
            format_utilization(report["hit_rate"] or 0.0),
            report["hits"], report["misses"],
        )
    )

    def us(v):
        return "%.1f us" % v if v is not None else "n/a"

    print("latency p50 : hit %s, miss %s"
          % (us(report["hit_p50_us"]), us(report["miss_p50_us"])))
    split = report["p99_speedup_hit_vs_miss"]
    print("latency p99 : hit %s, miss %s%s"
          % (us(report["hit_p99_us"]), us(report["miss_p99_us"]),
             "  (%.1fx split)" % split if split else ""))
    if report.get("retries"):
        print("resilience  : %d retr%s"
              % (report["retries"],
                 "y" if report["retries"] == 1 else "ies"))
    if report.get("outcomes"):
        print("rejections  : %s"
              % ", ".join("%s=%d" % kv for kv in report["outcomes"].items()))


def _cmd_serve(args) -> int:
    if args.demo is not None:
        # Self-contained demo for docs/CI: boot the daemon on an
        # ephemeral port, replay a small Zipf trace over its socket,
        # print stats, exit cleanly.
        from .plan.loadgen import LoadgenConfig, run_loadgen

        report = run_loadgen(
            LoadgenConfig(
                requests=args.demo,
                universe=max(1, min(64, args.demo)),
                dtype=args.dtype,
                gpu=args.gpu,
            ),
            serve_config=_serve_config(args),
        )
        print("serve demo (%d requests over the socket of a local daemon)"
              % args.demo)
        _print_loadgen_report(report)
        return 0

    from .plan.server import PlanServer
    from .plan.service import PlanService

    service = PlanService(_serve_config(args))
    server = PlanServer(
        service,
        host=args.host,
        port=args.port,
        recv_timeout_s=args.idle_timeout_s,
    )
    if args.port_file:
        with open(args.port_file, "w") as fh:
            fh.write("%d\n" % server.port)
    # Graceful drain on SIGTERM: stop admitting, flush in-flight
    # batches, exit 0.  Signal handlers can only be installed from the
    # main thread (tests drive main() from a worker thread).
    import signal
    import threading

    if threading.current_thread() is threading.main_thread():
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: server.request_shutdown(),
        )
    print("serving plans on %s:%d (batch window %.1f ms, protocol: "
          "docs/SERVING.md; send {\"op\": \"shutdown\"}, SIGTERM, or "
          "Ctrl-C to stop)"
          % (server.host, server.port, args.batch_window_ms))
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    stats = service.stats()
    print("served %d request(s), hit rate %s, %d micro-batch(es), "
          "%d shed"
          % (
              stats["requests"],
              format_utilization(stats["hit_rate"] or 0.0),
              stats["batches"],
              stats["shed"],
          ))
    return 0


def _cmd_loadgen(args) -> int:
    from .errors import ConfigurationError
    from .harness import write_json
    from .plan.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        requests=args.requests,
        universe=args.universe,
        zipf_s=args.zipf_s,
        seed=args.seed,
        clients=args.clients,
        dtype=args.dtype,
        gpu=args.gpu,
        deadline_ms=args.deadline_ms,
        retries=args.retries,
        backoff_ms=args.backoff_ms,
    )
    connect = None
    if args.connect:
        host, sep, port = args.connect.rpartition(":")
        if not sep or not port.isdigit():
            raise ConfigurationError(
                "--connect expects HOST:PORT, got %r" % args.connect
            )
        connect = (host or "127.0.0.1", int(port))
    report = run_loadgen(
        config, connect=connect, serve_config=_serve_config(args)
    )
    _print_loadgen_report(report)
    if args.out:
        write_json(args.out, report)
        print("wrote %s" % args.out)
    return 0 if report["failed"] == 0 else 1


def _cmd_adapt(args) -> int:
    from .ensembles.adaptive import AdaptiveReplayConfig, replay_adaptive
    from .harness import write_json

    report = replay_adaptive(
        AdaptiveReplayConfig(
            requests=args.requests,
            universe=args.universe,
            zipf_s=args.zipf_s,
            seed=args.seed,
            dtype=args.dtype,
            gpu=args.gpu,
            evaluator=args.evaluator,
        )
    )

    def us(v):
        return "%.1f us" % v if v is not None else "n/a"

    reg = report["regret"]
    print(
        "adaptive replay: %d requests over %d distinct shapes "
        "(zipf s=%.2f, seed %d, %s evaluator)"
        % (
            report["requests"], report["distinct_shapes"], report["zipf_s"],
            report["seed"], report["evaluator"],
        )
    )
    print(
        "hit rate     : %s (%d winner hits / %d evaluations)"
        % (
            format_utilization(report["hit_rate"] or 0.0),
            report["hits"], report["misses"],
        )
    )
    print("selection p99: hit %s vs cold plan %s  (%.1fx)"
          % (
              us(report["hit_p99_us"]), us(report["cold_plan_p99_us"]),
              report["p99_speedup_hit_vs_cold"] or 0.0,
          ))
    print("regret vs oracle (mean / p99):")
    for name, label in (
        ("adaptive", "adaptive"),
        ("analytic", "pure analytic"),
        ("cublas", "cuBLAS heuristic"),
    ):
        print("  %-16s %8.3f%% / %8.3f%%"
              % (
                  label,
                  100.0 * reg["%s_mean" % name],
                  100.0 * reg["%s_p99" % name],
              ))
    if args.out:
        write_json(args.out, report)
        print("wrote %s" % args.out)
    return 0


def _cmd_profile(args) -> int:
    from .harness.parallel import evaluate_corpus_cached
    from .obs import counters as _counters
    from .obs.export import profile_to_chrome, render_flamegraph, write_chrome_trace

    dtype, gpu = get_dtype_config(args.dtype), resolve_gpu(args.gpu)
    _profiler.enable_profiling()
    _profiler.reset_profile()
    _counters.reset_counters()
    shapes = generate_corpus(CorpusSpec(size=args.size))
    with _profiler.span("profile_corpus"):
        for _ in range(max(1, args.repeat)):
            res = evaluate_corpus_cached(shapes, dtype, gpu, jobs=args.jobs)
    print("profiled %d-shape %s corpus on %s (%d pass(es), jobs=%d)"
          % (res.shapes.shape[0], dtype.name, gpu.name,
             max(1, args.repeat), args.jobs))
    print()
    print(_profiler.profiler_report())
    print()
    print(_counters.counters_report())
    if args.flame:
        print()
        print(render_flamegraph(_profiler.get_profile()))
    if args.out:
        doc = profile_to_chrome(
            _profiler.get_profile(),
            name="corpus %d %s on %s" % (args.size, dtype.name, gpu.name),
        )
        write_chrome_trace(args.out, doc)
        print()
        print("wrote %s -- open it at https://ui.perfetto.dev" % args.out)
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "model": _cmd_model,
    "corpus": _cmd_corpus,
    "calibrate": _cmd_calibrate,
    "cache": _cmd_cache,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "faults": _cmd_faults,
    "crosshw": _cmd_crosshw,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "adapt": _cmd_adapt,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    # Honor REPRO_PROFILE regardless of import order: any command can be
    # profiled by setting the environment variable (docs in README.md).
    env_profiling = _profiler.sync_profiling_with_env()
    if getattr(args, "executor", None) is not None:
        # --executor wins over $REPRO_EXECUTOR for the whole process.
        set_default_executor(args.executor)
    try:
        rc = _COMMANDS[args.command](args)
    except SweepInterrupted as exc:
        # A drained SIGINT/SIGTERM: every in-flight completion has been
        # journaled, workers are gone.  Exit with the distinct resumable
        # status so wrappers know a --resume re-run will pick up the rest.
        from .harness.journal import RESUMABLE_EXIT_STATUS

        print("interrupted: %s" % exc, file=sys.stderr)
        rc = RESUMABLE_EXIT_STATUS
    if env_profiling and args.command != "profile":
        from .obs.counters import counters_report

        print("", file=sys.stderr)
        print(_profiler.profiler_report(), file=sys.stderr)
        print("", file=sys.stderr)
        print(counters_report(), file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Executor backend throughput: the oracle vs the numpy event loop.

The pure-Python :class:`~repro.gpu.executor.Executor` is the repo's
bitwise oracle; the ``numpy`` backend re-runs the same discrete-event
model over flat :class:`~repro.gpu.backends.TaskArrays`.  This bench
times both ends of that contract — ``build_tasks`` + oracle run against
``build_task_arrays`` + array run — across every registered
decomposition at two problem sizes, checks the traces agree bitwise,
and records segment throughput.

Two numbers per pristine cell, following ``bench_corpus_eval``'s convention:

* **cold** — first simulation of a fresh schedule.  Pays the work-item
  flattening that :func:`~repro.schedules.flatten.flatten_work_items`
  memoizes per schedule.
* **warm** — steady-state re-simulation (min over ``REPRO_BENCH_ROUNDS``
  rounds), the cost every *additional* pricing of the same schedule
  pays: a fault-sweep cell, a backend comparison, a repeated run.

Faulted cells (every family and size at straggler severities
:data:`FAULT_SEVERITIES`, a fresh seeded injector per run) time the same
two ends under fault injection, where both backends consult the
injector per segment.  They record whether the numpy loop still pays
once faults are on; no floor gates them.

Only a full-scale run writes its artifacts: under
``benchmarks/artifacts/`` and as ``BENCH_executor.json`` at the repo
root (the committed before/after record).  ``REPRO_BENCH_EXECUTOR_MN``
shrinks the size grid for smoke runs, which write nothing; the 10x acceptance assertion fires only at full scale,
and a reduced-scale floor about two thirds of the measured smoke
speedup (~7-8x at m = n = 2048) catches a ~1.5x regression in CI
without tripping on box noise.
"""

import os

from repro.faults import FaultConfig, FaultInjector
from repro.faults.sweep import build_registered_schedule
from repro.gemm import FP64, Blocking, GemmProblem, TileGrid
from repro.gpu import A100, Executor, KernelCostModel
from repro.harness import write_json
from repro.schedules.registry import DECOMPOSITION_NAMES

from .common import banner, emit, geomean, min_of_k

#: Full-scale size grid (m = n, fixed k).  Covers both schedule regimes
#: the one event loop must handle: every Stream-K family runs as a
#: single wave of persistent CTAs, while data-parallel and fixed-split
#: dispatch their tiles in several waves.
FULL_MN = (4096, 8192)
_K = 4096

#: Acceptance bar at full scale: warm geomean speedup over the oracle.
FULL_SPEEDUP_FLOOR = 10.0
#: Reduced-scale CI floor — about two thirds of the measured smoke-scale
#: speedup, so a ~1.5x backend regression fails the perf smoke job.
SMOKE_SPEEDUP_FLOOR = 5.0
#: Straggler sweep severities of the faulted cells (recorded, not gated).
FAULT_SEVERITIES = (0.5, 1.0)

ROOT_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_executor.json",
)


def _size_grid() -> "tuple[int, ...]":
    env = os.environ.get("REPRO_BENCH_EXECUTOR_MN")
    if env:
        return tuple(int(s) for s in env.split(",") if s.strip())
    return FULL_MN


def _rounds() -> int:
    return int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))


def run_backend_grid(sizes, rounds):
    """Time oracle vs numpy backend over families x sizes; return cells."""
    blocking = Blocking(*FP64.default_blocking)
    cost = KernelCostModel(gpu=A100, blocking=blocking, dtype=FP64)
    slots = A100.total_cta_slots
    cells = []
    for mn in sizes:
        grid = TileGrid(GemmProblem(mn, mn, _K, dtype=FP64), blocking)
        for name in DECOMPOSITION_NAMES:
            schedule = build_registered_schedule(name, grid, A100)

            def oracle():
                return Executor(slots).run(cost.build_tasks(schedule))

            def fast():
                return Executor(slots, backend="numpy").run_arrays(
                    cost.build_task_arrays(schedule)
                )

            # Cold first: the schedule is fresh, so this pays flattening.
            cold = min_of_k(fast, k=1)
            oracle_t = min_of_k(oracle, k=rounds)
            warm = min_of_k(fast, k=rounds)
            # The contract behind the speedup: same trace, bitwise.
            assert fast().makespan == oracle().makespan
            segs = cost.build_task_arrays(schedule).num_segments
            cells.append(
                {
                    "family": name,
                    "mn": mn,
                    "k": _K,
                    "num_segments": int(segs),
                    "oracle_s": oracle_t,
                    "fast_cold_s": cold["best_s"],
                    "fast_warm_s": warm,
                    "speedup_cold": oracle_t["best_s"] / cold["best_s"],
                    "speedup_warm": oracle_t["best_s"] / warm["best_s"],
                    "oracle_segs_per_s": segs / oracle_t["best_s"],
                    "fast_segs_per_s": segs / warm["best_s"],
                }
            )
    return cells


def run_faulted_grid(sizes, rounds):
    """Time oracle vs numpy backend on faulted cells; return cells."""
    blocking = Blocking(*FP64.default_blocking)
    cost = KernelCostModel(gpu=A100, blocking=blocking, dtype=FP64)
    slots = A100.total_cta_slots
    cells = []
    for mn in sizes:
        grid = TileGrid(GemmProblem(mn, mn, _K, dtype=FP64), blocking)
        for name in DECOMPOSITION_NAMES:
            schedule = build_registered_schedule(name, grid, A100)
            for severity in FAULT_SEVERITIES:
                config = FaultConfig.straggler_sweep_point(severity, seed=0)

                def oracle():
                    inj = FaultInjector(config)
                    return Executor(slots, faults=inj, backend="python").run(
                        cost.build_tasks(schedule, faults=inj)
                    )

                def fast():
                    inj = FaultInjector(config)
                    return Executor(slots, faults=inj).run_arrays(
                        cost.build_task_arrays(schedule, faults=inj)
                    )

                fast()  # warm the flattening memo, as a sweep cell finds it
                oracle_t = min_of_k(oracle, k=rounds)
                fast_t = min_of_k(fast, k=rounds)
                assert fast().makespan == oracle().makespan
                cells.append(
                    {
                        "family": name,
                        "mn": mn,
                        "k": _K,
                        "severity": severity,
                        "oracle_s": oracle_t,
                        "fast_s": fast_t,
                        "speedup": oracle_t["best_s"] / fast_t["best_s"],
                    }
                )
    return cells


def test_executor_backend_throughput(benchmark):
    sizes = _size_grid()
    rounds = _rounds()
    cells = benchmark.pedantic(
        run_backend_grid, args=(sizes, rounds), rounds=1, iterations=1
    )
    faulted = run_faulted_grid(sizes, rounds)
    full = sizes == FULL_MN
    geo_cold = geomean(c["speedup_cold"] for c in cells)
    geo_warm = geomean(c["speedup_warm"] for c in cells)
    geo_faulted = geomean(c["speedup"] for c in faulted)

    banner("Executor backends: oracle vs numpy (%d cells)" % len(cells))
    print(
        "%-22s %6s %9s  %9s %9s  %7s %7s"
        % ("family", "m=n", "segments", "oracle", "numpy", "cold", "warm")
    )
    for c in cells:
        print(
            "%-22s %6d %9d  %8.4fs %8.4fs  %6.1fx %6.1fx"
            % (
                c["family"],
                c["mn"],
                c["num_segments"],
                c["oracle_s"]["best_s"],
                c["fast_warm_s"]["best_s"],
                c["speedup_cold"],
                c["speedup_warm"],
            )
        )
    print(
        "geomean speedup     : %5.1fx cold, %5.1fx warm  (floor %.0fx %s)"
        % (
            geo_cold,
            geo_warm,
            FULL_SPEEDUP_FLOOR if full else SMOKE_SPEEDUP_FLOOR,
            "full" if full else "smoke",
        )
    )
    print()
    print(
        "%-22s %6s %8s  %9s %9s  %7s"
        % ("faulted family", "m=n", "severity", "oracle", "numpy", "speedup")
    )
    for c in faulted:
        print(
            "%-22s %6d %8.2f  %8.4fs %8.4fs  %6.1fx"
            % (
                c["family"],
                c["mn"],
                c["severity"],
                c["oracle_s"]["best_s"],
                c["fast_s"]["best_s"],
                c["speedup"],
            )
        )
    print(
        "geomean faulted speedup: %5.1fx  (recorded, not gated)" % geo_faulted
    )

    payload = {
        "sizes": list(sizes),
        "rounds": rounds,
        "full_scale": bool(full),
        "cells": cells,
        "geomean_speedup_cold": geo_cold,
        "geomean_speedup_warm": geo_warm,
        "speedup_floor": FULL_SPEEDUP_FLOOR if full else SMOKE_SPEEDUP_FLOOR,
        "fault_severities": list(FAULT_SEVERITIES),
        "faulted_cells": faulted,
        "geomean_speedup_faulted": geo_faulted,
    }
    if full:
        emit("executor", payload)
        write_json(ROOT_ARTIFACT, payload)
        # Acceptance bar: >= 10x steady-state over the bitwise oracle.
        assert geo_warm >= FULL_SPEEDUP_FLOOR
    else:
        # CI perf smoke: fail on a ~1.5x regression from the measured
        # smoke-scale speedup, with headroom for box noise.
        assert geo_warm >= SMOKE_SPEEDUP_FLOOR

"""One-off, ungated report (``run.py --report``) answering three open
questions about where the program's time goes on this machine:

* serving transport: hit ``peak_rps`` in-process against the socket
  with one and two connections;
* sweep parallelism: durable sweep wall time of both precisions at
  ``jobs=1``, ``jobs=2`` and ``workers=2`` (lease fabric);
* executor split: self time across flatten, price, simulate and check
  for each decomposition family.
"""

from __future__ import annotations

import json
import os
import time

import loadgen
import serve
import simulate
from common import RunDir, Worker, emit, env_stamp, isolate_self, median, use_program_in_process
from tracing import layer_summary, load_spans

WINDOW_S = 0.5
WINDOWS = 6
SWEEP_REPEATS = 3


def _closed_rate(fn) -> float:
    """Median completions per second over short windows of ``fn()``."""
    rates = []
    for _ in range(WINDOWS):
        done, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < WINDOW_S:
            fn()
            done += 1
        rates.append(done / (time.perf_counter() - t0))
    return median(rates)


def serving_transport(run_dir, seed: int) -> dict:
    inputs = serve.make_inputs("serve-hot", seed, 200_000)
    use_program_in_process()
    from repro.plan.service import PlanService, ServeConfig

    shapes = [tuple(int(x) for x in s) for s in inputs["stream"]]
    with PlanService(ServeConfig(persist=False)) as service:
        for m, n, k in inputs["warm"]:
            service.submit(int(m), int(n), int(k))
        it = iter(shapes)
        in_process = _closed_rate(lambda: service.submit(*next(it)))
    out = {"in_process_rps": in_process}
    lines = serve._lines(inputs["stream"])
    daemon = serve.Daemon(run_dir.fresh("cache"))
    try:
        conns = loadgen.connect(daemon.addr, 2)
        loadgen.closed_loop(conns, serve._lines(inputs["warm"]), 1e9)
        for n in (1, 2):
            rates = []
            for _ in range(WINDOWS):
                w = loadgen.closed_loop(conns[:n], lines, WINDOW_S)
                rates.append(w.completed / (w.ended - w.started))
            out["socket_%dconn_rps" % n] = median(rates)
        for c in conns:
            c.close()
        # The daemon's Nagle stall: hot p50 at 1000 req/s with a plain
        # client against one that acknowledges every reply at once.
        for quickack in (False, True):
            (conn,) = loadgen.connect(daemon.addr, 1, quickack)
            phase = loadgen.open_loop([conn], lines[:3000], serve.RATES["serve-hot"])
            conn.close()
            out["open_p50_ms_%s" % ("quickack" if quickack else "plain")] = median(
                phase.latencies_ms())
    finally:
        daemon.shutdown()
    out["note"] = ("4 or 16 connections on a %d-core machine would measure "
                   "the scheduler, not the daemon" % len(os.sched_getaffinity(0)))
    return out


def sweep_parallelism(run_dir, seed: int) -> dict:
    out = {}
    for label, extra in (("jobs=1", ["--jobs", "1"]), ("jobs=2", ["--jobs", "2"]),
                         ("workers=2", ["--jobs", "2", "--workers", "2"])):
        walls = []
        for _ in range(SWEEP_REPEATS):
            cache = run_dir.fresh("cache")
            w = Worker(["sweep", "--seed", str(seed), "--size", "32824",
                        "--journal", os.path.join(cache, "journal")] + extra, cache)
            try:
                w.ready()
                walls.append(w.result()["sweep_s"])
            finally:
                w.stop()
        out[label + "_s"] = median(walls)
    return out


def executor_split(run_dir, seed: int) -> dict:
    out = {}
    for family in simulate.SCHEDULES:
        cells = [c for c in simulate.make_cells(simulate.PROBLEMS)
                 if c["schedule"] == family]
        cache = run_dir.fresh("cache")
        spans = os.path.join(cache, "spans.json")
        w = Worker(["simulate", "--seed", str(seed), "--cells", json.dumps(cells),
                    "--spans", spans], cache)
        try:
            w.ready()
            w.result()
        finally:
            w.stop()
        summary = layer_summary(load_spans(spans))
        out[family] = {
            layer: round(summary.get(span, {}).get("self_s", 0.0), 4)
            for layer, span in (("flatten_s", "schedules.flatten"),
                                ("price_s", "gpu.price"),
                                ("simulate_s", "gpu.simulate"),
                                ("check_s", "faults.check"))
        }
    return out


def main(seed: int) -> int:
    emit("env", env_stamp())
    with RunDir("report") as run_dir:
        isolate_self(run_dir.fresh("parent-cache"))
        emit("transport", serving_transport(run_dir, seed))
        emit("sweep", sweep_parallelism(run_dir, seed))
        emit("executor", executor_split(run_dir, seed))
    return 0

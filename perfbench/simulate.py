"""``simulate``: ``run_fault_sweep`` on the numpy executor.

Each iteration is a fresh ``worker.py simulate`` process: set-up
(imports, problems) until ``READY``, then every cell — five registered
decompositions x severities 0/0.25/0.5/1/2 x two problems, invariant
checker on — as its own ``run_fault_sweep`` call, timed one by one
(severity-0 cells twice, see :func:`pass_order`).  Iterations run
:data:`PARALLEL` at a time, for at least :data:`MIN_ROUNDS` rounds; each
cell's time is the mean of its repeats.
Severity-0 cells take the array strategies; faulted cells the
event-loop strategy.  The output check compares every cell's makespan,
deadlock flag and injection counts with the ``python`` oracle executor
for the same seed, computed after the timed region by two oracle
processes and cached per seed under the checkout's ``.perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from common import STATE, Worker, emit, median, overhead, percentile, source_digest
from tracing import layer_summary, load_spans, self_time_report

PROBLEMS = (
    {"m": 4096, "n": 4096, "k": 4096, "dtype": "fp64"},
    {"m": 8192, "n": 8192, "k": 8192, "dtype": "fp16_fp32"},
)
SMOKE_PROBLEMS = (
    {"m": 1024, "n": 1024, "k": 1024, "dtype": "fp64"},
    {"m": 2048, "n": 2048, "k": 2048, "dtype": "fp16_fp32"},
)
SCHEDULES = (
    "data_parallel", "fixed_split", "stream_k",
    "two_tile_stream_k", "dp_one_tile_stream_k",
)
SEVERITIES = (0.0, 0.25, 0.5, 1.0, 2.0)
ORACLE_PROCESSES = 2
#: Concurrent workers per round (the reference machine has two CPUs).
PARALLEL = 2
MIN_ROUNDS = 4
OUTCOME = ("makespan", "deadlocked", "injections")


def make_cells(problems) -> "list[dict]":
    return [
        {"key": "%(dtype)s-%(m)dx%(n)dx%(k)d" % p + "/%s/%g" % (s, v),
         "problem": p, "schedule": s, "severity": v}
        for p in problems for s in SCHEDULES for v in SEVERITIES
    ]


def pass_order(cells) -> "list[dict]":
    """The cells each worker runs, in order: the severity-0 cells
    at the start and again at the end, so each of these short cells gets
    repeats far apart in time, and every faulted cell once between."""
    pristine = [c for c in cells if c["severity"] == 0]
    return pristine + [c for c in cells if c["severity"] > 0] + pristine


def _simulate_pass(run_dir, seed: int, cells, seconds: float, traced: bool) -> dict:
    """Rounds of :data:`PARALLEL` concurrent workers, which the reference
    machine runs on its two CPUs, the second running the cells in
    reverse, so each cell's repeats fall on both CPUs and at different
    times."""
    iterations = []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        workers = []
        try:
            for i in range(PARALLEL):
                order = cells if i % 2 == 0 else cells[::-1]
                cache = run_dir.fresh("cache")
                args = ["simulate", "--seed", str(seed), "--cells", json.dumps(order)]
                if traced:
                    args += ["--spans", os.path.join(cache, "spans.json")]
                workers.append((Worker(args, cache), cache))
            # Set-up is timed on the first worker only: the second one's
            # READY line may wait in its pipe while the first is read.
            setup_s = [w.ready() for w, _ in workers][0]
            for i, (w, cache) in enumerate(workers):
                result = w.result()
                result["setup_s"] = setup_s if i == 0 else None
                if traced:
                    result["spans"] = load_spans(os.path.join(cache, "spans.json"))
                iterations.append(result)
        finally:
            for w, _ in workers:
                w.stop()
    return {"iterations": iterations}


def _end_to_end(p: dict, cells) -> dict:
    """Every cell's time is the mean of its repeats, which fall on both
    CPUs and seconds apart.  The host's CPUs slow down by up to half for
    stretches of seconds (other tenants), so a cell's repeats fall into
    two clusters, fast and slow.  The mean moves in proportion to the
    share of slow time in the run; the median jumps from one cluster to
    the other when that share passes one half, and the fastest repeat
    depends on whether the run caught a quiet moment.  Over ten-seed sets
    taken in quiet, drifting and busy periods of a shared 2-vCPU Xeon
    host, the largest spread between runs of any figure was 0.24 (IQR /
    median) with the mean, 0.28 with the fastest repeat and 0.41 with
    the median."""
    its = p["iterations"]
    typical = {}
    for c in cells:
        repeats = [cell["seconds"] for it in its for cell in it["cells"]
                   if cell["key"] == c["key"]]
        typical[c["key"]] = sum(repeats) / len(repeats)
    pristine = sum(typical[c["key"]] for c in cells if c["severity"] == 0)
    faulted = sum(typical[c["key"]] for c in cells if c["severity"] > 0)
    cell_s = list(typical.values())
    return {
        "setup_s": median([it["setup_s"] for it in its if it["setup_s"] is not None]),
        "p50_ms": percentile(cell_s, 50.0) * 1e3,
        "p90_ms": percentile(cell_s, 90.0) * 1e3,
        "peak_rps": 1.0 / (pristine + faulted),
        "shapes_per_s": len(cells) / (pristine + faulted),
        "pristine_s": pristine,
        "faulted_s": faulted,
        "rss_mb": median([it["rss_mb"] for it in its]),
    }


def oracle(run_dir, seed: int, cells) -> "dict[str, dict]":
    """Cell key -> python-executor outcome, cached per seed and program."""
    key = hashlib.sha256(
        json.dumps([seed, cells, source_digest()], sort_keys=True).encode()
    ).hexdigest()[:32]
    path = os.path.join(STATE, "oracle", "simulate-%s.json" % key)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        pass
    workers = []
    outcomes = {}
    try:
        for i in range(ORACLE_PROCESSES):
            workers.append(Worker(
                ["oracle", "--seed", str(seed),
                 "--cells", json.dumps(cells[i::ORACLE_PROCESSES])],
                run_dir.fresh("oracle"),
            ))
        for w in workers:
            w.ready()
            for c in w.result()["cells"]:
                outcomes[c["key"]] = {k: c[k] for k in OUTCOME}
    finally:
        for w in workers:
            w.stop()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w") as fh:
        json.dump(outcomes, fh)
    os.replace(tmp, path)
    return outcomes


def per_layer(p: dict) -> dict:
    """Per-worker means of each layer's self time and work counts."""
    its = p["iterations"]
    summaries = [layer_summary(it["spans"]) for it in its]

    def mean(name: str, key: str = "self_s") -> float:
        return sum(s.get(name, {}).get(key, 0.0) for s in summaries) / len(its)

    simulate_total = mean("gpu.simulate", "total_s")
    segments = mean("gpu.simulate", "count")
    return {
        "schedules.build_s": mean("schedules.build"),
        "schedules.flatten_s": mean("schedules.flatten"),
        "gpu.price_s": mean("gpu.price"),
        "gpu.simulate_s": mean("gpu.simulate"),
        "gpu.segments": segments,
        "gpu.segments_per_s": segments / simulate_total if simulate_total else 0.0,
        "faults.check_s": mean("faults.check"),
        "faults.inject_s": mean("faults.inject"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir,
        smoke: bool = False) -> dict:
    cells = make_cells(SMOKE_PROBLEMS if smoke else PROBLEMS)
    plain = _simulate_pass(run_dir, seed, pass_order(cells), seconds, traced=False)
    metrics = _end_to_end(plain, cells)
    emit("end_to_end", metrics)
    passes = [plain]
    if trace:
        traced = _simulate_pass(run_dir, seed, pass_order(cells), seconds, traced=True)
        passes.append(traced)
        emit("self_time", self_time_report(layer_summary(traced["iterations"][0]["spans"])))
        metrics = dict(per_layer(traced),
                       **overhead(metrics, _end_to_end(traced, cells)))
    want = oracle(run_dir, seed, cells)
    attempted = failed = 0
    for p in passes:
        for it in p["iterations"]:
            for c in it["cells"]:
                attempted += 1
                if {k: c[k] for k in OUTCOME} != want.get(c["key"]):
                    failed += 1
                    emit("check", "cell %s differs from the oracle" % c["key"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}

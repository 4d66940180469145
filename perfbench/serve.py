"""``serve-hot`` and ``serve-cold``: the ``repro serve`` daemon over TCP.

Per pass: the daemon is started :data:`SETUP_SPAWNS` times with a fresh
cache directory (set-up = spawn until the port file exists and the first
``health`` reply is ok); the last one serves the phases:

1. first touch: :data:`FIRST_TOUCH` shapes requested once each, back to
   back on one connection, every one a miss (``pristine_s``,
   ``shapes_per_s``; on serve-hot this also makes every later request a
   cache hit);
2. :data:`OPEN_SEGMENTS` rounds of two closed-loop windows (one request
   outstanding per connection, back to back: ``peak_rps``) and one
   segment of open loop at the workload's fixed offered rate (latency
   from each request's due time: ``p50_ms``, ``p90_ms``).

Then one ``stats`` op, the daemon's ``VmHWM`` and a ``shutdown`` op.
Recovery follows: a daemon restarted over the same cache directory must
serve a planned shape from the disk tier; then the persisted shard is
truncated and one more restart must set it aside and plan the
first-touch shapes afresh (``faulted_s``).
Outside the timed region every distinct reply's plan is compared with
``plan_query(...).to_payload()``.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import subprocess
import sys
import time

import numpy as np

import loadgen
from common import (
    BENCH_DIR,
    BenchError,
    child_env,
    emit,
    median,
    overhead,
    paper_corpus,
    peak_rss_mb,
    percentile,
    stop_process,
    tail_summary,
    use_program_in_process,
)
from tracing import layer_summary, load_spans, self_time_report

#: The open loop's offered rate per workload.  Its one connection re-arms
#: quick ACKs: with a plain client the daemon's Nagle/delayed-ACK stall
#: holds every reply for one inter-arrival gap (see :mod:`loadgen`), so
#: p50 would read the gap instead of the wire and the service path.
#: ``run.py --report`` prints the hot p50 with and without quick ACKs.
RATES = {"serve-hot": 1000.0, "serve-cold": 100.0}
#: The closed loop keeps one request outstanding on each connection, so
#: on serve-cold two misses can share a batch window.
CLOSED_CONNECTIONS = 2
#: The open loop runs in this many segments, each after two closed-loop
#: windows: a host slowdown of a few seconds then covers a minority of
#: the segments instead of most of one unbroken loop.  peak_rps is the
#: median rate over the windows, p50/p90 the median over the segments.
OPEN_SEGMENTS = 10
CLOSED_WINDOWS = 2 * OPEN_SEGMENTS
SETUP_SPAWNS = 7
READY_TIMEOUT_S = 60.0
#: Share of the run's seconds given to the open loop (the rest: closed).
OPEN_SHARE = 0.6
#: Shapes requested once each, back to back on one connection, before
#: the timed phases: the hot universe (its warm-up), or on serve-cold a
#: slice of the permutation the timed phases never reach.  Every one is
#: a miss (``pristine_s``), and so is each again after a restart over
#: a corrupt plan shard (``faulted_s``).
FIRST_TOUCH = 512
HOT_ZIPF_S = 1.1

SERVE_DTYPE = "fp16_fp32"
SERVE_GPU = "a100"


# --------------------------------------------------------------------- #
# Inputs                                                                 #
# --------------------------------------------------------------------- #


def make_inputs(workload: str, seed: int, closed_budget: int) -> dict:
    """Request shapes for one run, a pure function of ``seed``.

    serve-hot: a 512-shape universe drawn from the corpus (``warm``) and
    a Zipf (s=1.1) request sequence over it.  serve-cold: a seeded
    permutation of the corpus, so no shape repeats; its last 512 shapes
    are ``warm``.
    """
    rng = np.random.default_rng(seed)
    corpus = paper_corpus()
    if workload == "serve-hot":
        universe = corpus[rng.choice(len(corpus), FIRST_TOUCH, replace=False)]
        weights = 1.0 / np.arange(1, FIRST_TOUCH + 1) ** HOT_ZIPF_S
        weights /= weights.sum()
        picks = rng.choice(FIRST_TOUCH, size=closed_budget, p=weights)
        return {"rate": RATES[workload], "warm": universe, "stream": universe[picks]}
    shuffled = corpus[rng.permutation(len(corpus))]
    return {"rate": RATES[workload], "warm": shuffled[-FIRST_TOUCH:],
            "stream": shuffled[:-FIRST_TOUCH]}


def _lines(shapes) -> "list[bytes]":
    return [loadgen.request_line(int(m), int(n), int(k)) for m, n, k in shapes]


# --------------------------------------------------------------------- #
# Daemon lifecycle                                                       #
# --------------------------------------------------------------------- #


class Daemon:
    """One ``repro serve`` process bound to an ephemeral port.

    ``traced`` runs it under ``serve_launcher.py``, which writes its
    spans to :attr:`spans_path` at exit.
    """

    def __init__(self, cache_dir: str, traced: bool = False):
        self.cache_dir = cache_dir
        self.spans_path = os.path.join(cache_dir, "spans.json")
        port_file = os.path.join(cache_dir, "port")
        if os.path.exists(port_file):
            os.unlink(port_file)
        serve_args = ["--port", "0", "--port-file", port_file]
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_launcher.py"),
                   self.spans_path] + serve_args
        else:
            cmd = [sys.executable, "-m", "repro", "serve"] + serve_args
        self.log = open(os.path.join(cache_dir, "daemon.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=child_env(cache_dir), stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.addr = ("127.0.0.1", self._await_port(port_file, t0))
            self._await_health(t0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_port(self, port_file: str, t0: float) -> int:
        while time.perf_counter() - t0 < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited with %s before listening"
                                 % self.proc.returncode)
            try:
                with open(port_file) as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise BenchError("daemon wrote no port file in %.0fs" % READY_TIMEOUT_S)

    def _await_health(self, t0: float) -> None:
        while time.perf_counter() - t0 < READY_TIMEOUT_S:
            try:
                reply, _ = loadgen.rpc(self.addr, {"op": "health"})
            except OSError:
                time.sleep(0.002)
                continue
            if reply.get("ok"):
                return
        raise BenchError("daemon never answered health ok")

    def shutdown(self) -> None:
        """Ask for a clean exit (plan shards flushed), then reap."""
        try:
            loadgen.rpc(self.addr, {"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.stop()
        if self.proc.returncode != 0:
            raise BenchError("daemon exited with %s" % self.proc.returncode)

    def stop(self) -> None:
        stop_process(self.proc)
        self.log.close()


# --------------------------------------------------------------------- #
# One pass: set-up, phases, stats, recovery                              #
# --------------------------------------------------------------------- #


def _restart(cache_dir: str, traced: bool, drive):
    """Start a daemon over an existing cache directory, return
    ``drive(addr)``, then shut the daemon down cleanly."""
    daemon = Daemon(cache_dir, traced)
    try:
        out = drive(daemon.addr)
    except BaseException:
        daemon.stop()
        raise
    daemon.shutdown()
    return out


def _touch_once(addr, lines):
    """Each of ``lines`` once, back to back on one connection."""
    conns = loadgen.connect(addr, 1)
    try:
        return loadgen.closed_loop(conns, lines, 1e9)
    finally:
        conns[0].close()


def _corrupt_shards(cache_dir: str) -> None:
    """Truncate every persisted plan shard to half its length, as a crash
    in the middle of a write would leave it."""
    shards = glob.glob(os.path.join(cache_dir, "plans", "*.json"))
    if not shards:
        raise BenchError("no persisted plan shard under %s" % cache_dir)
    for path in shards:
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)


def _serve_pass(run, inputs: dict, seconds: float, traced: bool = False) -> dict:
    # In a traced pass every daemon runs under the launcher, so each
    # metric compares like with like against the untraced pass.
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        d = Daemon(run.fresh("cache"), traced)
        setups.append(d.setup_s)
        d.shutdown()
    daemon = Daemon(run.fresh("cache"), traced)
    setups.append(daemon.setup_s)
    stream = _lines(inputs["stream"])
    warm_lines = _lines(inputs["warm"])
    rate = inputs["rate"]
    per_open = int(rate * seconds * OPEN_SHARE)
    window_s = seconds * (1.0 - OPEN_SHARE) / CLOSED_WINDOWS
    # A collector pause in the generator would send requests late.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        conns = loadgen.connect(daemon.addr, CLOSED_CONNECTIONS)
        opener = loadgen.connect(daemon.addr, 1, quickack=True)
        try:
            first = loadgen.closed_loop(conns[:1], warm_lines, 1e9)
            windows, segments, used = [], [], per_open
            per_segment = per_open // OPEN_SEGMENTS
            for i in range(CLOSED_WINDOWS):
                if any(c.waiting for c in conns):
                    continue  # the daemon stopped answering these
                windows.append(loadgen.closed_loop(conns, stream[used:], window_s))
                used += windows[-1].completed
                if i % 2 == 1:
                    j = len(segments) * per_segment
                    segments.append(loadgen.open_loop(
                        opener, stream[j:j + per_segment], rate))
        finally:
            gc.enable()
            gc.unfreeze()
            for c in conns + opener:
                c.close()
        stats, stats_s = loadgen.rpc(daemon.addr, {"op": "stats"})
        rss_mb = peak_rss_mb(daemon.proc.pid)
    except BaseException:
        daemon.stop()
        raise
    daemon.shutdown()
    # Read before the restarts, which share the directory.
    spans = load_spans(daemon.spans_path) if traced else None
    # Recovery: a clean restart must serve a planned shape from the disk
    # tier (checked, not timed); after the shard is truncated, a restart
    # must set it aside and plan the first-touch shapes afresh.
    m, n, k = (int(x) for x in inputs["warm"][0])
    probe = {"op": "plan", "m": m, "n": n, "k": k}
    restart_reply = _restart(daemon.cache_dir, traced,
                             lambda addr: loadgen.rpc(addr, probe)[0])
    _corrupt_shards(daemon.cache_dir)
    replanned = _restart(daemon.cache_dir, traced,
                         lambda addr: _touch_once(addr, warm_lines))
    return {
        "setups": setups,
        "phases": [first] + segments + windows + [replanned],
        "first": first,
        "segments": segments,
        "windows": windows,
        "restart_reply": restart_reply,
        "replanned": replanned,
        "stats": stats["stats"],
        "stats_ms": stats_s * 1e3,
        "rss_mb": rss_mb,
        "spans": spans,
    }


def _segment_percentile(segments, q: float) -> float:
    """Median, over the open-loop segments, of each segment's ``q``-th
    percentile latency in ms."""
    return median([percentile(seg.latencies_ms(), q) for seg in segments])


def _rate(phase) -> float:
    return phase.completed / (phase.ended - phase.started)


def _end_to_end(p: dict, rate: float) -> "tuple[dict, dict]":
    """The host slows for whole seconds at a time (other tenants), so
    every figure is a median: latency percentiles over the open-loop
    segments, and peak_rps over the closed-loop windows."""
    lat = [x for seg in p["segments"] for x in seg.latencies_ms()]
    metrics = {
        "setup_s": median(p["setups"]),
        "p50_ms": _segment_percentile(p["segments"], 50.0),
        "p90_ms": _segment_percentile(p["segments"], 90.0),
        "peak_rps": median([_rate(w) for w in p["windows"]]),
        # Distinct shapes planned per second from a fresh daemon.
        "shapes_per_s": _rate(p["first"]),
        # A median latency in ms is seconds per 1000 requests: misses on
        # a fresh daemon, and on one restarted over a corrupt shard.
        "pristine_s": median(p["first"].latencies_ms()),
        "faulted_s": median(p["replanned"].latencies_ms()),
        "rss_mb": p["rss_mb"],
    }
    report = dict(tail_summary(lat), **loadgen.honesty(p["segments"], rate))
    return metrics, report


# --------------------------------------------------------------------- #
# Output checks                                                          #
# --------------------------------------------------------------------- #


def check_outputs(passes) -> "tuple[int, int, list[str]]":
    """(attempted, failed, problems) over the timed phases of ``passes``.

    A request fails when it got no reply, a non-``ok`` reply
    (``overloaded``, ``timeout``, ``deadline_expired``, ...), a plan
    different from ``plan_query`` for its shape, or a cached plan after
    a restart over a corrupt shard; so does a clean restart that does not
    serve a persisted plan from the disk tier.
    """
    use_program_in_process()
    from repro.gpu.spec import resolve_gpu
    from repro.plan.core import plan_query

    attempted = failed = 0
    problems: "list[str]" = []
    distinct: "dict[tuple, set]" = {}
    for p in passes:
        for phase in p["phases"]:
            for j, line in enumerate(phase.replies):
                if phase.sent[j] == 0.0:
                    continue  # closed loop stopped before sending it
                attempted += 1
                if line is None:
                    failed += 1
                    continue
                reply = json.loads(line)
                if not reply.get("ok"):
                    failed += 1
                    problems.append("reply %s" % reply.get("code", reply.get("error")))
                    continue
                plan = dict(reply["plan"])
                if phase is p["replanned"] and plan["provenance"] != "model":
                    failed += 1
                    problems.append("a corrupt shard served %s" % plan["provenance"])
                    continue
                plan.pop("provenance")
                key = (plan["m"], plan["n"], plan["k"])
                distinct.setdefault(key, set()).add(json.dumps(plan, sort_keys=True))
        reply = p["restart_reply"]
        attempted += 1
        if not reply.get("ok") or reply["plan"]["provenance"] != "cache:disk":
            failed += 1
            problems.append("restart did not serve a persisted plan from disk")
    gpu = resolve_gpu(SERVE_GPU)
    for (m, n, k), payloads in distinct.items():
        expected = plan_query(m, n, k, SERVE_DTYPE, gpu).to_payload()
        expected.pop("provenance")
        want = json.dumps(expected, sort_keys=True)
        for got in payloads:
            if got != want:
                failed += 1
                problems.append("plan mismatch for %dx%dx%d" % (m, n, k))
    return attempted, failed, problems


# --------------------------------------------------------------------- #
# Entry points                                                           #
# --------------------------------------------------------------------- #


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir) -> dict:
    closed_budget = int(seconds * 20000)
    inputs = make_inputs(workload, seed, closed_budget)
    rate = inputs["rate"]
    plain = _serve_pass(run_dir, inputs, seconds)
    metrics, report = _end_to_end(plain, rate)
    emit("generator", report)
    emit("end_to_end", metrics)
    passes = [plain]
    valid = report["valid"]
    if trace:
        traced = _serve_pass(run_dir, inputs, seconds, traced=True)
        traced_metrics, traced_report = _end_to_end(traced, rate)
        valid = valid and traced_report["valid"]
        passes.append(traced)
        summary = layer_summary(traced["spans"])
        emit("self_time", self_time_report(summary))
        metrics = per_layer(plain, summary, metrics, traced_metrics)
    attempted, failed, problems = check_outputs(passes)
    for msg in problems[:10]:
        emit("check", msg)
    if not valid:
        emit("check", "invalid run: the generator fell behind the offered rate")
    return {
        "correct": valid and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def per_layer(plain: dict, summary: dict, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the serving layers (see BENCHMARK.json)."""
    stats = plain["stats"]
    wire = []
    for phase in plain["segments"] + plain["windows"]:
        for j, line in enumerate(phase.replies):
            if line is None:
                continue
            reply = json.loads(line)
            if reply.get("ok"):
                client_us = (phase.received[j] - phase.sent[j]) * 1e6
                wire.append(client_us - reply["server_latency_us"])

    def p50(name: str, scale: float) -> float:
        durations = summary.get(name, {}).get("durations")
        return median(durations) * scale if durations else 0.0

    batch = summary.get("core.plan_batch", {})
    plan_batch_us = p50("core.plan_batch", 1e6)
    miss_us = stats["miss_p50_us"] or 0.0
    return {
        "server.wire_us": median(wire),
        "service.hit_us": stats["hit_p50_us"] or 0.0,
        "service.miss_us": miss_us,
        "service.queue_wait_us": max(0.0, miss_us - plan_batch_us) if miss_us else 0.0,
        "service.batches": float(stats["batches"]),
        "service.batch_occupancy": stats["mean_batch_occupancy"] or 0.0,
        "service.shed": float(stats["shed"]),
        "service.stats_ms": plain["stats_ms"],
        "cache.hit_ratio": stats["hit_rate"] or 0.0,
        "cache.get_us": p50("cache.get", 1e6),
        "cache.put_us": p50("cache.put", 1e6),
        "core.plan_batch_ms": plan_batch_us / 1e3,
        "core.shapes_per_call": (
            batch["count"] / batch["calls"] if batch.get("calls") else 0.0
        ),
        "model.calibrate_s": summary.get("model.calibrate", {}).get("total_s", 0.0),
        **overhead(untraced, traced),
    }


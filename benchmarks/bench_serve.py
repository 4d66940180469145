"""Serving-path throughput and tail latency: the plan cache over the wire.

``repro serve`` fronts the planning layer (:mod:`repro.plan`) with a
tiered plan cache and a micro-batching window.  This bench boots the
real daemon as a subprocess (``python -m repro serve --port 0
--port-file F --no-persist``, as the CI ``serve`` job does) and replays
the same deterministic Zipf trace ``repro loadgen`` ships against it
over TCP, three times:

* **cold replay** (one client) — the cache starts empty, so every first
  touch of a shape is a genuinely cold plan riding a micro-batched
  ``plan_batch``.  This pass supplies the *miss* latency column.
* **warm replay** (one client) — the identical trace again: 100% cache
  hits, no batches in flight.  This pass supplies the *hit* latency
  column and the steady-state QPS headline.
* **warm replay, two clients** — recorded, not gated: two closed-loop
  client threads in one interpreter mostly measure GIL hand-off.

Cold and warm are separate passes because a mixed replay contaminates
the hit tail: while the daemon's batcher thread plans a cold
micro-batch, the GIL stretches concurrent hits to milliseconds.
Splitting the phases measures what the serving contract
(docs/SERVING.md) actually promises — the cost of a cold plan vs the
cost of a cached one — and the acceptance bar is a >= 10x p99 split at
full scale.

Client-side latencies include the socket, JSON encode/decode and the
client itself.  Next to them the record keeps the daemon's own
``stats`` percentiles (time inside ``PlanService.submit``, over all
three replays); the gap between the two is wire, JSON and client time.
The daemon runs with ``--no-persist`` so the cold pass is cold even
when a previous run flushed a disk shard for the same binding.

Only a full-scale run writes its artifacts: under
``benchmarks/artifacts/`` and as ``BENCH_serve.json`` at the repo root
(the committed before/after record).  ``REPRO_BENCH_SERVE_REQUESTS``
shrinks the trace for smoke runs, which write nothing; the 10x split
assertion fires only at full scale, and the smoke-scale QPS gate
derives from the committed ``BENCH_serve.json`` (half the committed
throughput, capped at a noise-safe absolute) so a >2x serving
regression fails CI without tripping on box speed.
"""

import contextlib
import dataclasses
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

from repro.harness import write_json
from repro.plan import LoadgenConfig, run_loadgen

from .common import banner, emit

FULL_REQUESTS = 20000
FULL_UNIVERSE = 512

#: Acceptance bar at full scale: cache-hit p99 at least 10x below the
#: cold-plan (miss) p99.
FULL_SPLIT_FLOOR = 10.0
#: Reduced-scale CI floor for the same split (fewer samples => noisier
#: percentiles, so half the full bar).
SMOKE_SPLIT_FLOOR = 5.0

#: Absolute steady-state QPS floors: a serving path slower than this is
#: broken regardless of box speed.
FULL_QPS_FLOOR = 1000.0
SMOKE_QPS_FLOOR = 500.0
#: Ceiling for the gate derived from the committed BENCH_serve.json —
#: keeps a fast dev box from ratcheting the CI bar past runner noise.
SMOKE_QPS_GATE_CAP = 1000.0

#: Daemon-side percentiles copied from its ``stats`` op into the record.
DAEMON_KEYS = (
    "requests", "hits", "misses", "batches",
    "hit_p50_us", "hit_p99_us", "miss_p50_us", "miss_p99_us",
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT_ARTIFACT = os.path.join(REPO, "BENCH_serve.json")


def _scale() -> "tuple[int, int]":
    env = os.environ.get("REPRO_BENCH_SERVE_REQUESTS")
    if env:
        n = int(env)
        return n, max(8, min(FULL_UNIVERSE, n // 8))
    return FULL_REQUESTS, FULL_UNIVERSE


def _smoke_qps_gate() -> float:
    """>2x regression gate vs the committed full-scale record."""
    try:
        with open(ROOT_ARTIFACT) as fh:
            committed = float(json.load(fh)["qps"])
    except (OSError, KeyError, ValueError):
        return SMOKE_QPS_FLOOR
    return max(SMOKE_QPS_FLOOR, min(SMOKE_QPS_GATE_CAP, committed / 2.0))


def _rpc(addr, msg: dict) -> dict:
    with socket.create_connection(addr, timeout=30) as sock:
        fh = sock.makefile("rwb")
        fh.write((json.dumps(msg) + "\n").encode("utf-8"))
        fh.flush()
        return json.loads(fh.readline())


@contextlib.contextmanager
def _daemon():
    """Boot ``repro serve`` on an ephemeral port; yield its address.

    On a clean exit the daemon is stopped with the ``shutdown`` op and
    must exit 0; on an error it is killed.
    """
    with tempfile.TemporaryDirectory() as tmp:
        port_file = os.path.join(tmp, "serve.port")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO, "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", port_file, "--no-persist"],
            env=env, stdout=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while not (os.path.exists(port_file)
                       and os.path.getsize(port_file)):
                if proc.poll() is not None:
                    raise RuntimeError(
                        "repro serve exited with %d before binding"
                        % proc.returncode
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never wrote its port")
                time.sleep(0.05)
            with open(port_file) as fh:
                addr = ("127.0.0.1", int(fh.read()))
            yield addr
            assert _rpc(addr, {"op": "shutdown"}).get("bye")
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_serving_trace(requests, universe):
    """Replay the Zipf trace cold, warm, then warm with two clients.

    One client for the gated passes, deliberately: the latency columns
    are *service time*, and extra closed-loop clients only add GIL
    queueing delay (the interpreter parks a waiting thread for multiples
    of the 5 ms switch interval, which would swamp a sub-millisecond hit
    path).  The two-client pass is recorded to show that.
    """
    config = LoadgenConfig(
        requests=requests, universe=universe, seed=0, clients=1
    )
    with _daemon() as addr:
        cold = run_loadgen(config, connect=addr)
        warm = run_loadgen(config, connect=addr)
        warm2 = run_loadgen(
            dataclasses.replace(config, clients=2), connect=addr
        )
        stats = _rpc(addr, {"op": "stats"})["stats"]
    daemon = {key: stats[key] for key in DAEMON_KEYS}
    return cold, warm, warm2, daemon


def test_serving_throughput(benchmark):
    requests, universe = _scale()
    cold, warm, warm2, daemon = benchmark.pedantic(
        run_serving_trace, args=(requests, universe), rounds=1, iterations=1
    )
    full = (requests, universe) == (FULL_REQUESTS, FULL_UNIVERSE)
    split = cold["miss_p99_us"] / warm["hit_p99_us"]

    banner(
        "Serving path over TCP: %d-request Zipf trace over %d shapes, "
        "replayed cold then warm" % (requests, universe)
    )
    print("cold replay : %7.0f req/s, %5.1f%% hit rate (%d cold plans)"
          % (cold["qps"], 100.0 * cold["hit_rate"], cold["misses"]))
    print("warm replay : %7.0f req/s, %5.1f%% hit rate"
          % (warm["qps"], 100.0 * warm["hit_rate"]))
    print("2 clients   : %7.0f req/s (warm, not gated)" % warm2["qps"])
    print("hit latency : p50 %8.1f us   p99 %8.1f us   (warm replay)"
          % (warm["hit_p50_us"], warm["hit_p99_us"]))
    print("miss latency: p50 %8.1f us   p99 %8.1f us   (cold plans)"
          % (cold["miss_p50_us"], cold["miss_p99_us"]))
    print("daemon side : hit p50 %.1f us p99 %.1f us, "
          "miss p50 %.1f us p99 %.1f us"
          % (daemon["hit_p50_us"], daemon["hit_p99_us"],
             daemon["miss_p50_us"], daemon["miss_p99_us"]))
    print("p99 split   : %6.1fx  (floor %.0fx %s)"
          % (split, FULL_SPLIT_FLOOR if full else SMOKE_SPLIT_FLOOR,
             "full" if full else "smoke"))

    payload = {
        "requests": requests,
        "universe": universe,
        "full_scale": bool(full),
        "qps": warm["qps"],
        "qps_cold_replay": cold["qps"],
        "qps_two_clients": warm2["qps"],
        "hit_rate_cold_replay": cold["hit_rate"],
        "hit_p50_us": warm["hit_p50_us"],
        "hit_p99_us": warm["hit_p99_us"],
        "miss_p50_us": cold["miss_p50_us"],
        "miss_p99_us": cold["miss_p99_us"],
        "p99_split_hit_vs_miss": split,
        "split_floor": FULL_SPLIT_FLOOR if full else SMOKE_SPLIT_FLOOR,
        "qps_floor": FULL_QPS_FLOOR if full else _smoke_qps_gate(),
        "daemon": daemon,
        "cold_replay": cold,
        "warm_replay": warm,
        "warm_replay_two_clients": warm2,
    }

    assert cold["failed"] == 0 and warm["failed"] == 0
    assert warm2["failed"] == 0
    assert warm["misses"] == 0  # the warm replay must be pure hits
    if full:
        emit("serve", payload)
        write_json(ROOT_ARTIFACT, payload)
        # Acceptance bar: cache hits an order of magnitude under misses.
        assert split >= FULL_SPLIT_FLOOR
        assert warm["qps"] >= FULL_QPS_FLOOR
    else:
        # CI perf smoke: >2x QPS regression vs the committed record (or
        # the absolute floor if no record is checked in yet).
        assert split >= SMOKE_SPLIT_FLOOR
        assert warm["qps"] >= _smoke_qps_gate()

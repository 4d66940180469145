"""Stream-K++ adaptive selection: winner-cache replay vs cold planning.

``repro adapt`` replays a deterministic Zipf trace through the winner
table (:mod:`repro.ensembles.adaptive`) under the ensemble-oracle
policy; this bench pins its acceptance numbers on the full
20k-request / 512-shape trace:

* **hit-path latency** — winner-table selection p99 at least 5x below
  the *cold* ``plan_query`` p99 (the latency a repeat shape would pay
  without the adaptive layer);
* **regret** — mean chosen-vs-oracle makespan regret <= 1% (zero by
  construction with the ensemble evaluator: the first visit remembers
  the oracle winner), reported against the honest nonzero regrets of
  the pure-analytic path and the cuBLAS-style heuristic;
* **hit rate** — above 90%, with exactly one policy run per distinct
  shape.

Only a full-scale run writes its artifacts: under
``benchmarks/artifacts/`` and as ``BENCH_adaptive.json`` at the repo
root (the committed before/after record).
``REPRO_BENCH_ADAPTIVE_REQUESTS`` shrinks the trace for smoke runs,
which write nothing; the CI ``adaptive`` job's gate
derives from the committed record (>2x hit-path p99 regression fails),
mirroring the serve/executor gates.
"""

import json
import os

from repro.ensembles.adaptive import AdaptiveReplayConfig, replay_adaptive
from repro.harness import write_json

from .common import banner, emit

FULL_REQUESTS = 20000
FULL_UNIVERSE = 512

#: Acceptance bars at full scale.
FULL_SPEEDUP_FLOOR = 5.0
REGRET_CEILING = 0.01

#: Reduced-scale CI floor: fewer hit samples => noisier p99, half the bar.
SMOKE_SPEEDUP_FLOOR = 2.5

#: Absolute hit-path p99 ceiling (us) for the smoke gate fallback, and
#: the floor/cap bracket for the gate derived from the committed record
#: (a fast dev box must not ratchet the CI bar past runner noise).
SMOKE_HIT_P99_CEILING_US = 500.0
SMOKE_HIT_P99_GATE_FLOOR_US = 100.0

ROOT_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_adaptive.json",
)


def _scale() -> "tuple[int, int]":
    env = os.environ.get("REPRO_BENCH_ADAPTIVE_REQUESTS")
    if env:
        n = int(env)
        return n, max(8, min(FULL_UNIVERSE, n // 8))
    return FULL_REQUESTS, FULL_UNIVERSE


def _smoke_hit_p99_gate() -> float:
    """>2x hit-path latency regression gate vs the committed record."""
    try:
        with open(ROOT_ARTIFACT) as fh:
            committed = float(json.load(fh)["hit_p99_us"])
    except (OSError, KeyError, ValueError):
        return SMOKE_HIT_P99_CEILING_US
    return min(
        SMOKE_HIT_P99_CEILING_US,
        max(SMOKE_HIT_P99_GATE_FLOOR_US, committed * 2.0),
    )


def run_adaptive_replay(requests, universe):
    return replay_adaptive(
        AdaptiveReplayConfig(
            requests=requests,
            universe=universe,
            seed=0,
            evaluator="ensemble",
        )
    )


def test_adaptive_selection(benchmark):
    requests, universe = _scale()
    report = benchmark.pedantic(
        run_adaptive_replay, args=(requests, universe), rounds=1, iterations=1
    )
    full = (requests, universe) == (FULL_REQUESTS, FULL_UNIVERSE)
    reg = report["regret"]
    speedup = report["p99_speedup_hit_vs_cold"]

    banner(
        "Stream-K++ adaptive selection: %d-request Zipf trace over %d "
        "shapes" % (requests, universe)
    )
    print("hit rate    : %5.1f%% (%d winner hits / %d evaluations)"
          % (100.0 * report["hit_rate"], report["hits"], report["misses"]))
    print("hit latency : p50 %8.1f us   p99 %8.1f us"
          % (report["hit_p50_us"], report["hit_p99_us"]))
    print("cold plan   : p50 %8.1f us   p99 %8.1f us"
          % (report["cold_plan_p50_us"], report["cold_plan_p99_us"]))
    print("p99 speedup : %6.1fx  (floor %.1fx %s)"
          % (speedup, FULL_SPEEDUP_FLOOR if full else SMOKE_SPEEDUP_FLOOR,
             "full" if full else "smoke"))
    print("regret mean : adaptive %.4f%%, analytic %.2f%%, cuBLAS %.2f%%"
          % (100.0 * reg["adaptive_mean"], 100.0 * reg["analytic_mean"],
             100.0 * reg["cublas_mean"]))

    payload = {
        "requests": requests,
        "universe": universe,
        "full_scale": bool(full),
        "hit_rate": report["hit_rate"],
        "hit_p50_us": report["hit_p50_us"],
        "hit_p99_us": report["hit_p99_us"],
        "cold_plan_p50_us": report["cold_plan_p50_us"],
        "cold_plan_p99_us": report["cold_plan_p99_us"],
        "p99_speedup_hit_vs_cold": speedup,
        "speedup_floor": FULL_SPEEDUP_FLOOR if full else SMOKE_SPEEDUP_FLOOR,
        "regret": reg,
        "regret_ceiling": REGRET_CEILING,
        "hit_p99_gate_us": None if full else _smoke_hit_p99_gate(),
        "report": report,
    }

    # Correctness bars hold at every scale.
    assert report["misses"] == report["distinct_shapes"]  # one eval/shape
    assert reg["adaptive_mean"] <= REGRET_CEILING

    if full:
        emit("adaptive", payload)
        write_json(ROOT_ARTIFACT, payload)
        assert speedup >= FULL_SPEEDUP_FLOOR
        assert report["hit_rate"] > 0.9
    else:
        # CI perf smoke: >2x hit-path regression vs the committed record
        # (or the absolute ceiling if no record is checked in yet).
        assert speedup >= SMOKE_SPEEDUP_FLOOR
        assert report["hit_p99_us"] <= _smoke_hit_p99_gate()

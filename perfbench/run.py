"""Benchmark entry point: drives the program's real entry points from
outside and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report      # one-off, ungated answers
    python3 perfbench/run.py --self-test   # the benchmark's own checks

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``serve-hot`` and ``serve-cold`` drive the ``repro serve`` daemon over
TCP, ``sweep`` the durable ``evaluate_corpus_sharded`` path behind
``repro sweep``, and ``simulate`` ``run_fault_sweep`` on the numpy
executor.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
adds a traced pass and reports the per-layer metrics, including the
tracing overhead on every end-to-end metric.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; everything above it is a human-readable report.
Exits non-zero without a result line when the run cannot be made (for
example, without the program's sources next to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from common import ROOT, BenchError, RunDir, emit, env_stamp, isolate_self, require_program

WORKLOADS = ("serve-hot", "serve-cold", "sweep", "simulate")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in a fresh run directory; returns the result.

    ``smoke`` (used by the self-test) shrinks the sweep and simulate inputs.
    """
    with RunDir(name) as run_dir:
        # Before anything imports repro: its modules read REPRO_* at import.
        isolate_self(run_dir.fresh("parent-cache"))
        if name.startswith("serve"):
            import serve

            # Serving runs scale with ``seconds`` alone.
            return serve.run(name, seed, seconds, trace, run_dir)
        if name == "sweep":
            import sweep as module
        else:
            import simulate as module
        return module.run(name, seed, seconds, trace, run_dir, smoke=smoke)


def complete_metrics(result: dict, trace: bool) -> dict:
    """Report every metric the spec names for this mode, with its unit.

    A per-layer metric of a layer the workload does not run is 0 (no
    calls, no time); every end-to-end metric is measured on every
    workload.
    """
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"], 0.0)
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    missing = set(result["metrics"]) - {m["name"] for m in wanted}
    if missing:
        raise BenchError("metrics missing from BENCHMARK.json: %s" % sorted(missing))
    return dict(result, metrics=metrics)


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="print the one-off transport/parallelism/split report")
    p.add_argument("--self-test", action="store_true",
                   help="run the benchmark's own checks")
    args = p.parse_args(argv)
    try:
        require_program()
        if args.self_test:
            import selftest

            return selftest.main()
        if args.report:
            import report

            return report.main(args.seed)
        if args.workload is None:
            p.error("--workload is required")
        emit("env", env_stamp())
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        result = complete_metrics(result, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

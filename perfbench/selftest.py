"""The benchmark's own checks (``run.py --self-test``).

1. Generator honesty: against a stub JSONL server that stalls once for
   100 ms, every request that was due during the stall is charged the
   rest of the stall, and the generator kept sending on schedule; a
   phase that ran late is reported invalid.
2. Inputs: one seed gives byte-identical workload inputs, another seed
   different ones.
3. A smoke-scale traced run of every workload finishes, passes its
   output checks and reports every metric of ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time

import loadgen
from common import STATE, BenchError, use_program_in_process

STALL_S = 0.100
STALL_AT = 200
RATE = 1000.0


class StallingStub:
    """Threaded JSONL server answering ``{"ok": true}`` per line; the
    ``STALL_AT``-th request holds a lock every reply needs for
    ``STALL_S`` seconds, so the stall hits every connection."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.addr = self.listener.getsockname()
        self.lock = threading.Lock()
        self.count = 0
        self.stall = (0.0, 0.0)
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self.threads.append(t)
            t.start()

    def _serve(self, conn) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn, conn.makefile("rb") as rfile:
            for _line in rfile:
                with self.lock:
                    self.count += 1
                    if self.count == STALL_AT:
                        start = time.perf_counter()
                        time.sleep(STALL_S)
                        self.stall = (start, time.perf_counter())
                try:
                    conn.sendall(b'{"ok": true}\n')
                except OSError:
                    return

    def close(self) -> None:
        self.listener.close()


def check_stall_is_charged() -> None:
    stub = StallingStub()
    try:
        conns = loadgen.connect(stub.addr, 2)
        result = loadgen.open_loop(conns, [b'{"op": "plan"}\n'] * 600, RATE)
        for c in conns:
            c.close()
    finally:
        stub.close()
    start, end = stub.stall
    report = loadgen.honesty([result], RATE)
    if not report["valid"]:
        raise BenchError("stub run marked invalid: %s" % report)
    during = [j for j, due in enumerate(result.due) if start <= due < end]
    if len(during) < 0.9 * STALL_S * RATE:
        raise BenchError("only %d requests were due during the stall" % len(during))
    for j in during:
        charged = result.received[j] - result.due[j]
        if charged < end - result.due[j]:
            raise BenchError("request %d was not charged the stall" % j)
        if result.sent[j] - result.due[j] > loadgen.LATENESS_BOUND_MS / 1e3:
            raise BenchError("request %d was sent late: the loop waited" % j)
    late = loadgen.PhaseResult(len(result.due))
    late.due = list(result.due)
    late.sent = [d + 0.05 for d in result.due]
    late.received = [s + 0.001 for s in late.sent]
    if loadgen.honesty([late], RATE)["valid"]:
        raise BenchError("a generator 50 ms late was not marked invalid")
    print("self-test: stall of %.0f ms charged to all %d requests due during it"
          % ((end - start) * 1e3, len(during)))


def input_digest(workload: str, seed: int) -> str:
    """SHA-256 of everything a run of ``workload`` feeds the program."""
    h = hashlib.sha256()
    if workload.startswith("serve"):
        import serve

        inputs = serve.make_inputs(workload, seed, 1000)
        h.update(inputs["warm"].tobytes())
        h.update(inputs["stream"].tobytes())
    elif workload == "sweep":
        use_program_in_process()
        from repro.corpus.generator import CorpusSpec, generate_corpus

        h.update(generate_corpus(CorpusSpec(seed=seed)).tobytes())
    else:
        use_program_in_process()
        import simulate
        from repro.faults.config import FaultConfig

        for cell in simulate.make_cells(simulate.PROBLEMS):
            config = FaultConfig.straggler_sweep_point(cell["severity"], seed)
            h.update(json.dumps(cell, sort_keys=True).encode())
            h.update(repr(config).encode())
    return h.hexdigest()


def check_inputs() -> None:
    import run

    for workload in run.WORKLOADS:
        a, b, c = (input_digest(workload, s) for s in (7, 7, 8))
        if a != b:
            raise BenchError("%s: seed 7 gave two different inputs" % workload)
        if a == c:
            raise BenchError("%s: seeds 7 and 8 gave the same inputs" % workload)
    print("self-test: inputs are a pure function of the seed for every workload")


def check_smoke_runs() -> None:
    import run

    for workload in run.WORKLOADS:
        result = run.complete_metrics(
            run.run_workload(workload, 3, 1.0, trace=True, smoke=True), trace=True
        )
        if not result["correct"] or result["failed"]:
            raise BenchError("%s smoke run failed its checks: %s"
                             % (workload, {k: result[k] for k in ("correct", "attempted", "failed")}))
        print("self-test: %s smoke run passed (%d checked, 0 failed)"
              % (workload, result["attempted"]))


def main() -> int:
    check_stall_is_charged()
    check_inputs()
    check_smoke_runs()
    print("self-test: all passed (state under %s)" % STATE)
    return 0

"""Fault injection through the executor: reproducibility, inertness, effects.

The anchor artifact is the Figure 2(b) schedule (384x384x128 Stream-K
g=4 on the 4-SM GPU) whose pristine trace is committed at
``docs/traces/fig2_stream_k_g4.json`` — the zero-fault injector must
reproduce it bitwise.
"""

import dataclasses
import json
import os

import pytest

from repro.errors import DeadlockError
from repro.faults import FaultConfig, FaultInjector
from repro.faults.checker import check_protocol_invariants
from repro.gemm import FP16_FP32, Blocking, GemmProblem, TileGrid
from repro.gpu import HYPOTHETICAL_4SM, KernelCostModel
from repro.obs.export import trace_to_chrome
from repro.schedules.stream_k import stream_k_schedule

COMMITTED = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "traces",
    "fig2_stream_k_g4.json",
)


@pytest.fixture(scope="module")
def fig2_schedule():
    problem = GemmProblem(384, 384, 128, dtype=FP16_FP32)
    grid = TileGrid(problem, Blocking(128, 128, 32))
    return stream_k_schedule(grid, 4)


@pytest.fixture(scope="module")
def run(execute):
    """Price ``schedule`` into tasks under ``faults`` (a config or a shared
    injector) and run them on the suite's event loop; return the trace."""
    gpu = HYPOTHETICAL_4SM

    def run(schedule, faults=None, check=False):
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = FaultInjector(faults)
        grid = schedule.grid
        cost = KernelCostModel(
            gpu=gpu, blocking=grid.blocking, dtype=grid.problem.dtype
        )
        tasks = cost.build_tasks(schedule, faults=faults)
        trace = execute(tasks, gpu.total_cta_slots, faults=faults)
        if check:
            check_protocol_invariants(schedule, trace)
        return trace

    return run


class TestZeroFaultInertness:
    def test_null_config_bitwise_matches_pristine(self, run, fig2_schedule):
        pristine = run(fig2_schedule)
        nulled = run(fig2_schedule, faults=FaultConfig.none())
        assert (
            trace_to_chrome(nulled)["traceEvents"]
            == trace_to_chrome(pristine)["traceEvents"]
        )
        assert nulled.makespan == pristine.makespan

    def test_null_config_matches_committed_golden_trace(self, run, fig2_schedule):
        with open(COMMITTED) as fh:
            committed = json.load(fh)
        fresh = trace_to_chrome(run(fig2_schedule, faults=FaultConfig.none()))
        assert fresh["traceEvents"] == committed["traceEvents"]


class TestReproducibility:
    CFG = FaultConfig(
        seed=3,
        straggler_prob=0.5,
        straggler_severity=1.0,
        clock_skew=0.1,
        mem_jitter=0.2,
        signal_delay_prob=0.5,
        signal_delay_cycles=500.0,
        preempt_prob=0.2,
        preempt_penalty_cycles=100.0,
    )

    def test_same_seed_same_trace_bitwise(self, run, fig2_schedule):
        a = run(fig2_schedule, faults=self.CFG)
        b = run(fig2_schedule, faults=self.CFG)
        assert (
            trace_to_chrome(a)["traceEvents"] == trace_to_chrome(b)["traceEvents"]
        )
        assert a.makespan == b.makespan

    def test_different_seed_different_trace(self, run, fig2_schedule):
        a = run(fig2_schedule, faults=self.CFG)
        b = run(fig2_schedule, faults=self.CFG.with_seed(4))
        # Clock skew is continuous per slot, so any seed change moves it.
        assert a.makespan != b.makespan

    def test_shared_injector_accumulates_one_log(self, run, fig2_schedule):
        inj = FaultInjector(self.CFG)
        run(fig2_schedule, faults=inj)
        n = len(inj.log)
        assert n > 0
        run(fig2_schedule, faults=inj)  # memoized: same sites, no new entries
        assert len(inj.log) == n


class TestFaultEffects:
    def test_stragglers_degrade_makespan(self, run, fig2_schedule):
        baseline = run(fig2_schedule).makespan
        cfg = FaultConfig(straggler_prob=1.0, straggler_severity=1.0)
        slowed = run(fig2_schedule, faults=cfg, check=True).makespan
        assert slowed == pytest.approx(2.0 * baseline)

    def test_signal_delay_stalls_owners(self, run, fig2_schedule):
        baseline = run(fig2_schedule).makespan
        cfg = FaultConfig(signal_delay_prob=1.0, signal_delay_cycles=5000.0)
        delayed = run(fig2_schedule, faults=cfg, check=True).makespan
        assert delayed > baseline

    def test_preempt_penalty_charged(self, run, fig2_schedule):
        baseline = run(fig2_schedule).makespan
        cfg = FaultConfig(preempt_prob=1.0, preempt_penalty_cycles=10000.0)
        preempted = run(fig2_schedule, faults=cfg, check=True).makespan
        assert preempted > baseline + 10000.0

    def test_mem_jitter_prices_into_tasks(self, run, fig2_schedule):
        baseline = run(fig2_schedule).makespan
        cfg = FaultConfig(mem_jitter=1.0)
        jittered = run(fig2_schedule, faults=cfg, check=True)
        assert jittered.makespan > baseline

    def test_invariants_hold_under_combined_faults(self, run, fig2_schedule):
        # Faults reorder time, never the carry protocol: the checker must
        # accept every completing faulted run.
        run(fig2_schedule, faults=TestReproducibility.CFG, check=True)


class TestDroppedSignals:
    def test_dropped_signal_is_clean_deadlock(self, run, fig2_schedule):
        cfg = FaultConfig(signal_drop_prob=1.0)
        with pytest.raises(DeadlockError) as exc:
            run(fig2_schedule, faults=cfg)
        err = exc.value
        assert err.blocked  # the stalled owner CTAs are named
        assert err.wait_chain
        for cta, slot, reason in err.wait_chain:
            assert "dropped by fault injection" in reason
        assert "dropped by fault injection" in str(err)

    def test_partial_drop_names_only_lost_producer(self, run, fig2_schedule):
        # Find a seed where some (not all) signals drop, then check the
        # diagnostic names exactly the dropped producers' waiters.
        for seed in range(64):
            cfg = FaultConfig(seed=seed, signal_drop_prob=0.5)
            inj = FaultInjector(cfg)
            try:
                run(fig2_schedule, faults=inj)
            except DeadlockError as err:
                dropped = inj.dropped_signals
                assert dropped
                waited_on = {slot for _, slot, _ in err.wait_chain}
                assert waited_on <= dropped
                return
        pytest.skip("no seed in range dropped a waited-on signal")

"""Fault sweep: determinism, baselines, deadlock reporting, table render."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultConfig, format_sweep_table, run_fault_sweep
from repro.faults.sweep import build_registered_schedule
from repro.gemm import FP16_FP32, Blocking, GemmProblem, TileGrid
from repro.gpu import HYPOTHETICAL_4SM, simulate_kernel
from repro.schedules.registry import DECOMPOSITION_NAMES


@pytest.fixture(scope="module")
def problem():
    return GemmProblem(384, 384, 128, dtype=FP16_FP32)


def sweep(problem, **kw):
    kw.setdefault("severities", (0.0, 1.0))
    return run_fault_sweep(problem, HYPOTHETICAL_4SM, **kw)


class TestSweep:
    def test_covers_every_schedule_and_severity(self, problem):
        cells = sweep(problem)
        assert {(c.schedule, c.severity) for c in cells} == {
            (n, s) for n in DECOMPOSITION_NAMES for s in (0.0, 1.0)
        }

    def test_bitwise_deterministic(self, problem):
        assert sweep(problem) == sweep(problem)

    def test_zero_severity_matches_unfaulted_simulator(self, problem):
        cells = sweep(problem, schedule_names=("stream_k",))
        zero = next(c for c in cells if c.severity == 0.0)
        grid = TileGrid(problem, Blocking(*problem.dtype.default_blocking))
        schedule = build_registered_schedule("stream_k", grid, HYPOTHETICAL_4SM)
        pristine = simulate_kernel(schedule, HYPOTHETICAL_4SM)
        assert zero.makespan == pristine.trace.makespan  # bitwise
        assert zero.baseline == zero.makespan
        assert zero.degradation_pct == 0.0

    def test_severity_never_speeds_things_up(self, problem):
        cells = sweep(problem)
        for c in cells:
            if not c.deadlocked:
                assert c.makespan >= c.baseline

    def test_injections_recorded_per_cell(self, problem):
        cells = sweep(problem, schedule_names=("stream_k",))
        zero = next(c for c in cells if c.severity == 0.0)
        hot = next(c for c in cells if c.severity == 1.0)
        assert zero.injections == {}
        assert sum(hot.injections.values()) > 0

    def test_empty_severities_rejected(self, problem):
        with pytest.raises(ConfigurationError):
            run_fault_sweep(problem, HYPOTHETICAL_4SM, severities=())

    def test_unknown_executor_rejected(self, problem):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            run_fault_sweep(problem, HYPOTHETICAL_4SM, executor="bogus")


class TestDeadlockCells:
    def factory(self, severity, seed):
        cfg = FaultConfig.straggler_sweep_point(severity, seed)
        if severity > 0.0:
            cfg = dataclasses.replace(cfg, signal_drop_prob=1.0)
        return cfg

    def test_dropped_signals_report_as_deadlock(self, problem):
        cells = sweep(
            problem,
            schedule_names=("stream_k",),
            config_factory=self.factory,
        )
        hot = next(c for c in cells if c.severity == 1.0)
        assert hot.deadlocked
        assert hot.makespan == float("inf")
        assert hot.degradation_pct == float("inf")
        assert hot.injections.get("signal_drop", 0) > 0

    def test_data_parallel_has_no_signals_to_drop(self, problem):
        cells = sweep(
            problem,
            schedule_names=("data_parallel",),
            config_factory=self.factory,
        )
        assert not any(c.deadlocked for c in cells)


class TestTable:
    def test_render_contains_all_cells(self, problem):
        cells = sweep(problem)
        table = format_sweep_table(cells)
        for name in DECOMPOSITION_NAMES:
            assert name in table
        assert "sev 0.00" in table and "sev 1.00" in table
        assert "cyc" in table and "%" in table

    def test_render_marks_deadlocks(self, problem):
        cells = sweep(
            problem,
            schedule_names=("stream_k",),
            config_factory=TestDeadlockCells().factory,
        )
        assert "DEADLOCK" in format_sweep_table(cells)

    def test_empty(self):
        assert "empty" in format_sweep_table([])

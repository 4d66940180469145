"""Property-based tests of the discrete-event executor.

Random schedules drawn from the real decomposition family are the best
fuzzer for the executor: they exercise arbitrary wave structures, wait
chains, and cascades, while the invariants below must hold universally —
on both event loops: the Python oracle and the numpy loop every
simulation runs.  (The loops are iterated inside each example rather than
bound through a fixture: Hypothesis refuses one ``@given`` method run
from two test instances.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm import FP64, Blocking, GemmProblem, TileGrid
from repro.gpu import KernelCostModel, HYPOTHETICAL_4SM, SegmentKind
from repro.schedules import (
    data_parallel_schedule,
    dp_one_tile_schedule,
    fixed_split_schedule,
    stream_k_schedule,
    two_tile_schedule,
)
from tests.conftest import run_on_arrays, run_oracle

LOOPS = (run_oracle, run_on_arrays)

COST = KernelCostModel(
    gpu=HYPOTHETICAL_4SM, blocking=Blocking(16, 16, 8), dtype=FP64
)


def random_schedule(draw):
    tiles_m = draw(st.integers(1, 6))
    tiles_n = draw(st.integers(1, 6))
    ipt = draw(st.integers(1, 12))
    grid = TileGrid(
        GemmProblem(tiles_m * 16, tiles_n * 16, ipt * 8, dtype=FP64),
        Blocking(16, 16, 8),
    )
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return data_parallel_schedule(grid)
    if kind == 1:
        return fixed_split_schedule(grid, draw(st.integers(1, 4)))
    if kind == 2:
        return stream_k_schedule(grid, draw(st.integers(1, 4)))
    if kind == 3:
        return two_tile_schedule(grid, 4)
    return dp_one_tile_schedule(grid, 4)


@st.composite
def schedules(draw):
    return random_schedule(draw)


class TestExecutorInvariants:
    @settings(max_examples=60, deadline=None)
    @given(sched=schedules())
    def test_conservation_and_bounds(self, sched):
        tasks = COST.build_tasks(sched)
        for execute in LOOPS:
            trace = execute(tasks, HYPOTHETICAL_4SM.total_cta_slots)

            # Every CTA ran, exactly once.
            assert len(trace.ctas) == len(tasks)
            ran = sorted(c.cta for c in trace.ctas)
            assert ran == sorted(t.cta for t in tasks)

            # Work conservation: busy time equals intrinsic task time.
            intrinsic = sum(t.intrinsic_cycles for t in tasks)
            assert np.isclose(trace.total_busy_cycles, intrinsic)

            # Makespan bounds: at least the per-slot share and the longest
            # CTA; at most the fully serialized sum plus all waits.
            slots = HYPOTHETICAL_4SM.total_cta_slots
            assert trace.makespan >= intrinsic / slots - 1e-9
            longest = max(t.intrinsic_cycles for t in tasks)
            assert trace.makespan >= longest - 1e-9
            assert trace.makespan <= intrinsic + trace.total_wait_cycles + 1e-9

            # Utilization in (0, 1].
            assert 0 < trace.utilization() <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(sched=schedules())
    def test_causality(self, sched):
        """No segment starts before its CTA; waits end exactly at the
        peer's signal or later; slot timelines never overlap."""
        tasks = COST.build_tasks(sched)
        for execute in LOOPS:
            trace = execute(tasks, HYPOTHETICAL_4SM.total_cta_slots)

            signal_time = {}
            for rec in trace.ctas:
                prev_end = rec.start
                for seg in rec.segments:
                    assert seg.start >= prev_end - 1e-9
                    prev_end = seg.end
                    if seg.kind is SegmentKind.SIGNAL:
                        signal_time[rec.cta] = seg.end
                assert prev_end == rec.finish

            for rec in trace.ctas:
                for seg in rec.segments:
                    if seg.kind is SegmentKind.WAIT:
                        assert seg.end >= signal_time[seg.slot] - 1e-9

            # Per-slot serialization.
            by_slot = {}
            for rec in trace.ctas:
                spans = by_slot.setdefault(rec.sm_slot, [])
                spans.append((rec.start, rec.finish))
            for spans in by_slot.values():
                spans.sort()
                for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                    assert s2 >= e1 - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(sched=schedules())
    def test_determinism(self, sched):
        tasks = COST.build_tasks(sched)
        for execute in LOOPS:
            t1 = execute(tasks, 4)
            t2 = execute(tasks, 4)
            assert t1.makespan == t2.makespan
            assert [c.finish for c in t1.ctas] == [c.finish for c in t2.ctas]

    @settings(max_examples=40, deadline=None)
    @given(sched=schedules(), extra=st.integers(1, 8))
    def test_more_slots_never_slower(self, sched, extra):
        """Adding SM slots can only help (no scheduling anomalies in the
        equal-priority in-order dispatcher for these workloads)."""
        tasks = COST.build_tasks(sched)
        for execute in LOOPS:
            base = execute(tasks, 4).makespan
            wider = execute(tasks, 4 + extra).makespan
            assert wider <= base + 1e-9

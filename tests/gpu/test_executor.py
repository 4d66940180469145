"""Discrete-event executor tests: waves, waits, signals, deadlock."""

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.gpu import CtaTask, Executor, SegmentKind, TimedSegment


def compute_task(cta, cycles):
    return CtaTask(
        cta=cta, segments=(TimedSegment(SegmentKind.COMPUTE, cycles),)
    )


def contributor_task(cta, compute, store):
    return CtaTask(
        cta=cta,
        segments=(
            TimedSegment(SegmentKind.COMPUTE, compute),
            TimedSegment(SegmentKind.STORE_PARTIALS, store),
            TimedSegment(SegmentKind.SIGNAL, 0.0, cta),
        ),
    )


def owner_task(cta, compute, peer, fixup):
    return CtaTask(
        cta=cta,
        segments=(
            TimedSegment(SegmentKind.COMPUTE, compute),
            TimedSegment(SegmentKind.WAIT, 0.0, peer),
            TimedSegment(SegmentKind.FIXUP, fixup, peer),
        ),
    )


class TestWaveDispatch:
    def test_equal_ctas_form_ceil_waves(self, execute):
        trace = execute([compute_task(i, 100.0) for i in range(9)], 4)
        assert trace.makespan == pytest.approx(300.0)  # ceil(9/4) waves

    def test_single_wave(self, execute):
        trace = execute([compute_task(i, 50.0) for i in range(4)], 4)
        assert trace.makespan == pytest.approx(50.0)

    def test_unequal_ctas_list_scheduled(self, execute):
        # durations 100, 10, 10, then next CTA lands on an early slot
        tasks = [compute_task(0, 100.0), compute_task(1, 10.0),
                 compute_task(2, 10.0), compute_task(3, 5.0)]
        trace = execute(tasks, 2)
        # slot0: cta0 [0,100); slot1: cta1 [0,10) cta2 [10,20) cta3 [20,25)
        assert trace.makespan == pytest.approx(100.0)
        rec3 = trace.cta_record(3)
        assert rec3.start == pytest.approx(20.0)

    def test_dispatch_is_in_launch_order(self, execute):
        tasks = [compute_task(i, 10.0 * (i + 1)) for i in range(6)]
        trace = execute(tasks, 2)
        starts = {c.cta: c.start for c in trace.ctas}
        assert starts[0] == 0.0 and starts[1] == 0.0
        assert starts[2] == pytest.approx(10.0)  # slot of cta0


class TestSignalsAndWaits:
    def test_owner_waits_for_later_contributor(self, execute):
        tasks = [
            owner_task(0, compute=10.0, peer=1, fixup=5.0),
            contributor_task(1, compute=30.0, store=2.0),
        ]
        trace = execute(tasks, 2)
        rec0 = trace.cta_record(0)
        # signal fires at 32; owner finished compute at 10, waits 22, fixup 5
        assert rec0.finish == pytest.approx(37.0)
        assert rec0.wait_cycles == pytest.approx(22.0)

    def test_no_wait_when_signal_already_fired(self, execute):
        tasks = [
            contributor_task(0, compute=5.0, store=1.0),
            owner_task(1, compute=50.0, peer=0, fixup=3.0),
        ]
        trace = execute(tasks, 2)
        rec1 = trace.cta_record(1)
        assert rec1.wait_cycles == 0.0
        assert rec1.finish == pytest.approx(53.0)

    def test_waiter_holds_slot(self, execute):
        """A blocked CTA must not release its SM to pending CTAs."""
        tasks = [
            owner_task(0, compute=1.0, peer=2, fixup=1.0),
            contributor_task(1, compute=10.0, store=0.0),
            contributor_task(2, compute=7.0, store=0.0),
        ]
        trace = execute(tasks, 2)
        # CTA 2 can only start once CTA 1's slot frees at t=10; CTA 0 spins
        # from t=1 until CTA 2 signals at 17.
        assert trace.cta_record(2).start == pytest.approx(10.0)
        assert trace.cta_record(0).finish == pytest.approx(18.0)

    def test_signal_cascade_chain(self, execute):
        """owner0 <- owner1-as-contributor <- contributor2 resolves fully."""
        t0 = owner_task(0, compute=1.0, peer=1, fixup=1.0)
        t1 = CtaTask(
            cta=1,
            segments=(
                TimedSegment(SegmentKind.COMPUTE, 2.0),
                TimedSegment(SegmentKind.WAIT, 0.0, 2),
                TimedSegment(SegmentKind.FIXUP, 1.0, 2),
                TimedSegment(SegmentKind.STORE_PARTIALS, 1.0),
                TimedSegment(SegmentKind.SIGNAL, 0.0, 1),
            ),
        )
        t2 = contributor_task(2, compute=5.0, store=1.0)
        trace = execute([t0, t1, t2], 3)
        # cta2 signals at 6; cta1 resumes, fixup 1, store 1, signals at 8;
        # cta0 resumes at 8, fixup 1 -> 9.
        assert trace.cta_record(0).finish == pytest.approx(9.0)


class TestDeadlock:
    def test_waiter_before_producer_with_one_slot(self, execute):
        tasks = [
            owner_task(0, compute=1.0, peer=1, fixup=1.0),
            contributor_task(1, compute=1.0, store=0.0),
        ]
        with pytest.raises(DeadlockError) as exc:
            execute(tasks, 1)
        assert 0 in exc.value.blocked

    def test_wait_on_never_signalled_slot(self, execute):
        tasks = [owner_task(0, compute=1.0, peer=7, fixup=1.0)]
        with pytest.raises(DeadlockError):
            execute(tasks, 4)

    def test_enough_slots_resolves(self, execute):
        tasks = [
            owner_task(0, compute=1.0, peer=1, fixup=1.0),
            contributor_task(1, compute=1.0, store=0.0),
        ]
        trace = execute(tasks, 2)
        assert trace.makespan == pytest.approx(2.0)


class TestTraceContents:
    def test_utilization_of_full_machine(self, execute):
        trace = execute([compute_task(i, 10.0) for i in range(4)], 4)
        assert trace.utilization() == pytest.approx(1.0)

    def test_utilization_counts_idle_slots(self, execute):
        trace = execute([compute_task(0, 10.0)], 4)
        assert trace.utilization() == pytest.approx(0.25)

    def test_wait_cycles_excluded_from_busy(self, execute):
        tasks = [
            owner_task(0, compute=10.0, peer=1, fixup=5.0),
            contributor_task(1, compute=30.0, store=2.0),
        ]
        trace = execute(tasks, 2)
        rec = trace.cta_record(0)
        assert rec.busy_cycles == pytest.approx(15.0)

    def test_gantt_rows_sorted_by_slot(self, execute):
        trace = execute([compute_task(i, 5.0) for i in range(3)], 2)
        rows = trace.gantt_rows()
        assert rows and all(len(r) == 5 for r in rows)

    def test_missing_record_raises(self, execute):
        trace = execute([compute_task(0, 1.0)], 1)
        with pytest.raises(KeyError):
            trace.cta_record(99)


class TestValidation:
    def test_duplicate_cta_ids_rejected(self, execute):
        with pytest.raises(ConfigurationError, match="duplicate"):
            execute([compute_task(0, 1.0), compute_task(0, 1.0)], 2)

    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            Executor(0)

    def test_empty_task_list(self, execute):
        trace = execute([], 4)
        assert trace.makespan == 0.0
        assert trace.utilization() == 1.0

"""Executor failure diagnostics: wait chains, cycles, internal defenses.

``DeadlockError`` must carry an actionable diagnosis — which CTA is
blocked on which slot, and why that signal can never arrive — for every
way a run can wedge: waiter-before-producer launch orders under full
residency, waits on slots nobody signals, circular waits, and (in
``tests/faults``) dropped signals.
"""

from types import SimpleNamespace

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.gpu import CtaTask, SegmentKind, TimedSegment


def owner(cta, peer, compute=1.0):
    return CtaTask(
        cta=cta,
        segments=(
            TimedSegment(SegmentKind.COMPUTE, compute),
            TimedSegment(SegmentKind.WAIT, 0.0, peer),
            TimedSegment(SegmentKind.FIXUP, 1.0, peer),
        ),
    )


def contributor(cta, compute=1.0):
    return CtaTask(
        cta=cta,
        segments=(
            TimedSegment(SegmentKind.COMPUTE, compute),
            TimedSegment(SegmentKind.STORE_PARTIALS, 0.0),
            TimedSegment(SegmentKind.SIGNAL, 0.0, cta),
        ),
    )


def wait_then_signal(cta, peer):
    """A CTA that waits on ``peer`` before publishing its own flag."""
    return CtaTask(
        cta=cta,
        segments=(
            TimedSegment(SegmentKind.COMPUTE, 1.0),
            TimedSegment(SegmentKind.WAIT, 0.0, peer),
            TimedSegment(SegmentKind.FIXUP, 1.0, peer),
            TimedSegment(SegmentKind.STORE_PARTIALS, 0.0),
            TimedSegment(SegmentKind.SIGNAL, 0.0, cta),
        ),
    )


class TestWaitChainDiagnostics:
    def test_unlaunchable_producer_named(self, execute):
        """Waiter-before-producer under full residency: mid-dispatch raise."""
        tasks = [owner(0, peer=1), contributor(1)]
        with pytest.raises(DeadlockError) as exc:
            execute(tasks, 1)
        err = exc.value
        assert err.blocked == [0]
        assert err.cycle is None
        ((cta, slot, reason),) = err.wait_chain
        assert (cta, slot) == (0, 1)
        assert "never launched" in reason
        assert "CTA 1" in reason
        assert "CTA 0 waits on slot 1" in str(err)

    def test_wait_on_slot_nobody_signals(self, execute):
        tasks = [owner(0, peer=7)]
        with pytest.raises(DeadlockError) as exc:
            execute(tasks, 4)
        ((cta, slot, reason),) = exc.value.wait_chain
        assert (cta, slot) == (0, 7)
        assert "no CTA ever signals slot 7" in reason
        assert exc.value.cycle is None

    def test_circular_wait_reported_as_cycle(self, execute):
        tasks = [wait_then_signal(0, peer=1), wait_then_signal(1, peer=0)]
        with pytest.raises(DeadlockError) as exc:
            execute(tasks, 2)
        err = exc.value
        assert err.blocked == [0, 1]
        assert err.cycle is not None and sorted(err.cycle) == [0, 1]
        reasons = {cta: reason for cta, _, reason in err.wait_chain}
        assert "itself blocked on slot 0" in reasons[0]
        assert "itself blocked on slot 1" in reasons[1]
        assert "wait cycle: CTA" in str(err)

    def test_three_cta_cycle(self, execute):
        tasks = [
            wait_then_signal(0, peer=1),
            wait_then_signal(1, peer=2),
            wait_then_signal(2, peer=0),
        ]
        with pytest.raises(DeadlockError) as exc:
            execute(tasks, 3)
        assert sorted(exc.value.cycle) == [0, 1, 2]

    def test_chain_into_unlaunched_producer(self, execute):
        """A wait chain that terminates off-machine is not a cycle."""
        tasks = [
            wait_then_signal(0, peer=1),  # blocked on 1
            wait_then_signal(1, peer=2),  # blocked on 2
            contributor(2),               # never launches: 2 slots, both held
        ]
        with pytest.raises(DeadlockError) as exc:
            execute(tasks, 2)
        err = exc.value
        assert err.cycle is None
        reasons = {cta: reason for cta, _, reason in err.wait_chain}
        assert "itself blocked on slot 2" in reasons[0]
        assert "never launched" in reasons[1]

    def test_partial_progress_still_recorded(self, execute):
        """CTAs that finished before the wedge are not in the chain."""
        tasks = [contributor(2), owner(0, peer=1), contributor(1)]
        with pytest.raises(DeadlockError) as exc:
            execute(tasks, 1)
        # CTA 2 ran to completion on the single slot; then CTA 0 wedged it.
        assert exc.value.blocked == [0]
        assert all(cta != 2 for cta, _, _ in exc.value.wait_chain)


class TestInternalDefenses:
    def test_double_signal_is_simulation_error(self, execute):
        """The executor defends against double publication even though
        CtaTask validation makes it unreachable through the public API."""
        rogue = SimpleNamespace(
            cta=0,
            segments=(
                TimedSegment(SegmentKind.SIGNAL, 0.0, 0),
                TimedSegment(SegmentKind.SIGNAL, 0.0, 0),
            ),
        )
        with pytest.raises(SimulationError, match="signalled twice"):
            execute([rogue], 1)

    def test_deadlock_is_a_simulation_error(self):
        assert issubclass(DeadlockError, SimulationError)

"""Discrete-event execution of CTA tasks on a simulated GPU.

The executor models the GPU block scheduler the paper's analysis assumes:

* ``num_sm_slots = num_sms * occupancy`` CTA slots;
* CTAs dispatch strictly in launch order, each onto the earliest-freeing
  slot (this produces the "wave" structure of data-parallel execution);
* a CTA runs its segments back to back; a ``WAIT`` on a peer flag spin-waits
  *holding its slot* until the peer's ``SIGNAL`` timestamp (Algorithm 4/5
  semantics);
* the slot frees when the CTA finishes.

The simulation is exact for this model: all signal timestamps among
dispatched CTAs are fully resolved before the next dispatch decision, so no
approximation or iteration-to-fixpoint is involved.  If every resident CTA
is blocked on flags owned by CTAs that cannot launch, the executor raises
:class:`~repro.errors.DeadlockError` — the same hang a real GPU would
experience with a waiter-before-producer launch order and full residency.
The error carries a structured wait-chain diagnostic naming, for every
blocked CTA, the slot it waits on and why that signal can never arrive
(including circular waits, reported as the blocking CTA cycle).

Fault injection (:mod:`repro.faults`) threads through here: an optional
:class:`~repro.faults.injector.FaultInjector` scales segment durations
per SM slot (stragglers/clock skew), adds preempt/restart penalties to
compute segments, delays flag publications, and drops signals outright —
dropped signals surface as the same clean ``DeadlockError`` (a discrete-
event simulator cannot literally hang, so the "GPU hang" is always
reported as a diagnosis, never experienced as one).

Two loops run this one model, and the kind of input selects the loop.
:meth:`Executor.run` walks task objects in pure Python: it is the
*bitwise oracle*, the reference the tests compare against (calibration's
few single-tile microbenchmarks also run it).  :meth:`Executor.run_arrays`
is the numpy event loop of :mod:`repro.gpu.backends`, bitwise identical
and much faster; every kernel simulation runs it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigurationError, DeadlockError, SimulationError
from ..obs.counters import inc_counter
from ..obs.profiler import span
from .backends import DeadlockCtaView, diagnose_deadlock, run_task_arrays
from .cta import CtaTask, SegmentKind
from .trace import CtaRecord, ExecutionTrace, SegmentRecord

__all__ = ["Executor"]


@dataclass
class _CtaState:
    task: CtaTask
    sm_slot: int = -1
    time: float = 0.0
    start: float = 0.0
    cursor: int = 0
    records: "list[SegmentRecord]" = field(default_factory=list)
    finished: bool = False

    @property
    def blocked_on(self) -> "int | None":
        segs = self.task.segments
        if self.cursor < len(segs) and segs[self.cursor].kind is SegmentKind.WAIT:
            return segs[self.cursor].slot
        return None

    @property
    def launched(self) -> bool:
        return self.sm_slot >= 0


class Executor:
    """Runs CTA tasks to completion on ``num_sm_slots`` slots.

    ``faults``, when given, is a :class:`~repro.faults.injector.
    FaultInjector` consulted at every injection site; ``None`` (the
    default) is the pristine fast path and is bitwise identical to a
    null-config injector.
    """

    def __init__(self, num_sm_slots: int, faults=None):
        if num_sm_slots <= 0:
            raise ConfigurationError(
                "need at least one SM slot, got %d" % num_sm_slots
            )
        self.num_sm_slots = num_sm_slots
        self.faults = faults

    def run_arrays(self, arrays) -> ExecutionTrace:
        """Execute a :class:`~repro.gpu.backends.TaskArrays` on the numpy
        event loop — the path every simulation takes.

        Callers price schedules straight into arrays
        (:meth:`~repro.gpu.costmodel.KernelCostModel.build_task_arrays`),
        so no task objects are ever built; tests feed hand-built task
        lists through :func:`~repro.gpu.backends.tasks_to_arrays`.
        """
        return run_task_arrays(arrays, self.num_sm_slots, faults=self.faults)

    def run(self, tasks: "list[CtaTask]") -> ExecutionTrace:
        """The oracle: execute ``tasks`` in launch order on the pure-Python
        loop; return the full trace.

        Besides returning the trace, each run publishes volume counters to
        :mod:`repro.obs.counters` (``executor.runs|ctas|segments``,
        ``executor.spin_waits|signals``, ``executor.backend.python``,
        plus ``faults.*`` from the injector) — one batched update per
        run, so the per-segment hot loop stays untouched.
        """
        ids = [t.cta for t in tasks]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate CTA ids in task list")

        inj = self.faults
        spin_parks = [0]  # CTAs that actually blocked on an unpublished flag
        states = [_CtaState(task=t) for t in tasks]
        by_slot_signal: "dict[int, float]" = {}  # partial slot -> signal time
        dropped_slots: "set[int]" = set()  # slots whose signal was dropped
        waiters: "dict[int, list[_CtaState]]" = {}
        pending = deque(states)
        # (free_time, slot_index); one entry per currently-free slot.
        free_slots: "list[tuple[float, int]]" = [
            (0.0, s) for s in range(self.num_sm_slots)
        ]
        heapq.heapify(free_slots)
        trace = ExecutionTrace(num_sm_slots=self.num_sm_slots)

        def advance(ready: "list[_CtaState]") -> None:
            """Drain a stack of runnable CTAs, cascading through signals."""
            while ready:
                st = ready.pop()
                segs = st.task.segments
                while st.cursor < len(segs):
                    seg = segs[st.cursor]
                    if seg.kind is SegmentKind.WAIT:
                        sig = by_slot_signal.get(seg.slot)
                        if sig is None:
                            # Spin-wait, holding the SM slot.
                            spin_parks[0] += 1
                            waiters.setdefault(seg.slot, []).append(st)
                            break
                        end = max(st.time, sig)
                        st.records.append(
                            SegmentRecord(seg.kind, st.time, end, seg.slot)
                        )
                        st.time = end
                    else:
                        cycles = seg.cycles
                        if inj is not None:
                            cycles = inj.segment_cycles(
                                st.task.cta,
                                st.cursor,
                                seg.kind,
                                cycles,
                                st.sm_slot,
                            )
                        end = st.time + cycles
                        if seg.kind is SegmentKind.SIGNAL:
                            slot = st.task.cta if seg.slot is None else seg.slot
                            if slot in by_slot_signal or slot in dropped_slots:
                                raise SimulationError(
                                    "slot %d signalled twice" % slot
                                )
                            if inj is not None and inj.signal_dropped(
                                st.task.cta
                            ):
                                # The flag never becomes visible: waiters on
                                # this slot stay parked and are diagnosed as
                                # a deadlock when the run cannot complete.
                                dropped_slots.add(slot)
                            else:
                                if inj is not None:
                                    # Slow flag propagation: publication is
                                    # charged as the segment's duration, so
                                    # the trace shows when the flag landed.
                                    end += inj.signal_delay(st.task.cta)
                                by_slot_signal[slot] = end
                                for w in waiters.pop(slot, []):
                                    ready.append(w)
                        st.records.append(
                            SegmentRecord(seg.kind, st.time, end, seg.slot)
                        )
                        st.time = end
                    st.cursor += 1
                else:
                    st.finished = True
                    trace.ctas.append(
                        CtaRecord(
                            cta=st.task.cta,
                            sm_slot=st.sm_slot,
                            start=st.start,
                            finish=st.time,
                            segments=tuple(st.records),
                        )
                    )
                    heapq.heappush(free_slots, (st.time, st.sm_slot))

        with span("executor_run"):
            while pending:
                if not free_slots:
                    raise self._deadlock(states, by_slot_signal, dropped_slots)
                t, slot = heapq.heappop(free_slots)
                st = pending.popleft()
                st.sm_slot = slot
                st.start = st.time = t
                advance([st])

            unfinished = [s for s in states if not s.finished]
            if unfinished:
                raise self._deadlock(states, by_slot_signal, dropped_slots)

        inc_counter("executor.backend.python")
        inc_counter("executor.runs")
        inc_counter("executor.ctas", len(tasks))
        inc_counter("executor.segments", sum(len(t.segments) for t in tasks))
        inc_counter("executor.spin_waits", spin_parks[0])
        inc_counter("executor.signals", len(by_slot_signal))

        trace.ctas.sort(key=lambda c: c.cta)
        return trace

    # ------------------------------------------------------------------ #
    # Deadlock diagnosis                                                  #
    # ------------------------------------------------------------------ #

    def _deadlock(
        self,
        states: "list[_CtaState]",
        by_slot_signal: "dict[int, float]",
        dropped_slots: "set[int]",
    ) -> DeadlockError:
        """Build the wait-chain diagnostic for an unprogressable run.

        The diagnosis itself lives in :func:`repro.gpu.backends.
        diagnose_deadlock`, shared with the array backends so every
        backend reports bitwise-identical wait chains; this method just
        projects the oracle's states onto the shared view.
        """
        views = [
            DeadlockCtaView(
                cta=s.task.cta,
                signals_slot=s.task.signals_slot,
                launched=s.launched,
                finished=s.finished,
                blocked_on=s.blocked_on,
            )
            for s in states
        ]
        return diagnose_deadlock(views, by_slot_signal, dropped_slots)

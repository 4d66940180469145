"""Array executor backend: the discrete-event model over flat arrays.

The pure-Python :class:`~repro.gpu.executor.Executor` is this repo's
*bitwise oracle*: exact, heavily tested, and slow — every simulated
segment allocates a :class:`~repro.gpu.trace.SegmentRecord` and walks a
chain of frozen dataclasses.  This module re-runs the same discrete-event
model over flat numpy arrays (:class:`TaskArrays`) and is required to be
**bitwise identical** to the oracle: same ``ExecutionTrace`` segment
timings, same ``DeadlockError`` wait chains, same ``executor.*`` and
``faults.*`` counters.

One event loop serves every schedule — data-parallel and fixed-split
tiles dispatched in waves as well as Stream-K's single wave of
persistent CTAs, pristine or faulted.  It is the oracle's algorithm
verbatim over flat arrays with zero per-segment allocation, consulting
the fault injector (when one is given) in the oracle's exact query
order.

The kind of input is the only selector: ``Executor.run(tasks)`` is the
oracle, kept as the test reference, and ``Executor.run_arrays(arrays)``
is this loop, which every kernel simulation runs
(:func:`~repro.gpu.simulate.simulate_kernel`, the fault sweep, the
CLI).  :func:`tasks_to_arrays` feeds hand-built task lists to it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DeadlockError, SimulationError
from ..obs.counters import inc_counter
from ..obs.profiler import span
from ..schedules.flatten import KIND_NAMES, KIND_SIGNAL, KIND_WAIT
from .cta import SegmentKind
from .trace import (
    CODE_TO_KIND,
    KIND_TO_CODE,
    CtaRecord,
    ExecutionTrace,
    SegmentColumns,
    SegmentRecord,
)

__all__ = [
    "ArrayTrace",
    "DeadlockCtaView",
    "TaskArrays",
    "diagnose_deadlock",
    "run_task_arrays",
    "tasks_to_arrays",
]

# The trace's kind codes must index-align with the flattener's.
if tuple(k.value for k in CODE_TO_KIND) != KIND_NAMES:  # pragma: no cover
    raise AssertionError("segment-kind codes drifted from SegmentKind")


# ---------------------------------------------------------------------- #
# Task arrays                                                             #
# ---------------------------------------------------------------------- #


class TaskArrays:
    """A priced CTA/segment stream as flat parallel arrays.

    The array counterpart of ``list[CtaTask]``: ``ctas`` in launch
    order, CSR ``seg_off`` row pointers, and per-segment ``kinds``
    (flattener codes), ``cycles`` (base-priced, pre-fault-multiplier)
    and ``slots`` (-1 = none; ``SIGNAL`` rows carry the CTA's own slot).

    The derived per-CTA ``signal_slot`` (the slot each CTA publishes,
    -1 if none) is precomputed once for deadlock diagnosis.
    """

    __slots__ = ("ctas", "seg_off", "kinds", "cycles", "slots", "signal_slot")

    def __init__(self, ctas, seg_off, kinds, cycles, slots):
        self.ctas = np.ascontiguousarray(ctas, dtype=np.int64)
        self.seg_off = np.ascontiguousarray(seg_off, dtype=np.int64)
        self.kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        self.cycles = np.ascontiguousarray(cycles, dtype=np.float64)
        self.slots = np.ascontiguousarray(slots, dtype=np.int64)
        n = self.ctas.shape[0]
        if np.unique(self.ctas).shape[0] != n:
            raise ConfigurationError("duplicate CTA ids in task list")
        self.signal_slot = np.full(n, -1, dtype=np.int64)
        sig_idx = np.flatnonzero(self.kinds == KIND_SIGNAL)
        if sig_idx.size:
            srows = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.seg_off)
            )[sig_idx]
            sslots = self.slots[sig_idx]
            self.signal_slot[srows] = np.where(
                sslots < 0, self.ctas[srows], sslots
            )

    @property
    def num_ctas(self) -> int:
        return self.ctas.shape[0]

    @property
    def num_segments(self) -> int:
        return self.kinds.shape[0]


def tasks_to_arrays(tasks) -> TaskArrays:
    """Lower a ``list[CtaTask]`` into :class:`TaskArrays`.

    The loop is the only per-object walk an array-backend run performs;
    schedules coming from a cost model should prefer
    :meth:`~repro.gpu.costmodel.KernelCostModel.build_task_arrays`,
    which never builds the task objects at all.
    """
    ctas: "list[int]" = []
    offs: "list[int]" = [0]
    kinds: "list[int]" = []
    cycles: "list[float]" = []
    slots: "list[int]" = []
    for t in tasks:
        ctas.append(t.cta)
        for s in t.segments:
            kinds.append(KIND_TO_CODE[s.kind])
            cycles.append(s.cycles)
            if s.slot is None:
                slots.append(t.cta if s.kind is SegmentKind.SIGNAL else -1)
            else:
                slots.append(s.slot)
        offs.append(len(kinds))
    return TaskArrays(ctas, offs, kinds, cycles, slots)


# ---------------------------------------------------------------------- #
# Lazy trace                                                              #
# ---------------------------------------------------------------------- #


class ArrayTrace(ExecutionTrace):
    """An :class:`~repro.gpu.trace.ExecutionTrace` backed by arrays.

    ``makespan`` comes straight from the finish-time array and
    :meth:`segment_columns` from the segment arrays; the
    :class:`~repro.gpu.trace.CtaRecord` list materializes lazily on
    first access to ``ctas``, so throughput paths (benchmarks, fault
    sweeps and their invariant checks) never pay for per-segment record
    objects.  Once materialized, records are bitwise identical to the
    oracle's — same values, same ordering (sorted by CTA id).
    """

    def __init__(
        self, num_sm_slots, arrays, seg_start, seg_end, sm_slot, start, finish
    ):
        self.num_sm_slots = num_sm_slots
        self._arrays = arrays
        self._seg_start = seg_start
        self._seg_end = seg_end
        self._sm_slot = sm_slot
        self._start = start
        self._finish = finish
        self._records: "list[CtaRecord] | None" = None

    @property
    def ctas(self) -> "list[CtaRecord]":
        if self._records is None:
            self._records = self._materialize()
        return self._records

    @ctas.setter
    def ctas(self, value) -> None:
        self._records = value

    @property
    def makespan(self) -> float:
        if self._finish.shape[0] == 0:
            return 0.0
        return float(self._finish.max())

    def segment_columns(self) -> SegmentColumns:
        a = self._arrays
        return SegmentColumns.sorted_by_cta(
            a.ctas,
            a.seg_off,
            self._start,
            a.kinds,
            self._seg_start,
            self._seg_end,
            a.slots,
        )

    def _materialize(self) -> "list[CtaRecord]":
        a = self._arrays
        starts = self._seg_start.tolist()
        ends = self._seg_end.tolist()
        kinds = a.kinds.tolist()
        slots = a.slots.tolist()
        seg_off = a.seg_off.tolist()
        cta_ids = a.ctas.tolist()
        sm_slot = self._sm_slot.tolist()
        t0 = self._start.tolist()
        t1 = self._finish.tolist()
        records = []
        for i in sorted(range(len(cta_ids)), key=cta_ids.__getitem__):
            segs = tuple(
                SegmentRecord(
                    CODE_TO_KIND[kinds[j]],
                    starts[j],
                    ends[j],
                    slots[j] if slots[j] >= 0 else None,
                )
                for j in range(seg_off[i], seg_off[i + 1])
            )
            records.append(
                CtaRecord(
                    cta=cta_ids[i],
                    sm_slot=sm_slot[i],
                    start=t0[i],
                    finish=t1[i],
                    segments=segs,
                )
            )
        return records


# ---------------------------------------------------------------------- #
# Deadlock diagnosis (shared with the oracle)                             #
# ---------------------------------------------------------------------- #


@dataclass
class DeadlockCtaView:
    """The per-CTA facts deadlock diagnosis needs, backend-agnostic."""

    cta: int
    signals_slot: "int | None"
    launched: bool
    finished: bool
    blocked_on: "int | None"


def diagnose_deadlock(views, by_slot_signal, dropped_slots) -> DeadlockError:
    """Build the wait-chain diagnostic for an unprogressable run.

    For every blocked CTA: name the slot it waits on and *why* that
    signal can never arrive — the producer was never launched (no free
    slot), the producer itself is blocked (possibly forming a cycle),
    the producer's flag was dropped by fault injection, or no task ever
    signals the slot at all.  Detects and reports the first circular
    wait (the blocking CTA cycle) when one exists.  Every backend funnels
    through here, so wait chains are identical by construction.
    """
    by_cta = {v.cta: v for v in views}
    producer_of_slot = {
        v.signals_slot: v.cta for v in views if v.signals_slot is not None
    }
    blocked = sorted(
        v.cta for v in views if not v.finished and v.blocked_on is not None
    )

    wait_chain: "list[tuple[int, int, str]]" = []
    for cta in blocked:
        slot = by_cta[cta].blocked_on
        if slot in dropped_slots:
            reason = (
                "signal from CTA %d was dropped by fault injection"
                % producer_of_slot.get(slot, slot)
            )
        elif slot in by_slot_signal:  # pragma: no cover - defensive
            reason = "signal published but waiter not released"
        elif slot not in producer_of_slot:
            reason = "no CTA ever signals slot %d" % slot
        else:
            producer = by_cta[producer_of_slot[slot]]
            if not producer.launched:
                reason = (
                    "producer CTA %d never launched (all SM slots held "
                    "by blocked CTAs)" % producer.cta
                )
            elif producer.blocked_on is not None:
                reason = "producer CTA %d is itself blocked on slot %d" % (
                    producer.cta,
                    producer.blocked_on,
                )
            elif producer.finished:
                reason = (
                    "producer CTA %d finished without publishing"
                    % producer.cta
                )
            else:  # pragma: no cover - defensive
                reason = "producer CTA %d stalled" % producer.cta
        wait_chain.append((cta, slot, reason))

    cycle = _find_cycle(by_cta, producer_of_slot, blocked)
    return DeadlockError(blocked, wait_chain=wait_chain, cycle=cycle)


def _find_cycle(by_cta, producer_of_slot, blocked) -> "list[int] | None":
    """First circular wait among blocked CTAs, as a CTA id list."""
    for start in blocked:
        path: "list[int]" = []
        seen: "dict[int, int]" = {}
        cta = start
        while True:
            if cta in seen:
                return path[seen[cta]:]
            seen[cta] = len(path)
            path.append(cta)
            view = by_cta.get(cta)
            slot = view.blocked_on if view is not None else None
            if slot is None or slot not in producer_of_slot:
                break
            cta = producer_of_slot[slot]
    return None


# ---------------------------------------------------------------------- #
# Backend entry point                                                     #
# ---------------------------------------------------------------------- #


def run_task_arrays(
    arrays: TaskArrays, num_sm_slots: int, faults=None
) -> ExecutionTrace:
    """Execute a :class:`TaskArrays` with the numpy backend.

    Publishes the same ``executor.*`` counters as the oracle (plus an
    ``executor.backend.numpy`` tally) and returns an
    :class:`ArrayTrace`; raises the oracle's exact ``DeadlockError`` /
    ``SimulationError`` on unprogressable or malformed runs.
    """
    if num_sm_slots <= 0:
        raise ConfigurationError(
            "need at least one SM slot, got %d" % num_sm_slots
        )
    with span("executor_run"):
        trace, parks, n_signals = _run_event_loop(arrays, num_sm_slots, faults)

    inc_counter("executor.backend.numpy")
    inc_counter("executor.runs")
    inc_counter("executor.ctas", arrays.num_ctas)
    inc_counter("executor.segments", arrays.num_segments)
    inc_counter("executor.spin_waits", parks)
    inc_counter("executor.signals", n_signals)
    return trace


def _run_event_loop(arrays: TaskArrays, num_sm_slots: int, faults):
    """The oracle's algorithm verbatim over flat arrays.

    No per-segment allocation: start/end times land in flat lists turned
    into the ArrayTrace's arrays at the end.  ``faults=None`` is the
    pristine run; otherwise injector queries happen in the oracle's
    exact order, so even the injection *log order* matches; only with
    preemption configured is ``segment_cycles`` called per segment.
    """
    n = arrays.num_ctas
    S = arrays.num_segments
    seg_off = arrays.seg_off.tolist()
    kinds = arrays.kinds.tolist()
    cyc = arrays.cycles.tolist()
    slots = arrays.slots.tolist()
    cta_ids = arrays.ctas.tolist()

    seg_start = [0.0] * S
    seg_end = [0.0] * S
    time = [0.0] * n
    start = [0.0] * n
    cursor = [seg_off[i] for i in range(n)]
    sm_slot = [-1] * n
    finished = [False] * n

    by_slot_signal: "dict[int, float]" = {}
    dropped_slots: "set[int]" = set()
    waiters: "dict[int, list[int]]" = {}
    free_slots = [(0.0, s) for s in range(num_sm_slots)]
    heapq.heapify(free_slots)
    inj = faults
    # Without preemption ``segment_cycles`` is bitwise cycles times the
    # slot multiplier, fetched once per slot where the oracle first asks.
    priced = inj is not None and inj.config.preempt_prob > 0.0
    slot_mult: "dict[int, float]" = {}
    parks = 0
    W, G = KIND_WAIT, KIND_SIGNAL

    def advance(ready: "list[int]") -> None:
        nonlocal parks
        while ready:
            r = ready.pop()
            j = cursor[r]
            end_j = seg_off[r + 1]
            t = time[r]
            while j < end_j:
                k = kinds[j]
                if k == W:
                    sig = by_slot_signal.get(slots[j])
                    if sig is None:
                        parks += 1
                        waiters.setdefault(slots[j], []).append(r)
                        break
                    end = max(t, sig)
                else:
                    c = cyc[j]
                    if priced:
                        c = inj.segment_cycles(
                            cta_ids[r],
                            j - seg_off[r],
                            CODE_TO_KIND[k],
                            c,
                            sm_slot[r],
                        )
                    elif inj is not None:
                        m = slot_mult.get(sm_slot[r])
                        if m is None:
                            m = slot_mult[sm_slot[r]] = inj.slot_multiplier(sm_slot[r])
                        c *= m
                    end = t + c
                    if k == G:
                        slot = slots[j]
                        if slot in by_slot_signal or slot in dropped_slots:
                            raise SimulationError(
                                "slot %d signalled twice" % slot
                            )
                        if inj is not None and inj.signal_dropped(cta_ids[r]):
                            dropped_slots.add(slot)
                        else:
                            if inj is not None:
                                end += inj.signal_delay(cta_ids[r])
                            by_slot_signal[slot] = end
                            for wr in waiters.pop(slot, []):
                                ready.append(wr)
                seg_start[j] = t
                seg_end[j] = end
                t = end
                j += 1
            cursor[r] = j
            time[r] = t
            if j >= end_j:
                finished[r] = True
                heapq.heappush(free_slots, (t, sm_slot[r]))

    def deadlock() -> DeadlockError:
        views = []
        for r in range(n):
            j = cursor[r]
            blocked_on = (
                slots[j] if (j < seg_off[r + 1] and kinds[j] == W) else None
            )
            views.append(
                DeadlockCtaView(
                    cta=cta_ids[r],
                    signals_slot=(
                        int(arrays.signal_slot[r])
                        if arrays.signal_slot[r] >= 0
                        else None
                    ),
                    launched=sm_slot[r] >= 0,
                    finished=finished[r],
                    blocked_on=blocked_on,
                )
            )
        return diagnose_deadlock(views, by_slot_signal, dropped_slots)

    nxt = 0
    while nxt < n:
        if not free_slots:
            raise deadlock()
        t, slot = heapq.heappop(free_slots)
        r = nxt
        nxt += 1
        sm_slot[r] = slot
        start[r] = time[r] = t
        advance([r])

    if not all(finished):
        raise deadlock()

    trace = ArrayTrace(
        num_sm_slots,
        arrays,
        np.array(seg_start, dtype=np.float64),
        np.array(seg_end, dtype=np.float64),
        sm_slot=np.array(sm_slot, dtype=np.int64),
        start=np.array(start, dtype=np.float64),
        finish=np.array(time, dtype=np.float64),
    )
    return trace, parks, len(by_slot_signal)

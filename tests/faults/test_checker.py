"""Protocol invariant checker: accepts legal runs, catches broken ones.

Structural breaches use duck-typed schedule fixtures (gaps, overlaps,
missing owners); temporal breaches tamper a legally-executed trace and
assert the race detector names the violation.  Every temporal and
conservation case runs twice: on the oracle's record-backed
:class:`ExecutionTrace` and on the numpy backend's column-backed
:class:`ArrayTrace` tampered the same way, which must give the same
message.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ProtocolViolation
from repro.faults import (
    FaultConfig,
    FaultInjector,
    check_protocol_invariants,
)
from repro.faults.checker import InvariantReport
from repro.gemm import FP16_FP32, FP64, Blocking, GemmProblem, TileGrid
from repro.gpu import (
    A100,
    HYPOTHETICAL_4SM,
    CtaTask,
    Executor,
    ExecutionTrace,
    KernelCostModel,
    SegmentKind,
    TimedSegment,
    simulate_kernel,
)
from repro.gpu.backends import ArrayTrace, tasks_to_arrays
from repro.schedules.registry import DECOMPOSITION_NAMES
from repro.schedules.workitem import CtaWorkItem, SegmentRole, TileSegment
from repro.faults.sweep import build_registered_schedule

OWNER = SegmentRole.OWNER
CONTRIB = SegmentRole.CONTRIBUTOR

DUMMY_TRACE = ExecutionTrace(num_sm_slots=1)


def fake_schedule(work_items, iters_per_tile=8, num_tiles=1):
    """Duck-typed stand-in: just the attributes the checker reads."""
    return SimpleNamespace(
        grid=SimpleNamespace(iters_per_tile=iters_per_tile, num_tiles=num_tiles),
        work_items=list(work_items),
    )


def owner_item(cta, tile=0, end=4, peers=()):
    return CtaWorkItem(
        cta=cta, segments=(TileSegment(tile, 0, end, OWNER, tuple(peers)),)
    )


def contrib_item(cta, tile=0, begin=4, end=8):
    return CtaWorkItem(
        cta=cta, segments=(TileSegment(tile, begin, end, CONTRIB),)
    )


# --------------------------------------------------------------------- #
# A minimal legal (schedule, trace) pair for tampering                    #
# --------------------------------------------------------------------- #


def execute(tasks, num_sm_slots, arrays=False):
    """Run ``tasks`` on the oracle, or on the numpy loop (``arrays``)."""
    if arrays:
        return Executor(num_sm_slots).run_arrays(tasks_to_arrays(tasks))
    return Executor(num_sm_slots).run(tasks)


def legal_pair(arrays=False):
    """One owner (CTA 0) accumulating one contributor (CTA 1)."""
    schedule = fake_schedule(
        [owner_item(0, peers=(1,)), contrib_item(1)]
    )
    tasks = [
        CtaTask(
            cta=0,
            segments=(
                TimedSegment(SegmentKind.PROLOGUE, 1.0),
                TimedSegment(SegmentKind.COMPUTE, 4.0),
                TimedSegment(SegmentKind.WAIT, 0.0, 1),
                TimedSegment(SegmentKind.FIXUP, 2.0, 1),
                TimedSegment(SegmentKind.STORE_TILE, 1.0),
            ),
        ),
        CtaTask(
            cta=1,
            segments=(
                TimedSegment(SegmentKind.PROLOGUE, 1.0),
                TimedSegment(SegmentKind.COMPUTE, 6.0),
                TimedSegment(SegmentKind.STORE_PARTIALS, 1.0),
                TimedSegment(SegmentKind.SIGNAL, 0.0, 1),
            ),
        ),
    ]
    return schedule, execute(tasks, 2, arrays)


def tamper(trace, cta, index=None, segment=None, drop_index=None, **rec_changes):
    """Rebuild ``trace`` with one CTA's record altered."""
    if isinstance(trace, ArrayTrace):
        return tamper_arrays(
            trace, cta, index, segment, drop_index, **rec_changes
        )
    ctas = []
    for rec in trace.ctas:
        if rec.cta == cta:
            segs = list(rec.segments)
            if drop_index is not None:
                del segs[drop_index]
            if index is not None:
                segs[index] = dataclasses.replace(segs[index], **segment)
            rec = dataclasses.replace(rec, segments=tuple(segs), **rec_changes)
        ctas.append(rec)
    return ExecutionTrace(num_sm_slots=trace.num_sm_slots, ctas=ctas)


def _columns(trace):
    """Copies of an ArrayTrace's columns, keyed by record field name."""
    a = trace._arrays
    return {
        "cta": a.ctas.copy(),
        "seg_off": a.seg_off.copy(),
        "sm_slot": trace._sm_slot.copy(),
        "start": trace._start.copy(),
        "finish": trace._finish.copy(),
        "kind": a.kinds.copy(),
        "seg_start": trace._seg_start.copy(),
        "seg_end": trace._seg_end.copy(),
        "slot": a.slots.copy(),
    }


def _array_trace(num_sm_slots, c):
    # A plain namespace stands in for TaskArrays, which would refuse the
    # duplicate CTA ids some fixtures need.
    arrays = SimpleNamespace(
        ctas=c["cta"], seg_off=c["seg_off"], kinds=c["kind"], slots=c["slot"]
    )
    return ArrayTrace(
        num_sm_slots,
        arrays,
        c["seg_start"],
        c["seg_end"],
        sm_slot=c["sm_slot"],
        start=c["start"],
        finish=c["finish"],
    )


_SEGMENT_COLUMN = {"start": "seg_start", "end": "seg_end", "slot": "slot"}


def tamper_arrays(
    trace, cta, index=None, segment=None, drop_index=None, **rec_changes
):
    """:func:`tamper` for an ArrayTrace: edit its columns, not records."""
    c = _columns(trace)
    row = int(np.flatnonzero(c["cta"] == cta)[0])
    if drop_index is not None:
        j = c["seg_off"][row] + drop_index
        for name in ("kind", "seg_start", "seg_end", "slot"):
            c[name] = np.delete(c[name], j)
        c["seg_off"][row + 1:] -= 1
    if index is not None:
        j = c["seg_off"][row] + index
        for field, value in segment.items():
            c[_SEGMENT_COLUMN[field]][j] = -1 if value is None else value
    for field, value in rec_changes.items():
        c[field][row] = value
    return _array_trace(trace.num_sm_slots, c)


def select_ctas(trace, rows):
    """``trace`` with just the CTA rows listed, in order (repeats allowed)."""
    if not isinstance(trace, ArrayTrace):
        return ExecutionTrace(
            num_sm_slots=trace.num_sm_slots, ctas=[trace.ctas[r] for r in rows]
        )
    c = _columns(trace)
    off = c["seg_off"]
    segs = [np.arange(off[r], off[r + 1]) for r in rows]
    idx = np.concatenate(segs)
    picked = {
        name: c[name][rows] for name in ("cta", "sm_slot", "start", "finish")
    }
    for name in ("kind", "seg_start", "seg_end", "slot"):
        picked[name] = c[name][idx]
    lengths = [len(x) for x in segs]
    picked["seg_off"] = np.concatenate(([0], np.cumsum(lengths)))
    return _array_trace(trace.num_sm_slots, picked)


def violation(schedule, trace, match, **kwargs):
    """Assert the checker rejects ``trace``; return the message."""
    with pytest.raises(ProtocolViolation, match=match) as info:
        check_protocol_invariants(schedule, trace, **kwargs)
    message = str(info.value)
    if isinstance(trace, ArrayTrace):
        # The same columns as oracle-style records must fail identically.
        twin = ExecutionTrace(trace.num_sm_slots, ctas=trace._materialize())
        with pytest.raises(ProtocolViolation) as twin_info:
            check_protocol_invariants(schedule, twin, **kwargs)
        assert str(twin_info.value) == message
    return message


# --------------------------------------------------------------------- #
# Acceptance: every registered schedule, faulted or not                   #
# --------------------------------------------------------------------- #


class TestAcceptsLegalRuns:
    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    def test_registered_schedules_pass(self, name):
        problem = GemmProblem(384, 384, 128, dtype=FP16_FP32)
        grid = TileGrid(problem, Blocking(128, 128, 32))
        schedule = build_registered_schedule(name, grid, HYPOTHETICAL_4SM)
        simulate_kernel(schedule, HYPOTHETICAL_4SM, check_invariants=True)

    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    def test_registered_schedules_pass_under_faults(self, name):
        problem = GemmProblem(384, 384, 128, dtype=FP16_FP32)
        grid = TileGrid(problem, Blocking(128, 128, 32))
        schedule = build_registered_schedule(name, grid, HYPOTHETICAL_4SM)
        cfg = FaultConfig.straggler_sweep_point(1.5, seed=11)
        simulate_kernel(
            schedule, HYPOTHETICAL_4SM, faults=cfg, check_invariants=True
        )

    def test_report_counts_protocol_events(self):
        schedule, trace = legal_pair()
        report = check_protocol_invariants(schedule, trace)
        assert isinstance(report, InvariantReport)
        assert report.num_ctas == 2 and report.num_tiles == 1
        assert report.signals == report.fixups == report.waits == 1
        assert report.min_fixup_slack >= 0.0


# --------------------------------------------------------------------- #
# Structural breaches (broken-schedule fixtures)                          #
# --------------------------------------------------------------------- #


class TestStructuralBreaches:
    def check(self, schedule, match):
        with pytest.raises(ProtocolViolation, match=match):
            check_protocol_invariants(schedule, DUMMY_TRACE)

    def test_overlapping_k_ranges(self):
        sched = fake_schedule(
            [owner_item(0, end=6, peers=(1,)), contrib_item(1, begin=4)]
        )
        self.check(sched, "covered twice")

    def test_k_range_gap(self):
        sched = fake_schedule(
            [owner_item(0, end=3, peers=(1,)), contrib_item(1, begin=5)]
        )
        self.check(sched, "gap at iterations")

    def test_short_coverage(self):
        sched = fake_schedule([owner_item(0, end=6)])
        self.check(sched, "stops at iteration 6 of 8")

    def test_no_owner(self):
        sched = fake_schedule(
            [contrib_item(0, begin=0, end=4), contrib_item(1, begin=4)]
        )
        self.check(sched, "0 owners")

    def test_peer_list_mismatch(self):
        sched = fake_schedule(
            [owner_item(0, peers=(5,)), contrib_item(1)]
        )
        self.check(sched, "contributors")

    def test_tile_out_of_range(self):
        sched = fake_schedule([owner_item(0, tile=3, end=8)])
        self.check(sched, "outside grid")

    def test_uncovered_tile(self):
        sched = fake_schedule([owner_item(0, end=8)], num_tiles=2)
        self.check(sched, "no k-range coverage")


# --------------------------------------------------------------------- #
# Temporal breaches (tampered traces)                                     #
# --------------------------------------------------------------------- #


class TestTemporalBreaches:
    arrays = False  # tamper the oracle's records; see the subclass below

    def pair(self):
        return legal_pair(arrays=self.arrays)

    def test_legal_pair_sanity(self):
        schedule, trace = self.pair()
        check_protocol_invariants(schedule, trace)

    def test_wait_released_before_publication(self):
        schedule, trace = self.pair()
        # Publication lands at cycle 8; release the wait a cycle early.
        bad = tamper(trace, 0, index=2, segment={"end": 7.0})
        violation(schedule, bad, "before the flag")

    def test_wait_released_at_wrong_time(self):
        schedule, trace = self.pair()
        bad = tamper(trace, 0, index=2, segment={"end": 8.5})
        bad = tamper(bad, 0, index=3, segment={"start": 8.5})
        violation(schedule, bad, "not at max")

    def test_dropped_segment_breaks_kind_sequence(self):
        schedule, trace = self.pair()
        bad = tamper(trace, 0, drop_index=3)  # owner skips its FIXUP
        violation(schedule, bad, "prescribes")

    def test_wait_on_wrong_peer_slot(self):
        schedule, trace = self.pair()
        bad = tamper(trace, 0, index=2, segment={"slot": 9})
        violation(schedule, bad, "targets slot")

    def test_signal_on_foreign_slot(self):
        schedule, trace = self.pair()
        bad = tamper(trace, 1, index=3, segment={"slot": 0})
        violation(schedule, bad, "only its own")

    def test_overlapping_segments_within_cta(self):
        schedule, trace = self.pair()
        bad = tamper(trace, 1, index=2, segment={"start": 0.5})
        violation(schedule, bad, "before the previous")

    def test_duplicate_cta_record(self):
        schedule, trace = self.pair()
        violation(schedule, select_ctas(trace, [0, 1, 0]), "twice")

    def test_missing_cta_record(self):
        schedule, trace = self.pair()
        violation(schedule, select_ctas(trace, [0]), "mismatch")


class TestTemporalBreachesOnArrayTrace(TestTemporalBreaches):
    """The same tampers on an ArrayTrace's columns, same messages."""

    arrays = True


# --------------------------------------------------------------------- #
# Conservation breaches (partials leaked or double-counted)               #
# --------------------------------------------------------------------- #


class TestConservation:
    arrays = False

    def test_orphaned_partial(self):
        """A contributor signals but no owner ever accumulates it."""
        schedule = fake_schedule([owner_item(0, peers=()), contrib_item(1)])
        tasks = [
            CtaTask(
                cta=0,
                segments=(
                    TimedSegment(SegmentKind.PROLOGUE, 1.0),
                    TimedSegment(SegmentKind.COMPUTE, 4.0),
                    TimedSegment(SegmentKind.STORE_TILE, 1.0),
                ),
            ),
            CtaTask(
                cta=1,
                segments=(
                    TimedSegment(SegmentKind.PROLOGUE, 1.0),
                    TimedSegment(SegmentKind.COMPUTE, 6.0),
                    TimedSegment(SegmentKind.STORE_PARTIALS, 1.0),
                    TimedSegment(SegmentKind.SIGNAL, 0.0, 1),
                ),
            ),
        ]
        trace = execute(tasks, 2, self.arrays)
        violation(schedule, trace, "no owner ever", check_structure=False)

    def test_double_counted_partial(self):
        """Two owners both accumulate the same contributor's partials."""
        schedule = fake_schedule(
            [
                owner_item(0, tile=0, peers=(2,)),
                owner_item(1, tile=1, end=8, peers=(2,)),
                contrib_item(2, tile=0),
            ],
            num_tiles=2,
        )

        def owner_task(cta):
            return CtaTask(
                cta=cta,
                segments=(
                    TimedSegment(SegmentKind.PROLOGUE, 1.0),
                    TimedSegment(SegmentKind.COMPUTE, 4.0),
                    TimedSegment(SegmentKind.WAIT, 0.0, 2),
                    TimedSegment(SegmentKind.FIXUP, 2.0, 2),
                    TimedSegment(SegmentKind.STORE_TILE, 1.0),
                ),
            )

        tasks = [
            owner_task(0),
            owner_task(1),
            CtaTask(
                cta=2,
                segments=(
                    TimedSegment(SegmentKind.PROLOGUE, 1.0),
                    TimedSegment(SegmentKind.COMPUTE, 6.0),
                    TimedSegment(SegmentKind.STORE_PARTIALS, 1.0),
                    TimedSegment(SegmentKind.SIGNAL, 0.0, 2),
                ),
            ),
        ]
        trace = execute(tasks, 3, self.arrays)
        violation(schedule, trace, "double-counted", check_structure=False)


class TestConservationOnArrayTrace(TestConservation):
    arrays = True


# --------------------------------------------------------------------- #
# Precedence: which of two breaches is reported                           #
# --------------------------------------------------------------------- #


def leaky_triple(arrays=False):
    """``legal_pair`` plus CTA 2, first in work-item order, whose
    published partials no owner accumulates."""
    schedule = fake_schedule(
        [contrib_item(2, tile=1), owner_item(0, peers=(1,)), contrib_item(1)],
        num_tiles=2,
    )
    def contributor(cta):
        return CtaTask(
            cta=cta,
            segments=(
                TimedSegment(SegmentKind.PROLOGUE, 1.0),
                TimedSegment(SegmentKind.COMPUTE, 6.0),
                TimedSegment(SegmentKind.STORE_PARTIALS, 1.0),
                TimedSegment(SegmentKind.SIGNAL, 0.0, cta),
            ),
        )

    tasks = [
        CtaTask(
            cta=0,
            segments=(
                TimedSegment(SegmentKind.PROLOGUE, 1.0),
                TimedSegment(SegmentKind.COMPUTE, 4.0),
                TimedSegment(SegmentKind.WAIT, 0.0, 1),
                TimedSegment(SegmentKind.FIXUP, 2.0, 1),
                TimedSegment(SegmentKind.STORE_TILE, 1.0),
            ),
        ),
        contributor(1),
        contributor(2),
    ]
    return schedule, execute(tasks, 3, arrays)


class TestPrecedence:
    """Each fixture holds two breaches; the message that wins is pinned.

    Order: structure, then pass 1 (shape and timing) in work-item order,
    then pass 2 (publication races), then conservation.
    """

    arrays = False

    def test_structure_before_pass_one(self):
        _, trace = legal_pair(self.arrays)
        schedule = fake_schedule(
            [owner_item(0, end=3, peers=(1,)), contrib_item(1, begin=5)]
        )
        bad = tamper(trace, 1, index=2, segment={"start": 0.5})
        assert violation(schedule, bad, "gap") == (
            "tile 0: k-range gap at iterations [3, 5)"
        )

    def test_pass_one_in_work_item_order(self):
        # CTA 0 (first work item) overlaps a segment; CTA 1 drops one.
        schedule, trace = legal_pair(self.arrays)
        bad = tamper(trace, 0, index=4, segment={"start": 9.0})
        bad = tamper(bad, 1, drop_index=2)
        assert violation(schedule, bad, "CTA 0") == (
            "CTA 0: segment 4 (store_tile) starts at cycle 9.000, before "
            "the previous segment ended at 10.000"
        )

    def test_pass_one_before_pass_two(self):
        # CTA 1 publishes late (CTA 0's wait now releases before the
        # flag, a pass-2 race) and also overlaps a segment (pass 1).
        schedule, trace = legal_pair(self.arrays)
        bad = tamper(trace, 1, index=3, segment={"end": 20.0})
        bad = tamper(bad, 1, index=2, segment={"start": 0.5})
        assert violation(schedule, bad, "CTA 1") == (
            "CTA 1: segment 2 (store_partials) starts at cycle 0.500, "
            "before the previous segment ended at 7.000"
        )

    def test_race_before_leaked_partial(self):
        schedule, trace = leaky_triple(self.arrays)
        bad = tamper(trace, 1, index=3, segment={"end": 20.0})
        assert violation(
            schedule, bad, "before the flag", check_structure=False
        ) == (
            "CTA 0's wait on slot 1 released at cycle 8.000, before the "
            "flag was published at 20.000"
        )

    def test_leaked_partial_alone(self):
        schedule, trace = leaky_triple(self.arrays)
        assert violation(
            schedule, trace, "no owner", check_structure=False
        ) == "slot 2 stored partials that no owner ever accumulated"


class TestPrecedenceOnArrayTrace(TestPrecedence):
    arrays = True


# --------------------------------------------------------------------- #
# ArrayTrace: checked over its columns, same report as the oracle's      #
# --------------------------------------------------------------------- #


def _run_cell(name, gpu, problem, severity, backend):
    blocking = Blocking(*problem.dtype.default_blocking)
    grid = TileGrid(problem, blocking)
    schedule = build_registered_schedule(name, grid, gpu)
    cost = KernelCostModel(gpu=gpu, blocking=blocking, dtype=problem.dtype)
    config = FaultConfig.straggler_sweep_point(severity, seed=3)
    injector = FaultInjector(config)
    exe = Executor(gpu.total_cta_slots, faults=injector)
    if backend == "python":
        return schedule, exe.run(cost.build_tasks(schedule, faults=injector))
    return schedule, exe.run_arrays(
        cost.build_task_arrays(schedule, faults=injector)
    )


CELLS = [
    (HYPOTHETICAL_4SM, GemmProblem(384, 384, 128, dtype=FP16_FP32)),
    (A100, GemmProblem(1024, 1024, 512, dtype=FP64)),
]


class TestArrayTraceChecking:
    @pytest.mark.parametrize("severity", [0.0, 1.0])
    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    @pytest.mark.parametrize("cell", CELLS, ids=["hypothetical_4sm", "a100"])
    def test_backends_give_equal_reports(self, cell, name, severity):
        gpu, problem = cell
        schedule, oracle = _run_cell(name, gpu, problem, severity, "python")
        _, fast = _run_cell(name, gpu, problem, severity, "numpy")
        assert check_protocol_invariants(
            schedule, fast
        ) == check_protocol_invariants(schedule, oracle)

    def test_check_builds_no_records(self):
        gpu, problem = CELLS[0]
        schedule, fast = _run_cell("stream_k", gpu, problem, 1.0, "numpy")
        check_protocol_invariants(schedule, fast)
        assert fast._records is None

"""Execution traces produced by the discrete-event executor.

A :class:`ExecutionTrace` records, for every CTA: which SM slot ran it, when
each segment started and ended, and how long it spent spin-waiting.  From
that it derives the quantities the paper plots — makespan, per-SM busy time,
utilization, and Gantt rows for the schedule diagrams (Figures 1–3, 9).

Traces have two renderers: the ASCII Gantt charts in
``examples/schedule_visualizer.py``, and
:func:`repro.obs.export.trace_to_chrome`, which exports the same timeline
as Chrome/Perfetto ``trace_event`` JSON (one track per SM slot, colored
segment kinds, spin-waits flagged red) — ``python -m repro trace`` on the
command line, schema contract in ``docs/TRACING.md``.

For whole-trace analysis (the protocol invariant checker),
:meth:`ExecutionTrace.segment_columns` lowers a trace to
:class:`SegmentColumns`, CSR arrays that every trace type can produce
without building per-segment objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cta import SegmentKind

__all__ = [
    "CODE_TO_KIND",
    "KIND_TO_CODE",
    "SegmentRecord",
    "CtaRecord",
    "ExecutionTrace",
    "SegmentColumns",
]

#: Integer code -> SegmentKind (declaration order), and back.  The
#: schedule flattener's ``KIND_*`` codes use the same order.
CODE_TO_KIND = tuple(SegmentKind)
KIND_TO_CODE = {k: i for i, k in enumerate(CODE_TO_KIND)}


@dataclass(frozen=True)
class SegmentRecord:
    """One executed segment: [start, end) in cycles."""

    kind: SegmentKind
    start: float
    end: float
    slot: "int | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CtaRecord:
    """One CTA's executed timeline."""

    cta: int
    sm_slot: int
    start: float
    finish: float
    segments: "tuple[SegmentRecord, ...]"

    @property
    def wait_cycles(self) -> float:
        """Total cycles spent spin-waiting on peer flags."""
        return sum(
            s.duration for s in self.segments if s.kind is SegmentKind.WAIT
        )

    @property
    def busy_cycles(self) -> float:
        """Cycles doing intrinsic work (everything but waits)."""
        return (self.finish - self.start) - self.wait_cycles


@dataclass(frozen=True, eq=False)
class SegmentColumns:
    """A trace's segments as CSR columns, rows sorted by CTA id.

    Per CTA row: ``cta`` (int64), ``cta_start`` (float64) and the row
    pointers ``seg_off`` (one longer; row ``i`` owns segments
    ``seg_off[i]:seg_off[i+1]``).  Per segment: ``kind``
    (:data:`KIND_TO_CODE` codes, int8), ``seg_start``/``seg_end``
    (float64 cycles) and ``slot`` (int64, -1 for none).
    """

    cta: np.ndarray
    seg_off: np.ndarray
    cta_start: np.ndarray
    kind: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    slot: np.ndarray

    @classmethod
    def sorted_by_cta(
        cls, cta, seg_off, cta_start, kind, seg_start, seg_end, slot
    ) -> "SegmentColumns":
        """Build from rows in any order, stably permuting them by CTA id."""
        order = np.argsort(cta, kind="stable")
        if np.array_equal(order, np.arange(order.shape[0])):
            return cls(cta, seg_off, cta_start, kind, seg_start, seg_end, slot)
        lengths = np.diff(seg_off)[order]
        off = np.concatenate(([0], np.cumsum(lengths)))
        idx = np.repeat(seg_off[order] - off[:-1], lengths)
        idx += np.arange(off[-1])
        return cls(
            cta[order],
            off,
            cta_start[order],
            kind[idx],
            seg_start[idx],
            seg_end[idx],
            slot[idx],
        )


@dataclass
class ExecutionTrace:
    """Complete record of one simulated kernel execution."""

    num_sm_slots: int
    ctas: "list[CtaRecord]" = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Cycles from launch to the last CTA's completion."""
        return max((c.finish for c in self.ctas), default=0.0)

    @property
    def total_busy_cycles(self) -> float:
        return sum(c.busy_cycles for c in self.ctas)

    @property
    def total_wait_cycles(self) -> float:
        return sum(c.wait_cycles for c in self.ctas)

    def utilization(self) -> float:
        """Fraction of slot-cycles spent on intrinsic work.

        This is the processor-utilization quantity from the paper's Figure 1
        discussion: busy cycles over (slots x makespan).  Spin-waiting and
        idle tail cycles both count against it.
        """
        span = self.makespan
        if span <= 0.0:
            return 1.0
        return self.total_busy_cycles / (self.num_sm_slots * span)

    def slot_busy_cycles(self) -> "dict[int, float]":
        """Per-SM-slot intrinsic-work cycles."""
        busy: "dict[int, float]" = {s: 0.0 for s in range(self.num_sm_slots)}
        for c in self.ctas:
            busy[c.sm_slot] = busy.get(c.sm_slot, 0.0) + c.busy_cycles
        return busy

    def gantt_rows(self) -> "list[tuple[int, int, float, float, str]]":
        """(sm_slot, cta, start, end, kind) rows for schedule diagrams."""
        rows = []
        for c in sorted(self.ctas, key=lambda r: (r.sm_slot, r.start)):
            for s in c.segments:
                rows.append((c.sm_slot, c.cta, s.start, s.end, s.kind.value))
        return rows

    def segment_columns(self) -> SegmentColumns:
        """The trace as :class:`SegmentColumns`, in one walk of ``ctas``."""
        ctas: "list[int]" = []
        offs: "list[int]" = [0]
        starts: "list[float]" = []
        kinds: "list[int]" = []
        seg_start: "list[float]" = []
        seg_end: "list[float]" = []
        slots: "list[int]" = []
        for rec in self.ctas:
            ctas.append(rec.cta)
            starts.append(rec.start)
            for s in rec.segments:
                kinds.append(KIND_TO_CODE[s.kind])
                seg_start.append(s.start)
                seg_end.append(s.end)
                slots.append(-1 if s.slot is None else s.slot)
            offs.append(len(kinds))
        return SegmentColumns.sorted_by_cta(
            np.array(ctas, dtype=np.int64),
            np.array(offs, dtype=np.int64),
            np.array(starts, dtype=np.float64),
            np.array(kinds, dtype=np.int8),
            np.array(seg_start, dtype=np.float64),
            np.array(seg_end, dtype=np.float64),
            np.array(slots, dtype=np.int64),
        )

    def cta_record(self, cta: int) -> CtaRecord:
        for c in self.ctas:
            if c.cta == cta:
                return c
        raise KeyError("no record for CTA %d" % cta)

    def render_ascii(self, width: int = 80) -> str:
        """Render the schedule as a text Gantt chart, one row per SM slot.

        One character per time slice: a base-62 glyph identifies the CTA,
        ``~`` marks spin-waiting on a peer flag, ``.`` is an idle slot —
        the paper's Figures 1–3 in terminal form.
        """
        alphabet = (
            "0123456789abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        )
        span = self.makespan
        if span <= 0:
            return "\n".join(
                "SM%-3d |%s|" % (s, "." * width)
                for s in range(self.num_sm_slots)
            )
        rows = [["."] * width for _ in range(self.num_sm_slots)]
        for rec in self.ctas:
            glyph = alphabet[rec.cta % len(alphabet)]
            for seg in rec.segments:
                lo = int(seg.start / span * width)
                hi = max(lo + 1, int(seg.end / span * width))
                ch = "~" if seg.kind is SegmentKind.WAIT else glyph
                for x in range(lo, min(hi, width)):
                    rows[rec.sm_slot][x] = ch
        return "\n".join(
            "SM%-3d |%s|" % (s, "".join(row)) for s, row in enumerate(rows)
        )

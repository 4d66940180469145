"""Protocol invariant checker: a race detector for the Stream-K carry.

:func:`check_protocol_invariants` replays an executed
:class:`~repro.gpu.trace.ExecutionTrace` against the
:class:`~repro.schedules.base.Schedule` that produced it and proves the
partials/fixup protocol held — independently of both the schedule
builders and the executor, so a bug in either is caught rather than
trusted.  It asserts:

**Structural coverage** (k-space accounting, re-derived from scratch):

* every output tile's k-range ``[0, iters_per_tile)`` is covered exactly
  once — no gaps, no double-computed iterations — across all partials
  and the owner's slice;
* exactly one owner per tile, holding the ``k = 0`` iteration;
* the owner's peer list equals the tile's contributor set.

**Temporal protocol** (replayed from the trace's cycle timestamps):

* every CTA's executed segment-kind sequence matches what its work item
  prescribes (prologue, compute runs, WAIT+FIXUP per peer in reduction
  order, the epilogue store) — preemptions and jitter stretch segments
  but never reorder or drop them;
* segments within a CTA are contiguous and non-overlapping in time;
* every contributor publishes its flag exactly once, on its own slot;
* **no read-before-write race**: every FIXUP of a peer's partial starts
  at or after that peer's SIGNAL publication timestamp;
* every WAIT released exactly at ``max(wait_start, publication)``;
* every stored partial is consumed by exactly one owner (nothing leaks,
  nothing is double-accumulated).

Any breach raises :class:`~repro.errors.ProtocolViolation` with the
tile/CTA/cycle named.  The checker is fault-oblivious by design: it must
pass on every registered schedule under every injected fault environment
that completes (stragglers, jitter, delays, preemptions), because those
faults reorder *time*, not the protocol.

**Columns, not records.**  The trace side is read through
:meth:`~repro.gpu.trace.ExecutionTrace.segment_columns` (CSR arrays, rows
sorted by CTA id), so an :class:`~repro.gpu.backends.ArrayTrace` is
checked without building a single record.  The prescribed side comes from
one walk of ``schedule.work_items`` — never from the flattener the
executor consumes — and every invariant is then a numpy pass over both.
When a pass finds a breach, it locates and reports the first offender.
Structure comes first (tile by tile), then per-CTA shape and timing in
work-item order, then the cross-CTA race checks in work-item order, then
conservation in publication order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ProtocolViolation
from ..gpu.cta import SegmentKind
from ..gpu.trace import CODE_TO_KIND, KIND_TO_CODE, ExecutionTrace
from ..obs.counters import inc_counter
from ..obs.profiler import span
from ..schedules.base import Schedule

__all__ = ["InvariantReport", "check_protocol_invariants"]

#: Timestamp slack for float comparisons, in cycles.  The executor does
#: exact float arithmetic, so this only absorbs representation noise.
_EPS = 1e-9

_PROLOGUE = KIND_TO_CODE[SegmentKind.PROLOGUE]
_COMPUTE = KIND_TO_CODE[SegmentKind.COMPUTE]
_STORE_PARTIALS = KIND_TO_CODE[SegmentKind.STORE_PARTIALS]
_SIGNAL = KIND_TO_CODE[SegmentKind.SIGNAL]
_WAIT = KIND_TO_CODE[SegmentKind.WAIT]
_FIXUP = KIND_TO_CODE[SegmentKind.FIXUP]
_STORE_TILE = KIND_TO_CODE[SegmentKind.STORE_TILE]

_CONTRIBUTOR_KINDS = (_COMPUTE, _STORE_PARTIALS, _SIGNAL)


@dataclass(frozen=True)
class InvariantReport:
    """Summary of one successful invariant check."""

    num_ctas: int
    num_tiles: int
    signals: int
    fixups: int
    waits: int
    #: Smallest observed (fixup start - publication) gap, in cycles —
    #: how close the run came to a read-before-write race.
    min_fixup_slack: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            "invariants ok: %d CTAs, %d tiles, %d signals, %d fixups, "
            "%d waits, min fixup slack %.1f cycles"
            % (
                self.num_ctas,
                self.num_tiles,
                self.signals,
                self.fixups,
                self.waits,
                self.min_fixup_slack,
            )
        )


def _fail(message: str) -> None:
    inc_counter("faults.invariant_violations")
    raise ProtocolViolation(message)


def _names(codes) -> "list[str]":
    return [CODE_TO_KIND[c].value for c in codes.tolist()]


# --------------------------------------------------------------------- #
# The prescribed side, from the work items                               #
# --------------------------------------------------------------------- #


class _Prescribed:
    """``schedule.work_items`` as columns, built in one walk.

    Per work item: ``cta`` and the CSR ``off`` into the prescribed
    segment stream ``kind`` — a PROLOGUE, then per tile segment a
    COMPUTE followed, for an owner, by a (WAIT, FIXUP) pair per peer and
    a STORE_TILE, for a contributor by STORE_PARTIALS and SIGNAL — with
    ``slot`` the peer a WAIT/FIXUP targets (-1 elsewhere).  Per tile
    segment: ``tile``, ``begin``, ``end``, ``owner``, ``seg_cta``; per
    owner peer, in reduction order: ``peer`` and its ``peer_tile``.
    """

    def __init__(self, work_items):
        ctas: "list[int]" = []
        offs: "list[int]" = [0]
        kinds: "list[int]" = []
        tiles: "list[int]" = []
        begins: "list[int]" = []
        ends: "list[int]" = []
        owners: "list[bool]" = []
        seg_ctas: "list[int]" = []
        peers: "list[int]" = []
        peer_tiles: "list[int]" = []
        for w in work_items:
            cta = w.cta
            ctas.append(cta)
            kinds.append(_PROLOGUE)
            for s in w.segments:
                tiles.append(s.tile_idx)
                begins.append(s.iter_begin)
                ends.append(s.iter_end)
                seg_ctas.append(cta)
                if s.is_owner:
                    owners.append(True)
                    kinds.append(_COMPUTE)
                    kinds.extend((_WAIT, _FIXUP) * len(s.peers))
                    kinds.append(_STORE_TILE)
                    peers.extend(s.peers)
                    peer_tiles.extend([s.tile_idx] * len(s.peers))
                else:
                    owners.append(False)
                    kinds.extend(_CONTRIBUTOR_KINDS)
            offs.append(len(kinds))
        self.cta = np.array(ctas, dtype=np.int64)
        self.off = np.array(offs, dtype=np.int64)
        self.kind = np.array(kinds, dtype=np.int8)
        self.tile = np.array(tiles, dtype=np.int64)
        self.begin = np.array(begins, dtype=np.int64)
        self.end = np.array(ends, dtype=np.int64)
        self.owner = np.array(owners, dtype=bool)
        self.seg_cta = np.array(seg_ctas, dtype=np.int64)
        self.peer = np.array(peers, dtype=np.int64)
        self.peer_tile = np.array(peer_tiles, dtype=np.int64)
        # WAIT/FIXUP pairs appear in the stream in peer order.
        self.slot = np.full(self.kind.shape[0], -1, dtype=np.int64)
        self.slot[(self.kind == _WAIT) | (self.kind == _FIXUP)] = np.repeat(
            self.peer, 2
        )


# --------------------------------------------------------------------- #
# Structural coverage                                                    #
# --------------------------------------------------------------------- #


def _peer_mismatch(p: _Prescribed, num_tiles: int) -> np.ndarray:
    """Per tile: do its owners' peers differ from its contributors?

    Compares the multisets ``{(tile, peer)}`` and ``{(tile, contributor
    cta)}`` with signed counts per distinct pair.
    """
    contrib = ~p.owner
    tiles = np.concatenate([p.peer_tile, p.tile[contrib]])
    vals = np.concatenate([p.peer, p.seg_cta[contrib]])
    sign = np.ones(tiles.shape[0], dtype=np.int64)
    sign[p.peer.shape[0]:] = -1
    bad = np.zeros(num_tiles, dtype=bool)
    if tiles.shape[0] == 0:
        return bad
    order = np.lexsort((vals, tiles))
    tiles, vals, sign = tiles[order], vals[order], sign[order]
    new = np.ones(tiles.shape[0], dtype=bool)
    new[1:] = (tiles[1:] != tiles[:-1]) | (vals[1:] != vals[:-1])
    first = np.flatnonzero(new)
    bad[tiles[first[np.add.reduceat(sign, first) != 0]]] = True
    return bad


def _check_structure(p: _Prescribed, ipt: int, num_tiles: int) -> None:
    """K-space accounting: exact single coverage of every tile's k-range."""
    outside = (p.tile < 0) | (p.tile >= num_tiles)
    if outside.any():
        i = int(np.argmax(outside))
        _fail(
            "CTA %d references tile %d outside grid of %d"
            % (p.seg_cta[i], p.tile[i], num_tiles)
        )
    uncovered = np.flatnonzero(np.bincount(p.tile, minlength=num_tiles) == 0)
    if uncovered.size:
        _fail(
            "tiles with no k-range coverage: %s%s"
            % (uncovered[:8].tolist(), "..." if uncovered.size > 8 else "")
        )
    if num_tiles == 0:
        return

    # Each tile's segments sorted by (begin, end, owner, cta); every one
    # must start where the previous one ended, the first at k = 0.
    order = np.lexsort((p.seg_cta, p.owner, p.end, p.begin, p.tile))
    tile, begin, end = p.tile[order], p.begin[order], p.end[order]
    first = np.ones(tile.shape[0], dtype=bool)
    first[1:] = tile[1:] != tile[:-1]
    cursor = np.zeros_like(end)
    cursor[1:] = end[:-1]
    cursor[first] = 0
    misjoined = begin != cursor
    reached = end[np.append(first[1:], True)]  # one per tile, in order
    owners = np.bincount(p.tile[p.owner], minlength=num_tiles)

    bad = (reached != ipt) | (owners != 1) | _peer_mismatch(p, num_tiles)
    bad[tile[misjoined]] = True
    if not bad.any():
        return
    t = int(np.argmax(bad))
    joins = np.flatnonzero(misjoined & (tile == t))
    if joins.size:
        i = joins[0]
        if begin[i] < cursor[i]:
            _fail(
                "tile %d: k-range [%d, %d) covered twice (CTA %d "
                "overlaps at iteration %d)"
                % (
                    t,
                    begin[i],
                    min(end[i], cursor[i]),
                    p.seg_cta[order[i]],
                    begin[i],
                )
            )
        _fail(
            "tile %d: k-range gap at iterations [%d, %d)"
            % (t, cursor[i], begin[i])
        )
    if reached[t] != ipt:
        _fail(
            "tile %d: k-range coverage stops at iteration %d of %d"
            % (t, reached[t], ipt)
        )
    if owners[t] != 1:
        _fail(
            "tile %d: %d owners of the k=0 slice (need exactly 1)"
            % (t, owners[t])
        )
    _fail(
        "tile %d: owner accumulates peers %r but contributors are %r"
        % (
            t,
            sorted(p.peer[p.peer_tile == t].tolist()),
            sorted(p.seg_cta[(p.tile == t) & ~p.owner].tolist()),
        )
    )


# --------------------------------------------------------------------- #
# The executed side, from the trace                                      #
# --------------------------------------------------------------------- #


class _Executed:
    """The trace's segment columns regrouped in work-item order.

    Work item ``i`` owns elements ``off[i]:off[i+1]`` of ``kind``,
    ``start``, ``end`` and ``slot``; ``item``/``cta`` name each
    element's work item and CTA, and ``cursor`` is when the element may
    start at the earliest: its CTA's start for the first segment, the
    previous segment's end otherwise.  A SIGNAL without a slot publishes
    its own CTA's.
    """

    def __init__(self, got, p: _Prescribed):
        row = np.searchsorted(got.cta, p.cta)
        self.length = got.seg_off[row + 1] - got.seg_off[row]
        self.off = off = np.concatenate(([0], np.cumsum(self.length)))
        self.item = np.repeat(np.arange(p.cta.shape[0]), self.length)
        idx = np.repeat(got.seg_off[row] - off[:-1], self.length)
        idx += np.arange(off[-1])
        self.kind = got.kind[idx]
        self.start = got.seg_start[idx]
        self.end = got.seg_end[idx]
        self.cta = p.cta[self.item]
        self.is_signal = self.kind == _SIGNAL
        self.slot = np.where(
            self.is_signal & (got.slot[idx] < 0), self.cta, got.slot[idx]
        )
        self.cursor = np.empty_like(self.end)
        self.cursor[1:] = self.end[:-1]
        nonempty = self.length > 0
        self.cursor[off[:-1][nonempty]] = got.cta_start[row[nonempty]]


def _check_ctas(p: _Prescribed, got) -> None:
    """One trace row per CTA, and the same CTA set as the work items."""
    repeat = got.cta[1:][got.cta[1:] == got.cta[:-1]]
    if repeat.size:
        _fail("trace records CTA %d twice" % repeat[0])
    item_ctas = np.unique(p.cta)
    if not np.array_equal(item_ctas, got.cta):
        _fail(
            "trace/schedule CTA mismatch: missing %s, unexpected %s"
            % (
                np.setdiff1d(item_ctas, got.cta)[:8].tolist(),
                np.setdiff1d(got.cta, item_ctas)[:8].tolist(),
            )
        )


def _check_shapes(p: _Prescribed, x: _Executed) -> np.ndarray:
    """Pass 1: per-CTA kinds, targets and timing; returns the SIGNALs.

    A work item fails on its kind sequence first, then on a WAIT/FIXUP
    target, then on its first segment that starts early, ends before it
    starts, or publishes a foreign or already-published slot.
    """
    n = p.cta.shape[0]
    # Element-wise comparison against the prescription, in the items
    # whose segment count is right: prescribed element e is executed g.
    exp_len = np.diff(p.off)
    same_len = x.length == exp_len
    exp_item = np.repeat(np.arange(n), exp_len)
    e = np.flatnonzero(same_len[exp_item])
    g = e - p.off[exp_item[e]] + x.off[exp_item[e]]
    wrong_kind = ~same_len
    wrong_kind[exp_item[e[x.kind[g] != p.kind[e]]]] = True
    targets = (p.kind[e] == _WAIT) | (p.kind[e] == _FIXUP)
    mistarget = e[targets & (x.slot[g] != p.slot[e])]
    wrong_slot = np.zeros(n, dtype=bool)
    wrong_slot[exp_item[mistarget]] = True

    early = x.start < x.cursor - _EPS
    reversed_ = x.end < x.start - _EPS
    foreign = x.is_signal & (x.slot != x.cta)
    signals = np.flatnonzero(x.is_signal)
    twice = np.zeros(x.kind.shape[0], dtype=bool)
    twice[signals] = True
    twice[signals[np.unique(x.slot[signals], return_index=True)[1]]] = False
    bad_at = early | reversed_ | foreign | twice

    bad = wrong_kind | wrong_slot
    bad[x.item[bad_at]] = True
    if not bad.any():
        return signals
    i = int(np.argmax(bad))
    cta = p.cta[i]
    if wrong_kind[i]:
        _fail(
            "CTA %d executed segment kinds %s but its work item "
            "prescribes %s"
            % (
                cta,
                _names(x.kind[x.off[i]:x.off[i + 1]]),
                _names(p.kind[p.off[i]:p.off[i + 1]]),
            )
        )
    if wrong_slot[i]:
        j = mistarget[exp_item[mistarget] == i][0]
        got_slot = int(x.slot[j - p.off[i] + x.off[i]])
        _fail(
            "CTA %d %s targets slot %r, expected peer %r"
            % (
                cta,
                CODE_TO_KIND[p.kind[j]].value,
                None if got_slot < 0 else got_slot,
                int(p.slot[j]),
            )
        )
    j = x.off[i] + int(np.argmax(bad_at[x.off[i]:x.off[i + 1]]))
    name = CODE_TO_KIND[x.kind[j]].value
    if early[j]:
        _fail(
            "CTA %d: segment %d (%s) starts at cycle %.3f, before the "
            "previous segment ended at %.3f"
            % (cta, j - x.off[i], name, x.start[j], x.cursor[j])
        )
    if reversed_[j]:
        _fail(
            "CTA %d: segment %d (%s) ends before it starts"
            % (cta, j - x.off[i], name)
        )
    if foreign[j]:
        _fail(
            "CTA %d published slot %d; the protocol allows only its own"
            % (cta, x.slot[j])
        )
    _fail("slot %d published twice" % x.slot[j])


def _check_reads(x: _Executed, pub_slot, pub_time):
    """Pass 2: the race detector proper, over every WAIT and FIXUP.

    Returns ``(wait, source, slack)`` per read: whether it is a WAIT,
    the index of the publication it read, and its start minus that
    publication's time.
    """
    is_wait = x.kind == _WAIT
    reads = np.flatnonzero(is_wait | (x.kind == _FIXUP))
    wait = is_wait[reads]
    slot, start, end = x.slot[reads], x.start[reads], x.end[reads]
    # Reads of a slot nobody published point at sentinel row n_pub.
    n_pub = pub_slot.shape[0]
    by_slot = np.argsort(pub_slot)
    pos = np.searchsorted(pub_slot, slot, sorter=by_slot)
    published = pos < n_pub
    published[published] = pub_slot[by_slot[pos[published]]] == slot[published]
    source = np.full(reads.shape[0], n_pub)
    source[published] = by_slot[pos[published]]
    pub = np.append(pub_time, np.nan)[source]
    slack = start - pub

    released_early = wait & (end < pub - _EPS)
    released_late = wait & (np.abs(end - np.maximum(start, pub)) > _EPS)
    raced = ~wait & (slack < -_EPS)
    bad = ~published | released_early | released_late | raced
    if not bad.any():
        return wait, source, slack
    k = int(np.argmax(bad))
    cta, s = x.cta[reads[k]], slot[k]
    if wait[k]:
        if not published[k]:
            _fail(
                "CTA %d waited on slot %d which was never published"
                % (cta, s)
            )
        if released_early[k]:
            _fail(
                "CTA %d's wait on slot %d released at cycle %.3f, before "
                "the flag was published at %.3f" % (cta, s, end[k], pub[k])
            )
        _fail(
            "CTA %d's wait on slot %d released at cycle %.3f, not at "
            "max(wait start %.3f, publication %.3f)"
            % (cta, s, end[k], start[k], pub[k])
        )
    if not published[k]:
        _fail(
            "race: CTA %d read slot %d's partials but slot %d never "
            "published" % (cta, s, s)
        )
    _fail(
        "race: CTA %d read slot %d's partials at cycle %.3f, %.3f cycles "
        "before publication at %.3f"
        % (cta, s, start[k], -slack[k], pub[k])
    )


# --------------------------------------------------------------------- #
# The checker                                                            #
# --------------------------------------------------------------------- #


def check_protocol_invariants(
    schedule: Schedule,
    trace: ExecutionTrace,
    check_structure: bool = True,
) -> InvariantReport:
    """Prove ``trace`` is a legal execution of ``schedule``'s protocol.

    Raises :class:`~repro.errors.ProtocolViolation` on the first breach;
    returns an :class:`InvariantReport` when everything holds.  Set
    ``check_structure=False`` to skip the (trace-independent) k-space
    accounting when replaying many traces of one already-checked
    schedule.
    """
    with span("invariant_check"):
        p = _Prescribed(schedule.work_items)
        num_tiles = schedule.grid.num_tiles
        if check_structure:
            _check_structure(p, schedule.grid.iters_per_tile, num_tiles)
        got = trace.segment_columns()
        _check_ctas(p, got)
        x = _Executed(got, p)
        signals = _check_shapes(p, x)
        pub_slot = x.slot[signals]
        wait, source, slack = _check_reads(x, pub_slot, x.end[signals])

        # Pass 3: conservation — every partial consumed exactly once.
        n_pub = pub_slot.shape[0]
        consumed = np.bincount(source[~wait], minlength=n_pub + 1)[:n_pub]
        misconsumed = np.flatnonzero(consumed != 1)
        if misconsumed.size:
            i = misconsumed[0]
            if consumed[i] == 0:
                _fail(
                    "slot %d stored partials that no owner ever accumulated"
                    % pub_slot[i]
                )
            _fail(
                "slot %d's partials were accumulated %d times "
                "(double-counted k-range)" % (pub_slot[i], consumed[i])
            )
        fixup_slack = slack[~wait]

    inc_counter("faults.invariant_checks")
    return InvariantReport(
        num_ctas=int(got.cta.shape[0]),
        num_tiles=num_tiles,
        signals=n_pub,
        fixups=int(fixup_slack.shape[0]),
        waits=int(wait.sum()),
        min_fixup_slack=float(fixup_slack.min()) if fixup_slack.size else 0.0,
    )

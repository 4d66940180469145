"""Closed-form makespans for the schedule families.

The discrete-event executor is the ground truth, but sweeping 32,824
problems through it is not how you build a corpus harness (the guides'
first rule: vectorize the hot path).  This module provides:

* **exact** closed forms where the schedule structure admits them —
  data-parallel waves (equal-cost CTAs under in-order earliest-slot
  dispatch) and any *single-wave* schedule (``g <= slots``, e.g. Stream-K
  and the hybrids), where all CTAs start at zero and every signal time is
  independent of every wait;
* **approximate** closed forms for multi-wave fixed-split grids, documented
  and bounded by tests against the executor.

The scalar forms are the references the executor tests pin.  The
``*_batch`` forms are their numpy twins over N problems, and they are
what prices a corpus: :func:`repro.plan.core.plan_batch` builds its
three Stream-K regimes from :func:`persistent_dp_makespan_batch`,
:func:`basic_streamk_makespan_batch` and :func:`two_tile_walk_batch`,
and :mod:`repro.harness.vectorized` prices fixed-split with
:func:`fixed_split_makespan_batch`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..gemm.tiling import ceil_div
from ..schedules.base import Schedule
from .costmodel import KernelCostModel

__all__ = [
    "data_parallel_makespan",
    "persistent_dp_makespan",
    "persistent_dp_makespan_batch",
    "fixed_split_makespan",
    "fixed_split_makespan_batch",
    "one_wave_makespan",
    "two_tile_hybrid_makespan",
    "two_tile_walk_batch",
    "dp_one_tile_hybrid_makespan",
    "basic_streamk_makespan",
    "basic_streamk_makespan_batch",
]

#: Row-chunk size for the batched Stream-K walk: bounds the transient
#: (rows, g_max) matrices (plus the log2(g_max)-level sparse max table) to a
#: few tens of MB regardless of corpus size.
_BATCH_ROW_CHUNK = 4096


def data_parallel_makespan(
    t: int, p: int, ipt: int, cost: KernelCostModel
) -> float:
    """Exact makespan of Algorithm 2: ``ceil(t/p)`` waves of equal CTAs.

    Every CTA costs ``prologue + c*ipt + store``; with equal costs,
    earliest-slot in-order dispatch degenerates to full waves, which is the
    quantization staircase of Figure 1.
    """
    waves = ceil_div(t, p)
    cta = cost.prologue_cycles + cost.cycles_per_iter * ipt + cost.store_tile_cycles
    return waves * cta


def persistent_dp_makespan(
    t: int, p: int, ipt: int, cost: KernelCostModel
) -> float:
    """Exact makespan of the persistent data-parallel form.

    ``min(p, t)`` CTAs each loop over ``ceil(t/g)`` tiles at most; the
    prologue is paid once per CTA rather than once per wave.
    """
    g = min(p, t)
    tiles_max = ceil_div(t, g)
    per_tile = cost.cycles_per_iter * ipt + cost.store_tile_cycles
    return cost.prologue_cycles + tiles_max * per_tile


def fixed_split_makespan(
    t: int, s: int, p: int, ipt: int, cost: KernelCostModel
) -> float:
    """Approximate makespan of Algorithm 4 with splitting factor ``s``.

    Aggregate-work list-scheduling model.  Each tile occupies its ``s``
    CTAs' slots for ``s - 1`` contributor durations ``D_c = prologue +
    c*share + store_partials`` plus one owner duration ``D_o``: when
    ``s <= p`` a tile's owner launches in the same wave as its peers and
    spin-waits until their signals (so its slot is busy ``D_c`` before the
    serial fixups even start); when ``s > p`` the peers finished waves ago
    and only the owner's own work remains.  List scheduling of near-equal
    tasks gives ``makespan ~= (total - D_last)/p + D_last``.  Wave-boundary
    effects make this an approximation (bounded against the executor in
    the test suite); exact at ``s = 1``.
    """
    s = min(s, ipt)
    share = ceil_div(ipt, s)
    c = cost.cycles_per_iter
    if s == 1:
        return data_parallel_makespan(t, p, ipt, cost)
    d_c = cost.prologue_cycles + c * share + cost.store_partials_cycles
    fixup_tail = (s - 1) * cost.fixup_cycles_per_peer + cost.store_tile_cycles
    if s <= p:
        d_o = d_c + fixup_tail
    else:
        d_o = cost.prologue_cycles + c * share + fixup_tail
    if t * s <= p:
        # Single wave: the owner's spin-wait path is the exact makespan.
        return d_o
    total = t * ((s - 1) * d_c + d_o)
    # List-scheduling estimate: per-slot share of the aggregate plus half
    # the Graham tail slack for the long-pole owners.
    return max(d_o, total / p + 0.5 * (p - 1) / p * d_o)


def one_wave_makespan(schedule: Schedule, cost: KernelCostModel, slots: int) -> float:
    """Exact makespan of any schedule whose grid fits in one wave.

    With ``g <= slots`` every CTA starts at cycle zero.  In every schedule
    this library builds, a CTA's one contributor segment is preceded only by
    wait-free owner segments (full data-parallel tiles), so its signal time
    never depends on any wait: signals resolve in one pass and finishes in a
    second — no event queue required.  This is the validation reference for
    the Stream-K/hybrid closed forms below and is itself validated against
    the executor.
    """
    if schedule.g > slots:
        raise ConfigurationError(
            "one_wave_makespan needs g=%d <= slots=%d" % (schedule.g, slots)
        )
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st = cost.store_tile_cycles

    signal: "dict[int, float]" = {}
    for w in schedule.work_items:
        contrib = next(
            (i for i, s in enumerate(w.segments) if not s.is_owner), None
        )
        if contrib is None:
            continue
        now = pro
        for seg in w.segments[:contrib]:
            if seg.peers:
                # A waiting segment ahead of a contributor would make the
                # signal wait-dependent; no schedule we build does this.
                raise ConfigurationError(
                    "CTA %d has a fixup-owning segment before its "
                    "contributor segment; signal time would depend on waits"
                    % w.cta
                )
            now += c * seg.num_iters + st
        signal[w.cta] = now + c * w.segments[contrib].num_iters + sp

    makespan = 0.0
    for w in schedule.work_items:
        now = pro
        for seg in w.segments:
            now += c * seg.num_iters
            if seg.is_owner:
                for peer in seg.peers:
                    now = max(now, signal[peer]) + fx
                now += st
            else:
                now += sp
        makespan = max(makespan, now)
    return makespan


def basic_streamk_makespan(
    t: int, g: int, ipt: int, cost: KernelCostModel
) -> float:
    """Exact one-wave makespan of basic Stream-K, by arithmetic walk.

    Replays the balanced-partition geometry of
    :func:`~repro.schedules.stream_k.partition_region` without building any
    schedule objects: per CTA, the timeline is (prologue, head contribution
    + partial store, a run of owned tiles, and for each tile finished by
    later CTAs a spin-wait on each peer's signal followed by a serial
    fixup).  All CTAs start at cycle zero, which is exact whenever
    ``g <= slots`` — the regime Stream-K requires anyway (co-residency).
    O(g + t); agreement with the event executor is asserted in the tests.
    """
    total = t * ipt
    g = min(g, total)
    base, rem = divmod(total, g)
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st = cost.store_tile_cycles

    def begin(x: int) -> int:
        return x * base + min(x, rem)

    # Signal time of every CTA that enters its range mid-tile: prologue,
    # the head compute (clamped to its share), then the partial store.
    sigs: "dict[int, float]" = {}
    for x in range(1, g):
        b = begin(x)
        head = (-b) % ipt
        if head:
            share = base + (1 if x < rem else 0)
            sigs[x] = pro + c * min(head, share) + sp

    makespan = 0.0
    for x in range(g):
        b = begin(x)
        e = b + base + (1 if x < rem else 0)
        now = pro
        pos = b
        head = (-b) % ipt
        if head:
            hh = min(head, e - b)
            now += c * hh + sp
            pos += hh
        while pos < e:
            tile_end = pos + ipt
            seg_end = min(e, tile_end)
            now += c * (seg_end - pos)
            if seg_end < tile_end:
                # This CTA owns the tile but later CTAs finish it: serial
                # reduction over every peer whose range starts inside it.
                y = x + 1
                while y < g and begin(y) < tile_end:
                    now = max(now, sigs[y]) + fx
                    y += 1
            now += st
            pos = seg_end
        makespan = max(makespan, now)
    return makespan


def basic_streamk_makespan_batch(
    t: np.ndarray,
    g: np.ndarray,
    ipt: np.ndarray,
    cost: KernelCostModel,
    row_chunk: int = _BATCH_ROW_CHUNK,
) -> np.ndarray:
    """Vectorized :func:`basic_streamk_makespan` over N independent problems.

    Replays the same balanced-partition walk, but broadcast over an
    ``(rows, g_max)`` CTA grid per fixed-size row chunk:

    * head contribution + partial-store signal per CTA;
    * the run of fully-owned tiles;
    * for a CTA whose range ends mid-tile, the serial fixup chain
      ``now = max(now, sig(y)) + fx`` over every peer ``y`` whose range
      starts inside that tile.  The chain unrolls to
      ``max(own_end + J*fx, max_y (sig(y) - y*fx) + (Y+1)*fx)`` — a range
      maximum over the contiguous peer window ``[x+1, Y]`` answered with a
      sparse (doubling) max table, O(g log g) instead of O(g^2).

    Element-for-element agreement with the scalar walk (and therefore with
    the discrete-event executor) is asserted in the test suite; the only
    difference is float summation order over a CTA's owned-tile run, which
    is bounded well below 1e-12 relative.
    """
    t = np.asarray(t, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    ipt = np.asarray(ipt, dtype=np.int64)
    if not (t.shape == g.shape == ipt.shape) or t.ndim != 1:
        raise ConfigurationError("t, g, ipt must be equal-length 1-D arrays")
    if t.size == 0:
        return np.empty(0, dtype=np.float64)
    if np.any(t <= 0) or np.any(g <= 0) or np.any(ipt <= 0):
        raise ConfigurationError("t, g, ipt must be positive")

    out = np.empty(t.shape[0], dtype=np.float64)
    for lo in range(0, t.shape[0], max(1, row_chunk)):
        sl = slice(lo, min(lo + max(1, row_chunk), t.shape[0]))
        out[sl] = _streamk_walk_chunk(t[sl], g[sl], ipt[sl], cost)
    return out


def _streamk_walk_chunk(
    t: np.ndarray, g: np.ndarray, ipt: np.ndarray, cost: KernelCostModel
) -> np.ndarray:
    """One row chunk of :func:`basic_streamk_makespan_batch`."""
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st = cost.store_tile_cycles

    total = t * ipt
    # All geometry lives in iteration space bounded by `total`; int32
    # halves the bandwidth and roughly doubles integer div/mod throughput
    # on the hot (rows, g) matrices whenever the corpus permits it.
    geo = np.int32 if int(total.max()) < np.iinfo(np.int32).max else np.int64
    total = total.astype(geo)
    ipt = ipt.astype(geo)
    g_eff = np.minimum(g.astype(geo), total)
    base = (total // g_eff)[:, None]
    rem = (total % g_eff)[:, None]
    gmax = int(g_eff.max())
    x = np.arange(gmax + 1, dtype=geo)[None, :]
    begins = x * base + np.minimum(x, rem)  # (n, gmax+1) range boundaries
    b = begins[:, :-1]
    e = begins[:, 1:]
    ipt_c = ipt[:, None]
    valid = x[:, :-1] < g_eff[:, None]

    share = e - b
    head = (-b) % ipt_c
    hh = np.minimum(head, share)
    # Signal time of every mid-tile entrant (head > 0): prologue, clamped
    # head compute, partial store.  Only such CTAs are ever waited on.
    sig = pro + c * hh + sp

    rem_iters = share - hh  # tile-aligned remainder of the range
    n_full = rem_iters // ipt_c
    last_part = rem_iters % ipt_c
    now = np.where(head > 0, pro + (c * hh + sp), float(pro))
    now = now + n_full * (c * ipt_c + st)
    own_end = now + c * last_part

    # Owner-with-peers path: the CTA's range ends inside a tile it started.
    use_fix = (last_part > 0) & valid
    tile_end = b + hh + (n_full + 1) * ipt_c  # first iter past the tile
    # Index of the CTA holding iteration q = tile_end - 1 (the tile's last):
    # ranges [begin(x), begin(x+1)) tile the iteration space, so this is the
    # last peer whose range starts inside the tile.
    q = np.where(use_fix, tile_end - 1, 0)
    cut = rem * (base + 1)  # iterations owned by the first `rem` CTAs
    y_last = np.where(q < cut, q // (base + 1), rem + (q - cut) // base)
    peers = np.where(use_fix, y_last - x[:, :-1], 0)  # J >= 1 where used

    # Range max of sig(y) - y*fx over the contiguous window [x+1, y_last].
    val = np.where(valid & (head > 0), sig - fx * x[:, :-1], -np.inf)
    win_max = _range_max(val, use_fix, y_last)
    fix_end = (
        np.maximum(own_end + peers * fx, win_max + (y_last + 1) * fx) + st
    )

    finish = np.where(use_fix, fix_end, own_end)
    finish = np.where(valid, finish, -np.inf)
    return finish.max(axis=1)


def _range_max(
    val: np.ndarray, use: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Per-element contiguous range max: for each (row, x) with ``use``
    set, ``max(val[row, x+1 : right[row, x] + 1])`` via a sparse table."""
    n, gmax = val.shape
    levels = max(1, gmax.bit_length())
    table = np.empty((levels, n, gmax), dtype=np.float64)
    table[0] = val
    for k in range(1, levels):
        off = 1 << (k - 1)
        prev = table[k - 1]
        table[k][:, : gmax - off] = np.maximum(
            prev[:, : gmax - off], prev[:, off:]
        )
        table[k][:, gmax - off:] = prev[:, gmax - off:]

    log2 = np.zeros(gmax + 1, dtype=np.int64)
    for i in range(2, gmax + 1):
        log2[i] = log2[i >> 1] + 1

    x = np.arange(gmax, dtype=np.int64)[None, :]
    left = np.minimum(x + 1, gmax - 1)
    r = np.clip(np.where(use, right, left), left, gmax - 1)
    length = r - left + 1
    k = log2[length]
    rows = np.arange(n, dtype=np.int64)[:, None]
    hi_start = r - (1 << k) + 1
    out = np.maximum(table[k, rows, left], table[k, rows, hi_start])
    return np.where(use, out, -np.inf)


def two_tile_hybrid_makespan(
    t: int, p: int, ipt: int, cost: KernelCostModel
) -> float:
    """Estimate of the two-tile-Stream-K + data-parallel hybrid makespan.

    Mirrors :func:`~repro.schedules.hybrid.two_tile_schedule`'s regimes:
    perfect quantization -> persistent DP (exact); fewer tiles than SMs ->
    basic Stream-K at ``g = p`` (Appendix-shaped estimate); otherwise an
    *exact* per-CTA walk of the Stream-K residual region — every CTA holds
    between one and two tiles' worth, so its timeline is head contribution,
    fully-owned tiles, at most one single-peer fixup, then ``w - 1``
    data-parallel tiles — maximized over the one-wave grid.  Agreement with
    the event executor is asserted in the test suite.
    """
    if t % p == 0:
        return persistent_dp_makespan(t, p, ipt, cost)
    w = t // p
    if w == 0:
        return basic_streamk_makespan(t, p, ipt, cost)
    sk_tiles = t - (w - 1) * p
    region = sk_tiles * ipt
    base, rem = divmod(region, p)
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st = cost.store_tile_cycles
    dp_tail = (w - 1) * (c * ipt + st)

    def begin(x: int) -> int:
        return x * base + min(x, rem)

    def head(x: int) -> int:
        return (-begin(x)) % ipt

    makespan = 0.0
    for x in range(p):
        b = begin(x)
        e = begin(x + 1) if x + 1 < p else region
        h = head(x)
        last_part = e % ipt
        n_owned = ceil_div(e, ipt) - ceil_div(b, ipt)
        fully_owned = n_owned - (1 if last_part else 0)
        now = pro
        if h:
            now += c * h + sp
        now += fully_owned * (c * ipt + st)
        if last_part:
            now += c * (last_part if n_owned else 0)
            peer_signal = pro + c * head(x + 1) + sp
            now = max(now, peer_signal) + fx + st
        makespan = max(makespan, now + dp_tail)
    return makespan


def dp_one_tile_hybrid_makespan(
    t: int, p: int, ipt: int, cost: KernelCostModel
) -> float:
    """Estimate of the data-parallel + one-tile-Stream-K hybrid makespan.

    Mirrors :func:`~repro.schedules.hybrid.dp_one_tile_schedule`'s
    structure exactly: perfect quantization -> persistent DP (exact);
    otherwise every CTA runs the same ``w = floor(t/p)`` full DP tiles
    before the residual ``r = t - w*p`` tiles are Stream-K-balanced over
    ``g = min(p, r*ipt)`` CTAs.  Because the DP prefix is identical for
    every CTA, the Stream-K region is the basic Stream-K walk uniformly
    time-shifted — ``max`` commutes with the shift, so the makespan is
    the shift plus :func:`basic_streamk_makespan` of the residual.
    Agreement with the event executor is asserted in the test suite.
    """
    w, r = divmod(t, p)
    if r == 0:
        return persistent_dp_makespan(t, p, ipt, cost)
    c = cost.cycles_per_iter
    st = cost.store_tile_cycles
    dp_prefix = w * (c * ipt + st)
    g = min(p, r * ipt)
    return dp_prefix + basic_streamk_makespan(r, g, ipt, cost)


def _validated_batch(t, ipt) -> "tuple[np.ndarray, np.ndarray]":
    t = np.asarray(t, dtype=np.int64)
    ipt = np.asarray(ipt, dtype=np.int64)
    if t.shape != ipt.shape or t.ndim != 1:
        raise ConfigurationError("t and ipt must be equal-length 1-D arrays")
    if t.size and (np.any(t <= 0) or np.any(ipt <= 0)):
        raise ConfigurationError("t and ipt must be positive")
    return t, ipt


def _ceil_div_arr(a: np.ndarray, b) -> np.ndarray:
    return -(-a // b)


def persistent_dp_makespan_batch(
    t: np.ndarray, p: int, ipt: np.ndarray, cost: KernelCostModel
) -> np.ndarray:
    """Vectorized :func:`persistent_dp_makespan` over N problems.

    Same arithmetic broadcast elementwise, so it agrees with the scalar
    form bitwise (asserted in the test suite).
    """
    t, ipt = _validated_batch(t, ipt)
    if p <= 0:
        raise ConfigurationError("p must be positive, got %d" % p)
    g = np.minimum(p, t)
    tiles_max = _ceil_div_arr(t, g)
    per_tile = cost.cycles_per_iter * ipt + cost.store_tile_cycles
    return cost.prologue_cycles + tiles_max * per_tile


def fixed_split_makespan_batch(
    t: np.ndarray, s: int, p: int, ipt: np.ndarray, cost: KernelCostModel
) -> np.ndarray:
    """Vectorized :func:`fixed_split_makespan` over N problems.

    Elementwise the same list-scheduling estimate (and the same exact
    regimes at ``s_eff == 1`` and single-wave grids), op for op, so the
    scalar and batch forms agree bitwise.
    """
    t, ipt = _validated_batch(t, ipt)
    if s <= 0 or p <= 0:
        raise ConfigurationError("s and p must be positive")
    c = cost.cycles_per_iter
    s_eff = np.minimum(s, ipt)
    share = _ceil_div_arr(ipt, s_eff)
    d_c = cost.prologue_cycles + c * share + cost.store_partials_cycles
    fixup_tail = (
        (s_eff - 1) * cost.fixup_cycles_per_peer + cost.store_tile_cycles
    )
    d_o = np.where(
        s_eff <= p,
        d_c + fixup_tail,
        cost.prologue_cycles + c * share + fixup_tail,
    )
    total = t * ((s_eff - 1) * d_c + d_o)
    multiwave = np.maximum(d_o, total / p + 0.5 * (p - 1) / p * d_o)
    dp_cta = cost.prologue_cycles + c * ipt + cost.store_tile_cycles
    return np.where(
        s_eff == 1,
        _ceil_div_arr(t, p) * dp_cta,
        np.where(t * s_eff <= p, d_o, multiwave),
    )


def two_tile_walk_batch(
    t: np.ndarray,
    p: int,
    ipt: np.ndarray,
    cost: KernelCostModel,
    row_chunk: int = _BATCH_ROW_CHUNK,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Vectorized two-tile walk of :func:`two_tile_hybrid_makespan` over
    N problems in its main regime (``t >= p``, ``t % p != 0``).

    Returns ``(makespan, aligned_fraction, stores)``: the exact makespan,
    the fraction of MAC iterations on data-parallel tiles, and the number
    of CTAs whose range starts mid-tile (each stores one partial sum).
    Broadcasts the scalar per-CTA timeline over a (rows, p) grid, one
    fixed-size row chunk at a time (the transient (rows, p+1) boundary
    matrix is the largest allocation in the corpus engine): head
    contribution, fully-owned tiles, the at-most-one-peer fixup, then the
    ``w - 1`` data-parallel tiles.
    """
    t = np.asarray(t, dtype=np.int64)
    ipt = np.asarray(ipt, dtype=np.int64)
    if t.shape != ipt.shape or t.ndim != 1:
        raise ConfigurationError("t and ipt must be equal-length 1-D arrays")
    if p <= 0:
        raise ConfigurationError("p must be positive, got %d" % p)
    # One pass of reductions: this runs on every one-row plan_query.
    if t.size and (t.min() < p or (t % p).min() == 0 or ipt.min() <= 0):
        raise ConfigurationError(
            "two_tile_walk_batch needs t >= p, t %% p != 0 and ipt > 0 "
            "(p=%d)" % p
        )
    n = t.shape[0]
    makespan = np.empty(n, dtype=np.float64)
    aligned_fraction = np.empty(n, dtype=np.float64)
    stores = np.empty(n, dtype=np.int64)
    for lo in range(0, n, max(1, row_chunk)):
        sl = slice(lo, min(lo + max(1, row_chunk), n))
        makespan[sl], aligned_fraction[sl], stores[sl] = _two_tile_walk_chunk(
            t[sl], ipt[sl], p, cost
        )
    return makespan, aligned_fraction, stores


def _two_tile_walk_chunk(
    t: np.ndarray, ipt: np.ndarray, p: int, cost: KernelCostModel
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """One row chunk of :func:`two_tile_walk_batch`."""
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st = cost.store_tile_cycles

    # Geometry is bounded by t * ipt; int32 halves memory traffic and
    # speeds the hot div/mod ops on the (rows, p) matrices when safe.
    geo = (
        np.int32
        if int(t.max()) * int(ipt.max()) < np.iinfo(np.int32).max
        else np.int64
    )
    t = t[:, None].astype(geo)
    ipt_c = ipt[:, None].astype(geo)
    w = t // geo(p)
    sk_tiles = t - (w - 1) * geo(p)
    region = sk_tiles * ipt_c
    base, rem = np.divmod(region, geo(p))
    x = np.arange(p + 1, dtype=geo)[None, :]
    begins = x * base + np.minimum(x, rem)  # (rows, p+1) range boundaries
    heads_all = (-begins) % ipt_c
    b_misaligned = heads_all[:, 1:-1]  # interior boundaries off tile edges
    head = heads_all[:, :-1]
    head_next = heads_all[:, 1:]  # == head of CTA x+1 (or 0 at region end)
    share = begins[:, 1:] - begins[:, :-1]
    # In this regime every share >= ipt, so b + head is tile-aligned and
    # the owned-tile count reduces to one integer division.
    last_part = np.where(head_next != 0, ipt_c - head_next, 0)
    fully = (share - head - last_part) // ipt_c

    now = pro + np.where(head > 0, c * head + sp, 0.0)
    now = now + fully * (c * ipt_c + st)
    own_end = now + np.where(last_part > 0, c * last_part, 0.0)
    peer_signal = pro + c * head_next + sp
    now = np.where(
        last_part > 0, np.maximum(own_end, peer_signal) + fx + st, own_end
    )
    finish = now + (w - 1) * (c * ipt_c + st)
    makespan = finish.max(axis=1)

    total = (t * ipt_c).astype(np.float64)
    aligned_fraction = ((t - sk_tiles) * ipt_c) / total
    stores = np.count_nonzero(b_misaligned, axis=1)
    return makespan, aligned_fraction.ravel(), stores

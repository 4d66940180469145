"""Basic Stream-K decomposition (paper Algorithm 5).

Stream-K partitions the GEMM's *aggregate* MAC-loop iteration workload —
``total_iters = tiles * iters_per_tile`` — into an even share (within one)
for each of ``g`` CTAs.  Each CTA's share maps contiguously onto the
``m -> n -> k`` linearization of the iteration space, crossing output-tile
boundaries as it may.  The CTA that performs a tile's k = 0 iteration owns
the tile: it accumulates the partials of every later CTA covering the tile
(serial reduction, ascending CTA order == ascending k order) and stores it.

Because a single MAC-loop iteration is tiny compared to a whole tile, the
per-CTA workload variance is at most one iteration: quantization efficiency
is near-perfect for *any* problem shape, at the cost of O(g) fixup traffic —
bounded by processor width, not problem size.

:func:`partition_region` is the reusable core: it decomposes a tile-aligned
*region* of the iteration space among CTAs, which is exactly what the §5.2
hybrids need to apply Stream-K to only the residual wave.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..errors import ConfigurationError
from ..gemm.linearize import TileTraversal
from ..gemm.tiling import TileGrid
from .base import Decomposition, Schedule
from .fixed_split import split_ranges
from .workitem import CtaWorkItem, SegmentRole, TileSegment

__all__ = ["StreamK", "stream_k_schedule", "partition_region"]


def partition_region(
    grid: TileGrid,
    g: int,
    first_tile_pos: int = 0,
    num_region_tiles: "int | None" = None,
    traversal: "TileTraversal | None" = None,
) -> "list[list[TileSegment]]":
    """Stream-K-partition a tile-aligned region among ``g`` CTAs.

    The region is the ``num_region_tiles`` tiles starting at traversal
    position ``first_tile_pos``; its ``num_region_tiles * iters_per_tile``
    MAC-loop iterations are split into ``g`` contiguous balanced ranges.
    Returns one segment list per CTA (CTA-local; the caller assigns global
    CTA ids and peer lists are expressed as *region-local* CTA indices which
    the caller must offset).

    ``g`` must not exceed the region's iteration count (callers clamp).
    """
    ipt = grid.iters_per_tile
    if num_region_tiles is None:
        num_region_tiles = grid.num_tiles - first_tile_pos
    if num_region_tiles <= 0:
        raise ConfigurationError(
            "empty Stream-K region (%d tiles)" % num_region_tiles
        )
    if first_tile_pos + num_region_tiles > grid.num_tiles:
        raise ConfigurationError(
            "region [%d, %d) exceeds %d tiles"
            % (first_tile_pos, first_tile_pos + num_region_tiles, grid.num_tiles)
        )
    region_iters = num_region_tiles * ipt
    if not (0 < g <= region_iters):
        raise ConfigurationError(
            "grid size %d invalid for a region of %d iterations"
            % (g, region_iters)
        )

    ranges = split_ranges(region_iters, g)

    def tile_at(region_tile: int) -> int:
        pos = first_tile_pos + region_tile
        return traversal.tile_at(pos) if traversal else pos

    # Owner of region tile rt = the CTA whose range contains iteration
    # rt * ipt; contributors = every later CTA intersecting the tile.
    # Ranges are contiguous, ascending and non-empty, so the covering CTAs
    # are one bisection each over the range begins.
    begins = [b for b, _ in ranges]

    per_cta: "list[list[TileSegment]]" = [[] for _ in range(g)]
    for rt in range(num_region_tiles):
        lo, hi = rt * ipt, (rt + 1) * ipt
        covering = range(bisect_right(begins, lo) - 1, bisect_left(begins, hi))
        owner = covering[0]
        peers = tuple(covering[1:])
        for x in covering:
            b, e = ranges[x]
            begin = max(b, lo) - lo
            end = min(e, lo + ipt) - lo
            role = SegmentRole.OWNER if x == owner else SegmentRole.CONTRIBUTOR
            per_cta[x].append(
                TileSegment(
                    tile_idx=tile_at(rt),
                    iter_begin=begin,
                    iter_end=end,
                    role=role,
                    peers=peers if x == owner else (),
                )
            )
    return per_cta


def stream_k_schedule(
    grid: TileGrid,
    g: int,
    traversal: "TileTraversal | None" = None,
) -> Schedule:
    """Build the basic Stream-K schedule with grid size ``g``.

    ``g`` is clamped to ``total_iters`` so no CTA launches empty; the
    requested value is preserved in metadata.  Peer CTA indices are global
    (here identical to region-local since the region is the whole problem).
    """
    if g <= 0:
        raise ConfigurationError("grid size must be positive, got %d" % g)
    requested = g
    g = min(g, grid.total_iters)

    per_cta = partition_region(grid, g, 0, grid.num_tiles, traversal)
    items = tuple(
        CtaWorkItem(cta=x, segments=tuple(segs))
        for x, segs in enumerate(per_cta)
    )

    # Aligned iff every CTA's range begins on a tile boundary — i.e. t % g
    # == 0, where Stream-K degenerates to a multi-tile data-parallel
    # schedule (the generalization noted at the end of Section 4).
    aligned = all(
        w.segments[0].iter_begin == 0 for w in items if w.segments
    )
    return Schedule(
        name="stream_k",
        grid=grid,
        work_items=items,
        k_aligned_fraction=1.0 if aligned else 0.0,
        metadata={"g": g, "g_requested": requested},
    )


class StreamK(Decomposition):
    """Factory for :func:`stream_k_schedule` at a fixed grid size."""

    name = "stream_k"

    def __init__(self, g: int, traversal: "TileTraversal | None" = None):
        if g <= 0:
            raise ConfigurationError("grid size must be positive, got %d" % g)
        self.g = g
        self.traversal = traversal

    def build(self, grid: TileGrid) -> Schedule:
        return stream_k_schedule(grid, self.g, self.traversal)

"""Fixed-split decomposition (paper Algorithm 4).

Each output tile is cooperatively produced by ``s`` CTAs, each covering a
uniform ``ceil(iters_per_tile / s)`` slice of the accumulation axis.  The
CTA holding the k = 0 slice owns the tile: it waits for the other ``s - 1``
contributors' flags and reduces their partials before the final store.  With
``s = 1`` this degenerates to the data-parallel decomposition exactly.

Two departures from the listing, both documented in DESIGN.md:

* the iteration split is balanced "within one" rather than uniformly
  ceil-divided, so no split is ever empty while another holds two shares;
* within each tile the *contributors launch before the owner*, so a
  spin-wait executor cannot deadlock when the grid exceeds SM residency
  (real GPUs get the same guarantee from oversubscribed occupancy).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..gemm.tiling import TileGrid
from .base import Decomposition, Schedule
from .workitem import CtaWorkItem, SegmentRole, TileSegment

__all__ = ["FixedSplit", "fixed_split_schedule", "split_ranges"]


def split_ranges(total: int, parts: int) -> "list[tuple[int, int]]":
    """Partition ``[0, total)`` into ``parts`` contiguous balanced ranges.

    The first ``total % parts`` ranges receive one extra element ("even
    share, within one").  Requires ``0 < parts <= total``.
    """
    if parts <= 0:
        raise ConfigurationError("parts must be positive, got %d" % parts)
    if parts > total:
        raise ConfigurationError(
            "cannot split %d iterations into %d non-empty parts" % (total, parts)
        )
    base, rem = divmod(total, parts)
    ranges = []
    begin = 0
    for i in range(parts):
        end = begin + base + (1 if i < rem else 0)
        ranges.append((begin, end))
        begin = end
    return ranges


def fixed_split_schedule(grid: TileGrid, s: int) -> Schedule:
    """Build the ``s``-way fixed-split schedule.

    ``s`` is clamped to ``iters_per_tile`` (a split deeper than the
    accumulation axis would launch empty CTAs); the clamp is recorded in the
    schedule metadata.
    """
    if s <= 0:
        raise ConfigurationError("splitting factor must be positive, got %d" % s)
    requested = s
    s = min(s, grid.iters_per_tile)

    items = []
    cta = 0
    ranges = split_ranges(grid.iters_per_tile, s)
    for tile in range(grid.num_tiles):
        # Launch order within the tile: contributors (y = 1..s-1) first,
        # owner (y = 0, the k=0 slice) last — see module docstring.
        owner_cta = cta + (s - 1)
        peers = tuple(range(cta, cta + s - 1))
        for begin, end in ranges[1:]:
            items.append(
                CtaWorkItem(
                    cta=cta,
                    segments=(
                        TileSegment(
                            tile_idx=tile,
                            iter_begin=begin,
                            iter_end=end,
                            role=SegmentRole.CONTRIBUTOR,
                        ),
                    ),
                )
            )
            cta += 1
        begin, end = ranges[0]
        items.append(
            CtaWorkItem(
                cta=owner_cta,
                segments=(
                    TileSegment(
                        tile_idx=tile,
                        iter_begin=begin,
                        iter_end=end,
                        role=SegmentRole.OWNER,
                        peers=peers,
                    ),
                ),
            )
        )
        cta += 1

    return Schedule(
        name="fixed_split",
        grid=grid,
        work_items=tuple(items),
        # Splits of the same tile cover disjoint k ranges and tiles in a
        # wave start at distinct k offsets, so cross-CTA fragment reuse at
        # matching k is lost except at s=1 (pure data-parallel).
        k_aligned_fraction=1.0 if s == 1 else 0.0,
        metadata={"s": s, "s_requested": requested},
    )


class FixedSplit(Decomposition):
    """Factory for :func:`fixed_split_schedule`."""

    name = "fixed_split"

    def __init__(self, s: int):
        if s <= 0:
            raise ConfigurationError(
                "splitting factor must be positive, got %d" % s
            )
        self.s = s

    def build(self, grid: TileGrid) -> Schedule:
        return fixed_split_schedule(grid, self.s)

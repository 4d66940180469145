"""Basic Stream-K decomposition tests (paper Algorithm 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gemm import FP64, Blocking, GemmProblem, TileGrid, random_operands, reference_gemm
from repro.schedules import StreamK, partition_region, split_ranges, stream_k_schedule
from repro.schedules.workitem import SegmentRole, TileSegment

from tests.conftest import assert_schedule_correct


class TestWorkBalance:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 7, 13, 35])
    def test_even_share_within_one(self, small_grid, g):
        """The paper's headline property: iteration shares differ by <= 1."""
        sched = stream_k_schedule(small_grid, g)
        iters = sched.iters_per_cta()
        assert iters.sum() == small_grid.total_iters
        assert iters.max() - iters.min() <= 1

    def test_grid_clamped_to_total_iters(self, small_grid):
        sched = stream_k_schedule(small_grid, small_grid.total_iters + 50)
        assert sched.g == small_grid.total_iters
        assert sched.metadata["g_requested"] == small_grid.total_iters + 50
        assert sched.min_iters_per_cta == 1

    def test_contiguous_ranges_cross_tile_boundaries(self, small_grid):
        sched = stream_k_schedule(small_grid, 4)
        multi_tile = [w for w in sched.work_items if len(w.segments) > 1]
        assert multi_tile, "a 4-CTA grid over 35 tiles must span tiles"


class TestGeneralization:
    """Section 4: Stream-K generalizes data-parallel and fixed-split."""

    def test_g_equals_tiles_behaves_data_parallel(self):
        grid = TileGrid(GemmProblem(64, 64, 40, dtype=FP64), Blocking(16, 16, 8))
        sched = stream_k_schedule(grid, grid.num_tiles)
        assert sched.total_fixup_stores == 0
        assert sched.k_aligned_fraction == 1.0
        for w in sched.work_items:
            assert len(w.segments) == 1 and w.segments[0].is_owner

    def test_g_multiple_of_tiles_behaves_fixed_split(self):
        grid = TileGrid(GemmProblem(32, 32, 64, dtype=FP64), Blocking(16, 16, 8))
        s = 2
        sched = stream_k_schedule(grid, grid.num_tiles * s)
        # every tile is covered by exactly s CTAs with uniform sub-ranges
        for tile in range(grid.num_tiles):
            assert len(sched.contributors(tile)) == s - 1

    def test_g_divides_tiles_aligned_multi_tile(self):
        grid = TileGrid(GemmProblem(64, 64, 40, dtype=FP64), Blocking(16, 16, 8))
        sched = stream_k_schedule(grid, grid.num_tiles // 2)
        assert sched.total_fixup_stores == 0
        assert sched.k_aligned_fraction == 1.0


class TestOwnership:
    def test_owner_performed_k0_iteration(self, small_grid):
        sched = stream_k_schedule(small_grid, 9)
        for w in sched.work_items:
            for seg in w.segments:
                if seg.is_owner:
                    assert seg.iter_begin == 0

    def test_peers_are_later_ctas_in_k_order(self, small_grid):
        sched = stream_k_schedule(small_grid, 9)
        for w in sched.work_items:
            for seg in w.segments:
                if seg.is_owner and seg.peers:
                    assert list(seg.peers) == sorted(seg.peers)
                    assert min(seg.peers) > w.cta

    def test_validates(self, small_grid):
        for g in (1, 5, 11, 35, 100):
            stream_k_schedule(small_grid, g).validate()


class TestPartitionRegion:
    def test_region_offset(self, small_grid):
        per_cta = partition_region(small_grid, 3, first_tile_pos=2, num_region_tiles=4)
        tiles = {s.tile_idx for segs in per_cta for s in segs}
        assert tiles == {2, 3, 4, 5}

    def test_bad_region_rejected(self, small_grid):
        with pytest.raises(ConfigurationError):
            partition_region(small_grid, 3, 0, small_grid.num_tiles + 1)
        with pytest.raises(ConfigurationError):
            partition_region(small_grid, 0, 0, 2)
        with pytest.raises(ConfigurationError):
            partition_region(small_grid, 10**9, 0, 2)


def _scan_partition(grid, g, first_tile_pos, num_region_tiles):
    """Reference partition: every CTA range is scanned for each tile."""
    ipt = grid.iters_per_tile
    ranges = split_ranges(num_region_tiles * ipt, g)
    per_cta = [[] for _ in range(g)]
    for rt in range(num_region_tiles):
        lo, hi = rt * ipt, (rt + 1) * ipt
        covering = [x for x, (b, e) in enumerate(ranges) if b < hi and e > lo]
        peers = tuple(covering[1:])
        for x in covering:
            b, e = ranges[x]
            owner = x == covering[0]
            per_cta[x].append(
                TileSegment(
                    tile_idx=first_tile_pos + rt,
                    iter_begin=max(b, lo) - lo,
                    iter_end=min(e, hi) - lo,
                    role=SegmentRole.OWNER if owner else SegmentRole.CONTRIBUTOR,
                    peers=peers if owner else (),
                )
            )
    return per_cta


class TestPartitionRegionMatchesScan:
    """Covering CTAs by bisection equal the brute-force range scan."""

    @given(
        tiles=st.integers(1, 24),
        iters_per_tile=st.integers(1, 12),
        data=st.data(),
    )
    def test_property_equals_scan(self, tiles, iters_per_tile, data):
        grid = TileGrid(
            GemmProblem(16 * tiles, 16, 8 * iters_per_tile, dtype=FP64),
            Blocking(16, 16, 8),
        )
        first = data.draw(st.integers(0, tiles - 1), label="first_tile_pos")
        count = data.draw(st.integers(1, tiles - first), label="num_tiles")
        g = data.draw(st.integers(1, count * iters_per_tile), label="g")
        assert partition_region(grid, g, first, count) == _scan_partition(
            grid, g, first, count
        )


class TestNumerics:
    @pytest.mark.parametrize("g", [1, 2, 3, 5, 8, 13, 34, 35, 70, 245])
    def test_exact_for_any_grid(self, small_grid, small_operands, g):
        a, b = small_operands
        ref = reference_gemm(small_grid.problem, a, b)
        out = stream_k_schedule(small_grid, g).execute(a, b)
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 60),
        n=st.integers(1, 60),
        k=st.integers(1, 80),
        g=st.integers(1, 40),
    )
    def test_property_random_shapes_and_grids(self, m, n, k, g):
        p = GemmProblem(m, n, k, dtype=FP64)
        grid = TileGrid(p, Blocking(16, 16, 8))
        a, b = random_operands(p, 5)
        ref = reference_gemm(p, a, b)
        assert_schedule_correct(stream_k_schedule(grid, g), a, b, ref)

    def test_invalid_g_rejected(self, small_grid):
        with pytest.raises(ConfigurationError):
            stream_k_schedule(small_grid, 0)
        with pytest.raises(ConfigurationError):
            StreamK(-3)

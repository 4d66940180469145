"""Batched makespans for the non-basic-Stream-K families vs scalar + executor.

The fixed-split and persistent-DP batch forms and the two-tile walk are
corpus fast paths; each is differentially tested against its scalar twin
(bitwise where the ops are elementwise-identical, 1e-12 relative where
the walk reorders float folds) and, through the scalar, against the
discrete-event executor.  The dp-one-tile hybrid has only a scalar form,
pinned to the executor here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gemm import FP16_FP32, FP64, Blocking, GemmProblem, TileGrid
from repro.gpu import (
    A100,
    HYPOTHETICAL_4SM,
    Executor,
    KernelCostModel,
    dp_one_tile_hybrid_makespan,
    fixed_split_makespan,
    fixed_split_makespan_batch,
    persistent_dp_makespan,
    persistent_dp_makespan_batch,
    two_tile_hybrid_makespan,
    two_tile_walk_batch,
)
from repro.schedules import dp_one_tile_schedule, two_tile_schedule


def grid_of(tiles_m, tiles_n, ipt, dtype=FP64):
    p = GemmProblem(tiles_m * 16, tiles_n * 16, ipt * 8, dtype=dtype)
    return TileGrid(p, Blocking(16, 16, 8))


def executor_makespan(schedule, gpu, cost):
    return Executor(gpu.total_cta_slots).run(cost.build_tasks(schedule)).makespan


@pytest.fixture(scope="module")
def cost_4sm():
    return KernelCostModel(
        gpu=HYPOTHETICAL_4SM, blocking=Blocking(16, 16, 8), dtype=FP64
    )


@pytest.fixture(scope="module")
def cost_a100():
    return KernelCostModel(
        gpu=A100, blocking=Blocking(128, 128, 32), dtype=FP16_FP32
    )


def _random_t_ipt(seed, size=400, t_hi=200, ipt_hi=64):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(1, t_hi, size=size),
        rng.integers(1, ipt_hi, size=size),
    )


class TestPersistentDpBatch:
    def test_bitwise_vs_scalar(self, cost_4sm):
        t, ipt = _random_t_ipt(0xD0)
        batch = persistent_dp_makespan_batch(t, 4, ipt, cost_4sm)
        for i in range(t.shape[0]):
            scalar = persistent_dp_makespan(int(t[i]), 4, int(ipt[i]), cost_4sm)
            assert batch[i] == scalar, "t=%d ipt=%d" % (t[i], ipt[i])

    def test_a100(self, cost_a100):
        t, ipt = _random_t_ipt(0xD1, size=200)
        batch = persistent_dp_makespan_batch(t, A100.num_sms, ipt, cost_a100)
        for i in range(t.shape[0]):
            scalar = persistent_dp_makespan(
                int(t[i]), A100.num_sms, int(ipt[i]), cost_a100
            )
            assert batch[i] == scalar


class TestFixedSplitBatch:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 8, 64])
    def test_bitwise_vs_scalar(self, cost_4sm, s):
        t, ipt = _random_t_ipt(0xF0 + s)
        batch = fixed_split_makespan_batch(t, s, 4, ipt, cost_4sm)
        for i in range(t.shape[0]):
            scalar = fixed_split_makespan(int(t[i]), s, 4, int(ipt[i]), cost_4sm)
            assert batch[i] == scalar, "s=%d t=%d ipt=%d" % (s, t[i], ipt[i])

    def test_s_above_p_regime(self, cost_4sm):
        """s > p flips the owner-duration branch; pin it explicitly."""
        t = np.array([3, 17, 40])
        ipt = np.array([32, 32, 48])
        batch = fixed_split_makespan_batch(t, 8, 4, ipt, cost_4sm)
        for i in range(t.shape[0]):
            assert batch[i] == fixed_split_makespan(
                int(t[i]), 8, 4, int(ipt[i]), cost_4sm
            )


def _walk_regime(t, ipt, p):
    """Keep the rows of the two-tile walk's regime: t >= p, t % p != 0."""
    keep = (t >= p) & (t % p != 0)
    return t[keep], ipt[keep]


class TestTwoTileBatch:
    def test_vs_scalar_all_regimes(self, cost_4sm):
        t, ipt = _walk_regime(
            *_random_t_ipt(0x22, size=600, t_hi=40, ipt_hi=32), 4
        )
        batch, _, _ = two_tile_walk_batch(t, 4, ipt, cost_4sm)
        for i in range(t.shape[0]):
            scalar = two_tile_hybrid_makespan(int(t[i]), 4, int(ipt[i]), cost_4sm)
            assert batch[i] == pytest.approx(scalar, rel=1e-12), (
                "t=%d ipt=%d" % (t[i], ipt[i])
            )

    def test_vs_scalar_a100(self, cost_a100):
        t, ipt = _walk_regime(
            *_random_t_ipt(0x23, size=300, t_hi=500), A100.num_sms
        )
        batch, _, _ = two_tile_walk_batch(t, A100.num_sms, ipt, cost_a100)
        for i in range(t.shape[0]):
            scalar = two_tile_hybrid_makespan(
                int(t[i]), A100.num_sms, int(ipt[i]), cost_a100
            )
            assert batch[i] == pytest.approx(scalar, rel=1e-12)

    @pytest.mark.parametrize("tiles_m,tiles_n,ipt", [
        (3, 3, 8), (5, 2, 7), (7, 3, 1), (2, 9, 13), (6, 5, 4),
    ])
    def test_profile_matches_schedule(self, cost_4sm, tiles_m, tiles_n, ipt):
        """The walk's aligned fraction and partial-store count are the
        materialized schedule's."""
        grid = grid_of(tiles_m, tiles_n, ipt)
        sched = two_tile_schedule(grid, 4)
        _, frac, stores = two_tile_walk_batch(
            np.array([grid.num_tiles]), 4, np.array([ipt]), cost_4sm
        )
        assert frac[0] == pytest.approx(sched.k_aligned_fraction, rel=1e-12)
        assert stores[0] == sched.total_fixup_stores

    def test_profile_matches_schedule_a100(self, cost_a100):
        for shape in ((1280, 1536, 4096), (3000, 3000, 256), (2048, 896, 100)):
            grid = TileGrid(
                GemmProblem(*shape, dtype=FP16_FP32), Blocking(128, 128, 32)
            )
            sched = two_tile_schedule(grid, A100.num_sms)
            _, frac, stores = two_tile_walk_batch(
                np.array([grid.num_tiles]), A100.num_sms,
                np.array([grid.iters_per_tile]), cost_a100,
            )
            assert frac[0] == pytest.approx(sched.k_aligned_fraction, rel=1e-12)
            assert stores[0] == sched.total_fixup_stores

    def test_chunking_invariant(self, cost_4sm):
        t, ipt = _walk_regime(*_random_t_ipt(0x24, size=97, t_hi=40), 4)
        ref = two_tile_walk_batch(t, 4, ipt, cost_4sm)
        for chunk in (1, 7, 96, 97, 4096):
            got = two_tile_walk_batch(t, 4, ipt, cost_4sm, row_chunk=chunk)
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g, r)

    def test_rejects_rows_outside_the_walk_regime(self, cost_4sm):
        one = np.array([1])
        for t in (np.array([3]), np.array([8])):  # t < p, t % p == 0
            with pytest.raises(ConfigurationError):
                two_tile_walk_batch(t, 4, one, cost_4sm)


class TestDpOneTile:
    @settings(max_examples=40, deadline=None)
    @given(
        tiles_m=st.integers(1, 10),
        tiles_n=st.integers(1, 10),
        ipt=st.integers(1, 24),
    )
    def test_scalar_matches_executor(self, tiles_m, tiles_n, ipt):
        gpu = HYPOTHETICAL_4SM
        grid = grid_of(tiles_m, tiles_n, ipt)
        cost = KernelCostModel(gpu=gpu, blocking=grid.blocking, dtype=FP64)
        ev = executor_makespan(dp_one_tile_schedule(grid, gpu.num_sms), gpu, cost)
        cf = dp_one_tile_hybrid_makespan(grid.num_tiles, gpu.num_sms, ipt, cost)
        assert cf == pytest.approx(ev, rel=1e-9)

    def test_scalar_matches_executor_a100(self, cost_a100):
        grid = TileGrid(
            GemmProblem(512, 2048, 256, dtype=FP16_FP32), Blocking(128, 128, 32)
        )
        ev = executor_makespan(
            dp_one_tile_schedule(grid, A100.num_sms), A100, cost_a100
        )
        cf = dp_one_tile_hybrid_makespan(
            grid.num_tiles, A100.num_sms, grid.iters_per_tile, cost_a100
        )
        assert cf == pytest.approx(ev, rel=1e-9)


class TestValidation:
    def test_empty(self, cost_4sm):
        e = np.empty(0, dtype=np.int64)
        assert persistent_dp_makespan_batch(e, 4, e, cost_4sm).shape == (0,)
        assert fixed_split_makespan_batch(e, 2, 4, e, cost_4sm).shape == (0,)
        for col in two_tile_walk_batch(e, 4, e, cost_4sm):
            assert col.shape == (0,)

    def test_rejects_nonpositive(self, cost_4sm):
        bad = np.array([0])
        one = np.array([1])
        for fn in (
            lambda: persistent_dp_makespan_batch(bad, 4, one, cost_4sm),
            lambda: fixed_split_makespan_batch(one, 2, 0, one, cost_4sm),
            lambda: two_tile_walk_batch(one, -1, one, cost_4sm),
            lambda: two_tile_walk_batch(bad, 4, one, cost_4sm),
            lambda: two_tile_walk_batch(np.array([5]), 4, bad, cost_4sm),
        ):
            with pytest.raises(ConfigurationError):
                fn()

    def test_rejects_mismatched_lengths(self, cost_4sm):
        with pytest.raises(ConfigurationError):
            fixed_split_makespan_batch(
                np.array([1, 2]), 2, 4, np.array([1]), cost_4sm
            )
        with pytest.raises(ConfigurationError):
            two_tile_walk_batch(np.array([5, 6]), 4, np.array([1]), cost_4sm)

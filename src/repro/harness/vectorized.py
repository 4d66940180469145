"""Vectorized corpus evaluation: every system over 32,824 shapes in seconds.

This module is the **evaluate** side of the repo's plan/evaluate split:
the pure planning arithmetic (regime choice, grid-size argmin, memory
roofline over the :mod:`repro.gpu.analytic` makespans) lives in
:mod:`repro.plan.core`, and this engine *consumes* it —
:func:`streamk_times` is a thin wrapper over
:func:`repro.plan.core.plan_batch`, so corpus sweeps, cross-hardware
comparisons, and the serving daemon all price Stream-K through the exact
same batched code path.

Per the hpc-parallel guides, the hot path is numpy array arithmetic, not
Python loops: each system's kernel time is expressed as closed-form
element-wise math over the (N,) shape arrays.  The closed forms are the
ones in :mod:`repro.gpu.analytic` — exact for data-parallel and the
Stream-K hybrid (validated against the discrete-event executor), and a
bounded approximation for multi-wave fixed-split.

There are no per-problem Python loops left: the small-problem Stream-K
regime (``tiles < SMs``) runs through the batched Appendix A.1 argmin
(:func:`repro.model.gridsize.select_grid_sizes_batch`) and the batched
exact walk (:func:`repro.gpu.analytic.basic_streamk_makespan_batch`), both
cross-validated element-for-element against their scalar twins.  Every
(N, G) transient is processed in fixed-size row chunks, so peak memory is
bounded regardless of corpus size.

Systems evaluated (the paper's four comparison columns):

* ``streamk``   — the shipped one-kernel Stream-K library;
* ``singleton`` — the data-parallel CUTLASS kernel of the same blocking;
* ``cublas``    — the heuristic-selected DP/fixed-split ensemble;
* ``oracle``    — best data-parallel blocking per problem, by measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ensembles.cublas import cublas_variants
from ..ensembles.cutlass import ORACLE_BLOCKINGS
from ..gemm.dtypes import DtypeConfig
from ..gemm.tiling import Blocking
from ..gpu.analytic import fixed_split_makespan_batch
from ..gpu.costmodel import KernelCostModel
from ..gpu.spec import GpuSpec
from ..model.cost import StreamKModelParams
from ..obs.profiler import span
from ..plan.core import (
    _ceil_div,
    _split_shapes,
    plan_batch,
    roofline_time as _roofline_time,
    traffic_bytes as _traffic_bytes,
)

__all__ = ["SystemTimings", "evaluate_corpus", "streamk_times", "dp_times", "fixed_split_times"]


# --------------------------------------------------------------------- #
# Variant families                                                      #
# --------------------------------------------------------------------- #


def dp_times(
    shapes: np.ndarray, blocking: Blocking, dtype: DtypeConfig, gpu: GpuSpec
) -> np.ndarray:
    """Data-parallel kernel times (exact makespans)."""
    m, n, k = _split_shapes(shapes)
    cost = KernelCostModel(gpu=gpu, blocking=blocking, dtype=dtype)
    tiles_m = _ceil_div(m, blocking.blk_m)
    tiles_n = _ceil_div(n, blocking.blk_n)
    t = tiles_m * tiles_n
    ipt = _ceil_div(k, blocking.blk_k)
    cta = cost.prologue_cycles + cost.cycles_per_iter * ipt + cost.store_tile_cycles
    makespan = _ceil_div(t, gpu.num_sms) * cta
    traffic = _traffic_bytes(
        m, n, k, tiles_m, tiles_n, t,
        np.ones_like(t, dtype=np.float64), np.zeros_like(t),
        blocking, dtype, gpu,
    )
    return _roofline_time(makespan, traffic, t, gpu)


def fixed_split_times(
    shapes: np.ndarray,
    blocking: Blocking,
    s: int,
    dtype: DtypeConfig,
    gpu: GpuSpec,
) -> np.ndarray:
    """Fixed-split kernel times (bounded approximation; see gpu.analytic)."""
    if s < 2:
        return dp_times(shapes, blocking, dtype, gpu)
    m, n, k = _split_shapes(shapes)
    cost = KernelCostModel(gpu=gpu, blocking=blocking, dtype=dtype)
    p = gpu.num_sms
    tiles_m = _ceil_div(m, blocking.blk_m)
    tiles_n = _ceil_div(n, blocking.blk_n)
    t = tiles_m * tiles_n
    ipt = _ceil_div(k, blocking.blk_k)
    s_eff = np.minimum(s, ipt)
    makespan = fixed_split_makespan_batch(t, s, p, ipt, cost)
    stores = t * (s_eff - 1)
    traffic = _traffic_bytes(
        m, n, k, tiles_m, tiles_n, t * s_eff,
        (s_eff == 1).astype(np.float64), stores,
        blocking, dtype, gpu,
    )
    return _roofline_time(makespan, traffic, t * s_eff, gpu)


# --------------------------------------------------------------------- #
# Stream-K                                                              #
# --------------------------------------------------------------------- #


def streamk_times(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    params: "StreamKModelParams | None" = None,
) -> np.ndarray:
    """Shipped Stream-K library times across a shape corpus.

    Thin wrapper over the planning layer: the regime decisions, grid
    sizes, makespans, and roofline composition are all computed by
    :func:`repro.plan.core.plan_batch` — the same call the serving
    daemon micro-batches — and this returns its ``time_s`` column.
    """
    return plan_batch(shapes, dtype, gpu, params=params).time_s


# --------------------------------------------------------------------- #
# Full-corpus evaluation                                                 #
# --------------------------------------------------------------------- #


@dataclass
class SystemTimings:
    """Per-problem kernel times (seconds) for every compared system."""

    shapes: np.ndarray
    dtype_name: str
    gpu_name: str
    streamk: np.ndarray
    singleton: np.ndarray
    cublas: np.ndarray
    oracle: np.ndarray
    #: Index into the cuBLAS variant list chosen per problem, or ``None``
    #: when the evaluation did not record selections (e.g. partial loads).
    cublas_choice: "np.ndarray | None" = None
    #: Names of the cuBLAS ensemble variants, aligned with cublas_choice.
    cublas_variant_names: "list[str]" = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.shapes.shape[0])

    def chosen_variant_names(self) -> "list[str] | None":
        """Per-problem cuBLAS variant names, or ``None`` if unrecorded."""
        if self.cublas_choice is None or not self.cublas_variant_names:
            return None
        return [self.cublas_variant_names[int(i)] for i in self.cublas_choice]


def evaluate_corpus(
    shapes: np.ndarray, dtype: DtypeConfig, gpu: GpuSpec
) -> SystemTimings:
    """Evaluate all four systems over a shape corpus.

    cuBLAS evaluation mirrors reality: the proxy heuristic *selects* a
    variant per problem, then the selected kernel's simulated time is what
    gets reported — selection mistakes show up as measured slowness.
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    m, n, k = _split_shapes(shapes)
    p = gpu.num_sms

    with span("evaluate_corpus"):
        with span("streamk"):
            streamk = streamk_times(shapes, dtype, gpu)
        with span("singleton"):
            singleton = dp_times(
                shapes, Blocking(*dtype.default_blocking), dtype, gpu
            )

        # Oracle: best *measured* data-parallel blocking.
        with span("oracle"):
            dp_matrix = np.stack(
                [
                    dp_times(shapes, Blocking(*b), dtype, gpu)
                    for b in ORACLE_BLOCKINGS[dtype.name]
                ],
                axis=1,
            )
            oracle = dp_matrix.min(axis=1)

        # cuBLAS-like: proxy-score selection over the DP+split ensemble.
        with span("cublas_ensemble"):
            variants = cublas_variants(dtype)
            times_matrix = np.empty(
                (len(shapes), len(variants)), dtype=np.float64
            )
            scores = np.empty_like(times_matrix)
            for j, v in enumerate(variants):
                if v.family == "data_parallel":
                    col = dp_matrix[:, _oracle_index(dtype, v.blocking)]
                else:
                    col = fixed_split_times(
                        shapes, v.blocking, v.s, dtype, gpu
                    )
                times_matrix[:, j] = col
                scores[:, j] = _proxy_scores(
                    m, n, k, v.blocking, v.s, p, dtype
                )
            choice = scores.argmin(axis=1)
            cublas = times_matrix[np.arange(len(shapes)), choice]

    return SystemTimings(
        shapes=shapes,
        dtype_name=dtype.name,
        gpu_name=gpu.name,
        streamk=streamk,
        singleton=singleton,
        cublas=cublas,
        oracle=oracle,
        cublas_choice=choice,
        cublas_variant_names=[v.name for v in variants],
    )


def _oracle_index(dtype: DtypeConfig, blocking: Blocking) -> int:
    blockings = ORACLE_BLOCKINGS[dtype.name]
    return blockings.index(blocking.as_tuple)


def _proxy_scores(
    m: np.ndarray,
    n: np.ndarray,
    k: np.ndarray,
    blocking: Blocking,
    s: int,
    p: int,
    dtype: DtypeConfig,
) -> np.ndarray:
    """Vectorized twin of :func:`repro.ensembles.heuristics.proxy_score`."""
    from ..ensembles.heuristics import _CTA_MAC_EQUIV, _FIXUP_MAC_EQUIV

    tiles = _ceil_div(m, blocking.blk_m) * _ceil_div(n, blocking.blk_n)
    ipt = _ceil_div(k, blocking.blk_k)
    s_eff = np.minimum(s, ipt)
    waves = _ceil_div(tiles * s_eff, p)
    share = _ceil_div(ipt, s_eff)
    default_macs = (
        dtype.default_blocking[0]
        * dtype.default_blocking[1]
        * dtype.default_blocking[2]
    )
    eff = min(1.0, (blocking.tile_macs / default_macs) ** 0.5)
    compute = waves.astype(np.float64) * share * blocking.tile_macs / eff
    fixup = (
        tiles.astype(np.float64)
        * (s_eff - 1)
        * blocking.blk_m
        * blocking.blk_n
        * _FIXUP_MAC_EQUIV
    )
    overhead = tiles.astype(np.float64) * s_eff * _CTA_MAC_EQUIV
    return compute + fixup + overhead

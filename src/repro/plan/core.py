"""The planning layer: pure, cacheable schedule selection.

This module is the **plan** side of the repo's plan/evaluate split:

* **Planning** (here) answers "which decomposition, which grid size,
  and how fast do we predict it runs?" for a ``(m, n, k, dtype, gpu)``
  query using only closed-form arithmetic — the Appendix A.1 grid-size
  model, the exact two-tile walk, and the analytical memory roofline.
  A plan never materializes a schedule, never runs the discrete-event
  executor, and depends only on its inputs plus the calibrated model
  constants; that purity is what makes plans cacheable
  (:mod:`repro.plan.cache`) and servable (:mod:`repro.plan.service`).
* **Evaluation** (:mod:`repro.harness`, :mod:`repro.gpu.executor`)
  consumes plans: corpus sweeps price entire shape populations through
  :func:`plan_batch`, and the simulator replays materialized schedules
  event by event to validate the closed forms.

:func:`plan_query` is the scalar entry point; it is implemented as a
one-row :func:`plan_batch`, so a single query, a micro-batched service
request, and a 32,824-shape corpus sweep all run the *same* arithmetic
and produce bitwise-identical plans.

:meth:`repro.ensembles.streamk_library.StreamKLibrary.plan` returns a
:func:`plan_query` record, and the library's makespan and time read that
record, so the library, the daemon and a corpus row price a shape alike.

The regime logic (mirroring :func:`repro.schedules.hybrid.two_tile_schedule`):

==============================  ========================================
tiles % p == 0                  pure data-parallel waves (``g = min(p,t)``)
tiles < p                       basic Stream-K, ``g`` from the A.1 model
otherwise                       two-tile Stream-K + DP hybrid, ``g = p``
==============================  ========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..gemm.dtypes import DtypeConfig, get_dtype_config
from ..gemm.tiling import Blocking
from ..gpu.analytic import (
    basic_streamk_makespan_batch,
    persistent_dp_makespan_batch,
    two_tile_walk_batch,
)
from ..gpu.costmodel import KernelCostModel
from ..gpu.spec import GpuSpec
from ..model.cost import StreamKModelParams
from ..model.gridsize import select_grid_sizes_batch
from ..model.paramcache import calibrate_cached, gpu_fingerprint
from ..obs.profiler import span

__all__ = [
    "PLAN_ENGINE_VERSION",
    "KIND_NAMES",
    "Plan",
    "PlanBatch",
    "plan_query",
    "plan_batch",
    "traffic_bytes",
    "roofline_time",
]

#: Version of the planning arithmetic.  Bump whenever a change alters any
#: field of any :class:`Plan` for any query — persisted plan-cache shards
#: carry this number and are invalidated wholesale on mismatch (see
#: docs/SERVING.md, "Invalidation").
PLAN_ENGINE_VERSION = 1

#: Plan-kind code table: ``PlanBatch.kinds`` stores indices into this
#: tuple, :attr:`Plan.kind` stores the decoded name.
KIND_NAMES = ("data_parallel", "basic_stream_k", "two_tile")

_L2_RESIDENCY = 0.8
_PIPELINE_STAGES = 2

#: Row-chunk size bounding the transient (rows, p+1) matrices of the
#: two-tile walk (and the Regime-B boundary profile), so corpora far larger
#: than the paper's 32,824 shapes — or GPUs with huge ``total_cta_slots`` —
#: never scale peak memory with N.
_WALK_ROW_CHUNK = 8192


def _ceil_div(a: np.ndarray, b) -> np.ndarray:
    return -(-a // b)


def _split_shapes(shapes: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    shapes = np.asarray(shapes, dtype=np.int64)
    if shapes.ndim != 2 or shapes.shape[1] != 3:
        raise ConfigurationError("shapes must be an (N, 3) array of m, n, k")
    return shapes[:, 0], shapes[:, 1], shapes[:, 2]


# --------------------------------------------------------------------- #
# Plan records                                                          #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Plan:
    """One launch decision: what to run and how fast we predict it runs.

    A plan is a pure function of ``(m, n, k, dtype, gpu)`` plus the
    calibrated model constants, which is why it carries its own cache
    key material (:attr:`gpu_fingerprint`, :attr:`engine_version`): two
    plans compare equal iff the planner would make the same decision
    again.  :attr:`provenance` records *where this copy came from*
    (fresh model evaluation or a cache tier) and is excluded from
    equality — a cache hit must be indistinguishable from a cold plan.
    """

    #: Problem shape the plan answers.
    m: int
    n: int
    k: int
    #: Canonical dtype name (``fp64``/``fp32``/``fp16_fp32``/...).
    dtype_name: str
    #: Name of the GPU spec the plan targets (display only; the
    #: binding key is :attr:`gpu_fingerprint`).
    gpu_name: str
    #: Schedule family: one of :data:`KIND_NAMES`.
    kind: str
    #: Grid size (number of CTAs) to launch.
    g: int
    #: Output-tile count at the plan's blocking.
    num_tiles: int
    #: MAC iterations per output tile (``ceil(k / blk_k)``).
    iters_per_tile: int
    #: Fraction of MAC iterations on tile-aligned work (drives the
    #: analytical memory model's L2-reuse estimate).
    k_aligned_fraction: float
    #: Number of CTAs that store partial sums for a peer to fix up.
    fixup_stores: int
    #: Predicted kernel makespan in cycles (compute roofline leg).
    makespan_cycles: float
    #: Predicted wall-clock kernel time in seconds (full roofline:
    #: max(compute, memory) + launch latency).
    time_s: float
    #: :data:`PLAN_ENGINE_VERSION` of the arithmetic that produced this.
    engine_version: int
    #: SHA-256 fingerprint of every field of the target ``GpuSpec``.
    gpu_fingerprint: str
    #: Where this copy came from: ``"model"`` for a fresh evaluation,
    #: ``"cache:hot"`` / ``"cache:disk"`` for cache tiers.  Excluded
    #: from equality so cached plans compare equal to cold ones.
    provenance: str = field(default="model", compare=False)

    def to_payload(self) -> dict:
        """JSON-serializable dict (wire format and disk-cache format)."""
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "dtype": self.dtype_name,
            "gpu": self.gpu_name,
            "kind": self.kind,
            "g": self.g,
            "num_tiles": self.num_tiles,
            "iters_per_tile": self.iters_per_tile,
            "k_aligned_fraction": self.k_aligned_fraction,
            "fixup_stores": self.fixup_stores,
            "makespan_cycles": self.makespan_cycles,
            "time_s": self.time_s,
            "engine_version": self.engine_version,
            "gpu_fingerprint": self.gpu_fingerprint,
            "provenance": self.provenance,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Plan":
        """Inverse of :meth:`to_payload`; lossless for every field."""
        return cls(
            m=int(payload["m"]),
            n=int(payload["n"]),
            k=int(payload["k"]),
            dtype_name=str(payload["dtype"]),
            gpu_name=str(payload["gpu"]),
            kind=str(payload["kind"]),
            g=int(payload["g"]),
            num_tiles=int(payload["num_tiles"]),
            iters_per_tile=int(payload["iters_per_tile"]),
            k_aligned_fraction=float(payload["k_aligned_fraction"]),
            fixup_stores=int(payload["fixup_stores"]),
            makespan_cycles=float(payload["makespan_cycles"]),
            time_s=float(payload["time_s"]),
            engine_version=int(payload["engine_version"]),
            gpu_fingerprint=str(payload["gpu_fingerprint"]),
            provenance=str(payload.get("provenance", "model")),
        )


@dataclass
class PlanBatch:
    """Column-oriented plans for ``N`` problems (one :func:`plan_batch`).

    Array fields are aligned with ``shapes`` rows; :meth:`plan` decodes
    one row into a scalar :class:`Plan`.  Corpus sweeps consume the
    columns directly (``time_s`` is the Stream-K column of
    :func:`repro.harness.vectorized.evaluate_corpus`); the serving path
    decodes rows for its cache.
    """

    shapes: np.ndarray
    dtype_name: str
    gpu_name: str
    #: ``(N,)`` int8 codes into :data:`KIND_NAMES`.
    kinds: np.ndarray
    g: np.ndarray
    num_tiles: np.ndarray
    iters_per_tile: np.ndarray
    k_aligned_fraction: np.ndarray
    fixup_stores: np.ndarray
    makespan_cycles: np.ndarray
    time_s: np.ndarray
    engine_version: int
    gpu_fingerprint: str

    def __len__(self) -> int:
        return int(self.shapes.shape[0])

    def plan(self, i: int, provenance: str = "model") -> Plan:
        """Decode row ``i`` into a scalar :class:`Plan`."""
        return Plan(
            m=int(self.shapes[i, 0]),
            n=int(self.shapes[i, 1]),
            k=int(self.shapes[i, 2]),
            dtype_name=self.dtype_name,
            gpu_name=self.gpu_name,
            kind=KIND_NAMES[int(self.kinds[i])],
            g=int(self.g[i]),
            num_tiles=int(self.num_tiles[i]),
            iters_per_tile=int(self.iters_per_tile[i]),
            k_aligned_fraction=float(self.k_aligned_fraction[i]),
            fixup_stores=int(self.fixup_stores[i]),
            makespan_cycles=float(self.makespan_cycles[i]),
            time_s=float(self.time_s[i]),
            engine_version=self.engine_version,
            gpu_fingerprint=self.gpu_fingerprint,
            provenance=provenance,
        )

    def plans(self, provenance: str = "model") -> "list[Plan]":
        """All rows decoded into scalar :class:`Plan` records."""
        return [self.plan(i, provenance) for i in range(len(self))]


# --------------------------------------------------------------------- #
# Vectorized analytical memory model (mirrors gpu.memory)               #
# --------------------------------------------------------------------- #


def traffic_bytes(
    m: np.ndarray,
    n: np.ndarray,
    k: np.ndarray,
    tiles_m: np.ndarray,
    tiles_n: np.ndarray,
    g: np.ndarray,
    aligned_fraction: np.ndarray,
    fixup_stores: np.ndarray,
    blocking: Blocking,
    dtype: DtypeConfig,
    gpu: GpuSpec,
) -> np.ndarray:
    """Element-wise port of AnalyticalMemoryModel.traffic (alpha=1, beta=0)."""
    in_b = dtype.input_bytes
    out_b = dtype.output_bytes
    a_pass = tiles_m.astype(np.float64) * blocking.blk_m * k * in_b
    b_pass = tiles_n.astype(np.float64) * blocking.blk_n * k * in_b

    usable_l2 = gpu.l2_bytes * _L2_RESIDENCY
    w = np.clip(g, 1, gpu.total_cta_slots)
    w_n = np.minimum(w, tiles_n)
    w_m = np.minimum(tiles_m, _ceil_div(w, tiles_n))
    working_set = (
        _PIPELINE_STAGES
        * (w_m * blocking.blk_m + w_n * blocking.blk_n)
        * blocking.blk_k
        * in_b
    )
    amp_a_aligned = np.where(working_set > usable_l2, tiles_n, tiles_n / w_n)
    amp_b_aligned = np.where(working_set > usable_l2, tiles_m, tiles_m / w_m)
    # Skewed schedules keep most L2 reuse; cap their extra traffic at 2x
    # the aligned wave (see repro.gpu.memory._SKEW_AMPLIFICATION).
    amp_a_skewed = np.minimum(tiles_n, 2.0 * amp_a_aligned)
    amp_b_skewed = np.minimum(tiles_m, 2.0 * amp_b_aligned)
    f = aligned_fraction
    amp_a = f * amp_a_aligned + (1.0 - f) * amp_a_skewed
    amp_b = f * amp_b_aligned + (1.0 - f) * amp_b_skewed
    resident = (a_pass + b_pass) <= usable_l2
    amp_a = np.where(resident, 1.0, amp_a)
    amp_b = np.where(resident, 1.0, amp_b)

    out = m.astype(np.float64) * n * out_b
    tile_accum = blocking.blk_m * blocking.blk_n * out_b
    partials = fixup_stores.astype(np.float64) * tile_accum * 2.0
    return a_pass * amp_a + b_pass * amp_b + out + partials


def roofline_time(
    makespan_cycles: np.ndarray,
    dram_bytes: np.ndarray,
    g: np.ndarray,
    gpu: GpuSpec,
) -> np.ndarray:
    """max(compute, memory) + launch, with memory bandwidth capped by the
    number of CTAs actually resident (sparse grids cannot saturate HBM)."""
    bandwidth = gpu.achieved_bandwidth(g)
    return (
        np.maximum(makespan_cycles / gpu.clock_hz, dram_bytes / bandwidth)
        + gpu.launch_latency_s
    )


# --------------------------------------------------------------------- #
# Regime-B boundary profile                                             #
# --------------------------------------------------------------------- #


def _misaligned_boundaries_batch(
    total: np.ndarray,
    g_eff: np.ndarray,
    ipt: np.ndarray,
    row_chunk: int = _WALK_ROW_CHUNK,
) -> np.ndarray:
    """Per problem, how many of the ``g_eff - 1`` interior partition
    boundaries of a balanced ``total``-iteration partition fall off a tile
    edge (each costs one partial-sum exchange) — the
    :attr:`~repro.schedules.base.Schedule.total_fixup_stores` of the basic
    Stream-K schedule, without building it."""
    n = total.shape[0]
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, max(1, row_chunk)):
        sl = slice(lo, min(lo + max(1, row_chunk), n))
        tot_c = total[sl]
        g_c = g_eff[sl]
        base = (tot_c // g_c)[:, None]
        rem = (tot_c % g_c)[:, None]
        gmax = int(g_c.max())
        bounds = np.arange(1, gmax, dtype=np.int64)[None, :]
        begins = bounds * base + np.minimum(bounds, rem)
        mis = (begins % ipt[sl][:, None] != 0) & (bounds < g_c[:, None])
        out[sl] = np.count_nonzero(mis, axis=1)
    return out


# --------------------------------------------------------------------- #
# Batched planning                                                      #
# --------------------------------------------------------------------- #


def plan_batch(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    params: "StreamKModelParams | None" = None,
    blocking: "Blocking | None" = None,
) -> PlanBatch:
    """Plan every shape in one vectorized pass; no per-problem loops.

    This is *the* planning implementation: :func:`plan_query` is a
    one-row call, the serving micro-batcher coalesces concurrent
    requests into one call, and corpus sweeps
    (:func:`repro.harness.vectorized.streamk_times`) pass the whole
    corpus.  Per-regime work runs through the batched Appendix A.1
    argmin (:func:`repro.model.gridsize.select_grid_sizes_batch`) and the
    batched closed forms of :mod:`repro.gpu.analytic`
    (:func:`~repro.gpu.analytic.persistent_dp_makespan_batch`,
    :func:`~repro.gpu.analytic.basic_streamk_makespan_batch`,
    :func:`~repro.gpu.analytic.two_tile_walk_batch`), each
    cross-validated element-for-element against its scalar twin.

    Parameters
    ----------
    shapes:
        ``(N, 3)`` integer array of ``(m, n, k)`` rows.
    dtype, gpu:
        Precision config and target GPU spec.
    params:
        Calibrated model constants; resolved through the persistent
        calibration cache when omitted.
    blocking:
        Tile blocking; defaults to the precision's shipped factor.
    """
    m, n, k = _split_shapes(shapes)
    if blocking is None:
        blocking = Blocking(*dtype.default_blocking)
    cost = KernelCostModel(gpu=gpu, blocking=blocking, dtype=dtype)
    if params is None:
        params = calibrate_cached(gpu, blocking, dtype)
    p = gpu.num_sms

    tiles_m = _ceil_div(m, blocking.blk_m)
    tiles_n = _ceil_div(n, blocking.blk_n)
    t = tiles_m * tiles_n
    ipt = _ceil_div(k, blocking.blk_k)
    total = t * ipt

    makespan = np.zeros(len(t), dtype=np.float64)
    f = np.zeros(len(t), dtype=np.float64)
    g_arr = np.zeros(len(t), dtype=np.int64)
    stores = np.zeros(len(t), dtype=np.int64)
    kinds = np.zeros(len(t), dtype=np.int8)

    # Regime A: perfect quantization -> persistent data-parallel.
    mask_a = t % p == 0
    if mask_a.any():
        makespan[mask_a] = persistent_dp_makespan_batch(
            t[mask_a], p, ipt[mask_a], cost
        )
        f[mask_a] = 1.0
        g_arr[mask_a] = np.minimum(p, t[mask_a])
        kinds[mask_a] = KIND_NAMES.index("data_parallel")

    # Regime C: two-tile hybrid (exact vectorized walk).
    mask_c = (~mask_a) & (t >= p)
    if mask_c.any():
        with span("two_tile_walk"):
            walk_span, frac, n_stores = two_tile_walk_batch(
                t[mask_c], p, ipt[mask_c], cost, row_chunk=_WALK_ROW_CHUNK
            )
        makespan[mask_c] = walk_span
        f[mask_c] = frac
        g_arr[mask_c] = p
        stores[mask_c] = n_stores
        kinds[mask_c] = KIND_NAMES.index("two_tile")

    # Regime B: fewer tiles than SMs -> batched model-selected grids and the
    # batched exact walk (pure numpy; no per-problem Python loop).
    mask_b = (~mask_a) & (t < p)
    if mask_b.any():
        t_b, ipt_b, tot_b = t[mask_b], ipt[mask_b], total[mask_b]
        with span("gridsize_argmin"):
            g_b = select_grid_sizes_batch(
                tot_b, ipt_b, params, gpu.total_cta_slots
            )
        with span("makespan_batch"):
            makespan[mask_b] = basic_streamk_makespan_batch(
                t_b, g_b, ipt_b, cost
            )
        g_eff = np.minimum(g_b, tot_b)
        mis = _misaligned_boundaries_batch(tot_b, g_eff, ipt_b)
        stores[mask_b] = mis
        f[mask_b] = (mis == 0).astype(np.float64)
        g_arr[mask_b] = g_eff
        kinds[mask_b] = KIND_NAMES.index("basic_stream_k")

    traffic = traffic_bytes(
        m, n, k, tiles_m, tiles_n, g_arr, f, stores, blocking, dtype, gpu
    )
    time_s = roofline_time(makespan, traffic, g_arr, gpu)

    return PlanBatch(
        shapes=np.asarray(shapes, dtype=np.int64),
        dtype_name=dtype.name,
        gpu_name=gpu.name,
        kinds=kinds,
        g=g_arr,
        num_tiles=t,
        iters_per_tile=ipt,
        k_aligned_fraction=f,
        fixup_stores=stores,
        makespan_cycles=makespan,
        time_s=time_s,
        engine_version=PLAN_ENGINE_VERSION,
        gpu_fingerprint=gpu_fingerprint(gpu),
    )


def plan_query(
    m: int,
    n: int,
    k: int,
    dtype: "DtypeConfig | str",
    gpu: GpuSpec,
    params: "StreamKModelParams | None" = None,
    blocking: "Blocking | None" = None,
) -> Plan:
    """Plan one ``(m, n, k, dtype, gpu)`` query.

    Implemented as a one-row :func:`plan_batch`, so a scalar query is
    bitwise-identical to the same row of any batched call — the
    invariant the plan-cache differential suite pins down.
    """
    if m <= 0 or n <= 0 or k <= 0:
        raise ConfigurationError(
            "problem dimensions must be positive, got (%d, %d, %d)" % (m, n, k)
        )
    if isinstance(dtype, str):
        dtype = get_dtype_config(dtype)
    shapes = np.array([[m, n, k]], dtype=np.int64)
    return plan_batch(shapes, dtype, gpu, params=params, blocking=blocking).plan(0)

"""GPU execution simulator: the paper's A100 testbed, substituted.

The subpackage layers, bottom up:

* :mod:`~repro.gpu.spec` — the hardware spec registry (A100/H100/V100/
  RTX-3090-class presets, the 4-SM illustration GPU, custom devices from
  JSON; see docs/HARDWARE.md);
* :mod:`~repro.gpu.cta` / :mod:`~repro.gpu.executor` /
  :mod:`~repro.gpu.trace` — timed CTA tasks, the discrete-event wave
  scheduler with spin-wait flag semantics, and execution traces;
* :mod:`~repro.gpu.costmodel` — cycle costs (the simulator-side ground
  truth for the Appendix A.1 constants);
* :mod:`~repro.gpu.cache` / :mod:`~repro.gpu.memory` — L2/DRAM traffic;
* :mod:`~repro.gpu.analytic` — closed-form makespans for corpus sweeps;
* :mod:`~repro.gpu.simulate` — end-to-end kernel timing.
"""

from .analytic import (
    basic_streamk_makespan,
    basic_streamk_makespan_batch,
    data_parallel_makespan,
    dp_one_tile_hybrid_makespan,
    fixed_split_makespan,
    fixed_split_makespan_batch,
    one_wave_makespan,
    persistent_dp_makespan,
    persistent_dp_makespan_batch,
    two_tile_hybrid_makespan,
    two_tile_walk_batch,
)
from .backends import TaskArrays, run_task_arrays, tasks_to_arrays
from .cache import CacheStats, FragmentCache
from .costmodel import KernelCostModel
from .cta import CtaTask, SegmentKind, TimedSegment
from .executor import Executor
from .memory import AnalyticalMemoryModel, CacheSimMemoryModel, TrafficBreakdown
from .occupancy import (
    DEFAULT_SMEM_PER_SM,
    estimate_occupancy,
    max_streamk_grid,
    smem_bytes_per_cta,
)
from .simulate import KernelResult, simulate_kernel
from .spec import (
    A100,
    DEFAULT_GPU_NAME,
    GPU_PRESETS,
    H100_SXM,
    HYPOTHETICAL_4SM,
    RTX3090,
    V100_SXM2,
    GpuSpec,
    available_gpus,
    default_gpu,
    get_gpu,
    register_gpu,
    resolve_gpu,
)
from .trace import CtaRecord, ExecutionTrace, SegmentRecord

__all__ = [
    "A100",
    "AnalyticalMemoryModel",
    "DEFAULT_GPU_NAME",
    "H100_SXM",
    "RTX3090",
    "V100_SXM2",
    "CacheSimMemoryModel",
    "CacheStats",
    "CtaRecord",
    "CtaTask",
    "DEFAULT_SMEM_PER_SM",
    "ExecutionTrace",
    "Executor",
    "FragmentCache",
    "GPU_PRESETS",
    "GpuSpec",
    "HYPOTHETICAL_4SM",
    "KernelCostModel",
    "KernelResult",
    "SegmentKind",
    "SegmentRecord",
    "TaskArrays",
    "TimedSegment",
    "TrafficBreakdown",
    "available_gpus",
    "basic_streamk_makespan",
    "basic_streamk_makespan_batch",
    "data_parallel_makespan",
    "default_gpu",
    "dp_one_tile_hybrid_makespan",
    "fixed_split_makespan_batch",
    "persistent_dp_makespan_batch",
    "two_tile_walk_batch",
    "estimate_occupancy",
    "fixed_split_makespan",
    "get_gpu",
    "register_gpu",
    "resolve_gpu",
    "run_task_arrays",
    "max_streamk_grid",
    "one_wave_makespan",
    "persistent_dp_makespan",
    "simulate_kernel",
    "smem_bytes_per_cta",
    "tasks_to_arrays",
    "two_tile_hybrid_makespan",
]

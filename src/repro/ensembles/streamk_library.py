"""The shipped Stream-K library: ONE kernel per precision + a tiny model.

This is the artifact the paper argues for (Section 5): a single Stream-K
hybrid kernel per precision at the ideal blocking factor, configured at
launch by the analytical grid-size model whose four constants were
calibrated once per architecture.  Contrast with
:mod:`repro.ensembles.cublas`'s ~24 kernels + trained selection heuristics.

The library prices nothing itself: :meth:`StreamKLibrary.plan` is
:func:`repro.plan.core.plan_query` at the library's constants and
blocking, and its makespan and time are that plan's fields.  The regimes
are the planner's (mirroring :func:`repro.schedules.hybrid.two_tile_schedule`):

==============================  ========================================
tiles % p == 0                  pure data-parallel waves (``g = min(p,t)``)
tiles < p                       basic Stream-K, ``g`` from the A.1 model
otherwise                       two-tile Stream-K + DP hybrid, ``g = p``
==============================  ========================================
"""

from __future__ import annotations

from ..gemm.dtypes import DtypeConfig
from ..gemm.problem import GemmProblem
from ..gemm.tiling import Blocking, TileGrid
from ..gpu.costmodel import KernelCostModel
from ..gpu.spec import GpuSpec
from ..model.cost import StreamKModelParams
from ..model.paramcache import calibrate_cached
from ..obs.profiler import profiled
from ..plan.core import Plan, plan_query
from ..schedules.base import Schedule
from ..schedules.hybrid import two_tile_schedule

__all__ = ["StreamKLibrary"]


class StreamKLibrary:
    """One precision's Stream-K kernel plus its compiled model constants."""

    def __init__(
        self,
        gpu: GpuSpec,
        dtype: DtypeConfig,
        params: "StreamKModelParams | None" = None,
        blocking: "Blocking | None" = None,
    ):
        """``blocking`` defaults to the precision's shipped factor; the
        two-kernel ensemble (:mod:`repro.ensembles.streamk_duo`) passes an
        alternate one.  Efficiency/peak anchoring always follows the true
        ``dtype``."""
        self.gpu = gpu
        self.dtype = dtype
        self.blocking = blocking or Blocking(*dtype.default_blocking)
        self.cost = KernelCostModel(gpu=gpu, blocking=self.blocking, dtype=dtype)
        # "Compiled statically into the library": calibrated once per
        # architecture and persisted, so cold processes skip the simulator
        # microbenchmarks (see repro.model.paramcache).
        self.params = params if params is not None else calibrate_cached(
            gpu, self.blocking, dtype
        )

    @profiled("streamk_plan")
    def plan(self, problem: GemmProblem) -> Plan:
        """Pure-arithmetic launch plan (no schedule materialization).

        The planning layer's :func:`repro.plan.core.plan_query` — the same
        one-row :func:`~repro.plan.core.plan_batch` the serving daemon and
        the corpus engine run — so a library plan, a served plan and a
        corpus-sweep row are bitwise equal.  Like every plan it prices
        ``alpha = 1, beta = 0``.
        """
        return plan_query(
            problem.m,
            problem.n,
            problem.k,
            self.dtype,
            self.gpu,
            params=self.params,
            blocking=self.blocking,
        )

    @profiled("streamk_build_schedule")
    def build_schedule(self, problem: GemmProblem) -> Schedule:
        """Materialize the planned schedule (figures, examples, tests).

        Its ``metadata["kind"]`` is the plan's ``kind``.
        """
        grid = TileGrid(problem, self.blocking)
        plan = self.plan(problem)
        g_small = plan.g if plan.kind == "basic_stream_k" else None
        return two_tile_schedule(grid, self.gpu.num_sms, g_small=g_small)

    def makespan_cycles(self, problem: GemmProblem) -> float:
        """The plan's compute makespan in cycles."""
        return self.plan(problem).makespan_cycles

    def time_s(self, problem: GemmProblem) -> float:
        """The plan's roofline-composed kernel time."""
        return self.plan(problem).time_s

    def tflops(self, problem: GemmProblem) -> float:
        return problem.flops / self.time_s(problem) / 1e12

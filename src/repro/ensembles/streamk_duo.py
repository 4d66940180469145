"""Two-kernel Stream-K ensemble (the paper's Section 6 future work).

"This suggests a few avenues for future work, namely separate
cost-modeling for the memory-bound regime and/or the bundling of a second
Stream-K kernel having smaller tile size into a two-kernel ensemble."

:class:`StreamKDuoLibrary` implements exactly that: the shipped
big-blocking Stream-K kernel plus one *smaller-blocking* Stream-K kernel,
dispatched by a single arithmetic-intensity threshold (no trained
heuristics — one compare).  Small, bandwidth-bound problems get the finer
tiles whose extra parallelism and smaller compulsory over-fetch they
prefer; everything compute-bound keeps the ideal blocking.

The small blocking per precision is the second-largest member of the
paper's oracle set for that precision — a kernel the ensemble libraries
already ship.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..gemm.dtypes import DtypeConfig
from ..gemm.problem import GemmProblem
from ..gemm.tiling import Blocking
from ..gpu.spec import GpuSpec
from ..plan.core import Plan
from .cutlass import ORACLE_BLOCKINGS
from .streamk_library import StreamKLibrary

__all__ = ["StreamKDuoLibrary", "small_blocking_for"]


def small_blocking_for(dtype: DtypeConfig) -> Blocking:
    """The duo's second blocking: the smallest oracle-set member."""
    try:
        blockings = ORACLE_BLOCKINGS[dtype.name]
    except KeyError:
        raise ConfigurationError(
            "no oracle set (hence no duo small blocking) for %r" % dtype.name
        ) from None
    return Blocking(*min(blockings, key=lambda b: b[0] * b[1] * b[2]))


@dataclass(frozen=True)
class DuoChoice:
    """Which of the two kernels the intensity rule dispatched."""

    kernel: str  # "big" | "small"
    plan: Plan
    time_s: float


class StreamKDuoLibrary:
    """Two Stream-K kernels + one threshold: still no ensembles/heuristics.

    The dispatch rule is the paper's own compute-bound threshold for the
    precision (150 / 400 ops-per-byte): below it, the small-tile kernel;
    at or above it, the shipped big-tile kernel.
    """

    def __init__(self, gpu: GpuSpec, dtype: DtypeConfig):
        self.gpu = gpu
        self.dtype = dtype
        self.big = StreamKLibrary(gpu, dtype)
        self.small = StreamKLibrary(
            gpu, dtype, blocking=small_blocking_for(dtype)
        )

    @property
    def num_kernels(self) -> int:
        return 2

    def choose(self, problem: GemmProblem) -> str:
        return (
            "big"
            if problem.ops_per_byte >= self.dtype.compute_bound_ops_per_byte
            else "small"
        )

    def plan(self, problem: GemmProblem) -> DuoChoice:
        kernel = self.choose(problem)
        lib = self.big if kernel == "big" else self.small
        plan = lib.plan(problem)
        return DuoChoice(kernel=kernel, plan=plan, time_s=plan.time_s)

    def time_s(self, problem: GemmProblem) -> float:
        lib = self.big if self.choose(problem) == "big" else self.small
        return lib.time_s(problem)

    def build_schedule(self, problem: GemmProblem):
        lib = self.big if self.choose(problem) == "big" else self.small
        return lib.build_schedule(problem)

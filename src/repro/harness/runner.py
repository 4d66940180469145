"""Single-problem end-to-end runs: numerics + timing together.

Where the vectorized engine answers "how fast across 32,824 shapes", the
runner answers "run THIS problem under THIS decomposition, prove the
answer is right, and tell me everything" — the path the examples and the
illustrative figures use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gemm.problem import GemmProblem
from ..gemm.reference import random_operands
from ..gemm.tiling import Blocking, TileGrid
from ..gemm.validation import validate_result
from ..gpu.simulate import KernelResult, simulate_kernel
from ..gpu.spec import GpuSpec
from ..metrics.efficiency import quantization_efficiency
from ..metrics.report import format_utilization
from ..schedules.base import Decomposition, Schedule

__all__ = ["MeasuredRun", "run_schedule", "run_decomposition"]


@dataclass(frozen=True)
class MeasuredRun:
    """One validated, simulated execution."""

    problem: GemmProblem
    schedule_name: str
    g: int
    result: KernelResult
    quantization_efficiency: float
    max_rel_error: "float | None"

    @property
    def time_s(self) -> float:
        return self.result.time_s

    @property
    def tflops(self) -> float:
        return self.result.tflops

    def summary(self) -> str:
        err = (
            "validated (max rel err %.1e)" % self.max_rel_error
            if self.max_rel_error is not None
            else "timing only"
        )
        return (
            "%s on %s: g=%d, %.2f us, %.1f TFLOP/s (%s of peak, "
            "quant-eff %s, %s-bound), %s"
            % (
                self.schedule_name,
                self.problem,
                self.g,
                self.time_s * 1e6,
                self.tflops,
                format_utilization(self.result.percent_of_peak / 100.0),
                format_utilization(self.quantization_efficiency),
                self.result.bound,
                err,
            )
        )


def run_schedule(
    schedule: Schedule,
    gpu: GpuSpec,
    execute_numeric: bool = True,
    memory_model: str = "analytical",
    operands: "tuple[np.ndarray, np.ndarray] | None" = None,
    seed: int = 0,
    executor: "str | None" = None,
) -> MeasuredRun:
    """Validate, optionally execute numerically, and simulate a schedule.

    ``executor`` selects the simulation backend (``python`` or
    ``numpy``); ``None`` defers to the process default.
    """
    schedule.validate()
    problem = schedule.grid.problem
    err = None
    if execute_numeric:
        a, b = operands if operands is not None else random_operands(problem, seed)
        out = schedule.execute(a, b)
        err = validate_result(problem, out, a, b)
    result = simulate_kernel(
        schedule, gpu, memory_model=memory_model, executor=executor
    )
    return MeasuredRun(
        problem=problem,
        schedule_name=schedule.name,
        g=schedule.g,
        result=result,
        quantization_efficiency=quantization_efficiency(schedule, gpu.num_sms),
        max_rel_error=err,
    )


def run_decomposition(
    decomposition: Decomposition,
    problem: GemmProblem,
    gpu: GpuSpec,
    blocking: "Blocking | None" = None,
    **kwargs,
) -> MeasuredRun:
    """Build a decomposition's schedule for a problem and run it."""
    blk = blocking or Blocking(*problem.dtype.default_blocking)
    schedule = decomposition.build(TileGrid(problem, blk))
    return run_schedule(schedule, gpu, **kwargs)

"""End-to-end kernel timing: schedule -> simulated wall-clock.

``simulate_kernel`` composes the pieces of this subpackage:

1. the :class:`~repro.gpu.costmodel.KernelCostModel` prices the schedule's
   work into timed CTA tasks;
2. the discrete-event :class:`~repro.gpu.executor.Executor` produces the
   compute makespan (waves, spin-waits, fixup serialization included);
3. a memory model estimates DRAM traffic;
4. kernel time is ``max(makespan / clock, dram_bytes / bandwidth) +
   launch latency`` — the roofline composition: a kernel cannot run faster
   than its compute schedule nor faster than its memory traffic drains.

The returned :class:`KernelResult` carries everything the evaluation
needs: seconds, TFLOP/s, percent-of-peak, utilization, traffic breakdown,
and the raw trace for the schedule-diagram figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..schedules.base import Schedule
from .backends import resolve_executor_backend
from .costmodel import KernelCostModel
from .executor import Executor
from .memory import AnalyticalMemoryModel, CacheSimMemoryModel, TrafficBreakdown
from .spec import GpuSpec
from .trace import ExecutionTrace

__all__ = ["KernelResult", "simulate_kernel"]


@dataclass(frozen=True)
class KernelResult:
    """Simulated execution of one schedule on one GPU."""

    schedule_name: str
    gpu_name: str
    makespan_cycles: float
    compute_time_s: float
    memory_time_s: float
    launch_latency_s: float
    traffic: TrafficBreakdown
    trace: ExecutionTrace
    flops: int
    peak_tflops: float

    @property
    def time_s(self) -> float:
        """Kernel wall-clock: roofline of compute and memory, plus launch."""
        return max(self.compute_time_s, self.memory_time_s) + self.launch_latency_s

    @property
    def tflops(self) -> float:
        return self.flops / self.time_s / 1e12

    @property
    def percent_of_peak(self) -> float:
        """Percent of the device's rated throughput — the y axis of the
        paper's roofline landscapes (Figures 5 and 6)."""
        return 100.0 * self.tflops / self.peak_tflops

    @property
    def bound(self) -> str:
        """Which roofline ceiling binds: ``"compute"`` or ``"memory"``."""
        return "compute" if self.compute_time_s >= self.memory_time_s else "memory"


def simulate_kernel(
    schedule: Schedule,
    gpu: GpuSpec,
    memory_model: str = "analytical",
    validate: bool = False,
    faults=None,
    check_invariants: bool = False,
    executor: "str | None" = None,
) -> KernelResult:
    """Simulate one schedule end to end.

    Parameters
    ----------
    schedule:
        A decomposition of one problem (see :mod:`repro.schedules`).
    gpu:
        Hardware description.
    memory_model:
        ``"analytical"`` (fast, corpus-scale) or ``"cache_sim"`` (replays
        the fragment stream through an LRU cache; small problems only).
    validate:
        Run :meth:`Schedule.validate` first (cheap insurance in examples;
        the harness validates at construction).
    faults:
        Optional fault environment: a
        :class:`~repro.faults.config.FaultConfig` (a fresh injector is
        created for this run) or an already-constructed
        :class:`~repro.faults.injector.FaultInjector` (shared across
        runs when the caller wants one injection log).  ``None`` is the
        pristine simulator, bitwise identical to a zero-fault config.
    check_invariants:
        Replay the resulting trace through the protocol invariant
        checker (:func:`repro.faults.checker.check_protocol_invariants`)
        and raise :class:`~repro.errors.ProtocolViolation` on any breach
        of the partials/fixup carry protocol.
    executor:
        Executor backend: ``"python"`` (the bitwise oracle) or
        ``"numpy"`` (the array event loop, bitwise identical — see
        :mod:`repro.gpu.backends`).  ``None`` defers to the process
        default (CLI ``--executor``, else ``REPRO_EXECUTOR``, else
        python).  The numpy backend prices the schedule straight into
        arrays, never building per-segment task objects.
    """
    if validate:
        schedule.validate()
    injector = faults
    if injector is not None and not hasattr(injector, "segment_cycles"):
        from ..faults.injector import FaultInjector

        injector = FaultInjector(injector)
    problem = schedule.grid.problem
    cost = KernelCostModel(gpu=gpu, blocking=schedule.grid.blocking, dtype=problem.dtype)
    backend = resolve_executor_backend(executor)
    if backend == "python":
        tasks = cost.build_tasks(schedule, faults=injector)
        trace = Executor(
            gpu.total_cta_slots, faults=injector, backend=backend
        ).run(tasks)
    else:
        arrays = cost.build_task_arrays(schedule, faults=injector)
        trace = Executor(
            gpu.total_cta_slots, faults=injector, backend=backend
        ).run_arrays(arrays)
    if check_invariants:
        from ..faults.checker import check_protocol_invariants

        check_protocol_invariants(schedule, trace)

    if memory_model == "analytical":
        traffic = AnalyticalMemoryModel().traffic(schedule, gpu, cost)
    elif memory_model == "cache_sim":
        traffic = CacheSimMemoryModel().traffic(schedule, gpu, cost, trace)
    else:
        raise ConfigurationError(
            "unknown memory model %r (use 'analytical' or 'cache_sim')"
            % (memory_model,)
        )

    bandwidth = float(gpu.achieved_bandwidth(schedule.g))
    return KernelResult(
        schedule_name=schedule.name,
        gpu_name=gpu.name,
        makespan_cycles=trace.makespan,
        compute_time_s=trace.makespan / gpu.clock_hz,
        memory_time_s=traffic.total / bandwidth,
        launch_latency_s=gpu.launch_latency_s,
        traffic=traffic,
        trace=trace,
        flops=problem.flops,
        peak_tflops=gpu.peak_tflops(problem.dtype),
    )

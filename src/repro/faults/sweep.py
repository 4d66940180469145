"""Fault sweeps: straggler severity x schedule sensitivity curves.

The paper's quantization argument (Section 3, Figure 4) is at bottom a
claim about *sensitivity to imbalance*: data-parallel decompositions
amplify per-SM variance into whole-wave stalls, while Stream-K's
work-centric split plus fixup protocol absorbs it.  This module measures
that directly on the simulator: sweep a seeded fault environment of
increasing severity across every registered decomposition and report the
makespan degradation of each — the curves ``python -m repro faults``
prints.

Every cell is simulated with a fresh
:class:`~repro.faults.injector.FaultInjector` (so injection logs are per
cell), replayed through the protocol invariant checker (faults must
reorder time, never the carry protocol), and compared against the same
schedule's zero-severity baseline — which is bitwise identical to the
unfaulted simulator by the determinism contract.  Cells whose fault
environment deadlocks the schedule (dropped signals) are reported as
such, never hung.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, DeadlockError
from ..gemm.dtypes import DtypeConfig
from ..gemm.problem import GemmProblem
from ..gemm.tiling import Blocking, TileGrid
from ..gpu.costmodel import KernelCostModel
from ..gpu.executor import Executor
from ..gpu.spec import GpuSpec
from ..obs.profiler import span
from ..schedules.registry import DECOMPOSITION_NAMES, make_decomposition
from .checker import check_protocol_invariants
from .config import FaultConfig
from .injector import FaultInjector

__all__ = [
    "SweepCell",
    "build_registered_schedule",
    "format_sweep_table",
    "run_fault_sweep",
]


@dataclass(frozen=True)
class SweepCell:
    """One (schedule, severity) point of a fault sweep."""

    schedule: str
    severity: float
    seed: int
    makespan: float
    baseline: float
    deadlocked: bool
    injections: "dict[str, int]"

    @property
    def degradation_pct(self) -> float:
        """Makespan degradation over the zero-fault baseline, percent."""
        if self.deadlocked or self.baseline <= 0.0:
            return float("inf") if self.deadlocked else 0.0
        return 100.0 * (self.makespan / self.baseline - 1.0)


def build_registered_schedule(name: str, grid: TileGrid, gpu: GpuSpec):
    """Instantiate a registered decomposition with its canonical knobs.

    ``stream_k`` gets one CTA per SM (clamped to the iteration count),
    ``fixed_split`` the paper's illustrative ``s=2``, and the hybrids
    ``p = num_sms`` — the same defaults the CLI ``trace`` command uses.
    """
    kwargs: "dict[str, int]" = {}
    if name == "fixed_split":
        kwargs["s"] = 2
    elif name == "stream_k":
        kwargs["g"] = max(1, min(gpu.num_sms, grid.total_iters))
    elif name in ("two_tile_stream_k", "dp_one_tile_stream_k"):
        kwargs["p"] = gpu.num_sms
    return make_decomposition(name, **kwargs).build(grid)


def run_fault_sweep(
    problem: GemmProblem,
    gpu: GpuSpec,
    severities: "tuple[float, ...]" = (0.0, 0.25, 0.5, 1.0, 2.0),
    schedule_names: "tuple[str, ...]" = DECOMPOSITION_NAMES,
    seed: int = 0,
    config_factory=FaultConfig.straggler_sweep_point,
    check: bool = True,
    executor: "str | None" = None,
) -> "list[SweepCell]":
    """Sweep fault severity x schedule; return one cell per combination.

    ``config_factory(severity, seed)`` maps each severity to a
    :class:`FaultConfig` (default: the canonical straggler sweep point).
    With ``check=True`` every completed cell is replayed through the
    protocol invariant checker.  Deterministic: same arguments => same
    cells, bitwise — including across ``executor`` loops: ``None`` or
    ``"numpy"`` runs the numpy event loop, ``"python"`` the oracle (the
    reference a bench checks the fast loop against).
    """
    if not severities:
        raise ConfigurationError("need at least one severity")
    if executor not in (None, "numpy", "python"):
        raise ConfigurationError(
            "unknown executor %r; expected 'numpy' or 'python'" % (executor,)
        )
    dtype: DtypeConfig = problem.dtype
    blocking = Blocking(*dtype.default_blocking)
    grid = TileGrid(problem, blocking)
    cost = KernelCostModel(gpu=gpu, blocking=blocking, dtype=dtype)

    cells: "list[SweepCell]" = []
    with span("fault_sweep"):
        for name in schedule_names:
            schedule = build_registered_schedule(name, grid, gpu)
            structure_checked = False
            baseline = None
            for severity in severities:
                injector = FaultInjector(config_factory(severity, seed))
                with span("fault_sweep_cell"):
                    exe = Executor(gpu.total_cta_slots, faults=injector)
                    try:
                        if executor == "python":
                            trace = exe.run(
                                cost.build_tasks(schedule, faults=injector)
                            )
                        else:
                            trace = exe.run_arrays(
                                cost.build_task_arrays(
                                    schedule, faults=injector
                                )
                            )
                    except DeadlockError:
                        cells.append(
                            SweepCell(
                                schedule=name,
                                severity=severity,
                                seed=seed,
                                makespan=float("inf"),
                                baseline=baseline if baseline is not None else 0.0,
                                deadlocked=True,
                                injections=injector.injection_counts(),
                            )
                        )
                        continue
                    if check:
                        check_protocol_invariants(
                            schedule,
                            trace,
                            check_structure=not structure_checked,
                        )
                        structure_checked = True
                if baseline is None:
                    # First completed cell of this schedule anchors the
                    # degradation; severity 0 first keeps it the true
                    # zero-fault makespan.
                    baseline = trace.makespan
                cells.append(
                    SweepCell(
                        schedule=name,
                        severity=severity,
                        seed=seed,
                        makespan=trace.makespan,
                        baseline=baseline,
                        deadlocked=False,
                        injections=injector.injection_counts(),
                    )
                )
    return cells


def format_sweep_table(cells: "list[SweepCell]") -> str:
    """Render sweep cells as a schedule x severity degradation table."""
    if not cells:
        return "(empty sweep)"
    severities = sorted({c.severity for c in cells})
    schedules = list(dict.fromkeys(c.schedule for c in cells))
    by_key = {(c.schedule, c.severity): c for c in cells}
    header = ["%-24s" % "schedule"] + [
        "%12s" % ("sev %.2f" % s) for s in severities
    ]
    lines = ["".join(header), "-" * (24 + 12 * len(severities))]
    for name in schedules:
        row = ["%-24s" % name]
        for s in severities:
            cell = by_key.get((name, s))
            if cell is None:
                row.append("%12s" % "-")
            elif cell.deadlocked:
                row.append("%12s" % "DEADLOCK")
            elif cell.severity == 0.0:
                row.append("%12s" % ("%.0f cyc" % cell.makespan))
            else:
                row.append("%12s" % ("+%.1f%%" % cell.degradation_pct))
        lines.append("".join(row))
    lines.append(
        "(cells are makespan degradation vs the same schedule's zero-fault "
        "baseline)"
    )
    return "\n".join(lines)

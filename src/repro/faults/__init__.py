"""Deterministic fault injection for the simulated GPU.

Stream-K's value proposition is *schedule robustness*: the fixup chains
and inter-CTA signal/wait protocol must tolerate skewed CTA arrival
order, stragglers, and memory-latency variance.  This subpackage makes
that claim testable on the simulator:

* :mod:`~repro.faults.config` — :class:`FaultConfig`, the seeded,
  declarative description of which faults to inject and how hard;
* :mod:`~repro.faults.injector` — :class:`FaultInjector`, the
  deterministic site-keyed sampler the executor and cost model consult
  (same seed + config => bit-identical injections, independent of
  dispatch order);
* :mod:`~repro.faults.checker` — the protocol invariant checker: replays
  any :class:`~repro.gpu.trace.ExecutionTrace` against its schedule and
  asserts every output tile's k-range is covered exactly once across
  partials/fixup, every fixup reads an already-published partial, and
  every partial is consumed exactly once — a race detector for the
  Stream-K carry protocol;
* :mod:`~repro.faults.sweep` — straggler-severity x schedule sweeps
  reporting makespan degradation (the sensitivity curves behind
  ``python -m repro faults``);
* :mod:`~repro.faults.chaos` — :class:`ChaosKill` and
  :class:`ChaosWorkerKill`, deterministic *process-level* kill-point
  injection for the durable sweep engine: SIGKILL the harness right
  after the K-th journaled shard completion (``repro sweep
  --chaos-kill-after K``), or SIGKILL one lease-fabric worker at a
  claim/eval/commit boundary (``repro sweep --jobs N
  --chaos-worker-kill POINT[:K]``, docs/CHECKPOINTING.md).

Determinism contract: all randomness derives from
:class:`FaultConfig.seed` through a counter-free splitmix64 hash of the
injection *site* (SM slot, CTA id, segment index), never from draw
order.  The zero-fault config (:meth:`FaultConfig.none`) is bitwise
inert: traces are identical to the unfaulted simulator.  See
``docs/FAULTS.md`` for the full fault model.
"""

from .chaos import ChaosKill, ChaosWorkerKill
from .checker import InvariantReport, check_protocol_invariants
from .config import FaultConfig
from .injector import FaultInjector, InjectedFault
from .sweep import SweepCell, format_sweep_table, run_fault_sweep

__all__ = [
    "ChaosKill",
    "ChaosWorkerKill",
    "FaultConfig",
    "FaultInjector",
    "InjectedFault",
    "InvariantReport",
    "SweepCell",
    "check_protocol_invariants",
    "format_sweep_table",
    "run_fault_sweep",
]

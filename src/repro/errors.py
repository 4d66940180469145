"""Exception hierarchy for the Stream-K reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
type at an API boundary.  Configuration mistakes (bad shapes, bad blocking
factors, invalid grid sizes) raise :class:`ConfigurationError` eagerly at
construction time rather than failing deep inside a sweep.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "DeadlockError",
    "ProtocolViolation",
    "CalibrationError",
    "ValidationError",
    "SweepInterrupted",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """An invalid problem, blocking, schedule, or GPU configuration."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event executor reached an inconsistent state."""


class DeadlockError(SimulationError):
    """All resident CTAs are blocked on signals that can never arrive.

    On real hardware a grid whose waiters precede their producers in launch
    order can hang the GPU; the executor detects the condition and raises
    instead, reporting the blocked CTA ids.

    The executor attaches a structured diagnostic:

    ``wait_chain``
        A list of ``(cta, waiting_on_slot, reason)`` triples — one per
        blocked CTA, with ``reason`` explaining why the awaited signal
        can never arrive ("never launched", "signal dropped by fault
        injection", "blocked on slot N", ...).
    ``cycle``
        The CTA ids forming a circular wait (waiter -> producer -> ... ->
        waiter), or ``None`` when the deadlock is a chain that terminates
        in an unlaunchable or signal-dropped producer rather than a cycle.
    """

    def __init__(
        self,
        blocked: "list[int]",
        message: "str | None" = None,
        wait_chain: "list[tuple[int, int, str]] | None" = None,
        cycle: "list[int] | None" = None,
    ):
        self.blocked = list(blocked)
        self.wait_chain = list(wait_chain) if wait_chain is not None else []
        self.cycle = list(cycle) if cycle is not None else None
        if message is None:
            message = (
                "deadlock: CTAs %s are spin-waiting on signals from CTAs "
                "that cannot be scheduled" % (self.blocked,)
            )
            if self.cycle is not None:
                message += "; wait cycle: %s" % (
                    " -> ".join("CTA %d" % c for c in self.cycle + self.cycle[:1])
                )
            if self.wait_chain:
                message += "\n" + "\n".join(
                    "  CTA %d waits on slot %d: %s" % step
                    for step in self.wait_chain
                )
        super().__init__(message)


class ProtocolViolation(SimulationError):
    """The Stream-K carry protocol was breached in an executed trace.

    Raised by :func:`repro.faults.checker.check_protocol_invariants` when
    a replayed :class:`~repro.gpu.trace.ExecutionTrace` (or the schedule
    behind it) violates an invariant of the partials/fixup protocol —
    e.g. a tile's k-range covered twice, a fixup that reads a partial
    before its producer published the flag, or a partial consumed by more
    than one owner.
    """


class SweepInterrupted(ReproError):
    """A corpus sweep drained cleanly on SIGINT/SIGTERM.

    Raised by :func:`repro.harness.parallel.evaluate_corpus_sharded`
    after the drain handler fires: dispatch of new shards stopped,
    completions so far stay journaled (when a journal is attached), and
    the worker processes were terminated and joined.  The CLI
    maps this to the distinct *resumable* exit status
    (:data:`repro.harness.journal.RESUMABLE_EXIT_STATUS`); re-run with
    ``--resume`` to pick the sweep back up from the journal.

    Attributes ``completed`` / ``total`` (shard counts) and
    ``journal_dir`` are filled in when known.
    """

    def __init__(
        self,
        message: "str | None" = None,
        completed: "int | None" = None,
        total: "int | None" = None,
        journal_dir: "str | None" = None,
    ):
        self.completed = completed
        self.total = total
        self.journal_dir = journal_dir
        if message is None:
            message = "sweep interrupted; dispatch drained and workers reaped"
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        if self.completed is not None and self.total is not None:
            msg += " (%d/%d shards durably completed)" % (
                self.completed,
                self.total,
            )
        if self.journal_dir:
            msg += "; resume with --resume --journal %s" % self.journal_dir
        return msg


class CalibrationError(ReproError, RuntimeError):
    """Microbenchmark calibration of the analytical model failed."""


class ValidationError(ReproError, AssertionError):
    """A numeric result failed verification against the reference GEMM."""

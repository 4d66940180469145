"""Deterministic kill-point injection for chaos-testing durable sweeps.

Where :class:`~repro.faults.injector.FaultInjector` perturbs the
*simulated* GPU, this module perturbs the *harness process itself*: a
:class:`ChaosKill` is threaded into the journaled sweep driver
(:func:`repro.harness.parallel.evaluate_corpus_sharded`) and fires a
real ``SIGKILL`` at a deterministic kill point — immediately after the
K-th ``shard_done`` record has been durably journaled.  Because the
journal commits each completion with fsync *before* the kill point is
evaluated, the post-mortem journal state is exactly "K shards done, the
rest open or in flight" — the worst-case crash the resume contract
(docs/CHECKPOINTING.md) must absorb bitwise.

``python -m repro sweep --chaos-kill-after K`` wires this up from the
CLI; the CI ``chaos`` job kills a reduced-corpus sweep at two distinct
kill points, resumes each, and asserts the merged result is
byte-identical to an uninterrupted reference run.

The ``action`` seam exists for in-process tests: instead of
``os.kill(os.getpid(), SIGKILL)`` (which would take the test runner with
it) a test can substitute any callable — typically one raising a
sentinel exception — and still exercise the exact kill-point placement.
"""

from __future__ import annotations

import os
import signal

from ..errors import ConfigurationError
from ..obs.counters import inc_counter

__all__ = ["ChaosKill", "ChaosWorkerKill"]


class ChaosKill:
    """Kill the sweep process after a fixed number of shard completions.

    ``kill_after_shards`` is 1-based: ``ChaosKill(1)`` fires right after
    the first ``shard_done`` commits.  The default action is a raw
    ``SIGKILL`` to this process — no cleanup handlers run, exactly like
    an OOM-kill — making it the harshest deterministic crash available
    for testing the journal's resume contract.
    """

    def __init__(
        self,
        kill_after_shards: int,
        sig: int = signal.SIGKILL,
        action=None,
    ):
        if kill_after_shards < 1:
            raise ConfigurationError(
                "kill_after_shards must be >= 1, got %r" % kill_after_shards
            )
        self.kill_after_shards = int(kill_after_shards)
        self.sig = sig
        self.action = action
        self.fired = False
        self._completions = 0

    def on_shard_done(self) -> None:
        """Kill point: called by the driver after each durable completion."""
        self._completions += 1
        if self.fired or self._completions < self.kill_after_shards:
            return
        self.fired = True
        inc_counter("faults.chaos_kills")
        if self.action is not None:
            self.action()
        else:  # pragma: no cover - exercised via subprocess in CI/tests
            os.kill(os.getpid(), self.sig)


class ChaosWorkerKill:
    """Kill one lease-fabric worker at a deterministic lease-lifecycle point.

    Where :class:`ChaosKill` targets the single-process sweep driver
    after a journaled completion, this targets a *fabric worker*
    (:mod:`repro.harness.fabric`) at one of the three lease-lifecycle
    boundaries the reclaim protocol must absorb:

    ``claim``
        immediately after the worker wins the lease and durably
        journals ``shard_started`` (no evaluation has happened);
    ``eval``
        mid-evaluation — after the heartbeat thread has started, before
        any result exists;
    ``commit``
        pre-commit — the shard is fully evaluated but ``shard_done``
        has not been journaled, the worst-case wasted-work crash.

    ``after`` is 1-based: ``ChaosWorkerKill("eval", 2)`` fires at the
    second time this worker reaches the ``eval`` boundary.  The default
    action is a raw self-``SIGKILL`` (no cleanup, the lease file stays
    behind exactly as a power loss would leave it); the ``action`` seam
    substitutes a callable for in-process tests.
    """

    POINTS = ("claim", "eval", "commit")

    def __init__(
        self,
        point: str,
        after: int = 1,
        sig: int = signal.SIGKILL,
        action=None,
    ):
        if point not in self.POINTS:
            raise ConfigurationError(
                "chaos worker kill point must be one of %s, got %r"
                % ("/".join(self.POINTS), point)
            )
        if after < 1:
            raise ConfigurationError(
                "chaos worker kill count must be >= 1, got %r" % after
            )
        self.point = point
        self.after = int(after)
        self.sig = sig
        self.action = action
        self.fired = False
        self._hits = 0

    @classmethod
    def parse(cls, spec: str, action=None) -> "ChaosWorkerKill":
        """Parse a ``POINT`` or ``POINT:K`` spec (e.g. ``commit:2``)."""
        point, _, count = str(spec).partition(":")
        try:
            after = int(count) if count else 1
        except ValueError:
            raise ConfigurationError(
                "chaos worker kill spec must be POINT[:K], got %r" % spec
            ) from None
        return cls(point.strip(), after, action=action)

    def on_event(self, event: str) -> None:
        """Kill point: the worker loop calls this at every boundary."""
        if event != self.point:
            return
        self._hits += 1
        if self.fired or self._hits < self.after:
            return
        self.fired = True
        inc_counter("faults.chaos_worker_kills")
        if self.action is not None:
            self.action()
        else:  # pragma: no cover - exercised via subprocess in CI/tests
            os.kill(os.getpid(), self.sig)

"""Overload-resilience primitives for the plan-serving stack.

Stream-K's thesis — bound the worst case *by construction* instead of
hoping load divides evenly — applies at the service layer too.  This
module holds the pieces the serving stack composes to stay up under
bursty, adversarial, or partially-broken conditions (docs/SERVING.md,
"Overload behavior"):

* **Structured rejections** — every way the service can refuse a query
  is a distinct :class:`ServeRejected` subclass carrying a stable
  machine-readable ``code`` (``overloaded``, ``deadline_expired``,
  ``degraded``, ``draining``, ``timeout``).  The wire front-end echoes
  the code so clients can decide *deterministically* whether to retry
  (``overloaded``/``timeout``) or give up (``degraded`` while the
  breaker is open).  All subclass
  :class:`~repro.errors.ConfigurationError` so existing API callers
  catching the library's one boundary type keep working.
* **Circuit breaker** (:class:`CircuitBreaker`) — wraps the batcher's
  ``plan_batch``: after ``threshold`` *consecutive* failures the
  breaker opens and the service degrades to serving plan-cache hits
  only; after ``cooldown_s`` a single half-open probe is admitted
  and its outcome closes or re-opens the breaker.  Transitions count
  ``serve.breaker_open`` / ``serve.breaker_half_open`` /
  ``serve.breaker_closed``.
* **Retry policy** (:class:`RetryPolicy`) — the client side: seeded
  exponential backoff with deterministic jitter, so a replayed load
  run backs off identically run-to-run.
* **Chaos seam** (:class:`ServeChaos` / :func:`parse_chaos`) — the
  deterministic planner-fault injector behind ``repro serve
  --chaos-plan`` and the ``chaos`` wire op, in the spirit of the
  count-triggered :class:`~repro.faults.chaos.ChaosKill`: stall or
  fail the next N micro-batches, exactly, so chaos CI runs are
  reproducible.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..obs.counters import inc_counter

__all__ = [
    "ServeRejected",
    "OverloadedError",
    "DeadlineExpiredError",
    "DegradedError",
    "DrainingError",
    "PlanTimeoutError",
    "CircuitBreaker",
    "RetryPolicy",
    "ServeChaos",
    "parse_chaos",
]


# --------------------------------------------------------------------- #
# Structured rejections                                                  #
# --------------------------------------------------------------------- #


class ServeRejected(ConfigurationError):
    """The service refused a plan query without planning it.

    ``code`` is the stable wire-level identifier (the ``"code"`` field
    of an error reply); subclasses pin one code each.
    """

    code = "rejected"


class OverloadedError(ServeRejected):
    """Admission control shed this request: the miss queue is full."""

    code = "overloaded"


class DeadlineExpiredError(ServeRejected):
    """The request's ``deadline_ms`` budget lapsed before a plan."""

    code = "deadline_expired"


class DegradedError(ServeRejected):
    """The circuit breaker is open: only cache hits are being served."""

    code = "degraded"


class DrainingError(ServeRejected):
    """The service is draining (or closed) and accepts no new queries."""

    code = "draining"


class PlanTimeoutError(ServeRejected):
    """The caller's ``timeout`` elapsed while waiting on the batcher."""

    code = "timeout"


# --------------------------------------------------------------------- #
# Circuit breaker                                                        #
# --------------------------------------------------------------------- #


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    States (:attr:`state`):

    ``closed``
        Normal operation.  ``threshold`` consecutive
        :meth:`record_failure` calls transition to ``open``.
    ``open``
        Misses are rejected without queueing.  After ``cooldown_s`` on
        the breaker's clock the next :meth:`admit` transitions to
        ``half_open`` and is admitted as the probe.
    ``half_open``
        Exactly one probe is in flight; further :meth:`admit` calls are
        rejected.  The probe's outcome closes (:meth:`record_success`)
        or re-opens (:meth:`record_failure`) the breaker.

    ``threshold <= 0`` disables the breaker entirely (always closed).
    ``clock`` is injectable for deterministic tests; it defaults to
    :func:`time.monotonic`.  All methods are thread-safe.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 1.0,
        clock=time.monotonic,
    ):
        if cooldown_s < 0:
            raise ConfigurationError(
                "breaker cooldown must be >= 0, got %r" % (cooldown_s,)
            )
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at: "float | None" = None
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"``."""
        with self._lock:
            return self._state

    def admit(self) -> bool:
        """Whether a *miss* may enter the planning path right now.

        May transition ``open -> half_open`` (admitting the caller as
        the probe).  Cache hits never consult the breaker.
        """
        if self.threshold <= 0:
            return True
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                assert self._opened_at is not None
                if self._clock() - self._opened_at < self.cooldown_s:
                    return False
                self._state = "half_open"
                self._probe_in_flight = True
                inc_counter("serve.breaker_half_open")
                return True
            # half_open: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def cancel_probe(self) -> None:
        """Release the probe slot without an outcome (the probe was
        shed by admission control before reaching the planner)."""
        with self._lock:
            if self._state == "half_open":
                self._probe_in_flight = False

    def record_success(self) -> None:
        """A planning batch succeeded; closes a non-closed breaker."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state != "closed":
                self._state = "closed"
                self._probe_in_flight = False
                self._opened_at = None
                inc_counter("serve.breaker_closed")

    def record_failure(self) -> None:
        """A planning batch failed; opens on the threshold'th in a row
        (or instantly from half-open — a failed probe re-opens)."""
        if self.threshold <= 0:
            return
        with self._lock:
            self._consecutive_failures += 1
            if self._state == "half_open" or (
                self._state == "closed"
                and self._consecutive_failures >= self.threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_in_flight = False
                inc_counter("serve.breaker_open")


# --------------------------------------------------------------------- #
# Client retry policy                                                    #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with deterministic jitter.

    ``backoff_s(attempt, rng)`` for attempt ``0, 1, 2, ...`` is
    ``min(max_backoff_s, base_backoff_s * 2**attempt)`` scaled by a
    jitter factor in ``[0.5, 1.0)`` drawn from ``rng`` — full
    determinism given the rng state, which the client seeds from
    ``seed`` (same seed, byte-identical backoff schedule).
    """

    #: Attempts after the first (0 = never retry).
    max_retries: int = 0
    #: First-retry backoff, before jitter.
    base_backoff_s: float = 0.005
    #: Exponential cap.
    max_backoff_s: float = 0.25
    #: Seed for the jitter stream.
    seed: int = 0
    #: Error codes worth retrying; ``degraded`` is deliberately not
    #: retryable by default (the breaker says the planner is down).
    retry_codes: "tuple[str, ...]" = ("overloaded", "timeout")

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")

    def rng(self) -> random.Random:
        """A fresh, seeded jitter stream for one client."""
        return random.Random(self.seed)

    def backoff_s(self, attempt: int, rng: "random.Random") -> float:
        cap = min(self.max_backoff_s, self.base_backoff_s * (2 ** attempt))
        return cap * (0.5 + 0.5 * rng.random())

    def should_retry(self, code: "str | None", attempt: int) -> bool:
        return attempt < self.max_retries and code in self.retry_codes


# --------------------------------------------------------------------- #
# Deterministic planner chaos (test seam)                                #
# --------------------------------------------------------------------- #


class ServeChaos:
    """Count-triggered planner fault: stall or fail the next N batches.

    Applied by the batcher once per micro-batch, *inside* the breaker's
    observation window, so ``fail`` chaos exercises the real breaker
    path and ``stall`` chaos wedges the real queue.  Deterministic by
    construction: the trigger is a batch count, not a probability.
    """

    def __init__(self, kind: str, stall_s: float = 0.0,
                 batches: "int | None" = None):
        if kind not in ("stall", "fail"):
            raise ConfigurationError(
                "chaos kind must be 'stall' or 'fail', got %r" % (kind,)
            )
        if kind == "stall" and stall_s <= 0:
            raise ConfigurationError("stall chaos needs a positive duration")
        if batches is not None and batches <= 0:
            raise ConfigurationError("chaos batch count must be positive")
        self.kind = kind
        self.stall_s = float(stall_s)
        #: Batches left to disturb; ``None`` = until disarmed.
        self.remaining = batches
        #: Batches actually disturbed so far.
        self.applied = 0

    def apply(self) -> None:
        """Disturb one micro-batch (no-op once exhausted).

        Called from the single batcher thread; ``stall`` sleeps,
        ``fail`` raises the injected planner error.
        """
        if self.remaining is not None:
            if self.remaining <= 0:
                return
            self.remaining -= 1
        self.applied += 1
        inc_counter("serve.chaos_injected")
        if self.kind == "stall":
            time.sleep(self.stall_s)
        else:
            raise RuntimeError(
                "chaos: injected planner failure (batch %d)" % self.applied
            )

    def spec(self) -> str:
        if self.kind == "stall":
            tail = "" if self.remaining is None else ":%d" % self.remaining
            return "stall:%g%s" % (self.stall_s, tail)
        return "fail" + ("" if self.remaining is None else ":%d" % self.remaining)


def parse_chaos(spec: "str | None") -> "ServeChaos | None":
    """Parse a ``--chaos-plan`` spec into a :class:`ServeChaos`.

    Grammar: ``off`` (or empty) disarms; ``stall:S`` / ``stall:S:N``
    stalls every (or the next N) micro-batch(es) for S seconds;
    ``fail`` / ``fail:N`` makes every (or the next N) batch(es) raise.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if spec in ("", "off", "none"):
        return None
    parts = spec.split(":")
    try:
        if parts[0] == "stall":
            if len(parts) == 2:
                return ServeChaos("stall", stall_s=float(parts[1]))
            if len(parts) == 3:
                return ServeChaos(
                    "stall", stall_s=float(parts[1]), batches=int(parts[2])
                )
        elif parts[0] == "fail":
            if len(parts) == 1:
                return ServeChaos("fail")
            if len(parts) == 2:
                return ServeChaos("fail", batches=int(parts[1]))
    except ValueError:
        pass
    raise ConfigurationError(
        "invalid chaos spec %r (expected off | stall:S[:N] | fail[:N])"
        % (spec,)
    )

"""Resilient JSONL plan client: one connection, retries, seeded backoff.

:class:`PlanClient` speaks the ``docs/SERVING.md`` wire protocol to a
running ``repro serve`` daemon and layers the client half of the
overload contract on top:

* **Deadline propagation** — ``deadline_ms`` rides each request so the
  daemon can drop the work if the budget lapses while it is queued.
* **Retries** — structured rejections whose ``code`` is retryable
  (``overloaded``, ``timeout`` by default; see
  :class:`~repro.plan.resilience.RetryPolicy`) are retried with seeded
  exponential backoff + deterministic jitter.  ``degraded`` is *not*
  retried by default: the breaker just said the planner is down, and
  hammering it defeats the point.
* **Connection hygiene** — one blocking connection carries one request
  at a time.  A timeout or transport error closes it and the next
  attempt reconnects, so a reply that arrives after the caller gave up
  dies with its connection and can never be returned for a later
  request.

Every outcome is tallied in :attr:`PlanClient.stats` (``requests``,
``retries``, ``failures`` and a per-code breakdown), which the load
generator folds into its trace report.

The client is deliberately single-threaded per instance (the load
generator gives each client thread its own instance, seeded by client
index) — determinism of the backoff schedule is part of the replay
contract.
"""

from __future__ import annotations

import json
import socket
import time

from .resilience import RetryPolicy

__all__ = ["PlanClient", "RetryPolicy"]


class PlanClient:
    """Resilient client for one ``repro serve`` daemon.

    ``plan`` returns the server's reply dict (``ok`` true or false)
    rather than raising on rejection — the caller decides what a shed
    or expired request means for its workload.  Transport-level
    timeouts surface as a synthetic ``{"ok": false, "code": "timeout"}``
    reply so retry handling is uniform.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        retry: "RetryPolicy | None" = None,
    ):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self._rng = self.retry.rng()
        self._next_id = 0
        self._sock: "socket.socket | None" = None
        self._reader = None
        self.stats = {
            "requests": 0,
            "retries": 0,
            "failures": 0,
            "codes": {},
        }

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            except OSError:
                pass
        self._sock = self._reader = None

    def __enter__(self) -> "PlanClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def plan(
        self,
        m: int,
        n: int,
        k: int,
        dtype: str = "fp16_fp32",
        gpu: str = "a100",
        deadline_ms: "float | None" = None,
    ) -> dict:
        """Issue one plan query with the configured resilience stack."""
        self.stats["requests"] += 1
        msg = {"op": "plan", "m": int(m), "n": int(n), "k": int(k),
               "dtype": dtype, "gpu": gpu}
        if deadline_ms is not None:
            msg["deadline_ms"] = float(deadline_ms)
        attempt = 0
        while True:
            reply = self._attempt(msg)
            if reply.get("ok"):
                return reply
            code = reply.get("code")
            self.stats["codes"][code or "error"] = (
                self.stats["codes"].get(code or "error", 0) + 1
            )
            if self.retry.should_retry(code, attempt):
                self.stats["retries"] += 1
                time.sleep(self.retry.backoff_s(attempt, self._rng))
                attempt += 1
                continue
            self.stats["failures"] += 1
            return reply

    def _attempt(self, msg: dict) -> dict:
        self._next_id += 1
        msg["id"] = "c%d" % self._next_id
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                self._reader = self._sock.makefile("rb")
            self._sock.sendall((json.dumps(msg) + "\n").encode("utf-8"))
            line = self._reader.readline()
            if not line:
                raise ConnectionError("plan server closed the connection")
            return json.loads(line)
        except socket.timeout:
            # The server may still answer; closing the connection makes
            # sure that late reply is never read as a later request's.
            self.close()
            return {"ok": False, "code": "timeout",
                    "error": "no reply within %.1fs" % self.timeout_s}
        except (OSError, ValueError) as exc:
            # Broken transport or garbled reply: reconnect next attempt.
            self.close()
            return {"ok": False, "code": "timeout",
                    "error": "transport error: %s" % exc}

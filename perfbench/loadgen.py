"""Single-threaded ``select`` load generator for the JSONL plan daemon.

Two loops share one connection type:

* :func:`open_loop` sends request ``j`` at its due time ``t0 + j/rate``
  whatever the replies do (independent users), round-robin over the
  connections, and times each reply from the request's *due* time, so a
  stall is charged to every request that was due while it lasted.
* :func:`closed_loop` keeps exactly one request outstanding per
  connection and sends the next as soon as a reply lands (callers that
  wait for their answer): completed replies per second is the peak rate.

The daemon answers the lines of one connection in order, so replies are
matched to requests first-in first-out without parsing them inside the
timed loop; callers parse the raw reply lines afterwards.  Client
sockets set ``TCP_NODELAY``, so requests leave when due.

With the client's delayed ACKs, any two replies the daemon writes back
to back start a self-sustaining stall: Nagle holds each reply until the
previous one is acknowledged, which happens only when the next request
arrives, so in an open loop each reply waits one inter-arrival gap.  A
connection made with ``quickack=True`` re-arms ``TCP_QUICKACK`` after
every read, acknowledges at once and never enters the stall.
"""

from __future__ import annotations

import collections
import json
import select
import socket
import time

from common import percentile

#: A run is invalid (not fast) when the generator sent later than this
#: at the 99th percentile, or fell short of the offered rate by more
#: than :data:`MIN_ACHIEVED_SHARE`.
LATENESS_BOUND_MS = 20.0
MIN_ACHIEVED_SHARE = 0.97
#: How long either loop waits for a reply before giving up on the
#: requests still in flight (their replies stay ``None``: failed).
DRAIN_TIMEOUT_S = 5.0


class Conn:
    def __init__(self, addr, quickack: bool = False):
        self.sock = socket.create_connection(addr, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.quickack = quickack
        self.sock.setblocking(False)
        self._ack_now()
        self.rbuf = b""
        self.wbuf = b""
        #: Request indices awaiting a reply, in send order.
        self.waiting = collections.deque()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, index: int, line: bytes) -> None:
        self.waiting.append(index)
        self.wbuf += line
        self.flush()

    def flush(self) -> None:
        if self.wbuf:
            try:
                sent = self.sock.send(self.wbuf)
            except BlockingIOError:
                return
            self.wbuf = self.wbuf[sent:]

    def read_lines(self) -> "list[bytes]":
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._ack_now()
        self.rbuf += chunk
        *lines, self.rbuf = self.rbuf.split(b"\n")
        return lines

    def _ack_now(self) -> None:
        # Linux leaves quick-ACK mode on its own; re-arm it per read.
        if self.quickack:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def close(self) -> None:
        self.sock.close()


def connect(addr, count: int, quickack: bool = False) -> "list[Conn]":
    return [Conn(addr, quickack) for _ in range(count)]


def request_line(m: int, n: int, k: int) -> bytes:
    return b'{"op": "plan", "m": %d, "n": %d, "k": %d}\n' % (m, n, k)


def rpc(addr, msg: dict, timeout_s: float = 10.0) -> "tuple[dict, float]":
    """One blocking request on a fresh connection: (reply, seconds)."""
    with socket.create_connection(addr, timeout=timeout_s) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t0 = time.perf_counter()
        sock.sendall((json.dumps(msg) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
        return json.loads(buf), time.perf_counter() - t0


class PhaseResult:
    """Raw per-request timings and reply lines of one phase."""

    def __init__(self, count: int):
        self.due = [0.0] * count
        self.sent = [0.0] * count
        self.received = [None] * count
        self.replies: "list[bytes | None]" = [None] * count
        self.started = 0.0
        self.ended = 0.0

    @property
    def completed(self) -> int:
        return sum(1 for r in self.received if r is not None)

    def latencies_ms(self) -> "list[float]":
        """Reply time minus due time, for answered requests."""
        return [
            (r - d) * 1e3 for d, r in zip(self.due, self.received)
            if r is not None
        ]

    def lateness_ms(self) -> "list[float]":
        """Send time minus due time, for every request."""
        return [(s - d) * 1e3 for d, s in zip(self.due, self.sent)]


def _pump(conns, result: PhaseResult, timeout: float, on_reply=None) -> None:
    writers = [c for c in conns if c.wbuf]
    readable, writable, _ = select.select(conns, writers, [], max(timeout, 0.0))
    for c in writable:
        c.flush()
    for c in readable:
        lines = c.read_lines()
        now = time.perf_counter()
        for line in lines:
            index = c.waiting.popleft()
            result.received[index] = now
            result.replies[index] = line
            if on_reply is not None:
                on_reply(c, now)


def open_loop(conns, lines: "list[bytes]", rate: float) -> PhaseResult:
    """Send ``lines`` at ``rate`` per second; wait for every reply."""
    count = len(lines)
    result = PhaseResult(count)
    t0 = time.perf_counter() + 0.01
    for j in range(count):
        result.due[j] = t0 + j / rate
    result.started = t0
    nxt = 0
    while nxt < count:
        now = time.perf_counter()
        while nxt < count and result.due[nxt] <= now:
            result.sent[nxt] = now
            conns[nxt % len(conns)].send(nxt, lines[nxt])
            nxt += 1
        if nxt < count:
            _pump(conns, result, result.due[nxt] - time.perf_counter())
    result.ended = time.perf_counter()
    deadline = result.ended + DRAIN_TIMEOUT_S
    while any(c.waiting for c in conns) and time.perf_counter() < deadline:
        _pump(conns, result, 0.05)
    return result


def closed_loop(conns, lines: "list[bytes]", seconds: float) -> PhaseResult:
    """One outstanding request per connection, back to back, for
    ``seconds``; stops early if ``lines`` runs out, or when no reply has
    come for :data:`DRAIN_TIMEOUT_S`."""
    result = PhaseResult(len(lines))
    state = {"next": 0, "progress": time.perf_counter()}
    stop_at = time.perf_counter() + seconds

    def issue(c, now) -> None:
        state["progress"] = now
        j = state["next"]
        if j >= len(lines) or now >= stop_at:
            return
        state["next"] = j + 1
        result.due[j] = result.sent[j] = now
        c.send(j, lines[j])

    result.started = time.perf_counter()
    for c in conns:
        issue(c, time.perf_counter())
    while (any(c.waiting for c in conns)
           and time.perf_counter() - state["progress"] < DRAIN_TIMEOUT_S):
        _pump(conns, result, 0.05, on_reply=issue)
    result.ended = time.perf_counter()
    return result


def honesty(results: "list[PhaseResult]", rate: float) -> dict:
    """Achieved vs offered rate and generator lateness over the segments
    of one open loop.

    ``valid`` is False when the generator, not the daemon, limited the
    run: such a run is reported invalid, never fast.
    """
    count = sum(len(r.due) for r in results)
    # Every send happens at or after its due time, so the last send
    # closes the window the generator actually needed.
    span = sum(max(r.sent) - r.due[0] + 1.0 / rate for r in results)
    achieved = count / span
    p99 = percentile([x for r in results for x in r.lateness_ms()], 99.0)
    answered = sum(r.completed for r in results)
    valid = (
        achieved >= MIN_ACHIEVED_SHARE * rate
        and p99 <= LATENESS_BOUND_MS
        and answered == count
    )
    return {
        "offered_rps": rate,
        "achieved_rps": achieved,
        "lateness_p99_ms": p99,
        "answered": answered,
        "sent": count,
        "valid": valid,
    }

"""Stateful property suite for the sweep fabric's shard leases.

A Hypothesis ``RuleBasedStateMachine`` drives three
:class:`repro.harness.fabric.LeaseManager` instances that share one
lease directory through random interleavings of claim, heartbeat,
release, observe, clock advance and reclaim.  Expiry is measured on the
observer's monotonic clock, so the machine swaps the fabric module's
``time`` for a fake whose ``monotonic()`` only moves when the
``advance`` rule says so: "the lease sat unchanged past its budget" is
then an exact, reproducible statement instead of a sleep.

After every step the machine asserts:

* at most one holder per shard: the lease file names exactly the worker
  the model says won the claim, and no file exists for a free shard;
* a lease whose content changed within the budget is never reported
  expired;
* a lease left unchanged past the budget is reported expired by every
  non-holder that saw that content;
* when two observers reclaim the same shard, exactly one wins.

Profiles come from ``tests/conftest.py`` (derandomized
``dev`` / ``ci`` via ``HYPOTHESIS_PROFILE``).
"""

import json
import os
import shutil
import tempfile
import time as _real_time

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.harness import fabric
from repro.harness.fabric import LeaseManager

WORKERS = 3
SHARDS = 3
BUDGET = 1.0

_worker = st.integers(min_value=0, max_value=WORKERS - 1)
_shard = st.integers(min_value=0, max_value=SHARDS - 1)


class _FakeTime:
    """Stands in for the ``time`` module inside :mod:`repro.harness.fabric`.

    ``monotonic`` is the machine's clock; ``time`` (forensic wall time
    in lease payloads) strictly increases per call so two claims never
    write byte-identical content.
    """

    def __init__(self):
        self.now = 0.0
        self._wall = 0

    def monotonic(self) -> float:
        return self.now

    def time(self) -> float:
        self._wall += 1
        return float(self._wall)

    sleep = staticmethod(_real_time.sleep)


class LeaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = _FakeTime()
        self._saved_time = fabric.time
        fabric.time = self.clock
        self.dir = tempfile.mkdtemp(prefix="lease-sm-")
        self.managers = [
            LeaseManager(self.dir, "host:%d:w%d" % (w, w), BUDGET)
            for w in range(WORKERS)
        ]
        #: shard -> index of the worker named in its lease file, or None
        self.owner: "dict[int, int | None]" = {s: None for s in range(SHARDS)}
        #: shard -> content version (bumped by every claim and heartbeat)
        self.version = {s: 0 for s in range(SHARDS)}
        #: shard -> clock time of its last content change
        self.changed_at = {s: 0.0 for s in range(SHARDS)}
        #: worker -> shards it claimed and has not released (its _held)
        self.held = {w: set() for w in range(WORKERS)}
        #: worker -> shard -> (version, clock time it first saw it)
        self.seen = {w: {} for w in range(WORKERS)}

    def teardown(self):
        fabric.time = self._saved_time
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- rules ---------------------------------------------------------- #

    @initialize(w=_worker, s=_shard)
    def first_claim(self, w, s):
        self.claim(w, s)

    @rule(w=_worker, s=_shard)
    def claim(self, w, s):
        won = self.managers[w].try_claim(s)
        assert won == (self.owner[s] is None), (
            "claim of shard %d by w%d returned %s with owner %r"
            % (s, w, won, self.owner[s])
        )
        if won:
            self.owner[s] = w
            self.held[w].add(s)
            self._changed(s)

    @rule(s=_shard)
    def heartbeat(self, s):
        w = self.owner[s]
        if w is None:
            return
        self.managers[w].heartbeat(s, self.version[s] + 1)
        self._changed(s)

    @rule(s=_shard)
    def release(self, s):
        w = self.owner[s]
        if w is None:
            return
        self.managers[w].release(s)
        self.held[w].discard(s)
        self.owner[s] = None

    @rule(dt=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]))
    def advance(self, dt):
        self.clock.now += dt

    @rule(w=_worker)
    def observe(self, w):
        now = self.clock.now
        got = set(self.managers[w].expired_shards(list(range(SHARDS))))
        want = set()
        for s in range(SHARDS):
            if s in self.held[w]:
                continue  # never judges a shard it holds, never records it
            if self.owner[s] is None:
                self.seen[w].pop(s, None)
                continue
            prev = self.seen[w].get(s)
            if prev is not None and prev[0] == self.version[s]:
                if now - prev[1] > BUDGET:
                    want.add(s)
            else:
                self.seen[w][s] = (self.version[s], now)
        for s in got:
            assert now - self.changed_at[s] > BUDGET, (
                "w%d reported shard %d expired %.2fs after its content "
                "changed (budget %.2fs)"
                % (w, s, now - self.changed_at[s], BUDGET)
            )
        assert got == want, "w%d expired %r, model %r" % (w, got, want)

    @rule(w=_worker, s=_shard)
    def reclaim(self, w, s):
        won = self.managers[w].reclaim(s)
        assert won == (self.owner[s] is not None)
        self._reclaimed(s, (w,))

    @rule(a=_worker, b=_worker, s=_shard)
    def reclaim_race(self, a, b, s):
        if a == b:
            return
        existed = self.owner[s] is not None
        wins = [self.managers[a].reclaim(s), self.managers[b].reclaim(s)]
        assert sum(wins) == (1 if existed else 0), (
            "reclaim race on shard %d: %r (lease existed: %s)"
            % (s, wins, existed)
        )
        self._reclaimed(s, (a, b))

    # -- invariants ----------------------------------------------------- #

    @invariant()
    def at_most_one_holder(self):
        for s in range(SHARDS):
            path = self.managers[0].lease_path(s)
            if self.owner[s] is None:
                assert not os.path.exists(path), "free shard %d has a lease" % s
                continue
            with open(path, "rb") as fh:
                doc = json.loads(fh.read())
            assert doc["worker"] == self.managers[self.owner[s]].worker_id

    # -- model helpers -------------------------------------------------- #

    def _changed(self, s):
        self.version[s] += 1
        self.changed_at[s] = self.clock.now

    def _reclaimed(self, s, observers):
        # The evicted holder keeps the shard in its held set (it may be a
        # slow worker that still finishes and commits) exactly as
        # LeaseManager does; reclaim forgets the observers' sightings.
        self.owner[s] = None
        for w in observers:
            self.seen[w].pop(s, None)


TestLeaseStateMachine = LeaseMachine.TestCase

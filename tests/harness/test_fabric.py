"""Lease fabric: claims, heartbeats, expiry/reclaim, and bitwise merges.

In-process tests of :mod:`repro.harness.fabric` — the lease manager
units, the worker loop via :func:`join_sweep`, wedged-worker reclaim,
chaos kill seams, the ``jobs > 1`` worker fabric, and the routing
through :func:`evaluate_corpus_sharded`.  The real-SIGKILL multi-worker
matrix (byte-identical merged ``.npz``) runs through the CLI in the CI
``fabric`` job and in :class:`TestRealWorkerKill` below.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.errors import ConfigurationError
from repro.faults import ChaosWorkerKill
from repro.gemm import FP64
from repro.gpu import HYPOTHETICAL_4SM
from repro.harness import fabric as fabric_mod
from repro.harness.fabric import (
    DEFAULT_HEARTBEAT_FRACTION,
    DEFAULT_LEASE_SECONDS,
    LeaseManager,
    join_sweep,
    make_worker_id,
    resolve_heartbeat_seconds,
    resolve_lease_seconds,
)
from repro.harness.journal import read_wal_records
from repro.harness.parallel import clear_eval_memo, evaluate_corpus_sharded
from repro.harness.vectorized import evaluate_corpus
from repro.obs.counters import get_counter, reset_counters

from .test_parallel import assert_timings_equal

SIZE = 600
SHARD_ROWS = 128  # -> 5 shards
NSHARDS = 5


@pytest.fixture(scope="module")
def shapes():
    return generate_corpus(CorpusSpec(size=SIZE))


@pytest.fixture(scope="module")
def reference(shapes):
    return evaluate_corpus(shapes, FP64, HYPOTHETICAL_4SM)


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_LEASE_SECONDS", raising=False)
    monkeypatch.delenv("REPRO_HEARTBEAT_SECONDS", raising=False)
    clear_eval_memo()
    reset_counters()
    yield
    clear_eval_memo()
    reset_counters()


def _join(shapes, jdir, **kw):
    kw.setdefault("shard_rows", SHARD_ROWS)
    return join_sweep(shapes, FP64, HYPOTHETICAL_4SM, jdir, **kw)


class TestResolvers:
    def test_lease_explicit_beats_env_beats_default(self, monkeypatch):
        assert resolve_lease_seconds(12.5) == 12.5
        monkeypatch.setenv("REPRO_LEASE_SECONDS", "7.5")
        assert resolve_lease_seconds(None) == 7.5
        assert resolve_lease_seconds(12.5) == 12.5  # explicit still wins
        monkeypatch.delenv("REPRO_LEASE_SECONDS")
        assert resolve_lease_seconds(None) == DEFAULT_LEASE_SECONDS

    def test_lease_junk_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_SECONDS", "banana")
        assert resolve_lease_seconds(None) == DEFAULT_LEASE_SECONDS

    def test_lease_floor(self):
        assert resolve_lease_seconds(0.0) == 0.05

    def test_heartbeat_defaults_to_lease_fraction(self):
        assert resolve_heartbeat_seconds(None, 30.0) == pytest.approx(
            30.0 * DEFAULT_HEARTBEAT_FRACTION
        )

    def test_heartbeat_clamped_to_half_lease(self, monkeypatch):
        # A heartbeat slower than expiry would make live workers look dead.
        assert resolve_heartbeat_seconds(100.0, 10.0) == 5.0
        monkeypatch.setenv("REPRO_HEARTBEAT_SECONDS", "100")
        assert resolve_heartbeat_seconds(None, 10.0) == 5.0

    def test_worker_ids_are_unique(self):
        ids = {make_worker_id() for _ in range(32)}
        assert len(ids) == 32
        wid = make_worker_id(3)
        assert wid.endswith(":w3")
        assert str(os.getpid()) in wid


class TestLeaseManager:
    def _pair(self, tmp_path, lease_seconds=30.0):
        d = str(tmp_path)
        return (
            LeaseManager(d, "host:1:aaaa", lease_seconds),
            LeaseManager(d, "host:2:bbbb", lease_seconds),
        )

    def test_claim_is_exclusive(self, tmp_path):
        a, b = self._pair(tmp_path)
        assert a.try_claim(0)
        assert not b.try_claim(0)
        assert b.try_claim(1)  # other shards unaffected

    def test_claim_binds_worker_identity(self, tmp_path):
        a, _ = self._pair(tmp_path)
        a.try_claim(2)
        with open(a.lease_path(2)) as fh:
            doc = json.loads(fh.read())
        assert doc["worker"] == "host:1:aaaa" and doc["seq"] == 0

    def test_release_makes_claimable_again(self, tmp_path):
        a, b = self._pair(tmp_path)
        a.try_claim(0)
        a.release(0)
        assert b.try_claim(0)

    def test_heartbeat_changes_content(self, tmp_path):
        a, _ = self._pair(tmp_path)
        a.try_claim(0)
        with open(a.lease_path(0), "rb") as fh:
            before = fh.read()
        a.heartbeat(0, 1)
        with open(a.lease_path(0), "rb") as fh:
            after = fh.read()
        assert after != before
        assert json.loads(after)["seq"] == 1

    def test_expiry_needs_unchanged_content_past_budget(self, tmp_path):
        a, b = self._pair(tmp_path, lease_seconds=0.15)
        a.try_claim(0)
        # First sighting only starts the observer's clock.
        assert b.expired_shards([0]) == []
        time.sleep(0.2)
        assert b.expired_shards([0]) == [0]

    def test_heartbeat_resets_observer_clock(self, tmp_path):
        a, b = self._pair(tmp_path, lease_seconds=0.15)
        a.try_claim(0)
        assert b.expired_shards([0]) == []
        time.sleep(0.1)
        a.heartbeat(0, 1)  # content changed: holder is alive
        time.sleep(0.1)
        assert b.expired_shards([0]) == []

    def test_never_expires_own_or_unleased_shards(self, tmp_path):
        a, _ = self._pair(tmp_path, lease_seconds=0.0)
        a.try_claim(0)
        a.expired_shards([0, 1])
        time.sleep(0.05)
        # Shard 0 is held by this observer, shard 1 has no lease file.
        assert a.expired_shards([0, 1]) == []

    def test_reclaim_removes_lease(self, tmp_path):
        a, b = self._pair(tmp_path)
        a.try_claim(0)
        assert b.reclaim(0)
        assert not os.path.exists(a.lease_path(0))
        assert b.try_claim(0)

    def test_reclaim_lost_race_returns_false(self, tmp_path):
        _, b = self._pair(tmp_path)
        assert not b.reclaim(3)  # no lease file: a peer beat us to it


class _ChaosAbort(BaseException):
    """Sentinel substituted for SIGKILL by the in-process chaos tests."""


def _raise_chaos():
    raise _ChaosAbort()


class TestJoinSweep:
    def test_single_join_bitwise(self, shapes, reference, tmp_path):
        got = _join(shapes, str(tmp_path / "j"))
        assert_timings_equal(got, reference)
        assert get_counter("fabric.claims") == NSHARDS
        assert get_counter("fabric.commits") == NSHARDS

    def test_join_after_complete_evaluates_nothing(
        self, shapes, reference, tmp_path
    ):
        jdir = str(tmp_path / "j")
        _join(shapes, jdir)
        reset_counters()
        got = _join(shapes, jdir)
        assert_timings_equal(got, reference)
        assert get_counter("fabric.claims") == 0  # merge barrier only

    def test_wedged_worker_shard_reclaimed_within_budget(
        self, shapes, reference, tmp_path
    ):
        """The acceptance bar: a worker whose heartbeat stopped but whose
        lease file persists (process wedged, not dead) loses its shard
        within the lease budget and the sweep still completes bitwise."""
        jdir = str(tmp_path / "j")
        lease_dir = os.path.join(jdir, "leases")
        os.makedirs(lease_dir)
        with open(os.path.join(lease_dir, "shard_00000.lease"), "w") as fh:
            fh.write('{"worker": "ghost:999:dead", "seq": 4}\n')
        t0 = time.monotonic()
        got = _join(shapes, jdir, lease_seconds=0.5, heartbeat_seconds=0.1)
        elapsed = time.monotonic() - t0
        assert_timings_equal(got, reference)
        assert get_counter("fabric.lease_expired") >= 1
        assert get_counter("fabric.reclaims") >= 1
        assert get_counter("fabric.steals") >= 1
        assert get_counter("fabric.claims") == NSHARDS
        # Reclaim waits out the budget, not some multiple of it.
        assert elapsed < 30.0

    @pytest.mark.parametrize("point", ["claim", "eval", "commit"])
    def test_kill_seam_then_rejoin_bitwise(
        self, shapes, reference, tmp_path, point
    ):
        """Dying at each lease-lifecycle boundary leaves a journal a
        fresh worker finishes to a byte-identical merge."""
        jdir = str(tmp_path / "j")
        chaos = ChaosWorkerKill(point, after=1, action=_raise_chaos)
        with pytest.raises(_ChaosAbort):
            _join(shapes, jdir, chaos=chaos, lease_seconds=0.4,
                  heartbeat_seconds=0.1)
        assert get_counter("faults.chaos_worker_kills") == 1
        reset_counters()
        got = _join(shapes, jdir, lease_seconds=0.4, heartbeat_seconds=0.1)
        assert_timings_equal(got, reference)
        # The victim's shard was re-run unless it died pre-commit with
        # nothing journaled; either way nothing is evaluated twice here.
        assert get_counter("fabric.commits") >= 1

    def test_unusable_journal_dir_degrades_to_plain_eval(
        self, shapes, reference, tmp_path
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        got = _join(shapes, str(blocker))
        assert_timings_equal(got, reference)
        assert get_counter("fabric.degraded") == 1
        assert get_counter("fabric.claims") == 0

    def test_lease_io_failure_degrades_to_serial_finish(
        self, shapes, reference, tmp_path, monkeypatch
    ):
        def boom(self, shard):
            raise OSError("lease filesystem went away")

        monkeypatch.setattr(LeaseManager, "try_claim", boom)
        got = _join(shapes, str(tmp_path / "j"))
        assert_timings_equal(got, reference)
        assert get_counter("fabric.degraded") == 1
        assert get_counter("fabric.serial_fallback_shards") == NSHARDS

    def test_two_sequential_joiners_split_disjoint_work(
        self, shapes, reference, tmp_path
    ):
        """A second joiner attaching to a half-done journal claims only
        what is open (the concurrent version runs in the CI fabric job)."""
        jdir = str(tmp_path / "j")
        chaos = ChaosWorkerKill("claim", after=3, action=_raise_chaos)
        with pytest.raises(_ChaosAbort):
            _join(shapes, jdir, chaos=chaos)
        reset_counters()
        got = _join(shapes, jdir, lease_seconds=0.4, heartbeat_seconds=0.1)
        assert_timings_equal(got, reference)
        assert get_counter("fabric.claims") < NSHARDS


def _sweep2(shapes, jdir=None, **kw):
    kw.setdefault("jobs", 2)
    return evaluate_corpus_sharded(
        shapes, FP64, HYPOTHETICAL_4SM, journal=jdir,
        shard_rows=SHARD_ROWS, **kw
    )


class TestFabricSweep:
    """``jobs > 1``: the parent forks fabric workers over the journal."""

    def test_two_workers_bitwise_and_compacted(
        self, shapes, reference, tmp_path
    ):
        jdir = str(tmp_path / "j")
        got = _sweep2(shapes, jdir)
        assert_timings_equal(got, reference)
        # The parent compacts once the children are reaped.
        assert os.path.exists(os.path.join(jdir, "checkpoint.json"))
        # Every shard was evaluated exactly once, in a worker, and the
        # workers' counters were shipped home.
        assert get_counter("fabric.commits") == NSHARDS
        assert get_counter("harness.shards_ok") == NSHARDS
        assert get_counter("fabric.workers_lost") == 0

    @pytest.mark.parametrize("journaled", [True, False])
    @pytest.mark.parametrize("jobs", [1, 2, 0])
    def test_bitwise_at_every_jobs_value(
        self, shapes, reference, tmp_path, jobs, journaled
    ):
        jdir = str(tmp_path / "j") if journaled else None
        assert_timings_equal(_sweep2(shapes, jdir, jobs=jobs), reference)

    def test_journal_less_sweep_removes_its_temporary_journal(
        self, shapes, reference, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert_timings_equal(_sweep2(shapes), reference)
        assert get_counter("fabric.commits") == NSHARDS
        assert os.listdir(str(tmp_path)) == []

    def test_parent_fallback_when_no_worker_can_run(
        self, shapes, reference, tmp_path, monkeypatch
    ):
        def no_fork():
            raise OSError("fork denied")

        monkeypatch.setattr(
            fabric_mod.multiprocessing, "get_context", no_fork
        )
        for jdir in (str(tmp_path / "j"), None):
            reset_counters()
            got = _sweep2(shapes, jdir)
            assert_timings_equal(got, reference)
            assert get_counter("fabric.pool_unusable") == 1
            assert get_counter("fabric.parent_fallback") == 1
            assert get_counter("fabric.serial_fallback_shards") == NSHARDS

    def test_no_resume_reinitializes_a_matching_journal(
        self, shapes, reference, tmp_path
    ):
        jdir = str(tmp_path / "j")
        _sweep2(shapes, jdir)
        reset_counters()
        got = _sweep2(shapes, jdir, resume=False)
        assert_timings_equal(got, reference)
        assert get_counter("journal.skipped_shards") == 0
        assert get_counter("fabric.commits") == NSHARDS

    def test_resume_after_interrupt_does_not_wait_out_leases(
        self, shapes, reference, tmp_path, monkeypatch
    ):
        """Workers terminated by a drain leave their lease files behind;
        the resuming parent clears them instead of waiting the budget."""
        from repro.errors import SweepInterrupted
        from repro.harness import parallel

        def interrupt(event, shard_index):
            raise SweepInterrupted()

        jdir = str(tmp_path / "j")
        monkeypatch.setattr(parallel, "_DISPATCH_HOOK", interrupt)
        with pytest.raises(SweepInterrupted):
            _sweep2(shapes, jdir, lease_seconds=60.0)
        monkeypatch.setattr(parallel, "_DISPATCH_HOOK", None)
        t0 = time.monotonic()
        got = _sweep2(shapes, jdir, resume=True, lease_seconds=60.0)
        assert_timings_equal(got, reference)
        assert time.monotonic() - t0 < 30.0
        assert get_counter("fabric.lease_expired") == 0

    def test_resume_of_a_complete_journal_forks_nothing(
        self, shapes, reference, tmp_path, monkeypatch
    ):
        jdir = str(tmp_path / "j")
        _sweep2(shapes, jdir)
        reset_counters()
        forks = []

        def counting_context():
            forks.append(1)
            raise OSError("must not fork")

        monkeypatch.setattr(
            fabric_mod.multiprocessing, "get_context", counting_context
        )
        got = _sweep2(shapes, jdir, resume=True)
        assert_timings_equal(got, reference)
        assert forks == []
        assert get_counter("journal.skipped_shards") == NSHARDS
        assert get_counter("harness.shards_ok") == 0


class TestRouting:
    """``evaluate_corpus_sharded`` fronts the fabric."""

    def _sharded(self, shapes, **kw):
        return evaluate_corpus_sharded(
            shapes, FP64, HYPOTHETICAL_4SM, shard_rows=SHARD_ROWS, **kw
        )

    def test_join_flag_routes_through_fabric(
        self, shapes, reference, tmp_path
    ):
        got = self._sharded(shapes, journal=str(tmp_path / "j"), join=True)
        assert_timings_equal(got, reference)
        assert get_counter("fabric.claims") == NSHARDS

    def test_workers_route_through_fabric(self, shapes, reference, tmp_path):
        got = self._sharded(shapes, journal=str(tmp_path / "j"), workers=2)
        assert_timings_equal(got, reference)

    def test_join_without_journal_is_config_error(self, shapes):
        with pytest.raises(ConfigurationError, match="journal"):
            self._sharded(shapes, join=True)

    def test_workers_is_a_second_spelling_of_jobs(self, shapes, reference):
        got = self._sharded(shapes, workers=2)
        assert_timings_equal(got, reference)
        assert get_counter("fabric.commits") == NSHARDS

    def test_broken_fabric_falls_back_to_journaled_path(
        self, shapes, reference, tmp_path, monkeypatch
    ):
        def broken(*a, **kw):
            raise RuntimeError("fabric exploded")

        monkeypatch.setattr(fabric_mod, "join_sweep", broken)
        got = self._sharded(shapes, journal=str(tmp_path / "j"), join=True)
        assert_timings_equal(got, reference)
        assert get_counter("fabric.unusable") == 1
        assert get_counter("harness.shards_ok") == NSHARDS  # ordinary path


@pytest.mark.slow
class TestRealWorkerKill:
    """The full contract, through the CLI, with a genuine SIGKILL of a
    fabric worker mid-sweep (the CI ``fabric`` job runs the full
    claim/eval/commit matrix plus concurrent ``--join`` processes)."""

    def _run(self, args, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        env["REPRO_NO_DISK_CACHE"] = "1"
        env["REPRO_EVAL_CACHE_DIR"] = str(tmp_path / "evalcache")
        return subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--size", "400",
             "--dtype", "fp64", "--gpu", "hypothetical_4sm",
             "--shard-rows", "128"] + args,
            env=env, capture_output=True, text=True, timeout=600,
        )

    def test_worker_killed_mid_eval_merge_is_byte_identical(self, tmp_path):
        ref = str(tmp_path / "ref.npz")
        out = str(tmp_path / "fabric.npz")
        plain = self._run(
            ["--journal", str(tmp_path / "jref"), "--out", ref], tmp_path
        )
        assert plain.returncode == 0, plain.stderr
        survived = self._run(
            ["--journal", str(tmp_path / "jfab"), "--workers", "2",
             "--lease-seconds", "2", "--heartbeat-seconds", "0.4",
             "--chaos-worker-kill", "eval:1", "--out", out],
            tmp_path,
        )
        # Worker 0 dies by SIGKILL; worker 1 reclaims and the parent
        # still exits 0 with a complete merge.
        assert survived.returncode == 0, survived.stderr
        assert "fabric" in survived.stdout
        a = np.load(ref, allow_pickle=False)
        b = np.load(out, allow_pickle=False)
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert a[key].tobytes() == b[key].tobytes(), key

    def test_parent_sigkill_leaves_no_worker_appending(self, tmp_path):
        """ChaosKill SIGKILLs the ``--jobs 2`` parent after the first
        commit it observes: its orphaned workers stop claiming, the WAL
        goes quiet, and a resume merges byte-identically."""
        size = ["--size", "3000", "--shard-rows", "64"]  # 47 shards
        ref = str(tmp_path / "ref.npz")
        out = str(tmp_path / "resumed.npz")
        jdir = str(tmp_path / "j")
        wal = os.path.join(jdir, "wal.bin")
        plain = self._run(size + ["--journal", str(tmp_path / "jref"),
                                  "--out", ref], tmp_path)
        assert plain.returncode == 0, plain.stderr
        killed = self._run(size + ["--journal", jdir, "--jobs", "2",
                                   "--chaos-kill-after", "1"], tmp_path)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        records, _, _ = read_wal_records(wal)
        pids = {int(r["worker"].split(":")[1]) for r in records
                if r.get("kind") == "shard_started" and "worker" in r}
        assert pids, "no worker ever claimed a shard"
        deadline = time.monotonic() + 60.0
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, "orphaned workers still run"
            time.sleep(0.05)
        quiet = os.path.getsize(wal)
        time.sleep(0.5)
        assert os.path.getsize(wal) == quiet
        done = {r["shard"] for r in read_wal_records(wal)[0]
                if r.get("kind") == "shard_done"}
        assert len(done) < 47, "the sweep finished before the kill"
        resumed = self._run(size + ["--journal", jdir, "--jobs", "2",
                                    "--resume", "--out", out], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        a = np.load(ref, allow_pickle=False)
        b = np.load(out, allow_pickle=False)
        for key in a.files:
            assert a[key].tobytes() == b[key].tobytes(), key


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False

"""WAL shard journal: framing, replay edge cases, digests, degradation.

These are unit tests against :mod:`repro.harness.journal` directly — no
worker pools.  The end-to-end kill/resume contract lives in
``test_resume.py`` (and, with real SIGKILL, in the CI chaos job).
"""

import errno
import json
import os
import struct

import numpy as np
import pytest

from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.gemm import FP64
from repro.gpu import HYPOTHETICAL_4SM
from repro.harness import journal as journal_mod
from repro.harness.journal import (
    JOURNAL_FORMAT_VERSION,
    RESUMABLE_EXIT_STATUS,
    ShardJournal,
    default_journal_dir,
    read_timings_npz,
    read_wal_records,
    timings_digest,
    write_timings_npz,
)
from repro.harness.vectorized import evaluate_corpus
from repro.obs.counters import get_counter, reset_counters

from .test_parallel import assert_timings_equal

KEY = "corpus-key-aaaa"
BOUNDS = [(0, 40), (40, 80), (80, 96)]


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_counters()
    yield
    reset_counters()


@pytest.fixture(scope="module")
def timings():
    shapes = generate_corpus(CorpusSpec(size=96))
    return evaluate_corpus(shapes, FP64, HYPOTHETICAL_4SM)


def _open(tmp_path, resume=False, key=KEY, bounds=BOUNDS):
    return ShardJournal.open(
        str(tmp_path), corpus_key=key, bounds=bounds, resume=resume
    )


class TestFraming:
    def test_wal_round_trip(self, tmp_path):
        jr = _open(tmp_path)
        jr.record_started(0, fingerprint="f0")
        jr.record_started(1, fingerprint="f1", worker="host:1:aaaa")
        jr.close()
        records, good, torn = read_wal_records(jr.wal_path)
        assert not torn
        assert good == os.path.getsize(jr.wal_path)
        assert [r["kind"] for r in records] == [
            "sweep_header", "shard_started", "shard_started",
        ]
        assert "worker" not in records[1]
        assert records[2]["worker"] == "host:1:aaaa"
        assert records[0]["corpus"] == KEY
        assert records[0]["v"] == JOURNAL_FORMAT_VERSION
        assert records[0]["bounds"] == [[lo, hi] for lo, hi in BOUNDS]

    def test_empty_wal_file(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        open(path, "wb").close()
        records, good, torn = read_wal_records(path)
        assert records == [] and good == 0 and not torn

    def test_missing_wal_file(self, tmp_path):
        records, good, torn = read_wal_records(str(tmp_path / "absent.bin"))
        assert records == [] and good == 0 and not torn

    def test_torn_tail_mid_frame(self, tmp_path):
        jr = _open(tmp_path)
        jr.record_started(0)
        jr.close()
        full = os.path.getsize(jr.wal_path)
        with open(jr.wal_path, "ab") as fh:  # half a frame: torn append
            fh.write(journal_mod._MAGIC + struct.pack("<I", 10))
        records, good, torn = read_wal_records(jr.wal_path)
        assert torn and good == full
        assert [r["kind"] for r in records] == ["sweep_header", "shard_started"]

    def test_torn_tail_bad_crc(self, tmp_path):
        jr = _open(tmp_path)
        jr.record_started(0)
        jr.close()
        full = os.path.getsize(jr.wal_path)
        payload = b'{"kind":"shard_done","shard":9}'
        with open(jr.wal_path, "ab") as fh:
            fh.write(
                journal_mod._MAGIC
                + journal_mod._FRAME.pack(len(payload), 0xDEADBEEF)
                + payload
            )
        records, good, torn = read_wal_records(jr.wal_path)
        assert torn and good == full
        assert all(r.get("shard") != 9 for r in records)

    def test_impossible_length_is_torn(self, tmp_path):
        jr = _open(tmp_path)
        jr.close()
        with open(jr.wal_path, "ab") as fh:
            fh.write(journal_mod._MAGIC + journal_mod._FRAME.pack(1 << 30, 0))
        records, good, torn = read_wal_records(jr.wal_path)
        assert torn and len(records) == 1  # header only


class TestNpzCodec:
    def test_round_trip_bitwise(self, tmp_path, timings):
        path = str(tmp_path / "t.npz")
        write_timings_npz(path, timings)
        back = read_timings_npz(path)
        assert_timings_equal(back, timings)
        assert timings_digest(back) == timings_digest(timings)

    def test_digest_is_content_sensitive(self, timings):
        mutated = read_back = None
        d0 = timings_digest(timings)
        streamk = timings.streamk.copy()
        streamk[0] += 1e-9
        import dataclasses

        mutated = dataclasses.replace(timings, streamk=streamk)
        assert timings_digest(mutated) != d0

    def test_read_missing_returns_none(self, tmp_path):
        assert read_timings_npz(str(tmp_path / "nope.npz")) is None

    def test_read_garbage_returns_none(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage, not a zip")
        assert read_timings_npz(path) is None

    def test_failed_write_leaves_no_temp(self, tmp_path, timings, monkeypatch):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError):
            write_timings_npz(str(tmp_path / "t.npz"), timings)
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestReplay:
    def _commit(self, tmp_path, timings, shards=(0,)):
        jr = _open(tmp_path)
        for s in shards:
            jr.record_started(s, fingerprint="fp%d" % s)
            assert jr.record_done(s, timings, fingerprint="fp%d" % s)
        jr.close()
        return jr

    def test_resume_replays_completions(self, tmp_path, timings):
        self._commit(tmp_path, timings, shards=(0, 2))
        jr = _open(tmp_path, resume=True)
        assert sorted(jr.completed) == [0, 2]
        assert jr.bounds == BOUNDS
        assert get_counter("journal.replayed") >= 3  # header + 2 done
        assert_timings_equal(jr.load_completed(0), timings)
        jr.close()

    def test_no_resume_reinitializes(self, tmp_path, timings):
        self._commit(tmp_path, timings)
        jr = _open(tmp_path, resume=False)
        assert jr.completed == {}
        jr.close()

    def test_duplicate_shard_done_counted_once(self, tmp_path, timings):
        jr = _open(tmp_path)
        jr.record_done(1, timings)
        jr.record_done(1, timings)  # idempotent retry duplicate
        jr.close()
        reset_counters()
        jr = _open(tmp_path, resume=True)
        assert sorted(jr.completed) == [1]
        assert get_counter("journal.duplicate_done") == 1
        jr.close()

    def test_foreign_corpus_fingerprint_ignored(self, tmp_path, timings):
        self._commit(tmp_path, timings)
        reset_counters()
        jr = _open(tmp_path, resume=True, key="some-other-corpus")
        assert jr.completed == {}  # never trusted
        assert get_counter("journal.fingerprint_mismatch") >= 1
        jr.close()

    def test_torn_tail_truncated_on_replay(self, tmp_path, timings):
        self._commit(tmp_path, timings)
        wal = os.path.join(str(tmp_path), "wal.bin")
        good = os.path.getsize(wal)
        with open(wal, "ab") as fh:
            fh.write(b"RKJ1\x07")  # crash mid-append
        reset_counters()
        jr = _open(tmp_path, resume=True)
        assert sorted(jr.completed) == [0]
        assert get_counter("journal.torn_tail_truncated") == 1
        assert os.path.getsize(wal) >= good  # truncated then reopened append
        jr.close()
        records, _, torn = read_wal_records(wal)
        assert not torn

    def test_resume_adopts_journal_bounds(self, tmp_path, timings):
        self._commit(tmp_path, timings)
        jr = ShardJournal.open(
            str(tmp_path),
            corpus_key=KEY,
            bounds=[(0, 96)],  # caller guesses a different layout
            resume=True,
        )
        assert jr.bounds == BOUNDS  # the journal header owns the layout
        jr.close()

    def test_digest_mismatch_forgets_completion(self, tmp_path, timings):
        jr = self._commit(tmp_path, timings)
        # Corrupt the shard artifact behind the journaled digest.
        with open(jr.shard_path(0), "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00\x00\x00\x00")
        jr2 = _open(tmp_path, resume=True)
        assert 0 in jr2.completed
        assert jr2.load_completed(0) is None  # verified, refused
        assert 0 not in jr2.completed
        assert get_counter("journal.digest_mismatch") == 1
        jr2.close()

    def test_empty_directory_is_fresh(self, tmp_path):
        jr = _open(tmp_path, resume=True)
        assert jr.completed == {} and jr.bounds == BOUNDS
        jr.close()


class TestCompaction:
    def test_compact_then_resume(self, tmp_path, timings):
        jr = _open(tmp_path)
        for s in (0, 1, 2):
            jr.record_done(s, timings)
        jr.compact()
        jr.close()
        assert get_counter("journal.compacted") == 1
        # WAL is header-only; the checkpoint carries the done map.
        records, _, torn = read_wal_records(
            os.path.join(str(tmp_path), "wal.bin")
        )
        assert not torn and [r["kind"] for r in records] == ["sweep_header"]
        with open(os.path.join(str(tmp_path), "checkpoint.json")) as fh:
            ck = json.load(fh)
        assert sorted(ck["done"]) == ["0", "1", "2"]
        reset_counters()
        jr2 = _open(tmp_path, resume=True)
        assert sorted(jr2.completed) == [0, 1, 2]
        assert_timings_equal(jr2.load_completed(1), timings)
        jr2.close()

    def test_corrupt_checkpoint_counted_and_ignored(self, tmp_path, timings):
        jr = _open(tmp_path)
        jr.record_done(0, timings)
        jr.compact()
        jr.close()
        with open(os.path.join(str(tmp_path), "checkpoint.json"), "w") as fh:
            fh.write("{broken json")
        reset_counters()
        jr2 = _open(tmp_path, resume=True)
        # Checkpoint lost, but the post-compaction WAL is header-only, so
        # the journal matches with zero completions: shards re-run.
        assert jr2.completed == {}
        assert get_counter("journal.checkpoint_corrupt") == 1
        jr2.close()


class TestDegradation:
    def test_enospc_on_append_degrades(self, tmp_path, timings, monkeypatch):
        jr = _open(tmp_path)

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        jr.record_started(0)
        assert jr.degraded
        assert get_counter("harness.journal.degraded") == 1
        # Every later operation is a silent no-op.
        assert jr.record_done(0, timings) is None
        jr.record_started(1)
        jr.compact()
        assert get_counter("harness.journal.degraded") == 1
        jr.close()

    def test_unwritable_directory_degrades_at_open(self, tmp_path, timings):
        victim = tmp_path / "ro"
        victim.mkdir()
        os.chmod(victim, 0o555)
        try:
            jr = ShardJournal.open(
                str(victim / "j"), corpus_key=KEY, bounds=BOUNDS
            )
            if os.getuid() == 0:
                jr.close()
                pytest.skip("root ignores directory permissions")
            assert jr.degraded
            assert get_counter("harness.journal.degraded") == 1
            assert jr.record_done(0, timings) is None
            jr.close()
        finally:
            os.chmod(victim, 0o755)

    def test_degraded_journal_never_raises(self, tmp_path, timings, monkeypatch):
        jr = _open(tmp_path)
        monkeypatch.setattr(
            os, "fsync", lambda fd: (_ for _ in ()).throw(OSError(30, "EROFS"))
        )
        jr.record_done(0, timings)  # degrades
        monkeypatch.undo()
        jr.record_done(1, timings)  # still a no-op, must not resurrect
        assert jr.completed == {}
        jr.close()


class TestLeaseRecords:
    """Journals of this format written before the WAL stopped recording
    claims still carry lease records; replay must skip them."""

    LEGACY = (
        {"kind": "shard_claimed", "shard": 0, "worker": "host:1:aaaa"},
        {"kind": "shard_heartbeat", "shard": 0, "worker": "host:1:aaaa",
         "seq": 1},
        {"kind": "shard_claimed", "shard": 1, "worker": "host:1:aaaa"},
        {"kind": "shard_reclaimed", "shard": 0, "worker": "host:2:bbbb"},
        {"kind": "shard_abandoned", "shard": 2, "reason": "watchdog"},
    )

    def _legacy_wal(self, tmp_path, timings):
        """A WAL whose lease records sit around two ``shard_done``."""
        jr = _open(tmp_path)
        jr.record_done(1, timings)
        with open(jr.wal_path, "ab") as fh:
            for rec in self.LEGACY:
                fh.write(journal_mod._frame_record(rec))
        jr.record_done(2, timings)
        jr.close()
        return jr

    def test_lease_records_never_imply_completion(self, tmp_path, timings):
        """Completion comes exclusively from shard_done, on both the
        private and the shared replay, with no format bump."""
        self._legacy_wal(tmp_path, timings)
        reset_counters()
        jr = _open(tmp_path, resume=True)
        assert sorted(jr.completed) == [1, 2]
        assert get_counter("journal.fingerprint_mismatch") == 0
        assert get_counter("journal.replayed") == 1 + 2 + len(self.LEGACY)
        jr.close()
        shared = ShardJournal.open_shared(
            str(tmp_path), corpus_key=KEY, bounds=BOUNDS
        )
        assert sorted(shared.completed) == [1, 2]
        assert sorted(shared.refresh_completed()) == [1, 2]
        assert_timings_equal(shared.load_completed(2), timings)
        shared.close()

    def test_torn_claim_record_truncated_on_private_replay(
        self, tmp_path, timings
    ):
        jr = self._legacy_wal(tmp_path, timings)
        with open(jr.wal_path, "ab") as fh:
            fh.write(journal_mod._MAGIC + struct.pack("<I", 64))  # torn
        reset_counters()
        jr2 = _open(tmp_path, resume=True)
        assert sorted(jr2.completed) == [1, 2]
        assert get_counter("journal.torn_tail_truncated") == 1
        jr2.close()
        _, _, torn = read_wal_records(jr2.wal_path)
        assert not torn


class TestSharedMode:
    def _open_shared(self, tmp_path, key=KEY, bounds=BOUNDS, **kw):
        return ShardJournal.open_shared(
            str(tmp_path), corpus_key=key, bounds=bounds, **kw
        )

    def test_first_arrival_initializes_later_arrival_attaches(
        self, tmp_path, timings
    ):
        a = self._open_shared(tmp_path)
        assert a.shared and not a.degraded
        a.record_done(0, timings)
        b = self._open_shared(tmp_path)
        assert sorted(b.completed) == [0]  # attach absorbed the commit
        a.close()
        b.close()

    def test_refresh_absorbs_peer_commits(self, tmp_path, timings):
        a = self._open_shared(tmp_path)
        b = self._open_shared(tmp_path)
        assert b.completed == {}
        a.record_done(2, timings)
        assert sorted(b.refresh_completed()) == [2]
        assert_timings_equal(b.load_completed(2), timings)
        a.close()
        b.close()

    def test_interleaved_appends_from_two_handles_all_replay(
        self, tmp_path
    ):
        """O_APPEND keeps two live writers' frames intact and ordered."""
        a = self._open_shared(tmp_path)
        b = self._open_shared(tmp_path)
        for i in range(3):
            a.record_started(i, worker="worker-a")
            b.record_started(i, worker="worker-b")
        a.close()
        b.close()
        records, _, torn = read_wal_records(a.wal_path)
        assert not torn
        assert len(records) == 1 + 6  # header + every interleaved append

    def test_shared_replay_never_truncates_torn_tail(
        self, tmp_path, timings
    ):
        a = self._open_shared(tmp_path)
        a.record_done(0, timings)
        a.close()
        with open(a.wal_path, "ab") as fh:
            fh.write(b"RKJ1\x03")  # a peer's append caught in flight
        size_before = os.path.getsize(a.wal_path)
        reset_counters()
        b = self._open_shared(tmp_path)
        assert sorted(b.completed) == [0]  # committed prefix still replays
        assert os.path.getsize(a.wal_path) == size_before
        assert get_counter("journal.torn_tail_truncated") == 0
        b.close()

    def test_foreign_corpus_is_reinitialized(self, tmp_path, timings):
        a = self._open_shared(tmp_path)
        a.record_done(0, timings)
        a.close()
        reset_counters()
        b = self._open_shared(tmp_path, key="a-different-corpus")
        assert b.completed == {}
        assert get_counter("journal.fingerprint_mismatch") >= 1
        b.close()

    def test_stale_init_lock_is_stolen(self, tmp_path):
        # An initializer died between taking the lock and writing the
        # header: joiners must not wait forever.
        os.makedirs(tmp_path, exist_ok=True)
        open(os.path.join(str(tmp_path), ".init.lock"), "w").close()
        jr = self._open_shared(tmp_path, init_timeout_s=0.2)
        assert not jr.degraded
        assert get_counter("journal.init_lock_stolen") == 1
        records, _, _ = read_wal_records(jr.wal_path)
        assert records[0]["kind"] == "sweep_header"
        jr.close()

    def test_bounds_adopted_counter_fires_only_on_difference(
        self, tmp_path, timings
    ):
        a = self._open_shared(tmp_path)
        a.record_done(0, timings)
        a.close()
        reset_counters()
        same = self._open_shared(tmp_path, bounds=BOUNDS)
        assert get_counter("journal.bounds_adopted") == 0
        same.close()
        other = self._open_shared(tmp_path, bounds=[(0, 96)])
        assert other.bounds == BOUNDS  # the header owns the layout
        assert get_counter("journal.bounds_adopted") == 1
        other.close()


class TestModuleSurface:
    def test_resumable_exit_status_is_distinct(self):
        assert RESUMABLE_EXIT_STATUS == 75
        assert RESUMABLE_EXIT_STATUS not in (0, 1, 2)

    def test_default_journal_dir_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)
        assert default_journal_dir() is None
        monkeypatch.setenv("REPRO_JOURNAL_DIR", "/tmp/jdir")
        assert default_journal_dir() == "/tmp/jdir"

"""Unit tests for the storage primitives (:mod:`repro.storage`).

Record codec and torn-tail handling, the :class:`WalWriter` (offsets,
reopen-with-truncation, reset, threaded group commit), the crash-point
registry, snapshot round-trips and loud corruption failures, the
config-gated integrity check after recovery, and a crash at every
``checkpoint.*`` point in turn.  The end-to-end crash/recovery property
test lives in ``tests/storage/test_recovery.py``.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.api import EngineConfig, StorageConfig, build_program
from repro.config import FSYNC_MODES, STORAGE_BACKENDS
from repro.errors import (
    ConfigError,
    HandlerError,
    RecoveryError,
    SimulatedCrash,
    StorageError,
)
from repro.relational.functions import FunctionRegistry
from repro.runtime.engine import HildaEngine
from repro.storage import (
    CRASH_POINTS,
    CrashPointRegistry,
    MemoryBackend,
    WAL_MAGIC,
    WalBackend,
    WalWriter,
    create_backend,
    encode_record,
    load_snapshot,
    read_wal,
    write_snapshot,
)
from repro.storage.backend import BACKEND_ENV_VAR
from repro.storage.wal import decode_records

COUNTER_SOURCE = """
root aunit Counter {
    input schema { bump(amount:int) }
    persist schema { tally(tid:int key, total:int) }

    activator ActShow : ShowTable(int, int) {
        input query {
            ShowTable.input :- SELECT T.tid, T.total FROM tally T
        }
    }

    activator ActBump : GetRow(int) {
        handler Bump {
            action {
                tally :-
                    SELECT T.tid, T.total FROM tally T
                    UNION
                    SELECT genkey(), O.c1 FROM bump B, GetRow.output O
            }
        }
    }
}
"""


@pytest.fixture(scope="module")
def counter_program():
    return build_program(COUNTER_SOURCE)


def fresh_functions() -> FunctionRegistry:
    registry = FunctionRegistry()
    registry.use_sequential_keys(start=100)
    return registry


def make_engine(counter_program, data_dir, **storage_overrides):
    config = EngineConfig(storage=StorageConfig.wal(str(data_dir), **storage_overrides))
    return HildaEngine(counter_program, functions=fresh_functions(), config=config)


def bump(engine, session_id, amount):
    box = engine.find_instances("GetRow", session_id=session_id)[0]
    return engine.perform(box.instance_id, [amount])


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


class TestRecordCodec:
    def test_roundtrip(self):
        payloads = [{"kind": "txn", "seq": i, "ops": [("insert", i)]} for i in range(5)]
        data = b"".join(encode_record(p) for p in payloads)
        decoded, end = decode_records(data)
        assert decoded == payloads
        assert end == len(data)

    def test_torn_tail_is_discarded_not_raised(self):
        whole = encode_record({"seq": 1})
        torn = encode_record({"seq": 2})[:-3]
        decoded, end = decode_records(whole + torn)
        assert decoded == [{"seq": 1}]
        assert end == len(whole)

    def test_corrupt_record_stops_decoding(self):
        first = encode_record("ok")
        second = bytearray(encode_record("bad"))
        second[-1] ^= 0xFF  # flip a payload bit: checksum must catch it
        third = encode_record("never reached")
        decoded, end = decode_records(bytes(first) + bytes(second) + third)
        assert decoded == ["ok"]
        assert end == len(first)

    def test_truncation_at_every_offset_yields_a_valid_prefix(self):
        payloads = ["alpha", "beta", "gamma"]
        data = b"".join(encode_record(p) for p in payloads)
        boundaries = []
        offset = 0
        for p in payloads:
            offset += len(encode_record(p))
            boundaries.append(offset)
        for cut in range(len(data) + 1):
            decoded, end = decode_records(data[:cut])
            # The decoded prefix is always an exact prefix of the payloads.
            assert decoded == payloads[: len(decoded)]
            assert end <= cut
            # A cut exactly on a record boundary loses nothing before it.
            if cut in boundaries:
                assert end == cut

    def test_read_wal_missing_file_and_bad_magic(self, tmp_path):
        assert read_wal(str(tmp_path / "absent.log")) == ([], 0)
        bogus = tmp_path / "bogus.log"
        bogus.write_bytes(b"NOTAWAL\n" + encode_record("x"))
        assert read_wal(str(bogus)) == ([], 0)


# ---------------------------------------------------------------------------
# WalWriter
# ---------------------------------------------------------------------------


class TestWalWriter:
    def test_append_sync_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        lsn1 = writer.append({"seq": 1})
        lsn2 = writer.append({"seq": 2})
        assert len(WAL_MAGIC) < lsn1 < lsn2 == writer.appended_size
        writer.sync(lsn2)
        assert writer.synced_size == lsn2
        writer.close()
        records, valid_end = read_wal(path)
        assert records == [{"seq": 1}, {"seq": 2}]
        assert valid_end == lsn2

    def test_reopen_truncates_invalid_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        lsn = writer.append("kept")
        writer.close()
        with open(path, "ab") as handle:
            handle.write(encode_record("torn")[:-2])
        writer = WalWriter(path)
        assert writer.appended_size == lsn
        assert os.path.getsize(path) == lsn
        writer.append("after")
        writer.close()
        assert read_wal(path)[0] == ["kept", "after"]

    def test_reset_empties_the_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append("before checkpoint")
        writer.reset()
        assert writer.appended_size == len(WAL_MAGIC)
        writer.append("after checkpoint")
        writer.close()
        assert read_wal(path)[0] == ["after checkpoint"]

    def test_fsync_off_sync_is_noop(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal.log"), fsync_mode="off")
        lsn = writer.append("x")
        writer.sync(lsn)
        assert writer.synced_size < lsn  # never fsynced, only written
        writer.close()

    def test_dead_writer_refuses_work(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal.log"))
        writer.kill()
        assert writer.dead
        with pytest.raises(StorageError):
            writer.append("too late")
        with pytest.raises(StorageError):
            writer.sync(10)

    def test_threaded_group_commit_batches_fsyncs(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path, fsync_mode="batch")
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            time.sleep(0.02)  # widen the window so followers pile up behind it
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)

        threads = 8
        start = threading.Barrier(threads)
        errors = []

        def committer(i):
            try:
                start.wait()
                lsn = writer.append({"committer": i})
                writer.sync(lsn)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=committer, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        # Every record landed and is durable...
        records, _ = read_wal(path)
        assert sorted(r["committer"] for r in records) == list(range(threads))
        assert writer.synced_size == writer.appended_size
        # ...yet the group shared fsyncs instead of paying one each.
        assert 1 <= len(fsyncs) < threads
        writer.close()

    def test_reset_waits_for_inflight_leader_fsync(self, tmp_path, monkeypatch):
        # A checkpoint's reset() must never close the file while a group
        # commit leader is fsyncing it outside the mutex (REVIEW: stale
        # leader could mark never-synced bytes of the new log durable).
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path, fsync_mode="batch")
        lsn = writer.append("pre-checkpoint")

        entered = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync
        gated_calls = []

        def gated_fsync(fd):
            gated_calls.append(fd)
            if len(gated_calls) == 1:  # gate only the leader's fsync
                entered.set()
                assert release.wait(5)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", gated_fsync)
        errors = []

        def lead():
            try:
                writer.sync(lsn)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        leader = threading.Thread(target=lead)
        leader.start()
        assert entered.wait(5)

        reset_done = threading.Event()

        def resetter():
            try:
                writer.reset()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            reset_done.set()

        checkpointer = threading.Thread(target=resetter)
        checkpointer.start()
        # reset() must park behind the in-flight fsync, not race past it.
        assert not reset_done.wait(0.2)
        release.set()
        leader.join(5)
        checkpointer.join(5)
        assert reset_done.is_set() and not errors
        # The new epoch starts with clean watermarks: the pre-reset target
        # (a larger offset) must not have leaked into _synced.
        assert writer.appended_size == writer.synced_size == len(WAL_MAGIC)
        lsn2 = writer.append("after-checkpoint")
        writer.sync(lsn2)
        assert writer.synced_size == lsn2
        writer.close()
        assert read_wal(path)[0] == ["after-checkpoint"]

    def test_stale_ticket_after_reset_returns_without_fsync(
        self, tmp_path, monkeypatch
    ):
        # A durability ticket issued before a checkpoint reset refers to
        # bytes the published snapshot already covers: sync() must return
        # immediately instead of fsyncing (or worse, waiting forever for
        # the new log to regrow past a stale offset).
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path, fsync_mode="batch")
        lsn = writer.append("snapshot-covered")
        writer.reset()

        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        writer.sync(lsn)  # stale: lsn > appended_size of the fresh log
        assert fsyncs == []
        assert writer.synced_size == len(WAL_MAGIC)
        writer.close()

    def test_close_waits_for_inflight_leader_fsync(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path, fsync_mode="batch")
        lsn = writer.append("shutdown race")

        entered = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync
        gated_calls = []

        def gated_fsync(fd):
            gated_calls.append(fd)
            if len(gated_calls) == 1:
                entered.set()
                assert release.wait(5)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", gated_fsync)
        errors = []

        def lead():
            try:
                writer.sync(lsn)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        leader = threading.Thread(target=lead)
        leader.start()
        assert entered.wait(5)

        close_done = threading.Event()

        def closer():
            try:
                writer.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            close_done.set()

        closing = threading.Thread(target=closer)
        closing.start()
        assert not close_done.wait(0.2)  # close parks behind the fsync
        release.set()
        leader.join(5)
        closing.join(5)
        assert close_done.is_set() and not errors
        assert writer.dead

    def test_kill_during_inflight_fsync_surfaces_storage_error(
        self, tmp_path, monkeypatch
    ):
        # kill() simulates power loss and deliberately does NOT wait: the
        # leader's fsync hits a closed file and must surface as the usual
        # dead-writer StorageError, never a raw ValueError/OSError, and must
        # not strand followers behind a stuck _sync_in_progress flag.
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path, fsync_mode="batch")
        lsn = writer.append("doomed")

        entered = threading.Event()
        release = threading.Event()

        def gated_fsync(fd):
            entered.set()
            assert release.wait(5)
            os.fstat(fd)  # raises OSError once kill() closed the file

        monkeypatch.setattr(os, "fsync", gated_fsync)
        errors = []

        def lead():
            try:
                writer.sync(lsn)
            except Exception as exc:
                errors.append(exc)

        leader = threading.Thread(target=lead)
        leader.start()
        assert entered.wait(5)
        writer.kill()
        release.set()
        leader.join(5)
        assert len(errors) == 1 and isinstance(errors[0], StorageError)
        with pytest.raises(StorageError):
            writer.sync(lsn)  # later committers see a dead writer, no hang

    def test_append_completes_short_writes(self, tmp_path):
        # Raw FileIO.write may land fewer bytes than asked without raising;
        # append must loop until the whole record is on disk (a silently
        # short write would corrupt the next record boundary).
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)

        class ShortWritingFile:
            def __init__(self, inner):
                self.inner = inner
                self.write_calls = 0

            def write(self, data):
                self.write_calls += 1
                return self.inner.write(data[: max(1, len(data) // 2)])

            def fileno(self):
                return self.inner.fileno()

            def close(self):
                return self.inner.close()

        shorting = ShortWritingFile(writer._file)
        writer._file = shorting
        lsn = writer.append({"seq": 1})
        assert shorting.write_calls > 1
        assert lsn == writer.appended_size == os.path.getsize(path)
        writer.sync(lsn)
        writer.close()
        records, valid_end = read_wal(path)
        assert records == [{"seq": 1}]
        assert valid_end == lsn

    def test_leader_crash_wakes_followers_with_error(self, tmp_path):
        crash_points = CrashPointRegistry()
        crash_points.arm("wal.mid_group_commit")
        writer = WalWriter(
            str(tmp_path / "wal.log"), fsync_mode="batch", crash_points=crash_points
        )
        lsn = writer.append("doomed")
        with pytest.raises(SimulatedCrash):
            writer.sync(lsn)
        assert writer.dead
        with pytest.raises(StorageError):
            writer.sync(lsn)  # followers arriving later see a dead writer


# ---------------------------------------------------------------------------
# Engine transaction wrapper (_durable_write)
# ---------------------------------------------------------------------------


class TestEngineDurableCommit:
    def test_commit_failure_does_not_mask_body_error(
        self, counter_program, tmp_path, monkeypatch
    ):
        # The commit runs even when the transaction body raised; a storage
        # failure there must chain onto the body's exception, not replace it.
        engine = make_engine(counter_program, tmp_path)

        def failing_commit(meta):
            raise StorageError("wal writer is dead")

        monkeypatch.setattr(engine.storage, "commit", failing_commit)
        with pytest.raises(ValueError, match="root cause") as excinfo:
            with engine._durable_write():
                raise ValueError("root cause")
        assert isinstance(excinfo.value.__cause__, StorageError)

    def test_commit_failure_on_success_path_propagates(
        self, counter_program, tmp_path, monkeypatch
    ):
        engine = make_engine(counter_program, tmp_path)

        def failing_commit(meta):
            raise StorageError("wal writer is dead")

        monkeypatch.setattr(engine.storage, "commit", failing_commit)
        with pytest.raises(StorageError):
            with engine._durable_write():
                pass  # body succeeded: the commit failure is the root cause

    def test_body_error_still_awaits_durability(
        self, counter_program, tmp_path, monkeypatch
    ):
        # A failed handler still committed whatever it journaled (no
        # rollback path); that commit's durability must be awaited before
        # the handler error is re-raised.
        engine = make_engine(counter_program, tmp_path)
        waited = []
        original = engine.storage.wait_durable

        def spying_wait(ticket):
            waited.append(ticket)
            original(ticket)

        monkeypatch.setattr(engine.storage, "wait_durable", spying_wait)
        with pytest.raises(ValueError):
            with engine._durable_write():
                raise ValueError("body failed after journaling")
        assert waited
        engine.close()

    def test_apply_with_dead_wal_reports_handler_error(
        self, counter_program, tmp_path, monkeypatch
    ):
        # End to end: an operation whose handler raised while the WAL is
        # dead must surface the handler error (the root cause), not the
        # secondary StorageError from the unconditional commit.
        engine = make_engine(counter_program, tmp_path)
        sid = engine.start_session({"bump": [(1,)]})
        box = engine.find_instances("GetRow", session_id=sid)[0]

        def exploding(operation):
            raise HandlerError("handler blew up")

        monkeypatch.setattr(engine, "_apply_locked", exploding)
        engine.storage.wal.kill()
        with pytest.raises(HandlerError, match="handler blew up") as excinfo:
            engine.perform(box.instance_id, [1])
        assert isinstance(excinfo.value.__cause__, StorageError)


# ---------------------------------------------------------------------------
# Crash points
# ---------------------------------------------------------------------------


class TestCrashPointRegistry:
    def test_unarmed_fire_is_noop(self):
        registry = CrashPointRegistry()
        registry.fire("wal.before_append")  # must not raise

    def test_unknown_point_rejected(self):
        with pytest.raises(StorageError):
            CrashPointRegistry().arm("wal.no_such_point")

    def test_default_hook_crashes_on_nth_firing(self):
        registry = CrashPointRegistry()
        registry.arm("wal.after_append", at_firing=3)
        registry.fire("wal.after_append")
        registry.fire("wal.after_append")
        with pytest.raises(SimulatedCrash) as excinfo:
            registry.fire("wal.after_append")
        assert excinfo.value.point == "wal.after_append"
        assert registry.firings("wal.after_append") == 3

    def test_disarm(self):
        registry = CrashPointRegistry()
        registry.arm("wal.before_sync")
        registry.disarm("wal.before_sync")
        registry.fire("wal.before_sync")  # no longer armed
        registry.arm("wal.before_sync")
        registry.arm("wal.after_sync")
        registry.disarm()
        registry.fire("wal.before_sync")
        registry.fire("wal.after_sync")

    def test_custom_hook_observes_without_crashing(self):
        registry = CrashPointRegistry()
        seen = []
        registry.arm("wal.before_sync", hook=seen.append)
        registry.fire("wal.before_sync")
        registry.fire("wal.before_sync")
        assert seen == ["wal.before_sync", "wal.before_sync"]

    def test_catalog_is_complete_and_ordered(self):
        assert len(CRASH_POINTS) == len(set(CRASH_POINTS))
        assert [p for p in CRASH_POINTS if p.startswith("wal.")] == list(CRASH_POINTS[:5])


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "snapshot.dat")
        state = {"seq": 7, "persist": {"A": {"t": {"rows": [(1,)]}}}}
        write_snapshot(path, state)
        assert load_snapshot(path) == state

    def test_missing_snapshot_is_none(self, tmp_path):
        assert load_snapshot(str(tmp_path / "absent.dat")) is None

    @pytest.mark.parametrize(
        "mutilate",
        [
            lambda data: b"WRONGMAGIC" + data[10:],
            lambda data: data[: len(data) // 2],
            lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]),
        ],
        ids=["bad-magic", "truncated", "bit-flip"],
    )
    def test_damaged_snapshot_fails_loudly(self, tmp_path, mutilate):
        path = str(tmp_path / "snapshot.dat")
        write_snapshot(path, {"seq": 1})
        data = open(path, "rb").read()
        open(path, "wb").write(mutilate(data))
        with pytest.raises(RecoveryError):
            load_snapshot(path)

    def test_publication_is_atomic(self, tmp_path):
        path = str(tmp_path / "snapshot.dat")
        write_snapshot(path, {"seq": 1})
        write_snapshot(path, {"seq": 2})
        assert load_snapshot(path) == {"seq": 2}
        assert not os.path.exists(path + ".tmp")


# ---------------------------------------------------------------------------
# Backend selection and configuration
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(create_backend(StorageConfig()), MemoryBackend)

    def test_env_override_forces_wal_with_ephemeral_dir(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "wal")
        backend = create_backend(StorageConfig())
        try:
            assert isinstance(backend, WalBackend)
            assert os.path.isdir(backend.data_dir)
        finally:
            data_dir = backend.data_dir
            backend.close()
        assert not os.path.exists(data_dir)  # ephemeral dir removed on close

    def test_env_override_leaves_explicit_config_alone(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BACKEND_ENV_VAR, "wal")
        explicit = StorageConfig.wal(str(tmp_path / "mine"))
        backend = create_backend(explicit)
        try:
            assert backend.data_dir == str(tmp_path / "mine")
        finally:
            backend.close()

    def test_env_override_rejects_unknown_value(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "papyrus")
        with pytest.raises(ConfigError):
            create_backend(StorageConfig())

    def test_storage_config_validation(self):
        assert set(STORAGE_BACKENDS) == {"memory", "wal"}
        assert set(FSYNC_MODES) == {"always", "batch", "off"}
        with pytest.raises(ConfigError):
            StorageConfig(backend="wal")  # wal requires a data_dir
        with pytest.raises(ConfigError):
            StorageConfig(backend="floppy")
        with pytest.raises(ConfigError):
            StorageConfig(fsync="sometimes")
        with pytest.raises(ConfigError):
            StorageConfig(checkpoint_every=0)
        config = StorageConfig.wal("/data", fsync="off", checkpoint_every=None)
        assert (config.backend, config.fsync, config.checkpoint_every) == (
            "wal",
            "off",
            None,
        )


# ---------------------------------------------------------------------------
# Recovery integrity gate
# ---------------------------------------------------------------------------


class TestRecoveryIntegrityGate:
    def test_recovery_runs_check_integrity(self, counter_program, tmp_path, monkeypatch):
        engine = make_engine(counter_program, tmp_path)
        sid = engine.start_session({"bump": [(5,)]})
        bump(engine, sid, 5)
        engine.close()

        from repro.relational.table import Table

        calls = []
        original = Table.check_integrity

        def spying(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(Table, "check_integrity", spying)
        recovered = make_engine(counter_program, tmp_path)
        recovered.persistent_table("tally")
        assert "tally" in calls
        recovered.close()

    def test_integrity_failure_raises_recovery_error(
        self, counter_program, tmp_path, monkeypatch
    ):
        engine = make_engine(counter_program, tmp_path)
        sid = engine.start_session({"bump": [(5,)]})
        bump(engine, sid, 5)
        engine.close()

        from repro.relational.table import Table

        monkeypatch.setattr(
            Table, "check_integrity", lambda self: [f"{self.name}: rigged failure"]
        )
        recovered = make_engine(counter_program, tmp_path)
        with pytest.raises(RecoveryError, match="rigged failure"):
            recovered.persistent_table("tally")
        recovered.close()

    def test_corrupted_snapshot_fails_engine_construction(
        self, counter_program, tmp_path
    ):
        engine = make_engine(counter_program, tmp_path, checkpoint_every=1)
        sid = engine.start_session({"bump": [(5,)]})
        bump(engine, sid, 5)
        engine.close()
        snapshot_path = tmp_path / "snapshot.dat"
        assert snapshot_path.exists()
        data = snapshot_path.read_bytes()
        snapshot_path.write_bytes(data[:-4] + bytes(b ^ 0xFF for b in data[-4:]))
        with pytest.raises(RecoveryError):
            make_engine(counter_program, tmp_path)


# ---------------------------------------------------------------------------
# Checkpoint crash windows
# ---------------------------------------------------------------------------


CHECKPOINT_POINTS = tuple(p for p in CRASH_POINTS if p.startswith("checkpoint."))


class TestCheckpointCrashes:
    @pytest.mark.parametrize("point", CHECKPOINT_POINTS)
    def test_crash_at_every_checkpoint_point_recovers_committed_state(
        self, counter_program, tmp_path, point
    ):
        data_dir = tmp_path / point.replace(".", "_")
        engine = make_engine(counter_program, data_dir, checkpoint_every=2)
        engine.storage.crash_points.arm(point)
        sid = engine.start_session({"bump": [(1,)]})
        committed = []
        crashed = False
        for amount in (1, 2, 3, 4, 5):
            try:
                result = bump(engine, sid, amount)
                assert result.status == "applied"
                committed.append(amount)
            except SimulatedCrash:
                crashed = True
                break
        assert crashed, f"{point} never fired with checkpoint_every=2"
        assert engine.storage.wal.dead

        recovered = make_engine(counter_program, data_dir)
        rows = sorted(recovered.persistent_table("tally").rows)
        # Every bump whose commit returned before the crash must be present;
        # the bump in flight at the crash may or may not have committed, but
        # recovery must expose a consistent prefix (no half-applied rows).
        totals = [total for _, total in rows]
        assert totals[: len(committed)] == committed
        assert len(totals) - len(committed) in (0, 1)
        assert recovered.persistent_table("tally").check_integrity() == []
        recovered.close()

    def test_checkpoint_truncates_wal_and_survives_restart(
        self, counter_program, tmp_path
    ):
        engine = make_engine(counter_program, tmp_path, checkpoint_every=2)
        sid = engine.start_session({"bump": [(1,)]})
        for amount in (1, 2, 3):
            bump(engine, sid, amount)
        backend = engine.storage
        assert os.path.exists(backend.snapshot_path)
        snapshot = load_snapshot(backend.snapshot_path)
        records, _ = read_wal(backend.wal_path)
        # Snapshot + surviving WAL suffix covers exactly the committed txns.
        assert snapshot["seq"] + len(records) == backend.last_seq
        assert all(r["seq"] > snapshot["seq"] for r in records)
        engine.close()

        recovered = make_engine(counter_program, tmp_path)
        totals = sorted(total for _, total in recovered.persistent_table("tally").rows)
        assert totals == [1, 2, 3]
        recovered.close()

    def test_stale_wal_prefix_is_skipped_not_replayed_twice(
        self, counter_program, tmp_path
    ):
        # Crash exactly between snapshot publication and WAL truncation: the
        # WAL still holds transactions the snapshot already covers.
        engine = make_engine(counter_program, tmp_path, checkpoint_every=2)
        engine.storage.crash_points.arm("checkpoint.before_wal_reset")
        sid = engine.start_session({"bump": [(1,)]})
        with pytest.raises(SimulatedCrash):
            for amount in (1, 2, 3):
                bump(engine, sid, amount)
        snapshot = load_snapshot(engine.storage.snapshot_path)
        records, _ = read_wal(engine.storage.wal_path)
        assert snapshot is not None
        assert any(r["seq"] <= snapshot["seq"] for r in records)  # stale prefix

        recovered = make_engine(counter_program, tmp_path)
        rows = recovered.persistent_table("tally").rows
        totals = sorted(total for _, total in rows)
        assert totals == sorted(set(totals))  # nothing applied twice
        assert recovered.persistent_table("tally").check_integrity() == []
        recovered.close()

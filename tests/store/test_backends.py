"""Durable-store backends: codec, framing, recovery, compaction, torn tails.

The crash-at-any-point *property* lives in ``test_crash_points.py``; this
file pins the mechanisms it relies on — the commit record codec
round-trip, CRC frame scanning, torn-tail truncation-repair, snapshot
compaction semantics (replay skips compacted records), version-floor
restoration, the exactly-once replay-notification contract, and the
failed-commit contract (a commit the backend refuses is undone in
memory).
"""

import errno
import os

import pytest

from repro import d, to_text
from repro.errors import StoreError
from repro.store import (
    BACKENDS,
    DurableResourceStore,
    Recovery,
    StoreBackend,
    StoreConfig,
    decode_commit,
    encode_commit,
    open_store,
    register_backend,
)
from repro.store.wal import (
    RECORD_HEADER,
    WalBackend,
    frame_record,
    scan_records,
)
from repro.updates import Transaction
from repro.web.resources import ResourceStore

DOC = "http://a.example/doc"
OTHER = "http://a.example/other"


def wal_config(tmp_path, **kw):
    kw.setdefault("snapshot_every", None)
    return StoreConfig(backend="wal", path=str(tmp_path / "store"), **kw)


DURABLE_CONFIGS = [wal_config]


class TestCommitCodec:
    def test_round_trip_put_and_delete(self):
        ops = [
            (DOC, None, d("doc", d("n", 1)), 1),
            (OTHER, d("x"), None, 7),  # delete: new is None
        ]
        seq, decoded = decode_commit(encode_commit(12, ops))
        assert seq == 12
        assert decoded == [(DOC, d("doc", d("n", 1)), 1), (OTHER, None, 7)]

    def test_old_roots_are_not_stored(self):
        text = encode_commit(1, [(DOC, d("huge", *[d("x")] * 50),
                                  d("doc"), 3)])
        assert "huge" not in text  # replay reconstructs old, records don't

    @pytest.mark.parametrize("text", [
        "not-a-term{",
        "other{ seq[1] }",
        "commit{ }",                       # no seq
        'commit{ seq["one"] }',            # non-integer seq
        "commit{ seq[1], op{ uri[2], version[1] } }",   # non-string uri
        'commit{ seq[1], op{ uri["u"] } }',             # no version
    ])
    def test_malformed_records_raise_store_error(self, text):
        with pytest.raises(StoreError):
            decode_commit(text)


class TestRecordFraming:
    def test_frame_and_scan_round_trip(self):
        stream = b"".join(frame_record(p) for p in (b"a", b"bb", b"ccc"))
        payloads, end, problem = scan_records(stream)
        assert payloads == [b"a", b"bb", b"ccc"]
        assert end == len(stream) and problem is None

    def test_crc_catches_bit_rot(self):
        stream = bytearray(frame_record(b"hello") + frame_record(b"world"))
        stream[RECORD_HEADER.size] ^= 0x40  # flip a payload bit of record 1
        payloads, end, problem = scan_records(bytes(stream))
        assert payloads == [] and end == 0 and problem == "crc-mismatch"

    @pytest.mark.parametrize("cut,expected", [
        (2, "truncated-header"),     # mid-header
        (RECORD_HEADER.size + 1, "truncated-payload"),   # mid-payload
    ])
    def test_torn_tail_is_detected_not_raised(self, cut, expected):
        whole = frame_record(b"first")
        stream = whole + frame_record(b"second-record")[:cut]
        payloads, end, problem = scan_records(stream)
        assert payloads == [b"first"]
        assert end == len(whole)
        assert problem == expected

    def test_oversized_length_is_rejected(self):
        bogus = RECORD_HEADER.pack(1 << 30, 0)
        payloads, end, problem = scan_records(bogus)
        assert payloads == [] and problem == "oversized-length"
        with pytest.raises(StoreError):
            frame_record(b"x" * ((1 << 28) + 1))


@pytest.mark.parametrize("make_config", DURABLE_CONFIGS)
class TestRecovery:
    def test_committed_state_survives_reopen(self, tmp_path, make_config):
        config = make_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", d("n", 1)))
        store.put(OTHER, d("x", "payload"))
        store.delete(OTHER)
        store.close()

        reopened = open_store(config)
        assert reopened.get(DOC) == d("doc", d("n", 1))
        assert OTHER not in reopened
        assert reopened.version(DOC) == 1
        reopened.close()

    def test_version_floors_survive_restart(self, tmp_path, make_config):
        """The heart of monotonic change detection: a delete's announced
        version must still floor a put made *after* a restart."""
        config = make_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", 1))   # v1
        store.put(DOC, d("doc", 2))   # v2
        store.delete(DOC)             # announces v3; floor = 3
        store.close()

        reopened = open_store(config)
        seen = []
        reopened.watch(lambda _u, _o, _n, v: seen.append(v))
        reopened.deliver_replayed()
        document = reopened.put(DOC, d("doc", 3))
        assert document.version == 4  # continues past the deleted floor
        assert seen == sorted(seen)
        reopened.close()

    def test_replay_notifications_are_exactly_once(self, tmp_path,
                                                   make_config):
        config = make_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", 1))
        store.put(DOC, d("doc", 2))
        store.close()

        reopened = open_store(config)
        heard = []
        reopened.watch(lambda *op: heard.append(op))
        assert reopened.replay_pending == 2
        assert reopened.deliver_replayed() == 2
        # Replay reconstructs the old roots record-by-record, so the
        # notifications match the original delivery bit for bit.
        assert heard == [
            (DOC, None, d("doc", 1), 1),
            (DOC, d("doc", 1), d("doc", 2), 2),
        ]
        assert reopened.deliver_replayed() == 0
        assert len(heard) == 2
        reopened.close()

    def test_transaction_is_one_commit(self, tmp_path, make_config):
        from repro.updates import Transaction

        config = make_config(tmp_path)
        store = open_store(config)
        with Transaction(store):
            store.put(DOC, d("doc", 1))
            store.put(OTHER, d("x"))
        assert store.commits == 1  # group commit: one record, one fsync
        store.close()

        reopened = open_store(config)
        assert reopened.deliver_replayed() == 1  # ...and one replayed unit
        reopened.close()

    def test_rolled_back_transactions_are_never_persisted(self, tmp_path,
                                                          make_config):
        from repro.updates import Transaction

        config = make_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", 1))
        with pytest.raises(RuntimeError):
            with Transaction(store):
                store.put(DOC, d("doc", 99))
                raise RuntimeError
        assert store.commits == 1
        store.close()

        reopened = open_store(config)
        assert reopened.get(DOC) == d("doc", 1)
        reopened.close()

    def test_checkpoint_compacts_and_silences_replay(self, tmp_path,
                                                     make_config):
        config = make_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", 1))
        store.delete(DOC)
        store.put(DOC, d("doc", 2))
        store.checkpoint()
        store.put(OTHER, d("x"))   # the only post-snapshot commit
        store.close()

        reopened = open_store(config)
        assert reopened.get(DOC) == d("doc", 2)
        assert reopened.version(DOC) == 3   # floor through the snapshot
        assert reopened.replay_pending == 1  # compacted commits don't replay
        assert reopened.deliver_replayed() == 1
        reopened.close()

    def test_automatic_checkpoint_cadence(self, tmp_path, make_config):
        config = make_config(tmp_path, snapshot_every=2)
        store = open_store(config)
        for i in range(5):
            store.put(DOC, d("doc", i))
        store.close()

        reopened = open_store(config)
        # 5 commits, checkpoints after #2 and #4: one commit replays.
        assert reopened.replay_pending == 1
        assert reopened.get(DOC) == d("doc", 4)
        reopened.close()

    def test_mutating_a_closed_store_fails_loudly(self, tmp_path,
                                                  make_config):
        store = open_store(make_config(tmp_path))
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError):
            store.put(DOC, d("doc", 1))


class FullSnapshotWal(WalBackend):
    """A WAL whose snapshot rewrite fails the way a full disk does; the
    log appends still succeed."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.checkpoint_calls = 0

    def checkpoint(self, documents, floors, seq) -> None:
        self.checkpoint_calls += 1
        raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedCadenceCheckpoint:
    """The automatic checkpoint is not part of the commit that triggers
    it: a failing one is counted, the commit returns and is announced,
    and the retry waits for the next ``snapshot_every`` boundary."""

    def test_commits_stand_and_are_announced(self, tmp_path):
        store = DurableResourceStore(FullSnapshotWal(str(tmp_path / "store")),
                                     snapshot_every=1)
        heard = []
        store.watch(lambda *op: heard.append(op[0]))
        uris = [f"{DOC}/{i}" for i in range(3)]
        for uri in uris:
            store.put(uri, d("doc"))
        assert heard == uris
        assert store.checkpoint_failures == 3
        store.close()
        reopened = open_store(wal_config(tmp_path))
        assert reopened.replay_pending == 3
        assert reopened.uris() == store.uris()
        reopened.close()

    def test_the_retry_waits_for_the_next_boundary(self, tmp_path):
        backend = FullSnapshotWal(str(tmp_path / "store"))
        store = DurableResourceStore(backend, snapshot_every=2)
        for i in range(4):
            store.put(DOC, d("doc", i))
        assert backend.checkpoint_calls == store.checkpoint_failures == 2
        store.close()

    def test_an_explicit_checkpoint_still_raises(self, tmp_path):
        store = DurableResourceStore(FullSnapshotWal(str(tmp_path / "store")))
        store.put(DOC, d("doc"))
        with pytest.raises(OSError):
            store.checkpoint()
        assert store.checkpoint_failures == 0
        store.close()


class DiskFullBackend(StoreBackend):
    """Accepts commits until ``full`` is set, then refuses every append
    the way a full disk does."""

    name = "disk-full"

    def __init__(self) -> None:
        self.full = False
        self.appended = []

    def load(self) -> Recovery:
        return Recovery({}, {}, 0, [])

    def append_commit(self, seq, ops) -> None:
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.appended.append((seq, tuple(ops)))

    def checkpoint(self, documents, floors, seq) -> None:
        pass


def closed_wal_store(tmp_path):
    store = open_store(wal_config(tmp_path))
    return store, store.close, StoreError


def disk_full_store(tmp_path):
    backend = DiskFullBackend()
    return (DurableResourceStore(backend),
            lambda: setattr(backend, "full", True), OSError)


def put_doc(store):
    store.put(DOC, d("doc", d("n", 2)))


def delete_doc(store):
    store.delete(DOC)


def transaction(store):
    with Transaction(store):
        store.put(OTHER, d("x"))
        store.update(DOC, lambda root: d("doc", d("n", 2)))


class HalfWrite:
    """A log file whose next ``write`` lands half the record on disk and
    then fails the way a full disk does; later writes pass through."""

    def __init__(self, file) -> None:
        self._file = file
        self.armed = True

    def write(self, data: bytes) -> int:
        if not self.armed:
            return self._file.write(data)
        self.armed = False
        self._file.write(data[:len(data) // 2])
        self._file.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._file, name)


@pytest.mark.parametrize("make_store", [closed_wal_store, disk_full_store])
@pytest.mark.parametrize("mutate", [put_doc, delete_doc, transaction])
class TestFailedCommit:
    """A commit that cannot be made durable changes nothing in memory:
    the mutator raises, ``get``/``version``/``uris`` read the pre-commit
    state, transactional watchers hear nothing, and immediate watchers
    hear every change *and* its revert."""

    def test_memory_equals_the_pre_commit_state(self, tmp_path, make_store,
                                                mutate):
        store, break_backend, error = make_store(tmp_path)
        store.put(DOC, d("doc", d("n", 1)))
        before = (store.get(DOC), store.version(DOC), store.uris())
        committed, immediate = [], []
        store.watch(lambda *op: committed.append(op))
        store.watch(lambda *op: immediate.append(op), immediate=True)
        break_backend()

        with pytest.raises(error):
            mutate(store)

        assert (store.get(DOC), store.version(DOC), store.uris()) == before
        assert not store.in_transaction()
        assert committed == []
        # Every URI ends, for immediate watchers, at the document it had.
        last = {}
        for uri, _old, new, _version in immediate:
            last[uri] = new
        assert last.get(DOC) == d("doc", d("n", 1))
        assert last.get(OTHER) is None
        versions = [v for uri, _o, _n, v in immediate if uri == DOC]
        assert versions == sorted(versions)  # revert never goes backwards


class TestFailedCommitRecovery:
    @pytest.mark.parametrize("mutate", [put_doc, delete_doc, transaction])
    def test_a_reopen_agrees_with_memory(self, tmp_path, mutate):
        store, break_backend, error = closed_wal_store(tmp_path)
        store.put(DOC, d("doc", d("n", 1)))
        break_backend()
        with pytest.raises(error):
            mutate(store)
        reopened = open_store(wal_config(tmp_path))
        assert reopened.get(DOC) == store.get(DOC)
        assert reopened.version(DOC) == store.version(DOC) == 1
        assert reopened.uris() == store.uris()
        reopened.close()

    def test_transaction_is_not_committed(self, tmp_path):
        store, break_backend, _error = disk_full_store(tmp_path)
        break_backend()
        transaction = Transaction(store)
        store.put(DOC, d("doc"))
        with pytest.raises(OSError):
            transaction.commit()
        assert transaction.committed is False
        assert DOC not in store

    def test_stores_after_the_refusing_one_roll_back(self, tmp_path):
        broken, break_backend, _error = disk_full_store(tmp_path)
        healthy = ResourceStore()
        heard = []
        healthy.watch(lambda *op: heard.append(op))
        break_backend()
        with pytest.raises(OSError):
            with Transaction(broken, healthy):
                broken.put(DOC, d("doc"))
                healthy.put(DOC, d("doc"))
        assert DOC not in broken and DOC not in healthy
        assert not healthy.in_transaction()
        assert heard == []

    def test_the_store_commits_again_once_the_disk_has_room(self, tmp_path):
        store, break_backend, _error = disk_full_store(tmp_path)
        store.put(DOC, d("doc", d("n", 1)))            # v1
        break_backend()
        with pytest.raises(OSError):
            store.put(DOC, d("doc", d("n", 2)))        # burns v2
        store.backend.full = False
        document = store.put(DOC, d("doc", d("n", 3)))
        # Floors are never lowered: the refused commit's number stays
        # burned, so version-based change detection never repeats one.
        assert document.version == 3
        assert [op[2] for _seq, ops in store.backend.appended
                for op in ops] == [d("doc", d("n", 1)), d("doc", d("n", 3))]

    def test_a_failed_append_leaves_no_torn_record(self, tmp_path):
        config = wal_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", d("n", 1)))
        store.backend._wal = HalfWrite(store.backend._wal)
        with pytest.raises(OSError):
            store.put(DOC, d("doc", d("n", 2)))
        store.put(OTHER, d("x"))                 # acknowledged and fsynced
        store.close()
        reopened = open_store(config)
        assert reopened.get(OTHER) == d("x")
        assert reopened.get(DOC) == d("doc", d("n", 1))
        reopened.close()

    def test_a_failed_append_is_cut_back_out_of_the_log(self, tmp_path):
        config = wal_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", d("n", 1)))
        wal_path = os.path.join(config.path, WalBackend.WAL_FILE)
        size = os.path.getsize(wal_path)
        store.backend._wal = HalfWrite(store.backend._wal)
        with pytest.raises(OSError):
            store.put(DOC, d("doc", d("n", 2)))
        assert os.path.getsize(wal_path) == size
        with open(wal_path, "rb") as fh:
            assert scan_records(fh.read())[2] is None   # no torn tail
        store.close()

    def test_a_failed_repair_refuses_further_appends(self, tmp_path,
                                                     monkeypatch):
        store = open_store(wal_config(tmp_path))
        store.put(DOC, d("doc", d("n", 1)))
        store.backend._wal = HalfWrite(store.backend._wal)

        def no_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", no_fsync)  # the repair cannot sync
            with pytest.raises(OSError):
                store.put(DOC, d("doc", d("n", 2)))
        with pytest.raises(StoreError, match="closed"):
            store.put(OTHER, d("x"))
        assert store.get(DOC) == d("doc", d("n", 1)) and OTHER not in store
        store.close()


class TestWalTornTail:
    def put_some(self, config, n=3):
        store = open_store(config)
        for i in range(n):
            store.put(DOC, d("doc", i))
        store.close()
        return os.path.join(config.path, WalBackend.WAL_FILE)

    def test_torn_tail_is_truncated_and_earlier_commits_replay(
            self, tmp_path):
        config = wal_config(tmp_path)
        wal_path = self.put_some(config, 3)
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:   # tear the last record in half
            fh.truncate(size - 5)

        reopened = open_store(config)
        assert reopened.get(DOC) == d("doc", 1)  # last full commit
        assert reopened.replay_pending == 2
        # The tail was repaired: the file ends at the last valid record.
        assert os.path.getsize(wal_path) < size - 5
        reopened.put(DOC, d("doc", 9))           # appends cleanly after
        reopened.close()
        final = open_store(config)
        assert final.get(DOC) == d("doc", 9)
        final.close()

    def test_garbage_tail_is_discarded(self, tmp_path):
        config = wal_config(tmp_path)
        wal_path = self.put_some(config, 2)
        with open(wal_path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef garbage")
        reopened = open_store(config)
        assert reopened.get(DOC) == d("doc", 1)
        assert reopened.replay_pending == 2
        reopened.close()

    def test_checksummed_but_undecodable_record_stops_replay(self, tmp_path):
        config = wal_config(tmp_path)
        wal_path = self.put_some(config, 1)
        with open(wal_path, "ab") as fh:   # valid CRC, not a commit record
            fh.write(frame_record(b"nonsense{ }"))
        reopened = open_store(config)
        assert reopened.replay_pending == 1  # only the real commit
        reopened.close()

    def test_orphan_snapshot_tmp_is_cleaned_up(self, tmp_path):
        config = wal_config(tmp_path)
        self.put_some(config, 2)
        tmp = os.path.join(config.path, WalBackend.SNAPSHOT_FILE + ".tmp")
        with open(tmp, "wb") as fh:   # a compaction that died pre-rename
            fh.write(b"half a snapshot")
        reopened = open_store(config)
        assert not os.path.exists(tmp)
        assert reopened.get(DOC) == d("doc", 1)
        reopened.close()

    def test_corrupt_snapshot_refuses_loudly(self, tmp_path):
        config = wal_config(tmp_path)
        store = open_store(config)
        store.put(DOC, d("doc", 1))
        store.checkpoint()
        store.close()
        snap = os.path.join(config.path, WalBackend.SNAPSHOT_FILE)
        with open(snap, "r+b") as fh:
            fh.truncate(os.path.getsize(snap) - 3)
        # The snapshot is written atomically; a torn one is storage
        # corruption — silent data loss would be worse than the error.
        with pytest.raises(StoreError):
            open_store(config)


class TestConfigAndRegistry:
    def test_memory_default_is_plain_resource_store(self):
        store = open_store(StoreConfig())
        assert type(store) is ResourceStore
        assert open_store(None).deliver_replayed() == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(StoreError, match="unknown store backend"):
            StoreConfig(backend="papyrus")

    def test_durable_backends_require_a_path(self):
        with pytest.raises(StoreError, match="needs a path"):
            StoreConfig(backend="wal")

    def test_bad_snapshot_cadence_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="snapshot_every"):
            StoreConfig(backend="wal", path=str(tmp_path),
                        snapshot_every=0)

    def test_register_backend_round_trip(self):
        sentinel = ResourceStore()
        register_backend("unit-test", lambda config: sentinel)
        try:
            assert open_store(StoreConfig(backend="unit-test")) is sentinel
        finally:
            del BACKENDS["unit-test"]

    def test_durable_store_reports_backend(self, tmp_path):
        store = open_store(wal_config(tmp_path))
        assert isinstance(store, DurableResourceStore)
        assert store.backend_name == "wal"
        store.close()


class TestFsyncAblation:
    def test_nofsync_wal_still_recovers_after_clean_close(self, tmp_path):
        config = wal_config(tmp_path, fsync=False)
        store = open_store(config)
        store.put(DOC, d("doc", 1))
        store.close()
        reopened = open_store(config)
        assert reopened.get(DOC) == d("doc", 1)
        reopened.close()

    def test_serialisation_survives_arbitrary_bodies(self, tmp_path):
        """Anything the term codec round-trips persists unchanged."""
        body = d("doc", d("text", 'tricky "quotes" \\ and, braces{'),
                 d("n", -12), d("f", 3.5), d("nested", d("deep", d("x"))))
        assert to_text(body)  # serialisable precondition
        config = wal_config(tmp_path)
        store = open_store(config)
        store.put(DOC, body)
        store.close()
        reopened = open_store(config)
        assert reopened.get(DOC) == body
        reopened.close()

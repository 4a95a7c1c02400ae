"""Write-ahead-log persistence: append-only commits + snapshot compaction.

One durable store lives in one *directory*::

    <path>/store.wal      append-only log, one CRC-framed record per commit
    <path>/snapshot       latest compacted state (atomically replaced)
    <path>/snapshot.tmp   transient; an orphan means a compaction died mid-write

Record framing extends the ingestion tier's length-prefix discipline
(:mod:`repro.ingest.wire`) with a checksum: ``>II`` big-endian *(length,
crc32(payload))* followed by the payload bytes.  The CRC is what turns "the
process died mid-append" into a *detectable* condition: a torn tail — a
truncated header, a payload shorter than its declared length, a checksum
mismatch, an undecodable record — ends recovery at the last valid record
and is **truncated away**, never propagated.  Everything before the tear
replays; the torn commit was never acknowledged, so dropping it *is* the
correct recovery.

Durability discipline per commit: one ``write`` of the whole framed
record, one ``flush``, one ``fsync`` (when enabled) — group commit: a
whole outermost transaction is one record, so multi-op atomicity costs
nothing extra.  An append that fails (the write or the fsync raising,
say ``ENOSPC``) is cut back out of the log before the error propagates,
so the next commit extends a valid prefix (:meth:`WalBackend.append_commit`).

Compaction (:meth:`WalBackend.checkpoint`) is crash-safe by ordering:

1. write the full state to ``snapshot.tmp`` (framed the same way), fsync;
2. atomically rename over ``snapshot``; fsync the directory;
3. truncate the log to zero.

A crash before (2) leaves the old snapshot + full log (the orphan tmp is
deleted on open); a crash between (2) and (3) leaves the new snapshot
plus a log whose records all carry ``seq <= snapshot seq`` — replay skips
them, so nothing is applied twice.

Snapshot record stream: one ``snapshot{ seq[n] }`` header, one
``doc{ uri[..] version[n] body{..} }`` per document, one
``floor{ uri[..] version[n] }`` per floor entry (floors survive deletes,
so they are stored independently of the documents).
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.errors import StoreError
from repro.store.backend import Recovery, StoreBackend, decode_commit, encode_commit
from repro.terms.ast import Data, d
from repro.terms.parser import parse_data, to_text
from repro.web.resources import Document

#: ``(payload length, crc32(payload))`` — both unsigned 32-bit big-endian.
RECORD_HEADER = struct.Struct(">II")

#: Ceiling on one record's payload, mirroring the wire protocol's frame
#: ceiling reasoning: a corrupt length must not allocate unbounded memory.
MAX_RECORD = 1 << 28


def frame_record(payload: bytes) -> bytes:
    """Wrap *payload* in a CRC-framed record."""
    if len(payload) > MAX_RECORD:
        raise StoreError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD}-byte ceiling"
        )
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_records(data: bytes, max_record: int = MAX_RECORD):
    """Walk a record stream: ``(payloads, valid_end, problem)``.

    *payloads* are the consecutive valid record payloads from offset 0;
    *valid_end* is the byte offset just past the last valid record — the
    truncation point recovery repairs to; *problem* is ``None`` for a
    clean stream or one of ``"truncated-header"`` / ``"oversized-length"``
    / ``"truncated-payload"`` / ``"crc-mismatch"`` describing why the
    scan stopped.  Never raises on torn input: detection is the contract.
    """
    payloads: list[bytes] = []
    offset = 0
    while True:
        remaining = len(data) - offset
        if remaining == 0:
            return payloads, offset, None
        if remaining < RECORD_HEADER.size:
            return payloads, offset, "truncated-header"
        length, crc = RECORD_HEADER.unpack_from(data, offset)
        if length > max_record:
            return payloads, offset, "oversized-length"
        start = offset + RECORD_HEADER.size
        if remaining < RECORD_HEADER.size + length:
            return payloads, offset, "truncated-payload"
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return payloads, offset, "crc-mismatch"
        payloads.append(payload)
        offset = start + length


def _fsync_file(file) -> None:
    """Flush *file* to stable storage, through the fault seam if wrapped."""
    sync = getattr(file, "sync", None)
    if sync is not None:
        sync()
    else:
        file.flush()
        os.fsync(file.fileno())


class WalBackend(StoreBackend):
    """Append-only WAL + snapshot persistence in one directory."""

    name = "wal"

    WAL_FILE = "store.wal"
    SNAPSHOT_FILE = "snapshot"

    def __init__(self, path: str, *, fsync: bool = True,
                 fault=None) -> None:
        self.dir = path
        self.fsync = fsync
        self._fault = fault
        os.makedirs(path, exist_ok=True)
        self.wal_path = os.path.join(path, self.WAL_FILE)
        self.snapshot_path = os.path.join(path, self.SNAPSHOT_FILE)
        # An orphaned tmp is a compaction that died before its atomic
        # rename: the real snapshot (if any) is still authoritative.
        tmp = self.snapshot_path + ".tmp"
        if os.path.exists(tmp):
            os.remove(tmp)
        self._wal = None  # opened by load()
        self._end = 0     # byte offset just past the last acknowledged record

    # -- fault seam ----------------------------------------------------------

    def _wrap(self, file):
        if self._fault is not None:
            from repro.store.fault import FaultyFile

            return FaultyFile(file, self._fault)
        return file

    def _point(self, name: str) -> None:
        if self._fault is not None:
            self._fault.point(name)

    # -- recovery ------------------------------------------------------------

    def load(self) -> Recovery:
        documents: "dict[str, Document]" = {}
        floors: "dict[str, int]" = {}
        base_seq = 0
        if os.path.exists(self.snapshot_path):
            documents, floors, base_seq = self._read_snapshot()
        commits = []
        if os.path.exists(self.wal_path):
            with open(self.wal_path, "rb") as fh:
                data = fh.read()
            payloads, valid_end, problem = scan_records(data)
            decoded_end = 0
            for payload in payloads:
                try:
                    commits.append(decode_commit(payload.decode("utf-8")))
                except (StoreError, UnicodeDecodeError):
                    # A record whose bytes checksum but whose content is
                    # not a commit is corruption all the same: stop here
                    # and repair to the prefix that made sense.
                    problem = "undecodable-record"
                    valid_end = decoded_end
                    break
                decoded_end += RECORD_HEADER.size + len(payload)
            if problem is not None and valid_end < len(data):
                # Repair: drop the torn tail so future appends extend a
                # valid prefix instead of burying garbage mid-log.
                self._truncate_log(valid_end)
        self._wal = self._wrap(open(self.wal_path, "ab"))
        self._end = os.path.getsize(self.wal_path)
        return Recovery.replay(documents, floors, base_seq, commits)

    def _read_snapshot(self):
        with open(self.snapshot_path, "rb") as fh:
            data = fh.read()
        payloads, _end, problem = scan_records(data)
        # The snapshot is written to a tmp file, fsynced, and atomically
        # renamed — a torn snapshot means the *storage* broke, not the
        # process: refuse loudly rather than silently losing state.
        if problem is not None or not payloads:
            raise StoreError(
                f"unreadable snapshot {self.snapshot_path!r} "
                f"({problem or 'empty'}): the snapshot is written atomically, "
                "so this is storage corruption, not a torn write"
            )
        header = parse_data(payloads[0].decode("utf-8"))
        if header.label != "snapshot" or header.first("seq") is None:
            raise StoreError(f"snapshot header malformed in "
                             f"{self.snapshot_path!r}")
        base_seq = header.first("seq").value
        documents: "dict[str, Document]" = {}
        floors: "dict[str, int]" = {}
        for payload in payloads[1:]:
            term = parse_data(payload.decode("utf-8"))
            if term.label == "doc":
                uri = term.first("uri").value
                version = term.first("version").value
                root = term.first("body").children[0]
                documents[uri] = Document(uri, root, version)
            elif term.label == "floor":
                floors[term.first("uri").value] = term.first("version").value
            else:
                raise StoreError(
                    f"unexpected {term.label!r} record in snapshot"
                )
        return documents, floors, base_seq

    # -- appends -------------------------------------------------------------

    def append_commit(self, seq: int, ops) -> None:
        """Append one commit record and make it durable.

        If the write or the fsync raises :class:`OSError` (a full disk,
        an I/O error), the log is truncated back to where this append
        began before the error propagates: a torn record left in place
        would end every later recovery there and drop the acknowledged
        commits appended after it.  If that repair fails as well, the log
        is left closed and every further append is refused with
        :class:`StoreError`.
        """
        if self._wal is None:
            raise StoreError(f"the log {self.wal_path!r} is closed; "
                             "the commit cannot be made durable")
        record = frame_record(encode_commit(seq, ops).encode("utf-8"))
        try:
            self._wal.write(record)
            if self.fsync:
                _fsync_file(self._wal)
            else:
                self._wal.flush()
        except OSError:
            self._cut_back()
            raise
        self._end += len(record)

    def _cut_back(self) -> None:
        """Drop whatever a failed append left past the last good record."""
        wal, self._wal = self._wal, None
        try:
            wal.close()  # bytes still buffered may land here; cut below
        except OSError:
            pass
        self._truncate_log(self._end)
        self._wal = self._wrap(open(self.wal_path, "ab"))

    def _truncate_log(self, size: int) -> None:
        """Cut the log file back to *size* bytes, durably."""
        with open(self.wal_path, "r+b") as fh:
            fh.truncate(size)
            fh.flush()
            os.fsync(fh.fileno())

    # -- compaction ----------------------------------------------------------

    def checkpoint(self, documents: "dict[str, Document]",
                   floors: "dict[str, int]", seq: int) -> None:
        tmp = self.snapshot_path + ".tmp"
        out = self._wrap(open(tmp, "wb"))
        try:
            out.write(frame_record(
                to_text(d("snapshot", d("seq", seq))).encode("utf-8")))
            for document in documents.values():
                out.write(frame_record(to_text(
                    d("doc", d("uri", document.uri),
                      d("version", document.version),
                      d("body", document.root))).encode("utf-8")))
            for uri, floor in floors.items():
                out.write(frame_record(to_text(
                    d("floor", d("uri", uri),
                      d("version", floor))).encode("utf-8")))
            _fsync_file(out)
        finally:
            out.close()
        self._point("snapshot-swap")
        os.replace(tmp, self.snapshot_path)
        self._sync_dir()
        # The log prefix is now folded into the snapshot; a crash before
        # this truncate leaves records whose seq <= snapshot seq — replay
        # skips them, so the reset is safe to lose.
        self._wal.truncate(0)
        self._end = 0
        if self.fsync:
            _fsync_file(self._wal)

    def _sync_dir(self) -> None:
        try:
            fd = os.open(self.dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

"""Versioned, URI-addressed persistent resources (Thesis 4's other half).

Persistent Web data is "like written text": retrievable on request,
modifiable in place, permanent until changed.  A :class:`ResourceStore`
holds a node's documents; every update bumps the document version and
notifies registered watchers — the hook both the polling baseline (version
comparison) and the identity monitor (Thesis 10 change events) build on.

Transactional visibility (Thesis 8)
-----------------------------------

Watcher notifications respect atomicity: while a
:class:`~repro.updates.transactions.Transaction` is open on the store,
notifications for its puts/deletes are *buffered* and only flushed — in
update order — when the outermost transaction commits.  A rollback
discards them, so observers (polling watchers, Thesis-10 identity
monitors) never see phantom ``resource-changed`` events for intermediate
states of an update that officially never happened.  Internal cache
invalidators that must track even uncommitted state (the engine's
deductive web views re-materialise lazily from whatever ``get`` returns)
register with ``watch(fn, immediate=True)``: they are called synchronously
on every mutation *and* on rollback, so a cache can never outlive the
state it was built from.

Versions are **monotonic per URI** across the resource's whole lifetime:
``delete`` announces ``old.version + 1`` and a later ``put`` of the same
URI continues counting from there instead of restarting at 1, so
version-based change detection never sees time run backwards.

Thread-safety: all mutation and snapshot/restore paths are serialised by
an internal re-entrant lock.  Rule actions only ever run on the scheduler
thread, but the store is the one structure shared by every layer (engine
actions, polling, identity monitors, application callbacks), so it guards
itself rather than trusting every caller.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ResourceNotFound, WebError
from repro.terms.ast import Data

#: Watcher signature: (uri, old_root_or_None, new_root_or_None, version).
Watcher = Callable[[str, "Data | None", "Data | None", int], None]


@dataclass(frozen=True)
class Document:
    """One version of one resource."""

    uri: str
    root: Data
    version: int


class ResourceStore:
    """The persistent documents of one Web node."""

    def __init__(self) -> None:
        self._documents: dict[str, Document] = {}
        self._watchers: list[Watcher] = []
        self._immediate_watchers: list[Watcher] = []
        self._lock = threading.RLock()
        # Monotonic version floor per URI: survives delete (and delete→put
        # re-creation), so announced versions never regress.  Floors are
        # never lowered — not even by a rollback: skipping numbers is
        # harmless, reusing them would break change detection.
        self._version_floor: dict[str, int] = {}
        # Transaction nesting depth and the notifications buffered while
        # one is open (flushed on outermost commit, discarded on rollback).
        self._tx_depth = 0
        self._tx_buffer: list[tuple] = []
        self.reads = 0
        self.writes = 0

    def __contains__(self, uri: str) -> bool:
        return uri in self._documents

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    def uris(self) -> list[str]:
        return list(self._documents)

    def watch(self, watcher: Watcher, *, immediate: bool = False) -> None:
        """Register a change callback (fired on put/update/delete).

        Default watchers are *transactional*: inside a transaction their
        notifications are buffered and delivered only on commit (none on
        rollback).  ``immediate=True`` registers a cache-invalidation
        hook instead: called synchronously on every mutation — committed
        or not — and again when a rollback restores earlier state, so
        derived caches always track what ``get`` currently returns.
        """
        if immediate:
            self._immediate_watchers.append(watcher)
        else:
            self._watchers.append(watcher)

    def in_transaction(self) -> bool:
        """True while a transaction is open (notifications are buffered)."""
        return self._tx_depth > 0

    def _notify(self, uri: str, old: "Data | None", new: "Data | None",
                version: int) -> None:
        for watcher in self._immediate_watchers:
            watcher(uri, old, new, version)
        if self._tx_depth > 0:
            self._tx_buffer.append((uri, old, new, version))
            return
        # A mutation outside any transaction is its own (single-op) commit:
        # it hits the persistence seam first, then the watchers, exactly
        # like an outermost transactional flush.
        self._persist(((uri, old, new, version),))
        for watcher in self._watchers:
            watcher(uri, old, new, version)

    # -- transactions (driven by repro.updates.transactions) --------------------

    def _begin_buffering(self) -> int:
        """Open a (possibly nested) transaction scope; returns the buffer
        mark the matching :meth:`_end_buffering` truncates to on rollback."""
        with self._lock:
            self._tx_depth += 1
            return len(self._tx_buffer)

    def _end_buffering(self, mark: int, commit: bool) -> None:
        """Close one transaction scope.

        A rollback discards the scope's buffered notifications (the
        changes officially never happened); the *outermost* commit
        flushes whatever survived, in update order, to the transactional
        watchers.
        """
        with self._lock:
            if not commit:
                del self._tx_buffer[mark:]
            self._tx_depth -= 1
            if self._tx_depth > 0:
                return
            pending, self._tx_buffer = self._tx_buffer, []
            if pending:
                # Durability before visibility: the whole outermost
                # transaction is persisted as ONE commit (a durable backend
                # covers it with one fsync — group commit) while the lock
                # still serialises commit order; only then do transactional
                # watchers hear about it.
                self._persist(tuple(pending))
        for uri, old, new, version in pending:
            for watcher in self._watchers:
                watcher(uri, old, new, version)

    def _persist(self, ops) -> None:
        """Persistence seam: called with the committed operations of one
        outermost commit — ``(uri, old_root, new_root, version)`` tuples in
        update order, ``new_root is None`` for a delete — before any
        transactional watcher hears about them.  The in-memory store keeps
        nothing beyond the live documents, so this is a no-op; durable
        backends (:mod:`repro.store`) override it to append a
        write-ahead-log record.  Raising here propagates to the mutator —
        a commit that cannot be made durable is a failed commit."""

    def deliver_replayed(self) -> int:
        """Deliver recovery-replayed commit notifications; the number of
        commits delivered.  A purely in-memory store never has anything to
        replay, so this is a constant 0; a
        :class:`~repro.store.backend.DurableResourceStore` reopened over an
        existing log delivers each replayed commit to the currently
        registered transactional watchers *exactly once* (idempotent:
        later calls deliver nothing)."""
        return 0

    # -- access -----------------------------------------------------------------

    def get(self, uri: str) -> Data:
        """The current root of the resource; raises if absent."""
        document = self._documents.get(uri)
        if document is None:
            raise ResourceNotFound(uri)
        self.reads += 1
        return document.root

    def version(self, uri: str) -> int:
        """Current version number (0 = never written)."""
        document = self._documents.get(uri)
        return document.version if document is not None else 0

    def document(self, uri: str) -> Document:
        document = self._documents.get(uri)
        if document is None:
            raise ResourceNotFound(uri)
        return document

    # -- modification --------------------------------------------------------------

    def put(self, uri: str, root: Data) -> Document:
        """Create or replace the resource content."""
        if not isinstance(root, Data):
            raise WebError(f"resource content must be a data term: {root!r}")
        with self._lock:
            old = self._documents.get(uri)
            # The floor keeps versions monotonic across delete→put: a
            # re-created resource continues counting after the version the
            # delete announced instead of restarting at 1.
            version = max(old.version if old else 0,
                          self._version_floor.get(uri, 0)) + 1
            self._version_floor[uri] = version
            document = Document(uri, root, version)
            self._documents[uri] = document
            self.writes += 1
            self._notify(uri, old.root if old else None, root, version)
        return document

    def update(self, uri: str, transform: Callable[[Data], Data]) -> Document:
        """Apply a pure transformation to the resource root."""
        with self._lock:
            current = self.get(uri)
            self.reads -= 1  # internal read, not client traffic
            return self.put(uri, transform(current))

    def delete(self, uri: str) -> None:
        """Remove the resource; raises if absent."""
        with self._lock:
            old = self._documents.pop(uri, None)
            if old is None:
                raise ResourceNotFound(uri)
            version = max(old.version,
                          self._version_floor.get(uri, 0)) + 1
            self._version_floor[uri] = version
            self.writes += 1
            self._notify(uri, old.root, None, version)

    # -- snapshots (transactions) ---------------------------------------------------

    def snapshot(self) -> dict[str, Document]:
        """A cheap copy of the current state (documents are immutable)."""
        with self._lock:
            return dict(self._documents)

    def restore(self, snapshot: dict[str, Document]) -> None:
        """Roll back to a snapshot.

        Transactional watchers hear nothing (the rolled-back changes
        never happened; their buffered notifications are discarded by the
        transaction), but *immediate* watchers are re-notified for every
        URI whose content the restore changes back, so caches built from
        uncommitted intermediate state are invalidated rather than left
        describing documents that no longer exist.

        The version announced for a reverted URI is ``max(snapshot
        version, version floor)``: the rolled-back mutations burned
        version numbers an immediate watcher already heard (a delete
        announces ``old + 1`` the instant it happens), so re-announcing
        the snapshot document at its *recorded* version would make time
        run backwards for version-based change detection.  Floors are
        never lowered, so the announced version can only stay or rise.
        """
        with self._lock:
            before = self._documents
            self._documents = dict(snapshot)
            if not self._immediate_watchers:
                return
            reverted = []
            for uri in before.keys() | snapshot.keys():
                cur, snap = before.get(uri), snapshot.get(uri)
                if cur is not snap:
                    recorded = (snap.version if snap
                                else (cur.version if cur else 0))
                    reverted.append((
                        uri,
                        cur.root if cur else None,
                        snap.root if snap else None,
                        max(recorded, self._version_floor.get(uri, 0)),
                    ))
            for uri, old, new, version in reverted:
                for watcher in self._immediate_watchers:
                    watcher(uri, old, new, version)

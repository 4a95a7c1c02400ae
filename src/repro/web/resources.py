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
states of an update that officially never happened.  The buffer is also
the transaction's undo log: each entry keeps the document its op
replaced, so a rollback costs O(ops touched), not O(store size).

Internal cache invalidators that must track even uncommitted state (the
engine's deductive web views re-materialise lazily from whatever ``get``
returns) register with ``watch(fn, immediate=True)``: they are called
synchronously on every mutation *and* on rollback, so a cache can never
outlive the state it was built from.

Versions are **monotonic per URI** across the resource's whole lifetime:
``delete`` announces ``old.version + 1`` and a later ``put`` of the same
URI continues counting from there instead of restarting at 1, so
version-based change detection never sees time run backwards.

Thread-safety: all mutation and rollback paths are serialised by an
internal re-entrant lock.  Rule actions only ever run on the scheduler
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

    def _notify(self, uri: str, prior: "Document | None",
                new: "Data | None", version: int) -> None:
        """Announce one mutation; *prior* is the document it replaced."""
        op = (uri, prior.root if prior else None, new, version)
        for watcher in self._immediate_watchers:
            watcher(*op)
        if self._tx_depth > 0:
            self._tx_buffer.append((op, prior))
            return
        # A mutation outside any transaction is its own (single-op) commit:
        # it hits the persistence seam first, then the watchers, exactly
        # like an outermost transactional flush.
        self._make_durable(((op, prior),))
        for watcher in self._watchers:
            watcher(*op)

    # -- transactions (driven by repro.updates.transactions) --------------------

    def _begin_buffering(self) -> int:
        """Open a (possibly nested) transaction scope; returns the buffer
        mark :meth:`_rollback` undoes back to."""
        with self._lock:
            self._tx_depth += 1
            return len(self._tx_buffer)

    def _end_buffering(self, mark: int, commit: bool) -> None:
        """Close one transaction scope.

        Without *commit* the scope's buffered entries are discarded —
        the documents are left as they are; :meth:`_rollback` undoes them
        first.  The *outermost* commit persists whatever survived as one
        commit and flushes it, in update order, to the transactional
        watchers.
        """
        with self._lock:
            if not commit:
                del self._tx_buffer[mark:]
            self._tx_depth -= 1
            if self._tx_depth > 0:
                return
            pending, self._tx_buffer = self._tx_buffer, []
            ops = self._make_durable(pending) if pending else ()
        for op in ops:
            for watcher in self._watchers:
                watcher(*op)

    def _rollback(self, mark: int) -> None:
        """Undo the scope opened at *mark*, then close it."""
        with self._lock:
            try:
                self._undo(self._tx_buffer[mark:])
            finally:
                self._end_buffering(mark, commit=False)

    def _make_durable(self, entries) -> tuple:
        """Persist the ops of *entries* as one commit and return them.

        Durability before visibility: a durable backend covers a whole
        outermost transaction with one record and one fsync (group
        commit) while the lock still serialises commit order.  A commit
        that cannot be made durable is a failed commit: its ops are
        undone before the error propagates, so memory never runs ahead
        of what a reopen would recover.
        """
        ops = tuple(op for op, _prior in entries)
        try:
            self._persist(ops)
        except BaseException:
            self._undo(entries)
            raise
        return ops

    def _undo(self, entries) -> None:
        """Give every URI the buffer *entries* touched back the document it
        had before the first of them — the undo log is the op buffer.

        Transactional watchers hear nothing (the undone changes never
        happened), but *immediate* watchers are re-notified for every URI
        whose document changes back, so caches built from uncommitted
        intermediate state are invalidated rather than left describing
        documents that no longer exist.  The version announced is
        ``max(recorded version, version floor)``: the undone mutations
        burned numbers an immediate watcher already heard, and floors are
        never lowered, so version-based change detection never sees time
        run backwards.
        """
        before: "dict[str, Document | None]" = {}
        for (uri, _old, _new, _version), prior in entries:
            before.setdefault(uri, prior)
        reverted = []
        for uri, prior in before.items():
            current = self._documents.get(uri)
            if current is prior:
                continue
            if prior is None:
                del self._documents[uri]
            else:
                self._documents[uri] = prior
            recorded = prior.version if prior else current.version
            reverted.append((uri, current.root if current else None,
                             prior.root if prior else None,
                             max(recorded, self._version_floor.get(uri, 0))))
        for op in reverted:
            for watcher in self._immediate_watchers:
                watcher(*op)

    def _persist(self, ops) -> None:
        """Persistence seam: called with the committed operations of one
        outermost commit — ``(uri, old_root, new_root, version)`` tuples in
        update order, ``new_root is None`` for a delete — before any
        transactional watcher hears about them.  The in-memory store keeps
        nothing beyond the live documents, so this is a no-op; durable
        backends (:mod:`repro.store`) override it to append a
        write-ahead-log record.  Raising here fails the commit: its ops
        are undone and the error propagates to the mutator."""

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
            self._notify(uri, old, root, version)
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
            self._notify(uri, old, None, version)

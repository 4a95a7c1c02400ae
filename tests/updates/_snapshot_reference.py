"""The snapshot-rollback transaction: the reference the undo log must match.

A transaction used to copy a store's whole document map when it began
and swap the copy back on rollback.  That costs O(store size) per
transaction, but it is obviously right, so it lives on here, test-side,
as the oracle the undo-log rollback is property-checked against
(``test_undo_log.py``).  Only rollback differs: buffering, the
outermost flush and the watcher notifications of each mutation are the
store's own.
"""

from repro.web.resources import Document, ResourceStore


class SnapshotStore(ResourceStore):
    """A :class:`ResourceStore` that can copy and restore its documents."""

    def snapshot(self) -> "dict[str, Document]":
        """A cheap copy of the current state (documents are immutable)."""
        with self._lock:
            return dict(self._documents)

    def restore(self, snapshot: "dict[str, Document]") -> None:
        """Roll back to *snapshot*.

        Immediate watchers are re-notified for every URI whose document
        the restore changes back, at ``max(snapshot version, version
        floor)``; transactional watchers hear nothing.  The re-announced
        URIs come in set-iteration order.
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


class SnapshotTransaction:
    """Snapshot-rollback transaction over :class:`SnapshotStore` s."""

    def __init__(self, *stores: SnapshotStore) -> None:
        self._stores = stores
        self._snapshots = [store.snapshot() for store in stores]
        self._marks = [store._begin_buffering() for store in stores]
        self._finished = False
        self.committed = False

    def commit(self) -> None:
        self._finished = True
        self.committed = True
        for store, mark in zip(self._stores, self._marks):
            store._end_buffering(mark, commit=True)

    def rollback(self) -> None:
        for store, snapshot in zip(self._stores, self._snapshots):
            store.restore(snapshot)
        self._finished = True
        for store, mark in zip(self._stores, self._marks):
            store._end_buffering(mark, commit=False)

    def __enter__(self) -> "SnapshotTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._finished:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

"""Atomic execution of compound updates (Thesis 8).

The most common compound action is a *sequence*; if one step fails the
earlier steps must not remain half-applied.  A :class:`Transaction`
rolls one or more resource stores back on failure from an *undo log*:
the op buffer each store already keeps for the scope, where every entry
records the document its op replaced.  Rollback therefore costs O(ops
the transaction touched), whatever the size of the store.  Used by the
action executor for ``Sequence`` actions and available directly::

    with Transaction(store) as tx:
        store.put(uri, new_root)
        ...                      # any exception rolls everything back

Atomicity extends to *observers*: opening a transaction switches each
store into notification-buffering mode, so resource watchers (polling
baselines, Thesis-10 identity monitors) hear about the transaction's
puts/deletes only when it commits — in update order — and hear nothing at
all when it rolls back.  Without the buffering, a watcher could react to
an intermediate state of an update that officially never happened (a
phantom ``resource-changed``), violating Thesis 8.  Transactions nest:
an inner rollback discards only the inner scope's notifications, and
everything flushes at the outermost commit.

The outermost commit is also the **durability point**: the store's
``_persist`` seam receives the surviving operations as *one* commit —
before any transactional watcher hears them — so on a durable store
(:mod:`repro.store`) a whole transaction becomes permanent with a single
WAL append and fsync (group commit), or not at all.  A rolled-back
transaction never reaches the seam; after a crash, recovery restores
exactly the committed prefix.  A commit the seam refuses (a closed
store, a full disk) is undone in memory too, and the error propagates:
memory never runs ahead of what a reopen would recover.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.errors import TransactionError
from repro.web.resources import ResourceStore

T = TypeVar("T")


class Transaction:
    """Undo-log transaction over one or more resource stores."""

    def __init__(self, *stores: ResourceStore) -> None:
        if not stores:
            raise TransactionError("a transaction needs at least one store")
        self._stores = stores
        # Buffer watcher notifications until the outcome is known; the
        # marks let a nested rollback undo and discard only its own scope.
        self._marks = [store._begin_buffering() for store in stores]
        self._finished = False
        self.committed = False

    def commit(self) -> None:
        """Make the changes permanent (persists and flushes buffered
        notifications when this is the outermost transaction on each
        store).  If a store cannot make its commit durable, that store's
        changes are undone, the stores not yet committed are rolled back,
        and the error propagates with ``committed`` left ``False``."""
        self._check_open()
        self._finished = True
        scopes = list(zip(self._stores, self._marks))
        for i, (store, mark) in enumerate(scopes):
            try:
                store._end_buffering(mark, commit=True)
            except BaseException:
                for later, later_mark in scopes[i + 1:]:
                    later._rollback(later_mark)
                raise
        self.committed = True

    def rollback(self) -> None:
        """Undo every store's changes since the transaction began;
        watchers hear nothing of them (their buffered notifications are
        discarded — the transaction never happened)."""
        self._check_open()
        self._finished = True
        for store, mark in zip(self._stores, self._marks):
            store._rollback(mark)

    def _check_open(self) -> None:
        if self._finished:
            raise TransactionError("transaction already finished")

    def __del__(self) -> None:
        # An abandoned transaction (collected neither committed nor rolled
        # back) is rolled back: its scopes close and their documents are
        # undone through the same undo log ``rollback`` uses, so an outer
        # rollback still reverts them, an outer commit never persists
        # them, and a top-level abandoned scope leaves memory equal to
        # what a reopen recovers.  Transactional watchers hear nothing;
        # immediate watchers *are* re-announced the reverted documents,
        # from wherever the collector runs this finalizer, because they
        # are cache-invalidation hooks and must not go on describing
        # documents that no longer exist.
        if getattr(self, "_finished", True):
            return
        self._finished = True
        try:
            for store, mark in zip(self._stores, self._marks):
                store._rollback(mark)
        except Exception:
            pass  # interpreter teardown: never raise from __del__

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._finished:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False  # propagate exceptions after rollback


def atomically(stores: "ResourceStore | Iterable[ResourceStore]",
               action: Callable[[], T]) -> T:
    """Run *action* atomically over the given store(s).

    Returns the action's result; on any exception the stores are rolled
    back and the exception re-raised.
    """
    if isinstance(stores, ResourceStore):
        stores = [stores]
    with Transaction(*stores):
        return action()

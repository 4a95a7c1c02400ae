"""The pluggable persistence layer behind :class:`ResourceStore`.

Thesis 8 made updates transactional; this module makes the committed
ones *durable*.  A :class:`DurableResourceStore` is a drop-in
:class:`~repro.web.resources.ResourceStore` that routes the base class's
``_persist`` seam — called with the operations of exactly one outermost
commit, before any transactional watcher hears about it — into a
:class:`StoreBackend`, and rebuilds its in-memory state from that backend
when reopened.

The commit is the unit of everything:

- **Atomicity** — one commit is one backend record (one WAL append), so
  a whole outermost :class:`~repro.updates.transactions.Transaction`
  becomes durable with a single fsync (*group commit*) or not at all;
  a crash can never expose half of one.
- **Recovery** — reopening a store replays the backend's retained
  commits onto its latest snapshot.  Replay restores the documents,
  keeps the per-URI monotonic version floor (the announced version of a
  committed op *is* the floor after it), and reconstructs each op's
  ``old`` root by applying records in order — so the replayed watcher
  notifications carry exactly what the original delivery carried.
- **Exactly-once replay notification** — the replayed commits wait in
  the reopened store until :meth:`DurableResourceStore.deliver_replayed`
  flushes them to the *currently* registered transactional watchers; a
  second call delivers nothing.  Commits compacted into a snapshot are
  never replayed (and never re-notified), so the contract is: register
  watchers, call ``deliver_replayed()`` once, and every commit since the
  last checkpoint is heard exactly once.

Rolled-back transactions never reach the seam, so they are never
persisted — including the version numbers they burned.  Recovery
therefore restores the floors of the *committed prefix*: a number burned
by an uncommitted mutation after the last commit may be reused after a
crash, which is harmless because no transactional watcher ever heard it.
A commit the backend refuses (a closed store, a failing
``append_commit``) is undone in memory before the error propagates, so
the live state never runs ahead of what a reopen recovers.

Commit records travel as the textual term serialisation the wire
protocol already round-trips (:mod:`repro.terms.parser`), so any
serialisable document body persists unchanged::

    commit{ seq[12]
            op{ uri["http://a.example/doc"] version[3] body{ doc{ ... } } }
            op{ uri["http://a.example/gone"] version[7] } }     # a delete

Backends register by name in :data:`BACKENDS` (``memory`` and ``wal``
ship here; :func:`register_backend` adds more), selected via
:class:`StoreConfig` on the facade:
``EngineConfig(store=StoreConfig(backend="wal", path=...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import StoreError
from repro.terms.ast import Data, d
from repro.terms.parser import parse_data, to_text
from repro.web.resources import Document, ResourceStore

#: One committed operation: (uri, old_root_or_None, new_root_or_None,
#: version) — the watcher tuple.  ``new is None`` is a delete.
Op = tuple

# ---------------------------------------------------------------------------
# Commit record codec
# ---------------------------------------------------------------------------


def encode_commit(seq: int, ops: Sequence[Op]) -> str:
    """Serialise one commit as term text (``old`` roots are not stored:
    replay reconstructs them by applying records in order)."""
    children: list[Data] = [d("seq", seq)]
    for uri, _old, new, version in ops:
        parts: list[Data] = [d("uri", uri), d("version", version)]
        if new is not None:
            parts.append(d("body", new))
        children.append(d("op", *parts))
    return to_text(d("commit", *children))


def decode_commit(text: str) -> "tuple[int, list[tuple[str, Data | None, int]]]":
    """Parse commit text back into ``(seq, [(uri, new_or_None, version)])``.

    Raises :class:`StoreError` for anything that is not a commit record —
    the recovery scanners treat that exactly like a torn record.
    """
    try:
        term = parse_data(text)
    except Exception as exc:
        raise StoreError(f"unreadable commit record: {exc}") from exc
    if not isinstance(term, Data) or term.label != "commit":
        raise StoreError(f"not a commit record: {text[:80]!r}")
    seq_term = term.first("seq")
    if seq_term is None or not isinstance(seq_term.value, int):
        raise StoreError("commit record without an integer seq")
    ops: "list[tuple[str, Data | None, int]]" = []
    for op in term.all("op"):
        uri_term, version_term = op.first("uri"), op.first("version")
        if uri_term is None or version_term is None \
                or not isinstance(uri_term.value, str) \
                or not isinstance(version_term.value, int):
            raise StoreError("commit op without uri/version")
        body = op.first("body")
        if body is not None and (len(body.children) != 1
                                 or not isinstance(body.children[0], Data)):
            raise StoreError("commit op body must wrap one data term")
        ops.append((uri_term.value,
                    body.children[0] if body is not None else None,
                    version_term.value))
    return seq_term.value, ops


# ---------------------------------------------------------------------------
# Backend contract
# ---------------------------------------------------------------------------


class Recovery:
    """What a backend hands back from :meth:`StoreBackend.load`."""

    __slots__ = ("documents", "floors", "last_seq", "replayed")

    def __init__(self, documents: "dict[str, Document]",
                 floors: "dict[str, int]", last_seq: int,
                 replayed: "list[tuple[Op, ...]]") -> None:
        self.documents = documents
        self.floors = floors
        self.last_seq = last_seq
        #: Commits replayed from the log (ops with reconstructed ``old``
        #: roots), in commit order — pending exactly-once re-notification.
        self.replayed = replayed

    @staticmethod
    def replay(base_documents: "dict[str, Document]",
               base_floors: "dict[str, int]", base_seq: int,
               commits: "Iterable[tuple[int, list]]") -> "Recovery":
        """Apply decoded ``(seq, [(uri, new, version)])`` commits onto a
        snapshot, reconstructing each op's ``old`` root along the way.
        Records at or below *base_seq* are skipped (already compacted into
        the snapshot — replaying them would double-notify)."""
        documents = dict(base_documents)
        floors = dict(base_floors)
        last_seq = base_seq
        replayed: "list[tuple[Op, ...]]" = []
        for seq, ops in commits:
            if seq <= base_seq:
                continue
            commit_ops: list = []
            for uri, new, version in ops:
                old = documents.get(uri)
                if new is None:
                    documents.pop(uri, None)
                else:
                    documents[uri] = Document(uri, new, version)
                floors[uri] = max(floors.get(uri, 0), version)
                commit_ops.append((uri, old.root if old else None, new,
                                   version))
            replayed.append(tuple(commit_ops))
            last_seq = seq
        return Recovery(documents, floors, last_seq, replayed)


class StoreBackend:
    """What a persistence backend must provide (duck-typed; this base
    class only documents the contract and gives ``close`` a default).

    - ``name`` — the registry name, surfaced in stats and benchmarks.
    - ``load() -> Recovery`` — read the durable state once, at store
      construction.  Must repair (truncate) a torn log tail so later
      appends land on a valid prefix; must never propagate a torn record.
    - ``append_commit(seq, ops)`` — make one commit durable; when it
      returns, a crash must not lose the commit (subject to the
      configured fsync policy).  Raising aborts the mutator.
    - ``checkpoint(documents, floors, seq)`` — fold the current state
      into a snapshot and discard the log prefix it covers.  Must be
      crash-safe at every point: either the old snapshot+log or the new
      one is recovered, never a mix.
    - ``close()`` — release file handles; the store is unusable after.
    """

    name = "?"

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreConfig:
    """Everything configurable about one node's resource persistence.

    Passed as ``EngineConfig(store=StoreConfig(...))`` — the facade opens
    the store and swaps it in as ``node.resources`` before the engine
    attaches — or given straight to :func:`repro.store.open_store`.

    - ``backend`` — ``"memory"`` (the default: a plain in-memory
      :class:`~repro.web.resources.ResourceStore`, bit-for-bit the
      pre-persistence path), ``"wal"`` (append-only write-ahead log plus
      periodic snapshot compaction, CRC-framed records, group commit —
      one fsync per outermost transaction).  Names resolve through
      :data:`BACKENDS`; :func:`register_backend` adds custom ones.
    - ``path`` — the *directory* the ``wal`` backend persists into
      (created if missing; holds ``store.wal`` and ``snapshot``).
      Required for ``wal``, ignored by ``memory``.
    - ``fsync`` — ``True`` (default) fsyncs every commit record before
      the commit is acknowledged: the crash-at-any-point guarantee.
      ``False`` trades that for throughput (data loss bounded by the OS
      page cache on a *power* failure; a mere process crash still loses
      nothing) — the E20 ablation knob.
    - ``snapshot_every`` — commits between automatic checkpoints
      (``None``: only explicit :meth:`DurableResourceStore.checkpoint`
      calls compact).  Smaller values bound recovery replay length and
      log size at the cost of rewriting the snapshot more often.

    Fault injection is not configured here: it is wired where the fault
    happens, ``WalBackend(path, fault=FaultPlan(...))``.
    """

    backend: str = "memory"
    path: "str | None" = None
    fsync: bool = True
    snapshot_every: "int | None" = 256

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise StoreError(
                f"unknown store backend {self.backend!r} (expected one of "
                f"{', '.join(sorted(BACKENDS))})"
            )
        if self.backend == "wal" and not self.path:
            # Custom backends judge their own config; the built-in durable
            # one cannot do anything without somewhere to persist.
            raise StoreError(
                f"backend {self.backend!r} needs a path= to persist into"
            )
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise StoreError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )


# ---------------------------------------------------------------------------
# The durable store
# ---------------------------------------------------------------------------


class DurableResourceStore(ResourceStore):
    """A :class:`ResourceStore` whose committed state survives restarts.

    Construction *is* recovery: the backend's snapshot is loaded, retained
    log records are replayed onto it (torn tails repaired), the per-URI
    version floors are restored, and the replayed commits wait for one
    :meth:`deliver_replayed` call.  Everything else — transactions,
    watcher buffering, version monotonicity, locking — is inherited
    unchanged; only the ``_persist`` seam gains a real implementation.
    """

    def __init__(self, backend: StoreBackend, *,
                 snapshot_every: "int | None" = None) -> None:
        super().__init__()
        self._backend = backend
        self._snapshot_every = snapshot_every
        self._closed = False
        recovery = backend.load()
        self._documents.update(recovery.documents)
        self._version_floor.update(recovery.floors)
        # Floors as of the last *committed* op — what checkpoint persists.
        # The live _version_floor can run ahead of this (rolled-back
        # mutations burn numbers watchers may have heard), but burned
        # floors are process-local: recovery restores the committed
        # prefix, and reusing a number no committed watcher ever heard is
        # harmless (see the module docstring).
        self._committed_floors: "dict[str, int]" = dict(recovery.floors)
        self._seq = recovery.last_seq
        self._replay_pending: "list[tuple[Op, ...]]" = list(recovery.replayed)
        # Replayed commits count against the checkpoint cadence: a store
        # that crashes every N commits must still compact eventually.
        self._since_checkpoint = len(recovery.replayed)
        self.commits = 0

    # -- the seam -----------------------------------------------------------

    def _persist(self, ops) -> None:
        if self._closed:
            raise StoreError("store is closed; the commit cannot be made "
                             "durable")
        self._seq += 1
        self._backend.append_commit(self._seq, ops)
        for uri, _old, _new, version in ops:
            if version > self._committed_floors.get(uri, 0):
                self._committed_floors[uri] = version
        self.commits += 1
        self._since_checkpoint += 1

    def _make_durable(self, entries) -> tuple:
        ops = super()._make_durable(entries)
        # The cadence checkpoint runs once the commit is durable and is
        # not part of it: a checkpoint that fails propagates, but never
        # undoes a commit a reopen would recover.
        if (self._snapshot_every is not None
                and self._since_checkpoint >= self._snapshot_every):
            self.checkpoint()
        return ops

    # -- recovery surface ---------------------------------------------------

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def replay_pending(self) -> int:
        """Recovered commits not yet delivered to watchers."""
        return len(self._replay_pending)

    def deliver_replayed(self) -> int:
        """Flush recovery-replayed commit notifications, exactly once.

        Delivers every commit replayed from the log — in commit order, op
        by op — to the currently registered transactional watchers, then
        forgets them: a second call delivers nothing.  Returns the number
        of commits delivered.  Call after registering the watchers that
        should hear the replay (polling baselines, identity monitors);
        immediate watchers are *not* called — they invalidate caches,
        and a freshly reopened store has none to invalidate.
        """
        with self._lock:
            pending, self._replay_pending = self._replay_pending, []
        for ops in pending:
            for uri, old, new, version in ops:
                for watcher in self._watchers:
                    watcher(uri, old, new, version)
        return len(pending)

    def checkpoint(self) -> None:
        """Fold the current state into the backend's snapshot and discard
        the log prefix it covers (crash-safe; see the backend docs).

        Must not run mid-transaction: the snapshot would capture
        uncommitted documents a rollback could still erase.
        """
        with self._lock:
            if self.in_transaction():
                raise StoreError(
                    "checkpoint inside an open transaction would snapshot "
                    "uncommitted state; commit or roll back first"
                )
            self._backend.checkpoint(dict(self._documents),
                                     dict(self._committed_floors), self._seq)
            self._since_checkpoint = 0

    def close(self) -> None:
        """Release the backend (idempotent).  Further mutations raise."""
        if not self._closed:
            self._closed = True
            self._backend.close()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _open_memory(config: StoreConfig) -> ResourceStore:
    return ResourceStore()


def _open_wal(config: StoreConfig) -> ResourceStore:
    from repro.store.wal import WalBackend

    return DurableResourceStore(
        WalBackend(config.path, fsync=config.fsync),
        snapshot_every=config.snapshot_every,
    )


#: Backend name -> ``factory(StoreConfig) -> ResourceStore``.
BACKENDS: "dict[str, Callable[[StoreConfig], ResourceStore]]" = {
    "memory": _open_memory,
    "wal": _open_wal,
}


def register_backend(name: str,
                     factory: "Callable[[StoreConfig], ResourceStore]") -> None:
    """Register a custom persistence backend under *name* (overwrites).

    The factory receives the full :class:`StoreConfig` and returns a
    ready (recovered) :class:`ResourceStore`.
    """
    BACKENDS[name] = factory


def open_store(config: "StoreConfig | None" = None) -> ResourceStore:
    """Open (and recover) the store *config* describes.

    ``None`` or ``backend="memory"`` returns a plain in-memory
    :class:`ResourceStore` — exactly the store every node starts with.
    """
    if config is None:
        config = StoreConfig()
    return BACKENDS[config.backend](config)

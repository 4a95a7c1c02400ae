"""Rollback from the undo log: equivalent to a snapshot, and O(ops).

A transaction rolls back from the op buffer its store already keeps for
the scope — each entry records the document its op replaced — instead
of a copy of the whole document map.  Two things are pinned here:

- **Equivalence** — random nested (LIFO) scopes of ``put`` / ``update`` /
  ``delete``, each scope ending in a commit, an explicit rollback or an
  exception, leave the store exactly where the snapshot-rollback
  reference (``_snapshot_reference.py``) leaves it: documents, versions,
  floors, the transactional watcher stream, and — per URI — the
  immediate watcher stream (the reference re-announces reverted URIs in
  set-iteration order, so only the per-URI order is defined).
- **Cost** — on a 10 000-document store, neither a committed nor a
  rolled-back transaction iterates or copies the document map: counted
  calls, not timings, so the guard holds on any machine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _snapshot_reference import SnapshotStore, SnapshotTransaction
from repro import d
from repro.updates import Transaction
from repro.web.resources import ResourceStore

URIS = [f"http://a.example/r{i}" for i in range(3)]


class Boom(Exception):
    pass


LEAVES = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(URIS), st.integers(0, 9)),
    st.tuples(st.just("update"), st.sampled_from(URIS), st.integers(0, 9)),
    st.tuples(st.just("delete"), st.sampled_from(URIS)),
)
PROGRAMS = st.lists(
    st.recursive(
        LEAVES,
        lambda body: st.tuples(
            st.just("scope"), st.lists(body, max_size=4),
            st.sampled_from(["commit", "rollback", "raise"])),
        max_leaves=12,
    ),
    max_size=6,
)


def run(step, store, transaction) -> None:
    kind = step[0]
    if kind == "put":
        store.put(step[1], d("doc", d("n", step[2])))
    elif kind == "update":
        if step[1] in store:
            store.update(step[1], lambda root, n=step[2]: root.append(d("n", n)))
    elif kind == "delete":
        if step[1] in store:
            store.delete(step[1])
    else:
        _scope, body, outcome = step
        try:
            with transaction(store) as tx:
                for inner in body:
                    run(inner, store, transaction)
                if outcome == "rollback":
                    tx.rollback()
                elif outcome == "raise":
                    raise Boom
        except Boom:
            pass


def observed(store):
    committed, immediate = [], []
    store.watch(lambda *op: committed.append(op))
    store.watch(lambda *op: immediate.append(op), immediate=True)
    return committed, immediate


def per_uri(stream):
    by_uri = {}
    for op in stream:
        by_uri.setdefault(op[0], []).append(op)
    return by_uri


@settings(deadline=None)
@given(program=PROGRAMS)
def test_undo_log_rollback_matches_the_snapshot_reference(program):
    store, reference = ResourceStore(), SnapshotStore()
    heard = observed(store)
    expected = observed(reference)
    for step in program:
        run(step, store, Transaction)
        run(step, reference, SnapshotTransaction)
        assert not store.in_transaction()
        assert store._documents == reference._documents
        assert store._version_floor == reference._version_floor
        assert heard[0] == expected[0]
        assert per_uri(heard[1]) == per_uri(expected[1])


class CountingDict(dict):
    """A document map that counts every whole-map scan or copy."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()

    def copy(self):
        self.scans += 1
        return super().copy()


class TestTransactionCost:
    """Machine-independent cost guard: a two-op transaction on a
    10 000-document store touches its two ops, never the store."""

    N_DOCS = 10_000

    @pytest.fixture()
    def store(self):
        store = ResourceStore()
        for i in range(self.N_DOCS):
            store.put(f"http://a.example/d{i}", d("doc", d("n", i)))
        store.watch(lambda *op: None)
        store.watch(lambda *op: None, immediate=True)
        store._documents = CountingDict(store._documents)
        return store

    def two_ops(self, store):
        store.put("http://a.example/d0", d("doc", d("n", -1)))
        store.put("http://a.example/new", d("doc"))

    def test_committed_transaction_never_scans_the_store(self, store):
        with Transaction(store):
            self.two_ops(store)
        assert store._documents.scans == 0
        assert store.version("http://a.example/d0") == 2

    def test_rolled_back_transaction_never_scans_the_store(self, store):
        transaction = Transaction(store)
        self.two_ops(store)
        transaction.rollback()
        assert store._documents.scans == 0
        assert store.get("http://a.example/d0") == d("doc", d("n", 0))
        assert "http://a.example/new" not in store

    def test_exception_rollback_never_scans_the_store(self, store):
        with pytest.raises(Boom):
            with Transaction(store):
                self.two_ops(store)
                raise Boom
        assert store._documents.scans == 0
        assert len(store._documents) == self.N_DOCS

"""Thesis-8 transactional visibility: watchers never see rolled-back state.

Regression suite for the atomicity leak where ``ResourceStore`` notified
watchers synchronously from puts/deletes *inside* a transaction, so
polling watchers and Thesis-10 identity monitors observed intermediate
states of transactions that later rolled back (phantom
``resource-changed`` events), and for the version regression where a
delete→put sequence restarted the version counter below what the delete
had already announced.
"""

import pytest

from repro import Simulation, d
from repro.core import QueryCond, ReactiveEngine, eca
from repro.core.actions import PutResource, PyAction, Sequence
from repro.core.identity import ChangeMonitor
from repro.deductive import DeductiveRule, Match, Program
from repro.errors import ActionError
from repro.events import EAtom
from repro.terms import Bindings, Var, c, parse_query, q
from repro.updates import Transaction
from repro.web.resources import ResourceStore

DOC = "http://a.example/doc"


def watched_store():
    store = ResourceStore()
    seen = []
    store.watch(lambda uri, old, new, v: seen.append((uri, old, new, v)))
    return store, seen


class TestBufferedNotifications:
    def test_commit_flushes_in_update_order(self):
        store, seen = watched_store()
        with Transaction(store):
            store.put(DOC, d("doc", 1))
            store.put(DOC, d("doc", 2))
            assert seen == []  # nothing leaks before the outcome is known
        assert [(new, v) for _u, _o, new, v in seen] == \
            [(d("doc", 1), 1), (d("doc", 2), 2)]

    def test_rollback_suppresses_phantom_notifications(self):
        store, seen = watched_store()
        with pytest.raises(ValueError):
            with Transaction(store):
                store.put(DOC, d("doc", 1))
                store.delete(DOC)
                raise ValueError("boom")
        assert seen == []  # the transaction never happened; watchers agree

    def test_nested_inner_rollback_keeps_outer_changes(self):
        store, seen = watched_store()
        with Transaction(store):
            store.put(DOC, d("doc", 1))
            with pytest.raises(RuntimeError):
                with Transaction(store):
                    store.put(DOC, d("doc", 99))
                    raise RuntimeError
            store.put(DOC, d("doc", 2))
        # The inner scope's notification is gone; the outer scope's flushed.
        assert [new for _u, _o, new, _v in seen] == [d("doc", 1), d("doc", 2)]

    def test_outside_transactions_notification_is_synchronous(self):
        store, seen = watched_store()
        store.put(DOC, d("doc", 1))
        assert len(seen) == 1

    def test_abandoned_transaction_does_not_silence_watchers_forever(self):
        """A Transaction that is constructed but never finished must not
        leave the store buffering notifications for the rest of its life."""
        import gc

        store, seen = watched_store()
        transaction = Transaction(store)
        store.put(DOC, d("doc", 1))  # buffered under the open scope
        del transaction
        gc.collect()
        assert not store.in_transaction()
        store.put(DOC, d("doc", 2))
        assert [v for _u, _o, _n, v in seen] == [2]  # live again

    def test_abandoned_transaction_in_a_reference_cycle_under_gc(self):
        """The abandonment cleanup must also run when the Transaction is
        only reachable through a reference cycle — the common leak shape
        (a handler object holding the transaction *and* itself) where
        ``__del__`` fires from the cycle collector, not from refcounting.
        """
        import gc

        store, seen = watched_store()

        class Holder:
            pass

        holder = Holder()
        holder.transaction = Transaction(store)
        holder.self_reference = holder          # the cycle
        store.put(DOC, d("doc", 1))             # buffered under the scope
        del holder
        gc.collect()                            # cycle collector runs __del__
        assert not store.in_transaction()
        store.put(DOC, d("doc", 2))
        assert [v for _u, _o, _n, v in seen] == [2]

    def test_rollback_inside_nested_commit_flushes_survivors_in_order(self):
        """An inner rollback mid-transaction discards exactly its own
        scope; the outer commit then flushes the surviving notifications
        in original update order — including updates made *after* the
        inner scope collapsed — as one atomic unit at the seam."""
        store, seen = watched_store()
        commits = []
        original = store._persist
        store._persist = lambda ops: (commits.append(tuple(ops)),
                                      original(ops))[1]
        with Transaction(store):
            store.put(DOC, d("doc", "outer-1"))
            inner = Transaction(store)
            store.put(DOC, d("doc", "inner"))
            store.put("http://a.example/tmp", d("tmp"))
            inner.rollback()
            store.put(DOC, d("doc", "outer-2"))
        assert [new for _u, _o, new, _v in seen] == \
            [d("doc", "outer-1"), d("doc", "outer-2")]
        # The persistence seam saw ONE commit holding both survivors.
        assert len(commits) == 1
        assert [op[2] for op in commits[0]] == \
            [d("doc", "outer-1"), d("doc", "outer-2")]


class TestAbandonedScopeRollsBack:
    """A transaction collected unfinished is rolled back, documents and
    all, exactly as an explicit ``rollback`` would have done."""

    def test_outer_rollback_reverts_an_abandoned_inner_scope(self):
        import gc

        store = ResourceStore()
        outer = Transaction(store)
        inner = Transaction(store)
        store.put(DOC, d("doc", 1))
        del inner
        gc.collect()
        outer.rollback()
        assert DOC not in store
        assert not store.in_transaction()

    def test_outer_commit_never_persists_an_abandoned_inner_scope(self):
        import gc

        store, seen = watched_store()
        with Transaction(store):
            store.put(DOC, d("doc", 1))
            inner = Transaction(store)
            store.put(DOC, d("doc", 2))
            del inner
            gc.collect()
            assert store.get(DOC) == d("doc", 1)
        assert [new for _u, _o, new, _v in seen] == [d("doc", 1)]

    def test_immediate_watchers_hear_the_revert(self):
        import gc

        store = ResourceStore()
        heard = []
        store.watch(lambda uri, old, new, v: heard.append((new, v)),
                    immediate=True)
        transaction = Transaction(store)
        store.put(DOC, d("doc", 1))
        del transaction
        gc.collect()
        assert heard == [(d("doc", 1), 1), (None, 1)]

    def test_top_level_abandoned_scope_agrees_with_a_reopen(self, tmp_path):
        import gc

        from repro.store import StoreConfig, open_store

        config = StoreConfig(backend="wal", path=str(tmp_path / "store"),
                             snapshot_every=None)
        store = open_store(config)
        store.put(DOC, d("doc", 1))
        transaction = Transaction(store)
        store.put(DOC, d("doc", 2))
        store.put("http://a.example/tmp", d("tmp"))
        del transaction
        gc.collect()
        reopened = open_store(config)
        assert store.uris() == reopened.uris()
        assert store.get(DOC) == reopened.get(DOC) == d("doc", 1)
        reopened.close()
        store.close()


class TestEngineAtomicSequence:
    def _node(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        engine = ReactiveEngine(node)
        return sim, node, engine

    def test_failing_sequence_first_put_never_reaches_watcher(self):
        """The satellite's exact scenario: an atomic ``Sequence`` whose
        first step PUTs and whose second step fails must roll back
        without the PUT ever reaching a watcher."""
        sim, node, engine = self._node()
        seen = []
        node.resources.watch(lambda uri, old, new, v: seen.append((uri, new, v)))

        def fail(n, b):
            raise ActionError("second step fails")

        engine.install(eca(
            "atomic",
            EAtom(q("go", Var("V"))),
            Sequence(
                PutResource(DOC, d("doc", 1)),
                PyAction(fail, "fail"),
                atomic=True,
            ),
        ))
        node.raise_local(d("go", 1))
        with pytest.raises(ActionError):
            sim.run()
        assert DOC not in node.resources  # rolled back...
        assert seen == []                 # ...and invisible to watchers
        assert engine.stats.rollbacks == 1

    def test_committed_sequence_notifies_after_commit(self):
        sim, node, engine = self._node()
        seen = []
        node.resources.watch(lambda uri, old, new, v: seen.append(v))
        engine.install(eca(
            "atomic",
            EAtom(q("go", Var("V"))),
            Sequence(
                PutResource(DOC, d("doc", 1)),
                PutResource(DOC, d("doc", 2)),
                atomic=True,
            ),
        ))
        node.raise_local(d("go", 1))
        sim.run()
        assert seen == [1, 2]

    def test_identity_monitor_sees_no_phantom_items(self):
        """A Thesis-10 monitor must not raise item events for state a
        rollback erased."""
        sim, node, engine = self._node()
        node.put(DOC, d("items"))
        monitor = ChangeMonitor(node, DOC, q("item"), mode="surrogate")

        def fail(n, b):
            raise ActionError("abort")

        engine.install(eca(
            "atomic",
            EAtom(q("go", Var("V"))),
            Sequence(
                PutResource(DOC, d("items", d("item", d("id", 7)))),
                PyAction(fail, "fail"),
                atomic=True,
            ),
        ))
        node.raise_local(d("go", 1))
        with pytest.raises(ActionError):
            sim.run()
        assert monitor.stats.inserted == 0
        assert monitor.stats.deleted == 0

    def test_web_view_cache_invalidated_by_rollback(self):
        """The deductive-view cache registers as an *immediate* watcher:
        it may materialise from uncommitted state mid-transaction, so a
        rollback must invalidate it again or conditions would keep
        querying documents that no longer exist."""
        from repro.core import conditions as cond

        sim, node, engine = self._node()
        node.put(DOC, d("facts", d("base", "a")))
        engine.define_web_views(DOC, Program([
            DeductiveRule(c("derived", Var("X")),
                          (Match(parse_query("base[var X]")),)),
        ]))

        def probe(value):
            return cond.evaluate(
                QueryCond(DOC, parse_query(f'derived["{value}"]')),
                node, Bindings(), views=engine._web_views,
            )

        def fail(n, b):
            # Materialise the view from the uncommitted document...
            assert probe("b")
            raise ActionError("abort")

        engine.install(eca(
            "atomic",
            EAtom(q("go", Var("V"))),
            Sequence(
                PutResource(DOC, d("facts", d("base", "b"))),
                PyAction(fail, "fail"),
                atomic=True,
            ),
        ))
        node.raise_local(d("go", 1))
        with pytest.raises(ActionError):
            sim.run()
        # After rollback the view must answer from the restored document.
        assert not probe("b")
        assert probe("a")


class TestMonotonicVersions:
    def test_delete_then_put_keeps_versions_monotonic(self):
        """Regression: ``delete`` announced ``old.version + 1`` but a
        re-creating ``put`` restarted at 1, so version-based change
        detection saw time run backwards."""
        store, seen = watched_store()
        store.put(DOC, d("doc", 1))      # v1
        store.put(DOC, d("doc", 2))      # v2
        store.delete(DOC)                # announces v3
        store.put(DOC, d("doc", 3))      # must continue past v3
        versions = [v for _u, _o, _n, v in seen]
        assert versions == [1, 2, 3, 4]
        assert versions == sorted(versions)
        assert store.version(DOC) == 4

    def test_repeated_delete_put_cycles_never_regress(self):
        store, seen = watched_store()
        for i in range(3):
            store.put(DOC, d("doc", i))
            store.delete(DOC)
        versions = [v for _u, _o, _n, v in seen]
        assert versions == [1, 2, 3, 4, 5, 6]

    def test_restore_never_announces_a_version_below_the_floor(self):
        """Regression: ``restore()`` re-announced a reverted document at
        its *recorded* snapshot version, so an immediate watcher that had
        already heard the rolled-back delete's ``old + 1`` saw version
        time run backwards on rollback.  The announced version must be
        ``max(snapshot version, floor)``."""
        store = ResourceStore()
        store.put(DOC, d("doc", 1))              # v1
        versions = []
        store.watch(lambda _u, _o, _n, v: versions.append(v),
                    immediate=True)
        with pytest.raises(RuntimeError):
            with Transaction(store):
                store.delete(DOC)                # immediate watcher hears v2
                raise RuntimeError
        # The rollback re-announces DOC (content back to d("doc", 1));
        # before the fix this arrived as v1 — below the v2 already heard.
        assert versions == [2, 2]
        assert versions == sorted(versions)
        assert store.get(DOC) == d("doc", 1)

    def test_restore_announces_monotonic_versions_across_uris(self):
        """Same property through a multi-URI rollback: every immediate
        re-notification stays at-or-above anything previously announced
        for that URI."""
        store = ResourceStore()
        store.put(DOC, d("doc", 1))
        heard: dict[str, list[int]] = {}
        store.watch(lambda u, _o, _n, v: heard.setdefault(u, []).append(v),
                    immediate=True)
        other = "http://a.example/other"
        with pytest.raises(RuntimeError):
            with Transaction(store):
                store.put(DOC, d("doc", 2))      # v2
                store.put(other, d("x"))         # v1 (created in-tx)
                store.delete(other)              # v2
                raise RuntimeError
        for uri, versions in heard.items():
            assert versions == sorted(versions), (uri, versions)

    def test_version_floor_survives_rollback(self):
        """Floors only ever rise: a rolled-back put may burn version
        numbers, but the next committed write stays above everything any
        watcher could have observed."""
        store, seen = watched_store()
        store.put(DOC, d("doc", 1))
        with pytest.raises(RuntimeError):
            with Transaction(store):
                store.put(DOC, d("doc", 2))  # burns v2 (never notified)
                raise RuntimeError
        store.put(DOC, d("doc", 3))
        versions = [v for _u, _o, _n, v in seen]
        assert versions == sorted(versions)
        assert versions[-1] > 1

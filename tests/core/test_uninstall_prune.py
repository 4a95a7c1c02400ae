"""Uninstall prunes the dispatch structure eagerly, not at the next refresh.

Regression tests for the stale-interest bug: an uninstalled rule used to
keep its trie rows and absence deadlines registered until the next full
``refresh()``, so its label kept attracting deliveries and its expired
deadlines kept waking the engine for nothing.
"""

from repro import EngineConfig, Simulation
from repro.core import eca
from repro.core.actions import PyAction
from repro.events import EAtom, ENot, ESeq, EWithin
from repro.terms import Var, d, q


def single_node():
    sim = Simulation(latency=0.0)
    return sim, sim.reactive_node("http://p.example")


def recorder(fired, tag):
    return PyAction(lambda n, b, t=tag: fired.append(t), "record")


class TestEngineEagerPrune:
    def test_uninstall_before_deadline_cancels_the_wakeup(self):
        """The failing-before case: uninstalling an absence rule whose
        deadline is already registered must not wake the engine when the
        instant arrives (no owners are left to advance)."""
        sim, node = single_node()
        fired = []
        node.install(eca(
            "escalate",
            EWithin(ESeq(EAtom(q("ticket", Var("T"))),
                         ENot(q("reply", Var("T")))), 5.0),
            recorder(fired, "late"),
        ))
        node.raise_local(d("ticket", 1))
        sim.scheduler.at(1.0, lambda: node.uninstall("escalate"))
        sim.run()
        assert sim.scheduler.now >= 5.0  # the clock entry itself still ran
        assert fired == []
        assert node.engine.stats.wakeups == 0

    def test_uninstall_prunes_label_interest_immediately(self):
        sim, node = single_node()
        fired = []
        node.install(
            eca("a-rule", EAtom(q("a", Var("X"))), recorder(fired, "a")),
            eca("b-rule", EAtom(q("b", Var("X"))), recorder(fired, "b")),
        )
        node.uninstall("a-rule")
        # The trie root for "a" is gone the moment uninstall returns — no
        # refresh() in between — while "b" is untouched.
        assert "a" not in node.engine._index
        assert "b" in node.engine._index
        sim.scheduler.at(0.0, lambda: node.raise_local(d("a", 1)))
        sim.scheduler.at(1.0, lambda: node.raise_local(d("b", 2)))
        sim.run()
        assert fired == ["b"]
        # The "a" event found no trie root: dropped before any evaluator
        # was considered, not filtered candidate-by-candidate.
        assert node.engine.stats.candidates_considered == 1

    def test_surviving_deadline_at_the_same_instant_still_fires(self):
        """Pruning one owner must not take down a shared deadline: another
        rule expiring at the same instant still wakes up and fires."""
        sim, node = single_node()
        fired = []
        absence = EWithin(ESeq(EAtom(q("ticket", Var("T"))),
                               ENot(q("reply", Var("T")))), 5.0)
        node.install(
            eca("escalate", absence, recorder(fired, "escalate")),
            eca("second", absence, recorder(fired, "second")),
        )
        node.raise_local(d("ticket", 1))
        sim.scheduler.at(1.0, lambda: node.uninstall("escalate"))
        sim.run()
        assert fired == ["second"]
        assert node.engine.stats.wakeups == 1


class TestRouterEagerPrune:
    def test_uninstall_shrinks_delivery_to_interested_shards(self):
        """A replicated residual rule's shards stop receiving the label's
        events as soon as the rule is uninstalled."""
        sim = Simulation(latency=0.0)
        node = sim.reactive_node("http://p.example",
                                 config=EngineConfig(shards=4))
        fired = []
        node.install(*(
            eca(f"r{i}", EAtom(q("stock", sym=f"S{i}")), recorder(fired, i))
            for i in range(8)
        ))
        # The residual rule replicates everywhere: every shard now needs
        # every "stock" event.
        node.install(eca("audit", EAtom(q("stock", Var("X"))),
                         recorder(fired, "audit")))
        assert node.router.placement()["audit"] == (0, 1, 2, 3)

        def processed():
            return sum(stats.events_processed for stats in node.stats.shards)

        sim.scheduler.at(0.0, lambda: node.raise_local(d("stock", 1, sym="S0")))
        sim.run()
        with_residual = processed()
        assert with_residual == 4  # all four shards saw the event
        assert fired == [0, "audit"]
        node.uninstall("audit")
        sim.scheduler.at(sim.scheduler.now + 1.0,
                         lambda: node.raise_local(d("stock", 2, sym="S0")))
        sim.run()
        assert processed() == with_residual + 1  # only S0's value shard
        assert fired == [0, "audit", 0]


class _CountingDict(dict):
    """Counts every read that could be part of a walk over all instants."""

    reads = 0

    def _count(self):
        type(self).reads += 1

    def __getitem__(self, key):
        self._count()
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._count()
        return super().get(key, default)

    def values(self):
        self._count()
        return [self._count() or value for value in super().values()]

    def items(self):
        self._count()
        return [self._count() or item for item in super().items()]

    def __iter__(self):
        self._count()
        return iter([self._count() or key for key in super().keys()])


class TestUninstallCostIsTheRulesOwnDeadlines:
    def test_uninstall_touches_only_the_instants_the_rule_owns(self):
        """1 000 absence rules each hold one pending deadline at its own
        instant; uninstalling one of them must look at that one instant,
        not walk the other 999."""
        sim, node = single_node()
        fired = []
        node.install(*(
            eca(f"quiet{i}",
                EWithin(ESeq(EAtom(q(f"start{i}", Var("T"))),
                             ENot(q(f"stop{i}", Var("T")))), 5.0 + i),
                recorder(fired, i))
            for i in range(1000)
        ))
        for i in range(1000):
            node.raise_local(d(f"start{i}", 1))
        sim.run_until(1.0)
        engine = node.engine
        assert len(engine._deadline_owners) == 1000
        engine._deadline_owners = _CountingDict(engine._deadline_owners)
        _CountingDict.reads = 0
        node.uninstall("quiet500")
        assert _CountingDict.reads <= 2
        engine._deadline_owners = dict(engine._deadline_owners)
        sim.run()
        assert fired == [i for i in range(1000) if i != 500]
        # Every deadline fired or was pruned: the reverse map holds no
        # instant any more.
        assert not any(engine._owned_instants.values())
        assert not engine._deadline_owners

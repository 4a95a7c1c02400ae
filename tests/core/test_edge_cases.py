"""Edge-case coverage across engine, conditions, actions, and web nodes."""

import pytest

from repro.core import (
    CompareCond,
    EngineConfig,
    PyAction,
    QueryCond,
    Raise,
    ReactiveEngine,
    Update,
    eca,
)
from repro.core.actions import Persist, UninstallRule, resolve_uri
from repro.core import conditions as cond
from repro.errors import ActionError, ResourceNotFound, RuleError, WebError
from repro.events.queries import EAtom
from repro.terms import Bindings, Var, d, parse_construct, parse_data, parse_query, q
from repro.web import Simulation


def one_node(**kwargs):
    sim = Simulation(latency=0.0)
    node = sim.node("http://n.example")
    return sim, node, ReactiveEngine(node, **kwargs)


class TestEngineLifecycle:
    def test_duplicate_install_rejected(self):
        sim, node, engine = one_node()
        rule = eca("r", EAtom(q("a")), PyAction(lambda n, b: None))
        engine.install(rule)
        with pytest.raises(RuleError):
            engine.install(rule)

    def test_uninstall_unknown_rejected(self):
        sim, node, engine = one_node()
        with pytest.raises(RuleError):
            engine.uninstall("ghost")

    def test_uninstall_stops_firing(self):
        sim, node, engine = one_node()
        hits = []
        engine.install(eca("r", EAtom(parse_query("go")),
                           PyAction(lambda n, b: hits.append(1))))
        node.raise_local(parse_data("go"))
        sim.run()  # drain before the uninstall: delivery is queued
        engine.uninstall("r")
        node.raise_local(parse_data("go"))
        sim.run()
        assert hits == [1]

    def test_install_non_rule_rejected(self):
        sim, node, engine = one_node()
        with pytest.raises(RuleError):
            engine.install("not a rule")  # type: ignore[arg-type]

    def test_refresh_preserves_partial_matches(self):
        from repro.events.queries import EAnd

        sim, node, engine = one_node()
        hits = []
        engine.install(eca(
            "join", EAnd(EAtom(q("a")), EAtom(q("b"))),
            PyAction(lambda n, b: hits.append(1)),
        ))
        node.raise_local(parse_data("a{}"))
        sim.run()  # a is a processed partial match before the refresh
        # Installing another rule triggers refresh; the a-partial survives.
        engine.install(eca("other", EAtom(q("zzz")), PyAction(lambda n, b: None)))
        node.raise_local(parse_data("b{}"))
        sim.run()
        assert hits == [1]

    def test_duplicate_procedure_rejected(self):
        sim, node, engine = one_node()
        engine.define_procedure("p", (), PyAction(lambda n, b: None))
        with pytest.raises(RuleError):
            engine.define_procedure("p", (), PyAction(lambda n, b: None))

    def test_engine_with_consumption_policy(self):
        from repro.events.queries import EAnd

        sim, node, engine_default = one_node()
        sim2 = Simulation(latency=0.0)
        node2 = sim2.node("http://m.example")
        engine_chronicle = ReactiveEngine(
            node2, config=EngineConfig(consumption="chronicle"))
        hits_default, hits_chronicle = [], []
        query = EAnd(EAtom(q("a", Var("X"))), EAtom(q("b", Var("Y"))))
        engine_default.install(eca("j", query,
                                   PyAction(lambda n, b: hits_default.append(1))))
        engine_chronicle.install(eca("j", query,
                                     PyAction(lambda n, b: hits_chronicle.append(1))))
        for raiser, runner in ((node, sim), (node2, sim2)):
            raiser.raise_local(parse_data("a{1}"))
            raiser.raise_local(parse_data("a{2}"))
            raiser.raise_local(parse_data("b{9}"))
            runner.run()
        assert len(hits_default) == 2    # both a's pair
        assert len(hits_chronicle) == 1  # b consumed by the first pairing


class TestMidDispatchUninstall:
    """A rule uninstalled by an earlier rule's action while the same event
    (or the same wake-up) is still being dispatched no longer sees it —
    the mirror of the dispatch snapshot hiding the event from rules
    installed mid-dispatch."""

    VICTIM = 'RULE b ON {on} DO PUT "http://n.example/b" fired{{}}'

    def _run(self, shards, killer, victim_on, events):
        sim = Simulation(latency=0.0)
        node = sim.reactive_node("http://n.example",
                                 config=EngineConfig(shards=shards))
        node.install(killer)
        node.install(self.VICTIM.format(on=victim_on))
        for text in events:
            node.raise_local(text)
        sim.run()
        assert "http://n.example/b" not in node.store  # b never fired
        return node.rules(), node.stats.rule_firings

    @pytest.mark.parametrize("shards", [1, 2])
    def test_uninstalled_later_rule_skips_in_flight_event(self, shards):
        run = self._run(shards, "RULE a ON ping{{ }} DO UNINSTALL b",
                        "ping{{ }}", ["ping{ }"])
        assert run == (["a"], 1)
        assert run == self._run(1, "RULE a ON ping{{ }} DO UNINSTALL b",
                                "ping{{ }}", ["ping{ }"])

    @pytest.mark.parametrize("shards", [1, 2])
    def test_uninstalled_later_owner_skips_shared_wakeup(self, shards):
        absent = "WITHIN 1.0 (go{{ }} THEN NOT stop{{ }})"
        run = self._run(shards, f"RULE a ON {absent} DO UNINSTALL b",
                        absent, ["go{ }"])
        assert run == (["a"], 1)
        assert run == self._run(1, f"RULE a ON {absent} DO UNINSTALL b",
                                absent, ["go{ }"])


class TestConditionEdges:
    def test_compare_with_non_scalar_fails_closed(self):
        sim, node, engine = one_node()
        result = cond.evaluate(
            CompareCond(d("term"), "==", 1), node, Bindings())
        assert result == []

    def test_unknown_condition_rejected(self):
        sim, node, engine = one_node()
        with pytest.raises(RuleError):
            cond.evaluate("nope", node, Bindings())

    def test_query_cond_missing_resource_propagates(self):
        sim, node, engine = one_node()
        with pytest.raises(ResourceNotFound):
            cond.evaluate(QueryCond("http://n.example/ghost", q("x")),
                          node, Bindings())

    def test_uri_var_bound_to_non_string(self):
        sim, node, engine = one_node()
        with pytest.raises(RuleError):
            cond.evaluate(QueryCond(Var("U"), q("x")), node, Bindings.of(U=5))

    def test_stats_not_counted_for_nested(self):
        sim, node, engine = one_node()
        node.put("http://n.example/d", parse_data("d{ x }"))
        from repro.core import AndCond

        stats = engine.stats
        before = stats.condition_evaluations
        cond.evaluate(
            AndCond(QueryCond("http://n.example/d", q("d")),
                    QueryCond("http://n.example/d", q("d"))),
            node, Bindings(), stats,
        )
        assert stats.condition_evaluations == before + 1  # one top-level eval


class TestActionEdges:
    def test_resolve_uri_unbound_var(self):
        with pytest.raises(ActionError):
            resolve_uri(Var("U"), Bindings())

    def test_update_require_effect(self):
        sim, node, engine = one_node()
        node.put("http://n.example/d", parse_data("d{}"))
        action = Update("http://n.example/d", "delete", q("missing"),
                        require_effect=True)
        with pytest.raises(ActionError):
            engine.execute(action, Bindings())

    def test_update_without_effect_is_noop(self):
        sim, node, engine = one_node()
        node.put("http://n.example/d", parse_data("d{}"))
        engine.execute(Update("http://n.example/d", "delete", q("missing")),
                       Bindings())
        assert engine.stats.updates_applied == 0

    def test_update_validation(self):
        with pytest.raises(RuleError):
            Update("http://n.example/d", "upsert", q("x"))
        with pytest.raises(RuleError):
            Update("http://n.example/d", "insert", q("x"))  # payload missing

    def test_persist_with_var_uri(self):
        sim, node, engine = one_node()
        engine.execute(
            Persist(Var("U"), parse_construct("entry[1]")),
            Bindings.of(U="http://n.example/log"),
        )
        assert "http://n.example/log" in node.resources

    def test_uninstall_rule_via_variable(self):
        sim, node, engine = one_node()
        engine.install(eca("victim", EAtom(q("a")), PyAction(lambda n, b: None)))
        engine.execute(UninstallRule(Var("R")), Bindings.of(R="victim"))
        assert "victim" not in engine.rules()

    def test_raise_to_unbound_var(self):
        sim, node, engine = one_node()
        with pytest.raises(ActionError):
            engine.execute(Raise(Var("C"), parse_construct("x{}")), Bindings())

    def test_pyaction_exception_wrapped(self):
        sim, node, engine = one_node()
        action = PyAction(lambda n, b: 1 / 0, "crash")
        with pytest.raises(ActionError) as info:
            engine.execute(action, Bindings())
        assert "crash" in str(info.value)

    def test_unknown_action_rejected(self):
        sim, node, engine = one_node()
        with pytest.raises(ActionError):
            engine.execute(42, Bindings())


class TestNodeEdges:
    def test_raise_local_no_network_traffic(self):
        sim, node, engine = one_node()
        node.raise_local(parse_data("internal{}"))
        assert sim.stats.messages == 0
        assert node.events_received == 1

    def test_self_send_goes_over_network(self):
        sim, node, engine = one_node()
        node.raise_event(node.uri, parse_data("loop{}"))
        sim.run()
        assert sim.stats.messages == 1

    def test_non_event_message_rejected(self):
        from repro.web.network import Message

        sim, node, engine = one_node()
        with pytest.raises(WebError):
            node.receive(Message("x", "y", parse_data("z"), "request", 1))

    def test_event_occurrence_from_envelope(self):
        sim = Simulation(latency=0.5)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        seen = []
        b.on_event(lambda e: seen.append((e.occurrence, e.reception)))
        sim.scheduler.at(1.0, lambda: a.raise_event(b.uri, parse_data("ping{}")))
        sim.run()
        assert seen == [(1.0, 1.5)]  # sent at 1.0, received one latency later

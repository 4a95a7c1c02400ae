"""Unit tests for the reactive engine: rules, conditions, actions, firing."""

import pytest

from repro.core import (
    Alternative,
    AndCond,
    CallProcedure,
    CompareCond,
    Conditional,
    ECARule,
    EngineConfig,
    InstallRule,
    NotCond,
    Persist,
    PutResource,
    PyAction,
    QueryCond,
    Raise,
    ReactiveEngine,
    RuleSet,
    Sequence,
    TrueCond,
    Update,
    eca,
    ecaa,
    ecna,
)
from repro.core.meta import rule_to_term
from repro.deductive import DeductiveRule, Match, Program
from repro.errors import ActionError, RecursionRejected, RuleError
from repro.events.queries import EAtom
from repro.terms import Var, c, d, parse_construct, parse_data, parse_query, q
from repro.web import Simulation


def setup_pair(latency=0.01, **engine_kwargs):
    sim = Simulation(latency=latency)
    a = sim.node("http://a.example")
    b = sim.node("http://b.example")
    engine_a = ReactiveEngine(a, **engine_kwargs)
    engine_b = ReactiveEngine(b)
    return sim, a, b, engine_a, engine_b


class TestRuleForms:
    def test_rule_needs_name_and_action(self):
        with pytest.raises(RuleError):
            ECARule("", EAtom(q("a")), ((None, Raise("http://x", c("y"))),))
        with pytest.raises(RuleError):
            ECARule("r", EAtom(q("a")), ())

    def test_bad_firing_mode(self):
        with pytest.raises(RuleError):
            eca("r", EAtom(q("a")), Raise("http://x", c("y")), firing="sometimes")

    def test_ecaa_accessor(self):
        rule = ecaa("r", EAtom(q("a")), TrueCond(), Raise("http://x", c("y")),
                    Raise("http://x", c("z")))
        assert rule.is_ecaa

    def test_event_query_validated(self):
        from repro.errors import EventQueryError
        from repro.events.queries import ENot, ESeq

        with pytest.raises(EventQueryError):
            eca("r", ESeq(ENot(q("n")), EAtom(q("a"))), Raise("http://x", c("y")))


class TestBasicFiring:
    def test_event_triggers_action(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        hits = []
        engine_a.install(eca("t", EAtom(parse_query("ping{{ n[var N] }}")),
                             PyAction(lambda node, b_: hits.append(b_["N"]))))
        a.raise_event(a.uri, parse_data("ping{ n[7] }"))
        sim.run()
        assert hits == [7]

    def test_condition_gates_action(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/flags", parse_data("flags{ enabled }"))
        hits = []
        engine_a.install(eca(
            "gated", EAtom(parse_query("go")),
            PyAction(lambda node, b_: hits.append(1)),
            if_=QueryCond("http://a.example/flags", parse_query("flags{{ enabled }}")),
        ))
        a.raise_event(a.uri, parse_data("go"))
        sim.run()
        assert hits == [1]
        a.put("http://a.example/flags", parse_data("flags{}"))
        a.raise_event(a.uri, parse_data("go"))
        sim.run()
        assert hits == [1]  # condition now fails

    def test_ecaa_else_branch(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/flags", parse_data("flags{}"))
        hits = []
        engine_a.install(ecaa(
            "branching", EAtom(parse_query("go")),
            QueryCond("http://a.example/flags", parse_query("flags{{ enabled }}")),
            PyAction(lambda n, b_: hits.append("then")),
            PyAction(lambda n, b_: hits.append("else")),
        ))
        a.raise_event(a.uri, parse_data("go"))
        sim.run()
        assert hits == ["else"]

    def test_ecna_first_matching_branch(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        hits = []
        engine_a.install(ecna(
            "tiers", EAtom(parse_query("order{{ total[var T] }}")),
            [
                (CompareCond(Var("T"), ">", 100), PyAction(lambda n, b_: hits.append("big"))),
                (CompareCond(Var("T"), ">", 10), PyAction(lambda n, b_: hits.append("mid"))),
            ],
            else_do=PyAction(lambda n, b_: hits.append("small")),
        ))
        for total in (500, 50, 5):
            a.raise_event(a.uri, parse_data(f"order{{ total[{total}] }}"))
        sim.run()
        assert hits == ["big", "mid", "small"]

    def test_firing_all_vs_first(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        all_hits, first_hits = [], []
        engine_a.install(eca("every", EAtom(parse_query("batch{{ item[var I] }}")),
                             PyAction(lambda n, b_: all_hits.append(b_["I"]))))
        engine_a.install(eca("once", EAtom(parse_query("batch{{ item[var I] }}")),
                             PyAction(lambda n, b_: first_hits.append(b_["I"])),
                             firing="first"))
        a.raise_event(a.uri, parse_data("batch{ item[1], item[2], item[3] }"))
        sim.run()
        assert sorted(all_hits) == [1, 2, 3]
        assert len(first_hits) == 1

    def test_event_bindings_parameterise_condition(self):
        # Thesis 7: the event's variable joins against the resource.
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/stock",
              parse_data('stock{ item{ id["x"], qty[5] } }'))
        seen = []
        engine_a.install(eca(
            "join", EAtom(parse_query("order{{ id[var I] }}")),
            PyAction(lambda n, b_: seen.append((b_["I"], b_["Q"]))),
            if_=QueryCond("http://a.example/stock",
                          parse_query("stock{{ item{{ id[var I], qty[var Q] }} }}")),
        ))
        a.raise_event(a.uri, parse_data('order{ id["x"] }'))
        a.raise_event(a.uri, parse_data('order{ id["y"] }'))
        sim.run()
        assert seen == [("x", 5)]


class TestConditions:
    def test_and_or_not(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/d", parse_data("d{ x[1], y[2] }"))
        from repro.core import conditions as cond_mod

        node = a
        has_x = QueryCond("http://a.example/d", parse_query("d{{ x[var X] }}"))
        has_z = QueryCond("http://a.example/d", parse_query("d{{ z[var Z] }}"))
        from repro.terms import Bindings

        assert cond_mod.evaluate(AndCond(has_x, NotCond(has_z)), node, Bindings())
        assert not cond_mod.evaluate(AndCond(has_x, has_z), node, Bindings())
        assert cond_mod.evaluate(NotCond(has_z), node, Bindings())
        both = cond_mod.evaluate(AndCond(has_x,
                                         QueryCond("http://a.example/d",
                                                   parse_query("d{{ y[var Y] }}"))),
                                 node, Bindings())
        assert both[0].as_dict() == {"X": 1, "Y": 2}

    def test_remote_condition_accounted(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        b.put("http://b.example/doc", parse_data("doc{ ok }"))
        hits = []
        engine_a.install(eca(
            "remote", EAtom(parse_query("check")),
            PyAction(lambda n, b_: hits.append(1)),
            if_=QueryCond("http://b.example/doc", parse_query("doc{{ ok }}")),
        ))
        a.raise_event(a.uri, parse_data("check"))
        sim.run()
        assert hits == [1]
        # 1 event message + request + response
        assert sim.stats.messages == 3

    def test_uri_from_event_binding(self):
        # The event names the resource the condition must consult.
        sim, a, b, engine_a, engine_b = setup_pair()
        b.put("http://b.example/doc", parse_data("doc{ ok }"))
        hits = []
        engine_a.install(eca(
            "dynamic-uri", EAtom(parse_query("check{{ at[var U] }}")),
            PyAction(lambda n, b_: hits.append(b_["U"])),
            if_=QueryCond(Var("U"), parse_query("doc{{ ok }}")),
        ))
        a.raise_event(a.uri, parse_data('check{ at["http://b.example/doc"] }'))
        sim.run()
        assert hits == ["http://b.example/doc"]


class TestActions:
    def test_update_insert_delete_replace(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/doc", parse_data("doc{ n[1] }"))
        engine_a.execute(
            Update("http://a.example/doc", "replace", parse_query("n[var X]"),
                   parse_construct("n[add(var X, 1)]")),
            parse_bindings(),
        )
        assert a.get("http://a.example/doc").first("n").value == 2
        engine_a.execute(
            Update("http://a.example/doc", "insert", parse_query("doc"),
                   parse_construct("tag")),
            parse_bindings(),
        )
        assert a.get("http://a.example/doc").first("tag") is not None
        engine_a.execute(
            Update("http://a.example/doc", "delete", parse_query("tag")),
            parse_bindings(),
        )
        assert a.get("http://a.example/doc").first("tag") is None

    def test_remote_update_rejected(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        b.put("http://b.example/doc", parse_data("doc{}"))
        with pytest.raises(ActionError):
            engine_a.execute(
                Update("http://b.example/doc", "insert", parse_query("doc"),
                       parse_construct("x")),
                parse_bindings(),
            )

    def test_sequence_atomic_rollback(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/doc", parse_data("doc{ n[1] }"))
        action = Sequence(
            Update("http://a.example/doc", "replace", parse_query("n[var X]"),
                   parse_construct("n[9]")),
            PyAction(lambda n, b_: (_ for _ in ()).throw(ActionError("fail")), "boom"),
        )
        with pytest.raises(ActionError):
            engine_a.execute(action, parse_bindings())
        assert a.get("http://a.example/doc").first("n").value == 1  # rolled back
        assert engine_a.stats.rollbacks == 1

    def test_nonatomic_sequence_keeps_partial(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/doc", parse_data("doc{ n[1] }"))
        action = Sequence(
            Update("http://a.example/doc", "replace", parse_query("n[var X]"),
                   parse_construct("n[9]")),
            PyAction(lambda n, b_: (_ for _ in ()).throw(ActionError("fail")), "boom"),
            atomic=False,
        )
        with pytest.raises(ActionError):
            engine_a.execute(action, parse_bindings())
        assert a.get("http://a.example/doc").first("n").value == 9

    def test_alternative_falls_through(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        hits = []
        action = Alternative(
            PyAction(lambda n, b_: (_ for _ in ()).throw(ActionError("no")), "first"),
            PyAction(lambda n, b_: hits.append("second")),
        )
        engine_a.execute(action, parse_bindings())
        assert hits == ["second"]

    def test_alternative_all_fail(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        action = Alternative(
            PyAction(lambda n, b_: (_ for _ in ()).throw(ActionError("x")), "a"),
            PyAction(lambda n, b_: (_ for _ in ()).throw(ActionError("y")), "b"),
        )
        with pytest.raises(ActionError):
            engine_a.execute(action, parse_bindings())

    def test_conditional_action(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        a.put("http://a.example/d", parse_data("d{ on }"))
        hits = []
        engine_a.execute(
            Conditional(
                QueryCond("http://a.example/d", parse_query("d{{ on }}")),
                PyAction(lambda n, b_: hits.append("then")),
                PyAction(lambda n, b_: hits.append("else")),
            ),
            parse_bindings(),
        )
        assert hits == ["then"]

    def test_persist_creates_and_appends(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        engine_a.execute(Persist("http://a.example/log", parse_construct("entry[1]")),
                         parse_bindings())
        engine_a.execute(Persist("http://a.example/log", parse_construct("entry[2]")),
                         parse_bindings())
        log = a.get("http://a.example/log")
        assert len(log.all("entry")) == 2

    def test_procedure_call_scoping(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        seen = []
        engine_a.define_procedure(
            "notify", ("WHO",),
            PyAction(lambda n, b_: seen.append(sorted(b_.as_dict().items()))),
        )
        engine_a.execute(
            CallProcedure("notify", (("WHO", parse_construct('"franz"')),)),
            parse_bindings(X=1),
        )
        # Procedure body sees only its parameters, not the caller's X.
        assert seen == [[("WHO", "franz")]]

    def test_procedure_missing_arg(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        engine_a.define_procedure("p", ("A",), PyAction(lambda n, b_: None))
        with pytest.raises(ActionError):
            engine_a.execute(CallProcedure("p", ()), parse_bindings())

    def test_install_rule_action(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        hits = []
        engine_a.define_procedure("hit", (), PyAction(lambda n, b_: hits.append(1)))
        new_rule = eca("dynamic", EAtom(parse_query("go")), CallProcedure("hit", ()))
        term = rule_to_term(new_rule)
        engine_a.execute(InstallRule(term), parse_bindings())
        assert "dynamic" in engine_a.rules()
        a.raise_event(a.uri, parse_data("go"))
        sim.run()
        assert hits == [1]


class TestRuleSets:
    def test_scoped_names(self):
        rules = RuleSet("app")
        payments = rules.subset("payments")
        payments.add(eca("card", EAtom(q("pay")), PyAction(lambda n, b_: None)))
        shipping = rules.subset("shipping")
        shipping.add(eca("card", EAtom(q("ship")), PyAction(lambda n, b_: None)))
        names = [name for name, _, _ in rules.qualified()]
        assert names == ["app/payments/card", "app/shipping/card"]

    def test_disable_subtree(self):
        sim, a, b, engine_a, engine_b = setup_pair()
        hits = []
        rules = RuleSet("app")
        sub = rules.subset("extras")
        sub.add(eca("r", EAtom(parse_query("go")), PyAction(lambda n, b_: hits.append(1))))
        engine_a.install(rules)
        a.raise_event(a.uri, parse_data("go"))
        sim.run()
        assert hits == [1]
        sub.enabled = False
        engine_a.refresh()
        a.raise_event(a.uri, parse_data("go"))
        sim.run()
        assert hits == [1]

    def test_duplicate_names_rejected(self):
        rules = RuleSet("app")
        rules.add(eca("r", EAtom(q("a")), PyAction(lambda n, b_: None)))
        with pytest.raises(RuleError):
            rules.add(eca("r", EAtom(q("b")), PyAction(lambda n, b_: None)))

    def test_find_and_remove(self):
        rules = RuleSet("app")
        sub = rules.subset("s")
        rule = eca("r", EAtom(q("a")), PyAction(lambda n, b_: None))
        sub.add(rule)
        assert rules.find("s/r") is rule
        rules.remove("s/r")
        assert "s/r" not in rules


class TestDeductiveEventViews:
    def test_derived_events_trigger_rules(self):
        views = Program(
            [DeductiveRule(
                c("high-value-order", Var("I")),
                (Match(parse_query("order{{ id[var I], total[var T -> > 100] }}")),),
            )],
            allow_recursion=False,
        )
        sim = Simulation(latency=0.01)
        a = sim.node("http://a.example")
        engine = ReactiveEngine(a, config=EngineConfig(event_views=views))
        hits = []
        engine.install(eca("vip", EAtom(parse_query("high-value-order[[ var I ]]")),
                           PyAction(lambda n, b_: hits.append(b_["I"]))))
        a.raise_event(a.uri, parse_data('order{ id["big"], total[500] }'))
        a.raise_event(a.uri, parse_data('order{ id["small"], total[5] }'))
        sim.run()
        assert hits == ["big"]
        assert engine.stats.derived_events == 1

    def test_recursive_views_rejected(self):
        looping = [
            DeductiveRule(c("a", Var("X")), (Match(q("b", Var("X"))),)),
            DeductiveRule(c("b", Var("X")), (Match(q("a", Var("X"))),)),
        ]
        sim = Simulation()
        node = sim.node("http://a.example")
        with pytest.raises(RecursionRejected):
            ReactiveEngine(node,
                           config=EngineConfig(event_views=Program(looping)))


class TestAbsenceScheduling:
    def test_deadline_fires_via_scheduler(self):
        from repro.events.queries import ENot, ESeq, EWithin

        sim, a, b, engine_a, engine_b = setup_pair(latency=0.0)
        hits = []
        engine_a.install(eca(
            "escalate",
            EWithin(ESeq(EAtom(parse_query("ticket{{ id[var T] }}")),
                         ENot(parse_query("reply{{ id[var T] }}"))), 5.0),
            PyAction(lambda n, b_: hits.append((b_["T"], n.now))),
        ))
        a.raise_event(a.uri, parse_data("ticket{ id[1] }"))
        sim.scheduler.at(2.0, lambda: a.raise_event(a.uri, parse_data("reply{ id[1] }")))
        a.raise_event(a.uri, parse_data("ticket{ id[2] }"))
        sim.run()
        # ticket 1 was answered; ticket 2 escalates at its deadline (t=5).
        assert hits == [(2, 5.0)]


def parse_bindings(**values):
    from repro.terms import Bindings

    return Bindings.of(**values)

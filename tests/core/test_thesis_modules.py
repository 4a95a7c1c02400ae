"""Tests for the thesis-specific modules: production baseline (T1),
identity monitoring (T10), meta-programming (T11), and AAA (T12)."""

import pytest

from repro.core import (
    ProductionEngine,
    ProductionRule,
    PyAction,
    QueryCond,
    Raise,
    ReactiveEngine,
    Sequence,
    Update,
    derive_eca,
    eca,
    ecaa,
    ecna,
)
from repro.core.aaa import Accountant, Authenticator, Authorizer, Certificate
from repro.core.identity import ChangeMonitor
from repro.core.meta import rule_to_term, term_to_rule
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    MetaError,
    ParseError,
)
from repro.events.queries import EAtom, ECount, ENot, ESeq, EWithin, EAggregate
from repro.core.conditions import AndCond, CompareCond, NotCond, OrCond, TrueCond
from repro.core.actions import (
    Alternative,
    CallProcedure,
    Conditional,
    DeleteResource,
    InstallRule,
    Persist,
    PutResource,
    UninstallRule,
)
from repro.terms import Var, c, d, parse_construct, parse_data, parse_query, q
from repro.terms.ast import Data
from repro.web import Simulation


def one_node():
    sim = Simulation(latency=0.0)
    node = sim.node("http://n.example")
    return sim, node, ReactiveEngine(node)


class TestProductionBaseline:
    """Thesis 1 / footnote 4: CA rules vs ECA rules."""

    def _engine(self, refractory):
        sim, node, engine = one_node()
        node.put("http://n.example/basket",
                 parse_data('basket{ total[200] }'))
        fired = []
        production = ProductionEngine(node, engine.execute, refractory=refractory)
        production.install(ProductionRule(
            "discount",
            QueryCond("http://n.example/basket",
                      parse_query("basket{{ total[var T -> > 100] }}")),
            PyAction(lambda n, b_: fired.append(b_["T"])),
        ))
        return sim, node, production, fired

    def test_naive_refires_while_condition_holds(self):
        sim, node, production, fired = self._engine(refractory=False)
        for _ in range(5):
            production.run_cycle()
        assert len(fired) == 5  # fires on every cycle: the duplicate problem

    def test_refractory_fires_once_per_becoming_true(self):
        sim, node, production, fired = self._engine(refractory=True)
        for _ in range(5):
            production.run_cycle()
        assert len(fired) == 1
        # Condition goes false, then true again: fires anew.
        node.put("http://n.example/basket", parse_data("basket{ total[50] }"))
        production.run_cycle()
        node.put("http://n.example/basket", parse_data("basket{ total[300] }"))
        production.run_cycle()
        assert len(fired) == 2

    def test_production_misses_transient_condition(self):
        # The condition becomes true and false again between cycles.
        sim, node, production, fired = self._engine(refractory=True)
        node.put("http://n.example/basket", parse_data("basket{ total[50] }"))
        production.run_cycle()
        node.put("http://n.example/basket", parse_data("basket{ total[500] }"))
        node.put("http://n.example/basket", parse_data("basket{ total[50] }"))
        production.run_cycle()
        assert fired == []  # missed entirely: ECA would have seen the event

    def test_condition_evaluations_counted(self):
        sim, node, production, fired = self._engine(refractory=True)
        for _ in range(10):
            production.run_cycle()
        assert production.condition_evaluations == 10

    def test_derive_eca_fires_on_change_events(self):
        sim, node, engine = one_node()
        node.put("http://n.example/basket", parse_data("basket{ total[200] }"))
        fired = []
        rule = ProductionRule(
            "discount",
            QueryCond("http://n.example/basket",
                      parse_query("basket{{ total[var T -> > 100] }}")),
            PyAction(lambda n, b_: fired.append(b_["T"])),
        )
        engine.install(derive_eca(rule, ["resource-changed"]))
        node.raise_local(d("resource-changed", d("uri", "http://n.example/basket")))
        sim.run()
        assert fired == [200]


class TestIdentity:
    """Thesis 10: surrogate identity survives value changes."""

    def _monitored(self, mode):
        sim, node, engine = one_node()
        uri = "http://n.example/articles"
        node.put(uri, parse_data(
            'articles{ article{ id["a1"], text["old"] }, article{ id["a2"], text["x"] } }'
        ))
        events = []
        node.on_event(lambda e: events.append(e.term))
        monitor = ChangeMonitor(node, uri, parse_query("article"), mode=mode)
        return sim, node, uri, monitor, events

    def test_surrogate_reports_change(self):
        sim, node, uri, monitor, events = self._monitored("surrogate")
        node.put(uri, parse_data(
            'articles{ article{ id["a1"], text["NEW"] }, article{ id["a2"], text["x"] } }'
        ))
        sim.run()  # change events drain through the node's inbox
        labels = [t.label for t in events]
        assert labels == ["item-changed"]
        assert monitor.stats.identities_preserved == 1

    def test_extensional_loses_identity(self):
        sim, node, uri, monitor, events = self._monitored("extensional")
        node.put(uri, parse_data(
            'articles{ article{ id["a1"], text["NEW"] }, article{ id["a2"], text["x"] } }'
        ))
        sim.run()  # change events drain through the node's inbox
        labels = sorted(t.label for t in events)
        assert labels == ["item-deleted", "item-inserted"]
        assert monitor.stats.identities_lost == 1

    def test_surrogate_oid_stable_across_changes(self):
        sim, node, uri, monitor, events = self._monitored("surrogate")
        node.put(uri, parse_data(
            'articles{ article{ id["a1"], text["v2"] }, article{ id["a2"], text["x"] } }'
        ))
        node.put(uri, parse_data(
            'articles{ article{ id["a1"], text["v3"] }, article{ id["a2"], text["x"] } }'
        ))
        sim.run()  # change events drain through the node's inbox
        oids = [t.first("oid").value for t in events if t.label == "item-changed"]
        assert len(oids) == 2 and oids[0] == oids[1]

    def test_insert_and_delete_reported(self):
        sim, node, uri, monitor, events = self._monitored("surrogate")
        node.put(uri, parse_data('articles{ article{ id["a1"], text["old"] } }'))
        sim.run()  # change events drain through the node's inbox
        assert [t.label for t in events] == ["item-deleted"]
        events.clear()
        node.put(uri, parse_data(
            'articles{ article{ id["a1"], text["old"] }, article{ id["a9"], text["new"] } }'
        ))
        sim.run()
        assert [t.label for t in events] == ["item-inserted"]

    def test_positional_fallback_without_keys(self):
        sim, node, engine = one_node()
        uri = "http://n.example/list"
        node.put(uri, parse_data("list{ entry{ 1 } }"))
        events = []
        node.on_event(lambda e: events.append(e.term.label))
        ChangeMonitor(node, uri, parse_query("entry"), mode="surrogate", key_label=None)
        node.put(uri, parse_data("list{ entry{ 2 } }"))
        sim.run()  # change events drain through the node's inbox
        assert events == ["item-changed"]


class TestMetaEncoding:
    """Thesis 11: every serialisable rule round-trips through terms."""

    RULES = [
        eca("simple", EAtom(parse_query("a{{ var X }}"), alias="E"),
            Raise("http://x.example", parse_construct("out{ var X }"))),
        ecaa("branchy", EAtom(parse_query("b")),
             QueryCond("http://n.example/d", parse_query("d{{ ok }}")),
             PutResource("http://n.example/r", parse_construct("r{ 1 }")),
             DeleteResource("http://n.example/r")),
        ecna("tiers",
             EWithin(ESeq(EAtom(parse_query("a")), ENot(parse_query("n")),
                          EAtom(parse_query("b"))), 5.0),
             [
                 (CompareCond(Var("T"), ">", 10),
                  Sequence(Persist("http://n.example/log", parse_construct("e[var T]")),
                           CallProcedure("p", (("A", parse_construct("var T")),)))),
                 (NotCond(TrueCond()),
                  Alternative(Raise("http://x.example", parse_construct("q{}")),
                              UninstallRule("tiers"))),
             ],
             else_do=Conditional(
                 OrCond(TrueCond(), AndCond(TrueCond())),
                 Update(Var("U"), "replace", parse_query("n[var Q]"),
                        parse_construct("n[add(var Q, 1)]")),
                 InstallRule(Var("R")),
             ),
             firing="first"),
        eca("counted", ECount(parse_query("outage{{ s[var S] }}"), 3, 60.0, ("S",)),
            Raise(Var("S"), parse_construct("alarm{ var S }"))),
        eca("agg", EAggregate(parse_query("p{{ v[var P] }}"), "P", "avg", "A",
                              size=5, predicate=("rise%", 5.0)),
            Raise("http://x.example", parse_construct("avg-alert{ var A }"))),
    ]

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    def test_round_trip(self, rule):
        assert term_to_rule(rule_to_term(rule)) == rule

    def test_pyaction_refused(self):
        rule = eca("local", EAtom(q("a")), PyAction(lambda n, b: None))
        with pytest.raises(MetaError):
            rule_to_term(rule)

    def test_malformed_term_refused(self):
        with pytest.raises(MetaError):
            term_to_rule(d("not-a-rule"))
        with pytest.raises(MetaError):
            term_to_rule(d("eca-rule"))  # no name, no parts
        term = rule_to_term(self.RULES[0])
        on, branches = term.children
        # Refused since the decoder reads children by position: an extra
        # child, a duplicated `on`, keyed children out of order.
        for children in ((on, branches, branches.children[0]),
                         (on, on, branches), (branches, on)):
            with pytest.raises(MetaError):
                term_to_rule(Data(term.label, children, True, term.attrs))
        # A fault deep inside names its path and keeps its cause.
        broken = Data(term.label, (d("on", Data("e-atom", ("a{{ var",))),
                                   branches), True, term.attrs)
        with pytest.raises(MetaError, match="^eca-rule/on/e-atom: ") as info:
            term_to_rule(broken)
        assert isinstance(info.value.__cause__, ParseError)
        # Nesting the term parser accepts but the decoder's stack does not.
        deep = parse_data('eca-rule @{name="r"}[on[' + "e-and[" * 400
                          + 'e-atom["a"]' + "]" * 400 + "], branches[]]")
        with pytest.raises(MetaError, match="too deeply"):
            term_to_rule(deep)


class TestAAA:
    """Thesis 12: authentication, authorization, accounting."""

    def test_token_authentication(self):
        auth = Authenticator()
        auth.register("franz", "s3cret")
        assert auth.authenticate_token("franz", "s3cret") == "franz"
        with pytest.raises(AuthenticationError):
            auth.authenticate_token("franz", "wrong")
        with pytest.raises(AuthenticationError):
            auth.authenticate_token("unknown", "s3cret")

    def test_certificate_authentication(self):
        auth = Authenticator()
        auth.trust_authority("http://bbb.example")
        certificate = Certificate("fussbaelle.biz", "http://bbb.example", "member")
        assert auth.authenticate_certificate(certificate) == "fussbaelle.biz"
        rogue = Certificate("evil.biz", "http://unknown.example")
        with pytest.raises(AuthenticationError):
            auth.authenticate_certificate(rogue)

    def test_credential_terms(self):
        auth = Authenticator()
        auth.register("franz", "s3cret")
        token = d("token", d("principal", "franz"), d("secret", "s3cret"))
        assert auth.authenticate_term(token) == "franz"
        auth.trust_authority("http://bbb.example")
        certificate = Certificate("shop", "http://bbb.example").to_term()
        assert auth.authenticate_term(certificate) == "shop"
        with pytest.raises(AuthenticationError):
            auth.authenticate_term(d("password", "x"))

    def test_authorization_grant_deny(self):
        authz = Authorizer()
        authz.grant("franz", "read", "http://n.example/doc")
        assert authz.allowed("franz", "read", "http://n.example/doc")
        assert not authz.allowed("franz", "write", "http://n.example/doc")
        assert not authz.allowed("anon", "read", "http://n.example/doc")
        authz.deny("franz", "read", "http://n.example/doc")
        assert not authz.allowed("franz", "read", "http://n.example/doc")

    def test_wildcard_grants(self):
        authz = Authorizer()
        authz.grant("*", "read", "http://n.example/public")
        assert authz.allowed("anyone", "read", "http://n.example/public")
        authz.grant("admin", "*", "*")
        assert authz.allowed("admin", "write", "http://n.example/anything")

    def test_node_get_guard(self):
        sim = Simulation()
        server = sim.node("http://server.example")
        client = sim.node("http://client.example")
        server.put("http://server.example/private", d("secret"))
        authz = Authorizer()
        authz.guard_node_gets(server)
        with pytest.raises(AuthorizationError):
            client.get("http://server.example/private")
        authz.grant("http://client.example", "read", "http://server.example/private")
        assert client.get("http://server.example/private") == d("secret")

    def test_accounting_double_reactivity(self):
        sim, node, engine = one_node()
        accountant = Accountant(engine)
        accountant.attach()
        # The service rule reacts to orders; metering raises service-request
        # events that the accounting rule (a second, orthogonal layer of
        # reactivity) turns into a persistent log.
        engine.install(eca(
            "serve", EAtom(parse_query("order{{ by[var P] }}")),
            PyAction(lambda n, b_: accountant.meter(b_["P"], "order", 2.0)),
        ))
        node.raise_event(node.uri, parse_data('order{ by["franz"] }'))
        node.raise_event(node.uri, parse_data('order{ by["franz"] }'))
        node.raise_event(node.uri, parse_data('order{ by["ida"] }'))
        sim.run()
        assert accountant.entries() == 3
        assert accountant.bill() == {"franz": 4.0, "ida": 2.0}

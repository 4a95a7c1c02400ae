"""Discriminating event dispatch: interest computation and engine routing."""

import pytest

from repro.core import EngineConfig, ReactiveEngine, eca
from repro.core.actions import PyAction
from repro.errors import RuleError
from repro.events.queries import (
    Discriminator,
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EWithin,
    pattern_discriminators,
    query_interest,
)
from repro.terms import Var, d, parse_data, parse_query, q
from repro.terms.ast import Data, Desc, LabelVar, Optional_, Without
from repro.web import Simulation


def one_node(**kwargs):
    sim = Simulation(latency=0.0)
    node = sim.node("http://n.example")
    return sim, node, ReactiveEngine(node, **kwargs)


class TestQueryInterest:
    def test_atom_has_its_label(self):
        assert query_interest(EAtom(q("a", Var("X")))).labels == frozenset({"a"})

    def test_composites_union_member_labels(self):
        query = EWithin(EOr(EAtom(q("a")), EAnd(EAtom(q("b")), EAtom(q("c")))), 5.0)
        assert query_interest(query).labels == frozenset({"a", "b", "c"})

    def test_seq_includes_negation_blocker_labels(self):
        query = EWithin(ESeq(EAtom(q("a")), ENot(q("blocker")), EAtom(q("b"))), 5.0)
        assert query_interest(query).labels == frozenset({"a", "blocker", "b"})

    def test_accumulation_uses_pattern_label(self):
        assert query_interest(ECount(q("halt"), 3, 60.0)).labels == frozenset({"halt"})
        agg = EAggregate(q("tick", Var("P")), "P", "avg", "A", size=5)
        assert query_interest(agg).labels == frozenset({"tick"})

    def test_wildcard_forms_have_no_static_interest(self):
        assert query_interest(EAtom(q(LabelVar("L")))).labels is None
        assert query_interest(EAtom(parse_query("*"))).labels is None
        assert query_interest(EAtom(Var("X"))).labels is None
        assert query_interest(EAtom(Desc(q("a")))).labels is None

    def test_one_wildcard_member_widens_the_composite(self):
        assert query_interest(EAnd(EAtom(q("a")), EAtom(Var("X")))).labels is None


class TestDiscriminators:
    def test_constant_attr_discriminates(self):
        assert pattern_discriminators(q("stock", sym="ACME")) == frozenset(
            {Discriminator("attr", "sym", "ACME")}
        )

    def test_variable_attr_does_not(self):
        assert pattern_discriminators(q("stock", sym=Var("S"))) == frozenset()

    def test_constant_scalar_child_discriminates(self):
        assert pattern_discriminators(
            q("stock", q("sym", "ACME"), q("price", Var("P")))
        ) == frozenset({Discriminator("child", "sym", "ACME")})

    def test_ground_data_child_discriminates(self):
        pattern = q("stock", d("sym", "ACME"))
        assert pattern_discriminators(pattern) == frozenset(
            {Discriminator("child", "sym", "ACME")}
        )

    def test_optional_and_without_children_do_not(self):
        pattern = q(
            "stock",
            Optional_(q("sym", "ACME")),
            Without(q("halted", True)),
        )
        assert pattern_discriminators(pattern) == frozenset()

    def test_union_intersects_shared_labels(self):
        # Both leaves constrain 'stock', but on different constants: no
        # discriminator survives (an event matching either must arrive).
        interest = query_interest(EOr(
            EAtom(q("stock", sym="ACME")), EAtom(q("stock", sym="IBM"))
        ))
        assert interest.labels == frozenset({"stock"})
        assert interest.discriminators("stock") == frozenset()

    def test_union_keeps_disjoint_labels_intact(self):
        interest = query_interest(EWithin(ESeq(
            EAtom(q("order", sym="ACME")), EAtom(q("fill", sym="ACME"))
        ), 5.0))
        assert interest.discriminators("order") == frozenset(
            {Discriminator("attr", "sym", "ACME")}
        )
        assert interest.discriminators("fill") == frozenset(
            {Discriminator("attr", "sym", "ACME")}
        )

    def test_blocker_patterns_contribute_discriminators(self):
        interest = query_interest(EWithin(ESeq(
            EAtom(q("start")), ENot(q("stop", q("sym", "ACME")))
        ), 5.0))
        assert interest.discriminators("stop") == frozenset(
            {Discriminator("child", "sym", "ACME")}
        )


class TestDiscriminatingRouting:
    def _engine_with_symbol_rules(self, **config_kwargs):
        sim, node, engine = one_node(config=EngineConfig(**config_kwargs))
        seen = []
        for sym in ("ACME", "IBM"):
            engine.install(eca(
                f"r-{sym}",
                EAtom(q("stock", q("sym", sym), q("price", Var("P")))),
                PyAction(lambda n, b, s=sym: seen.append(s)),
            ))
        return sim, node, engine, seen

    def test_discriminated_rules_skip_other_values(self):
        sim, node, engine, seen = self._engine_with_symbol_rules()
        node.raise_local(parse_data('stock{ sym["ACME"], price[10] }'))
        sim.run()
        assert seen == ["ACME"]
        # Only the ACME rule was even considered a candidate.
        assert engine.stats.candidates_considered == 1
        assert engine._active["r-IBM"][1]._last_time == float("-inf")

    def test_root_label_ablation_considers_whole_bucket(self):
        sim, node, engine, seen = self._engine_with_symbol_rules(
            trie_depth=0)
        node.raise_local(parse_data('stock{ sym["ACME"], price[10] }'))
        sim.run()
        assert seen == ["ACME"]
        assert engine.stats.candidates_considered == 2
        with pytest.raises(RuleError, match="trie_depth must be >= 0"):
            EngineConfig(trie_depth=-1)

    def test_event_without_the_axis_reaches_residual_only(self):
        sim, node, engine, seen = self._engine_with_symbol_rules()
        engine.install(eca(
            "r-any",
            EAtom(q("stock", q("price", Var("P")))),
            PyAction(lambda n, b: seen.append("any")),
        ))
        node.raise_local(parse_data('stock{ price[10] }'))
        sim.run()
        assert seen == ["any"]
        assert engine.stats.candidates_considered == 1  # residual only

    def test_ambiguous_event_degrades_to_whole_bucket(self):
        sim, node, engine, seen = self._engine_with_symbol_rules()
        # Two sym children: value extraction is ambiguous, and partial
        # matching means the event satisfies *both* rules — extracting
        # just the first sym child would have lost the ACME firing.
        node.raise_local(parse_data('stock{ sym["IBM"], sym["ACME"], price[10] }'))
        sim.run()
        assert seen == ["ACME", "IBM"]
        assert engine.stats.candidates_considered == 2

    def test_residual_and_discriminated_merge_in_install_order(self):
        sim, node, engine = one_node()
        order = []
        engine.install(eca("first-acme", EAtom(q("stock", q("sym", "ACME"))),
                           PyAction(lambda n, b: order.append("first-acme"))))
        engine.install(eca("plain", EAtom(q("stock")),
                           PyAction(lambda n, b: order.append("plain"))))
        engine.install(eca("last-acme", EAtom(q("stock", q("sym", "ACME"))),
                           PyAction(lambda n, b: order.append("last-acme"))))
        node.raise_local(parse_data('stock{ sym["ACME"] }'))
        sim.run()
        assert order == ["first-acme", "plain", "last-acme"]

    def test_attribute_axis_routing(self):
        sim, node, engine = one_node()
        seen = []
        for sym in ("ACME", "IBM"):
            engine.install(eca(
                f"r-{sym}", EAtom(q("stock", Var("P"), sym=sym)),
                PyAction(lambda n, b, s=sym: seen.append(s)),
            ))
        node.raise_local(Data("stock", (Data("price", (10,)),), False,
                              (("sym", "IBM"),)))
        sim.run()
        assert seen == ["IBM"]
        assert engine.stats.candidates_considered == 1

    def test_all_three_modes_agree_on_firings(self):
        def run(**config_kwargs):
            sim, node, engine, seen = self._engine_with_symbol_rules(**config_kwargs)
            for text in ('stock{ sym["ACME"], price[1] }',
                         'stock{ sym["IBM"], price[2] }',
                         'stock{ price[3] }',
                         'noise{}'):
                node.raise_local(parse_data(text))
            sim.run()
            return seen, engine.stats.rule_firings

        discriminating = run()
        root_only = run(trie_depth=0)
        broadcast = run(indexed_dispatch=False)
        assert discriminating == root_only == broadcast


class TestIndexedRouting:
    def test_uninterested_evaluators_never_see_events(self):
        sim, node, engine = one_node()
        engine.install(eca("ra", EAtom(q("a")), PyAction(lambda n, b: None)))
        engine.install(eca("rb", EAtom(q("b")), PyAction(lambda n, b: None)))
        for _ in range(5):
            node.raise_local(parse_data("a{}"))
        sim.run()
        # The 'b' evaluator was never fed: its clock never advanced.
        assert engine._active["ra"][1]._last_time >= 0.0
        assert engine._active["rb"][1]._last_time == float("-inf")

    def test_broadcast_ablation_feeds_everyone(self):
        sim, node, engine = one_node(config=EngineConfig(indexed_dispatch=False))
        engine.install(eca("ra", EAtom(q("a")), PyAction(lambda n, b: None)))
        engine.install(eca("rb", EAtom(q("b")), PyAction(lambda n, b: None)))
        node.raise_local(parse_data("a{}"))
        sim.run()
        assert engine._active["rb"][1]._last_time >= 0.0

    def test_wildcard_rules_see_every_label(self):
        sim, node, engine = one_node()
        seen = []
        engine.install(eca(
            "inbox", EAtom(parse_query("*"), alias="E"),
            PyAction(lambda n, b: seen.append(b["E"].label)),
        ))
        for label in ("a", "b", "c"):
            node.raise_local(parse_data(f"{label}{{}}"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_label_variable_rules_see_every_label(self):
        sim, node, engine = one_node()
        seen = []
        engine.install(eca(
            "any", EAtom(q(LabelVar("L"))),
            PyAction(lambda n, b: seen.append(b["L"])),
        ))
        for label in ("x", "y"):
            node.raise_local(parse_data(f"{label}{{}}"))
        sim.run()
        assert seen == ["x", "y"]

    def test_wildcard_and_label_rules_fire_in_install_order(self):
        sim, node, engine = one_node()
        order = []
        engine.install(eca("first-a", EAtom(q("a")),
                           PyAction(lambda n, b: order.append("first-a"))))
        engine.install(eca("wild", EAtom(parse_query("*")),
                           PyAction(lambda n, b: order.append("wild"))))
        engine.install(eca("last-a", EAtom(q("a")),
                           PyAction(lambda n, b: order.append("last-a"))))
        node.raise_local(parse_data("a{}"))
        sim.run()
        assert order == ["first-a", "wild", "last-a"]

    def test_indexed_and_broadcast_agree_on_firings(self):
        def run(indexed: bool) -> tuple[int, list[str]]:
            sim, node, engine = one_node(
                config=EngineConfig(indexed_dispatch=indexed))
            fired = []
            engine.install(eca("pair", EWithin(
                EAnd(EAtom(q("a", q("x", Var("X")))), EAtom(q("b", q("x", Var("X"))))), 10.0),
                PyAction(lambda n, b: fired.append(f"pair:{b['X']}"))))
            engine.install(eca("count", ECount(q("c"), 2, 10.0),
                               PyAction(lambda n, b: fired.append("count"))))
            engine.install(eca("any", EAtom(q(LabelVar("L"))),
                               PyAction(lambda n, b: fired.append(str(b["L"])))))
            for text in ("a{x[1]}", "c{}", "b{x[1]}", "noise{}", "c{}"):
                node.raise_local(parse_data(text))
            sim.run()
            return engine.stats.rule_firings, fired

        indexed_firings, indexed_seq = run(indexed=True)
        broadcast_firings, broadcast_seq = run(indexed=False)
        assert indexed_firings == broadcast_firings > 0
        assert indexed_seq == broadcast_seq


class TestRefreshAndDeadlines:
    def test_refresh_preserves_partial_state_across_install(self):
        sim, node, engine = one_node()
        hits = []
        engine.install(eca("pair", EWithin(
            EAnd(EAtom(q("a", q("x", Var("X")))), EAtom(q("b", q("x", Var("X"))))), 10.0),
            PyAction(lambda n, b: hits.append(b["X"]))))
        node.raise_local(parse_data("a{x[7]}"))
        sim.run()  # a{x[7]} is a processed partial match before the rebuild
        # Installing (and uninstalling) other rules rebuilds the index but
        # must keep the half-completed pair match alive.
        engine.install(eca("other", EAtom(q("z")), PyAction(lambda n, b: None)))
        engine.uninstall("other")
        node.raise_local(parse_data("b{x[7]}"))
        sim.run()
        assert hits == [7]

    def test_absence_fires_via_wakeup_despite_indexing(self):
        # No further event carries the rule's labels, so only the scheduled
        # wake-up can confirm the absence — exactly the indexed-dispatch
        # risk case (the unrelated traffic never reaches the evaluator).
        sim, node, engine = one_node()
        hits = []
        engine.install(eca("quiet", EWithin(
            ESeq(EAtom(q("start", q("x", Var("X")))), ENot(q("stop"))), 2.0),
            PyAction(lambda n, b: hits.append(b["X"]))))
        node.raise_local(parse_data("start{x[1]}"))
        for at in (0.5, 1.0, 3.0):
            sim.scheduler.at(at, lambda: node.raise_local(parse_data("noise{}")))
        sim.run()
        assert hits == [1]

    def test_firing_first_truncates_deadline_batch(self):
        # Two pending absences confirm at the same wake-up; firing="first"
        # must fire the rule once, not twice (_on_time truncation).
        sim, node, engine = one_node()
        hits = []
        engine.install(eca("quiet", EWithin(
            ESeq(EAtom(q("start", q("x", Var("X")))), ENot(q("stop"))), 2.0),
            PyAction(lambda n, b: hits.append(b["X"])), firing="first"))
        node.raise_local(parse_data("start{x[1]}"))
        node.raise_local(parse_data("start{x[2]}"))
        sim.run()
        assert len(hits) == 1

    def test_firing_all_fires_whole_deadline_batch(self):
        sim, node, engine = one_node()
        hits = []
        engine.install(eca("quiet", EWithin(
            ESeq(EAtom(q("start", q("x", Var("X")))), ENot(q("stop"))), 2.0),
            PyAction(lambda n, b: hits.append(b["X"]))))
        node.raise_local(parse_data("start{x[1]}"))
        node.raise_local(parse_data("start{x[2]}"))
        sim.run()
        assert sorted(hits) == [1, 2]

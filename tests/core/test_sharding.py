"""Shard routing: placement, replication dedup, uninstall, migration."""

import pytest

from repro import EngineConfig, ReactiveNode, Simulation
from repro.core import ReactiveEngine, RuleSet, eca
from repro.core.actions import PyAction
from repro.errors import RuleError
from repro.events import EAtom, ENot, ESeq, EWithin
from repro.sharding import ShardRouter, shard_of
from repro.terms import LabelVar, Var, d, q


def sharded_node(n=4, **config_kwargs):
    sim = Simulation(latency=0.0)
    return sim, sim.reactive_node("http://s.example",
                                  config=EngineConfig(shards=n, **config_kwargs))


def recorder(fired, tag):
    return PyAction(lambda n, b, t=tag: fired.append(t), "record")


class TestConfigSurface:
    def test_shards_must_be_positive(self):
        with pytest.raises(RuleError, match="shards"):
            EngineConfig(shards=0)

    def test_bare_engine_rejects_sharded_config(self):
        sim = Simulation(latency=0.0)
        with pytest.raises(RuleError, match="facade"):
            ReactiveEngine(sim.node("http://s.example"),
                           config=EngineConfig(shards=2))

    def test_router_requires_at_least_two_shards(self):
        sim = Simulation(latency=0.0)
        with pytest.raises(RuleError, match="shards >= 2"):
            ShardRouter(sim.node("http://s.example"), EngineConfig(shards=1))

    def test_shards_one_is_the_plain_single_engine_path(self):
        sim = Simulation(latency=0.0)
        node = sim.reactive_node("http://s.example", config=EngineConfig(shards=1))
        assert node.router is None
        assert isinstance(node.engine, ReactiveEngine)
        assert node.shards == (node.engine,)
        assert len(node.stats.shards) == 1

    def test_sharded_facade_exposes_fleet(self):
        sim, node = sharded_node(3)
        assert node.engine is None
        assert len(node.shards) == 3
        assert len(node.stats.shards) == 3
        assert "shards=3" in repr(node)

    def test_shard_of_is_stable(self):
        assert shard_of("stock", 4) == shard_of("stock", 4)
        assert 0 <= shard_of("anything", 3) < 3


class TestPlacement:
    def test_disjoint_labels_spread_over_shards(self):
        sim, node = sharded_node(4)
        node.install(*(
            eca(f"r{i}", EAtom(q(f"evt-{i}", Var("X"))), recorder([], i))
            for i in range(8)
        ))
        per_shard = [len(engine.rules()) for engine in node.shards]
        assert sum(per_shard) == 8
        assert max(per_shard) == 2  # greedy balance: two labels each

    def test_hot_label_splits_on_the_attribute_axis(self):
        sim, node = sharded_node(4)
        node.install(*(
            eca(f"r{i}", EAtom(q("stock", q("p", Var("P")), sym=f"S{i}")),
                recorder([], i))
            for i in range(8)
        ))
        axis, value_shard = node.router._plan.splits["stock"]
        assert axis == ("attr", "sym")
        assert len({shard for shard in value_shard.values()}) == 4
        assert all(len(engine.rules()) == 2 for engine in node.shards)

    def test_wildcard_rules_are_replicated_everywhere(self):
        sim, node = sharded_node(4)
        node.install(eca("wild", EAtom(q(LabelVar("L"))), recorder([], "w")))
        assert all(engine.rules() == ["wild"] for engine in node.shards)
        assert node.router.placement()["wild"] == (0, 1, 2, 3)

    def test_hot_label_splits_on_a_child_axis(self):
        sim, node = sharded_node(4)
        node.install(*(
            eca(f"r{i}", EAtom(q("order", q("venue", f"V{i}"))), recorder([], i))
            for i in range(8)
        ))
        axis, value_shard = node.router._plan.splits["order"]
        assert axis == ("child", "venue")
        assert len({shard for shard in value_shard.values()}) == 4
        assert all(len(engine.rules()) == 2 for engine in node.shards)

    def test_two_hot_labels_split_independently(self):
        sim, node = sharded_node(4)
        node.install(*(
            eca(f"s{i}", EAtom(q("stock", sym=f"S{i}")), recorder([], i))
            for i in range(5)
        ), *(
            eca(f"o{i}", EAtom(q("order", q("venue", f"V{i}"))), recorder([], i))
            for i in range(5)
        ))
        splits = node.router._plan.splits
        assert splits["stock"][0] == ("attr", "sym")
        assert splits["order"][0] == ("child", "venue")


class TestAmbiguousRouting:
    def test_ambiguous_event_fires_each_rule_exactly_once(self):
        """An event with several `venue` children can match rules on any
        value shard of the split label: every shard gets a copy, each
        rule fires once, in installation order."""
        sim, node = sharded_node(4)
        fired = []
        node.install(*(
            eca(f"r{i}", EAtom(q("order", q("venue", f"V{i % 4}"), q("x", Var("X")))),
                recorder(fired, i))
            for i in range(8)
        ))
        assert node.router._plan.splits["order"][0] == ("child", "venue")
        # venue V0 and V1 live on different shards; this event shows both.
        term = d("order", d("venue", "V0"), d("venue", "V1"), d("x", 9))
        node.raise_local(term)
        sim.run()
        assert fired == [0, 1, 4, 5]  # every V0/V1 rule once, install order
        assert node.stats.rule_firings == 4
        # The copies on the other shards advanced replicas without firing.
        assert sum(s.events_processed for s in node.stats.shards) == 4

    def test_ambiguous_event_sharded_matches_single_engine(self):
        def run(shards):
            sim = Simulation(latency=0.0)
            node = sim.reactive_node(
                "http://s.example", config=EngineConfig(shards=shards))
            fired = []
            node.install(*(
                eca(f"r{i}",
                    EAtom(q("order", q("venue", f"V{i % 4}"), q("x", Var("X")))),
                    recorder(fired, i))
                for i in range(8)
            ))
            term = d("order", d("venue", "V1"), d("venue", "V3"), d("x", 1))
            sim.scheduler.at(0.0, lambda: node.raise_local(term))
            sim.scheduler.at(1.0, lambda: node.raise_local(d(
                "order", d("venue", "V2"), d("x", 2))))
            sim.run()
            return fired, node.stats.rule_firings

        assert run(4) == run(1)
        assert run(1)[0] == [1, 3, 5, 7, 2, 6]

    def test_rule_uninstalled_mid_ambiguous_event_is_skipped(self):
        """Collected answers fire like a single engine's dispatch loop: a
        rule an earlier firing uninstalled never sees the event."""
        def run(shards):
            sim = Simulation(latency=0.0)
            node = sim.reactive_node(
                "http://s.example", config=EngineConfig(shards=shards))
            fired = []

            def kill(n, b):
                fired.append(0)
                node.uninstall("r5")

            node.install(*(
                eca(f"r{i}",
                    EAtom(q("order", q("venue", f"V{i % 4}"), q("x", Var("X")))),
                    PyAction(kill) if i == 0 else recorder(fired, i))
                for i in range(8)
            ))
            node.raise_local(d("order", d("venue", "V0"), d("venue", "V1"),
                               d("x", 9)))
            sim.run()
            return fired, node.stats.rule_firings

        assert run(4) == run(1) == ([0, 1, 4], 3)


class TestExactlyOnceFiring:
    def test_wildcard_replicas_fire_exactly_once_per_event(self):
        sim, node = sharded_node(4)
        fired = []
        node.install(eca("wild", EAtom(q(LabelVar("L"))), recorder(fired, "w")))
        for i in range(6):
            node.raise_local(d(f"evt-{i}", i))
        sim.run()
        assert fired == ["w"] * 6
        stats = node.stats
        assert stats.rule_firings == 6
        # The other three replicas produced (and suppressed) the same answers.
        assert stats.firings_deduped == 18

    def test_spanning_rule_fires_once_from_either_label(self):
        sim, node = sharded_node(2)
        fired = []
        node.install(
            eca("a-only", EAtom(q("a", Var("V"))), recorder(fired, "a")),
            eca("b-only", EAtom(q("b", Var("V"))), recorder(fired, "b")),
            eca("span", EWithin(ESeq(EAtom(q("a")), EAtom(q("b"))), 10.0),
                recorder(fired, "span")),
        )
        homes = node.router._plan.home
        assert homes["a"] != homes["b"]  # the rule really spans shards
        assert node.router.placement()["span"] == (0, 1)
        sim.scheduler.at(0.0, lambda: node.raise_local(d("a", 1)))
        sim.scheduler.at(1.0, lambda: node.raise_local(d("b", 2)))
        sim.run()
        assert fired == ["a", "b", "span"]

    def test_absence_answer_fires_once_across_replicas(self):
        sim, node = sharded_node(4)
        fired = []
        node.install(
            eca("quiet",
                EWithin(ESeq(EAtom(q("start", q("x", Var("X")))), ENot(q("stop"))),
                        2.0),
                recorder(fired, "quiet")),
            # A second label forces `start`/`stop` and `other` onto
            # different shards, and the wildcard replicates everywhere.
            eca("other", EAtom(q("other", Var("V"))), recorder(fired, "other")),
            eca("wild", EAtom(q(LabelVar("L"))), recorder(fired, "wild")),
        )
        sim.scheduler.at(0.0, lambda: node.raise_local(d("start", d("x", 1))))
        sim.scheduler.at(1.0, lambda: node.raise_local(d("other", 5)))
        sim.run()
        assert fired == ["wild", "other", "wild", "quiet"]
        assert node.stats.rule_firings == 4


class TestUninstall:
    def test_uninstall_removes_rule_from_every_shard(self):
        sim, node = sharded_node(4)
        node.install(eca("wild", EAtom(q(LabelVar("L"))), recorder([], "w")),
                     eca("a", EAtom(q("a", Var("V"))), recorder([], "a")))
        assert all("wild" in engine.rules() for engine in node.shards)
        node.uninstall("wild")
        assert all("wild" not in engine.rules() for engine in node.shards)
        assert node.rules() == ["a"]
        node.uninstall("a")
        assert all(engine.rules() == [] for engine in node.shards)

    def test_uninstall_split_value_rule_leaves_the_rest(self):
        sim, node = sharded_node(4)
        rules = [eca(f"r{i}", EAtom(q("stock", q("p", Var("P")), sym=f"S{i}")),
                     recorder([], i)) for i in range(8)]
        node.install(*rules)
        node.uninstall(rules[3])
        assert node.rules() == [f"r{i}" for i in range(8) if i != 3]
        assert sum(len(engine.rules()) for engine in node.shards) == 7

    def test_uninstall_ruleset_by_name(self):
        sim, node = sharded_node(2)
        ruleset = RuleSet("pack")
        ruleset.add(eca("one", EAtom(q("a", Var("V"))), recorder([], 1)))
        ruleset.add(eca("two", EAtom(q("b", Var("V"))), recorder([], 2)))
        node.install(ruleset)
        assert node.rules() == ["pack/one", "pack/two"]
        node.uninstall("pack")
        assert node.rules() == []

    def test_uninstall_missing_is_informative(self):
        sim, node = sharded_node(2)
        node.install(eca("a", EAtom(q("a", Var("V"))), recorder([], 1)))
        with pytest.raises(RuleError, match="installed rules: a"):
            node.uninstall("nope")

    def test_duplicate_install_rolls_back_atomically(self):
        sim, node = sharded_node(2)
        node.install(eca("a", EAtom(q("a", Var("V"))), recorder([], 1)))
        with pytest.raises(RuleError, match="duplicate|already"):
            node.install(
                eca("b", EAtom(q("b", Var("V"))), recorder([], 2)),
                eca("a", EAtom(q("a", Var("V"))), recorder([], 3)),
            )
        assert node.rules() == ["a"]
        assert sum(len(engine.rules()) for engine in node.shards) == 1


class TestStateMigration:
    def test_partial_match_state_survives_repartitioning(self):
        """Installing new rules may move a half-matched rule to another
        shard; its evaluator state must move with it."""
        sim, node = sharded_node(2)
        fired = []
        node.install(eca("seq", EWithin(ESeq(EAtom(q("a")), EAtom(q("b"))), 100.0),
                         recorder(fired, "seq")))
        sim.scheduler.at(0.0, lambda: node.raise_local(d("a", 1)))
        sim.run_until(1.0)  # half-matched: waiting for b
        before = node.router.placement()["seq"]
        node.install(*(
            eca(f"r{i}", EAtom(q(f"evt-{i}", Var("X"))), recorder(fired, i))
            for i in range(6)
        ))
        sim.scheduler.at(2.0, lambda: node.raise_local(d("b", 2)))
        sim.run()
        assert "seq" in fired, f"state lost (placement was {before})"

    def test_pending_absence_deadline_survives_repartitioning(self):
        sim, node = sharded_node(2)
        fired = []
        node.install(eca("quiet",
                         EWithin(ESeq(EAtom(q("start")), ENot(q("stop"))), 2.0),
                         recorder(fired, "quiet")))
        sim.scheduler.at(0.0, lambda: node.raise_local(d("start", 1)))
        sim.run_until(0.5)
        node.install(*(
            eca(f"r{i}", EAtom(q(f"evt-{i}", Var("X"))), recorder(fired, i))
            for i in range(6)
        ))
        sim.run()
        assert fired == ["quiet"]


class TestInFlightRepartition:
    def test_install_during_replicated_event_does_not_fork_state(self):
        """Regression: a rule firing an INSTALL while the triggering event's
        replica copies are still queued must not re-balance existing rules —
        moving a replica that has not yet consumed the in-flight event would
        fork its state and silently drop a later firing."""
        from repro.core.actions import InstallRule
        from repro.core.meta import rule_to_term
        from repro.lang.parser import parse_action

        def run(shards):
            sim = Simulation(latency=0.0)
            config = EngineConfig(**({"shards": shards} if shards > 1 else {}))
            node = sim.reactive_node("http://s.example", config=config)
            fired = []
            # Spans home(a) and home(c): replicated, so the `a` event has a
            # suppressed copy in flight on the other shard when `inst` fires.
            node.install(
                eca("span", EWithin(ESeq(EAtom(q("a")), EAtom(q("c"))), 100.0),
                    recorder(fired, "span")),
                eca("inst", EAtom(q("a")),
                    InstallRule(rule_to_term(
                        eca("late", EAtom(q("b", Var("V"))),
                            parse_action(
                                'PERSIST seen[var V] INTO '
                                '"http://s.example/log"'))))),
                eca("c-only", EAtom(q("c", Var("V"))), recorder(fired, "c")),
            )
            sim.scheduler.at(0.0, lambda: node.raise_local(d("a", 1)))
            sim.scheduler.at(1.0, lambda: node.raise_local(d("b", 2)))
            sim.scheduler.at(2.0, lambda: node.raise_local(d("c", 3)))
            sim.run()
            return fired, str(node.get("http://s.example/log"))

        assert run(3) == run(1)

    def test_install_mid_dispatch_with_drained_inboxes_does_not_rebalance(self):
        """Regression: the event's *last* queued copy may already be popped
        while its dispatch snapshot is still running; an install fired from
        that snapshot must still freeze placements — a rebalance would
        deep-copy an evaluator later in the snapshot before it consumed the
        in-flight event, forking replica state."""

        def run(shards):
            sim = Simulation(latency=0.0)
            config = EngineConfig(**({"shards": shards} if shards > 1 else {}))
            node = sim.reactive_node("http://s.example", config=config)
            fired = []
            extras = [eca(f"aa{i}", EAtom(q(f"aa-{i}", Var("V"))),
                          recorder(fired, f"aa{i}")) for i in range(3)]
            node.install(
                *(eca(f"m{i}", EAtom(q("m", q("k", Var("V")), tag=f"T{i}")),
                      recorder(fired, f"m{i}")) for i in range(3)),
                # Fires while the `l` event's only copy is already popped
                # and `span` (later in the snapshot) has not yet seen it.
                eca("inst", EAtom(q("l")),
                    PyAction(lambda n, b: node.install(*extras), "install")),
                eca("span", EWithin(ESeq(EAtom(q("l")), EAtom(q("k"))), 100.0),
                    recorder(fired, "span")),
            )
            sim.scheduler.at(0.0, lambda: node.raise_local(d("l", 1)))
            sim.scheduler.at(1.0, lambda: node.raise_local(d("k", 2)))
            sim.run()
            return fired, node.stats.rule_firings

        assert run(2) == run(1)

    def test_absence_deadline_planted_mid_flight_survives(self):
        """The absence deadline of a replicated rule planted while an
        in-flight re-partition runs must still wake up and fire."""
        from repro.core.actions import InstallRule
        from repro.core.meta import rule_to_term
        from repro.lang.parser import parse_action

        def run(shards):
            sim = Simulation(latency=0.0)
            config = EngineConfig(**({"shards": shards} if shards > 1 else {}))
            node = sim.reactive_node("http://s.example", config=config)
            fired = []
            node.install(
                eca("quiet",
                    EWithin(ESeq(EAtom(q("a")), ENot(q("stop"))), 2.0),
                    recorder(fired, "quiet")),
                eca("wild", EAtom(q(LabelVar("L"))), recorder(fired, "wild")),
                eca("inst", EAtom(q("a")),
                    InstallRule(rule_to_term(
                        eca("late", EAtom(q("b", Var("V"))),
                            parse_action(
                                'PERSIST seen[var V] INTO '
                                '"http://s.example/log"'))))),
            )
            sim.scheduler.at(0.0, lambda: node.raise_local(d("a", 1)))
            sim.run()
            return fired

        assert run(4) == run(1)


class TestThesis11MetaActions:
    def test_install_action_routes_through_the_router(self):
        """A rule installed by a fired INSTALL action (Thesis 11) must be
        partitioned by the router, not trapped inside one shard."""
        from repro.core.actions import InstallRule, Raise
        from repro.core.meta import rule_to_term

        sim, node = sharded_node(4)
        greet = eca("greet", EAtom(q("ping", q("sender", Var("F")))),
                    Raise(Var("F"), d("pong")))
        node.install(eca("deploy", EAtom(q("deploy-request")),
                         InstallRule(rule_to_term(greet))))
        other = sim.node("http://other.example")
        node.raise_local(d("deploy-request"))
        sim.run()
        assert "greet" in node.rules()
        assert "greet" in node.router.placement()
        other.raise_event("http://s.example", d("ping", d("sender", other.uri)))
        sim.run()
        assert other.events_received == 1  # the pong came back

    def test_uninstall_action_routes_through_the_router(self):
        from repro.core.actions import UninstallRule

        sim, node = sharded_node(4)
        fired = []
        node.install(eca("wild", EAtom(q(LabelVar("L"))), recorder(fired, "w")),
                     eca("cleanup", EAtom(q("cleanup")), UninstallRule("wild")))
        node.raise_local(d("cleanup"))
        sim.run()
        assert "wild" not in node.rules()
        assert all("wild" not in engine.rules() for engine in node.shards)


class TestOrderEquivalenceCorners:
    def test_interleaved_ruleset_and_single_rule_order_matches_engine(self):
        """Regression: the engine activates single rules before rule-set
        rules regardless of install interleaving; the router's global
        order (firing order and rules()) must match that, not the raw
        interleaving."""

        def run(shards):
            sim = Simulation(latency=0.0)
            config = EngineConfig(**({"shards": shards} if shards > 1 else {}))
            node = sim.reactive_node("http://s.example", config=config)
            fired = []
            ruleset = RuleSet("S")
            ruleset.add(eca("a", EAtom(q("x", Var("V"))), recorder(fired, "S/a")))
            node.install(ruleset, eca("b", EAtom(q("x", Var("V"))),
                                      recorder(fired, "b")))
            node.raise_local(d("x", 1))
            sim.run()
            return node.rules(), fired

        assert run(2) == run(1)


class TestFairnessKnob:
    def test_inbox_batch_bounds_per_shard_drain_work(self):
        sim, node = sharded_node(2, inbox_batch=1)
        fired = []
        node.install(eca("a", EAtom(q("a", Var("V"))), recorder(fired, "a")),
                     eca("b", EAtom(q("b", Var("V"))), recorder(fired, "b")))
        for i in range(4):
            node.raise_local(d("a", i))
            node.raise_local(d("b", i))
        sim.run()
        assert fired == ["a", "b"] * 4  # arrival order, despite batching
        assert node.router.inbox_drains >= 4  # re-yields between batches


class TestProceduresAndStats:
    def test_procedures_are_defined_on_every_shard(self):
        sim, node = sharded_node(3)
        node.install('''
            PROCEDURE note(WHAT)
            PERSIST entry[var WHAT] INTO "http://s.example/log"

            RULE a ON a{{ tag[var T] }} DO CALL note(WHAT = var T)
            RULE b ON b{{ tag[var T] }} DO CALL note(WHAT = var T)
        ''')
        node.raise_local('a{ tag["x"] }')
        node.raise_local('b{ tag["y"] }')
        sim.run()
        log = node.get("http://s.example/log")
        assert len(log.children) == 2

    def test_aggregate_stats_sum_the_fleet(self):
        sim, node = sharded_node(2)
        node.install(eca("a", EAtom(q("a", Var("V"))), recorder([], "a")),
                     eca("b", EAtom(q("b", Var("V"))), recorder([], "b")))
        for i in range(3):
            node.raise_local(d("a", i))
        node.raise_local(d("b", 0))
        sim.run()
        assert node.stats.rule_firings == 4
        per_shard = node.stats.shards
        assert sum(s.rule_firings for s in per_shard) == 4
        assert sum(s.events_processed for s in per_shard) == \
            node.stats.events_processed
        # Per-shard inbox peaks reflect each shard's own queue.
        assert all(s.inbox_peak >= 1 for s in per_shard)

    def test_matcher_call_attribution_sums_to_single_engine(self):
        """Per-shard matcher-call deltas must add up to exactly the work
        one engine does on the same stream (disjoint labels: no replica
        ever re-matches an event)."""
        def run(shards):
            sim = Simulation(latency=0.0)
            node = sim.reactive_node("http://t.example",
                                     config=EngineConfig(shards=shards))
            node.install(
                eca("a", EAtom(q("a", q("v", Var("V")))), recorder([], "a")),
                eca("b", EAtom(q("b", q("v", Var("V")))), recorder([], "b")),
            )
            for i in range(5):
                node.raise_local(d("a", d("v", i)))
                node.raise_local(d("b", d("v", i)))
            sim.run()
            return [s.matcher_calls for s in node.stats.shards]

        (single,) = run(1)
        sharded = run(2)
        assert single > 0
        assert sum(sharded) == single
        assert sharded[0] == sharded[1]  # one label's rule per shard


class TestMidInstant:
    """Same-instant corners where firing interleaves with routing: the
    sharded node must reproduce the single engine exactly."""

    def test_mid_instant_uninstall_skips_later_events(self):
        from repro.core.actions import UninstallRule

        def run(**config_kwargs):
            sim = Simulation(latency=0.0)
            node = sim.reactive_node("http://t.example",
                                     config=EngineConfig(**config_kwargs))
            fired = []
            node.install(
                eca("killer", EAtom(q("kill", Var("V"))),
                    UninstallRule("victim")),
                eca("victim", EAtom(q("x", Var("V"))),
                    recorder(fired, "victim")),
                eca("bystander", EAtom(q("x", Var("V"))),
                    recorder(fired, "bystander")),
            )
            # Same instant, one drain: x, kill, x — the second x must not
            # reach the victim (the kill fired between them).
            sim.scheduler.at(1.0, lambda: node.raise_local(d("x", 1)))
            sim.scheduler.at(1.0, lambda: node.raise_local(d("kill", 0)))
            sim.scheduler.at(1.0, lambda: node.raise_local(d("x", 2)))
            sim.run()
            return fired

        single = run()
        assert single == ["victim", "bystander", "bystander"]
        assert run(shards=3) == single

    @staticmethod
    def _run_until_matcher_error(events, **config_kwargs):
        """Install ``ok`` (on *events[0]*'s label) before ``boom`` (on
        label ``b``, whose query raises QueryError when matched: unbound
        comparison operand), raise *events* at one instant."""
        from repro.errors import QueryError
        from repro.terms import Compare

        sim = Simulation(latency=0.0)
        node = sim.reactive_node("http://t.example",
                                 config=EngineConfig(**config_kwargs))
        fired = []
        node.install(
            eca("ok", EAtom(q(events[0].label, Var("V"))),
                recorder(fired, "ok")),
            eca("boom", EAtom(q("b", q("v", Compare(">", Var("U"))))),
                recorder(fired, "boom")),
        )
        for term in events:
            sim.scheduler.at(1.0, lambda t=term: node.raise_local(t))
        try:
            sim.run()
        except QueryError:
            return fired, True
        return fired, False

    def test_failing_shard_still_fires_the_pre_failure_prefix(self):
        """A matcher error on one shard must not swallow the firings of
        events that logically precede it."""
        events = [d("a", 1), d("b", d("v", 5))]
        single = self._run_until_matcher_error(events)
        assert single == (["ok"], True)
        assert self._run_until_matcher_error(events, shards=2) == single

    def test_failing_event_own_earlier_answers_still_fire(self):
        """Within the failing event itself, a rule installed *before* the
        raising one has already fired when the error propagates."""
        events = [d("b", d("v", 5))]
        single = self._run_until_matcher_error(events)
        assert single == (["ok"], True)
        assert self._run_until_matcher_error(events, shards=2) == single


def pinned(i, label="stock", tag=None, fired=None):
    """A single-label rule pinning axis value ``S{i}`` on *label*."""
    return eca(f"r{i}", EAtom(q(label, q("p", Var("P")), sym=f"S{i}")),
               recorder([] if fired is None else fired, i if tag is None else tag))


class TestDeltaPlacement:
    """The balance contract: placements move at full plans only, and a full
    plan is due by the doubling rule (or a rule set, or refresh())."""

    def test_one_by_one_installs_double_into_an_even_split(self):
        sim, node = sharded_node(4)
        planned_at = []
        for i in range(64):
            before = node.router.full_plans
            node.install(pinned(i))
            if node.router.full_plans > before:
                planned_at.append(i + 1)
        # A full plan whenever the deltas since the last one reach its
        # size — 7 plans for 64 rules, not 64.
        assert planned_at == [1, 2, 4, 8, 16, 32, 64]
        assert sorted(len(engine.rules()) for engine in node.shards) == [16] * 4
        assert node.rules() == [f"r{i}" for i in range(64)]

    def test_full_plan_equals_one_batch_into_a_fresh_node(self):
        rules = [pinned(i) for i in range(24)] + [
            eca(f"e{i}", EAtom(q(f"evt-{i}", Var("X"))), recorder([], i))
            for i in range(6)]
        sim, grown = sharded_node(4)
        for rule in rules:
            grown.install(rule)
        assert len(grown.router._delta) > 0  # the tail sits on deltas
        grown.router.refresh()
        sim, batch = sharded_node(4)
        batch.install(*rules)
        assert grown.router.placement() == batch.router.placement()
        assert grown.router._plan.splits == batch.router._plan.splits
        assert grown.router._plan.home == batch.router._plan.home
        assert grown.router._plan.needs == batch.router._plan.needs

    def test_deltas_between_two_full_plans_never_exceed_the_last_plan(self):
        sim, node = sharded_node(4)
        router = node.router
        for i in range(100):
            node.install(pinned(i))
            assert len(router._delta) <= router._planned
            if i % 3 == 0:
                node.uninstall(f"r{i}")  # retiring frees its delta slot
                assert f"r{i}" not in router._delta

    def test_a_delta_moves_no_installed_rule(self):
        sim, node = sharded_node(4)
        node.install(*(pinned(i) for i in range(16)))
        before = node.router.placement()
        evaluators = {name: engine._active[name][1]
                      for engine in node.shards for name in engine._active}
        node.install(pinned(16), pinned(17),
                     eca("new-label", EAtom(q("fresh", Var("X"))), recorder([], 0)))
        after = node.router.placement()
        assert {name: after[name] for name in before} == before
        assert all(engine._active[name][1] is evaluators[name]
                   for engine in node.shards for name in engine._active
                   if name in evaluators)
        assert node.router.full_plans == 1

    def test_first_residual_on_a_split_label_replans_then_deltas(self):
        """A rule that must be replicated across a split label's value
        shards widens the label's delivery to every shard: quiescent, that
        is planned in full (a fresh plan may find an axis it pins); with
        the label already delivered everywhere, the next one is a delta."""
        sim, node = sharded_node(4)
        node.install(*(pinned(i) for i in range(16)))
        node.install(eca("audit", EAtom(q("stock", Var("X"))), recorder([], 0)))
        assert node.router.full_plans == 2
        assert node.router.placement()["audit"] == (0, 1, 2, 3)
        node.install(eca("audit2", EAtom(q("stock", Var("X"))), recorder([], 0)))
        assert node.router.full_plans == 2

    def test_rejected_delta_leaves_tables_and_shards_untouched(self):
        from repro.events.factory import resolve_evaluator

        inner = resolve_evaluator("incremental")

        def picky(query, rates=None):
            if "poison" in str(query):
                raise RuleError("rejected by the mechanism")
            return inner.build(query, rates)

        sim, node = sharded_node(4, evaluator=picky)
        node.install(*(pinned(i) for i in range(16)))
        before = TestBoundedRouterState.sizes(node.router)
        with pytest.raises(RuleError, match="rejected by the mechanism"):
            node.install(pinned(16),
                         eca("new-label", EAtom(q("fresh", Var("X"))), recorder([], 0)),
                         eca("bad", EAtom(q("poison", Var("X"))), recorder([], 0)))
        assert TestBoundedRouterState.sizes(node.router) == before
        assert node.rules() == [f"r{i}" for i in range(16)]


class TestBoundedRouterState:
    @staticmethod
    def sizes(router):
        plan = router._plan
        return {
            "rules": sorted(plan.rules),
            "home": dict(plan.home),
            "splits": {label: (axis, dict(value_shard))
                       for label, (axis, value_shard) in plan.splits.items()},
            "needs": {label: dict(row) for label, row in plan.needs.items()},
            "refs": dict(plan.refs),
            "wildcards": plan.wildcards,
            "loads": list(plan.loads),
            "primary": [sorted(names) for names in plan.primary_names],
            "delta": sorted(router._delta),
            "singles": sorted(router._single_rules),
            "active": sum(len(engine._active) for engine in router.engines),
            "entries": sum(len(engine._eval_entry) for engine in router.engines),
            "trie roots": [sorted(engine._index) for engine in router.engines],
            "wild rows": sum(len(engine._wildcard_rows)
                             for engine in router.engines),
            "deadlines": sum(len(engine._owned_instants)
                             for engine in router.engines),
        }

    def test_deploy_retire_cycles_leave_every_table_at_its_first_size(self):
        """5 000 deploy/retire cycles — a value-pinned rule on the split
        label, a rule on a label of its own, a label-spanning absence rule
        and a wildcard, alternately through the API and through fired
        INSTALL / UNINSTALL actions — prune all they added."""
        from repro.core.actions import InstallRule, UninstallRule
        from repro.core.meta import rule_to_term
        from repro.lang.parser import parse_action

        sim, node = sharded_node(4)
        node.install(
            *(pinned(i) for i in range(40)),
            eca("audit", EAtom(q("stock", Var("X"))), recorder([], "audit")),
            eca("deploy", EAtom(q("deploy", Var("R", q("eca-rule")))),
                InstallRule(Var("R"))),
            eca("retire", EAtom(q("retire", q("name", Var("N")))),
                UninstallRule(Var("N"))),
        )
        note = parse_action('PERSIST seen[var P] INTO "http://s.example/log"')

        def cycle_rules(c):
            return [
                eca(f"dyn{c}", EAtom(q("stock", q("p", Var("P")), sym=f"D{c}")), note),
                eca(f"own{c}", EAtom(q(f"own-{c}", q("p", Var("P")))), note),
                eca(f"span{c}",
                    EWithin(ESeq(EAtom(q(f"open-{c}", q("p", Var("P")))),
                                 ENot(q(f"close-{c}"))), 2.0), note),
                eca(f"wild{c}", EAtom(q(LabelVar("L"), q("w", Var("P")))), note),
            ]

        first = self.sizes(node.router)
        plans = node.router.full_plans
        for c in range(5000):
            rules = cycle_rules(c)
            if c % 10:
                node.install(*rules)
                node.uninstall(rules[0])
                for rule in rules[1:]:
                    node.uninstall(rule.name)
            else:  # every tenth cycle travels as events, fired mid-dispatch
                for rule in rules:
                    node.raise_local(d("deploy", rule_to_term(rule)))
                node.raise_local(d(f"open-{c}", d("p", c)))  # plants a deadline
                for rule in rules:
                    node.raise_local(d("retire", d("name", rule.name)))
                sim.run()
            assert self.sizes(node.router) == first, f"cycle {c}"
        assert node.router.full_plans == plans


class TestAmbiguousFireSets:
    def test_install_and_uninstall_between_enqueue_and_drain(self):
        """The per-shard fire sets handed to queued copies of an ambiguous
        event are edited in place by deltas: a rule installed, and another
        uninstalled, after the event was queued but before the drain must
        see (or not see) it exactly as on one engine."""

        def run(shards):
            sim = Simulation(latency=0.0)
            node = sim.reactive_node(
                "http://s.example", config=EngineConfig(shards=shards))
            fired = []
            node.install(*(
                eca(f"r{i}",
                    EAtom(q("order", q("venue", f"V{i % 4}"), q("x", Var("X")))),
                    recorder(fired, i))
                for i in range(8)
            ))
            late = eca("late", EAtom(q("order", q("venue", "V1"), q("x", Var("X")))),
                       recorder(fired, "late"))
            term = d("order", d("venue", "V0"), d("venue", "V1"), d("x", 1))

            def burst():
                node.raise_local(term)  # queued: the drain runs after this
                node.install(late)
                node.uninstall("r4")
                node.raise_local(term)

            sim.scheduler.at(0.0, burst)
            sim.run()
            return fired, node.stats.rule_firings

        assert run(4) == run(1)
        assert run(1)[0] == [0, 1, 5, "late"] * 2


class TestInstallCost:
    """Machine-independent cost guard: one plain rule in, one out, at a
    2 000-rule base — counted calls, not timings."""

    N_RULES, VENUES = 2000, 40

    @pytest.fixture()
    def counted(self, monkeypatch):
        import repro.events.incremental as incremental
        import repro.sharding as sharding
        from repro.events.factory import resolve_evaluator

        calls = {"build": 0, "interest": 0, "refresh": 0}
        inner = resolve_evaluator("incremental")

        def build(query, rates=None):
            calls["build"] += 1
            return inner.build(query, rates)

        def interest(query, _real=sharding.query_interest):
            calls["interest"] += 1
            return _real(query)

        def refresh(self, _real=ReactiveEngine.refresh):
            calls["refresh"] += 1
            return _real(self)

        monkeypatch.setattr(sharding, "query_interest", interest)
        monkeypatch.setattr(incremental, "query_interest", interest)
        monkeypatch.setattr(ReactiveEngine, "refresh", refresh)
        sim, node = sharded_node(4, evaluator=build)
        node.install(*(
            eca(f"t{i}", EAtom(q("tick", q("symbol", f"S{i // self.VENUES}"),
                                 q("venue", f"V{i % self.VENUES}"),
                                 q("price", Var("P")))), recorder([], i))
            for i in range(self.N_RULES)
        ))
        return sim, node, calls

    @staticmethod
    def probe(k):
        from repro.lang.parser import parse_action

        return eca(f"dyn{k}", EAtom(q("tick", q("symbol", f"D{k}"),
                                      q("venue", "V0"), q("price", Var("P")))),
                   parse_action('PERSIST seen[var P] INTO "http://s.example/log"'))

    def test_quiescent_install_then_uninstall(self, counted):
        sim, node, calls = counted
        for key in calls:
            calls[key] = 0
        plans = node.router.full_plans
        node.install(self.probe(0))
        hosts = node.router.placement()["dyn0"]
        node.uninstall("dyn0")
        assert calls == {"build": len(hosts), "interest": 1, "refresh": 0}
        assert len(hosts) == 1 and node.router.full_plans == plans

    def test_install_then_uninstall_from_firing_actions(self, counted):
        from repro.core.actions import InstallRule, UninstallRule
        from repro.core.meta import rule_to_term

        sim, node, calls = counted
        node.install(
            eca("deploy", EAtom(q("deploy", Var("R", q("eca-rule")))),
                InstallRule(Var("R"))),
            eca("retire", EAtom(q("retire", q("name", Var("N")))),
                UninstallRule(Var("N"))),
        )
        plans = node.router.full_plans
        deploy = d("deploy", rule_to_term(self.probe(1)))
        for key in calls:
            calls[key] = 0
        node.raise_local(deploy)
        sim.run()
        assert node.router.placement()["dyn1"] in [(0,), (1,), (2,), (3,)]
        node.raise_local(d("retire", d("name", "dyn1")))
        sim.run()
        assert "dyn1" not in node.rules()
        assert calls == {"build": 1, "interest": 1, "refresh": 0}
        assert node.router.full_plans == plans

    def test_a_replicated_rule_builds_once_and_copies_the_rest(self, counted):
        sim, node, calls = counted
        for key in calls:
            calls[key] = 0
        node.install(eca("wild", EAtom(q(LabelVar("L"))), recorder([], "w")))
        assert node.router.placement()["wild"] == (0, 1, 2, 3)
        evaluators = {id(engine._active["wild"][1]) for engine in node.shards}
        assert len(evaluators) == 4  # one evaluator per replica, never shared
        node.uninstall("wild")
        assert calls == {"build": 1, "interest": 1, "refresh": 0}

"""The unified public API: ReactiveNode facade and the fluent rule builder."""

import textwrap

import pytest

import repro
from repro import EngineConfig, ReactiveNode, Simulation, rule
from repro.core import ECARule, RuleSet, eca
from repro.core.actions import PyAction, Raise
from repro.core.conditions import AndCond, QueryCond, TrueCond
from repro.errors import RuleError
from repro.events.queries import EAtom
from repro.terms import parse_data, parse_query, q


def reactive_node(**kwargs):
    sim = Simulation(latency=0.0)
    return sim, sim.reactive_node("http://n.example", **kwargs)


class TestQuickstartDocstring:
    def test_package_quickstart_runs_verbatim(self):
        """The ``Quickstart::`` block in repro's docstring must execute."""
        block = repro.__doc__.split("Quickstart::", 1)[1]
        lines = []
        for line in block.splitlines()[1:]:
            if line.strip() == "" or line.startswith("    "):
                lines.append(line)
            else:
                break
        code = textwrap.dedent("\n".join(lines))
        assert "sim.reactive_node(" in code
        exec(compile(code, "<quickstart>", "exec"), {})  # noqa: S102


class TestReactiveNodeFacade:
    def test_reactive_node_bundles_node_and_engine(self):
        sim, node = reactive_node()
        assert isinstance(node, ReactiveNode)
        assert node.uri == "http://n.example"
        assert node.engine.node is node.node
        assert "rules=0" in repr(node)

    def test_install_surface_program_with_ruleset_and_procedure(self):
        sim, node = reactive_node()
        node.install('''
            PROCEDURE note(WHAT)
            PERSIST entry[var WHAT] INTO "http://n.example/log"

            RULE direct
            ON go{{ tag[var T] }}
            DO CALL note(WHAT = var T)

            RULESET grouped
              RULE also
              ON go{{ tag[var T] }}
              DO CALL note(WHAT = var T)
            END
        ''')
        assert sorted(node.rules()) == ["direct", "grouped/also"]
        node.raise_local('go{ tag["x"] }')
        sim.run()
        log = node.get("http://n.example/log")
        assert len(log.children) == 2

    def test_put_get_and_raise_accept_strings(self):
        sim, node = reactive_node()
        node.put("http://n.example/doc", 'doc{ v[1] }')
        assert node.get("http://n.example/doc").label == "doc"
        hits = []
        node.install(rule("r").on(EAtom(q("ping"))).do(
            PyAction(lambda n, b: hits.append(n.now))))
        node.raise_event("http://n.example", "ping{}")
        sim.run()
        assert hits and node.stats.rule_firings == 1

    def test_config_reaches_the_engine(self):
        sim, node = reactive_node(config=EngineConfig(
            consumption="chronicle", indexed_dispatch=False))
        assert node.engine.consumption == "chronicle"
        assert node.engine.config.indexed_dispatch is False

    def test_config_conflicts_with_legacy_kwargs(self):
        from repro.core import ReactiveEngine

        sim = Simulation(latency=0.0)
        with pytest.raises(RuleError):
            ReactiveEngine(sim.node("http://n.example"),
                           consumption="recent", config=EngineConfig())

    def test_bad_consumption_policy_rejected_eagerly(self):
        from repro.errors import EventQueryError

        with pytest.raises(EventQueryError):
            EngineConfig(consumption="sometimes")

    def test_install_rejects_non_rules(self):
        sim, node = reactive_node()
        with pytest.raises(RuleError):
            node.install(42)

    def test_failed_batch_install_leaves_engine_untouched(self):
        sim, node = reactive_node()
        keeper = eca("keeper", EAtom(q("a")), PyAction(lambda n, b: None))
        node.install(keeper)
        dup = eca("keeper", EAtom(q("b")), PyAction(lambda n, b: None))
        fresh = eca("fresh", EAtom(q("c")), PyAction(lambda n, b: None))
        with pytest.raises(RuleError):
            node.install(fresh, dup)
        # Atomic: neither the duplicate nor the valid rule was admitted,
        # and retrying the valid rule works.
        assert node.rules() == ["keeper"]
        node.install(fresh)
        assert sorted(node.rules()) == ["fresh", "keeper"]

    def test_parse_error_in_later_program_installs_nothing(self):
        from repro.errors import ParseError

        sim, node = reactive_node()
        good = '''
            PROCEDURE note(WHAT)
            PERSIST entry[var WHAT] INTO "http://n.example/log"

            RULE ok ON go{{}} DO CALL note(WHAT = 1)
        '''
        with pytest.raises(ParseError):
            node.install(good, "RULE broken ON go{{}} DO NONSENSE")
        assert node.rules() == []
        # Neither the rule nor the procedure from the good program stuck:
        node.install(good)
        assert node.rules() == ["ok"]

    def test_define_procedure_rejects_bare_string_params(self):
        sim, node = reactive_node()
        with pytest.raises(RuleError):
            node.define_procedure("p", "ITEM",
                                  'RAISE TO "http://n.example" x{}')


class TestRuleBuilder:
    def test_builder_lowers_to_ecarule(self):
        built = (rule("n")
                 .on('go{{ x[var X] }}')
                 .when('IN "http://n.example/doc" : doc{{ v[var X] }}')
                 .do('RAISE TO "http://n.example" hit{ x[var X] }')
                 .otherwise('RAISE TO "http://n.example" miss{}')
                 .firing("first")
                 .build())
        assert isinstance(built, ECARule)
        assert built.name == "n"
        assert built.firing == "first"
        assert len(built.branches) == 1
        assert isinstance(built.branches[0][0], QueryCond)
        assert isinstance(built.otherwise, Raise)

    def test_consecutive_whens_conjoin(self):
        built = (rule("n")
                 .on(EAtom(q("go")))
                 .when(QueryCond("http://n.example/a", parse_query("a")))
                 .when(QueryCond("http://n.example/b", parse_query("b")))
                 .do(Raise("http://n.example", parse_data("hit{}")))
                 .build())
        assert isinstance(built.branches[0][0], AndCond)

    def test_do_without_when_is_unconditional(self):
        built = rule("n").on(EAtom(q("go"))).do(
            Raise("http://n.example", parse_data("hit{}"))).build()
        assert isinstance(built.branches[0][0], TrueCond)

    def test_multiple_branches_make_ecna(self):
        built = (rule("n")
                 .on(EAtom(q("go")))
                 .when(QueryCond("http://n.example/a", parse_query("a")))
                 .do(Raise("http://n.example", parse_data("first{}")))
                 .do(Raise("http://n.example", parse_data("second{}")))
                 .build())
        assert len(built.branches) == 2

    def test_builder_validation_errors(self):
        with pytest.raises(RuleError):
            rule("n").do(Raise("http://n.example", parse_data("hit{}"))).build()
        with pytest.raises(RuleError):
            rule("n").on(EAtom(q("go"))).when(
                QueryCond("http://n.example/a", parse_query("a"))).build()
        with pytest.raises(RuleError):
            rule("n").on(EAtom(q("a"))).on(EAtom(q("b")))

    def test_install_builds_implicitly(self):
        sim, node = reactive_node()
        node.install(rule("implicit").on(EAtom(q("go"))).do(
            PyAction(lambda n, b: None)))
        assert node.rules() == ["implicit"]


class TestUninstall:
    def test_uninstall_ruleset_by_reference_and_name(self):
        sim, node = reactive_node()
        noop = PyAction(lambda n, b: None)
        by_ref = RuleSet("byref")
        by_ref.add(eca("r1", EAtom(q("a")), noop))
        by_name = RuleSet("byname")
        by_name.add(eca("r2", EAtom(q("b")), noop))
        node.install(by_ref, by_name)
        assert sorted(node.rules()) == ["byname/r2", "byref/r1"]
        node.uninstall(by_ref)
        assert node.rules() == ["byname/r2"]
        node.uninstall("byname")
        assert node.rules() == []

    def test_uninstall_rule_object(self):
        sim, node = reactive_node()
        installed = eca("r", EAtom(q("a")), PyAction(lambda n, b: None))
        node.install(installed)
        node.uninstall(installed)
        assert node.rules() == []

    def test_uninstall_structurally_equal_rule(self):
        from repro.lang import parse_rule

        sim, node = reactive_node()
        src = 'RULE r ON go{{}} DO RAISE TO "http://n.example" pong{}'
        node.install(parse_rule(src))
        node.uninstall(parse_rule(src))  # re-parsed: equal, not identical
        assert node.rules() == []

    def test_uninstall_miss_lists_installed_names(self):
        sim, node = reactive_node()
        node.install(eca("present", EAtom(q("a")), PyAction(lambda n, b: None)))
        ruleset = RuleSet("grouped")
        ruleset.add(eca("r", EAtom(q("b")), PyAction(lambda n, b: None)))
        node.install(ruleset)
        with pytest.raises(RuleError) as info:
            node.uninstall("ghost")
        message = str(info.value)
        assert "ghost" in message
        assert "present" in message
        assert "grouped" in message

    def test_uninstall_foreign_ruleset_rejected(self):
        sim, node = reactive_node()
        with pytest.raises(RuleError):
            node.uninstall(RuleSet("never-installed"))

    def test_uninstall_wrong_type_rejected(self):
        sim, node = reactive_node()
        with pytest.raises(RuleError):
            node.engine.uninstall(3.14)


class TestWithinSugar:
    def test_within_wraps_the_event_query(self):
        from repro.events.queries import ENot, ESeq, EWithin

        built = (rule("absent")
                 .on(ESeq(EAtom(q("a")), ENot(q("n"))))
                 .within(4.0)
                 .do(PyAction(lambda n, b: None))
                 .build())
        assert isinstance(built.event, EWithin)
        assert built.event.window == 4.0

    def test_within_enables_absence_rules_end_to_end(self):
        from repro.events.queries import ENot, ESeq

        sim, node = reactive_node()
        fired = []
        node.install(rule("absent")
                     .on(ESeq(EAtom(q("a")), ENot(q("n"))))
                     .within(4.0)
                     .do(PyAction(lambda n, b: fired.append(n.now))))
        node.raise_local("a{}")
        sim.run()
        assert fired == [4.0]

    def test_repeated_within_nests(self):
        from repro.events.queries import EWithin

        built = (rule("r").on(EAtom(q("a"))).within(4.0).within(2.0)
                 .do(PyAction(lambda n, b: None)).build())
        assert isinstance(built.event, EWithin)
        assert isinstance(built.event.query, EWithin)
        assert (built.event.window, built.event.query.window) == (2.0, 4.0)

    def test_within_before_on_is_a_clear_error(self):
        with pytest.raises(RuleError, match=r"call \.on\(\.\.\.\) first"):
            rule("r").within(4.0)

    def test_builder_errors_are_catchable_as_reproerror(self):
        with pytest.raises(repro.ReproError):
            rule("r").within(4.0)
        with pytest.raises(repro.ReproError):
            rule("r").build()


class TestNodeStatsNamespace:
    def _fired_node(self, **kwargs):
        sim, node = reactive_node(**kwargs)
        node.install(rule("r").on(EAtom(q("ping"))).do(
            PyAction(lambda n, b: None)))
        node.raise_local("ping{}")
        sim.run()
        return node

    def test_sub_views_and_delegation(self):
        from repro import NodeStats
        from repro.core.engine import EngineStats

        node = self._fired_node()
        stats = node.stats
        assert isinstance(stats, NodeStats)
        assert isinstance(stats.engine, EngineStats)
        # Attribute and ["key"] access keep delegating to the engine view.
        assert stats.rule_firings == stats.engine.rule_firings == 1
        assert stats["rule_firings"] == 1
        assert "rule_firings=1" in repr(stats)

    def test_unsharded_shards_view_mirrors_node_inbox(self):
        node = self._fired_node()
        stats = node.stats
        assert len(stats.shards) == 1
        assert stats.shards[0].rule_firings == 1
        assert stats.ingest is None

    def test_sharded_shards_view_has_one_entry_per_shard(self):
        node = self._fired_node(config=EngineConfig(shards=3))
        stats = node.stats
        assert len(stats.shards) == 3
        assert sum(s.rule_firings for s in stats.shards) == 1

    def test_evaluator_knob_reaches_the_facade(self):
        from repro.events import TreeEvaluator

        sim, node = reactive_node(config=EngineConfig(evaluator="tree"))
        node.install(rule("r").on(EAtom(q("ping"))).do(
            PyAction(lambda n, b: None)))
        node.raise_local("ping{}")
        sim.run()
        assert node.stats.rule_firings == 1
        evaluators = [ev for _rule, ev in node.engine._active.values()]
        assert evaluators and all(
            isinstance(ev, TreeEvaluator) for ev in evaluators)

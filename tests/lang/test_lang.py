"""Tests for the surface rule language: parsing, serialising, round-trips."""

import pytest

from _rule_text import program_to_text, rule_to_text
from repro.core import (
    Alternative,
    CallProcedure,
    Conditional,
    ECARule,
    Persist,
    PutResource,
    QueryCond,
    Raise,
    RuleSet,
    Sequence,
    Update,
    eca,
)
from repro.core.conditions import AndCond, CompareCond, NotCond, TrueCond
from repro.errors import ParseError
from repro.events.queries import (
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EWithin,
)
from repro.lang import parse_program, parse_rule
from repro.terms import Var, parse_construct, parse_query


class TestEventSyntax:
    def parse_event(self, text):
        return parse_rule(f"RULE r ON {text} DO RAISE TO \"http://x.example\" out{{}}").event

    def test_atom(self):
        event = self.parse_event("order{{ id[var I] }}")
        assert event == EAtom(parse_query("order{{ id[var I] }}"))

    def test_alias(self):
        assert self.parse_event("ping AS var E").alias == "E"

    def test_and_or_then_precedence(self):
        event = self.parse_event("a AND b THEN c OR d")
        # AND binds tighter than THEN, THEN tighter than OR.
        assert isinstance(event, EOr)
        seq = event.members[0]
        assert isinstance(seq, ESeq)
        assert isinstance(seq.members[0], EAnd)

    def test_parentheses_override(self):
        event = self.parse_event("a AND ( b OR c )")
        assert isinstance(event, EAnd)
        assert isinstance(event.members[1], EOr)

    def test_within(self):
        event = self.parse_event("WITHIN 5.0 ( a THEN b )")
        assert isinstance(event, EWithin) and event.window == 5.0

    def test_negation_in_sequence(self):
        event = self.parse_event("WITHIN 2.0 ( cancel{{ f[var F] }} THEN NOT rebook{{ f[var F] }} )")
        assert isinstance(event, EWithin)
        assert isinstance(event.query.members[1], ENot)

    def test_mid_negation(self):
        event = self.parse_event("WITHIN 9.0 ( a THEN NOT n THEN b )")
        assert len(event.query.members) == 3

    def test_count(self):
        event = self.parse_event('COUNT 3 OF outage{{ s[var S] }} WITHIN 60.0 BY [S]')
        assert event == ECount(parse_query("outage{{ s[var S] }}"), 3, 60.0, ("S",))

    def test_aggregate(self):
        event = self.parse_event(
            "AGG avg var P OF stock{{ p[var P] }} LAST 5 INTO var A RISE 5.0"
        )
        assert event == EAggregate(parse_query("stock{{ p[var P] }}"), "P", "avg", "A",
                                   size=5, predicate=("rise%", 5.0))

    def test_aggregate_window_when(self):
        event = self.parse_event(
            "AGG sum var V OF m{{ v[var V] }} WITHIN 10.0 INTO var S WHEN > 100.0"
        )
        assert event.window == 10.0 and event.predicate == (">", 100.0)


class TestConditionSyntax:
    def parse_cond(self, text):
        rule = parse_rule(
            f'RULE r ON go IF {text} DO RAISE TO "http://x.example" out{{}}'
        )
        return rule.branches[0][0]

    def test_in_query(self):
        condition = self.parse_cond('IN "http://s.example/d" : doc{{ ok }}')
        assert condition == QueryCond("http://s.example/d", parse_query("doc{{ ok }}"))

    def test_var_uri(self):
        condition = self.parse_cond("IN var U : doc{{ ok }}")
        assert condition.uri == Var("U")

    def test_comparison(self):
        condition = self.parse_cond("var Q > 0")
        assert isinstance(condition, CompareCond) and condition.op == ">"

    def test_and_not(self):
        condition = self.parse_cond('IN var U : d AND NOT ( var X == 1 )')
        assert isinstance(condition, AndCond)
        assert isinstance(condition.members[1], NotCond)


class TestActionSyntax:
    def parse_action(self, text):
        return parse_rule(f"RULE r ON go DO {text}").action

    def test_raise(self):
        action = self.parse_action('RAISE TO "http://x.example" ping{ var X }')
        assert action == Raise("http://x.example", parse_construct("ping{ var X }"))

    def test_update_forms(self):
        insert = self.parse_action('INSERT item{} INTO "http://s.example/d" AT shop')
        assert insert.kind == "insert"
        delete = self.parse_action('DELETE note FROM "http://s.example/d"')
        assert delete.kind == "delete"
        replace = self.parse_action(
            'REPLACE qty[var Q] IN "http://s.example/d" BY qty[add(var Q, 1)]'
        )
        assert replace.kind == "replace"

    def test_sequence_also_end(self):
        action = self.parse_action(
            'SEQUENCE PUT "http://n.example/a" x{} ALSO PUT "http://n.example/b" y{} END'
        )
        assert isinstance(action, Sequence) and len(action.actions) == 2
        assert action.atomic

    def test_try_elsetry(self):
        action = self.parse_action(
            'TRY DELETE a FROM "http://n.example/d" ELSETRY RAISE TO "http://x.example" fail{} END'
        )
        assert isinstance(action, Alternative) and len(action.actions) == 2

    def test_when_then_else(self):
        action = self.parse_action(
            'WHEN IN "http://n.example/d" : ok THEN PUT "http://n.example/a" y{} '
            'ELSE PUT "http://n.example/a" n{} END'
        )
        assert isinstance(action, Conditional)
        assert action.otherwise is not None

    def test_persist_and_call(self):
        persist = self.parse_action('PERSIST entry{ var X } INTO "http://n.example/log"')
        assert isinstance(persist, Persist)
        call = self.parse_action('CALL notify(WHO = var C, WHAT = "shipped")')
        assert call == CallProcedure(
            "notify", (("WHO", Var("C")), ("WHAT", "shipped"))
        )


class TestRuleAndProgram:
    def test_first_modifier(self):
        rule = parse_rule('RULE r FIRST ON go DO RAISE TO "http://x.example" out{}')
        assert rule.firing == "first"

    def test_multi_branch(self):
        rule = parse_rule('''
            RULE tiered
            ON order{{ total[var T] }}
            IF var T > 100 DO RAISE TO "http://x.example" big{}
            IF var T > 10  DO RAISE TO "http://x.example" mid{}
            ELSE RAISE TO "http://x.example" small{}
        ''')
        assert len(rule.branches) == 2
        assert rule.otherwise is not None

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_rule("RULE r DO RAISE")  # missing ON
        with pytest.raises(ParseError):
            parse_rule("RULE r ON go DO FROBNICATE x")
        with pytest.raises(ParseError):
            parse_rule('RULE r ON go DO RAISE TO "http://x.example" out{} trailing')

    def test_program_with_rulesets_and_procedures(self):
        items = parse_program('''
            PROCEDURE notify(WHO) RAISE TO "http://mail.example" mail{ var WHO }

            RULESET shop
              RULE a ON go DO CALL notify(WHO = "franz")
              RULESET extras
                RULE b ON stop DO CALL notify(WHO = "ida")
              END
            END

            RULE standalone ON ping DO RAISE TO "http://x.example" pong{}
        ''')
        kinds = [type(i).__name__ if not isinstance(i, tuple) else "procedure"
                 for i in items]
        assert kinds == ["procedure", "RuleSet", "ECARule"]
        ruleset = items[1]
        names = [name for name, _, _ in ruleset.qualified()]
        assert names == ["shop/a", "shop/extras/b"]


ROUND_TRIP_RULES = [
    'RULE a ON go DO RAISE TO "http://x.example" out{}',
    '''RULE flight
       ON WITHIN 2.0 ( cancel{{ f[var F] }} THEN NOT rebook{{ f[var F] }} )
       DO RAISE TO "http://agent.example" act{ var F }''',
    '''RULE stock FIRST
       ON AGG avg var P OF stock{{ p[var P] }} LAST 5 INTO var A RISE 5.0
       DO PERSIST note{ var A } INTO "http://n.example/log" ROOT notes''',
    '''RULE seq
       ON ( a AND b ) THEN c OR d
       IF IN "http://n.example/d" : doc{{ q[var Q] }} AND var Q >= 3
       DO SEQUENCE
            REPLACE q[var Q] IN "http://n.example/d" BY q[add(var Q, 1)]
            ALSO TRY DELETE old FROM "http://n.example/d"
                 ELSETRY RAISE TO "http://x.example" warn{}
                 END
          END
       ELSE WHEN TRUE THEN PUT "http://n.example/flag" f{} END''',
    '''RULE counted
       ON COUNT 3 OF outage{{ s[var S] }} WITHIN 60.0 BY [S]
       DO CALL page(WHO = var S)''',
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_RULES,
                             ids=[f"rule{i}" for i in range(len(ROUND_TRIP_RULES))])
    def test_rule_round_trip(self, source):
        rule = parse_rule(source)
        assert parse_rule(rule_to_text(rule)) == rule

    def test_program_round_trip(self):
        source = '''
            PROCEDURE p(A) RAISE TO "http://m.example" m{ var A }
            RULESET s
              RULE r1 ON go DO CALL p(A = 1)
            END
            RULE r2 ON ping DO RAISE TO "http://x.example" pong{}
        '''
        items = parse_program(source)
        text = program_to_text(items)
        again = parse_program(text)
        assert len(again) == len(items)
        assert again[2] == items[2]
        assert [n for n, _, _ in again[1].qualified()] == \
               [n for n, _, _ in items[1].qualified()]

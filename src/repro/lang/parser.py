"""Parser for the surface rule language.

Builds on the term lexer/parser: rule keywords are UPPER-CASE
identifiers, term patterns are parsed by the inherited term grammar from
the same token stream.

Grammar (informal)::

    program   := (rule | procedure | ruleset)*
    ruleset   := RULESET name program END
    procedure := PROCEDURE name [params...] action
    rule      := RULE name [FIRST]
                 ON event
                 ( (IF cond DO action)+ [ELSE action] | DO action [ELSE action] )
    event     := seq (OR seq)*
    seq       := conj (THEN [NOT pattern THEN?] conj)* [THEN NOT pattern]
    conj      := prim (AND prim)*
    prim      := WITHIN number ( event )
               | COUNT int OF pattern WITHIN number [BY [vars]]
               | AGG fn var OF pattern (LAST int | WITHIN number) INTO var
                     [BY [vars]] [RISE number % | WHEN op number]
               | ( event )
               | pattern [AS var]
    cond      := c_or;  c_or := c_and (OR c_and)*;  c_and := c_prim (AND c_prim)*
    c_prim    := TRUE | NOT c_prim | ( cond )
               | IN uri : pattern
               | construct op construct          (comparison)
    action    := SEQUENCE action (ALSO action)* END [NONATOMIC]
               | TRY action (ELSETRY action)* END
               | WHEN cond THEN action [ELSE action] END
               | RAISE TO uri construct
               | INSERT construct INTO uri AT pattern [START]
               | DELETE pattern FROM uri
               | REPLACE pattern IN uri BY construct
               | PUT uri construct
               | DELETERESOURCE uri
               | PERSIST construct INTO uri [ROOT name]
               | CALL name [p = construct, ...]
               | INSTALL construct
               | UNINSTALL (name | var X)
    uri       := "string" | var X
"""

from __future__ import annotations

from repro.core import actions as act
from repro.core import conditions as cond
from repro.core.rules import ECARule
from repro.core.rulesets import RuleSet
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
from repro.terms.ast import Var
from repro.terms.parser import _END, _Parser, _kind

_AGG_FNS = ("count", "sum", "avg", "min", "max")


class _RuleParser(_Parser):
    """Extends the term parser with the rule grammar."""

    # -- small helpers -----------------------------------------------------------

    def _name(self) -> str:
        return self._expect_label()

    def _uri(self) -> "str | Var":
        if self._eat("var"):
            return Var(self._take("ident"))
        if _kind(self._tokens[self._index]) != "string":
            raise self._expected("a URI string or var")
        return self._take("string")

    def _number(self) -> float:
        return float(self._take("number"))

    def _int(self) -> int:
        number = self._take("number")
        try:
            return int(number)
        except ValueError as exc:
            raise self._error(f"expected an integer, found {number!r}",
                              self._index - 1) from exc

    # -- events -------------------------------------------------------------------

    def parse_event(self):
        members = [self._event_seq()]
        while self._eat("OR"):
            members.append(self._event_seq())
        return members[0] if len(members) == 1 else EOr(*members)

    def _event_seq(self):
        members = [self._event_conj()]
        has_seq = False
        while self._eat("THEN"):
            has_seq = True
            if self._eat("NOT"):
                members.append(ENot(self.parse_query()))
                if self._eat("THEN"):
                    members.append(self._event_conj())
            else:
                members.append(self._event_conj())
        return members[0] if not has_seq else ESeq(*members)

    def _event_conj(self):
        members = [self._event_prim()]
        while self._eat("AND"):
            members.append(self._event_prim())
        return members[0] if len(members) == 1 else EAnd(*members)

    def _event_prim(self):
        if self._eat("WITHIN"):
            window = self._number()
            self._expect("(")
            inner = self.parse_event()
            self._expect(")")
            return EWithin(inner, window)
        if self._eat("COUNT"):
            n = self._int()
            self._expect("OF")
            pattern = self.parse_query()
            self._expect("WITHIN")
            window = self._number()
            group = self._group_by()
            return ECount(pattern, n, window, group)
        if self._eat("AGG"):
            fn = self._take("ident")
            if fn not in _AGG_FNS:
                raise ParseError(f"unknown aggregate function {fn!r}")
            self._expect("var")
            on = self._take("ident")
            self._expect("OF")
            pattern = self.parse_query()
            size = None
            window = None
            if self._eat("LAST"):
                size = self._int()
            else:
                self._expect("WITHIN")
                window = self._number()
            self._expect("INTO")
            self._expect("var")
            into = self._take("ident")
            group = self._group_by()
            predicate = None
            if self._eat("RISE"):
                predicate = ("rise%", self._number())
            elif self._eat("WHEN"):
                op = self._take("cmp")
                predicate = (op, self._number())
            return EAggregate(pattern, on, fn, into, size=size, window=window,
                              group_by=group, predicate=predicate)
        if self._eat("("):
            inner = self.parse_event()
            self._expect(")")
            return inner
        pattern = self.parse_query()
        alias = None
        if self._eat("AS"):
            self._expect("var")
            alias = self._take("ident")
        return EAtom(pattern, alias=alias)

    def _group_by(self) -> tuple[str, ...]:
        if not self._eat("BY"):
            return ()
        self._expect("[")
        return self._children(lambda: self._take("ident"), "]")

    # -- conditions -------------------------------------------------------------------

    def parse_condition(self):
        members = [self._cond_and()]
        while self._eat("OR"):
            members.append(self._cond_and())
        return members[0] if len(members) == 1 else cond.OrCond(*members)

    def _cond_and(self):
        members = [self._cond_prim()]
        while self._eat("AND"):
            members.append(self._cond_prim())
        return members[0] if len(members) == 1 else cond.AndCond(*members)

    def _cond_prim(self):
        if self._eat("TRUE"):
            return cond.TrueCond()
        if self._eat("NOT"):
            return cond.NotCond(self._cond_prim())
        if self._eat("("):
            inner = self.parse_condition()
            self._expect(")")
            return inner
        if self._eat("IN"):
            uri = self._uri()
            self._expect(":")
            query = self.parse_query()
            return cond.QueryCond(uri, query)
        # comparison: construct op construct
        lhs = self.parse_construct()
        if _kind(self._tokens[self._index]) != "cmp":
            raise self._expected("a comparison operator")
        op = self._take("cmp")
        rhs = self.parse_construct()
        return cond.CompareCond(lhs, op, rhs)

    # -- actions -----------------------------------------------------------------------

    def parse_action(self):
        if self._eat("SEQUENCE"):
            steps = [self.parse_action()]
            while self._eat("ALSO"):
                steps.append(self.parse_action())
            self._expect("END")
            atomic = not self._eat("NONATOMIC")
            return act.Sequence(*steps, atomic=atomic)
        if self._eat("TRY"):
            options = [self.parse_action()]
            while self._eat("ELSETRY"):
                options.append(self.parse_action())
            self._expect("END")
            return act.Alternative(*options)
        if self._eat("WHEN"):
            condition = self.parse_condition()
            self._expect("THEN")
            then = self.parse_action()
            otherwise = self.parse_action() if self._eat("ELSE") else None
            self._expect("END")
            return act.Conditional(condition, then, otherwise)
        if self._eat("RAISE"):
            self._expect("TO")
            to = self._uri()
            return act.Raise(to, self.parse_construct())
        if self._eat("INSERT"):
            payload = self.parse_construct()
            self._expect("INTO")
            uri = self._uri()
            self._expect("AT")
            target = self.parse_query()
            position = "start" if self._eat("START") else "end"
            return act.Update(uri, "insert", target, payload, position)
        if self._eat("DELETE"):
            target = self.parse_query()
            self._expect("FROM")
            return act.Update(self._uri(), "delete", target)
        if self._eat("REPLACE"):
            target = self.parse_query()
            self._expect("IN")
            uri = self._uri()
            self._expect("BY")
            return act.Update(uri, "replace", target, self.parse_construct())
        if self._eat("PUT"):
            uri = self._uri()
            return act.PutResource(uri, self.parse_construct())
        if self._eat("DELETERESOURCE"):
            return act.DeleteResource(self._uri())
        if self._eat("PERSIST"):
            content = self.parse_construct()
            self._expect("INTO")
            uri = self._uri()
            root = self._name() if self._eat("ROOT") else "log"
            return act.Persist(uri, content, root)
        if self._eat("CALL"):
            name = self._name()
            args = []
            if self._eat("("):
                while not self._at(")"):
                    param = self._take("ident")
                    self._take("eq")
                    args.append((param, self.parse_construct()))
                    if not self._eat(","):
                        break
                self._expect(")")
            return act.CallProcedure(name, tuple(args))
        if self._eat("INSTALL"):
            return act.InstallRule(self.parse_construct())
        if self._eat("UNINSTALL"):
            if self._eat("var"):
                return act.UninstallRule(Var(self._take("ident")))
            return act.UninstallRule(self._name())
        raise self._expected("an action keyword")

    # -- rules -------------------------------------------------------------------------

    def parse_one_rule(self) -> ECARule:
        self._expect("RULE")
        name = self._name()
        firing = "first" if self._eat("FIRST") else "all"
        self._expect("ON")
        event = self.parse_event()
        branches = []
        otherwise = None
        while self._eat("IF"):
            condition = self.parse_condition()
            self._expect("DO")
            branches.append((condition, self.parse_action()))
        if not branches:
            self._expect("DO")
            branches.append((None, self.parse_action()))
        if self._eat("ELSE"):
            otherwise = self.parse_action()
        return ECARule(name, event, tuple(branches), otherwise, firing)

    def parse_program_items(self, toplevel: bool = True):
        """Yield rules / (name, params, action) procedures / RuleSets."""
        items = []
        while True:
            if self._at("RULE"):
                items.append(self.parse_one_rule())
            elif self._eat("PROCEDURE"):
                name = self._name()
                self._expect("(")
                params = self._children(lambda: self._take("ident"), ")")
                items.append(("procedure", name, params, self.parse_action()))
            elif self._eat("RULESET"):
                name = self._name()
                ruleset = RuleSet(name)
                for item in self.parse_program_items(toplevel=False):
                    if isinstance(item, ECARule):
                        ruleset.add(item)
                    elif isinstance(item, RuleSet):
                        child = ruleset.subset(item.name)
                        _merge_ruleset(child, item)
                    else:
                        raise ParseError("procedures must be declared at top level")
                self._expect("END")
                items.append(ruleset)
            else:
                if not toplevel:
                    return items
                if self._at(_END):
                    return items
                raise self._expected("RULE/PROCEDURE/RULESET")


def _merge_ruleset(target: RuleSet, source: RuleSet) -> None:
    for name, rule in source._rules.items():
        target.add(rule)
    for name, child in source._children.items():
        _merge_ruleset(target.subset(name), child)


def parse_rule(text: str) -> ECARule:
    """Parse a single ``RULE ...`` definition."""
    return _RuleParser(text).whole(_RuleParser.parse_one_rule)


def parse_event_query(text: str):
    """Parse the event part of a rule (the ``ON ...`` grammar) on its own.

    >>> parse_event_query('a{{ x[var X] }} THEN b{{ x[var X] }}')  # doctest: +ELLIPSIS
    ESeq(...)
    """
    return _RuleParser(text).whole(_RuleParser.parse_event)


def parse_condition(text: str):
    """Parse the condition part of a rule (the ``IF ...`` grammar) alone."""
    return _RuleParser(text).whole(_RuleParser.parse_condition)


def parse_action(text: str):
    """Parse the action part of a rule (the ``DO ...`` grammar) alone."""
    return _RuleParser(text).whole(_RuleParser.parse_action)


def parse_program(text: str) -> list:
    """Parse a whole program: rules, procedures, and rule sets.

    Returns a list whose items are :class:`ECARule`, :class:`RuleSet`, or
    ``("procedure", name, params, action)`` tuples, in source order.
    Install them on an engine with::

        for item in parse_program(src):
            if isinstance(item, tuple):
                engine.define_procedure(item[1], item[2], item[3])
            else:
                engine.install(item)
    """
    return _RuleParser(text).whole(_RuleParser.parse_program_items)

"""Serializer for the surface rule language (the parser's test oracle).

``parse_rule(rule_to_text(rule)) == rule`` for every serialisable rule
(rules with :class:`PyAction` are refused, as in the meta encoding).  The
product exchanges rules as terms (:mod:`repro.core.meta`); the text
syntax is input only, and this inverse of :mod:`repro.lang.parser` lives
beside the tests that check the parser against it.
"""

from __future__ import annotations

from repro.core import actions as act
from repro.core import conditions as cond
from repro.core.rules import ECARule
from repro.core.rulesets import RuleSet
from repro.errors import MetaError
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
from repro.terms.parser import to_text


def _uri_text(uri) -> str:
    if isinstance(uri, Var):
        return f"var {uri.name}"
    escaped = uri.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def event_to_text(query, parent: str = "top") -> str:
    """Serialise an event query; parenthesised per the grammar's precedence
    (OR lowest, THEN, then AND, then primaries)."""
    if isinstance(query, EAtom):
        text = to_text(query.pattern)
        if query.alias:
            text += f" AS var {query.alias}"
        return text
    if isinstance(query, EOr):
        text = " OR ".join(event_to_text(m, "or") for m in query.members)
        return f"( {text} )" if parent in ("and", "seq") else text
    if isinstance(query, ESeq):
        parts = []
        for member in query.members:
            if isinstance(member, ENot):
                parts.append(f"NOT {to_text(member.pattern)}")
            else:
                parts.append(event_to_text(member, "seq"))
        text = " THEN ".join(parts)
        return f"( {text} )" if parent in ("and", "seq") else text
    if isinstance(query, EAnd):
        text = " AND ".join(event_to_text(m, "and") for m in query.members)
        return f"( {text} )" if parent == "and" else text
    if isinstance(query, EWithin):
        return f"WITHIN {query.window!r} ( {event_to_text(query.query)} )"
    if isinstance(query, ECount):
        text = f"COUNT {query.n} OF {to_text(query.pattern)} WITHIN {query.window!r}"
        if query.group_by:
            text += " BY [" + ", ".join(query.group_by) + "]"
        return text
    if isinstance(query, EAggregate):
        text = f"AGG {query.fn} var {query.on} OF {to_text(query.pattern)}"
        if query.size is not None:
            text += f" LAST {query.size}"
        else:
            text += f" WITHIN {query.window!r}"
        text += f" INTO var {query.into}"
        if query.group_by:
            text += " BY [" + ", ".join(query.group_by) + "]"
        if query.predicate is not None:
            op, value = query.predicate
            if op == "rise%":
                text += f" RISE {value!r}"
            else:
                text += f" WHEN {op} {value!r}"
        return text
    raise MetaError(f"cannot serialise event query {query!r}")


def condition_to_text(condition, parent: str = "top") -> str:
    if condition is None or isinstance(condition, cond.TrueCond):
        return "TRUE"
    if isinstance(condition, cond.QueryCond):
        return f"IN {_uri_text(condition.uri)} : {to_text(condition.query)}"
    if isinstance(condition, cond.NotCond):
        return f"NOT ( {condition_to_text(condition.inner)} )"
    if isinstance(condition, cond.AndCond):
        text = " AND ".join(condition_to_text(m, "and") for m in condition.members)
        return f"( {text} )" if parent == "and" else text
    if isinstance(condition, cond.OrCond):
        text = " OR ".join(condition_to_text(m, "or") for m in condition.members)
        return f"( {text} )" if parent in ("and",) else text
    if isinstance(condition, cond.CompareCond):
        return f"{to_text(condition.lhs)} {condition.op} {to_text(condition.rhs)}"
    raise MetaError(f"cannot serialise condition {condition!r}")


def action_to_text(action, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(action, act.Sequence):
        steps = ("\n" + pad + "ALSO ").join(
            action_to_text(s, indent + 1) for s in action.actions
        )
        text = f"SEQUENCE {steps}\n{pad}END"
        if not action.atomic:
            text += " NONATOMIC"
        return text
    if isinstance(action, act.Alternative):
        options = ("\n" + pad + "ELSETRY ").join(
            action_to_text(o, indent + 1) for o in action.actions
        )
        return f"TRY {options}\n{pad}END"
    if isinstance(action, act.Conditional):
        text = (
            f"WHEN {condition_to_text(action.condition)} "
            f"THEN {action_to_text(action.then, indent + 1)}"
        )
        if action.otherwise is not None:
            text += f" ELSE {action_to_text(action.otherwise, indent + 1)}"
        return text + " END"
    if isinstance(action, act.Raise):
        return f"RAISE TO {_uri_text(action.to)} {to_text(action.term)}"
    if isinstance(action, act.Update):
        if action.kind == "insert":
            text = (
                f"INSERT {to_text(action.payload)} INTO {_uri_text(action.uri)} "
                f"AT {to_text(action.target)}"
            )
            if action.position == "start":
                text += " START"
            return text
        if action.kind == "delete":
            return f"DELETE {to_text(action.target)} FROM {_uri_text(action.uri)}"
        return (
            f"REPLACE {to_text(action.target)} IN {_uri_text(action.uri)} "
            f"BY {to_text(action.payload)}"
        )
    if isinstance(action, act.PutResource):
        return f"PUT {_uri_text(action.uri)} {to_text(action.content)}"
    if isinstance(action, act.DeleteResource):
        return f"DELETERESOURCE {_uri_text(action.uri)}"
    if isinstance(action, act.Persist):
        text = f"PERSIST {to_text(action.content)} INTO {_uri_text(action.uri)}"
        if action.root_label != "log":
            text += f" ROOT {action.root_label}"
        return text
    if isinstance(action, act.CallProcedure):
        if not action.args:
            return f"CALL {action.name}()"
        args = ", ".join(f"{name} = {to_text(value)}" for name, value in action.args)
        return f"CALL {action.name}({args})"
    if isinstance(action, act.InstallRule):
        return f"INSTALL {to_text(action.rule_term)}"
    if isinstance(action, act.UninstallRule):
        if isinstance(action.name, Var):
            return f"UNINSTALL var {action.name.name}"
        return f"UNINSTALL {action.name}"
    if isinstance(action, act.PyAction):
        raise MetaError(f"PyAction {action.label!r} has no textual form")
    raise MetaError(f"cannot serialise action {action!r}")


def rule_to_text(rule: ECARule) -> str:
    """Serialise one rule to the surface language."""
    lines = [f"RULE {rule.name}" + (" FIRST" if rule.firing == "first" else "")]
    lines.append(f"ON {event_to_text(rule.event)}")
    plain = len(rule.branches) == 1 and (
        rule.branches[0][0] is None or isinstance(rule.branches[0][0], cond.TrueCond)
    )
    if plain:
        lines.append(f"DO {action_to_text(rule.branches[0][1], 1)}")
    else:
        for branch_condition, branch_action in rule.branches:
            lines.append(f"IF {condition_to_text(branch_condition)}")
            lines.append(f"DO {action_to_text(branch_action, 1)}")
    if rule.otherwise is not None:
        lines.append(f"ELSE {action_to_text(rule.otherwise, 1)}")
    return "\n".join(lines)


def program_to_text(items: list) -> str:
    """Serialise a program (the inverse of ``parse_program``)."""
    chunks = []
    for item in items:
        if isinstance(item, ECARule):
            chunks.append(rule_to_text(item))
        elif isinstance(item, RuleSet):
            chunks.append(_ruleset_to_text(item))
        elif isinstance(item, tuple) and item and item[0] == "procedure":
            _, name, params, action = item
            chunks.append(
                f"PROCEDURE {name}({', '.join(params)}) {action_to_text(action, 1)}"
            )
        else:
            raise MetaError(f"cannot serialise program item {item!r}")
    return "\n\n".join(chunks)


def _ruleset_to_text(ruleset: RuleSet) -> str:
    lines = [f"RULESET {ruleset.name}"]
    for rule in ruleset._rules.values():
        lines.append(rule_to_text(rule))
    for child in ruleset._children.values():
        lines.append(_ruleset_to_text(child))
    lines.append("END")
    return "\n".join(lines)

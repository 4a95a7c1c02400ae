"""The rule-term encoder as four hand-written walkers (test oracle).

This is the encoder half of ``repro.core.meta`` before the format was
declared as one table.  The table-driven :func:`repro.core.meta.rule_to_term`
must produce byte-identical terms (``to_text`` of both agrees) for every
serialisable rule; ``tests/properties/test_lang_properties.py`` checks it.
"""

from __future__ import annotations

from repro.core import actions as act
from repro.core import conditions as cond
from repro.core.rules import ECARule
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
from repro.terms.ast import Data, Var
from repro.terms.parser import to_text


def _d(label: str, *children, **attrs) -> Data:
    return Data(label, tuple(children), True, tuple(sorted(attrs.items())))


def _uri_term(uri: "str | Var") -> Data:
    if isinstance(uri, Var):
        return _d("uri-var", uri.name)
    return _d("uri", uri)


# ---------------------------------------------------------------------------
# Event queries
# ---------------------------------------------------------------------------


def event_to_term(query) -> Data:
    if isinstance(query, EAtom):
        attrs = {"alias": query.alias} if query.alias else {}
        return _d("e-atom", to_text(query.pattern), **attrs)
    if isinstance(query, EAnd):
        return _d("e-and", *(event_to_term(m) for m in query.members))
    if isinstance(query, EOr):
        return _d("e-or", *(event_to_term(m) for m in query.members))
    if isinstance(query, ESeq):
        members = []
        for member in query.members:
            if isinstance(member, ENot):
                members.append(_d("e-not", to_text(member.pattern)))
            else:
                members.append(event_to_term(member))
        return _d("e-seq", *members)
    if isinstance(query, EWithin):
        return _d("e-within", event_to_term(query.query), float(query.window))
    if isinstance(query, ECount):
        return _d(
            "e-count",
            to_text(query.pattern),
            query.n,
            float(query.window),
            _d("group", *query.group_by),
        )
    if isinstance(query, EAggregate):
        children = [
            to_text(query.pattern),
            _d("on", query.on),
            _d("fn", query.fn),
            _d("into", query.into),
            _d("group", *query.group_by),
        ]
        if query.size is not None:
            children.append(_d("size", query.size))
        if query.window is not None:
            children.append(_d("window", float(query.window)))
        if query.predicate is not None:
            children.append(_d("predicate", query.predicate[0], float(query.predicate[1])))
        return _d("e-agg", *children)
    raise MetaError(f"cannot encode event query {query!r}")


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


def condition_to_term(condition) -> Data:
    if condition is None or isinstance(condition, cond.TrueCond):
        return _d("c-true")
    if isinstance(condition, cond.QueryCond):
        return _d("c-query", _uri_term(condition.uri), to_text(condition.query))
    if isinstance(condition, cond.NotCond):
        return _d("c-not", condition_to_term(condition.inner))
    if isinstance(condition, cond.AndCond):
        return _d("c-and", *(condition_to_term(m) for m in condition.members))
    if isinstance(condition, cond.OrCond):
        return _d("c-or", *(condition_to_term(m) for m in condition.members))
    if isinstance(condition, cond.CompareCond):
        return _d("c-cmp", to_text(condition.lhs), condition.op, to_text(condition.rhs))
    raise MetaError(f"cannot encode condition {condition!r}")


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def action_to_term(action) -> Data:
    if isinstance(action, act.Raise):
        return _d("a-raise", _uri_term(action.to), to_text(action.term))
    if isinstance(action, act.Update):
        children = [_uri_term(action.uri), _d("target", to_text(action.target))]
        if action.payload is not None:
            children.append(_d("payload", to_text(action.payload)))
        return _d("a-update", *children, kind=action.kind, position=action.position,
                  require=str(action.require_effect).lower())
    if isinstance(action, act.PutResource):
        return _d("a-put", _uri_term(action.uri), to_text(action.content))
    if isinstance(action, act.DeleteResource):
        return _d("a-delete-resource", _uri_term(action.uri))
    if isinstance(action, act.Persist):
        return _d("a-persist", _uri_term(action.uri), to_text(action.content),
                  root=action.root_label)
    if isinstance(action, act.Sequence):
        return _d("a-seq", *(action_to_term(a) for a in action.actions),
                  atomic=str(action.atomic).lower())
    if isinstance(action, act.Alternative):
        return _d("a-alt", *(action_to_term(a) for a in action.actions))
    if isinstance(action, act.Conditional):
        children = [condition_to_term(action.condition), action_to_term(action.then)]
        if action.otherwise is not None:
            children.append(action_to_term(action.otherwise))
        return _d("a-cond", *children)
    if isinstance(action, act.CallProcedure):
        args = [_d("arg", name, to_text(value)) for name, value in action.args]
        return _d("a-call", action.name, *args)
    if isinstance(action, act.InstallRule):
        return _d("a-install", to_text(action.rule_term))
    if isinstance(action, act.UninstallRule):
        name = action.name if isinstance(action.name, str) else None
        if name is None:
            return _d("a-uninstall", _d("uri-var", action.name.name))
        return _d("a-uninstall", name)
    if isinstance(action, act.PyAction):
        raise MetaError(
            f"PyAction {action.label!r} is not serialisable; rules containing "
            "it cannot be exchanged"
        )
    raise MetaError(f"cannot encode action {action!r}")


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def rule_to_term(rule: ECARule) -> Data:
    """Encode a whole rule as a data term (the Thesis 11 exchange format)."""
    branches = []
    for branch_condition, branch_action in rule.branches:
        branches.append(
            _d("branch", condition_to_term(branch_condition), action_to_term(branch_action))
        )
    children = [_d("on", event_to_term(rule.event)), _d("branches", *branches)]
    if rule.otherwise is not None:
        children.append(_d("else", action_to_term(rule.otherwise)))
    return _d("eca-rule", *children, name=rule.name, firing=rule.firing)

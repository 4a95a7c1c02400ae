"""Meta-programming: rules as data terms (Thesis 11).

Rules serialise to ordinary data terms and back — the same language
describes rules and data (meta-circularity), so rules can be carried in
event payloads, stored in resources, queried with the ordinary query
language, and installed on arrival with the ``InstallRule`` action.  This
is the mechanism behind reactive policy exchange (the paper's trust
negotiation scenario, reproduced in ``examples/trust_negotiation.py`` and
experiment E11).

Embedded query/construct terms are encoded in their textual syntax (the
parser round-trips, so this is loss-free); rule structure (event algebra,
conditions, actions) is encoded structurally so receivers can *query*
policies — e.g. "does this policy ever ask for my credit card number?".

The format is written down once, in ``_TABLE``: each term label names its
AST class, the class's fields in child order and its attributes with
their defaults.  One encoder and one checked decoder read the table.  A
field is ``name:shape``, and a shape is one of

- ``E`` / ``C`` / ``A`` — a nested event-query, condition or action term;
- ``q`` / ``c`` — query or construct text;
- ``u`` — a URI, ``uri{"..."}`` or ``uri-var{"X"}``; ``n`` — a rule name,
  a bare string or ``uri-var{"X"}``;
- ``s`` / ``i`` / ``f`` — a string, integer or number scalar;
- ``key{shape,...}`` — a keyed child wrapping the shapes inside it (one
  shape gives its value, several give a tuple);

with a leading ``*`` for a variadic tail and a trailing ``?`` for an
optional field (a keyed one is present iff the next child carries its
key).

Decoding contract: :func:`term_to_rule` raises :class:`MetaError` and
nothing else on a malformed term — a wrong label, arity or child kind, a
keyed child out of order, an extra child, and any library error (parse,
event-query or rule validation) raised while building the AST.  The
message names the path to the fault (``eca-rule/on/e-seq/e-atom: ...``)
and the original error is the ``__cause__``.

Rules containing :class:`~repro.core.actions.PyAction` are not
serialisable and are refused with :class:`~repro.errors.MetaError`.
"""

from __future__ import annotations

import inspect

from repro.core import actions as act
from repro.core import conditions as cond
from repro.core.rules import ECARule
from repro.errors import MetaError, ReWebError
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
from repro.terms.parser import parse_construct, parse_query, to_text

#: label -> (AST class, "field:shape ...", ((attribute, AST field, default), ...))
_TABLE = {
    "e-atom": (EAtom, "pattern:q", (("alias", "alias", None),)),
    "e-and": (EAnd, "members:*E"),
    "e-or": (EOr, "members:*E"),
    "e-seq": (ESeq, "members:*E"),
    "e-not": (ENot, "pattern:q"),
    "e-within": (EWithin, "query:E window:f"),
    "e-count": (ECount, "pattern:q n:i window:f group_by:group{*s}"),
    "e-agg": (EAggregate, "pattern:q on:on{s} fn:fn{s} into:into{s} "
                          "group_by:group{*s} size:size{i}? window:window{f}? "
                          "predicate:predicate{s,f}?"),
    "c-true": (cond.TrueCond, ""),
    "c-query": (cond.QueryCond, "uri:u query:q"),
    "c-not": (cond.NotCond, "inner:C"),
    "c-and": (cond.AndCond, "members:*C"),
    "c-or": (cond.OrCond, "members:*C"),
    "c-cmp": (cond.CompareCond, "lhs:c op:s rhs:c"),
    "a-raise": (act.Raise, "to:u term:c"),
    "a-update": (act.Update, "uri:u target:target{q} payload:payload{c}?",
                 (("kind", "kind", "insert"), ("position", "position", "end"),
                  ("require", "require_effect", False))),
    "a-put": (act.PutResource, "uri:u content:c"),
    "a-delete-resource": (act.DeleteResource, "uri:u"),
    "a-persist": (act.Persist, "uri:u content:c", (("root", "root_label", "log"),)),
    "a-seq": (act.Sequence, "actions:*A", (("atomic", "atomic", True),)),
    "a-alt": (act.Alternative, "actions:*A"),
    "a-cond": (act.Conditional, "condition:C then:A otherwise:A?"),
    "a-call": (act.CallProcedure, "name:s args:*arg{s,c}"),
    "a-install": (act.InstallRule, "rule_term:c"),
    "a-uninstall": (act.UninstallRule, "name:n"),
    "eca-rule": (ECARule, "event:on{E} branches:branches{*branch{C,A}} "
                          "otherwise:else{A}?",
                 (("name", "name", None), ("firing", "firing", "all"))),
}

#: Nested-term kind -> the label prefix of its table entries, and its name.
_KINDS = {"E": ("e-", "event query"), "C": ("c-", "condition"),
          "A": ("a-", "action"), "R": ("eca-", "rule")}

#: Scalar and text kinds -> (accepted child types, decoder, name).
_SCALARS = {"s": (str, str, "a string"), "i": (int, int, "an integer"),
            "f": ((int, float), float, "a number"),
            "q": (str, parse_query, "query text"),
            "c": (str, parse_construct, "construct text")}


def _shape(text: str) -> tuple:
    """``[*]word[{shape,...}][?]`` -> ``(word, inner shapes or None, tail)``."""
    tail = "*" if text.startswith("*") else "?" if text.endswith("?") else ""
    word, brace, body = text.strip("*?").partition("{")
    if not brace:
        return word, None, tail
    parts, depth, start = [], 0, 0
    for i, char in enumerate(body[:-1]):
        depth += (char == "{") - (char == "}")
        if char == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:-1])
    return word, tuple(_shape(part) for part in parts), tail


def _compile(cls, fields: str, attrs: tuple = ()) -> tuple:
    names, shapes = [], []
    for field in fields.split():
        name, _, shape = field.partition(":")
        names.append(name)
        shapes.append(_shape(shape))
    star = [p.name for p in inspect.signature(cls).parameters.values()
            if p.kind is p.VAR_POSITIONAL]
    return cls, tuple(names), tuple(shapes), attrs, star[0] if star else None


_SPECS = {label: _compile(*entry) for label, entry in _TABLE.items()}
_LABELS = {spec[0]: label for label, spec in _SPECS.items()}


def _d(label: str, *children, **attrs) -> Data:
    return Data(label, tuple(children), True, tuple(sorted(attrs.items())))


def _is(child, label: str) -> bool:
    return isinstance(child, Data) and child.label == label


def _encode_node(value, kind: str) -> Data:
    if kind == "C" and value is None:
        value = cond.TrueCond()
    label = _LABELS.get(type(value))
    prefix, what = _KINDS[kind]
    if label is None or not label.startswith(prefix):
        raise MetaError(f"{type(value).__name__} is not serialisable as {what}; "
                        "rules containing it cannot be exchanged")
    _cls, names, shapes, attrs, _star = _SPECS[label]
    children = _encode_fields([getattr(value, name) for name in names], shapes)
    attributes = {}
    for attr, field, _default in attrs:
        item = getattr(value, field)
        if item is not None:
            attributes[attr] = str(item).lower() if isinstance(item, bool) else item
    return _d(label, *children, **attributes)


def _encode_fields(values, shapes) -> list:
    children = []
    for value, (word, inner, tail) in zip(values, shapes):
        if tail == "*":
            children.extend(_encode(item, word, inner) for item in value)
        elif value is not None or tail != "?":
            children.append(_encode(value, word, inner))
    return children


def _encode(value, word: str, inner):
    if inner is not None:
        values = (value,) if len(inner) == 1 else value
        return _d(word, *_encode_fields(values, inner))
    if word in _KINDS:
        return _encode_node(value, word)
    if word in ("u", "n"):
        if isinstance(value, Var):
            return _d("uri-var", value.name)
        return _d("uri", value) if word == "u" else value
    if word in ("q", "c"):
        return to_text(value)
    return float(value) if word == "f" else value


def rule_to_term(rule: ECARule) -> Data:
    """Encode a whole rule as a data term (the Thesis 11 exchange format)."""
    return _encode_node(rule, "R")


def _decode_node(term, kind: str, path: str):
    prefix, what = _KINDS[kind]
    label = term.label if isinstance(term, Data) else None
    if label not in _SPECS or not label.startswith(prefix):
        raise MetaError(f"{path or '/'}: expected {what} term, got {term!r}")
    cls, names, shapes, attrs, star = _SPECS[label]
    path = f"{path}/{label}" if path else label
    try:
        kwargs = dict(zip(names, _decode_fields(term.children, shapes, path)))
        for attr, field, default in attrs:
            value = term.attr(attr)
            if value is None:
                value = default
            elif isinstance(default, bool):
                if value not in ("true", "false"):
                    raise MetaError(f"{path}: {attr}={value!r} is not true/false")
                value = value == "true"
            kwargs[field] = value
        return cls(*kwargs.pop(star, ()), **kwargs)
    except MetaError:
        raise
    except ReWebError as exc:
        raise MetaError(f"{path}: {exc}") from exc


def _decode_fields(children: tuple, shapes, path: str) -> list:
    values, i = [], 0
    for word, inner, tail in shapes:
        rest = children[i:]
        if tail == "*":
            values.append(tuple(_decode(child, word, inner, path) for child in rest))
            i = len(children)
        elif tail == "?" and not (rest and (inner is None or _is(rest[0], word))):
            values.append(None)
        elif not rest:
            raise MetaError(f"{path}: missing {word} child")
        else:
            values.append(_decode(rest[0], word, inner, path))
            i += 1
    if i < len(children):
        raise MetaError(f"{path}: unexpected child {children[i]!r}")
    return values


def _decode(child, word: str, inner, path: str):
    if inner is not None:
        if not _is(child, word):
            raise MetaError(f"{path}: expected {word}{{...}}, got {child!r}")
        values = _decode_fields(child.children, inner, f"{path}/{word}")
        return values[0] if len(inner) == 1 else tuple(values)
    if word in _KINDS:
        return _decode_node(child, word, path)
    if word in ("u", "n"):
        if isinstance(child, Data) and isinstance(child.value, str):
            if child.label == "uri-var":
                return Var(child.value)
            if child.label == "uri" and word == "u":
                return child.value
        if word == "n" and isinstance(child, str):
            return child
        what = "uri" if word == "u" else "rule name"
        raise MetaError(f"{path}: expected a {what}, got {child!r}")
    types, convert, name = _SCALARS[word]
    if isinstance(child, bool) or not isinstance(child, types):
        raise MetaError(f"{path}: expected {name}, got {child!r}")
    return convert(child)


def term_to_rule(term: Data) -> ECARule:
    """Decode a rule term; raises :class:`MetaError` on malformed input."""
    try:
        return _decode_node(term, "R", "")
    except RecursionError:
        raise MetaError("rule term nested too deeply to decode") from None

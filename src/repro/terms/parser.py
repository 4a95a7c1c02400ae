"""Textual syntax for data, query, and construct terms.

The syntax follows Xcerpt's look and feel:

- ``f[a, b]`` — ordered data term; ``f{a, b}`` — unordered data term.
- Query children braces select the matching mode: ``f[x]`` ordered total,
  ``f[[x]]`` ordered partial, ``f{x}`` unordered total, ``f{{x}}`` unordered
  partial.  A bare label in a query (``f``) matches a term labelled ``f``
  with *any* children (shorthand for ``f{{}}``); in a data term it denotes a
  leaf element (no children).
- ``var X``, ``var X -> q``, ``desc q``, ``without q``,
  ``optional q default v``, comparisons ``> 5`` / ``== var X``, and regular
  expressions ``re "pat"`` form the remaining query constructs.
- Construct terms use ``var X``, grouping ``all c`` (optionally
  ``all c order [X, Y]``), aggregations ``count(var X)`` etc., and scalar
  functions ``add(var X, 1)``.
- Attributes attach after the label: ``book @{lang="en"} {...}``.
- Labels that collide with keywords (or contain exotic characters) are
  written back-quoted: ``` `var`{...} ```.

:func:`to_text` serialises any term such that parsing the output yields an
equal term (round-trip property, tested with hypothesis).
"""

from __future__ import annotations

import re
import sys
from itertools import islice

from repro.errors import ParseError
from repro.terms.ast import (
    Agg,
    All,
    Child,
    Compare,
    Construct,
    CTerm,
    Data,
    Desc,
    Fn,
    LabelVar,
    Optional_,
    QTerm,
    Query,
    RegexMatch,
    Var,
    Without,
    is_scalar,
)

_KEYWORDS = frozenset(
    [
        "var", "desc", "without", "optional", "default", "all", "order",
        "by", "true", "false", "re",
    ]
)

_AGG_FNS = frozenset(["count", "sum", "avg", "min", "max", "first", "last"])

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


#: The four token classes with free text, as regex source.  ``_IDENT`` is
#: also what :func:`to_text` asks before writing a label bare.
_IDENT = r"[^\W\d](?:[\w.:-]*\w)?"  # no trailing '.', '-' or ':' ("X :" stays two tokens)
_STRING = r'"[^"\\]*(?:\\[ntr"\\][^"\\]*)*"'
_NUMBER = r"-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
_QUOTED = r"`[^`]*`"
_SKIP = r"(?:\s+|#[^\n]*)*"  # whitespace and comments to end of line

#: One match per token, scanned in C.  Group 1 is the token's own source
#: text; a character that starts no token leaves the group unset and
#: swallows the rest of the input, so ``findall`` ends in ``""`` exactly
#: when there is a lexical error.  The trailing skip has nothing after it
#: and the error branch cannot fail, so no input makes the scan backtrack
#: into a repetition it has already left: lexing is linear in the text.
_TOKEN = re.compile(
    rf"(?:({_IDENT}|[{{}}\[\](),@^*:;]|{_STRING}|{_NUMBER}|->|[<>=!]=|[<>=]|{_QUOTED})"
    rf"|\S[\s\S]*){_SKIP}"
)
_LEADING_SKIP = re.compile(_SKIP)
_PLAIN_IDENT = re.compile(_IDENT)
_STRING_BODY = re.compile(_STRING[:-1])  # the literal up to where it stops being one
_ESCAPED = re.compile(r"\\(.)")
_UNESCAPE = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_END = ""  # the sentinel closing every token list

_KIND = {
    **dict.fromkeys("{}[](),@^*:;", "punct"),
    **dict.fromkeys(_CMP_OPS, "cmp"),
    "->": "arrow", "=": "eq", _END: "end",
}
_BOOLS = {"true": True, "false": False}


def _kind(token: str) -> str:
    """The class of *token*: ident, qident, string, number, punct, cmp,
    arrow, eq or end.  A token is its own source text, so its class can be
    read off it — mostly off its first character."""
    kind = _KIND.get(token)
    if kind is not None:
        return kind
    first = token[0]
    if first == '"':
        return "string"
    if first == "`":
        return "qident"
    if first == "-" or first.isdecimal():
        return "number"
    return "ident"


def _value(token: str) -> str:
    """What *token* denotes: the unescaped content of a string, the inside
    of a back-quoted label, otherwise the token itself."""
    first = token[:1]
    if first == '"':
        body = token[1:-1]
        if "\\" in body:
            return _ESCAPED.sub(lambda match: _UNESCAPE[match[1]], body)
        return body
    if first == "`":
        return token[1:-1]
    return token


def _odd_start(token: str) -> bool:
    """Whether *token* starts with a character only ``str.isnumeric`` can
    name (², ½, Ⅷ).  The regex word class admits them and has no way to
    tell them from letters; they start no token."""
    first = token[:1]
    return not (first.isascii() or first.isalpha() or first.isdecimal())


def _line_of(text: str, position: int) -> int:
    return text.count("\n", 0, position) + 1


def _matches(text: str):
    """One match per token of *text*, for the positions ``findall`` drops."""
    return _TOKEN.finditer(text, _LEADING_SKIP.match(text).end())


def _lexical_error(text: str) -> ParseError:
    """Re-scan *text* for its first lexical error (the caller saw one)."""
    start = next(match.start() for match in _matches(text)
                 if match[1] is None or _odd_start(match[1]))
    line = _line_of(text, start)
    if text[start] == "`":
        return ParseError("unterminated back-quoted label", start, line)
    if text[start] == '"':
        stop = _STRING_BODY.match(text, start).end()
        if stop + 1 < len(text):  # not the closing quote, so a backslash
            return ParseError(f"bad escape \\{text[stop + 1]}", stop, line)
        return ParseError("unterminated string literal", start, line)
    return ParseError(f"unexpected character {text[start]!r}", start, line)


def _lex(text: str) -> list[str]:
    """The tokens of *text*, each its own source text, closed by ``_END``.

    Lexical errors win over syntax errors: the whole text is scanned before
    the first token is parsed.
    """
    tokens = _TOKEN.findall(text, _LEADING_SKIP.match(text).end())
    if (tokens and not tokens[-1]) or (
            not text.isascii() and any(map(_odd_start, tokens))):
        raise _lexical_error(text)
    tokens.append(_END)
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _lex(text)
        self._index = 0

    def whole(self, rule):
        """Apply grammar *rule* to the whole text: nothing may follow it,
        and hostile nesting that exhausts the stack is a parse error too."""
        try:
            result = rule(self)
        except RecursionError:
            raise ParseError(
                "nesting too deep for the parser's stack "
                f"(recursion limit {sys.getrecursionlimit()})") from None
        token = self._tokens[self._index]
        if token != _END:
            raise self._error(f"trailing input: {_value(token)!r}")
        return result

    # -- token helpers -------------------------------------------------------

    def _at(self, token: str) -> bool:
        return self._tokens[self._index] == token

    def _eat(self, token: str) -> bool:
        if self._tokens[self._index] == token:
            self._index += 1
            return True
        return False

    def _error(self, message: str, index: "int | None" = None) -> ParseError:
        """A :class:`ParseError` at token *index* (default: the current one).

        Tokens carry no positions; the text is scanned again for them,
        which only a failing parse pays for.
        """
        text = self._text
        index = self._index if index is None else index
        match = next(islice(_matches(text), index, None), None)
        position = len(text) if match is None else match.start()
        return ParseError(message, position, _line_of(text, position))

    def _expected(self, want: str) -> ParseError:
        token = self._tokens[self._index]
        return self._error(f"expected {want}, found {_value(token) or _kind(token)!r}")

    def _expect(self, token: str) -> None:
        """Consume exactly *token* (punctuation or a keyword)."""
        if self._tokens[self._index] != token:
            raise self._expected(repr(token))
        self._index += 1

    def _take(self, kind: str) -> str:
        """Consume a token of class *kind* and return its value."""
        token = self._tokens[self._index]
        if _kind(token) != kind:
            raise self._expected(repr(kind))
        self._index += 1
        return _value(token)

    def _expect_label(self) -> str:
        token = self._tokens[self._index]
        first = token[:1]
        if first == "`":
            label = token[1:-1]
        elif first.isalpha() or first == "_":
            label = token
        else:
            raise self._expected("a label")
        self._index += 1
        return label

    # -- literals ------------------------------------------------------------

    def _scalar(self) -> "Child | None":
        """Consume and return the literal at the current token, if it is one."""
        token = self._tokens[self._index]
        first = token[:1]
        if first == '"':
            value: Child = _value(token)
        elif first.isdecimal() or (first == "-" and token != "->"):
            try:
                value = float(token) if any(ch in token for ch in ".eE") else int(token)
            except ValueError:  # CPython caps the digits int() will convert
                raise self._error(f"number literal of {len(token)} characters "
                                  "is too long") from None
        else:
            value = _BOOLS.get(token)
            if value is None:
                return None
        self._index += 1
        return value

    def _attrs(self, allow_vars: bool) -> tuple[tuple[str, "str | Var"], ...]:
        """Parse ``@{k="v", k2=var X}`` (the ``@`` is already consumed)."""
        self._expect("{")
        pairs: list[tuple[str, "str | Var"]] = []
        while not self._at("}"):
            key = self._expect_label()
            self._take("eq")
            if allow_vars and self._eat("var"):
                pairs.append((key, Var(self._take("ident"))))
            else:
                pairs.append((key, self._take("string")))
            if not self._eat(","):
                break
        self._expect("}")
        return tuple(sorted(pairs, key=lambda kv: kv[0]))

    def _children(self, rule, closing: str) -> tuple:
        """``rule, rule, ... closing`` (the opening bracket is consumed)."""
        tokens = self._tokens
        children = []
        while tokens[self._index] != closing:
            children.append(rule())
            if tokens[self._index] != ",":
                break
            self._index += 1
        self._expect(closing)
        return tuple(children)

    # -- data terms ----------------------------------------------------------

    def parse_data(self) -> Child:
        # The wire's and the WAL's hot path: the helpers are spelled out.
        tokens = self._tokens
        token = tokens[self._index]
        first = token[:1]
        if first == "`":
            label = token[1:-1]
        elif (first.isalpha() or first == "_") and token not in _BOOLS:
            label = token
        else:
            value = self._scalar()
            if value is None:
                raise self._expected("a label")
            return value
        self._index += 1
        attrs: tuple[tuple[str, str], ...] = ()
        if tokens[self._index] == "@":
            self._index += 1
            attrs = self._attrs(allow_vars=False)  # type: ignore[assignment]
        token = tokens[self._index]
        if token != "[" and token != "{":
            return Data(label, (), True, attrs)
        self._index += 1
        children = self._children(self.parse_data, "]" if token == "[" else "}")
        return Data(label, children, token == "[", attrs)

    # -- query terms ----------------------------------------------------------

    def parse_query(self) -> Query:
        token = self._tokens[self._index]
        if token in _CMP_OPS:
            self._index += 1
            if self._eat("var"):
                return Compare(token, Var(self._take("ident")))
            value = self._scalar()
            if value is None:
                raise self._expected("a literal")
            return Compare(token, value)  # type: ignore[arg-type]
        if self._eat("var"):
            name = self._take("ident")
            if self._eat("->"):
                return Var(name, self.parse_query())
            return Var(name)
        if self._eat("desc"):
            return Desc(self.parse_query())
        if self._eat("without"):
            return Without(self.parse_query())
        if self._eat("optional"):
            inner = self.parse_query()
            default: Child | None = None
            if self._eat("default"):
                default = self.parse_data()
            return Optional_(inner, default)
        if self._eat("re"):
            return RegexMatch(self._take("string"))
        value = self._scalar()
        if value is not None:
            return value
        return self._qterm()

    def _qterm(self) -> QTerm:
        label: "str | LabelVar"
        if self._eat("^"):
            label = LabelVar(self._take("ident"))
        elif self._eat("*"):
            label = "*"
        else:
            label = self._expect_label()
        attrs: tuple[tuple[str, "str | Var"], ...] = ()
        if self._eat("@"):
            attrs = self._attrs(allow_vars=True)
        for opening, closing, ordered in (("{", "}", False), ("[", "]", True)):
            if self._eat(opening):
                total = not self._eat(opening)
                children = self._children(self.parse_query, closing)
                if not total:
                    self._expect(closing)
                return QTerm(label, children, ordered, total, attrs)
        # Bare label: match any children (unordered partial, no patterns).
        return QTerm(label, (), False, False, attrs)

    # -- construct terms -------------------------------------------------------

    def parse_construct(self) -> Construct:
        if self._eat("var"):
            return Var(self._take("ident"))
        if self._eat("all"):
            inner = self.parse_construct()
            order_by: tuple[str, ...] = ()
            if self._eat("order"):
                self._expect("by")
                self._expect("[")
                order_by = self._children(lambda: self._take("ident"), "]")
            return All(inner, order_by)
        value = self._scalar()
        if value is not None:
            return value
        # Label: plain, variable (^X), or function/aggregation call.
        token = self._tokens[self._index]
        if _kind(token) == "ident" and self._tokens[self._index + 1] == "(":
            return self._call()
        label: "str | Var"
        if self._eat("^"):
            label = Var(self._take("ident"))
        else:
            label = self._expect_label()
        attrs: tuple[tuple[str, "str | Var"], ...] = ()
        if self._eat("@"):
            attrs = self._attrs(allow_vars=True)
        if self._eat("{"):
            return CTerm(label, self._children(self.parse_construct, "}"), False, attrs)
        if self._eat("["):
            return CTerm(label, self._children(self.parse_construct, "]"), True, attrs)
        return CTerm(label, (), True, attrs)

    def _call(self) -> Construct:
        name = self._take("ident")
        self._expect("(")
        if name in _AGG_FNS and self._eat("var"):
            var_name = self._take("ident")
            self._expect(")")
            return Agg(name, var_name)
        return Fn(name, self._children(self.parse_construct, ")"))


# ---------------------------------------------------------------------------
# Public parse functions
# ---------------------------------------------------------------------------


def parse_data(text: str) -> Child:
    """Parse a data term (or scalar literal) from text."""
    return _Parser(text).whole(_Parser.parse_data)


def parse_query(text: str) -> Query:
    """Parse a query term from text."""
    return _Parser(text).whole(_Parser.parse_query)


def parse_construct(text: str) -> Construct:
    """Parse a construct term from text."""
    return _Parser(text).whole(_Parser.parse_construct)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def _escape_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def _is_plain_ident(label: str) -> bool:
    """Whether the lexer reads *label* back as one identifier token: asked
    of the lexer's own regex, so serialiser and lexer cannot drift."""
    return (_PLAIN_IDENT.fullmatch(label) is not None and label not in _KEYWORDS
            and (label.isascii() or not _odd_start(label)))


def _label_text(label: str) -> str:
    return label if _is_plain_ident(label) else f"`{label}`"


def _scalar_text(value: Child) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _escape_string(value)
    return repr(value)


def _attrs_text(attrs: tuple[tuple[str, object], ...]) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs:
        key_text = _label_text(key)
        if isinstance(value, Var):
            parts.append(f"{key_text}=var {value.name}")
        elif isinstance(value, Fn):
            parts.append(f"{key_text}={to_text(value)}")
        else:
            parts.append(f"{key_text}={_escape_string(str(value))}")
    return " @{" + ", ".join(parts) + "}"


def to_text(term: "Query | Construct | Child") -> str:
    """Serialise any term to parseable text (round-trip safe)."""
    if is_scalar(term):
        return _scalar_text(term)  # type: ignore[arg-type]
    if isinstance(term, Data):
        label = _label_text(term.label) + _attrs_text(term.attrs)
        if not term.children and term.ordered:
            return label
        inner = ", ".join(to_text(child) for child in term.children)
        return f"{label}[{inner}]" if term.ordered else f"{label}{{{inner}}}"
    if isinstance(term, Var):
        if term.inner is not None:
            return f"var {term.name} -> {to_text(term.inner)}"
        return f"var {term.name}"
    if isinstance(term, Desc):
        return f"desc {to_text(term.inner)}"
    if isinstance(term, Without):
        return f"without {to_text(term.inner)}"
    if isinstance(term, Optional_):
        text = f"optional {to_text(term.inner)}"
        if term.default is not None:
            text += f" default {to_text(term.default)}"
        return text
    if isinstance(term, Compare):
        rhs = f"var {term.rhs.name}" if isinstance(term.rhs, Var) else _scalar_text(term.rhs)
        return f"{term.op} {rhs}"
    if isinstance(term, RegexMatch):
        return f"re {_escape_string(term.pattern)}"
    if isinstance(term, QTerm):
        if isinstance(term.label, LabelVar):
            label = f"^{term.label.name}"
        elif term.label == "*":
            label = "*"
        else:
            label = _label_text(term.label)
        label += _attrs_text(term.attrs)
        if not term.children and not term.ordered and not term.total:
            return label
        inner = ", ".join(to_text(child) for child in term.children)
        if term.ordered:
            return f"{label}[{inner}]" if term.total else f"{label}[[{inner}]]"
        return f"{label}{{{inner}}}" if term.total else f"{label}{{{{{inner}}}}}"
    if isinstance(term, CTerm):
        if isinstance(term.label, Var):
            label = f"^{term.label.name}"
        else:
            label = _label_text(term.label)
        label += _attrs_text(term.attrs)
        if not term.children and term.ordered:
            return label
        inner = ", ".join(to_text(child) for child in term.children)
        return f"{label}[{inner}]" if term.ordered else f"{label}{{{inner}}}"
    if isinstance(term, All):
        text = f"all {to_text(term.inner)}"
        if term.order_by:
            text += " order by [" + ", ".join(term.order_by) + "]"
        return text
    if isinstance(term, Agg):
        return f"{term.fn}(var {term.var})"
    if isinstance(term, Fn):
        return f"{term.name}(" + ", ".join(to_text(arg) for arg in term.args) + ")"
    raise ParseError(f"cannot serialise {term!r}")

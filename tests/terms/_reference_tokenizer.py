"""The hand-written tokenizer ``repro.terms.parser`` used before its lexer
became one compiled regex — kept verbatim as the oracle that
``test_lexer.py`` compares the regex lexer against.  Not used by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError

_PUNCT = frozenset("{}[](),@^*:;")


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, string, number, punct, cmp, arrow, eq, end
    value: str
    position: int
    line: int


class _Tokenizer:
    """Hand-written tokenizer shared by all three term parsers."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._line = 1

    def tokens(self) -> list[_Token]:
        out = []
        while True:
            token = self._next()
            out.append(token)
            if token.kind == "end":
                return out

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._pos, self._line)

    def _next(self) -> _Token:
        text = self._text
        while self._pos < len(text):
            ch = text[self._pos]
            if ch == "\n":
                self._line += 1
                self._pos += 1
            elif ch.isspace():
                self._pos += 1
            elif ch == "#":  # comment to end of line
                while self._pos < len(text) and text[self._pos] != "\n":
                    self._pos += 1
            else:
                break
        if self._pos >= len(text):
            return _Token("end", "", self._pos, self._line)
        start, line = self._pos, self._line
        ch = text[start]
        two = text[start : start + 2]
        if two == "->":
            self._pos += 2
            return _Token("arrow", "->", start, line)
        if two in ("==", "!=", "<=", ">="):
            self._pos += 2
            return _Token("cmp", two, start, line)
        if ch in "<>":
            self._pos += 1
            return _Token("cmp", ch, start, line)
        if ch == "=":
            self._pos += 1
            return _Token("eq", "=", start, line)
        if ch in _PUNCT:
            self._pos += 1
            return _Token("punct", ch, start, line)
        if ch == '"':
            return self._string(start, line)
        if ch == "`":
            return self._quoted_ident(start, line)
        if ch.isdigit() or (ch == "-" and start + 1 < len(text) and text[start + 1].isdigit()):
            return self._number(start, line)
        if ch.isalpha() or ch == "_":
            return self._ident(start, line)
        raise self._error(f"unexpected character {ch!r}")

    def _string(self, start: int, line: int) -> _Token:
        text = self._text
        pos = start + 1
        parts: list[str] = []
        while pos < len(text):
            ch = text[pos]
            if ch == '"':
                self._pos = pos + 1
                return _Token("string", "".join(parts), start, line)
            if ch == "\\":
                if pos + 1 >= len(text):
                    break
                escape = text[pos + 1]
                mapped = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}.get(escape)
                if mapped is None:
                    raise ParseError(f"bad escape \\{escape}", pos, line)
                parts.append(mapped)
                pos += 2
            else:
                if ch == "\n":
                    self._line += 1
                parts.append(ch)
                pos += 1
        raise ParseError("unterminated string literal", start, line)

    def _quoted_ident(self, start: int, line: int) -> _Token:
        text = self._text
        pos = start + 1
        while pos < len(text) and text[pos] != "`":
            pos += 1
        if pos >= len(text):
            raise ParseError("unterminated back-quoted label", start, line)
        self._pos = pos + 1
        return _Token("qident", text[start + 1 : pos], start, line)

    def _number(self, start: int, line: int) -> _Token:
        text = self._text
        pos = start + 1 if text[start] == "-" else start
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos < len(text) and text[pos] == ".":
            pos += 1
            while pos < len(text) and text[pos].isdigit():
                pos += 1
        if pos < len(text) and text[pos] in "eE":
            probe = pos + 1
            if probe < len(text) and text[probe] in "+-":
                probe += 1
            if probe < len(text) and text[probe].isdigit():
                pos = probe
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
        self._pos = pos
        return _Token("number", text[start:pos], start, line)

    def _ident(self, start: int, line: int) -> _Token:
        text = self._text
        pos = start
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_-.:"):
            pos += 1
        # Do not swallow a trailing '.', '-', or ':' (keeps "a.b." and
        # "X :" round-trippable; namespace colons mid-ident are preserved).
        while pos > start and text[pos - 1] in ".-:":
            pos -= 1
        self._pos = pos
        return _Token("ident", text[start:pos], start, line)

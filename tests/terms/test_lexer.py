"""The regex lexer against the hand-written tokenizer it replaced.

``_reference_tokenizer.py`` is the old character-at-a-time tokenizer,
verbatim.  The lexer in ``repro.terms.parser`` must produce the same
``(kind, value, position, line)`` stream — positions and lines recovered
the way a failing parse recovers them — or the same ``ParseError``
(message, position, line), on generated terms, rule programs, their
mutations and arbitrary text.

Deliberate deviations, each pinned by a unit test below:

1. *Non-decimal digits.*  The old tokenizer took every ``str.isdigit()``
   character (``²``, ``①``) as part of a number, which ``int()`` then
   rejected with a bare ``ValueError``.  Numbers are now ``\\d`` (Unicode
   decimals, which ``int``/``float`` accept); any other digit outside a
   string, a comment or an identifier is ``unexpected character``.
2. *Back-quoted labels spanning lines.*  The old tokenizer did not count
   the newlines inside `` `a\\nb` ``, so every later token reported a line
   too low.  Lines are now the number of newlines before the token.
"""

import re
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from _reference_tokenizer import _Tokenizer
from repro.errors import FrameError, ParseError, ReproError
from repro.ingest.wire import decode_payload
from repro.lang.parser import parse_program
from repro.terms import Data, parse_construct, parse_data, parse_query, to_text
from repro.terms.parser import _Parser, _kind, _value

PARSERS = (parse_data, parse_query, parse_construct, parse_program)

CORPUS = [
    'envelope[header{sender["feed-0"], sent-at[0.0], message-id[5]}, '
    'body[tick[symbol["S72"], price[82681], seq[5]]]]',
    'a @{k="v", `odd key`="w"} [1, -2, 3.25, 1e3, -4.5E-2, true, false, "x\\ty\\"z\\\\"]',
    "f{{ var X -> g[[ desc h, without i ]], optional j default 0, re \"^a+$\" }}",
    "^L @{id=var I} { > 5, <= var X, != \"s\", * }",
    "all row[var X, count(var Y), add(var X, 1)] order by [X, Y]",
    "ns:item.part-1[ x.y, z-1 ] # trailing comment\n",
    "`back quoted`{ # comment\n `var`, b_ }",
    '# leading comment\nRULE r FIRST ON WITHIN 5.0 (a{{ k[var K] }} THEN NOT b{{ k[var K] }})\n'
    'IF IN "http://n/d" : d{{ var K }} AND var K >= 3 DO\n'
    '  SEQUENCE PUT "http://n/x" x[var K] ALSO RAISE TO var U pong{} END NONATOMIC\n'
    'ELSE CALL p (a = var K)',
    'PROCEDURE p (a, b) DELETE old{{ var a }} FROM "http://n/d"\n'
    'RULESET s RULE q ON COUNT 3 OF e WITHIN 2 BY [X] DO UNINSTALL var R END',
    'RULE g ON AGG avg var P OF t{{ p[var P] }} LAST 5 INTO var A RISE 10 DO '
    'WHEN var A > 1 THEN INSTALL rule{} ELSE PERSIST l[var A] INTO "u" ROOT log END',
]

#: Characters that sit on a lexical boundary somewhere.
EDGE_CHARS = '"\\`#\n\r\t -.:>=<!{}[](),@^*;eE+0159_aZé²½١\x1c\u2028%$&|/\''

LABELS = st.text(min_size=1, max_size=5).filter(lambda label: "`" not in label)
SCALARS = st.one_of(
    st.integers(), st.booleans(), st.text(max_size=8),
    st.text(alphabet=EDGE_CHARS, max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
)
TERMS = st.recursive(
    st.builds(lambda label: Data(label, ()), LABELS),
    lambda children: st.builds(
        lambda label, kids, ordered, attrs: Data(label, tuple(kids), ordered,
                                                 tuple(attrs.items())),
        LABELS, st.lists(st.one_of(SCALARS, children), max_size=3), st.booleans(),
        st.dictionaries(LABELS, st.text(max_size=4), max_size=2)),
    max_leaves=8,
)


@st.composite
def mutations(draw):
    """A corpus text or a serialised term with one to three characters
    deleted, inserted or replaced."""
    text = draw(st.one_of(st.sampled_from(CORPUS), TERMS.map(to_text)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        insert = draw(st.one_of(st.just(""), st.sampled_from(EDGE_CHARS)))
        text = text[:at] + insert + text[at + draw(st.integers(0, 1)):]
    return text


TEXTS = st.one_of(
    st.sampled_from(CORPUS), TERMS.map(to_text), mutations(),
    st.text(), st.text(alphabet=EDGE_CHARS, max_size=30),
)


def _reference_stream(text):
    try:
        return [(token.kind, token.value, token.position, token.line)
                for token in _Tokenizer(text).tokens()]
    except ParseError as error:
        return (str(error), error.position, error.line)


def _lexer_stream(text):
    try:
        parser = _Parser(text)
    except ParseError as error:
        return (str(error), error.position, error.line)
    stream = []
    for index, token in enumerate(parser._tokens):
        where = parser._error("", index)  # what a syntax error here would carry
        stream.append((_kind(token), _value(token), where.position, where.line))
    return stream


def _has_nondecimal_digit(text):  # deviation 1
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


_QUOTED_ACROSS_LINES = re.compile(r"`[^`\n]*\n")  # deviation 2


class TestOracle:
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_is_lexed_alike_and_parses(self, text):
        assert _lexer_stream(text) == _reference_stream(text)
        assert any(_parses(parse, text) for parse in PARSERS)

    @given(TEXTS)
    @settings(max_examples=600, deadline=None)
    def test_same_tokens_or_same_error(self, text):
        assume(not _has_nondecimal_digit(text))
        assume(not _QUOTED_ACROSS_LINES.search(text))
        assert _lexer_stream(text) == _reference_stream(text)

    @given(TERMS)
    @settings(max_examples=300, deadline=None)
    def test_any_label_round_trips(self, term):
        # One definition of "plain identifier": what to_text writes bare is
        # what the lexer reads back as one identifier.
        assert parse_data(to_text(term)) == term

    def test_label_ending_in_colon_is_quoted(self):
        # Was written bare and read back as `a` followed by `:`.
        assert to_text(Data("a:")) == "`a:`"
        assert parse_data(to_text(Data("a:", (1,)))) == Data("a:", (1,))


def _parses(parse, text):
    try:
        parse(text)
    except ParseError:
        return False
    return True


class TestDeviations:
    def test_nondecimal_digit_is_an_unexpected_character(self):
        for text, position in (("f[²]", 2), ("f[1²]", 3), ("①", 0), ("f[-²]", 2)):
            with pytest.raises(ParseError, match="unexpected character") as info:
                parse_data(text)
            assert (info.value.position, info.value.line) == (position, 1)

    def test_numeric_letters_are_still_not_token_starts(self):
        # Unchanged from the old tokenizer; here because no regex class
        # separates these from letters.
        for text in ("½", "f[Ⅷ]"):
            with pytest.raises(ParseError, match="unexpected character"):
                parse_data(text)
        assert parse_data("a½") == Data("a½")

    def test_unicode_decimals_stay_numbers(self):
        assert parse_data("f[١٢]") == Data("f", (12,))
        assert parse_data("f[-١.٥]") == Data("f", (-1.5,))

    def test_lines_after_a_label_quoted_across_lines(self):
        with pytest.raises(ParseError) as info:
            parse_data("`a\nb`[\n%")
        assert info.value.line == 3
        assert info.value.position == 7


class TestOnlyReproErrorsLeave:
    @given(TEXTS)
    @settings(max_examples=600, deadline=None)
    def test_hostile_text(self, text):
        for parse in PARSERS:
            try:
                parse(text)
            except ReproError:
                pass
        try:
            decode_payload(text.encode("utf-8"))
        except FrameError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_hostile_bytes(self, payload):
        try:
            decode_payload(payload)
        except FrameError:
            pass

    @pytest.mark.parametrize("parse", PARSERS)
    def test_nesting_beyond_the_stack_is_a_parse_error(self, parse):
        deep = "f[" * 2000 + "]" * 2000
        text = f'RULE r ON {deep} DO PUT "u" x' if parse is parse_program else deep
        with pytest.raises(ParseError, match="nesting too deep .*recursion limit"):
            parse(text)

    def test_nesting_beyond_the_stack_on_the_wire(self):
        with pytest.raises(FrameError, match="nesting too deep"):
            decode_payload(("f[" * 2000 + "]" * 2000).encode())

    def test_number_too_long_for_int(self):
        with pytest.raises(ParseError, match="too long"):
            parse_data("f[" + "7" * 10_000 + "]")


class TestLinearTime:
    #: Each scan of 1 MiB takes tens of milliseconds; a regex that
    #: backtracked catastrophically would not finish in a lifetime.
    BOUND_S = 10.0

    @pytest.mark.parametrize("unit", [
        " ", "\n", '"\\', '"\\\\', "[", "#", "`", "a:", "a-", "a.", "1e", "-", '"', "=", "a ",
    ])
    def test_a_mebibyte_of(self, unit):
        text = unit * ((1 << 20) // len(unit))
        started = time.monotonic()
        for parse in PARSERS:
            try:
                parse(text)
            except ReproError:
                pass
        for affix in ("x[", '"'):  # the same run between an opening and the end
            with pytest.raises(ReproError):
                parse_data(affix + text)
        assert time.monotonic() - started < self.BOUND_S

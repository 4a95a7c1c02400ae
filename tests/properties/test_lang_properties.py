"""Property-based round-trip tests for the rule language and rule terms.

hypothesis generates random (valid) rules over the full AST — event
algebra, conditions, actions — and requires
``parse_rule(rule_to_text(rule)) == rule`` (``rule_to_text`` is the
test-side serializer in ``tests/_rule_text.py``) and the meta-encoding
equivalent ``term_to_rule(rule_to_term(rule)) == rule``, with the term
byte-identical to the one the hand-written encoder in
``tests/_meta_oracle.py`` builds.  A fixed-seed budget of structural
mutations checks the decoder's contract: a hostile rule term raises
:class:`MetaError` and nothing else.
"""

import random
import string

from hypothesis import given, settings, strategies as st

import _meta_oracle
from _rule_text import rule_to_text

from repro.core import actions as act
from repro.core import conditions as cond
from repro.core.meta import rule_to_term, term_to_rule
from repro.core.rules import ECARule
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
from repro.errors import MetaError
from repro.lang import parse_rule
from repro.terms import CTerm, QTerm, Var
from repro.terms.ast import Data
from repro.terms.parser import to_text

LABELS = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=6)
VARS = st.sampled_from(["X", "Y", "Z", "W"])
URIS = st.sampled_from(["http://a.example/d", "http://b.example/log"])
WINDOWS = st.sampled_from([1.0, 5.0, 60.0])


def patterns():
    leaf = st.one_of(
        LABELS.map(lambda l: QTerm(l, (), False, False)),
        st.tuples(LABELS, VARS).map(
            lambda t: QTerm(t[0], (Var(t[1]),), False, False)),
    )
    return st.one_of(
        leaf,
        st.tuples(LABELS, st.lists(leaf, min_size=1, max_size=2)).map(
            lambda t: QTerm(t[0], tuple(t[1]), False, False)),
    )


def atoms():
    return st.one_of(
        patterns().map(EAtom),
        st.tuples(patterns(), VARS).map(lambda t: EAtom(t[0], alias=t[1])),
    )


def event_queries():
    simple = atoms()
    members = st.lists(simple, min_size=2, max_size=3)
    composite = st.one_of(
        members.map(lambda ms: EAnd(*ms)),
        members.map(lambda ms: EOr(*ms)),
        members.map(lambda ms: ESeq(*ms)),
        st.tuples(simple, WINDOWS).map(lambda t: EWithin(t[0], t[1])),
        st.tuples(members, patterns(), WINDOWS).map(
            lambda t: EWithin(ESeq(t[0][0], ENot(t[1]), *t[0][1:]), t[2])),
        st.tuples(patterns(), st.integers(2, 5), WINDOWS).map(
            lambda t: ECount(t[0], t[1], t[2])),
        st.tuples(patterns(), VARS, st.sampled_from(["avg", "sum", "max"]),
                  st.integers(2, 6)).map(
            lambda t: EAggregate(t[0], t[1], t[2], "OUT", size=t[3])),
    )
    return st.one_of(simple, composite,
                     st.tuples(composite, WINDOWS).map(lambda t: EWithin(t[0], t[1])))


def constructs():
    """Structured construct terms (CTerm roots, as actions require)."""
    leaf = st.one_of(
        VARS.map(Var),
        st.integers(-100, 100),
        LABELS.map(lambda l: CTerm(l, ())),
    )
    return st.one_of(
        LABELS.map(lambda l: CTerm(l, ())),
        st.tuples(LABELS, st.lists(leaf, min_size=1, max_size=3)).map(
            lambda t: CTerm(t[0], tuple(t[1]), False)),
    )


def conditions():
    query_cond = st.tuples(URIS, patterns()).map(lambda t: cond.QueryCond(*t))
    compare = st.tuples(VARS.map(Var), st.sampled_from(["<", ">=", "=="]),
                        st.integers(-10, 10)).map(
        lambda t: cond.CompareCond(t[0], t[1], t[2]))
    simple = st.one_of(st.just(cond.TrueCond()), query_cond, compare)
    return st.one_of(
        simple,
        st.lists(simple, min_size=2, max_size=3).map(lambda ms: cond.AndCond(*ms)),
        st.lists(simple, min_size=2, max_size=2).map(lambda ms: cond.OrCond(*ms)),
        simple.map(cond.NotCond),
    )


def actions():
    raise_ = st.tuples(URIS, constructs()).map(lambda t: act.Raise(*t))
    persist = st.tuples(URIS, constructs()).map(lambda t: act.Persist(t[0], t[1]))
    put = st.tuples(URIS, constructs()).map(lambda t: act.PutResource(*t))
    update = st.tuples(URIS, patterns(), constructs()).map(
        lambda t: act.Update(t[0], "replace", t[1], t[2]))
    delete = st.tuples(URIS, patterns()).map(
        lambda t: act.Update(t[0], "delete", t[1]))
    simple = st.one_of(raise_, persist, put, update, delete)
    return st.one_of(
        simple,
        st.lists(simple, min_size=2, max_size=3).map(lambda ss: act.Sequence(*ss)),
        st.lists(simple, min_size=2, max_size=2).map(lambda ss: act.Alternative(*ss)),
        st.tuples(conditions(), simple, simple).map(
            lambda t: act.Conditional(t[0], t[1], t[2])),
    )


def rules():
    return st.tuples(
        st.text(alphabet=string.ascii_lowercase, min_size=3, max_size=8),
        event_queries(),
        st.lists(st.tuples(conditions(), actions()), min_size=1, max_size=2),
        st.one_of(st.none(), actions()),
        st.sampled_from(["all", "first"]),
    ).map(lambda t: ECARule(t[0], t[1], tuple(t[2]), t[3], t[4]))


@given(rules())
@settings(max_examples=250, deadline=None)
def test_surface_language_round_trip(rule):
    assert parse_rule(rule_to_text(rule)) == rule


@given(rules())
@settings(max_examples=250, deadline=None)
def test_meta_encoding_round_trip(rule):
    term = rule_to_term(rule)
    assert to_text(term) == to_text(_meta_oracle.rule_to_term(rule))
    assert term_to_rule(term) == rule


@given(rules())
@settings(max_examples=100, deadline=None)
def test_encodings_compose(rule):
    # text -> rule -> term -> rule -> text is stable.
    term = rule_to_term(parse_rule(rule_to_text(rule)))
    assert rule_to_text(term_to_rule(term)) == rule_to_text(rule)


# Rules that between them use every label of the rule-term encoding.
MUTATION_SEEDS = [
    '''RULE flight FIRST
       ON WITHIN 2.0 ( cancel{{ f[var F] }} AS var E THEN NOT rebook{{ f[var F] }}
                       THEN ( a AND b ) OR c )
       IF IN var U : doc{{ q[var Q] }} AND NOT ( var Q >= 3 OR TRUE )
       DO SEQUENCE
            INSERT n[var Q] INTO "http://n.example/d" AT doc
            ALSO TRY DELETE old FROM "http://n.example/d"
                 ELSETRY RAISE TO var U warn{ var E }
                 END
            ALSO WHEN TRUE THEN PUT "http://n.example/f" f{}
                 ELSE DELETERESOURCE "http://n.example/f" END
          END NONATOMIC
       ELSE CALL page(WHO = var F)''',
    '''RULE stock
       ON AGG avg var P OF stock{{ p[var P] }} LAST 5 INTO var A BY [S] RISE 5.0
       IF var A > 10 DO PERSIST note{ var A } INTO "http://n.example/log" ROOT notes
       IF TRUE DO INSTALL var R
       ELSE UNINSTALL stock''',
    '''RULE counted
       ON COUNT 3 OF outage{{ s[var S] }} WITHIN 60.0 BY [S]
          OR AGG max var P OF p{{ v[var P] }} WITHIN 10.0 INTO var M WHEN > 3.0
       DO WHEN IN "http://n.example/d" : d THEN UNINSTALL var S END''',
]


def _labels(term) -> set:
    out = {term.label}
    for child in term.children:
        if isinstance(child, Data):
            out |= _labels(child)
    return out


def _mutate(term: Data, path: tuple, rng: random.Random, labels: list) -> Data:
    """Drop or duplicate one child of the node at *path*, or relabel it."""
    children = list(term.children)
    label = term.label
    if path:
        children[path[0]] = _mutate(children[path[0]], path[1:], rng, labels)
    else:
        edit = rng.choice(("drop", "duplicate", "relabel"))
        if edit == "relabel" or not children:
            label = rng.choice(labels)
        elif edit == "drop":
            del children[rng.randrange(len(children))]
        else:
            i = rng.randrange(len(children))
            children.insert(i, children[i])
    return Data(label, tuple(children), term.ordered, term.attrs)


def _paths(term: Data, path: tuple = ()) -> list:
    out = [path]
    for i, child in enumerate(term.children):
        if isinstance(child, Data):
            out += _paths(child, path + (i,))
    return out


def test_hostile_rule_terms_raise_meta_error_only():
    rng = random.Random(0)
    seeds = [rule_to_term(parse_rule(text)) for text in MUTATION_SEEDS]
    labels = sorted(set().union(*map(_labels, seeds)))
    decoded = 0
    for _ in range(5000):
        term = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            term = _mutate(term, rng.choice(_paths(term)), rng, labels)
        try:
            rule = term_to_rule(term)
        except MetaError:
            continue
        decoded += 1
        assert term_to_rule(rule_to_term(rule)) == rule
    assert decoded > 0  # the budget reaches past the first refusal
    # The seeds cover what the generator above does not (CALL, INSTALL,
    # UNINSTALL, windowed aggregates): their bytes match the oracle too.
    assert [to_text(term) for term in seeds] == [
        to_text(_meta_oracle.rule_to_term(parse_rule(text)))
        for text in MUTATION_SEEDS]

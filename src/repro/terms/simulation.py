"""Simulation unification: matching query terms against data terms.

This is the query-evaluation core of the library (Thesis 7).  ``match``
returns *all* ways a query term simulates into a data term, each as a
:class:`~repro.terms.ast.Bindings`; an empty list means no match, a list
containing the empty binding set means a match that bound no variables.

Matching modes (set per query term) follow Xcerpt:

====================  =======================================================
mode                  children semantics
====================  =======================================================
ordered, total        query children match data children exactly, in order
ordered, partial      query children match an order-preserving subsequence
unordered, total      bijection between query children and data children
unordered, partial    injection from query children into data children
====================  =======================================================

``without`` (subterm negation) asserts that *no* child of the matched data
term matches the negated pattern; it is evaluated after the positive
children, under the bindings they produced.  ``optional`` prefers presence:
the absent branch (with its declared defaults) is taken only when no overall
match consumes a child for it.

Two entry points evaluate a pattern:

- :func:`match` / :func:`matches` — the interpreted tree-walk;
- :func:`compile_pattern` — compiles a pattern *once* into a closure that
  front-loads ground-constant checks (root label, constant attributes,
  required constant children) as direct comparisons, so the common
  non-matching candidate is rejected without recursion or binding
  allocation; all-constant patterns never fall back to the tree-walk at
  all.  The closure returns exactly what ``match`` returns (the property
  suite fuzzes the equivalence).

Both entry points bump a call counter (:func:`matcher_call_count`) that
engines snapshot around evaluator calls to attribute matching work to
dispatch (``EngineStats.matcher_calls``).  The counter is *thread-local*:
simulations driven from different threads of one process match
concurrently, and each engine's before/after delta must see only its own
thread's calls — a shared global would double-count across them and tear
under concurrent increments.
"""

from __future__ import annotations

import re
import threading
from functools import lru_cache
from typing import Callable, Iterator

from repro.errors import QueryError
from repro.terms.ast import (
    Bindings,
    Child,
    Compare,
    Data,
    Desc,
    EMPTY_BINDINGS,
    LabelVar,
    Optional_,
    QTerm,
    Query,
    RegexMatch,
    Var,
    Without,
    is_scalar,
    values_equal,
)


class _MatcherCounter(threading.local):
    """Per-thread matcher-call tally (fresh zero in every thread)."""

    def __init__(self) -> None:
        self.n = 0


_matcher_calls = _MatcherCounter()


def matcher_call_count() -> int:
    """Total matcher invocations (interpreted and compiled) on this thread.

    Monotonic per thread; engines snapshot it around evaluator calls to
    compute the per-dispatch delta for ``EngineStats.matcher_calls`` —
    thread-local so concurrent simulations never see each other's calls.
    """
    return _matcher_calls.n


def match(query: Query, data: Child, bindings: Bindings = EMPTY_BINDINGS) -> list[Bindings]:
    """Return every binding set under which *query* matches *data*.

    The result is deduplicated and order-stable (first-derivation order).
    """
    _matcher_calls.n += 1
    return _collect(query, data, bindings)


def matches(query: Query, data: Child, bindings: Bindings = EMPTY_BINDINGS) -> bool:
    """Return True if *query* matches *data* at least one way."""
    _matcher_calls.n += 1
    for _ in _match(query, data, bindings):
        return True
    return False


def _collect(query: Query, data: Child, bindings: Bindings) -> list[Bindings]:
    """Deduplicated, order-stable derivations (shared by match/compiled)."""
    seen: set[Bindings] = set()
    result: list[Bindings] = []
    for b in _match(query, data, bindings):
        if b not in seen:
            seen.add(b)
            result.append(b)
    return result


@lru_cache(maxsize=512)
def _compiled(pattern: str) -> "re.Pattern[str]":
    return re.compile(pattern)


def _match(query: Query, data: Child, b: Bindings) -> Iterator[Bindings]:
    """Yield binding extensions (possibly with duplicates)."""
    if is_scalar(query):
        if is_scalar(data) and values_equal(query, data):  # type: ignore[arg-type]
            yield b
        return

    if isinstance(query, Data):
        if values_equal(query, data):
            yield b
        return

    if isinstance(query, Var):
        yield from _match_var(query, data, b)
        return

    if isinstance(query, Desc):
        yield from _match_desc(query, data, b)
        return

    if isinstance(query, Compare):
        if _compare_holds(query, data, b):
            yield b
        return

    if isinstance(query, RegexMatch):
        if isinstance(data, str) and _compiled(query.pattern).fullmatch(data):
            yield b
        return

    if isinstance(query, Without):
        if not matches(query.inner, data, b):
            yield b
        return

    if isinstance(query, Optional_):
        matched = False
        for b2 in _match(query.inner, data, b):
            matched = True
            yield b2
        if not matched:
            yield _bind_optional_default(query, b)
        return

    if isinstance(query, QTerm):
        yield from _match_qterm(query, data, b)
        return

    raise QueryError(f"not a query term: {query!r}")


def _match_var(query: Var, data: Child, b: Bindings) -> Iterator[Bindings]:
    bound = query.name in b
    if bound:
        if not values_equal(b[query.name], data):
            return
        if query.inner is None:
            yield b
        else:
            yield from _match(query.inner, data, b)
        return
    if query.inner is None:
        extended = b.bind(query.name, data)
        if extended is not None:
            yield extended
        return
    for b2 in _match(query.inner, data, b):
        extended = b2.bind(query.name, data)
        if extended is not None:
            yield extended


def _match_desc(query: Desc, data: Child, b: Bindings) -> Iterator[Bindings]:
    yield from _match(query.inner, data, b)
    if isinstance(data, Data):
        for child in data.children:
            yield from _match_desc(query, child, b)


def _compare_holds(query: Compare, data: Child, b: Bindings) -> bool:
    if not is_scalar(data):
        return False
    rhs = query.rhs
    if isinstance(rhs, Var):
        if rhs.name not in b:
            raise QueryError(
                f"comparison references unbound variable {rhs.name!r}; "
                "comparisons are evaluated after positive patterns"
            )
        rhs = b[rhs.name]  # type: ignore[assignment]
        if not is_scalar(rhs):
            return False
    if query.op == "==":
        return values_equal(data, rhs)  # type: ignore[arg-type]
    if query.op == "!=":
        return not values_equal(data, rhs)  # type: ignore[arg-type]
    # Ordering comparisons: numbers with numbers (bool excluded), str with str.
    left_num = isinstance(data, (int, float)) and not isinstance(data, bool)
    right_num = isinstance(rhs, (int, float)) and not isinstance(rhs, bool)
    if left_num and right_num:
        pass
    elif isinstance(data, str) and isinstance(rhs, str):
        pass
    else:
        return False
    if query.op == "<":
        return data < rhs  # type: ignore[operator]
    if query.op == "<=":
        return data <= rhs  # type: ignore[operator]
    if query.op == ">":
        return data > rhs  # type: ignore[operator]
    return data >= rhs  # type: ignore[operator]


def _bind_optional_default(query: Optional_, b: Bindings) -> Bindings:
    """Bind the optional's variable to its default when the child is absent."""
    inner = query.inner
    if query.default is not None and isinstance(inner, Var) and inner.name not in b:
        extended = b.bind(inner.name, query.default)
        if extended is not None:
            return extended
    return b


def _match_qterm(query: QTerm, data: Child, b: Bindings) -> Iterator[Bindings]:
    if not isinstance(data, Data):
        return
    # Label.
    if isinstance(query.label, LabelVar):
        extended = b.bind(query.label.name, data.label)
        if extended is None:
            return
        b = extended
    elif query.label != "*" and query.label != data.label:
        return
    # Attributes (always partial).
    for key, want in query.attrs:
        have = data.attr(key)
        if have is None:
            return
        if isinstance(want, Var):
            extended = b.bind(want.name, have)
            if extended is None:
                return
            b = extended
        elif want != have:
            return
    # Children.
    positives = [c for c in query.children if not isinstance(c, Without)]
    withouts = [c for c in query.children if isinstance(c, Without)]
    if query.ordered:
        if query.total:
            candidate_iter = _seq_total(positives, data.children, 0, 0, b)
        else:
            candidate_iter = _seq_partial(positives, data.children, 0, 0, b)
    else:
        candidate_iter = _unordered(positives, data.children, 0, frozenset(), b, query.total)
    for b2 in candidate_iter:
        if _withouts_hold(withouts, data.children, b2):
            yield b2


def _seq_total(
    qs: list[Query], ds: tuple[Child, ...], qi: int, di: int, b: Bindings
) -> Iterator[Bindings]:
    """Ordered total: consume every data child, in order."""
    if qi == len(qs):
        if di == len(ds):
            yield b
        return
    head = qs[qi]
    if isinstance(head, Optional_):
        produced = False
        if di < len(ds):
            for b2 in _match(head.inner, ds[di], b):
                for out in _seq_total(qs, ds, qi + 1, di + 1, b2):
                    produced = True
                    yield out
        if not produced:
            yield from _seq_total(qs, ds, qi + 1, di, _bind_optional_default(head, b))
        return
    if di >= len(ds):
        return
    for b2 in _match(head, ds[di], b):
        yield from _seq_total(qs, ds, qi + 1, di + 1, b2)


def _seq_partial(
    qs: list[Query], ds: tuple[Child, ...], qi: int, di: int, b: Bindings
) -> Iterator[Bindings]:
    """Ordered partial: match an order-preserving subsequence."""
    if qi == len(qs):
        yield b
        return
    head = qs[qi]
    if isinstance(head, Optional_):
        produced = False
        for j in range(di, len(ds)):
            for b2 in _match(head.inner, ds[j], b):
                for out in _seq_partial(qs, ds, qi + 1, j + 1, b2):
                    produced = True
                    yield out
        if not produced:
            yield from _seq_partial(qs, ds, qi + 1, di, _bind_optional_default(head, b))
        return
    for j in range(di, len(ds)):
        for b2 in _match(head, ds[j], b):
            yield from _seq_partial(qs, ds, qi + 1, j + 1, b2)


def _unordered(
    qs: list[Query],
    ds: tuple[Child, ...],
    qi: int,
    used: frozenset[int],
    b: Bindings,
    total: bool,
) -> Iterator[Bindings]:
    """Unordered: injective (partial) or bijective (total) assignment."""
    if qi == len(qs):
        if not total or len(used) == len(ds):
            yield b
        return
    head = qs[qi]
    if isinstance(head, Optional_):
        produced = False
        for j, child in enumerate(ds):
            if j in used:
                continue
            for b2 in _match(head.inner, child, b):
                for out in _unordered(qs, ds, qi + 1, used | {j}, b2, total):
                    produced = True
                    yield out
        if not produced:
            yield from _unordered(qs, ds, qi + 1, used, _bind_optional_default(head, b), total)
        return
    for j, child in enumerate(ds):
        if j in used:
            continue
        for b2 in _match(head, child, b):
            yield from _unordered(qs, ds, qi + 1, used | {j}, b2, total)


def _withouts_hold(withouts: list[Without], ds: tuple[Child, ...], b: Bindings) -> bool:
    """Negated siblings: no data child may match any negated pattern."""
    for negated in withouts:
        for child in ds:
            if matches(negated.inner, child, b):
                return False
    return True


# ---------------------------------------------------------------------------
# Compiled pattern matchers
# ---------------------------------------------------------------------------

#: A compiled pattern: ``fn(data, bindings) -> list[Bindings]``, exactly
#: :func:`match`'s result for the pattern it was compiled from.
CompiledMatcher = Callable[..., "list[Bindings]"]


def scalar_key(value) -> tuple[bool, object]:
    """Hash/equality key with :func:`values_equal` semantics for scalars.

    ``1`` and ``1.0`` share a key (Python's cross-type numeric equality is
    exact); booleans are segregated from their int values; strings never
    collide with numbers.
    """
    return (isinstance(value, bool), value)


def _may_raise(query: Query) -> bool:
    """Whether evaluating *query* can raise instead of failing cleanly.

    ``Compare`` with an unbound variable rhs raises :class:`QueryError`;
    ``RegexMatch`` may raise on an invalid pattern (compiled lazily).
    Guards must not pre-empt such raises with a silent non-match, so
    child-level guards are disabled for patterns containing these forms.
    """
    if isinstance(query, Compare):
        return isinstance(query.rhs, Var)
    if isinstance(query, RegexMatch):
        return True
    if isinstance(query, (Desc, Without, Optional_)):
        return _may_raise(query.inner)
    if isinstance(query, Var):
        return query.inner is not None and _may_raise(query.inner)
    if isinstance(query, QTerm):
        return any(_may_raise(child) for child in query.children)
    return False


def child_value_requirement(child: Query) -> "tuple[str, object] | None":
    """``(label, scalar)`` a non-optional query child forces on the data.

    The single source of the "constant child value" necessary condition:
    both the compiled matcher guards here and the dispatch discriminators
    (:func:`repro.events.queries.pattern_discriminators`) derive from it,
    so the index can never require a constant the matcher does not.
    """
    if isinstance(child, Var) and child.inner is not None:
        return child_value_requirement(child.inner)
    if (
        isinstance(child, QTerm)
        and isinstance(child.label, str)
        and child.label != "*"
        and len(child.children) == 1
        and is_scalar(child.children[0])
    ):
        return (child.label, child.children[0])
    return None


def _child_label_requirement(child: Query) -> "str | None":
    """A constant child label a non-optional query child forces."""
    if isinstance(child, Var) and child.inner is not None:
        return _child_label_requirement(child.inner)
    if isinstance(child, QTerm) and isinstance(child.label, str) and child.label != "*":
        return child.label
    return None


#: repr-keyed memo: Python's dataclass equality conflates patterns that
#: differ only by bool/int/float scalar type (``q("a", 1) == q("a", True)``)
#: whereas matching (values_equal) keeps bool distinct — so the cache key
#: must be the type-faithful repr, not the pattern's own equality.
_COMPILED: "dict[str, tuple[CompiledMatcher, Callable[..., bool]]]" = {}
_COMPILED_LIMIT = 2048


def compile_pattern(query: Query) -> CompiledMatcher:
    """Compile *query* into a closure equivalent to ``match(query, ...)``.

    The closure specialises ground-constant checks into direct
    comparisons, evaluated before any recursion or binding allocation:

    - scalar and ground data-term patterns compare by value and never
      recurse;
    - structured patterns front-load *necessary* conditions — root label,
      constant attribute values, child-count bounds, required constant
      scalar children and required child labels — and reject mismatching
      candidates immediately;
    - patterns whose children are all constant scalars (any matching
      mode) are decided entirely by the compiled form;
    - anything that survives the guards falls back to the interpreted
      tree-walk, so the full simulation semantics (and its exceptions,
      e.g. unbound comparison variables) are preserved exactly.

    Results are memoised per pattern (patterns are immutable), so repeated
    compilation — e.g. the naive evaluator re-entering per event — is a
    cache hit.
    """
    return _compiled_pair(query)[0]


def compile_matches(query: Query) -> "Callable[..., bool]":
    """Boolean companion of :func:`compile_pattern` (≡ ``matches``).

    Same guards, but the interpreted fallback stops at the *first*
    derivation instead of collecting them all — the right form for
    existence checks (absence blockers), where a variable-rich pattern
    against a wide term can otherwise enumerate thousands of bindings
    only to be thrown away.
    """
    return _compiled_pair(query)[1]


def _compiled_pair(query: Query):
    key = repr(query)
    pair = _COMPILED.get(key)
    if pair is None:
        if len(_COMPILED) >= _COMPILED_LIMIT:
            _COMPILED.clear()
        pair = _build_matchers(query)
        _COMPILED[key] = pair
    return pair


def _build_matchers(query: Query):
    if is_scalar(query):
        def match_scalar(data: Child, bindings: Bindings = EMPTY_BINDINGS) -> list[Bindings]:
            _matcher_calls.n += 1
            if is_scalar(data) and values_equal(query, data):  # type: ignore[arg-type]
                return [bindings]
            return []
        return match_scalar, lambda data, bindings=EMPTY_BINDINGS: bool(
            match_scalar(data, bindings))

    if isinstance(query, Data):
        def match_ground(data: Child, bindings: Bindings = EMPTY_BINDINGS) -> list[Bindings]:
            _matcher_calls.n += 1
            return [bindings] if values_equal(query, data) else []
        return match_ground, lambda data, bindings=EMPTY_BINDINGS: bool(
            match_ground(data, bindings))

    if isinstance(query, QTerm):
        return _compile_qterm(query)

    def match_fallback(data: Child, bindings: Bindings = EMPTY_BINDINGS) -> list[Bindings]:
        _matcher_calls.n += 1
        return _collect(query, data, bindings)

    def matches_fallback(data: Child, bindings: Bindings = EMPTY_BINDINGS) -> bool:
        _matcher_calls.n += 1
        for _ in _match(query, data, bindings):
            return True
        return False
    return match_fallback, matches_fallback


def _compile_qterm(query: QTerm):
    label = query.label if isinstance(query.label, str) and query.label != "*" else None
    if isinstance(query.label, LabelVar):
        label = None
    const_attrs = tuple((k, v) for k, v in query.attrs if isinstance(v, str))

    positives = [c for c in query.children if not isinstance(c, Without)]
    scalar_children = tuple(c for c in positives if is_scalar(c))
    all_scalar = (
        len(scalar_children) == len(query.children)  # no Without/Optional either
    )
    guard_children = not _may_raise(query)
    min_children = sum(1 for c in positives if not isinstance(c, Optional_))
    max_children = len(positives) if query.total else None
    need_scalars: dict[tuple[bool, object], int] = {}
    for child in scalar_children:
        key = scalar_key(child)
        need_scalars[key] = need_scalars.get(key, 0) + 1
    need_values = []
    need_labels = []
    ground_children = []
    for child in positives:
        if is_scalar(child):
            continue
        if isinstance(child, Data):
            ground_children.append(child)
            continue
        requirement = child_value_requirement(child)
        if requirement is not None:
            need_values.append(requirement)
            continue
        child_label = _child_label_requirement(child)
        if child_label is not None:
            need_labels.append(child_label)

    def guards_hold(data: Data) -> bool:
        ds = data.children
        n = len(ds)
        if n < min_children:
            return False
        if max_children is not None and n > max_children:
            return False
        if need_scalars:
            have: dict[tuple[bool, object], int] = {}
            for dc in ds:
                if is_scalar(dc):
                    key = scalar_key(dc)
                    have[key] = have.get(key, 0) + 1
            for key, needed in need_scalars.items():
                if have.get(key, 0) < needed:
                    return False
        for child_label, value in need_values:
            if not any(
                isinstance(dc, Data) and dc.label == child_label
                and any(is_scalar(gc) and values_equal(gc, value) for gc in dc.children)
                for dc in ds
            ):
                return False
        for child_label in need_labels:
            if not any(isinstance(dc, Data) and dc.label == child_label for dc in ds):
                return False
        for ground in ground_children:
            if not any(values_equal(ground, dc) for dc in ds):
                return False
        return True

    if label is not None and all_scalar and guard_children:
        # Fully decidable: constant label, all children constant scalars.
        # Attributes (constant or binding) are handled inline; the result
        # is [extended bindings] or [] with no interpreted fallback.
        attrs = query.attrs
        ordered, total = query.ordered, query.total
        scalars = scalar_children

        def match_compiled(data: Child, bindings: Bindings = EMPTY_BINDINGS) -> list[Bindings]:
            _matcher_calls.n += 1
            if not isinstance(data, Data) or data.label != label:
                return []
            b = bindings
            for key, want in attrs:
                have = data.attr(key)
                if have is None:
                    return []
                if isinstance(want, Var):
                    extended = b.bind(want.name, have)
                    if extended is None:
                        return []
                    b = extended
                elif want != have:
                    return []
            ds = data.children
            if ordered and total:
                if len(ds) != len(scalars):
                    return []
                for qc, dc in zip(scalars, ds):
                    if not (is_scalar(dc) and values_equal(qc, dc)):
                        return []
                return [b]
            if ordered:  # order-preserving subsequence of constants
                position = 0
                for qc in scalars:
                    while position < len(ds) and not (
                        is_scalar(ds[position]) and values_equal(qc, ds[position])
                    ):
                        position += 1
                    if position == len(ds):
                        return []
                    position += 1
                return [b]
            have: dict[tuple[bool, object], int] = {}
            for dc in ds:
                if is_scalar(dc):
                    key = scalar_key(dc)
                    have[key] = have.get(key, 0) + 1
            if total:
                if len(ds) != len(scalars) or sum(have.values()) != len(ds):
                    return []
                if len(have) != len(need_scalars):
                    return []
                return [b] if all(
                    have.get(key, 0) == needed for key, needed in need_scalars.items()
                ) else []
            return [b] if all(
                have.get(key, 0) >= needed for key, needed in need_scalars.items()
            ) else []
        return match_compiled, lambda data, bindings=EMPTY_BINDINGS: bool(
            match_compiled(data, bindings))

    def guards_reject(data: Child) -> bool:
        if not isinstance(data, Data):
            return True
        if label is not None and data.label != label:
            return True
        for key, value in const_attrs:
            if data.attr(key) != value:
                return True
        return guard_children and not guards_hold(data)

    def match_guarded(data: Child, bindings: Bindings = EMPTY_BINDINGS) -> list[Bindings]:
        _matcher_calls.n += 1
        if guards_reject(data):
            return []
        return _collect(query, data, bindings)

    def matches_guarded(data: Child, bindings: Bindings = EMPTY_BINDINGS) -> bool:
        _matcher_calls.n += 1
        if guards_reject(data):
            return False
        for _ in _match(query, data, bindings):
            return True
        return False
    return match_guarded, matches_guarded

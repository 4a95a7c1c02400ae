"""Composite event query algebra (Thesis 5).

The four dimensions the paper requires of an event query language:

1. **Data extraction** — :class:`EAtom` matches one incoming event's payload
   with an ordinary query term, binding variables usable in the rest of the
   rule (condition and action parts).
2. **Event composition** — :class:`EAnd`, :class:`EOr`, :class:`ESeq`
   (temporal sequence) and :class:`ENot` (absence within a sequence frame).
3. **Temporal conditions** — :class:`EWithin` bounds the temporal extent of
   a composite answer ("A and B within 1 hour"); :class:`ESeq` expresses
   relative order ("A before B").
4. **Event accumulation** — :class:`ECount` ("3 outages within 1 hour") and
   :class:`EAggregate` (sliding aggregates such as "average of the last 5
   stock prices", with an optional rise predicate).

Negation is *guarded*: ``ENot`` may appear only between the members of an
``ESeq`` (absence during the gap) or as its final member (absence until a
deadline), and a trailing ``ENot`` needs an enclosing ``EWithin`` to supply
the deadline.  The guard is what keeps event state finite (Thesis 4): every
piece of partial-match state expires with its window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EventQueryError
from repro.terms.ast import (
    Data,
    LabelVar,
    QTerm,
    Query,
    Scalar,
    Var,
    free_vars,
)
from repro.terms.simulation import child_value_requirement


@dataclass(frozen=True)
class EAtom:
    """Matches a single event whose payload matches *pattern*.

    ``alias``, if given, binds the whole event payload term to a variable.
    """

    pattern: Query
    alias: str | None = None


@dataclass(frozen=True)
class EAnd:
    """All member queries answered (any temporal order), bindings joined."""

    members: tuple["EventQuery", ...]

    def __init__(self, *members: "EventQuery") -> None:
        object.__setattr__(self, "members", tuple(members))


@dataclass(frozen=True)
class EOr:
    """Any member query answered."""

    members: tuple["EventQuery", ...]

    def __init__(self, *members: "EventQuery") -> None:
        object.__setattr__(self, "members", tuple(members))


@dataclass(frozen=True)
class ENot:
    """Absence of a matching event; only valid inside an :class:`ESeq`."""

    pattern: Query


@dataclass(frozen=True)
class ESeq:
    """Members answered in strict temporal order (gaps may be negated)."""

    members: tuple["EventQuery | ENot", ...]

    def __init__(self, *members: "EventQuery | ENot") -> None:
        object.__setattr__(self, "members", tuple(members))

    def positives(self) -> tuple["EventQuery", ...]:
        return tuple(m for m in self.members if not isinstance(m, ENot))


@dataclass(frozen=True)
class EWithin:
    """Answers of *query* whose temporal extent is at most *window*."""

    query: "EventQuery"
    window: float


@dataclass(frozen=True)
class ECount:
    """Accumulation: *n* events matching *pattern* within *window*.

    Events are grouped by the projection of their bindings onto
    ``group_by`` (empty tuple: one global group).  An answer is emitted for
    every matching event that completes a group of at least *n* events in
    the sliding window, and carries the most recent *n* of them.
    """

    pattern: Query
    n: int
    window: float
    group_by: tuple[str, ...] = ()


@dataclass(frozen=True)
class EAggregate:
    """Accumulation: sliding aggregate of a bound scalar over matching events.

    For every matching event, aggregates variable ``on`` over the last
    ``size`` matching events (of the same ``group_by`` group) — or over the
    events in the trailing ``window`` if ``size`` is None — and binds the
    result to variable ``into``.

    ``predicate`` optionally filters emissions:

    - ``(op, value)`` with a comparison operator: emit only when
      ``aggregate op value`` holds (e.g. ``(">", 100.0)``);
    - ``("rise%", pct)``: emit only when the aggregate exceeds its value at
      the previous matching event by at least ``pct`` percent (the paper's
      "average of the last 5 stock prices rises by 5%").
    """

    pattern: Query
    on: str
    fn: str
    into: str
    size: int | None = None
    window: float | None = None
    group_by: tuple[str, ...] = ()
    predicate: tuple[str, float] | None = None

    _FNS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.fn not in self._FNS:
            raise EventQueryError(f"unknown aggregate function {self.fn!r}")
        if (self.size is None) == (self.window is None):
            raise EventQueryError("exactly one of size= or window= must be given")
        if self.size is not None and self.size < 1:
            raise EventQueryError("size must be at least 1")
        if self.predicate is not None:
            op = self.predicate[0]
            if op not in ("==", "!=", "<", "<=", ">", ">=", "rise%"):
                raise EventQueryError(f"unknown aggregate predicate {op!r}")


#: Any event query.
EventQuery = "EAtom | EAnd | EOr | ESeq | EWithin | ECount | EAggregate"


def query_vars(query: "EventQuery | ENot") -> frozenset[str]:
    """Variables an event query can bind."""
    if isinstance(query, EAtom):
        names = free_vars(query.pattern)
        return names | {query.alias} if query.alias else names
    if isinstance(query, (EAnd, EOr, ESeq)):
        out: frozenset[str] = frozenset()
        for member in query.members:
            if not isinstance(member, ENot):
                out |= query_vars(member)
        return out
    if isinstance(query, EWithin):
        return query_vars(query.query)
    if isinstance(query, ECount):
        return frozenset(query.group_by)
    if isinstance(query, EAggregate):
        return frozenset(query.group_by) | {query.into}
    if isinstance(query, ENot):
        return frozenset()
    raise EventQueryError(f"not an event query: {query!r}")


def pattern_interest(pattern: Query) -> frozenset[str] | None:
    """Top-level data-term labels *pattern* can match; ``None`` means any.

    This drives the first level of the engine's indexed event dispatch: an
    evaluator is only handed events whose root label is in its interest
    set.  The computation is conservative — whenever the label cannot be
    pinned down statically (label variables, ``desc``, bare variables,
    comparison patterns), the pattern lands in the wildcard bucket and sees
    every event.
    """
    if isinstance(pattern, QTerm):
        if isinstance(pattern.label, LabelVar) or pattern.label == "*":
            return None
        return frozenset((pattern.label,))
    if isinstance(pattern, Data):
        if pattern.label == "*":
            return None
        return frozenset((pattern.label,))
    if isinstance(pattern, Var):
        if pattern.inner is None:
            return None
        return pattern_interest(pattern.inner)
    # Desc, Without, Optional_, Compare, RegexMatch, scalars: no static label.
    return None


@dataclass(frozen=True)
class Discriminator:
    """A constant a matching event *must* exhibit, below its root label.

    Two kinds, both derived statically from ``EAtom`` / ``ENot`` patterns:

    - ``("attr", name, value)`` — the event's root term must carry
      attribute *name* with exactly the string *value* (query-term
      attributes match partially, so a listed constant attribute is a
      necessary condition);
    - ``("child", label, value)`` — the event's root term must have a
      direct child data term labelled *label* containing the constant
      scalar *value* (non-optional query children must match some data
      child in every matching mode, so presence is necessary).

    Variables, wildcards, ``optional`` and ``without`` children contribute
    no discriminator: they never *require* a constant.  Discriminators are
    necessary, never sufficient — dispatch may still over-deliver (the
    matcher filters), but must never under-deliver.
    """

    kind: str  # "attr" | "child"
    key: str
    value: Scalar

    @property
    def axis(self) -> tuple[str, str]:
        """The ``(kind, key)`` pair this discriminator constrains.

        Two discriminators on the same axis demand (possibly different)
        constants for the same attribute or child label — the unit the
        discrimination trie splits buckets on and the shard router
        partitions hot labels along.
        """
        return (self.kind, self.key)


@dataclass(frozen=True)
class EventInterest:
    """What events an evaluator needs to see, per root label.

    ``by_label`` maps each interesting root label to the (possibly empty)
    set of :class:`Discriminator` constants that *every* event of that
    label must exhibit to affect the query; ``None`` preserves the old
    ``None``-means-all-events semantics (wildcard queries).

    The mapping is stored as a sorted tuple of pairs so interests are
    immutable, hashable, and compare structurally.
    """

    by_label: "tuple[tuple[str, frozenset[Discriminator]], ...] | None"

    @staticmethod
    def all_events() -> "EventInterest":
        """The wildcard interest: every event, any label."""
        return _ALL_EVENTS

    @staticmethod
    def of(mapping: "dict[str, frozenset[Discriminator]]") -> "EventInterest":
        return EventInterest(tuple(sorted(mapping.items())))

    @property
    def labels(self) -> frozenset[str] | None:
        """The interesting root labels; ``None`` means all labels."""
        if self.by_label is None:
            return None
        return frozenset(label for label, _ in self.by_label)

    def discriminators(self, label: str) -> frozenset[Discriminator]:
        """Constants every event with *label* must exhibit (may be empty)."""
        if self.by_label is not None:
            for have, discs in self.by_label:
                if have == label:
                    return discs
        return frozenset()

    def axes(self, label: str) -> tuple[tuple[str, str], ...]:
        """The ordered axis set this interest constrains under *label*.

        Every ``(kind, key)`` axis some discriminator of *label* pins a
        constant on, deterministically ordered (attribute axes first, then
        child axes, each alphabetical) — the full per-pattern axis chain
        the discrimination trie can consume, one level per axis.
        """
        return tuple(sorted({d.axis for d in self.discriminators(label)},
                            key=lambda axis: (axis[0] != "attr", axis)))

    def union(self, other: "EventInterest") -> "EventInterest":
        """Interest of a query needing *either* operand's events.

        Label sets union; where both sides know a label, only the
        discriminators *both* require survive (an event relevant to either
        leaf must be delivered).  A wildcard side absorbs everything.
        """
        if self.by_label is None or other.by_label is None:
            return _ALL_EVENTS
        merged = {label: discs for label, discs in self.by_label}
        for label, discs in other.by_label:
            if label in merged:
                merged[label] = merged[label] & discs
            else:
                merged[label] = discs
        return EventInterest.of(merged)


_ALL_EVENTS = EventInterest(None)


def extract_axis_value(term: Data, kind: str, key: str):
    """The constant *term* exhibits on axis ``(kind, key)``, if unambiguous.

    Returns ``(value, ambiguous)``.  The single shared definition of what
    an event "shows" on a discriminator axis, used by the engine's
    discrimination trie and the shard router's prefix partitioning so the
    two can never disagree:

    - ``("attr", key)`` — the root term's attribute value, or ``None`` if
      absent; attributes are single-valued, so never ambiguous;
    - ``("child", key)`` — the scalar content of the unique direct child
      data term labelled *key*.  Several same-label children, or a child
      with structured / multi-scalar content (``value is None``), make the
      extraction *ambiguous*: the event might match any constant on the
      axis, so dispatch must degrade to every candidate (over-delivery,
      never under-delivery).  No such child at all yields
      ``(None, False)`` — the event definitively lacks the axis.
    """
    if kind == "attr":
        return term.attr(key), False
    found = None
    for child in term.children:
        if isinstance(child, Data) and child.label == key:
            if found is not None:
                return None, True  # several candidates: ambiguous
            found = child
    if found is None:
        return None, False
    if found.value is None:  # structured or multi-scalar child: ambiguous
        return None, True
    return found.value, False


def _child_discriminator(child: Query) -> Discriminator | None:
    """The constant a non-optional query child forces on the data term.

    Delegates the query-term case to
    :func:`repro.terms.simulation.child_value_requirement` — the same
    necessary condition the compiled matcher guards on, so the dispatch
    index and the matcher can never disagree about what is required.
    """
    if isinstance(child, Var) and child.inner is not None:
        return _child_discriminator(child.inner)
    if isinstance(child, Data):
        if child.label != "*" and child.value is not None:
            return Discriminator("child", child.label, child.value)
        return None
    requirement = child_value_requirement(child)
    if requirement is not None:
        return Discriminator("child", requirement[0], requirement[1])  # type: ignore[arg-type]
    return None


def pattern_discriminators(pattern: Query) -> frozenset[Discriminator]:
    """Constants any event matching *pattern* must exhibit.

    Sound in all four matching modes: listed attributes always match
    partially, and every non-optional, non-negated query child must match
    *some* data child — so a constant attribute value or a constant-scalar
    child is required regardless of ordered/unordered, total/partial.
    """
    if isinstance(pattern, Var) and pattern.inner is not None:
        return pattern_discriminators(pattern.inner)
    if isinstance(pattern, Data):
        out = {Discriminator("attr", key, value) for key, value in pattern.attrs}
        for child in pattern.children:
            if isinstance(child, Data) and child.label != "*" and child.value is not None:
                out.add(Discriminator("child", child.label, child.value))
        return frozenset(out)
    if isinstance(pattern, QTerm):
        out = set()
        for key, want in pattern.attrs:
            if isinstance(want, str):
                out.add(Discriminator("attr", key, want))
        for child in pattern.children:
            found = _child_discriminator(child)
            if found is not None:
                out.add(found)
        return frozenset(out)
    return frozenset()


def pattern_event_interest(pattern: Query) -> EventInterest:
    """The :class:`EventInterest` of one event pattern."""
    labels = pattern_interest(pattern)
    if labels is None:
        return EventInterest.all_events()
    discs = pattern_discriminators(pattern)
    return EventInterest.of({label: discs for label in labels})


def query_interest(query: "EventQuery | ENot") -> EventInterest:
    """The events that can affect evaluating *query*, as an interest.

    Covers every leaf that *consumes* events, including ``ENot`` blockers
    inside an ``ESeq``: an absence check must still observe the events
    whose presence would block it, so their labels (and discriminators —
    an event lacking a blocker pattern's required constant cannot block)
    count as interest.  Composites union their members' interests.
    """
    if isinstance(query, (EAtom, ENot)):
        return pattern_event_interest(query.pattern)
    if isinstance(query, (EAnd, EOr, ESeq)):
        out: EventInterest | None = None
        for member in query.members:
            interest = query_interest(member)
            out = interest if out is None else out.union(interest)
            if out.by_label is None:
                return out
        return out if out is not None else EventInterest.of({})
    if isinstance(query, EWithin):
        return query_interest(query.query)
    if isinstance(query, (ECount, EAggregate)):
        return pattern_event_interest(query.pattern)
    raise EventQueryError(f"not an event query: {query!r}")


def validate_query(query: "EventQuery", _window: float | None = None) -> None:
    """Check the structural rules; raises :class:`EventQueryError`.

    - composition nodes need at least one member; ``ESeq`` needs at least
      one positive member;
    - ``ENot`` appears only inside ``ESeq``, never first;
    - a trailing ``ENot`` (or any ``ENot``, which needs bounded blocker
      storage) requires an enclosing ``EWithin``;
    - windows must be positive.
    """
    if isinstance(query, EAtom):
        return
    if isinstance(query, (EAnd, EOr)):
        if not query.members:
            raise EventQueryError(f"{type(query).__name__} needs at least one member")
        for member in query.members:
            if isinstance(member, ENot):
                raise EventQueryError("ENot is only valid inside an ESeq")
            validate_query(member, _window)
        return
    if isinstance(query, ESeq):
        members = query.members
        if not members or not query.positives():
            raise EventQueryError("ESeq needs at least one positive member")
        if isinstance(members[0], ENot):
            raise EventQueryError("ENot cannot be the first member of an ESeq")
        for left, right in zip(members, members[1:]):
            if isinstance(left, ENot) and isinstance(right, ENot):
                raise EventQueryError("adjacent ENot members are redundant; merge them")
        has_not = any(isinstance(m, ENot) for m in members)
        if has_not and _window is None:
            raise EventQueryError(
                "an ESeq containing ENot must be inside an EWithin "
                "(the window bounds absence checking and blocker storage)"
            )
        for member in members:
            if not isinstance(member, ENot):
                validate_query(member, _window)
        return
    if isinstance(query, EWithin):
        if query.window <= 0:
            raise EventQueryError("window must be positive")
        validate_query(query.query, query.window)
        return
    if isinstance(query, ECount):
        if query.n < 1:
            raise EventQueryError("count threshold must be at least 1")
        if query.window <= 0:
            raise EventQueryError("window must be positive")
        return
    if isinstance(query, EAggregate):
        if query.window is not None and query.window <= 0:
            raise EventQueryError("window must be positive")
        return
    raise EventQueryError(f"not an event query: {query!r}")


def replay_horizon(query, window: "float | None" = None) -> "float | None":
    """Seconds of retained events sufficient to rebuild all live state.

    The incremental evaluator gcs partial matches, blockers, and
    pendings against the query's windows: after any call at time *t*,
    every contributing event of still-live state has ``time >= t - H``
    for the *H* computed here (a safe overestimate for nested
    compositions), so replaying the last *H* seconds of events into a
    fresh evaluator rebuilds it.  ``None`` means unbounded — some state
    depends on arbitrarily old events (an unwindowed sequence, or an
    ``EAggregate`` whose previous-aggregate baseline deliberately
    survives gc) — and no bounded suffix suffices.

    The *window* parameter threads the governing ``EWithin`` down the
    composition, mirroring how evaluation compiles it.
    """
    if isinstance(query, EAtom):
        return 0.0
    if isinstance(query, EWithin):
        return replay_horizon(query.query, query.window)
    if isinstance(query, EOr):
        worst = 0.0
        for member in query.members:
            h = replay_horizon(member, window)
            if h is None:
                return None
            worst = max(worst, h)
        return worst
    if isinstance(query, (ESeq, EAnd)):
        if window is None:
            return None
        worst = 0.0
        for member in query.members:
            if isinstance(member, ENot):
                continue  # blockers are raw events inside the window
            h = replay_horizon(member, window)
            if h is None:
                return None
            worst = max(worst, h)
        return window + worst
    if isinstance(query, ECount):
        return query.window  # the per-group series is window-pruned
    if isinstance(query, EAggregate):
        # The rise% baseline (_prev) survives gc by design: replay from
        # any bounded suffix could resurrect a different baseline.
        return None
    return None

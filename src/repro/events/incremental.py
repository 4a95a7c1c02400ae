"""Data-driven, incremental event-query evaluation (Thesis 6).

The query is compiled into a tree of operators mirroring its structure; each
operator stores exactly the partial matches that can still contribute to a
future answer.  Work done for one event is never redone: an arriving event
flows through the tree once, extending stored partial matches and emitting
the newly confirmed answers.

Volatility (Thesis 4) is engineered in: every windowed operator prunes state
that can no longer complete within its window (:meth:`gc`, called after
every entry point), so memory is bounded by event *rate* times *window*, not
by history length.  ``state_size()`` exposes the live state for the memory
experiments (E4), and ``next_deadline()`` tells the caller when absence
(trailing ``ENot``) answers are due, so engines can schedule wake-ups
instead of polling.

The semantics implemented here is exactly
:func:`repro.events.naive.answers`; the property suite feeds random streams
to both evaluators and requires identical answer sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import EventError
from repro.events.answers import answer_sort_key, dedup_answers, min_deadline
from repro.events.model import Event, EventAnswer
from repro.events.naive import _apply_fn, _predicate_holds
from repro.events.queries import (
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EWithin,
    query_interest,
    validate_query,
)
from repro.terms.ast import Bindings, is_scalar
from repro.terms.simulation import compile_matches, compile_pattern


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class _Op:
    """Base operator: event-driven and time-driven delta evaluation."""

    def on_event(self, event: Event) -> list[EventAnswer]:
        raise NotImplementedError

    def on_time(self, now: float) -> list[EventAnswer]:
        return []

    def gc(self, now: float) -> None:
        """Prune state that can no longer contribute to an answer."""

    def state_size(self) -> int:
        return 0

    def next_deadline(self) -> float | None:
        return None

    def reset(self) -> None:
        """Drop all partial-match state."""


class _AtomOp(_Op):
    """Stateless: matches its *compiled* pattern against incoming events.

    The pattern is compiled once at construction
    (:func:`repro.terms.simulation.compile_pattern`), so the per-event cost
    for a non-matching candidate is a handful of direct comparisons rather
    than a recursive simulation.
    """

    def __init__(self, query: EAtom) -> None:
        self._matcher = compile_pattern(query.pattern)
        self._alias = query.alias

    def on_event(self, event: Event) -> list[EventAnswer]:
        out = []
        for bindings in self._matcher(event.term):
            if self._alias is not None:
                extended = bindings.bind(self._alias, event.term)
                if extended is None:
                    continue
                bindings = extended
            out.append(EventAnswer(bindings, (event.id,), event.time, event.time))
        return out


class _OrOp(_Op):
    """Union of member deltas."""

    def __init__(self, members: list[_Op]) -> None:
        self._members = members

    def on_event(self, event: Event) -> list[EventAnswer]:
        return dedup_answers(answer for op in self._members for answer in op.on_event(event))

    def on_time(self, now: float) -> list[EventAnswer]:
        return dedup_answers(answer for op in self._members for answer in op.on_time(now))

    def gc(self, now: float) -> None:
        for op in self._members:
            op.gc(now)

    def state_size(self) -> int:
        return sum(op.state_size() for op in self._members)

    def next_deadline(self) -> float | None:
        return min_deadline(self._members)

    def reset(self) -> None:
        for op in self._members:
            op.reset()


class _AndOp(_Op):
    """Incremental multi-way join of member answers.

    Stores every member answer seen so far (pruned by the enclosing window);
    a member delta joins against the other members' stores.  New
    combinations are exactly those that use at least one delta, partitioned
    by the *largest* member index contributing a delta.
    """

    def __init__(self, members: list[_Op], window: float | None) -> None:
        self._members = members
        self._window = window
        self._stores: list[list[EventAnswer]] = [[] for _ in members]
        self._seen: list[set[EventAnswer]] = [set() for _ in members]

    def on_event(self, event: Event) -> list[EventAnswer]:
        return self._integrate([op.on_event(event) for op in self._members])

    def on_time(self, now: float) -> list[EventAnswer]:
        return self._integrate([op.on_time(now) for op in self._members])

    def _integrate(self, deltas: list[list[EventAnswer]]) -> list[EventAnswer]:
        deltas = [
            [a for a in member_delta if a not in self._seen[i]]
            for i, member_delta in enumerate(deltas)
        ]
        out: list[EventAnswer] = []
        n = len(self._members)
        for pivot in range(n):
            if not deltas[pivot]:
                continue
            # members < pivot: store + delta; member pivot: delta only;
            # members > pivot: store only.
            combos = [EventAnswer(Bindings(), (), float("inf"), float("-inf"))]
            viable = True
            partials: list[EventAnswer] = combos
            for i in range(n):
                pool = (
                    self._stores[i] + deltas[i]
                    if i < pivot
                    else (deltas[i] if i == pivot else self._stores[i])
                )
                next_partials = []
                for left in partials:
                    for right in pool:
                        merged = left.merge_with(right)
                        if merged is not None:
                            next_partials.append(merged)
                partials = next_partials
                if not partials:
                    viable = False
                    break
            if viable:
                out.extend(partials)
        for i, member_delta in enumerate(deltas):
            for answer in member_delta:
                self._seen[i].add(answer)
                self._stores[i].append(answer)
        return dedup_answers(out)

    def gc(self, now: float) -> None:
        for op in self._members:
            op.gc(now)
        if self._window is None:
            return
        cutoff = now - self._window
        for i in range(len(self._stores)):
            keep = [a for a in self._stores[i] if a.start >= cutoff]
            if len(keep) != len(self._stores[i]):
                self._stores[i] = keep
                self._seen[i] = set(keep)

    def state_size(self) -> int:
        own = sum(len(store) for store in self._stores)
        return own + sum(op.state_size() for op in self._members)

    def next_deadline(self) -> float | None:
        return min_deadline(self._members)

    def reset(self) -> None:
        for op in self._members:
            op.reset()
        self._stores = [[] for _ in self._members]
        self._seen = [set() for _ in self._members]


@dataclass
class _Prefix:
    """A partial sequence match: positives 0..k matched."""

    bindings: Bindings
    events: tuple[int, ...]
    spans: tuple[tuple[float, float], ...]


@dataclass
class _Pending:
    """A complete positive match awaiting its trailing-absence deadline."""

    prefix: _Prefix
    deadline: float


class _SeqOp(_Op):
    """Temporal sequence with gap / trailing negation.

    Prefix stores hold partial matches per matched-positive count; negation
    checks are deferred to emission time (when the full bindings are known);
    blocker events are retained for one window.  Trailing negations turn
    complete matches into pending entries fired by ``on_time``.
    """

    def __init__(self, positives: list[_Op], negations: dict[int, ENot],
                 trailing: ENot | None, window: float | None) -> None:
        self._positives = positives
        self._negations = negations  # gap index -> ENot (gap g: between g, g+1)
        self._trailing = trailing
        self._window = window
        self._prefixes: list[list[_Prefix]] = [[] for _ in positives]
        self._blockers: dict[int, list[Event]] = {
            gap: [] for gap in list(negations) + ([len(positives) - 1] if trailing else [])
        }
        # One compiled boolean matcher per negation gap: blocker candidacy
        # and the emission-time checks are existence tests, so they use the
        # short-circuiting form (first derivation wins).
        self._blocker_matchers = {
            gap: compile_matches(self._pattern_for_gap(gap)) for gap in self._blockers
        }
        self._pending: list[_Pending] = []

    # -- entry points ---------------------------------------------------------

    def on_event(self, event: Event) -> list[EventAnswer]:
        self._store_blockers(event)
        out = self._fire_pending(event.time)
        deltas = [op.on_event(event) for op in self._positives]
        out.extend(self._extend(deltas))
        # A completion admitted just now may already sit on its deadline
        # (last positive exactly at start + window): fire it in this pass,
        # like the naive semantics does, instead of one entry point late.
        out.extend(self._fire_pending(event.time))
        return dedup_answers(out)

    def on_time(self, now: float) -> list[EventAnswer]:
        out = self._fire_pending(now)
        deltas = [op.on_time(now) for op in self._positives]
        out.extend(self._extend(deltas))
        out.extend(self._fire_pending(now))
        return dedup_answers(out)

    # -- internals --------------------------------------------------------------

    def _pattern_for_gap(self, gap: int):
        if self._trailing is not None and gap == len(self._positives) - 1:
            return self._trailing.pattern
        return self._negations[gap].pattern

    def _misses_window(self, start: float, end: float) -> bool:
        """Whether a prefix reaching *end* can no longer yield an answer.

        With a trailing negation the gate is the *planted deadline*
        (``start + window``, the same float the pending entry will carry
        and the naive semantics compares against), not the recomputed
        span — the two disagree by 1 ulp when the addition rounds.
        Without one, the enclosing ``EWithin`` filters on ``end - start``,
        so pruning uses exactly that expression.
        """
        if self._trailing is not None:
            return end > start + self._window
        return end - start > self._window

    def _store_blockers(self, event: Event) -> None:
        from repro.errors import QueryError

        for gap, blockers in self._blockers.items():
            # Unbound variables over-approximate here (any candidate is
            # stored); the precise check happens at emission time under the
            # full combination bindings.
            try:
                candidate = self._blocker_matchers[gap](event.term)
            except QueryError:
                candidate = True
            if candidate:
                blockers.append(event)

    def _gap_blocked(self, gap: int, bindings: Bindings, lo: float, hi: float,
                     inclusive_end: bool) -> bool:
        matcher = self._blocker_matchers[gap]
        for event in self._blockers.get(gap, ()):
            if event.time <= lo:
                continue
            if inclusive_end:
                if event.time > hi:
                    continue
            elif event.time >= hi:
                continue
            if matcher(event.term, bindings):
                return True
        return False

    def _extend(self, deltas: list[list[EventAnswer]]) -> list[EventAnswer]:
        out: list[EventAnswer] = []
        last = len(self._positives) - 1
        # Higher positions first: a delta must not extend a prefix created
        # by the same call (strict temporal order makes that impossible
        # anyway, but this keeps the work linear).
        for k in range(last, -1, -1):
            for answer in deltas[k]:
                if k == 0:
                    self._admit(_Prefix(answer.bindings, answer.events,
                                        ((answer.start, answer.end),)), out)
                    continue
                for prefix in list(self._prefixes[k - 1]):
                    if prefix.spans[-1][1] >= answer.start:
                        continue
                    if self._window is not None and self._misses_window(
                            prefix.spans[0][0], answer.end):
                        continue
                    merged = prefix.bindings.merge(answer.bindings)
                    if merged is None:
                        continue
                    self._admit(
                        _Prefix(
                            merged,
                            prefix.events + answer.events,
                            prefix.spans + ((answer.start, answer.end),),
                        ),
                        out,
                    )
        return out

    def _admit(self, prefix: _Prefix, out: list[EventAnswer]) -> None:
        k = len(prefix.spans) - 1
        last = len(self._positives) - 1
        if k < last:
            self._prefixes[k].append(prefix)
            return
        if self._trailing is not None:
            if self._window is None:
                raise EventError("trailing ENot needs an enclosing EWithin")
            self._pending.append(_Pending(prefix, prefix.spans[0][0] + self._window))
            return
        answer = self._emit(prefix, prefix.spans[-1][1])
        if answer is not None:
            out.append(answer)

    def _emit(self, prefix: _Prefix, end: float,
              span: float | None = None) -> EventAnswer | None:
        for gap, _negation in self._negations.items():
            lo = prefix.spans[gap][1]
            hi = prefix.spans[gap + 1][0]
            if self._gap_blocked(gap, prefix.bindings, lo, hi, inclusive_end=False):
                return None
        ids = tuple(sorted(set(prefix.events)))
        return EventAnswer(prefix.bindings, ids, prefix.spans[0][0], end, span)

    def _fire_pending(self, now: float) -> list[EventAnswer]:
        out: list[EventAnswer] = []
        remaining: list[_Pending] = []
        for pending in self._pending:
            if pending.deadline > now:
                remaining.append(pending)
                continue
            gap = len(self._positives) - 1
            if not self._gap_blocked(gap, pending.prefix.bindings,
                                     pending.prefix.spans[-1][1], pending.deadline,
                                     inclusive_end=True):
                # The answer's extent is *exactly* the window: carry the
                # planted deadline's window as the span instead of letting
                # EWithin recompute end - start, which can exceed the
                # window by 1 ulp when start + window rounded up.
                answer = self._emit(pending.prefix, pending.deadline,
                                    span=self._window)
                if answer is not None:
                    out.append(answer)
        self._pending = remaining
        return out

    # -- maintenance ---------------------------------------------------------------

    def gc(self, now: float) -> None:
        for op in self._positives:
            op.gc(now)
        if self._window is None:
            return
        # Never prune past an unfired deadline: its blocker check still needs
        # the window preceding it.
        horizon = min([now] + [p.deadline for p in self._pending])
        cutoff = horizon - self._window
        for k in range(len(self._prefixes)):
            self._prefixes[k] = [
                p for p in self._prefixes[k] if p.spans[0][0] >= cutoff
            ]
        for gap in self._blockers:
            self._blockers[gap] = [e for e in self._blockers[gap] if e.time > cutoff]

    def state_size(self) -> int:
        own = sum(len(p) for p in self._prefixes)
        own += sum(len(b) for b in self._blockers.values())
        own += len(self._pending)
        return own + sum(op.state_size() for op in self._positives)

    def next_deadline(self) -> float | None:
        own = min((p.deadline for p in self._pending), default=None)
        children = min_deadline(self._positives)
        if own is None:
            return children
        if children is None:
            return own
        return min(own, children)

    def reset(self) -> None:
        for op in self._positives:
            op.reset()
        self._prefixes = [[] for _ in self._positives]
        self._blockers = {gap: [] for gap in self._blockers}
        self._pending = []


class _WithinOp(_Op):
    """Filters member answers by temporal extent."""

    def __init__(self, member: _Op, window: float) -> None:
        self._member = member
        self._window = window

    def on_event(self, event: Event) -> list[EventAnswer]:
        return [a for a in self._member.on_event(event) if a.span <= self._window]

    def on_time(self, now: float) -> list[EventAnswer]:
        return [a for a in self._member.on_time(now) if a.span <= self._window]

    def gc(self, now: float) -> None:
        self._member.gc(now)

    def state_size(self) -> int:
        return self._member.state_size()

    def next_deadline(self) -> float | None:
        return self._member.next_deadline()

    def reset(self) -> None:
        self._member.reset()


class _CountOp(_Op):
    """Sliding count per binding group (event accumulation)."""

    def __init__(self, query: ECount) -> None:
        self._query = query
        self._matcher = compile_pattern(query.pattern)
        self._groups: dict[Bindings, deque[tuple[float, int]]] = {}

    def on_event(self, event: Event) -> list[EventAnswer]:
        query = self._query
        keys = set()
        for bindings in self._matcher(event.term):
            keys.add(bindings.project(frozenset(query.group_by)))
        out = []
        for key in keys:
            series = self._groups.setdefault(key, deque())
            series.append((event.time, event.id))
            while series and series[0][0] <= event.time - query.window:
                series.popleft()
            if len(series) >= query.n:
                last_n = list(series)[-query.n:]
                out.append(EventAnswer(
                    key,
                    tuple(event_id for _, event_id in last_n),
                    last_n[0][0],
                    event.time,
                ))
        return out

    def gc(self, now: float) -> None:
        cutoff = now - self._query.window
        dead = []
        for key, series in self._groups.items():
            while series and series[0][0] <= cutoff:
                series.popleft()
            if not series:
                dead.append(key)
        for key in dead:
            del self._groups[key]

    def state_size(self) -> int:
        return sum(len(series) for series in self._groups.values())

    def reset(self) -> None:
        self._groups.clear()


class _AggOp(_Op):
    """Sliding aggregate per binding group (event accumulation)."""

    def __init__(self, query: EAggregate) -> None:
        self._query = query
        self._matcher = compile_pattern(query.pattern)
        self._groups: dict[Bindings, deque[tuple[float, int, float]]] = {}
        self._prev: dict[Bindings, float] = {}

    def on_event(self, event: Event) -> list[EventAnswer]:
        query = self._query
        group_names = frozenset(query.group_by)
        out = []
        for bindings in self._matcher(event.term):
            value = bindings.get(query.on)
            if not is_scalar(value) or isinstance(value, (str, bool)):
                continue
            key = bindings.project(group_names)
            series = self._groups.setdefault(key, deque())
            series.append((event.time, event.id, float(value)))
            window_entries = self._window_slice(series, event.time)
            if window_entries is None:
                continue
            aggregate = _apply_fn(query.fn, [v for _, _, v in window_entries])
            emit = _predicate_holds(query.predicate, aggregate, self._prev.get(key))
            self._prev[key] = aggregate
            if not emit:
                continue
            ids = tuple(dict.fromkeys(i for _, i, _ in window_entries))
            result = key.bind(query.into, aggregate)
            if result is None:
                continue
            out.append(EventAnswer(result, ids, window_entries[0][0], event.time))
        return dedup_answers(out)

    def _window_slice(self, series: deque, now: float):
        query = self._query
        if query.size is not None:
            while len(series) > query.size:
                series.popleft()
            if len(series) < query.size:
                return None
            return list(series)
        while series and series[0][0] <= now - query.window:
            series.popleft()
        return list(series) or None

    def gc(self, now: float) -> None:
        if self._query.window is None:
            return
        cutoff = now - self._query.window
        dead = []
        for key, series in self._groups.items():
            while series and series[0][0] <= cutoff:
                series.popleft()
            if not series:
                dead.append(key)
        for key in dead:
            del self._groups[key]
            # keep self._prev: the rise%% baseline survives quiet periods

    def state_size(self) -> int:
        return sum(len(series) for series in self._groups.values())

    def reset(self) -> None:
        self._groups.clear()
        self._prev.clear()


# ---------------------------------------------------------------------------
# Compilation and the public evaluator
# ---------------------------------------------------------------------------


def _compile(query, window: float | None) -> _Op:
    if isinstance(query, EAtom):
        return _AtomOp(query)
    if isinstance(query, EAnd):
        return _AndOp([_compile(m, window) for m in query.members], window)
    if isinstance(query, EOr):
        return _OrOp([_compile(m, window) for m in query.members])
    if isinstance(query, ESeq):
        positives = []
        negations: dict[int, ENot] = {}
        trailing: ENot | None = None
        index = -1
        for member in query.members:
            if isinstance(member, ENot):
                negations[index] = member
            else:
                index += 1
                positives.append(_compile(member, window))
        trailing = negations.pop(len(positives) - 1, None)
        return _SeqOp(positives, negations, trailing, window)
    if isinstance(query, EWithin):
        return _WithinOp(_compile(query.query, query.window), query.window)
    if isinstance(query, ECount):
        return _CountOp(query)
    if isinstance(query, EAggregate):
        return _AggOp(query)
    raise EventError(f"not an event query: {query!r}")


class IncrementalEvaluator:
    """Data-driven, incremental evaluation of one event query.

    Feed events in non-decreasing time order with :meth:`on_event`; advance
    the clock with :meth:`advance_time` so absence (trailing ``ENot``)
    answers can fire at their deadlines.  ``on_event`` catches up any
    deadlines that fall before the event's timestamp, so correctness does
    not depend on the caller polling — but callers that want absence
    answers *promptly* should schedule a call at :meth:`next_deadline`.
    """

    def __init__(self, query) -> None:
        validate_query(query)
        self.query = query
        self._root = _compile(query, None)
        self._last_time = float("-inf")

    def on_event(self, event: Event) -> list[EventAnswer]:
        """Process one event; returns the newly confirmed answers."""
        if event.time < self._last_time:
            raise EventError(
                f"events must arrive in time order: {event.time} < {self._last_time}"
            )
        self._last_time = event.time
        out = self._root.on_event(event)
        self._root.gc(event.time)
        return sorted(dedup_answers(out), key=answer_sort_key)

    def advance_time(self, now: float) -> list[EventAnswer]:
        """Advance the clock; returns answers confirmed by absence."""
        if now < self._last_time:
            raise EventError(f"time went backwards: {now} < {self._last_time}")
        self._last_time = now
        out = self._root.on_time(now)
        self._root.gc(now)
        return sorted(dedup_answers(out), key=answer_sort_key)

    def interest(self):
        """The :class:`~repro.events.queries.EventInterest` of this query.

        Engines use this to index their dispatch: only events whose root
        label is in the interest set — and, per label, exhibiting the
        interest's discriminator constants — need to reach
        :meth:`on_event`.  Skipping other events is sound: they can
        neither match a leaf nor block an absence check (a blocker pattern
        requiring a constant cannot match an event lacking it).  Time
        still has to be advanced for absence deadlines, which engines do
        via :meth:`advance_time`.
        """
        return query_interest(self.query)

    def state_size(self) -> int:
        """Number of live partial matches / retained blocker events."""
        return self._root.state_size()

    def next_deadline(self) -> float | None:
        """Earliest pending absence deadline, for wake-up scheduling."""
        return self._root.next_deadline()

    def reset(self) -> None:
        """Drop all partial-match state (cumulative consumption)."""
        self._root.reset()
        # _last_time is kept: time never goes backwards.

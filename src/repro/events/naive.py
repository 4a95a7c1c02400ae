"""Query-driven (naive) event-query evaluation: the Thesis 6 baseline.

This module doubles as the *declarative semantics* of the event algebra:
:func:`answers` computes, from scratch, every answer of a query over a full
event history at a given time.  The incremental evaluator must emit exactly
the same answers (the property suite checks them against each other on
random streams); the difference is cost — :class:`NaiveEvaluator` re-scans
the entire history on every event, which is precisely what the paper's
Thesis 6 argues against:

    "a non-incremental, query-driven (backward-chaining) evaluation would
    have to check the entire history of events for an A when a B is
    detected."

Semantics reference (H = history, ``now`` = current time):

- ``EAtom(p)`` — one answer per (event, binding) with span [t, t].
- ``EAnd`` — binding-compatible combinations, span = hull of member spans.
- ``EOr`` — union of member answers.
- ``ESeq`` — combinations in strict temporal order (``end_i < start_{i+1}``);
  an ``ENot(p)`` between members requires no p-matching event strictly
  inside the gap (checked under the full combination bindings); a trailing
  ``ENot`` requires no p-match in ``(end_last, deadline]`` where
  ``deadline = start + window`` — such answers are confirmed at the
  deadline, so they exist only once ``now >= deadline`` and their end is
  the deadline.
- ``EWithin(q, w)`` — answers of q with span <= w; also supplies the
  deadline window to inner sequences.
- ``ECount(p, n, w)`` — for every matching event completing >= n matches of
  its group in the trailing window, the most recent n of them.
- ``EAggregate`` — for every matching event, the aggregate over the group's
  last `size` values (or trailing window), subject to the predicate.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import EventError
from repro.events.answers import answer_sort_key
from repro.events.model import Event, EventAnswer
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

__all__ = ["NaiveEvaluator", "answer_sort_key", "answers"]


def answers(query, history: Sequence[Event], now: float, window: float | None = None
            ) -> set[EventAnswer]:
    """All answers of *query* over *history* confirmed by time *now*."""
    if isinstance(query, EAtom):
        return _atom_answers(query, history)
    if isinstance(query, EAnd):
        combos = answers(query.members[0], history, now, window)
        for member in query.members[1:]:
            extensions = answers(member, history, now, window)
            combos = {
                merged
                for left in combos
                for right in extensions
                for merged in [left.merge_with(right)]
                if merged is not None
            }
        return combos
    if isinstance(query, EOr):
        out: set[EventAnswer] = set()
        for member in query.members:
            out |= answers(member, history, now, window)
        return out
    if isinstance(query, ESeq):
        return _seq_answers(query, history, now, window)
    if isinstance(query, EWithin):
        inner = answers(query.query, history, now, query.window)
        return {a for a in inner if a.span <= query.window}
    if isinstance(query, ECount):
        return _count_answers(query, history)
    if isinstance(query, EAggregate):
        return _aggregate_answers(query, history)
    raise EventError(f"not an event query: {query!r}")


def _atom_answers(query: EAtom, history: Sequence[Event]) -> set[EventAnswer]:
    out: set[EventAnswer] = set()
    matcher = compile_pattern(query.pattern)  # memoised across re-evaluations
    for event in history:
        for bindings in matcher(event.term):
            if query.alias is not None:
                extended = bindings.bind(query.alias, event.term)
                if extended is None:
                    continue
                bindings = extended
            out.add(EventAnswer(bindings, (event.id,), event.time, event.time))
    return out


def _seq_answers(query: ESeq, history: Sequence[Event], now: float,
                 window: float | None) -> set[EventAnswer]:
    members = query.members
    positives = [m for m in members if not isinstance(m, ENot)]
    member_answers = [sorted(answers(p, history, now, window), key=answer_sort_key)
                      for p in positives]
    # Negation positions: gap g sits between positive g and positive g+1;
    # gap == len(positives)-1 after the last positive is the trailing gap.
    negations: dict[int, ENot] = {}
    positive_index = -1
    for member in members:
        if isinstance(member, ENot):
            negations[positive_index] = member
        else:
            positive_index += 1
    trailing = negations.pop(len(positives) - 1, None)
    # One compiled boolean matcher per negation, hoisted out of the
    # per-combination finish() loop (mirrors the incremental _SeqOp).
    gap_matchers = {
        gap: compile_matches(negation.pattern)
        for gap, negation in negations.items()
    }
    trailing_matcher = (
        compile_matches(trailing.pattern) if trailing is not None else None
    )

    out: set[EventAnswer] = set()

    def extend(index: int, bindings: Bindings, events: tuple[int, ...],
               spans: tuple[tuple[float, float], ...]) -> None:
        if index == len(positives):
            finish(bindings, events, spans)
            return
        for candidate in member_answers[index]:
            if spans and candidate.start <= spans[-1][1]:
                continue  # strict temporal order between members
            merged = bindings.merge(candidate.bindings)
            if merged is None:
                continue
            extend(
                index + 1,
                merged,
                events + candidate.events,
                spans + ((candidate.start, candidate.end),),
            )

    def finish(bindings: Bindings, events: tuple[int, ...],
               spans: tuple[tuple[float, float], ...]) -> None:
        # Mid-sequence negation gaps, under the full combination bindings.
        for gap, matcher in gap_matchers.items():
            lo = spans[gap][1]
            hi = spans[gap + 1][0]
            if _blocker_in(matcher, history, bindings, lo, hi, inclusive_end=False):
                return
        start, end = spans[0][0], spans[-1][1]
        ids = tuple(sorted(set(events)))
        if trailing is not None:
            if window is None:
                raise EventError("trailing ENot needs an enclosing EWithin")
            deadline = start + window
            if end > deadline:
                return  # the last positive itself missed the absence deadline
            if deadline > now:
                return  # not yet confirmed
            if _blocker_in(trailing_matcher, history, bindings, end, deadline,
                           inclusive_end=True):
                return
            # The answer extends exactly one window past its start: carry
            # the window as the span so the enclosing EWithin filter does
            # not drop it when start + window rounded up an ulp.
            out.add(EventAnswer(bindings, ids, start, deadline, window))
        else:
            out.add(EventAnswer(bindings, ids, start, end))

    extend(0, Bindings(), (), ())
    return out


def _blocker_in(matcher, history: Sequence[Event], bindings: Bindings,
                lo: float, hi: float, inclusive_end: bool) -> bool:
    """Any event in the interval matching the compiled blocker pattern."""
    for event in history:
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


def _count_answers(query: ECount, history: Sequence[Event]) -> set[EventAnswer]:
    out: set[EventAnswer] = set()
    # series per group key: chronological (time, id) of matching events.
    group_names = frozenset(query.group_by)
    matcher = compile_pattern(query.pattern)
    for k, trigger in enumerate(history):
        keys = set()
        for bindings in matcher(trigger.term):
            keys.add(bindings.project(group_names))
        for key in keys:
            series: list[tuple[float, int]] = []
            for event in history[: k + 1]:
                if event.time <= trigger.time - query.window:
                    continue
                for bindings in matcher(event.term):
                    if bindings.project(group_names) == key:
                        series.append((event.time, event.id))
                        break
            if len(series) >= query.n:
                last_n = series[-query.n:]
                out.add(EventAnswer(
                    key,
                    tuple(event_id for _, event_id in last_n),
                    last_n[0][0],
                    trigger.time,
                ))
    return out


def _aggregate_answers(query: EAggregate, history: Sequence[Event]) -> set[EventAnswer]:
    out: set[EventAnswer] = set()
    group_names = frozenset(query.group_by)
    # Replay the stream, keeping per-group series and the previous defined
    # aggregate (for the rise% predicate) — identical to the incremental op.
    series: dict[Bindings, list[tuple[float, int, float]]] = {}
    prev_agg: dict[Bindings, float] = {}
    matcher = compile_pattern(query.pattern)
    for event in history:
        for bindings in matcher(event.term):
            value = bindings.get(query.on)
            if not is_scalar(value) or isinstance(value, (str, bool)):
                continue
            key = bindings.project(group_names)
            entries = series.setdefault(key, [])
            entries.append((event.time, event.id, float(value)))
            window_entries = _window_slice(entries, query, event.time)
            aggregate = _apply_fn(query.fn, [v for _, _, v in window_entries]) \
                if window_entries is not None else None
            if aggregate is None:
                continue
            emit = _predicate_holds(query.predicate, aggregate, prev_agg.get(key))
            prev_agg[key] = aggregate
            if not emit:
                continue
            ids = tuple(dict.fromkeys(i for _, i, _ in window_entries))
            result = key.bind(query.into, aggregate)
            if result is None:
                continue
            out.add(EventAnswer(result, ids, window_entries[0][0], event.time))
    return out


def _window_slice(entries: list[tuple[float, int, float]], query: EAggregate,
                  now: float) -> list[tuple[float, int, float]] | None:
    """The entries the aggregate ranges over; None if not yet defined."""
    if query.size is not None:
        if len(entries) < query.size:
            return None
        return entries[-query.size:]
    live = [entry for entry in entries if entry[0] > now - query.window]
    return live or None


def _apply_fn(fn: str, values: list[float]) -> float:
    if fn == "count":
        return float(len(values))
    if fn == "sum":
        return sum(values)
    if fn == "avg":
        return sum(values) / len(values)
    if fn == "min":
        return min(values)
    return max(values)


def _predicate_holds(predicate: tuple[str, float] | None, aggregate: float,
                     previous: float | None) -> bool:
    if predicate is None:
        return True
    op, value = predicate
    if op == "rise%":
        if previous is None:
            return False
        return aggregate >= previous * (1.0 + value / 100.0)
    if op == "==":
        return aggregate == value
    if op == "!=":
        return aggregate != value
    if op == "<":
        return aggregate < value
    if op == "<=":
        return aggregate <= value
    if op == ">":
        return aggregate > value
    return aggregate >= value


class NaiveEvaluator:
    """Re-evaluates the whole query over the whole history on every event.

    Interface-compatible with
    :class:`~repro.events.incremental.IncrementalEvaluator`; used as the E6
    baseline and as the test oracle.
    """

    def __init__(self, query) -> None:
        validate_query(query)
        self._query = query
        self._history: list[Event] = []
        self._emitted: set[EventAnswer] = set()
        self._last_time = float("-inf")

    def on_event(self, event: Event) -> list[EventAnswer]:
        """Feed one event (times must be non-decreasing); new answers out."""
        if event.time < self._last_time:
            raise EventError(
                f"events must arrive in time order: {event.time} < {self._last_time}"
            )
        self._last_time = event.time
        self._history.append(event)
        return self._delta(event.time)

    def advance_time(self, now: float) -> list[EventAnswer]:
        """Advance the clock (fires absence deadlines); new answers out."""
        if now < self._last_time:
            raise EventError(f"time went backwards: {now} < {self._last_time}")
        self._last_time = now
        return self._delta(now)

    def _delta(self, now: float) -> list[EventAnswer]:
        current = answers(self._query, self._history, now)
        fresh = sorted(current - self._emitted, key=answer_sort_key)
        self._emitted |= current
        return fresh

    def interest(self):
        """The :class:`~repro.events.queries.EventInterest` of this query."""
        return query_interest(self._query)

    def state_size(self) -> int:
        """Stored state: the entire history (the point of Thesis 6)."""
        return len(self._history)

    def next_deadline(self) -> float | None:
        """Naive evaluation cannot tell; callers must poll time forward."""
        return None

    def reset(self) -> None:
        """Drop all state (used by the cumulative consumption policy)."""
        self._history.clear()
        self._emitted.clear()

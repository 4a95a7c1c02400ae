"""Shared answer plumbing for the event-query evaluators.

Every evaluation mechanism (naive, incremental) returns batches of
:class:`~repro.events.model.EventAnswer` and must agree not only on the
answer *sets* but on the *order within a batch* — the engine fires answers
in batch order, so the order is part of the observable contract the
property suites pin down.  This module holds the pieces that define that
contract so the mechanisms cannot drift apart:

- :func:`answer_sort_key` — the deterministic total order over answers;
- :func:`dedup_answers` — first-occurrence dedup of one batch;
- :func:`min_deadline` — fold of ``next_deadline()`` over child operators.
"""

from __future__ import annotations

from repro.events.model import EventAnswer
from repro.terms.ast import canonical_str


def answer_sort_key(answer: EventAnswer) -> tuple:
    """A deterministic total order over answers (for stable outputs)."""
    return (
        answer.end,
        answer.start,
        answer.events,
        tuple((k, canonical_str(v)) for k, v in answer.bindings.items),
    )


def dedup_answers(answers_iter) -> list[EventAnswer]:
    """First occurrence of each answer, preserving iteration order."""
    seen: set[EventAnswer] = set()
    out: list[EventAnswer] = []
    for answer in answers_iter:
        if answer not in seen:
            seen.add(answer)
            out.append(answer)
    return out


def min_deadline(ops) -> "float | None":
    """Earliest ``next_deadline()`` across *ops*; None when none pends."""
    deadlines = [d for op in ops for d in [op.next_deadline()] if d is not None]
    return min(deadlines) if deadlines else None

"""Event instance selection and consumption policies.

Thesis 5 notes that applications may need *event instance selection* (pick
one of several simultaneous answers) and *event instance consumption* (use
up atomic events so they cannot contribute to future answers), citing the
classic active-database semantics of Zimmer & Unland.  This module layers
those policies over any evaluator:

========================  ====================================================
policy                    behaviour
========================  ====================================================
``unrestricted``          every answer; nothing consumed (the default)
``chronicle``             answers accepted oldest-first; their events are
                          consumed — each atomic event contributes to at most
                          one accepted answer
``recent``                among answers confirmed at the same instant, only
                          the one with the latest start; its events consumed
``cumulative``            accepting an answer consumes *all* partial-match
                          state (the evaluator is reset)
========================  ====================================================
"""

from __future__ import annotations

from repro.errors import EventQueryError
from repro.events.answers import answer_sort_key
from repro.events.model import EventAnswer

POLICIES = ("unrestricted", "chronicle", "recent", "cumulative")


class ConsumptionPolicy:
    """Stateful filter applying one of the named policies."""

    def __init__(self, name: str = "unrestricted") -> None:
        if name not in POLICIES:
            raise EventQueryError(
                f"unknown consumption policy {name!r}; choose from {POLICIES}"
            )
        self.name = name
        self._consumed: set[int] = set()

    def apply(self, batch: list[EventAnswer]) -> tuple[list[EventAnswer], bool]:
        """Filter one batch of simultaneous answers.

        Returns ``(accepted, reset_requested)``; the caller resets the
        evaluator when the cumulative policy accepted something.
        """
        if self.name == "unrestricted":
            return list(batch), False
        viable = [a for a in batch if not (set(a.events) & self._consumed)]
        if self.name == "chronicle":
            accepted = []
            for answer in sorted(viable, key=answer_sort_key):
                if set(answer.events) & self._consumed:
                    continue
                accepted.append(answer)
                self._consumed.update(answer.events)
            return accepted, False
        if self.name == "recent":
            if not viable:
                return [], False
            latest = max(viable, key=lambda a: (a.start, answer_sort_key(a)))
            self._consumed.update(latest.events)
            return [latest], False
        # cumulative
        if not viable:
            return [], False
        accepted = sorted(viable, key=answer_sort_key)
        return accepted, True

    def forget(self) -> None:
        """Drop consumption history (used after a cumulative reset)."""
        self._consumed.clear()


class ConsumingEvaluator:
    """Wraps an evaluator, applying a consumption policy to its answers.

    The wrapped evaluator may be incremental or naive; the policy only sees
    confirmed answers, so it composes with either.
    """

    def __init__(self, evaluator, policy: "str | ConsumptionPolicy" = "unrestricted") -> None:
        self._evaluator = evaluator
        self.policy = policy if isinstance(policy, ConsumptionPolicy) else ConsumptionPolicy(policy)

    def on_event(self, event) -> list[EventAnswer]:
        return self._filter(self._evaluator.on_event(event))

    def advance_time(self, now: float) -> list[EventAnswer]:
        return self._filter(self._evaluator.advance_time(now))

    def _filter(self, batch: list[EventAnswer]) -> list[EventAnswer]:
        accepted, reset = self.policy.apply(batch)
        if reset:
            self._evaluator.reset()
            self.policy.forget()
        return accepted

    def interest(self):
        """Delegate the :class:`EventInterest` to the wrapped evaluator.

        Consumption only filters confirmed answers, so it never widens the
        set of events the underlying query needs to see.
        """
        return self._evaluator.interest()

    def state_size(self) -> int:
        return self._evaluator.state_size()

    def next_deadline(self) -> float | None:
        return self._evaluator.next_deadline()

    def reset(self) -> None:
        self._evaluator.reset()
        self.policy.forget()

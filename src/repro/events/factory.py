"""Pluggable evaluator construction — the ``EngineConfig(evaluator=...)`` knob.

The engine, the sharding router, and the facade all build evaluators
through one seam: an :class:`EvaluatorFactory` resolved once per node from
the config.  The built-in mechanisms:

==============  =============================================================
name            mechanism
==============  =============================================================
``incremental`` :class:`~repro.events.incremental.IncrementalEvaluator` —
                prefix extension, the paper's data-driven default
``naive``       :class:`ScheduledNaiveEvaluator` — full re-evaluation over
                the whole history (the Thesis 6 baseline), wrapped so
                absence deadlines still schedule engine wake-ups
==============  =============================================================

``resolve_evaluator`` also accepts a factory object directly (anything with
``name`` and ``build(query, rates=None)``), so applications can register
their own mechanism with :func:`register_evaluator` or pass one inline.
The engine builds with ``build(query)`` alone: no built-in mechanism plans
from rates, so the optional second argument is accepted for callers that
still pass one and is otherwise ignored.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Protocol, runtime_checkable

from repro.errors import EventQueryError
from repro.events.incremental import IncrementalEvaluator
from repro.events.naive import NaiveEvaluator
from repro.events.queries import EAggregate, EAnd, ECount, ENot, EOr, ESeq, EWithin

__all__ = [
    "EVALUATORS",
    "EvaluatorFactory",
    "ScheduledNaiveEvaluator",
    "register_evaluator",
    "resolve_evaluator",
]

#: The built-in evaluation mechanisms, by config name.
EVALUATORS = ("incremental", "naive")


@runtime_checkable
class EvaluatorFactory(Protocol):
    """Builds one evaluator per rule; consumed by engine, router, facade.

    The engine calls ``build(query)``.  ``rates`` is kept, optional and
    unused by every built-in mechanism, so existing two-argument callers
    keep working; a custom builder receives whatever the caller passed.
    """

    name: str

    def build(self, query, rates: "dict[str, float] | None" = None): ...


def _absence_windows(query, window: "float | None", acc: set) -> set:
    """Every ``EWithin`` window governing a trailing-``ENot`` sequence."""
    if isinstance(query, EWithin):
        _absence_windows(query.query, query.window, acc)
    elif isinstance(query, (EAnd, EOr)):
        for member in query.members:
            _absence_windows(member, window, acc)
    elif isinstance(query, ESeq):
        if query.members and isinstance(query.members[-1], ENot) and window is not None:
            acc.add(window)
        for member in query.members:
            if not isinstance(member, ENot):
                _absence_windows(member, window, acc)
    elif isinstance(query, (ECount, EAggregate)):
        pass  # emit only on events; no absence deadlines
    return acc


class ScheduledNaiveEvaluator(NaiveEvaluator):
    """The naive baseline with engine-schedulable absence deadlines.

    :class:`NaiveEvaluator` answers ``next_deadline()`` with None — it
    cannot tell when a trailing absence confirms without re-evaluating, so
    a bare naive evaluator inside an engine would only fire absence answers
    when some later event happens to arrive.  This wrapper keeps a heap of
    *candidate* deadlines — ``event time + window`` for every absence
    window in the query — which is a superset of the true deadlines (an
    absence answer's deadline is its first positive's event time plus the
    window).  Spurious candidates just trigger a harmless re-evaluation.
    """

    def __init__(self, query) -> None:
        super().__init__(query)
        self._absence_windows = tuple(sorted(_absence_windows(query, None, set())))
        self._deadlines: list[float] = []

    def on_event(self, event):
        out = super().on_event(event)
        for window in self._absence_windows:
            heappush(self._deadlines, event.time + window)
        self._drain(event.time)
        return out

    def advance_time(self, now: float):
        out = super().advance_time(now)
        self._drain(now)
        return out

    def _drain(self, now: float) -> None:
        while self._deadlines and self._deadlines[0] <= now:
            heappop(self._deadlines)

    def next_deadline(self) -> "float | None":
        return self._deadlines[0] if self._deadlines else None

    def reset(self) -> None:
        super().reset()
        self._deadlines.clear()


class _Factory:
    """A named factory around a ``(query, rates) -> evaluator`` builder."""

    __slots__ = ("name", "_builder")

    def __init__(self, name: str, builder) -> None:
        self.name = name
        self._builder = builder

    def build(self, query, rates: "dict[str, float] | None" = None):
        return self._builder(query, rates)

    def __repr__(self) -> str:
        return f"<evaluator factory {self.name!r}>"


_REGISTRY: dict[str, EvaluatorFactory] = {
    "incremental": _Factory("incremental", lambda query, rates=None: IncrementalEvaluator(query)),
    "naive": _Factory("naive", lambda query, rates=None: ScheduledNaiveEvaluator(query)),
}


def register_evaluator(name: str, builder) -> EvaluatorFactory:
    """Register a custom mechanism under *name*; returns its factory.

    *builder* is called as ``builder(query, rates)`` and must return an
    object with the evaluator surface (``on_event``, ``advance_time``,
    ``interest``, ``state_size``, ``next_deadline``, ``reset``).
    """
    factory = _Factory(name, builder)
    _REGISTRY[name] = factory
    return factory


def resolve_evaluator(spec) -> EvaluatorFactory:
    """Resolve the ``evaluator=`` config value to a factory.

    Accepts a registered name (``"incremental"``, ``"naive"``, or anything
    added via :func:`register_evaluator`), a factory object, or
    a bare ``(query, rates) -> evaluator`` callable.
    """
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise EventQueryError(
                f"unknown evaluator {spec!r}; choose from {tuple(sorted(_REGISTRY))}"
            ) from None
    if hasattr(spec, "build") and hasattr(spec, "name"):
        return spec
    if callable(spec):
        return _Factory(getattr(spec, "__name__", "custom"), spec)
    raise EventQueryError(
        f"evaluator must be a name, factory, or builder callable: {spec!r}"
    )

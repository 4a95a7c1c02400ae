"""Events: volatile data, composite event queries, and their evaluation.

Implements Theses 4-6 of the paper:

- **Thesis 4** — events are *volatile* data, distinct from persistent Web
  data: :class:`~repro.events.model.Event` instances are immutable,
  timestamped, and never stored beyond what live partial matches require
  (windowed queries give every piece of state a deadline; see
  :meth:`IncrementalEvaluator.state_size`).
- **Thesis 5** — the four dimensions of event queries: *data extraction*
  (term patterns with variables), *event composition* (and/or/seq with
  negation), *temporal conditions* (windows, relative order), and *event
  accumulation* (counts and sliding aggregates).
- **Thesis 6** — data-driven, *incremental* evaluation
  (:class:`IncrementalEvaluator`) versus the query-driven, re-evaluate-the-
  whole-history baseline (:class:`NaiveEvaluator`).  All mechanisms
  implement the same declarative semantics
  (:func:`repro.events.naive.answers`), which the property suite checks on
  random streams.

Two evaluation mechanisms share that semantics, selected per node with
``EngineConfig(evaluator=...)`` and built through the
:class:`EvaluatorFactory` seam (:func:`resolve_evaluator` /
:func:`register_evaluator`): ``"incremental"`` (prefix extension, the
default) and ``"naive"`` (the re-evaluation baseline and the oracle).
:func:`replay_horizon` bounds how much event history a query's live
state can depend on.
"""

from repro.events.answers import answer_sort_key, dedup_answers
from repro.events.consumption import ConsumptionPolicy, ConsumingEvaluator
from repro.events.factory import (
    EVALUATORS,
    EvaluatorFactory,
    ScheduledNaiveEvaluator,
    register_evaluator,
    resolve_evaluator,
)
from repro.events.incremental import IncrementalEvaluator
from repro.events.model import Event, EventAnswer
from repro.events.naive import NaiveEvaluator, answers
from repro.events.queries import (
    Discriminator,
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EventInterest,
    EWithin,
    pattern_discriminators,
    pattern_event_interest,
    pattern_interest,
    query_interest,
    replay_horizon,
    validate_query,
)

__all__ = [
    "ConsumingEvaluator",
    "ConsumptionPolicy",
    "Discriminator",
    "EAggregate",
    "EAnd",
    "EAtom",
    "ECount",
    "ENot",
    "EOr",
    "ESeq",
    "EVALUATORS",
    "EWithin",
    "Event",
    "EventAnswer",
    "EventInterest",
    "EvaluatorFactory",
    "IncrementalEvaluator",
    "NaiveEvaluator",
    "ScheduledNaiveEvaluator",
    "answer_sort_key",
    "answers",
    "dedup_answers",
    "replay_horizon",
    "register_evaluator",
    "resolve_evaluator",
    "pattern_discriminators",
    "pattern_event_interest",
    "pattern_interest",
    "query_interest",
    "validate_query",
]

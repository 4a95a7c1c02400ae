"""Adaptive per-rule evaluator selection: ``EngineConfig(evaluator="adaptive")``.

PR 7 made the evaluation mechanism a *manual* knob (``"incremental"`` /
``"tree"`` / ``"naive"``) and E19 showed the right choice is
workload-dependent: join trees win 2.3-2.6x on skewed long patterns and
cost 25-45% on uniform streams.  This module makes the choice the
*engine's* problem: :class:`AdaptiveEvaluator` wraps one fixed-mechanism
evaluator per rule and lets a :class:`MechanismGovernor` switch it between
incremental and tree evaluation at runtime, from observed traffic — with
hysteresis so oscillating skew cannot thrash the plan, and with a
*lossless* live state migration so a switch mid-stream never loses,
duplicates, or reorders an answer.

Cost model
----------

Decisions are driven exclusively by **evaluator-local** signals, all of
them deterministic functions of the event stream the rule's query is
interested in:

- per-label EWMA event masses, decayed in *simulated* time
  (``GovernorConfig.halflife``) — windowed rates, not the engine's
  cumulative per-label counters;
- the query's join-chain shapes (every windowed ``ESeq`` / ``EAnd`` with
  at least two positive members).

That restriction is what makes sharding sound: replicas of one rule on
several shards see identical interested-event streams, so their governors
observe identical masses at identical times and take identical decisions
— no cross-shard coordination needed (the shard router's replica replay
property is tested with the adaptive mechanism in
``tests/properties/test_adaptive_equivalence.py``).  Wall-clock readings
(matcher-call deltas, advance timings) are surfaced through stats but
never feed a decision.

For each chain the governor prices both mechanisms analytically: with
expected per-member match counts ``n_i`` inside one window (EWMA mass
converted to a rate, times the window, plus one), prefix extension
materialises ``sum_k prod(n_1..n_k)`` partial matches in textual order,
while the tree joins rarest-first — the same sum over the ascending
ordering, times a constant bookkeeping factor
(``GovernorConfig.tree_overhead``, calibrated from E19's uniform
column).  The mechanism with the lower total wins, but only past a
minimum dwell (``dwell_epochs``) — and entry to the tree additionally
requires clearing a score margin (``margin``); ties and small
advantages stay put.

Lossless migration by bounded replay
------------------------------------

Both mechanisms gc their state against the query's windows, so every
*live* partial match is derivable from the recent event suffix:
:func:`replay_horizon` computes, per query, how many seconds of events
suffice to rebuild all of it (``None`` = unbounded, e.g. an
``EAggregate`` whose rise%% baseline survives quiet periods — such
queries are **pinned** to their initial mechanism and pay zero adaptive
overhead).  A switch builds a fresh evaluator of the target mechanism,
replays the retained suffix into it in arrival order, advances it to the
current clock, and *discards everything it emits* — exactly the answers
the old evaluator already emitted, because ``on_event`` fires pendings
with ``deadline <= event.time`` in both mechanisms, so after any call at
time *t* the emitted sets agree.  Consumption marks survive by
construction: :class:`~repro.events.consumption.ConsumingEvaluator`
wraps *outside* the adaptive layer, so its policy state never migrates
at all.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import EventQueryError
from repro.events.incremental import IncrementalEvaluator
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
from repro.events.tree import TreeEvaluator

__all__ = [
    "AdaptiveEvaluator",
    "GovernorConfig",
    "MechanismGovernor",
    "adaptive",
    "replay_horizon",
]

_LN2 = math.log(2.0)
_MECHANISMS = ("incremental", "tree")


@dataclass(frozen=True)
class GovernorConfig:
    """Every knob of the adaptive mechanism, in one frozen value.

    - ``epoch_events`` — a governor *epoch* is this many events seen by
      the rule's evaluator; scores are re-evaluated at every epoch
      boundary (and at periodic ticks, below), and the per-label EWMA
      masses fold in at the same granularity (per-event work is a single
      counter bump).  Event-counted epochs are what keeps replicated
      rules' governors in lock-step across shards.
    - ``period`` — simulated seconds between governor ticks while the
      evaluator holds live state; ticks ride the engine's existing
      absence-deadline wake-up machinery (``next_deadline``), and stop
      rescheduling once state and replay log are empty, so a quiet node
      goes fully quiescent.
    - ``halflife`` — EWMA half-life (simulated seconds) of the per-label
      event masses feeding the cost model.
    - ``dwell_epochs`` — minimum epochs between switches (hysteresis).
    - ``margin`` — entering the tree, the challenger must beat the
      incumbent by this score fraction (strictly); the way back to
      incremental needs only a strict win (see
      :meth:`MechanismGovernor.preferred`), and a tie always stays put.
    - ``tree_overhead`` — constant bookkeeping factor the tree mechanism
      is charged per chain (E19: ~25-45% on uniform streams).
    - ``min_mass`` — total decayed mass required before any switch.
    - ``initial`` — mechanism built at construction.
    """

    epoch_events: int = 32
    period: float = 30.0
    halflife: float = 30.0
    dwell_epochs: int = 3
    margin: float = 0.2
    tree_overhead: float = 1.3
    min_mass: float = 0.0
    initial: str = "incremental"

    def __post_init__(self) -> None:
        if self.epoch_events < 1:
            raise EventQueryError(
                f"epoch_events must be >= 1, got {self.epoch_events}")
        if not self.period > 0.0:
            raise EventQueryError(f"period must be > 0, got {self.period}")
        if not self.halflife > 0.0:
            raise EventQueryError(f"halflife must be > 0, got {self.halflife}")
        if self.dwell_epochs < 0:
            raise EventQueryError(
                f"dwell_epochs must be >= 0, got {self.dwell_epochs}")
        if self.margin < 0.0:
            raise EventQueryError(f"margin must be >= 0, got {self.margin}")
        if not self.tree_overhead > 0.0:
            raise EventQueryError(
                f"tree_overhead must be > 0, got {self.tree_overhead}")
        if self.min_mass < 0.0:
            raise EventQueryError(f"min_mass must be >= 0, got {self.min_mass}")
        if self.initial not in _MECHANISMS:
            raise EventQueryError(
                f"initial mechanism must be one of {_MECHANISMS}, "
                f"got {self.initial!r}")


def replay_horizon(query, window: "float | None" = None) -> "float | None":
    """Seconds of retained events sufficient to rebuild all live state.

    Both mechanisms gc partial matches, blockers, and pendings against
    the query's windows: after any call at time *t*, every contributing
    event of still-live state has ``time >= t - H`` for the *H* computed
    here (a safe overestimate for nested compositions).  ``None`` means
    unbounded — some state depends on arbitrarily old events (an
    unwindowed sequence, or an ``EAggregate`` whose previous-aggregate
    baseline deliberately survives gc) — and the adaptive evaluator pins
    such queries to their initial mechanism.

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


def _collect_chains(query, window, out) -> None:
    """Every windowed ``ESeq``/``EAnd`` with >= 2 positives, as
    ``(window, [per-positive label sets])`` rows (``None`` = wildcard)."""
    if isinstance(query, EWithin):
        _collect_chains(query.query, query.window, out)
    elif isinstance(query, EOr):
        for member in query.members:
            _collect_chains(member, window, out)
    elif isinstance(query, (ESeq, EAnd)):
        positives = [m for m in query.members if not isinstance(m, ENot)]
        if window is not None and len(positives) >= 2:
            out.append((window, [query_interest(m).labels for m in positives]))
        for member in positives:
            _collect_chains(member, window, out)


def _chain_cost(counts: "list[float]") -> float:
    """Live partial matches a left-deep chain holds: sum of the prefix
    products (the last, complete level is emitted, not stored)."""
    cost = 0.0
    acc = 1.0
    for n in counts[:-1]:
        acc *= n
        cost += acc
    return cost


class MechanismGovernor:
    """Scores incremental-vs-tree for one query from decayed label rates.

    Pure arithmetic over the query's chain shapes — no evaluator state,
    no wall-clock — so two governors fed the same rates always agree
    (the per-shard-replica requirement).
    """

    def __init__(self, query, config: GovernorConfig) -> None:
        self.config = config
        self.chains: list = []
        _collect_chains(query, None, self.chains)

    def scores(self, rates: "dict[str, float]", total: float) -> "dict[str, float]":
        """Per-mechanism cost; lower is better.  *rates* are decayed
        masses, *total* their sum (the wildcard-member estimate)."""
        per_second = _LN2 / self.config.halflife
        incremental = tree = 0.0
        for window, members in self.chains:
            counts = []
            for labels in members:
                mass = total if labels is None else sum(
                    rates.get(label, 0.0) for label in labels)
                # expected matches of this member inside one window, plus
                # one so an all-quiet chain scores the mechanisms equal
                counts.append(mass * per_second * window + 1.0)
            incremental += _chain_cost(counts)
            tree += self.config.tree_overhead * _chain_cost(sorted(counts))
        return {"incremental": incremental, "tree": tree}

    def preferred(self, incumbent: str, rates: "dict[str, float]",
                  total: float) -> "str | None":
        """The mechanism to switch to, or ``None`` to stay put.

        The challenger must *strictly* beat the incumbent — equal scores
        (and, entering the tree, any advantage inside the margin) keep
        the incumbent, which is half of the anti-thrash story (the dwell
        guard in :class:`AdaptiveEvaluator` is the other half).

        The margin is asymmetric by design: it gates *entry* to the tree
        — the mechanism whose payoff rests on a rate estimate that noise
        can fake — while the way back to incremental evaluation only
        needs the scores to flip.  ``tree_overhead`` already handicaps
        the tree in that comparison, so a symmetric margin would add no
        thrash protection; it would only prolong a stale join plan after
        the skew that justified it has drifted away.
        """
        if total < self.config.min_mass:
            return None
        scores = self.scores(rates, total)
        challenger = "tree" if incumbent == "incremental" else "incremental"
        margin = self.config.margin if challenger == "tree" else 0.0
        if scores[challenger] * (1.0 + margin) < scores[incumbent]:
            return challenger
        return None


class AdaptiveEvaluator:
    """One rule's evaluator that re-selects its mechanism at runtime.

    Implements the full evaluator surface (``on_event`` /
    ``advance_time`` / ``interest`` / ``state_size`` / ``next_deadline``
    / ``reset`` / ``replan`` / ``plan``) by delegating to the current
    inner mechanism, plus:

    - :attr:`mechanism` — the mechanism currently running;
    - :attr:`switches` — switches taken so far (surfaced through
      ``NodeStats`` as ``evaluator_switches``);
    - :attr:`pinned` — ``True`` when the query admits no safe switch
      (unbounded :func:`replay_horizon`, or no join chain to reorder);
      pinned evaluators keep no log and take no governor decisions;
    - :meth:`switch_to` — force a migration now (the property suite's
      entry point; the governor calls it too).
    """

    def __init__(self, query, rates: "dict[str, float] | None" = None,
                 config: "GovernorConfig | None" = None) -> None:
        validate_query(query)
        self.query = query
        self.config = config if config is not None else GovernorConfig()
        self.governor = MechanismGovernor(query, self.config)
        self._horizon = replay_horizon(query)
        self.pinned = self._horizon is None or not self.governor.chains
        self.switches = 0
        self._log: "deque[Event]" = deque()
        self._mass: "dict[str, tuple[float, float]]" = {}
        # Per-label event counts of the current (unfinished) epoch; folded
        # into the decayed masses at epoch boundaries by `_fold`.
        self._pending: "dict[str, int]" = {}
        self._clock = float("-inf")
        self._events_in_epoch = 0
        # Hot-path copies of the config knobs (attribute access on the
        # frozen dataclass is measurable at per-event frequency).
        self._halflife = self.config.halflife
        self._epoch_events = self.config.epoch_events
        self._period = self.config.period
        # Free to switch at the first decision: dwell limits the gap
        # *between* switches, not the time to the first one.
        self._epochs_since_switch = self.config.dwell_epochs
        self._next_tick: "float | None" = None
        if self.config.initial == "tree":
            self._inner = TreeEvaluator(query, rates)
        else:
            self._inner = IncrementalEvaluator(query)

    # -- evaluator surface ----------------------------------------------------

    @property
    def mechanism(self) -> str:
        """The mechanism currently evaluating this query."""
        return self._inner.mechanism

    def on_event(self, event: Event) -> "list[EventAnswer]":
        """Process one event; may switch mechanisms at an epoch boundary
        (invisible in the returned answers — the property suite's claim)."""
        if self.pinned:
            out = self._inner.on_event(event)
            if event.time > self._clock:
                self._clock = event.time
            return out
        # The per-event observe work is one counter bump plus the log
        # append; the EWMA decay arithmetic is deferred to `_fold` at the
        # epoch boundary.  What remains here is the adaptive mechanism's
        # overhead floor on streams where no switch ever pays (E21's
        # uniform phase).
        t = event.time
        pending = self._pending
        label = event.term.label
        pending[label] = pending.get(label, 0) + 1
        self._log.append(event)
        out = self._inner.on_event(event)
        if t > self._clock:
            self._clock = t
        self._events_in_epoch += 1
        if self._events_in_epoch >= self._epoch_events:
            self._events_in_epoch = 0
            self._fold(t)
            # Pruning only at epoch boundaries retains up to one epoch of
            # extra suffix — harmless: replaying a superset of the horizon
            # rebuilds the same state (full-history replay would).
            self._prune(t)
            self._consider()
        next_tick = self._next_tick
        if next_tick is None or next_tick <= t:
            self._next_tick = t + self._period  # the log is non-empty here
        return out

    def advance_time(self, now: float) -> "list[EventAnswer]":
        """Advance the clock; governor ticks piggyback on wake-ups here."""
        out = self._inner.advance_time(now)
        self._clock = max(self._clock, now)
        if not self.pinned:
            self._prune(now)
            if self._next_tick is not None and now >= self._next_tick:
                self._next_tick = None
                self._consider()
            self._arm_tick(now)
        return out

    def interest(self):
        """The :class:`~repro.events.queries.EventInterest` of the query
        (mechanism-independent, so dispatch never changes on a switch)."""
        return query_interest(self.query)

    def state_size(self) -> int:
        """Inner partial-match state plus the retained replay log."""
        return self._inner.state_size() + len(self._log)

    def next_deadline(self) -> "float | None":
        """Earliest of the inner absence deadline and the governor tick."""
        inner = self._inner.next_deadline()
        if self._next_tick is None:
            return inner
        if inner is None:
            return self._next_tick
        return min(inner, self._next_tick)

    def reset(self) -> None:
        """Drop all partial-match state (cumulative consumption).

        The replay log goes with it — replaying pre-reset events would
        resurrect consumed state; the rate masses stay (statistics, not
        match state, and replicas reset at identical points)."""
        self._inner.reset()
        self._log.clear()

    def replan(self, rates: "dict[str, float] | None" = None) -> None:
        """Engine ``refresh()`` hook: re-score and re-plan.

        The engine-supplied *rates* are shard-local (each shard only
        sees its own routed events), so decisions ignore them; the
        governor re-scores from its own decayed masses, and a tree inner
        replans from the same — identical on every replica."""
        if self.pinned:
            sub = getattr(self._inner, "replan", None)
            if sub is not None:
                sub(rates)
            return
        if self._clock > float("-inf"):
            own = self.label_rates(self._clock)
            sub = getattr(self._inner, "replan", None)
            if sub is not None:
                sub(own)
            self._consider()

    def plan(self):
        """The inner join plan (tree), or ``None`` (incremental/leaf)."""
        describe = getattr(self._inner, "plan", None)
        return describe() if describe is not None else None

    # -- governor -------------------------------------------------------------

    def label_rates(self, now: float) -> "dict[str, float]":
        """Per-label EWMA masses decayed to *now* (simulated time),
        including the current epoch's not-yet-folded counts (undecayed —
        they are at most one epoch old)."""
        halflife = self._halflife
        out = {}
        for label, (mass, stamp) in self._mass.items():
            if now > stamp:
                mass *= 0.5 ** ((now - stamp) / halflife)
            out[label] = mass
        for label, count in self._pending.items():
            out[label] = out.get(label, 0.0) + count
        return out

    def switch_to(self, target: str) -> bool:
        """Migrate to *target* now; ``True`` if a switch happened.

        Builds a fresh evaluator of the target mechanism, replays the
        retained event suffix into it (in arrival order), advances it to
        the current clock, and discards everything it emitted along the
        way — by the shared ``deadline <= t`` firing contract that is
        exactly the set the old evaluator already emitted, so no answer
        is lost, duplicated, or reordered.  Pinned queries refuse."""
        if target not in _MECHANISMS:
            raise EventQueryError(
                f"unknown mechanism {target!r}; choose from {_MECHANISMS}")
        if self.pinned or target == self._inner.mechanism:
            return False
        if target == "tree":
            rates = self.label_rates(self._clock) \
                if self._clock > float("-inf") else None
            fresh = TreeEvaluator(self.query, rates or None)
        else:
            fresh = IncrementalEvaluator(self.query)
        for event in self._log:
            fresh.on_event(event)  # suppressed: already emitted pre-switch
        if self._clock > float("-inf"):
            fresh.advance_time(self._clock)  # suppressed: deadlines <= clock fired
        self._inner = fresh
        self.switches += 1
        self._epochs_since_switch = 0
        return True

    def _consider(self) -> None:
        """One governor decision (epoch boundary, tick, or refresh)."""
        self._epochs_since_switch += 1
        if self._epochs_since_switch <= self.config.dwell_epochs:
            return  # hysteresis: stay put until the dwell has passed
        rates = self.label_rates(self._clock)
        target = self.governor.preferred(
            self._inner.mechanism, rates, sum(rates.values()))
        if target is not None:
            self.switch_to(target)

    def _fold(self, now: float) -> None:
        """Fold the finished epoch's per-label counts into the masses.

        Attributing a whole epoch's counts to the boundary instant
        (instead of decaying each arrival individually) biases a mass by
        at most one epoch of missed decay — and *identically* on every
        replica, because epoch boundaries are event-counted, so the
        replica-agreement property is untouched."""
        mass = self._mass
        halflife = self._halflife
        for label, count in self._pending.items():
            entry = mass.get(label)
            if entry is None:
                mass[label] = (float(count), now)
            else:
                old, stamp = entry
                if now > stamp:
                    old *= 0.5 ** ((now - stamp) / halflife)
                mass[label] = (old + count, now)
        self._pending.clear()

    def _prune(self, now: float) -> None:
        # Two ulps of slack below the exact cutoff, mirroring the tree's
        # candidate narrowing: retention must be a superset of what the
        # mechanisms' own gc keeps (they keep spans[0][0] >= now - W).
        cutoff = now - self._horizon
        cutoff = math.nextafter(math.nextafter(cutoff, -math.inf), -math.inf)
        log = self._log
        while log and log[0].time < cutoff:
            log.popleft()

    def _arm_tick(self, now: float) -> None:
        # Quiescence-aware: only reschedule while there is live state (or
        # a log to prune) — otherwise the tick chain would keep the
        # scheduler alive forever after the last event.
        if self._log or self._inner.state_size() > 0:
            if self._next_tick is None or self._next_tick <= now:
                self._next_tick = now + self.config.period
        else:
            self._next_tick = None


def adaptive(**knobs):
    """An evaluator builder with custom :class:`GovernorConfig` knobs.

    Usage: ``EngineConfig(evaluator=adaptive(dwell_epochs=5, margin=0.5))``
    — resolved through the ordinary callable path of
    :func:`~repro.events.factory.resolve_evaluator`.
    """
    config = GovernorConfig(**knobs)

    def build(query, rates: "dict[str, float] | None" = None):
        return AdaptiveEvaluator(query, rates, config)

    build.__name__ = "adaptive"
    return build

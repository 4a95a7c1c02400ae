"""The ``check`` phase: the served configuration against a reference node.

Deterministic, in-process, untimed.  The first ``check_events`` events (fewer under ``--smoke``)
of the workload's stream are fed, under the logical clock, to

- the **candidate**: the workload's real configuration (its shards, its
  store backend, the default evaluator) through
  ``LoopbackClient(codec="wire")`` — every event is serialised, framed,
  unframed and parsed, then admitted by the gateway; and
- the **reference**: ``evaluator="naive"`` (full re-evaluation, the
  repo's oracle), one shard, memory store, no gateway, events handed
  straight to the node.

They must agree on the ordered list of events the sink received, on the
final resources (content and version) and on the number of rule firings.
A mismatch fails the run; it is not a metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import EngineConfig
from repro.terms.parser import to_text

from workloads import Workload


@dataclass
class Outcome:
    """Everything observable about one node after the check prefix."""

    sink: "list[str]"
    resources: "dict[str, tuple[int, str]]"
    firings: int


def _outcome(node, sink_events) -> Outcome:
    return Outcome(
        sink=sink_events,
        resources={doc.uri: (doc.version, to_text(doc.root))
                   for doc in node.store},
        firings=node.stats.engine.rule_firings)


def _run(workload: Workload, config: EngineConfig, seed: int, count: int,
         step) -> Outcome:
    """Feed the prefix; ``step(sim, node, sender, term, tick)`` delivers
    one event so that the node receives it at logical time *tick*."""
    sim, node, sink = workload.build(config)
    raised: "list[str]" = []
    sink.on_event(lambda event: raised.append(to_text(event.term)))
    rate = workload.check_rate
    try:
        for seq, sender, term in workload.events(seed, 0, count):
            step(sim, node, sender, term, (seq + 1) / rate)
        sim.run_until(count / rate + workload.window)
        return _outcome(node, raised)
    finally:
        node.close()


def candidate(workload: Workload, seed: int, store_path: str,
              count: int) -> Outcome:
    """The served configuration, fed through the wire codec and gateway
    (whose pump hands the event over within the tick after the offer)."""
    def step(sim, node, sender, term, tick):
        if not node.loopback(sender, codec="wire").send(term, sent_at=sim.now):
            raise AssertionError(f"check: the gateway refused {to_text(term)}")
        sim.run_until(tick)
    config = workload.config(store_path, tick_rate=workload.check_rate)
    return _run(workload, config, seed, count, step)


def reference(workload: Workload, seed: int, count: int) -> Outcome:
    """Naive evaluator, one shard, memory store, hand delivery."""
    def step(sim, node, sender, term, tick):
        sim.run_until(tick)
        node.node.deliver(node.node.stamp_event(term, source=sender,
                                                sent_at=sim.now))
    return _run(workload, EngineConfig(evaluator="naive"), seed, count, step)


def differences(expected: Outcome, got: Outcome, limit: int = 5) -> "list[str]":
    """Human-readable mismatches, empty when the outcomes agree."""
    out = []
    if expected.firings != got.firings:
        out.append(f"rule firings: expected {expected.firings}, got {got.firings}")
    if expected.sink != got.sink:
        pairs = list(zip(expected.sink, got.sink))
        first = next((k for k, (a, b) in enumerate(pairs) if a != b), len(pairs))
        out.append(
            f"sink events differ at #{first} of {len(expected.sink)}/{len(got.sink)}: "
            f"expected {expected.sink[first:first + 1]}, got {got.sink[first:first + 1]}")
    for uri in sorted(expected.resources.keys() | got.resources.keys()):
        a, b = expected.resources.get(uri), got.resources.get(uri)
        if a != b:
            out.append(f"resource {uri}: expected {a}, got {b}")
    return out[:limit]


def check(workload: Workload, seed: int, store_path: str,
          count: "int | None" = None) -> "list[str]":
    """Run both sides; the list of differences (empty = pass)."""
    count = workload.check_events if count is None else count
    return differences(reference(workload, seed, count),
                       candidate(workload, seed, store_path, count))

"""Per-node inbox delivery: queueing, drains, batching, and edge cases.

Events are delivered through a FIFO inbox drained by the scheduler (see the
delivery model in :mod:`repro.web.node`): these tests pin the ordering,
timing, batching, and backpressure-accounting guarantees the engine relies
on.
"""

import pytest

from repro.core import EngineConfig, PyAction, ReactiveEngine, eca
from repro.errors import WebError
from repro.events.queries import EAtom
from repro.terms import d, q
from repro.web import Scheduler, Simulation


class TestQueuedDelivery:
    def test_raise_local_is_queued_until_run(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        seen = []
        node.on_event(lambda e: seen.append(e.term.label))
        node.raise_local(d("ping"))
        assert seen == []  # enqueued, not dispatched on the caller's stack
        assert node.inbox_depth == 1
        sim.run()
        assert seen == ["ping"]
        assert node.inbox_depth == 0

    def test_drain_keeps_arrival_timestamp(self):
        # The drain runs at the enqueue instant: handlers observe the same
        # simulated time as inline dispatch did.
        sim = Simulation(latency=0.25)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        arrivals = []
        b.on_event(lambda e: arrivals.append((sim.now, e.time)))
        a.raise_event("http://b.example", d("ping"))
        sim.run()
        assert arrivals == [(0.25, 0.25)]

    def test_same_instant_fifo_within_node(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        seen = []
        node.on_event(lambda e: seen.append(e.term.label))
        for label in ("first", "second", "third"):
            node.raise_local(d(label))
        sim.run()
        assert seen == ["first", "second", "third"]

    def test_same_instant_ordering_across_nodes(self):
        # Each node drains its own inbox in arrival order; a node's whole
        # same-instant backlog drains in one callback, so the cross-node
        # interleave follows the first arrival per node.
        sim = Simulation(latency=0.0)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        seen = []
        a.on_event(lambda e: seen.append(("a", e.term.label)))
        b.on_event(lambda e: seen.append(("b", e.term.label)))
        a.raise_local(d("a1"))
        b.raise_local(d("b1"))
        a.raise_local(d("a2"))
        sim.run()
        assert seen == [("a", "a1"), ("a", "a2"), ("b", "b1")]

    def test_event_raised_by_handler_processed_after_current(self):
        # Breadth-first, not recursive: the nested event drains after the
        # current event's handlers have all finished.
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        seen = []

        def first_handler(event):
            if event.term.label == "outer":
                node.raise_local(d("inner"))
            seen.append(("h1", event.term.label))

        node.on_event(first_handler)
        node.on_event(lambda e: seen.append(("h2", e.term.label)))
        node.raise_local(d("outer"))
        sim.run()
        assert seen == [("h1", "outer"), ("h2", "outer"),
                        ("h1", "inner"), ("h2", "inner")]

    def test_network_inbox_backlog_aggregates_nodes(self):
        sim = Simulation(latency=0.0)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        a.on_event(lambda e: None)
        b.on_event(lambda e: None)
        a.raise_local(d("x"))
        a.raise_local(d("y"))
        b.raise_local(d("z"))
        assert sim.network.inbox_backlog() == 3
        sim.run()
        assert sim.network.inbox_backlog() == 0

    def test_sent_at_zero_occurrence_regression(self):
        # An event sent at t=0.0 occurred at t=0.0 — the old falsy check
        # (`if envelope.sent_at`) stamped it with the arrival time instead.
        sim = Simulation(latency=0.25)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        occurrences = []
        b.on_event(lambda e: occurrences.append(e.occurrence))
        a.raise_event("http://b.example", d("ping"))  # sent at t=0.0
        sim.run()
        assert occurrences == [0.0]


class TestDrainBoundaries:
    def test_drain_inside_run_until_boundary(self):
        # Delivery lands exactly at the run_until horizon: the drain is
        # scheduled at that same instant and still runs inside the call.
        sim = Simulation(latency=0.5)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        seen = []
        b.on_event(lambda e: seen.append(sim.now))
        a.raise_event("http://b.example", d("ping"))
        sim.run_until(0.5)
        assert seen == [0.5]

    def test_raise_after_run_until_waits_for_next_run(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        seen = []
        node.on_event(lambda e: seen.append(sim.now))
        sim.run_until(3.0)
        node.raise_local(d("late"))
        assert seen == []
        sim.run_until(3.0)  # time does not advance; the drain still runs
        assert seen == [3.0]


class TestBatching:
    def test_batch_splits_backlog_at_same_instant(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        node.configure_delivery(inbox_batch=2)
        seen = []
        node.on_event(lambda e: seen.append(e.term.label))
        for i in range(5):
            node.raise_local(d(f"e{i}"))
        sim.run()
        # FIFO order survives the re-scheduled drains, all at t=0.
        assert seen == [f"e{i}" for i in range(5)]
        assert node.inbox_drains == 3  # 2 + 2 + 1
        assert sim.now == 0.0

    def test_handler_exception_does_not_strand_backlog(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        seen = []

        def handler(event):
            if event.term.label == "boom":
                raise RuntimeError("handler failure")
            seen.append(event.term.label)

        node.on_event(handler)
        node.raise_local(d("boom"))
        node.raise_local(d("ok"))
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()  # the drain re-scheduled itself: the backlog still drains
        assert seen == ["ok"]
        assert node.inbox_depth == 0

    def test_bad_batch_rejected(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        with pytest.raises(WebError):
            node.configure_delivery(inbox_batch=0)

    def test_default_engine_config_leaves_node_delivery_alone(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        node.configure_delivery(inbox_batch=4)
        ReactiveEngine(node)  # default EngineConfig: inbox_batch unset
        assert node.inbox_batch == 4

    def test_backpressure_stats(self):
        sim = Simulation(latency=0.0)
        reactive = sim.reactive_node("http://a.example",
                                     config=EngineConfig(inbox_batch=1))
        reactive.install('RULE r ON go{{}} DO PUT "http://a.example/out" out{}')
        for _ in range(4):
            reactive.raise_local("go{}")
        assert reactive.stats.inbox_depth == 4
        assert reactive.stats.inbox_peak == 4
        sim.run()
        assert reactive.stats.inbox_depth == 0
        assert reactive.stats.inbox_peak == 4


class TestMidDrainInstall:
    def test_handler_installs_rule_mid_drain(self):
        # Two same-instant events; the first one's action installs a rule
        # matching the second.  The index rebuild happens mid-drain and the
        # new rule must see the later event.
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        engine = ReactiveEngine(node)
        lates = []
        late_rule = eca("late", EAtom(q("second")),
                        PyAction(lambda n, b: lates.append(sim.now), "rec"))
        engine.install(eca("installer", EAtom(q("first")),
                           PyAction(lambda n, b: engine.install(late_rule), "ins")))
        node.raise_local(d("first"))
        node.raise_local(d("second"))
        sim.run()
        assert lates == [0.0]

    def test_handler_uninstalls_rule_mid_drain(self):
        sim = Simulation(latency=0.0)
        node = sim.node("http://a.example")
        engine = ReactiveEngine(node)
        hits = []
        engine.install(eca("victim", EAtom(q("second")),
                           PyAction(lambda n, b: hits.append(1))))
        engine.install(eca("remover", EAtom(q("first")),
                           PyAction(lambda n, b: engine.uninstall("victim"))))
        node.raise_local(d("first"))
        node.raise_local(d("second"))
        sim.run()
        assert hits == []  # uninstalled before the second event drained


class TestEveryUntil:
    def test_final_tick_exactly_at_until(self):
        scheduler = Scheduler()
        ticks = []
        scheduler.every(1.0, lambda: ticks.append(scheduler.now), until=4.0)
        scheduler.run()
        # The tick at t=4.0 is not past the bound; t=5.0 is suppressed.
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_no_tick_at_all_when_until_precedes_first(self):
        scheduler = Scheduler()
        ticks = []
        scheduler.every(2.0, lambda: ticks.append(scheduler.now), until=1.0)
        scheduler.run()
        assert ticks == []

    def test_soon_runs_after_queued_same_instant_callbacks(self):
        scheduler = Scheduler()
        order = []
        scheduler.at(0.0, lambda: order.append("queued"))
        scheduler.soon(lambda: order.append("soon"))
        scheduler.run()
        assert order == ["queued", "soon"]
        assert scheduler.now == 0.0

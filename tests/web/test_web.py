"""Unit tests for the simulated Web substrate."""

import threading

import pytest

from repro.errors import NodeNotFound, ResourceNotFound, WebError
from repro.terms import d, parse_data, to_text, u
from repro.updates import Transaction
from repro.web import PollingWatcher, Request, Response, Scheduler, Simulation
from repro.web.network import Message, authority
from repro.web.soap import Envelope


class TestScheduler:
    def test_runs_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.at(2.0, lambda: order.append("b"))
        scheduler.at(1.0, lambda: order.append("a"))
        scheduler.at(3.0, lambda: order.append("c"))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        scheduler = Scheduler()
        order = []
        for tag in ("first", "second", "third"):
            scheduler.at(1.0, lambda t=tag: order.append(t))
        scheduler.run()
        assert order == ["first", "second", "third"]

    def test_run_until_stops(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(1.0, lambda: fired.append(1))
        scheduler.at(5.0, lambda: fired.append(5))
        scheduler.run_until(2.0)
        assert fired == [1]
        assert scheduler.now == 2.0
        assert scheduler.pending() == 1

    def test_past_scheduling_rejected(self):
        scheduler = Scheduler()
        scheduler.at(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(WebError):
            scheduler.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(WebError):
            Scheduler().after(-1.0, lambda: None)

    def test_every_repeats_until(self):
        scheduler = Scheduler()
        ticks = []
        scheduler.every(1.0, lambda: ticks.append(scheduler.now), until=4.5)
        scheduler.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_callback_scheduling_callback(self):
        scheduler = Scheduler()
        seen = []

        def first():
            seen.append("first")
            scheduler.after(1.0, lambda: seen.append("second"))

        scheduler.at(1.0, first)
        scheduler.run()
        assert seen == ["first", "second"]

    def test_runaway_guard(self):
        scheduler = Scheduler()

        def loop():
            scheduler.after(0.1, loop)

        scheduler.after(0.1, loop)
        with pytest.raises(WebError):
            scheduler.run(max_callbacks=100)


class TestSchedulerThreadAffinity:
    """The clock is single-threaded by contract; `Scheduler.at` enforces it."""

    @staticmethod
    def _schedule_from_foreign_thread(scheduler):
        """Try to schedule from a fresh thread; return the WebError texts."""
        caught = []

        def schedule():
            try:
                scheduler.soon(lambda: None)
            except WebError as exc:
                caught.append(str(exc))

        thread = threading.Thread(target=schedule)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        return caught

    def test_foreign_thread_schedule_is_rejected(self):
        scheduler = Scheduler()
        scheduler.at(1.0, lambda: None)  # binds ownership to this thread
        caught = self._schedule_from_foreign_thread(scheduler)
        assert caught and "single-threaded" in caught[0]
        scheduler.at(3.0, lambda: None)  # the owner may, of course

    def test_foreign_thread_cannot_touch_the_clock_mid_run(self):
        """run() binds ownership to the driving thread: a helper thread
        spawned by a callback is foreign while the run loop is live."""
        scheduler = Scheduler()
        caught = []
        scheduler.at(1.0, lambda: caught.extend(
            self._schedule_from_foreign_thread(scheduler)))
        scheduler.run()
        assert caught and "single-threaded" in caught[0]
        assert scheduler.pending() == 0  # the foreign callback never landed

    def test_serial_cross_thread_driving_stays_legal(self):
        """A simulation built on one thread and *driven* from another is
        still single-threaded use: run() re-binds clock ownership to the
        driving thread."""
        sim = Simulation(latency=0.05)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        failures = []

        def drive():
            try:
                a.raise_event("http://b.example", d("ping", 1))
                sim.run()
            except Exception as exc:  # noqa: BLE001 - reported to the test
                failures.append(exc)

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert failures == []
        assert b.events_received == 1


class TestNetwork:
    def test_authority_extraction(self):
        assert authority("http://a.example/path/doc") == "http://a.example"
        with pytest.raises(WebError):
            authority("not-a-uri")

    def test_delivery_with_latency(self):
        sim = Simulation(latency=0.25)
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        arrivals = []
        b.on_event(lambda e: arrivals.append(sim.now))
        a.raise_event("http://b.example", d("ping"))
        sim.run()
        assert arrivals == [0.25]

    def test_unknown_destination(self):
        sim = Simulation()
        a = sim.node("http://a.example")
        with pytest.raises(NodeNotFound):
            a.raise_event("http://nowhere.example", d("ping"))

    def test_duplicate_registration_rejected(self):
        sim = Simulation()
        sim.node("http://a.example")
        with pytest.raises(WebError):
            sim.node("http://a.example/other")  # same authority

    def test_traffic_accounting(self):
        sim = Simulation()
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        b.on_event(lambda e: None)
        a.raise_event("http://b.example", d("ping", 1))
        a.raise_event("http://b.example", d("ping", 2))
        sim.run()
        assert sim.stats.messages == 2
        assert sim.stats.bytes > 0
        assert sim.stats.sent_by["http://a.example"] == 2

    def test_broker_doubles_messages(self):
        direct = Simulation()
        x1, y1 = direct.node("http://x.example"), direct.node("http://y.example")
        y1.on_event(lambda e: None)
        x1.raise_event("http://y.example", d("ping"))
        direct.run()

        brokered = Simulation(broker="http://hub.example")
        brokered.node("http://hub.example")
        x2, y2 = brokered.node("http://x.example"), brokered.node("http://y.example")
        y2.on_event(lambda e: None)
        x2.raise_event("http://y.example", d("ping"))
        brokered.run()

        assert direct.stats.messages == 1
        assert brokered.stats.messages == 2
        assert brokered.stats.hotspot()[0] == "http://hub.example"

    def test_fetch_accounts_request_and_response(self):
        sim = Simulation()
        a = sim.node("http://a.example")
        b = sim.node("http://b.example")
        b.put("http://b.example/doc", d("doc", 1))
        content = a.get("http://b.example/doc")
        assert content == d("doc", 1)
        assert sim.stats.messages == 2  # request + response


class TestHttp:
    def test_get_with_body_rejected(self):
        with pytest.raises(WebError):
            Request("GET", "http://a.example/x", d("body"))

    def test_unknown_method_rejected(self):
        with pytest.raises(WebError):
            Request("PATCH", "http://a.example/x")

    def test_response_ok(self):
        assert Response(200).ok
        assert not Response(404).ok

    def test_request_term_encoding(self):
        term = Request("POST", "http://a.example/x", d("data")).to_term()
        assert term.attr("method") == "POST"


class TestSoap:
    def test_round_trip(self):
        envelope = Envelope(d("order", 1), sender="http://a.example", sent_at=3.5)
        back = Envelope.from_term(envelope.to_term())
        assert back.body == d("order", 1)
        assert back.sender == "http://a.example"
        assert back.sent_at == 3.5
        assert back.message_id == envelope.message_id

    def test_malformed_rejected(self):
        with pytest.raises(WebError):
            Envelope.from_term(d("not-an-envelope"))
        with pytest.raises(WebError):
            Envelope.from_term(d("envelope", d("header")))

    def test_message_ids_unique(self):
        assert Envelope(d("x")).message_id != Envelope(d("x")).message_id


class TestResources:
    def test_put_get_version(self):
        sim = Simulation()
        node = sim.node("http://a.example")
        node.put("http://a.example/doc", d("doc", 1))
        assert node.resources.version("http://a.example/doc") == 1
        node.put("http://a.example/doc", d("doc", 2))
        assert node.resources.version("http://a.example/doc") == 2
        assert node.get("http://a.example/doc") == d("doc", 2)

    def test_missing_resource(self):
        sim = Simulation()
        node = sim.node("http://a.example")
        with pytest.raises(ResourceNotFound):
            node.get("http://a.example/missing")

    def test_remote_write_forbidden(self):
        sim = Simulation()
        a = sim.node("http://a.example")
        sim.node("http://b.example")
        with pytest.raises(WebError):
            a.put("http://b.example/doc", d("doc"))

    def test_watchers_notified(self):
        sim = Simulation()
        node = sim.node("http://a.example")
        seen = []
        node.resources.watch(lambda uri, old, new, v: seen.append((uri, old, new, v)))
        node.put("http://a.example/doc", d("doc", 1))
        node.put("http://a.example/doc", d("doc", 2))
        node.resources.delete("http://a.example/doc")
        assert len(seen) == 3
        assert seen[0][1] is None
        assert seen[1][1] == d("doc", 1)
        assert seen[2][2] is None

    def test_snapshot_restore(self):
        """A rolled-back transaction restores the state it began on."""
        sim = Simulation()
        node = sim.node("http://a.example")
        node.put("http://a.example/doc", d("doc", 1))
        transaction = Transaction(node.resources)
        node.put("http://a.example/doc", d("doc", 2))
        node.put("http://a.example/other", d("x"))
        transaction.rollback()
        assert node.get("http://a.example/doc") == d("doc", 1)
        assert node.resources.version("http://a.example/doc") == 1
        assert "http://a.example/other" not in node.resources


class TestPolling:
    def _setup(self):
        sim = Simulation(latency=0.0)
        source = sim.node("http://src.example")
        watcher_node = sim.node("http://watcher.example")
        source.put("http://src.example/doc", d("doc", 0))
        return sim, source, watcher_node

    def test_detects_changes(self):
        sim, source, watcher_node = self._setup()
        watcher = PollingWatcher(watcher_node, "http://src.example/doc", interval=1.0,
                                 until=10.0)

        def change():
            source.put("http://src.example/doc", d("doc", int(sim.now * 10)))
            watcher.record_change(sim.now)

        sim.scheduler.at(2.5, change)
        sim.run_until(10.0)
        assert watcher.changes_detected == 1
        # change at 2.5 detected at poll 3.0
        assert watcher.detection_delays == [pytest.approx(0.5)]

    def test_poll_traffic_scales_with_rate(self):
        sim, source, watcher_node = self._setup()
        PollingWatcher(watcher_node, "http://src.example/doc", interval=0.5, until=10.0)
        sim.run_until(10.0)
        fast_messages = sim.stats.messages

        sim2, source2, watcher_node2 = self._setup()
        PollingWatcher(watcher_node2, "http://src.example/doc", interval=2.0, until=10.0)
        sim2.run_until(10.0)
        slow_messages = sim2.stats.messages
        assert fast_messages > 3 * slow_messages

    def test_missed_intermediate_change(self):
        # Two changes between polls: polling sees only the net effect.
        sim, source, watcher_node = self._setup()
        watcher = PollingWatcher(watcher_node, "http://src.example/doc", interval=5.0,
                                 until=20.0)
        sim.scheduler.at(6.0, lambda: source.put("http://src.example/doc", d("doc", 1)))
        sim.scheduler.at(7.0, lambda: source.put("http://src.example/doc", d("doc", 2)))
        sim.run_until(20.0)
        assert watcher.changes_detected == 1  # one detection for two changes

    def test_aba_change_is_counted_missed_not_misattributed(self):
        """Regression: an A→B→A flip between polls is undetectable by
        fingerprint comparison, but its ``record_change`` timestamps used
        to linger and inflate the *next* unrelated detection's delay.
        They must instead expire (one full interval unseen) into
        ``changes_missed``."""
        sim, source, watcher_node = self._setup()
        uri = "http://src.example/doc"
        watcher = PollingWatcher(watcher_node, uri, interval=1.0, until=10.0)
        original = d("doc", 0)

        def change_to(term):
            source.put(uri, term)
            watcher.record_change(sim.now)

        # Between polls 1.0 and 2.0: A -> B -> A (net: nothing to see).
        sim.scheduler.at(1.2, lambda: change_to(d("doc", 1)))
        sim.scheduler.at(1.4, lambda: change_to(original))
        # A genuinely new value later; detected by the poll at 6.0.
        sim.scheduler.at(5.5, lambda: change_to(d("doc", 2)))
        sim.run_until(10.0)
        assert watcher.changes_detected == 1
        assert watcher.changes_missed == 2          # the ABA pair
        # The detection's delay reflects only its own change (6.0 - 5.5),
        # not the stale ABA timestamps (which would read 4.8 and 4.6).
        assert watcher.detection_delays == [pytest.approx(0.5)]

    def test_fresh_changes_within_one_interval_all_attributed(self):
        """Several changes since the previous poll are all within one
        interval: every one contributes a delay, none expires."""
        sim, source, watcher_node = self._setup()
        uri = "http://src.example/doc"
        watcher = PollingWatcher(watcher_node, uri, interval=5.0, until=20.0)

        def change_to(i):
            source.put(uri, d("doc", i))
            watcher.record_change(sim.now)

        sim.scheduler.at(6.0, lambda: change_to(1))
        sim.scheduler.at(9.0, lambda: change_to(2))
        sim.run_until(20.0)
        assert watcher.changes_detected == 1
        assert watcher.changes_missed == 0
        assert watcher.detection_delays == [pytest.approx(4.0),
                                            pytest.approx(1.0)]


class TestTrafficAccounting:
    def test_rtt_charged_initialised_and_surfaced(self):
        """Regression: ``rtt_charged`` was lazily created via getattr on
        the network; it must exist from construction and be readable
        through ``Simulation.stats``."""
        sim = Simulation(latency=0.1)
        assert sim.network.rtt_charged == 0.0
        assert sim.stats.rtt_charged == 0.0

    def test_fetch_charges_one_round_trip(self):
        sim = Simulation(latency=0.1)
        source = sim.node("http://src.example")
        sink = sim.node("http://sink.example")
        source.put("http://src.example/doc", d("doc", 1))
        sink.get("http://src.example/doc")
        assert sim.stats.rtt_charged == pytest.approx(0.2)
        sink.get("http://src.example/doc")
        assert sim.stats.rtt_charged == pytest.approx(0.4)
        # The old attribute spelling still reads the same ledger.
        assert sim.network.rtt_charged == pytest.approx(0.4)

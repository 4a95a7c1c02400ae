"""Admission-controller tests: policies, rate limiting, fairness, latency.

Everything here runs on the simulated clock, so every latency assertion
is exact — determinism is part of the contract
(:mod:`repro.ingest.stats`).
"""

import pytest

from repro.errors import IngestError, RuleError
from repro.ingest import IngestConfig, IngestGateway
from repro.terms import Data, parse_data
from repro.web.node import Simulation


def order(seq: int) -> Data:
    return Data("order", (Data("seq", (seq,)),))


def make_gateway(config=None, collect=None):
    sim = Simulation()
    node = sim.node("http://sink.example")
    if collect is not None:
        node.on_event(collect)
    return sim, node, IngestGateway(node, config)


def seqs(events) -> list:
    return [e.term.children[0].children[0] for e in events]


class TestConfigValidation:
    def test_defaults_are_valid(self):
        IngestConfig()

    @pytest.mark.parametrize("kwargs", [
        {"high_water": 0},
        {"policy": "drop-newest"},
        {"rate": 0.0},
        {"burst": 0.5},
        {"weights": {"a": 0.0}},
        {"pump_batch": 0},
        {"drain_interval": -1.0},
        {"idle_expiry": 0.0},
        {"max_frame": 4},
        {"latency_samples": 0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(IngestError):
            IngestConfig(**kwargs)


class TestOverflowPolicies:
    def test_reject_refuses_at_high_water(self):
        seen = []
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=3, policy="reject"), seen.append)
        results = [gateway.offer(order(i), sender="a") for i in range(5)]
        assert results == [True, True, True, False, False]
        sim.run()
        assert seqs(seen) == [0, 1, 2]
        assert gateway.stats.rejected == 2
        assert gateway.stats.shed == 2

    def test_drop_oldest_evicts_the_oldest_queued_event(self):
        seen = []
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=3, policy="drop-oldest"), seen.append)
        results = [gateway.offer(order(i), sender="a") for i in range(5)]
        assert results == [True] * 5  # the *new* event is always admitted
        sim.run()
        assert seqs(seen) == [2, 3, 4]  # 0 and 1 were evicted
        assert gateway.stats.dropped == 2

    def test_drop_oldest_is_global_across_senders(self):
        seen = []
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=2, policy="drop-oldest"), seen.append)
        gateway.offer(order(0), sender="a")
        gateway.offer(order(1), sender="b")
        gateway.offer(order(2), sender="a")  # evicts a's 0, the global oldest
        sim.run()
        assert sorted(seqs(seen)) == [1, 2]

    def test_spill_preserves_fifo_order_through_disk(self):
        seen = []
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=2, policy="spill", pump_batch=2,
                         drain_interval=0.1), seen.append)
        for i in range(10):
            assert gateway.offer(order(i), sender="a") is True
        sim.run()
        assert seqs(seen) == list(range(10))  # disk never reorders
        stats = gateway.stats
        assert stats.spilled == 8 and stats.spill_replayed == 8
        assert stats.shed == 0 and stats.fired == 10
        assert gateway.spill_backlog == 0

    def test_spill_keeps_spilling_until_replay_completes(self):
        # Once events are on disk, newer arrivals must follow them there —
        # admitting a newcomer to memory would jump the queue.
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=2, policy="spill"))
        for i in range(3):
            gateway.offer(order(i), sender="a")
        assert gateway.stats.spilled == 1
        gateway.offer(order(3), sender="a")
        assert gateway.stats.spilled == 2  # backlog is below the mark, but
        assert gateway.backlog == 2        # the disk queue is not empty
        sim.run()
        assert gateway.stats.fired == 4

    def test_spill_replay_restores_sent_at(self):
        seen = []
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=1, policy="spill"), seen.append)
        gateway.offer(order(0), sender="a", sent_at=0.0)
        gateway.offer(order(1), sender="a", sent_at=0.0)  # spilled
        sim.scheduler.run_until(5.0)
        assert len(seen) == 2
        # Both kept their send-time occurrence despite firing later.
        assert [e.occurrence for e in seen] == [0.0, 0.0]


class TestDurableSpill:
    """``spill_dir`` names the spill file, fsyncs every record, and makes
    a new gateway on the same directory *recover* the backlog a dead
    process left behind."""

    def config(self, tmp_path, **kw):
        kw.setdefault("high_water", 2)
        kw.setdefault("pump_batch", 2)
        return IngestConfig(policy="spill", spill_dir=str(tmp_path), **kw)

    def spill_path(self, tmp_path):
        import os

        return os.path.join(str(tmp_path), "ingest-spill.wal")

    def test_spilled_records_land_in_the_named_file(self, tmp_path):
        import os

        sim, node, gateway = make_gateway(self.config(tmp_path))
        for i in range(5):
            assert gateway.offer(order(i), sender="a")
        assert gateway.spill_backlog == 3
        assert os.path.getsize(self.spill_path(tmp_path)) > 0
        gateway.close()

    def test_replay_after_simulated_crash(self, tmp_path):
        """The satellite's exact scenario: spill, kill the process (here:
        abandon the gateway undrained), construct a fresh gateway on the
        same directory — every spilled event must still be delivered."""
        sim, node, gateway = make_gateway(self.config(tmp_path))
        for i in range(6):
            assert gateway.offer(order(i), sender="a")
        assert gateway.stats.spilled == 4
        # "Crash": no sim.run(), no drain — the process just dies.  (The
        # descriptor is released as process death would release it; the
        # fsync'd bytes on disk are the point.)
        gateway._spill_file.close()

        seen = []
        sim2, node2, recovered = make_gateway(self.config(tmp_path),
                                              seen.append)
        assert recovered.stats.spill_recovered == 4
        assert recovered.spill_backlog == 4
        sim2.run()
        # The first gateway's two in-memory events died with it; the four
        # fsync'd spill records survived, in order.
        assert seqs(seen) == [2, 3, 4, 5]
        assert recovered.spill_backlog == 0

    def test_torn_trailing_record_is_truncated_on_recovery(self, tmp_path):
        sim, node, gateway = make_gateway(self.config(tmp_path))
        for i in range(5):
            gateway.offer(order(i), sender="a")
        gateway.close()   # release the fd; the records are on disk
        with open(self.spill_path(tmp_path), "ab") as fh:
            fh.write(b"\x00\x00\x02")   # a crash mid-append: torn prefix

        seen = []
        sim2, node2, recovered = make_gateway(self.config(tmp_path),
                                              seen.append)
        assert recovered.stats.spill_recovered == 3
        sim2.run()
        assert seqs(seen) == [2, 3, 4]

    def test_full_drain_truncates_the_file(self, tmp_path):
        import os

        seen = []
        sim, node, gateway = make_gateway(self.config(tmp_path), seen.append)
        for i in range(4):
            gateway.offer(order(i), sender="a")
        sim.run()
        assert seqs(seen) == [0, 1, 2, 3]
        assert os.path.getsize(self.spill_path(tmp_path)) == 0
        # ...so the next gateway recovers nothing.
        sim2, node2, fresh = make_gateway(self.config(tmp_path))
        assert fresh.stats.spill_recovered == 0

    def test_anonymous_spill_is_unchanged_without_spill_dir(self):
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=1, policy="spill"))
        gateway.offer(order(0), sender="a")
        gateway.offer(order(1), sender="a")   # spilled, anonymous file
        assert gateway.stats.spilled == 1
        assert gateway.stats.spill_recovered == 0
        sim.run()
        assert gateway.stats.fired == 2


class TestRateLimiting:
    def test_burst_then_refill_on_the_simulated_clock(self):
        sim, node, gateway = make_gateway(
            IngestConfig(rate=1.0, burst=2.0))
        assert [gateway.offer(order(i), sender="a") for i in range(3)] == \
            [True, True, False]
        assert gateway.stats.rate_limited == 1
        outcomes = []
        sim.scheduler.at(2.5, lambda: outcomes.extend(
            gateway.offer(order(10 + i), sender="a") for i in range(3)))
        sim.run()
        # 2.5 simulated seconds at 1 token/s refills two (bucket cap 2.0).
        assert outcomes == [True, True, False]

    def test_buckets_are_per_sender(self):
        sim, node, gateway = make_gateway(IngestConfig(rate=1.0, burst=1.0))
        assert gateway.offer(order(0), sender="a") is True
        assert gateway.offer(order(1), sender="a") is False
        assert gateway.offer(order(2), sender="b") is True  # b's own bucket


class TestWeightedFairness:
    def test_deficit_round_robin_serves_by_weight(self):
        seen = []
        sim, node, gateway = make_gateway(
            IngestConfig(weights={"heavy": 2.0}, pump_batch=3,
                         drain_interval=1.0), seen.append)
        for i in range(12):
            gateway.offer(order(i), sender="heavy")
        for i in range(100, 112):
            gateway.offer(order(i), sender="light")
        sim.scheduler.run_until(3.5)  # three pump rounds of 3
        heavy = sum(1 for s in seqs(seen) if s < 100)
        light = len(seen) - heavy
        assert len(seen) == 9
        assert heavy == 6 and light == 3  # 2:1, the configured weights
        sim.run()
        assert gateway.stats.fired == 24  # and nobody starves

    def test_single_sender_fifo_is_preserved(self):
        seen = []
        sim, node, gateway = make_gateway(
            IngestConfig(pump_batch=4, drain_interval=0.5), seen.append)
        for i in range(10):
            gateway.offer(order(i), sender="a")
        sim.run()
        assert seqs(seen) == list(range(10))


class TestLatencyAccounting:
    def test_enqueue_to_fire_latency_is_exact(self):
        sim, node, gateway = make_gateway(
            IngestConfig(pump_batch=1, drain_interval=0.5))
        for i in range(3):
            gateway.offer(order(i), sender="a")
        sim.run()
        latency = gateway.stats.latency
        assert latency.count == 3
        # One event per 0.5s round: latencies exactly 0.5, 1.0, 1.5.
        assert latency.percentile(0) == 0.5
        assert latency.percentile(50) == 1.0
        assert latency.max == 1.5
        assert latency.mean == 1.0

    def test_foreign_events_are_not_charged_to_ingestion(self):
        sim, node, gateway = make_gateway()
        gateway.offer(order(0), sender="a")
        node.raise_local(parse_data("other{ }"))  # hand delivery, no gateway
        sim.run()
        assert gateway.stats.fired == 1
        assert gateway.stats.latency.count == 1

    def test_reservoir_keeps_exact_count_and_max(self):
        sim, node, gateway = make_gateway(
            IngestConfig(pump_batch=1, drain_interval=0.1,
                         latency_samples=4))
        for i in range(20):
            gateway.offer(order(i), sender="a")
        sim.run()
        latency = gateway.stats.latency
        assert latency.count == 20           # exact even when sampling
        assert latency.max == pytest.approx(2.0)
        assert 0.1 <= latency.percentile(50) <= 2.0


class TestHousekeeping:
    def test_idle_senders_expire_and_the_sweep_stops_itself(self):
        sim, node, gateway = make_gateway(IngestConfig(idle_expiry=1.0))
        gateway.offer(order(0), sender="a")
        gateway.offer(order(1), sender="b")
        assert gateway.stats.senders_tracked == 2
        sim.scheduler.at(5.0, lambda: gateway.offer(order(2), sender="c"))
        sim.run()  # terminates: the recurring sweep stops when state is gone
        assert gateway.stats.senders_expired == 3
        assert gateway.stats.senders_tracked == 0

    def test_backlog_gauges(self):
        sim, node, gateway = make_gateway(
            IngestConfig(pump_batch=2, drain_interval=0.1))
        for i in range(5):
            gateway.offer(order(i), sender="a")
        assert gateway.backlog == 5
        assert gateway.stats.backlog_peak == 5
        sim.run()
        assert gateway.backlog == 0
        assert gateway.stats.backlog == 0
        assert gateway.stats.backlog_peak == 5

    def test_close_is_idempotent(self):
        sim, node, gateway = make_gateway(
            IngestConfig(high_water=1, policy="spill"))
        gateway.offer(order(0), sender="a")
        gateway.offer(order(1), sender="a")  # opens the spill file
        sim.run()
        gateway.close()
        gateway.close()


class TestFacadeIntegration:
    RULE = """
        RULE count
        ON order{{ seq[var S] }}
        DO RAISE TO "http://sink.example" seen{ seq[var S] }
    """

    def reactive(self, config):
        from repro import EngineConfig

        sim = Simulation()
        node = sim.reactive_node("http://sink.example", config=config)
        node.install(self.RULE)
        return sim, node

    def test_gateway_built_from_engine_config(self):
        from repro import EngineConfig

        sim, node = self.reactive(EngineConfig(ingest=IngestConfig()))
        assert node.ingest is not None
        client = node.loopback(sender="http://c.example")
        assert client.send(parse_data("order{ seq[1] }")) is True
        sim.run()
        stats = node.stats
        assert stats.rule_firings == 1
        assert stats.ingest is node.ingest.stats
        assert stats.ingest.admitted == 1
        assert stats.ingest.fired == 1

    def test_no_gateway_without_the_knob(self):
        from repro import EngineConfig

        sim, node = self.reactive(EngineConfig())
        assert node.ingest is None
        assert node.stats.ingest is None
        with pytest.raises(RuleError):
            node.loopback()

    def test_bad_ingest_config_rejected(self):
        from repro import EngineConfig

        with pytest.raises(RuleError):
            EngineConfig(ingest="yes please")

    def test_disabled_ablation_matches_hand_delivery(self):
        from repro import EngineConfig

        # Same workload once through the gateway, once hand-delivered
        # with no gateway configured: identical engine behaviour.
        sim_g, gated = self.reactive(
            EngineConfig(ingest=IngestConfig(drain_interval=0.0)))
        client = gated.loopback(sender="http://c.example", codec="object")
        for i in range(10):
            client.send(parse_data(f"order{{ seq[{i}] }}"))
        sim_g.run()

        sim_h, hand = self.reactive(EngineConfig())
        bare = hand.node
        for i in range(10):
            bare.deliver(bare.stamp_event(
                parse_data(f"order{{ seq[{i}] }}"),
                source="http://c.example"))
        sim_h.run()

        for key in ("events_processed", "rule_firings", "actions_executed",
                    "events_raised", "condition_evaluations"):
            assert gated.stats[key] == hand.stats[key], key

    def test_sync_delivery_records_latency_inline(self):
        from repro import EngineConfig

        sim, node = self.reactive(EngineConfig(
            sync_delivery=True, ingest=IngestConfig(drain_interval=0.0)))
        node.loopback(codec="object").send(parse_data("order{ seq[1] }"))
        sim.run()
        assert node.stats.rule_firings == 1
        assert node.stats.ingest.fired == 1
        assert node.stats.ingest.latency.max == 0.0  # same-instant pump

    def test_sharded_node_with_gateway(self):
        from repro import EngineConfig

        sim = Simulation()
        node = sim.reactive_node(
            "http://sink.example",
            config=EngineConfig(shards=2, ingest=IngestConfig()))
        node.install(self.RULE)
        client = node.loopback(sender="http://c.example")
        for i in range(6):
            client.send(parse_data(f"order{{ seq[{i}] }}"))
        sim.run()
        assert node.stats.rule_firings == 6
        assert node.stats.ingest.fired == 6
        assert node.stats.ingest.admitted == 6

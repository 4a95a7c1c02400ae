"""A deterministic load generator for the ingestion tier.

Simulates a large population of clients (~10k by default) with a skewed
(zipf-like) rate distribution — a handful of hot senders produce most of
the traffic, a long tail produces the rest — which is exactly the shape
per-sender rate limiting and weighted-fair service exist for.  Used by
``benchmarks/bench_e18_ingestion.py`` and the ingestion tests; runnable
standalone for a quick demonstration::

    PYTHONPATH=src python tools/loadgen.py

The generator is *procedural*: it schedules one scheduler callback per
arrival tick (not one per event), and each tick draws its senders from
the seeded RNG at run time — so driving a million events costs a
thousand scheduler entries, and two runs with the same seed produce the
same arrival sequence, sender for sender.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from pathlib import Path
from typing import Callable

try:
    from repro.terms.ast import Data
except ModuleNotFoundError:  # ran as a script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.terms.ast import Data

#: offer(sender_uri, event_term, sent_at) -> admitted?  The bench binds
#: this to a gateway path (wire or object codec) or to hand delivery.
OfferFn = Callable[[str, Data, float], bool]


class LoadGen:
    """A population of simulated clients with zipf-skewed send rates.

    ``skew`` is the zipf exponent: client *i* sends with weight
    ``1 / (i + 1) ** skew``, so at the default 1.1 the hottest of 10 000
    clients carries roughly a thousand times the rate of the coldest —
    heavy hitters and a long tail in one knob.  ``seed`` fixes the whole
    arrival sequence.
    """

    def __init__(self, n_clients: int = 10_000, skew: float = 1.1,
                 seed: int = 0xE18) -> None:
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        self.n_clients = n_clients
        self.skew = skew
        self.senders = [f"http://client-{i}.example" for i in range(n_clients)]
        self._cum_weights = list(itertools.accumulate(
            1.0 / (i + 1) ** skew for i in range(n_clients)))
        self._rng = random.Random(seed)
        self.offered = 0
        self.accepted = 0

    def pick_senders(self, k: int) -> list[str]:
        """Draw *k* senders from the skewed distribution."""
        return self._rng.choices(self.senders,
                                 cum_weights=self._cum_weights, k=k)

    @staticmethod
    def event_term(seq: int) -> Data:
        """The workload event: ``order{ seq[<n>] }`` (rules match on it)."""
        return Data("order", (Data("seq", (seq,)),))

    def schedule(self, scheduler, offer: OfferFn, *, events: int,
                 per_tick: int, dt: float, start: float = 0.0) -> int:
        """Schedule the arrival process onto *scheduler*.

        *events* arrivals land in batches of *per_tick* every *dt*
        simulated seconds (the last tick may be short), each offered via
        ``offer(sender, term, now)``.  Returns the number of ticks
        scheduled; :attr:`offered` / :attr:`accepted` count outcomes as
        the simulation runs.
        """
        if events < 1 or per_tick < 1 or dt <= 0:
            raise ValueError(
                f"need events >= 1, per_tick >= 1, dt > 0; got "
                f"{events}, {per_tick}, {dt}")
        ticks = math.ceil(events / per_tick)
        sequence = itertools.count()

        def tick(remaining: int) -> None:
            batch = min(per_tick, remaining)
            now = scheduler.now
            for sender in self.pick_senders(batch):
                self.offered += 1
                if offer(sender, self.event_term(next(sequence)), now):
                    self.accepted += 1

        for i in range(ticks):
            remaining = events - i * per_tick
            scheduler.at(start + i * dt, lambda r=remaining: tick(r))
        return ticks


def main() -> None:
    """Standalone demo: skewed traffic through a rate-limited gateway."""
    from repro import EngineConfig, IngestConfig, Simulation

    sim = Simulation()
    node = sim.reactive_node(
        "http://sink.example",
        config=EngineConfig(ingest=IngestConfig(
            high_water=5_000, policy="reject", rate=200.0, burst=50.0,
            pump_batch=500, drain_interval=0.01)))
    node.install("""
        RULE count-orders
        ON order{{ seq[var S] }}
        DO RAISE TO "http://sink.example" seen{ seq[var S] }
    """)
    gen = LoadGen(n_clients=1_000)
    gateway = node.ingest
    gen.schedule(
        sim.scheduler,
        lambda sender, term, now: gateway.offer(term, sender=sender,
                                                sent_at=now),
        events=50_000, per_tick=500, dt=0.01)
    sim.run(max_callbacks=10_000_000)
    stats = node.stats.ingest
    print(f"offered     {gen.offered}")
    print(f"accepted    {gen.accepted}")
    print(f"rate-limited{stats.rate_limited:>8}")
    print(f"fired       {stats.fired}")
    print(f"latency     p50={stats.latency.percentile(50):.4f}s "
          f"p99={stats.latency.percentile(99):.4f}s "
          f"max={stats.latency.max:.4f}s (simulated)")


if __name__ == "__main__":
    main()

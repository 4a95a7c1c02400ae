"""E18: the ingestion tier — overflow policies under load, and what they cost.

PR 6 adds a real front door (:mod:`repro.ingest`): a framed wire
protocol, an admission controller with a high-water mark and pluggable
overflow policies, per-sender token-bucket rate limiting, weighted-fair
service into the node inbox, and enqueue-to-fire latency accounting in
simulated seconds.  E18 drives it with :class:`tools.loadgen.LoadGen` —
10 000 clients with zipf-skewed rates, a million events per cell in the
full run — under two arrival regimes:

- *steady*: service capacity comfortably above the arrival rate
  (``pump_batch`` 1.5x the per-tick arrivals).  The backlog never
  reaches the high-water mark, no policy sheds anything, and every
  policy's latency is the service quantum — the baseline that shows the
  admission stage itself is cheap.
- *overload*: capacity pinned at 0.8x arrivals.  The backlog hits the
  mark and the policies diverge, which is the point of the experiment:
  ``reject`` and ``drop-oldest`` keep the queue — and therefore p99
  enqueue-to-fire latency — bounded while shedding the excess
  (``shed`` counts it; drop-oldest sheds *old* events, reject sheds
  *new* ones), whereas ``spill`` sheds nothing, parks the excess on
  disk, and pays for completeness with a latency max that includes the
  spill-file residency.

Per policy the table reports wall-clock throughput (``ev/s``), the
enqueue-to-fire percentiles in simulated seconds (``p50`` / ``p99`` /
``max``), and ``shed``; the ``disabled`` column is the
``EngineConfig(ingest=None)`` ablation — the untouched hand-delivery
path — whose firings must equal the steady no-shed cells exactly.
A second table isolates the wire codec: the same workload through
``LoopbackClient`` with ``codec="wire"`` (serialise → frame → unframe →
parse per event) vs ``codec="object"`` (terms handed over directly).

Emits ``BENCH_e18.json`` (skipped under ``--smoke``); the policy
ablation columns are guarded by ``require_columns``.
"""

import sys
import time

sys.path.insert(0, "benchmarks")
sys.path.insert(0, "tools")
from _harness import (
    parse_cli,
    pick,
    print_table,
    require_columns,
    seeded,
    smoke_mode,
    write_json,
)
from loadgen import LoadGen

from repro import EngineConfig, IngestConfig, Simulation
from repro.core import eca
from repro.core.actions import PyAction
from repro.events import EAtom
from repro.ingest.transport import LoopbackClient
from repro.terms import Var, q

N_EVENTS = 1_000_000
N_CLIENTS = 10_000
PER_TICK = 1_000     # arrivals per tick; dt below makes that 100k ev/s simulated
DT = 0.01
POLICIES = ("reject", "drop-oldest", "spill")
REGIMES = {
    # service capacity = pump_batch / DT vs arrival = PER_TICK / DT
    "steady": {"pump_batch": 1_500, "high_water": 5_000},    # 1.5x arrivals
    "overload": {"pump_batch": 800, "high_water": 2_000},    # 0.8x arrivals
}

NOOP = PyAction(lambda n, b: None, "noop")


def build_node(policy: "str | None", regime: str):
    sim = Simulation(latency=0.0)
    if policy is None:  # the ablation: no gateway at all
        config = EngineConfig()
    else:
        knobs = REGIMES[regime]
        # Smoke shrinks the whole system /100 (arrivals, service, mark),
        # so the overload regime still engages the policies.
        config = EngineConfig(ingest=IngestConfig(
            policy=policy,
            high_water=pick(knobs["high_water"],
                            knobs["high_water"] // 100 or 1),
            pump_batch=pick(knobs["pump_batch"],
                            knobs["pump_batch"] // 100 or 1),
            drain_interval=DT,
        ))
    node = sim.reactive_node("http://sink.example", config=config)
    node.install(eca("count-orders",
                     EAtom(q("order", q("seq", Var("S")))), NOOP))
    return sim, node


def run_once(policy: "str | None", regime: str, n_events: int,
             n_clients: int) -> dict:
    sim, node = build_node(policy, regime)
    gen = LoadGen(n_clients=n_clients)
    if policy is None:
        bare = node.node
        offer = (lambda sender, term, now:
                 bare.deliver(bare.stamp_event(term, source=sender,
                                               sent_at=now)) or True)
    else:
        gateway = node.ingest
        offer = (lambda sender, term, now:
                 gateway.offer(term, sender=sender, sent_at=now))
    gen.schedule(sim.scheduler, offer, events=n_events,
                 per_tick=pick(PER_TICK, PER_TICK // 100 or 1), dt=DT)
    started = time.perf_counter()
    sim.run(max_callbacks=100_000_000)
    elapsed = time.perf_counter() - started
    row = {
        "rate": n_events / elapsed,
        "elapsed": elapsed,
        "offered": gen.offered,
        "firings": node.stats.rule_firings,
    }
    if policy is not None:
        ingest = node.stats.ingest
        # Conservation: everything offered was admitted, shed, or spilled,
        # and everything that survived fired exactly once.
        assert (ingest.admitted + ingest.rejected + ingest.rate_limited
                + ingest.spilled == gen.offered)
        assert ingest.fired == (ingest.admitted - ingest.dropped
                                + ingest.spill_replayed) == row["firings"]
        assert ingest.spill_replayed == ingest.spilled, "spill lost events"
        assert node.ingest.backlog == 0 and node.ingest.spill_backlog == 0
        row.update({
            "p50": ingest.latency.percentile(50.0),
            "p99": ingest.latency.percentile(99.0),
            "max": ingest.latency.max,
            "shed": ingest.shed,
            "dropped": ingest.dropped,
            "spilled": ingest.spilled,
            "backlog_peak": ingest.backlog_peak,
        })
    return row


def codec_table(n_events: int, n_clients: int) -> list[dict]:
    """Wire codec vs object hand-off, same admission configuration."""
    rows = []
    for codec in ("object", "wire"):
        sim, node = build_node("reject", "steady")
        client_cache: dict[str, LoopbackClient] = {}
        gateway = node.ingest

        def offer(sender, term, now, _cache=client_cache, _gw=gateway,
                  _codec=codec):
            client = _cache.get(sender)
            if client is None:
                client = _cache[sender] = LoopbackClient(_gw, sender=sender,
                                                         codec=_codec)
            return client.send(term, sent_at=now)

        gen = LoadGen(n_clients=n_clients)
        gen.schedule(sim.scheduler, offer, events=n_events,
                     per_tick=pick(PER_TICK, PER_TICK // 100 or 1), dt=DT)
        started = time.perf_counter()
        sim.run(max_callbacks=100_000_000)
        elapsed = time.perf_counter() - started
        rows.append({
            "codec": codec,
            "ev/s": n_events / elapsed,
            "fired": node.stats.ingest.fired,
            "malformed": node.stats.ingest.malformed,
        })
    wire_row = next(r for r in rows if r["codec"] == "wire")
    object_row = next(r for r in rows if r["codec"] == "object")
    for row in rows:
        row["wire/object"] = wire_row["ev/s"] / object_row["ev/s"]
    return rows


def table() -> list[dict]:
    n_events = pick(N_EVENTS, 2_000)
    n_clients = pick(N_CLIENTS, 200)
    rows = []
    for regime in REGIMES:
        row = {"regime": regime, "events": n_events, "clients": n_clients}
        for policy in POLICIES:
            result = run_once(policy, regime, n_events, n_clients)
            row[f"{policy} ev/s"] = result["rate"]
            row[f"{policy} p50"] = result["p50"]
            row[f"{policy} p99"] = result["p99"]
            row[f"{policy} max"] = result["max"]
            row[f"{policy} shed"] = result["shed"]
            row[f"{policy} firings"] = result["firings"]
            if policy == "drop-oldest":
                row["dropped"] = result["dropped"]
            if policy == "spill":
                row["spilled"] = result["spilled"]
        disabled = run_once(None, regime, n_events, n_clients)
        row["disabled ev/s"] = disabled["rate"]
        row["disabled firings"] = disabled["firings"]
        rows.append(row)
    columns = tuple(f"{policy} {metric}" for policy in POLICIES
                    for metric in ("ev/s", "p50", "p99", "max", "shed"))
    return require_columns("e18", rows, columns + ("disabled ev/s",))


def check_claims(rows: list[dict]) -> None:
    """The acceptance claims, asserted on real (non-smoke) sizes."""
    steady = next(r for r in rows if r["regime"] == "steady")
    overload = next(r for r in rows if r["regime"] == "overload")
    service_quantum = DT  # one drain interval
    # The simulated clock accumulates DT-sized float ticks, so a latency
    # of exactly two quanta can sit a few ulps above 2*DT.
    eps = 1e-9
    # Steady state: nothing shed, and the gateway is behaviourally
    # invisible — every policy fires exactly what hand delivery fires.
    for policy in POLICIES:
        assert steady[f"{policy} shed"] == 0, f"steady {policy} shed events"
        assert steady[f"{policy} firings"] == steady["disabled firings"]
        assert steady[f"{policy} p99"] <= 2 * service_quantum + eps
    # Overload: reject and drop-oldest bound the queue, so p99 stays
    # within a few high-water marks' worth of service time regardless of
    # run length (the x10 headroom covers the weighted-fair tail: a hot
    # sender's own queue drains at its fair share, not the full pump
    # rate); drop-oldest actually dropped; spill shed nothing but paid
    # in a latency max that grows with the backlog parked on disk.
    queue_bound = (REGIMES["overload"]["high_water"]
                   / (REGIMES["overload"]["pump_batch"] / DT))
    for policy in ("reject", "drop-oldest"):
        assert overload[f"{policy} shed"] > 0
        assert overload[f"{policy} p99"] <= 10 * queue_bound + eps, (
            f"{policy} p99 {overload[f'{policy} p99']} not bounded by the "
            f"high-water queue ({queue_bound}s of service)")
    assert overload["dropped"] > 0
    assert overload["spill shed"] == 0
    assert overload["spilled"] > 0
    assert overload["spill max"] > overload["reject max"]


def test_e18_policies_diverge_under_overload():
    # 20k events at 0.8x capacity: the backlog crosses the 2000-event
    # high-water mark around tick 10 and the policies start to diverge.
    reject = run_once("reject", "overload", 20_000, 200)
    drop = run_once("drop-oldest", "overload", 20_000, 200)
    spill = run_once("spill", "overload", 20_000, 200)
    assert reject["shed"] > 0 and drop["dropped"] > 0
    assert spill["shed"] == 0 and spill["spilled"] > 0
    assert spill["firings"] == 20_000         # spill keeps everything
    assert reject["firings"] < 20_000         # reject sheds arrivals
    # Completeness costs queueing: spilled events sit out the overload on
    # disk, so even the median waits, while reject's median fires at once.
    assert spill["p50"] > reject["p50"]


def test_e18_disabled_matches_hand_delivery():
    gated = run_once("reject", "steady", 2_000, 100)
    disabled = run_once(None, "steady", 2_000, 100)
    assert gated["shed"] == 0
    assert gated["firings"] == disabled["firings"] == 2_000


def test_e18_ingestion_throughput(benchmark):
    benchmark(lambda: run_once("reject", "overload", 2_000, 200))


def main() -> None:
    parse_cli()
    rows = table()
    n_events = pick(N_EVENTS, 2_000)
    print_table(
        f"E18 — ingestion under load: overflow policies at steady vs "
        f"overload arrivals ({n_events} events, "
        f"{pick(N_CLIENTS, 200)} clients, latencies in simulated s)",
        rows,
        "reject/drop-oldest bound p99 enqueue-to-fire latency by shedding; "
        "spill sheds nothing and pays in worst-case latency; at steady "
        "state every policy is invisible (firings == hand delivery)",
    )
    codec_rows = codec_table(pick(100_000, 1_000), pick(N_CLIENTS, 200))
    print_table(
        "E18b — wire codec cost (serialise/frame/parse per event vs "
        "object hand-off)",
        codec_rows,
        "the full wire round-trip stays within an order of magnitude of "
        "the in-process path",
    )
    if not smoke_mode():
        check_claims(rows)
        assert codec_rows[0]["fired"] == codec_rows[1]["fired"]
    path = write_json("BENCH_e18.json", {
        "experiment": "e18_ingestion",
        "n_events": N_EVENTS,
        "n_clients": N_CLIENTS,
        "per_tick": PER_TICK,
        "dt": DT,
        "policies": list(POLICIES),
        "regimes": {name: dict(knobs) for name, knobs in REGIMES.items()},
        "rows": rows,
        "codec_rows": codec_rows,
    })
    print(f"\nwrote {path}" if path else "\n(smoke mode: no JSON written)")


if __name__ == "__main__":
    main()

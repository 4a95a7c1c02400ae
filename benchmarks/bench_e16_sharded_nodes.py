"""E16: sharded reactive nodes — one facade, N engine shards.

The ROADMAP's "millions of users on one URI" route: with
``EngineConfig(shards=N)`` the :class:`~repro.api.ReactiveNode` facade
fronts N engines behind a :class:`~repro.sharding.ShardRouter` that
partitions the rule base by root label and — for one hot label — by its
discriminator-attribute axis (the PR-3 ``(label, constant)`` key), giving
each shard its own FIFO inbox drained in global arrival order.  All shard
counts are observationally equivalent (property-tested); what changes is
how the *work* spreads.

Workloads (the two shapes that stress opposite partition levels):

- *hot*: R rules on one root label ``stock``, each pinning its own
  ``sym`` attribute constant — the shape only the (label, constant) split
  can shard; a stream cycling the symbols through the node's inbox.
- *mixed*: R rules on R disjoint labels (many tenants) — the shape the
  root-label home assignment shards; a stream cycling the labels.

Headline metrics, per shard count:

- ``sN ev/s`` — end-to-end throughput through node inbox + router +
  shard inboxes (one process, one thread, so this measures router
  overhead, not parallel speedup);
- ``share s4`` — the largest shard's fraction of per-shard events at 4
  shards (perfect split: 0.25).  This is the scaling headroom: each
  engine sees ~1/N of the traffic and holds ~1/N of the rules.

Firing counts must be identical across every shard count.  Emits
``BENCH_e16.json`` for CI tracking (skipped under ``--smoke``).
"""

import sys
import time

sys.path.insert(0, "benchmarks")
from _harness import parse_cli, pick, print_table, require_columns, smoke_mode, write_json

from repro import EngineConfig, Simulation
from repro.core import eca
from repro.core.actions import PyAction
from repro.events import EAtom
from repro.terms import Data, Var, d, q

N_EVENTS = 2000
RULE_GRID = (50, 100, 200)
SHARD_GRID = (1, 2, 4, 8)
BURST = 40  # same-instant events per burst

NOOP = PyAction(lambda n, b: None, "noop")


def build_node(n_rules: int, shards: int, workload: str):
    sim = Simulation(latency=0.0)
    node = sim.reactive_node("http://bench.example",
                             config=EngineConfig(shards=shards))
    if workload == "hot":
        rules = [
            eca(f"r{i}", EAtom(q("stock", q("price", Var("P")), sym=f"SYM-{i}")),
                NOOP)
            for i in range(n_rules)
        ]
    else:
        rules = [
            eca(f"r{i}", EAtom(q(f"evt-{i}", Var("X"))), NOOP)
            for i in range(n_rules)
        ]
    node.install(*rules)
    return sim, node


def event_term(j: int, n_rules: int, workload: str) -> Data:
    if workload == "hot":
        return Data("stock", (Data("price", (float(j),)),), False,
                    (("sym", f"SYM-{j % n_rules}"),))
    return d(f"evt-{j % n_rules}", d("x", j))


def run_once(n_rules: int, shards: int, workload: str, n_events: int) -> dict:
    """Drive the full node path; throughput, firings, and shard balance."""
    sim, node = build_node(n_rules, shards, workload)
    for j in range(n_events):
        term = event_term(j, n_rules, workload)
        sim.scheduler.at(float(j // BURST), lambda t=term: node.raise_local(t))
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    per_shard = [s.events_processed for s in node.stats.shards]
    return {
        "rate": n_events / elapsed,
        "firings": node.stats.rule_firings,
        "share": max(per_shard) / max(1, sum(per_shard)),
        "rules_per_shard": [len(engine.rules()) for engine in node.shards],
    }


def table() -> list[dict]:
    rows = []
    n_events = pick(N_EVENTS, 40)
    for workload in ("hot", "mixed"):
        for n_rules in pick(RULE_GRID, (8,)):
            results = {
                shards: run_once(n_rules, shards, workload, n_events)
                for shards in SHARD_GRID
            }
            firings = {r["firings"] for r in results.values()}
            assert len(firings) == 1, (
                f"shard counts disagree on {workload}/{n_rules}: "
                f"{ {s: r['firings'] for s, r in results.items()} }"
            )
            row = {
                "workload": workload,
                "rules": n_rules,
                "firings": results[1]["firings"],
            }
            for shards in SHARD_GRID:
                row[f"s{shards} ev/s"] = results[shards]["rate"]
            row["share s4"] = results[4]["share"]
            row["max rules/shard s4"] = max(results[4]["rules_per_shard"])
            rows.append(row)
    return require_columns(
        "e16", rows,
        tuple(f"s{shards} ev/s" for shards in SHARD_GRID) + ("share s4",),
    )


def test_e16_firings_and_balance_at_scale():
    single = run_once(100, 1, "hot", 1000)
    sharded = run_once(100, 4, "hot", 1000)
    assert single["firings"] == sharded["firings"] == 1000
    # The hot label splits on the sym axis: traffic and rules spread ~1/4.
    assert sharded["share"] <= 0.35
    assert max(sharded["rules_per_shard"]) <= 30


def test_e16_mixed_workload_spreads_labels():
    sharded = run_once(100, 4, "mixed", 1000)
    assert sharded["firings"] == 1000
    assert sharded["share"] <= 0.35
    assert max(sharded["rules_per_shard"]) == 25  # greedy label homes


def test_e16_sharded_throughput(benchmark):
    def run():
        run_once(100, 4, "hot", 400)

    benchmark(run)


def main() -> None:
    parse_cli()
    rows = table()
    n_events = pick(N_EVENTS, 40)
    print_table(
        f"E16 — sharded nodes: throughput and balance vs shard count "
        f"({n_events} events)",
        rows,
        "identical firings at every shard count; at 4 shards the largest "
        "shard carries ~25% of per-shard events on both the hot-label "
        "(attribute split) and mixed (label homes) workloads",
    )
    path = write_json("BENCH_e16.json", {
        "experiment": "e16_sharded_nodes",
        "n_events": N_EVENTS,
        "burst": BURST,
        "shard_grid": list(SHARD_GRID),
        "rows": rows,
    })
    print(f"\nwrote {path}" if path else "\n(smoke mode: no JSON written)")
    if not smoke_mode():
        at_scale = [r for r in rows if r["rules"] >= 100]
        assert all(r["share s4"] <= 0.35 for r in at_scale), (
            "4-shard fleets must spread traffic (max shard share <= 0.35)"
        )


if __name__ == "__main__":
    main()

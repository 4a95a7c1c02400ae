"""E22: rule-base scaling — the discrimination trie at 100k rules.

E15's two-level net discriminates one axis per label.  A hot label whose
rules pin *two* axes — an attribute constant and a constant child — still
collapses: 100k ``stock`` rules over ~316 symbols and ~316 venues leave
~316 rules per symbol bucket, and every one is probed per event.  The
multi-level trie (PR 10) recurses: within the ``sym`` bucket it splits
again on the ``venue`` child, so candidates per event stay ~1 at any
rule count.

Workload: *N* rules on one hot label, rule *i* pinning ``sym`` attribute
``S-(i mod s)`` and constant ``venue[...]`` child ``V-(i div s mod s)``
with ``s = isqrt(N)`` — both axes carry √N distinct values, so one axis
alone narrows an event to ~√N candidates and only the second axis gets
to ~1.  The stream cycles through the rules; every event is relevant to
exactly one.  Modes:

- ``trie`` — the multi-level trie (the default config);
- ``twolevel`` — ``EngineConfig(trie_depth=1)``, E15's two-level net:
  one split, ~√N candidates per event;
- ``rootlabel`` — ``EngineConfig(trie_depth=0)``: the whole bucket, N
  candidates per event.

Headline claims: **ev/s stays flat** for the trie from 100 to 100k rules
(<= 2x degradation) while the ablations collapse in the same grid, and
**per-install latency is amortised O(trie depth)**, not O(rules) — the
incremental install edit (``install_ms_trie``) stays flat while a
rebuild-per-install policy (``install_ms_rebuild``, one full
:meth:`refresh`) grows linearly with the base.  ``install_ms_sharded`` is
the same one-rule install into a ``shards=4`` node of the same size: the
router places the rule by delta and forwards it to its one hosting
shard, so it tracks ``install_ms_trie``, not the rebuild.

Slow modes get proportionally shorter streams (rates normalise this);
``firings == events`` is asserted per mode so the ablations can never
drift semantically.  Emits ``BENCH_e22.json`` for CI tracking (skipped
under ``--smoke``).
"""

import math
import sys
import time

sys.path.insert(0, "benchmarks")
from _harness import parse_cli, pick, print_table, require_columns, smoke_mode, write_json

from repro.core import EngineConfig, ReactiveEngine, eca
from repro.core.actions import PyAction
from repro.events import EAtom
from repro.events.model import make_event
from repro.terms import Data, Var, q
from repro.web import Simulation

RULE_GRID = (100, 1_000, 10_000, 100_000)
LABEL = "stock"
# Per-mode candidate-probe budget: slow modes run shorter streams so the
# 100k root-label point stays minutes-not-hours while ev/s stays honest.
PROBE_BUDGET = 1_500_000
MAX_EVENTS = 1_500
N_PROBE_INSTALLS = 50
N_SHARDS = 4

NOOP = PyAction(lambda n, b: None, "noop")


def grid_side(n_rules: int) -> int:
    """Ceiling sqrt: side*side >= n_rules, so every rule's (sym, venue)
    pair is unique and each event answers exactly one rule."""
    return max(1, math.isqrt(max(0, n_rules - 1)) + 1)


MODES = {
    "trie": EngineConfig(),
    "twolevel": EngineConfig(trie_depth=1),
    "rootlabel": EngineConfig(trie_depth=0),
}


def rule_for(i: int, side: int):
    """Rule *i*: constant ``sym`` attribute x constant ``venue`` child."""
    return eca(
        f"r{i}",
        EAtom(q(LABEL,
                q("venue", f"V-{(i // side) % side}"),
                q("px", Var("P")),
                sym=f"S-{i % side}")),
        NOOP,
    )


def event_term(i: int, n_rules: int, side: int) -> Data:
    target = i % n_rules
    return Data(
        LABEL,
        (Data("venue", (f"V-{(target // side) % side}",)),
         Data("px", (float(i),))),
        False,
        (("sym", f"S-{target % side}"),),
    )


def build_engine(n_rules: int, mode: str) -> ReactiveEngine:
    sim = Simulation(latency=0.0)
    node = sim.node("http://bench.example")
    engine = ReactiveEngine(node, config=MODES[mode])
    side = grid_side(n_rules)
    engine.install_all(rule_for(i, side) for i in range(n_rules))
    return engine


def events_for(mode: str, n_rules: int) -> int:
    expected_candidates = {
        "trie": 1,
        "twolevel": max(1, math.isqrt(n_rules)),
        "rootlabel": n_rules,
    }[mode]
    return max(30, min(MAX_EVENTS, PROBE_BUDGET // expected_candidates))


def run_once(n_rules: int, mode: str, n_events: int) -> dict:
    engine = build_engine(n_rules, mode)
    side = grid_side(n_rules)
    stream = [
        make_event(event_term(i, n_rules, side), float(i))
        for i in range(n_events)
    ]
    started = time.perf_counter()
    for event in stream:
        engine.handle_event(event)
    elapsed = time.perf_counter() - started
    stats = engine.stats
    assert stats.rule_firings == n_events, (
        f"{mode} at {n_rules} rules fired {stats.rule_firings} != {n_events}"
    )
    return {
        "rate": n_events / elapsed,
        "candidates_per_event": stats.candidates_considered / n_events,
    }


def install_latencies(n_rules: int) -> "tuple[float, float]":
    """(incremental install ms, full-rebuild ms) on an N-rule engine.

    The incremental figure installs probe rules one at a time through the
    O(depth) trie edit and averages; the rebuild figure times a single
    :meth:`refresh` — what every install would cost under a
    rebuild-per-change policy.
    """
    engine = build_engine(n_rules, "trie")
    side = grid_side(n_rules)
    probes = [rule_for(n_rules + j, side) for j in range(N_PROBE_INSTALLS)]
    started = time.perf_counter()
    for probe in probes:
        engine.install(probe)
    install_ms = (time.perf_counter() - started) * 1000.0 / len(probes)
    started = time.perf_counter()
    engine.refresh()
    rebuild_ms = (time.perf_counter() - started) * 1000.0
    return install_ms, rebuild_ms


def sharded_install_latency(n_rules: int) -> float:
    """Per-install ms of one plain rule into an N-rule ``shards=4`` node
    (the router's delta placement plus one shard's trie edit)."""
    sim = Simulation(latency=0.0)
    node = sim.reactive_node("http://bench.example",
                             config=EngineConfig(shards=N_SHARDS))
    side = grid_side(n_rules)
    node.install(*(rule_for(i, side) for i in range(n_rules)))
    probes = [rule_for(n_rules + j, side) for j in range(N_PROBE_INSTALLS)]
    plans = node.router.full_plans
    started = time.perf_counter()
    for probe in probes:
        node.install(probe)
    install_ms = (time.perf_counter() - started) * 1000.0 / len(probes)
    assert node.router.full_plans == plans or n_rules <= N_PROBE_INSTALLS, (
        "probe installs must be deltas, not full plans")
    return install_ms


def table() -> list[dict]:
    rows = []
    for n_rules in pick(RULE_GRID, (16, 64)):
        results = {
            mode: run_once(mode=mode, n_rules=n_rules,
                           n_events=pick(events_for(mode, n_rules), 30))
            for mode in MODES
        }
        install_ms, rebuild_ms = install_latencies(n_rules)
        rows.append({
            "rules": n_rules,
            "trie cand/ev": results["trie"]["candidates_per_event"],
            "twolevel cand/ev": results["twolevel"]["candidates_per_event"],
            "rootlabel cand/ev": results["rootlabel"]["candidates_per_event"],
            "evps_trie": results["trie"]["rate"],
            "evps_twolevel": results["twolevel"]["rate"],
            "evps_rootlabel": results["rootlabel"]["rate"],
            "install_ms_trie": install_ms,
            "install_ms_rebuild": rebuild_ms,
            "install_ms_sharded": sharded_install_latency(n_rules),
        })
    return require_columns(
        "e22", rows,
        ("evps_trie", "evps_twolevel", "evps_rootlabel",
         "install_ms_trie", "install_ms_rebuild", "install_ms_sharded"),
    )


def test_e22_trie_keeps_candidates_flat():
    small = run_once(100, "trie", 200)
    large = run_once(2_500, "trie", 200)
    assert small["candidates_per_event"] <= 2.0
    assert large["candidates_per_event"] <= 2.0
    # The two-level net degrades to ~sqrt(N) on the same base.
    twolevel = run_once(2_500, "twolevel", 200)
    assert twolevel["candidates_per_event"] >= 10 * large["candidates_per_event"]


def test_e22_incremental_install_beats_rebuild():
    install_ms, rebuild_ms = install_latencies(5_000)
    assert install_ms < rebuild_ms / 10


def test_e22_sharded_install_is_a_delta_not_a_rebuild():
    _install_ms, rebuild_ms = install_latencies(5_000)
    assert sharded_install_latency(5_000) < rebuild_ms / 10


def test_e22_dispatch_throughput(benchmark):
    n_rules = 2_500
    side = grid_side(n_rules)
    stream = [
        make_event(event_term(i, n_rules, side), float(i)) for i in range(500)
    ]
    engine = build_engine(n_rules, "trie")

    def run():
        for event in stream:
            engine.handle_event(event)

    benchmark(run)


def main() -> None:
    parse_cli()
    rows = table()
    print_table(
        "E22 — rule-base scaling, one hot label, sym x venue axes",
        rows,
        "trie ev/s flat 100 -> 100k rules (<= 2x) while two-level decays "
        "~sqrt(N) and root-label decays ~N; incremental installs stay "
        "O(depth) while rebuild-per-install grows with the base",
    )
    path = write_json("BENCH_e22.json", {
        "experiment": "e22_rule_scaling",
        "label": LABEL,
        "probe_budget": PROBE_BUDGET,
        "probe_installs": N_PROBE_INSTALLS,
        "shards": N_SHARDS,
        "rows": rows,
    })
    print(f"\nwrote {path}" if path else "\n(smoke mode: no JSON written)")
    if not smoke_mode():
        first, last = rows[0], rows[-1]
        assert last["evps_trie"] >= first["evps_trie"] / 2.0, (
            "trie throughput must not degrade more than 2x from "
            f"{first['rules']} to {last['rules']} rules"
        )
        for column in ("install_ms_trie", "install_ms_sharded"):
            assert last[column] < last["install_ms_rebuild"] / 10, (
                f"{column}: incremental installs must stay far below a "
                "full rebuild at the top of the grid"
            )


if __name__ == "__main__":
    main()

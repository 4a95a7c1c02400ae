"""E15: two-level discriminating dispatch vs root-label-only.

A root-label index serves the many-tenants shape (disjoint labels), but a
*high-fanout* label defeats it: 100 rules all watching ``stock`` events
— each for its own symbol — still broadcast to the whole bucket, and each
candidate pays an interpreted pattern match.  The engine therefore
sub-indexes each label bucket by the rules' shared constant discriminator
(attribute value or constant-scalar child; OpenCEP-style tree routing),
and compiles each rule's pattern once at install time.

Workload: *R* rules on one hot root label, each discriminated by an
attribute (``stock[sym: "SYM-i"]``), and a stream cycling through the
symbols — every event is relevant to exactly one rule.  Modes:

- ``discriminating`` — the full two-level net (the default config);
- ``root-label`` — ``EngineConfig(trie_depth=0)``, the
  pre-E15 behaviour (first level only).

The headline metric is **candidates per event** (``EngineStats.
candidates_considered / events_processed``): root-label considers the
whole bucket (R), discriminating considers ~1.  The acceptance bar is a
>= 5x reduction at 100 rules.  A second sweep times the compiled pattern
matcher (:func:`repro.terms.simulation.compile_pattern`) against the
interpreted tree-walk on the same patterns — the cost paid by candidates
that *do* reach a rule.  Both modes must agree firing-for-firing.

Emits ``BENCH_e15.json`` for CI tracking (skipped under ``--smoke``).
"""

import sys
import time

sys.path.insert(0, "benchmarks")
from _harness import parse_cli, pick, print_table, require_columns, smoke_mode, write_json

from repro.core import EngineConfig, ReactiveEngine, eca
from repro.core.actions import PyAction
from repro.events import EAtom
from repro.events.model import make_event
from repro.terms import Data, Var, q
from repro.terms.simulation import compile_pattern, match
from repro.web import Simulation

N_EVENTS = 2000
RULE_GRID = (1, 10, 50, 100, 200)
LABEL = "stock"

NOOP = PyAction(lambda n, b: None, "noop")

MODES = {
    "discriminating": EngineConfig(),
    "root-label": EngineConfig(trie_depth=0),
}


def rule_pattern(i: int):
    """One tenant's pattern: hot label, constant symbol attribute."""
    return q(LABEL, q("price", Var("P")), sym=f"SYM-{i}")


def event_term(i: int, n_rules: int) -> Data:
    sym = f"SYM-{i % n_rules}"
    return Data(LABEL, (Data("price", (float(i),)),), False, (("sym", sym),))


def build_engine(n_rules: int, mode: str) -> ReactiveEngine:
    sim = Simulation(latency=0.0)
    node = sim.node("http://bench.example")
    engine = ReactiveEngine(node, config=MODES[mode])
    engine.install_all(
        eca(f"r{i}", EAtom(rule_pattern(i)), NOOP) for i in range(n_rules)
    )
    return engine


def run_once(n_rules: int, mode: str, n_events: int) -> dict:
    engine = build_engine(n_rules, mode)
    stream = [make_event(event_term(i, n_rules), float(i)) for i in range(n_events)]
    started = time.perf_counter()
    for event in stream:
        engine.handle_event(event)
    elapsed = time.perf_counter() - started
    stats = engine.stats
    return {
        "rate": n_events / elapsed,
        "firings": stats.rule_firings,
        "candidates_per_event": stats.candidates_considered / n_events,
        "matcher_calls": stats.matcher_calls,
    }


def matcher_speedup(n_rules: int, n_events: int) -> float:
    """Compiled vs interpreted matching of the sweep's own patterns.

    Times the exact per-candidate work dispatch cannot avoid: probing one
    event against one rule's pattern.  The stream is the sweep's, so one
    probe in n_rules matches and the rest are the guard-rejected majority.
    """
    patterns = [rule_pattern(i) for i in range(n_rules)]
    compiled = [compile_pattern(p) for p in patterns]
    terms = [event_term(i, n_rules) for i in range(n_events)]

    started = time.perf_counter()
    for term in terms:
        for pattern in patterns:
            match(pattern, term)
    interpreted_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    for term in terms:
        for matcher in compiled:
            matcher(term)
    compiled_elapsed = time.perf_counter() - started
    return interpreted_elapsed / compiled_elapsed


def table() -> list[dict]:
    rows = []
    n_events = pick(N_EVENTS, 50)
    matcher_events = pick(200, 10)
    for n_rules in pick(RULE_GRID, (2, 4)):
        results = {mode: run_once(n_rules, mode, n_events) for mode in MODES}
        firings = {r["firings"] for r in results.values()}
        assert len(firings) == 1, (
            f"dispatch modes disagree at {n_rules} rules: "
            f"{ {m: r['firings'] for m, r in results.items()} }"
        )
        disc, root = results["discriminating"], results["root-label"]
        rows.append({
            "rules": n_rules,
            "firings": disc["firings"],
            "disc cand/ev": disc["candidates_per_event"],
            "root cand/ev": root["candidates_per_event"],
            "cand reduction": root["candidates_per_event"] / disc["candidates_per_event"],
            "disc ev/s": disc["rate"],
            "root ev/s": root["rate"],
            "matcher speedup": matcher_speedup(n_rules, matcher_events),
        })
    return require_columns(
        "e15", rows,
        ("disc cand/ev", "root cand/ev",
         "disc ev/s", "root ev/s", "matcher speedup"),
    )


def test_e15_candidate_reduction_at_scale():
    disc = run_once(100, "discriminating", 1000)
    root = run_once(100, "root-label", 1000)
    assert disc["firings"] == root["firings"] == 1000
    assert root["candidates_per_event"] >= 5 * disc["candidates_per_event"]


def test_e15_modes_agree_and_matchers_thin_out():
    results = {mode: run_once(50, mode, 500) for mode in MODES}
    assert len({r["firings"] for r in results.values()}) == 1
    # Fewer candidates must mean fewer matcher invocations too.
    assert results["discriminating"]["matcher_calls"] < \
        results["root-label"]["matcher_calls"]


def test_e15_dispatch_throughput(benchmark):
    stream = [make_event(event_term(i, 100), float(i)) for i in range(500)]

    def run():
        engine = build_engine(100, "discriminating")
        for event in stream:
            engine.handle_event(event)

    benchmark(run)


def main() -> None:
    parse_cli()
    rows = table()
    n_events = pick(N_EVENTS, 50)
    print_table(
        f"E15 — discriminating dispatch on one hot label ({n_events} events)",
        rows,
        "root-label-only considers the whole bucket (R candidates/event); "
        "the discriminating net considers ~1 (>= 5x reduction at 100 rules, "
        "identical firing counts everywhere)",
    )
    path = write_json("BENCH_e15.json", {
        "experiment": "e15_discriminating_dispatch",
        "n_events": N_EVENTS,
        "label": LABEL,
        "rows": rows,
    })
    print(f"\nwrote {path}" if path else "\n(smoke mode: no JSON written)")
    if not smoke_mode():
        at_scale = [r for r in rows if r["rules"] >= 100]
        assert all(r["cand reduction"] >= 5.0 for r in at_scale), (
            "discriminating dispatch must cut candidates >= 5x at >= 100 rules"
        )


if __name__ == "__main__":
    main()

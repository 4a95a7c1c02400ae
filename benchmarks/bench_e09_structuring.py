"""E9 (Thesis 9): structuring pays — ECAA vs two ECA rules; deductive views.

Paper claims: (a) "the condition C is only tested once in an ECAA rule"
versus twice for the rule pair with C and NOT C; (b) deductive rules (views)
avoid replicating complicated queries across rules.  Measured: condition
evaluations per event for both encodings, and per-event work when a shared
event classification is factored into one deductive event view versus
repeated inside every rule.
"""

import sys
import time

sys.path.insert(0, "benchmarks")
from _harness import parse_cli, pick, print_table

from repro.core import (EngineConfig, NotCond, PyAction, QueryCond,
                        ReactiveEngine, eca, ecaa)
from repro.deductive import DeductiveRule, Match, Program
from repro.events.queries import EAtom
from repro.terms import Var, c, parse_data, parse_query
from repro.web import Simulation

URI = "http://n.example/flags"
CONDITION = QueryCond(URI, parse_query("flags{{ enabled }}"))
TRIGGER = EAtom(parse_query("go{{ n[var N] }}"))


def _world():
    sim = Simulation(latency=0.0)
    node = sim.node("http://n.example")
    node.put(URI, parse_data("flags{ enabled }"))
    return sim, node


def run_branching(variant: str, events: int = 200) -> dict:
    sim, node = _world()
    engine = ReactiveEngine(node)
    hits = []
    then_action = PyAction(lambda n, b: hits.append("then"))
    else_action = PyAction(lambda n, b: hits.append("else"))
    if variant == "ecaa":
        engine.install(ecaa("branch", TRIGGER, CONDITION, then_action, else_action))
    else:
        engine.install(eca("pos", TRIGGER, then_action, if_=CONDITION))
        engine.install(eca("neg", TRIGGER, else_action, if_=NotCond(CONDITION)))
    for i in range(events):
        node.raise_local(parse_data(f"go{{ n[{i}] }}"))
    sim.run()
    return {
        "encoding": variant,
        "events": events,
        "firings": len(hits),
        "condition evals": engine.stats.condition_evaluations,
        "evals/event": engine.stats.condition_evaluations / events,
    }


# A realistically expensive classification: a descendant search with a
# join over a bulky order document.
CLASSIFIER = parse_query(
    "order{{ desc line{{ sku[var S], price[var P -> > 50] }}, region[var R] }}"
)


def _order_term(i: int) -> str:
    lines = ", ".join(
        f'line{{ sku["s{k}"], price[{10 + ((i + k) % 9) * 10}] }}' for k in range(12)
    )
    return f'order{{ meta{{ batch{{ {lines} }} }}, region["r{i % 4}"] }}'


def run_views(variant: str, rules: int = 16, events: int = 150) -> dict:
    """`rules` subscriber rules all need the same 'high-value order' class."""
    sim, node = _world()
    if variant == "deductive view":
        views = Program(
            [DeductiveRule(c("high-value", Var("S"), Var("R")), (Match(CLASSIFIER),))],
            allow_recursion=False,
        )
        engine = ReactiveEngine(node, config=EngineConfig(event_views=views))
        trigger = EAtom(parse_query("high-value[[ var S, var R ]]"))
    else:
        engine = ReactiveEngine(node)
        trigger = EAtom(CLASSIFIER)
    hits = []
    for i in range(rules):
        engine.install(eca(f"subscriber-{i}", trigger,
                           PyAction(lambda n, b: hits.append(1))))
    started = time.perf_counter()
    for i in range(events):
        node.raise_local(parse_data(_order_term(i)))
        sim.run()
    elapsed = time.perf_counter() - started
    return {
        "encoding": variant,
        "events": events,
        "firings": len(hits),
        "condition evals": "-",
        "evals/event": f"{elapsed / events * 1e6:.0f} us/event",
    }


def table() -> list[dict]:
    events = pick(200, 12)
    view_rules, view_events = pick(16, 4), pick(150, 10)
    return [
        run_branching("ecaa", events),
        run_branching("two-rules", events),
        run_views("deductive view", view_rules, view_events),
        run_views("replicated query", view_rules, view_events),
    ]


def test_e09_ecaa_halves_condition_evaluations(benchmark):
    ecaa_row = benchmark(run_branching, "ecaa", 50)
    pair_row = run_branching("two-rules", 50)
    assert ecaa_row["firings"] == pair_row["firings"]
    assert ecaa_row["condition evals"] * 2 == pair_row["condition evals"]


def test_e09_view_same_answers():
    view = run_views("deductive view", rules=4, events=40)
    replicated = run_views("replicated query", rules=4, events=40)
    assert view["firings"] == replicated["firings"]


def main() -> None:
    parse_cli()
    print_table(
        "E9 — structuring: ECAA vs 2xECA; shared view vs replicated query",
        table(),
        "ECAA tests the shared condition once (half the evaluations); a "
        "deductive event view factors a shared classification out of N rules",
    )


if __name__ == "__main__":
    main()

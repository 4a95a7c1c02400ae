"""The engine's per-label rates: cumulative event counts.

Rate-aware evaluators seed and re-plan their join orders from
``ReactiveEngine.label_rates()``.  Every event ever seen keeps its full
weight, so after a skew *reversal* a freshly-built plan still follows
the all-time counts; windowed, decaying rates are the adaptive
governor's job (``GovernorConfig.halflife``), evaluator-local.  These
tests pin the counter's contract: the live dict, never decayed, and the
stale order it gives after a reversal.
"""

from repro import EngineConfig, Simulation
from repro.core import eca
from repro.core.actions import PyAction
from repro.events import EAtom, ESeq, EWithin
from repro.terms import LabelVar, d, q


def _node(sim, **config_kwargs):
    node = sim.reactive_node("http://d.example",
                             config=EngineConfig(**config_kwargs))
    # A wildcard observer so every raised event reaches the engine's
    # dispatch path (label rates are only accounted for drained events).
    node.install(eca("wild", EAtom(q(LabelVar("L"))),
                     PyAction(lambda n, b: None, "noop")))
    return node


def _schedule(sim, node, stream):
    for t, label in stream:
        sim.scheduler.at(t, lambda lab=label: node.raise_local(d(lab)))


class TestConfigSurface:
    def test_none_is_the_legacy_cumulative_path(self):
        sim = Simulation(latency=0.0)
        node = _node(sim)
        # Not a copy: the very same dict the engine mutates, so reading
        # the rates costs no allocation or arithmetic.
        assert node.engine.label_rates() is node.engine._label_rates


class TestDecayArithmetic:
    def test_cumulative_counters_never_decay(self):
        sim = Simulation(latency=0.0)
        node = _node(sim)
        _schedule(sim, node, [(0.0, "a"), (100.0, "b")])
        sim.run()
        assert node.engine.label_rates()["a"] == 1.0


# The skew-reversal workload: phase 1 floods `a`, phase 2 floods `b`.
# Cumulatively `b` stays the rare label forever.
def _reversal_stream():
    stream = []
    for i in range(100):
        stream.append((i * 0.05, "a"))          # 100 a in [0, 5)
    for i in range(5):
        stream.append((i * 1.0, "b"))           # 5 b in [0, 5)
    for i in range(2):
        stream.append((10.0 + i * 2.0, "a"))    # 2 a in [10, 14)
    for i in range(40):
        stream.append((10.0 + i * 0.1, "b"))    # 40 b in [10, 14)
    return sorted(stream)


def _plan_after_reversal():
    sim = Simulation(latency=0.0)
    node = _node(sim, evaluator="tree")
    _schedule(sim, node, _reversal_stream())
    sim.run()
    # A rule installed *now* is planned from the engine's current rates
    # (its leaves have observed nothing yet, so the rates decide).
    node.install(eca("ab", EWithin(ESeq(EAtom(q("a")), EAtom(q("b"))), 5.0),
                     PyAction(lambda n, b: None, "noop")))
    return node.engine._active["ab"][1].plan()


class TestSkewReversalRegression:
    def test_cumulative_rates_keep_the_stale_order(self):
        # 102 a vs 45 b all-time: the dead phase-1 flood still outvotes
        # the live skew, so b stays "rare" and the plan stays stale.
        assert _plan_after_reversal()["order"] == [1, 0]

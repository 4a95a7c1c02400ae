"""The four E23 workloads: rule bases, seeded event streams, node builders.

A workload is everything the benchmark needs to drive one
``ReactiveNode`` like a deployment: the rule base (surface-language text
wherever the language can say it), the documents preloaded into the
store, a *stateless* event stream — event ``n`` is a pure function of
``(seed, n)``, so the ``check``, ``burst`` and ``paced`` phases and the
traced replay cut their inputs from one stream — and the node
configuration.  Every constant that sizes a workload lives in
:data:`WORKLOADS` and is stamped into every result.

Conventions every rule base follows, because the benchmark observes
*effects*, never handler hooks:

- every event carries ``seq[n]``; every rule copies the completing
  event's ``seq`` into what it writes or raises, so an observed effect
  names the event whose reaction it completes;
- all events that can meet in one composite answer share a *correlation
  key* and come from one sender, and a sender always uses one connection,
  so their arrival order is deterministic over two sockets.

Each workload exists because one layer dominates it (Paschke's Reaction
RuleML split into event-, state- and action-processing; the overlapping
case is Pucella's) — see ``why`` and README.md.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro import EngineConfig, IngestConfig, Simulation, priority_group, rule
from repro.core.meta import rule_to_term
from repro.lang.parser import parse_program
from repro.store import StoreConfig
from repro.terms.ast import Data, d

NODE = "http://node.example"
SINK = "http://sink.example"
CONNECTIONS = 2

#: The gateway pump's interval, in logical ticks (see ``Workload.config``).
PUMP_LEAD = 0.999

#: Installs go in program texts of this many rules, the way a deployment
#: loads rule files (one 4 000-rule text parses superlinearly slower).
INSTALL_CHUNK = 100


def connection_of(sender: str) -> int:
    """The TCP connection a sender is pinned to (stable across runs)."""
    return zlib.crc32(sender.encode()) % CONNECTIONS


def _event_rng(seed: int, n: int) -> random.Random:
    """The private generator of event *n*: streams are random-access."""
    return random.Random(seed * 1_000_003 + n)


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the node that serves it (see module docstring)."""

    name: str
    why: str
    #: Paced-phase rate in events/s; also the logical clock's rate in
    #: every phase, so windowed work per event never depends on speed.
    rate: float
    #: Frames in each of the burst phase's bursts at ``run_seconds``.
    burst_events: int
    #: The longest window in the rule base; the end-of-phase flush runs
    #: the logical clock this far past the last event.
    window: float
    #: Size and logical rate of the ``check`` prefix.  The naive reference
    #: re-evaluates its whole history per event, so composite workloads
    #: get a short prefix on a stretched clock that still spans their
    #: longest window more than once.
    check_events: int
    check_rate: float
    #: ``first_seq -> install items``: the rule base of a node that starts
    #: serving at that event (churn's deployed rule depends on it).
    rules: Callable[[int], list]
    event: Callable[[int, int], "tuple[str, Data]"]
    #: ``k -> (name, rule text)``: one more rule on the hot label, for the
    #: install/uninstall-at-full-base probe.
    probe_rule: Callable[[int], "tuple[str, str]"]
    shards: int = 1
    durable: bool = False
    preload: "Callable[[object], None] | None" = None
    #: Labels of events whose single-event rule must leave one effect.
    must_react: frozenset = frozenset()
    #: Period of the stream in events (1: none).  Phases and the slices
    #: percentiles are taken over hold whole periods, so each sees the
    #: same number of swaps.
    period: int = 1
    #: Effect labels that are late by the rule's semantics (absence
    #: deadlines): counted, never a latency sample.
    deferred: frozenset = frozenset()
    constants: dict = field(default_factory=dict)

    def events(self, seed: int, first: int, count: int):
        """``[(seq, sender, term)]`` for seqs ``first .. first+count-1``."""
        return [(n, *self.event(seed, n)) for n in range(first, first + count)]

    def config(self, store_path: "str | None" = None, *,
               evaluator="incremental",
               tick_rate: "float | None" = None) -> EngineConfig:
        """The node configuration the benchmark serves this workload with
        (*tick_rate*: the logical clock's rate, when not ``self.rate``)."""
        store = None
        if self.durable:
            # Checkpoints are explicit (one after the run, timed on its
            # own): the default cadence rewrites the whole snapshot every
            # 256 commits, a stall that would sit right at the p90 boundary.
            store = StoreConfig(backend="wal", path=store_path, fsync=True,
                                snapshot_every=None)
        # The pump hands the inbox one event per logical tick.  Left at the
        # default (whole backlog at one instant) a burst's events would
        # share one timestamp per socket read, and how much windowed work
        # an event costs would depend on how the bytes happened to arrive.
        # It runs a thousandth of a tick early, so that the tick which
        # follows an offer always includes the hand-over, whatever the
        # last binary digit of ``now + interval`` turns out to be.
        return EngineConfig(
            shards=self.shards, store=store, evaluator=evaluator,
            ingest=IngestConfig(high_water=50_000, policy="reject",
                                pump_batch=1,
                                drain_interval=PUMP_LEAD / (tick_rate or self.rate)))

    def build(self, config: EngineConfig, *, install: bool = True,
              first_seq: int = 0):
        """A fresh simulation serving this workload from event *first_seq*
        on: ``(sim, node, sink)``.

        This is what ``setup_s`` times: new ``Simulation``, store open and
        preload, install of the whole rule base.  Zero network latency, so
        a ``RAISE`` reaches the sink inside the drain that fired it.
        """
        sim = Simulation(latency=0.0)
        node = sim.reactive_node(NODE, config=config)
        sink = sim.node(SINK)
        if install:
            if self.preload is not None:
                self.preload(node)
            for item in self.rules(first_seq):
                node.install(item)
        return sim, node, sink


# ---------------------------------------------------------------------------
# ticker-wire: the codec's workload
# ---------------------------------------------------------------------------

_TICK_RULE = (
    'RULE t{i} ON tick{{{{ symbol["S{s}"], venue["V{v}"], price[var P], '
    'seq[var Q] }}}} DO PUT "' + NODE + '/last/S{s}-V{v}" '
    'last{{ price[var P], seq[var Q] }}')


def _tick_rules(n_rules: int, venues: int) -> list:
    texts = [_TICK_RULE.format(i=i, s=i // venues, v=i % venues)
             for i in range(n_rules)]
    return ["\n".join(texts[k:k + INSTALL_CHUNK])
            for k in range(0, n_rules, INSTALL_CHUNK)]


HEARTBEAT_SHARE = 0.10


def _ticker_event(rng: random.Random, n: int, n_rules: int, venues: int):
    """A tick for one uniformly drawn rule, or a heartbeat no rule wants."""
    if rng.random() < HEARTBEAT_SHARE:
        return "monitor", d("heartbeat", d("seq", n))
    s, v = divmod(rng.randrange(n_rules), venues)
    term = d("tick", d("symbol", f"S{s}"), d("venue", f"V{v}"),
             d("price", rng.randrange(100, 100_000)), d("seq", n))
    return f"feed-{s % 8}", term


TICKER_RULES, TICKER_VENUES = 4_000, 50


# ---------------------------------------------------------------------------
# composite-cep: the evaluator's and the matcher's workload
# ---------------------------------------------------------------------------

CEP_FAMILIES, CEP_KEYS = 40, 6
_CEP_LABELS = ("a",) * 8 + ("b",) * 4 + ("c",) * 1 + ("d",) * 2


# Windows are deliberately not whole multiples of a logical tick (1/rate,
# also at the check's rate): no deadline then coincides with an arrival,
# so rounding in the last place can never reorder two effects.


def _cep_rules(first_seq: int = 0) -> list:
    texts = []
    for f in range(CEP_FAMILIES):
        fam = f'fam["F{f}"]'
        texts.append(f'''
            RULE step{f}
            ON WITHIN 1.003 ( a{{{{ {fam}, key[var K] }}}}
                            THEN b{{{{ {fam}, key[var K], seq[var Q] }}}} )
            DO RAISE TO "{SINK}" step{{ {fam}, key[var K], seq[var Q] }}
            RULE chain{f}
            ON WITHIN 2.003 ( a{{{{ {fam}, key[var K] }}}}
                            THEN b{{{{ {fam}, key[var K] }}}}
                            THEN c{{{{ {fam}, key[var K], seq[var Q] }}}} )
            DO RAISE TO "{SINK}" chain{{ {fam}, key[var K], seq[var Q] }}
            RULE pair{f}
            ON WITHIN 1.003 ( c{{{{ {fam}, key[var K], seq[var Q1] }}}}
                            AND d{{{{ {fam}, key[var K], seq[var Q2] }}}} )
            DO RAISE TO "{SINK}" pair{{ {fam}, key[var K], seq[var Q1], seq[var Q2] }}
            RULE quiet{f}
            ON WITHIN 1.003 ( a{{{{ {fam}, key[var K], seq[var Q] }}}}
                            THEN NOT b{{{{ {fam}, key[var K] }}}} )
            DO RAISE TO "{SINK}" quiet{{ {fam}, key[var K], seq[var Q] }}
        ''')
    texts.append(f'''
        RULE surge
        ON COUNT 14 OF a{{{{ fam[var F] }}}} WITHIN 1.003 BY [F]
        DO RAISE TO "{SINK}" surge{{ fam[var F] }}
        RULE drift
        ON AGG avg var V OF d{{{{ val[var V] }}}} LAST 10 INTO var A WHEN > 600
        DO PERSIST drift{{ avg[var A] }} INTO "{NODE}/drift"
    ''')
    items = list(texts)
    # The overlapping-rule case: every `c` answers all three members; the
    # group fires the highest-priority one and suppresses the others.
    triage = priority_group("triage")
    triage.add(rule("hot").on('c{{ val[> 900], seq[var Q] }}')
               .do(f'RAISE TO "{SINK}" triage{{ level["hot"], seq[var Q] }}'),
               priority=3.0)
    triage.add(rule("fam0").on('c{{ fam["F0"], seq[var Q] }}')
               .do(f'RAISE TO "{SINK}" triage{{ level["fam0"], seq[var Q] }}'),
               priority=2.0)
    triage.add(rule("any").on('c{{ seq[var Q] }}')
               .do(f'RAISE TO "{SINK}" triage{{ level["any"], seq[var Q] }}'),
               priority=1.0)
    items.append(triage)
    return items


def _cep_event(seed: int, n: int):
    rng = _event_rng(seed, n)
    f = rng.randrange(CEP_FAMILIES)
    label = rng.choice(_CEP_LABELS)
    term = d(label, d("fam", f"F{f}"), d("key", rng.randrange(CEP_KEYS)),
             d("val", rng.randrange(1000)), d("seq", n))
    return f"src-{f % 8}", term


# ---------------------------------------------------------------------------
# durable-orders: the store's workload
# ---------------------------------------------------------------------------

ORDER_CUSTOMERS = 1_000
ORDER_SHARE = 0.6  # of events; the rest are pays
_PAY_LAG = (5, 80)  # a pay names the order placed this many events ago


def _order_rules(first_seq: int = 0) -> list:
    return [f'''
        RULE place-order
        ON order{{{{ id[var O], customer[var C], account[var U], at[var OU],
                   amount[var A], seq[var Q] }}}}
        IF IN var U : customer{{{{ id[var C], last{{{{ total[var T] }}}} }}}}
        DO SEQUENCE
             PUT var OU order{{ id[var O], customer[var C], amount[var A],
                               seq[var Q] }}
             ALSO REPLACE last{{{{ total[var T] }}}} IN var U
                  BY last{{ total[add(var T, var A)], seq[var Q] }}
           END
        RULE settle
        ON WITHIN 0.2503 ( order{{{{ id[var O] }}}}
                        THEN pay{{{{ order[var O], at[var SU], seq[var Q] }}}} )
        DO PUT var SU status{{ order[var O], paid["yes"], seq[var Q] }}
    ''']


def _order_preload(node) -> None:
    for c in range(ORDER_CUSTOMERS):
        node.put(f"{NODE}/customers/c{c}",
                 d("customer", d("id", f"c{c}"),
                   d("last", d("total", 0), d("seq", -1))))


def _order_draw(seed: int, n: int):
    """``(customer, rng)`` of event *n*: the customer whose order it is, or
    None when it is a pay; *rng* continues the event's own draws.  (The
    first events are all orders, so every pay finds one to settle.)"""
    rng = _event_rng(seed, n)
    if rng.random() < ORDER_SHARE or n < _PAY_LAG[0]:
        return rng.randrange(ORDER_CUSTOMERS), rng
    return None, rng


def _order_event(seed: int, n: int):
    c, rng = _order_draw(seed, n)
    if c is not None:
        term = d("order", d("id", f"o{n}"), d("customer", f"c{c}"),
                 d("account", f"{NODE}/customers/c{c}"),
                 d("at", f"{NODE}/orders/o{n}"),
                 d("amount", rng.randrange(1, 500)), d("seq", n))
        return f"shop-{c % 8}", term
    # Pay the most recent order at least `lag` events back; its customer's
    # sender, hence the same connection as the order it settles.
    target = n - rng.randrange(*_PAY_LAG)
    while c is None:
        c, _ = _order_draw(seed, target)
        target -= c is None
    term = d("pay", d("order", f"o{target}"),
             d("at", f"{NODE}/status/o{target}-{n}"), d("seq", n))
    return f"shop-{c % 8}", term


# ---------------------------------------------------------------------------
# churn-sharded: trie and partition writes beside reads, through ShardRouter
# ---------------------------------------------------------------------------

CHURN_RULES, CHURN_VENUES, CHURN_SHARDS = 2_000, 40, 4
CHURN_CYCLE = 250  # ordinary events between two deploy/retire swaps


def _dyn_rule_text(j: int) -> str:
    return (f'RULE dyn{j} ON tick{{{{ symbol["D{j}"], price[var P], '
            f'seq[var Q] }}}} DO PUT "{NODE}/last/D{j}" '
            f'last{{ price[var P], seq[var Q] }}')


def _churn_rules(n_rules: int, first_seq: int) -> list:
    deployed = _dyn_rule_text(first_seq // (CHURN_CYCLE + 2))
    return _tick_rules(n_rules, CHURN_VENUES) + [deployed, f'''
        RULE deploy ON deploy{{{{ var R -> `eca-rule`{{{{}}}} }}}} DO INSTALL var R
        RULE retire ON retire{{{{ name[var N] }}}} DO UNINSTALL var N
    ''']


def _churn_event(seed: int, n: int, n_rules: int):
    # A cycle is CHURN_CYCLE ordinary events, then deploy dyn{c+1}, then
    # retire dyn{c}; the first tick of a cycle targets the rule deployed
    # last, so a swap that did not take effect is a missing reaction.
    # Swaps and the ticks that depend on them share the sender "ops".
    cycle, pos = divmod(n, CHURN_CYCLE + 2)
    rng = _event_rng(seed, n)
    if pos == CHURN_CYCLE:
        deployed, = parse_program(_dyn_rule_text(cycle + 1))
        return "ops", d("deploy", rule_to_term(deployed), d("seq", n))
    if pos == CHURN_CYCLE + 1:
        return "ops", d("retire", d("name", f"dyn{cycle}"), d("seq", n))
    if pos == 0:
        return "ops", d("tick", d("symbol", f"D{cycle}"),
                        d("price", rng.randrange(100, 100_000)), d("seq", n))
    return _ticker_event(rng, n, n_rules, CHURN_VENUES)


def _dyn_probe(k: int):
    return f"dyn{10_000 + k}", _dyn_rule_text(10_000 + k)


def _cep_probe(k: int):
    return f"probe{k}", (
        f'RULE probe{k} ON WITHIN 1.0 ( a{{{{ fam["P{k}"], key[var K] }}}} '
        f'THEN b{{{{ fam["P{k}"], key[var K], seq[var Q] }}}} ) '
        f'DO RAISE TO "{SINK}" probe{{ seq[var Q] }}')


def _order_probe(k: int):
    return f"probe{k}", (
        f'RULE probe{k} ON order{{{{ customer["P{k}"], seq[var Q] }}}} '
        f'DO PUT "{NODE}/probe" probe{{ seq[var Q] }}')


# ---------------------------------------------------------------------------


def catalog(smoke: bool = False) -> "dict[str, Workload]":
    """The four workloads.  ``smoke`` keeps every mechanism but cuts the
    two big atom rule bases to a tenth, so a self-test sets up in a blink;
    its numbers mean nothing."""
    ticker_rules = TICKER_RULES // 10 if smoke else TICKER_RULES
    churn_rules = CHURN_RULES // 10 if smoke else CHURN_RULES
    return {w.name: w for w in (
        Workload(
            name="ticker-wire",
            why="4 000 atom rules, trie hands over exactly 1 candidate: "
                "wire decode and admission dominate, evaluator and store idle",
            rate=1500.0, burst_events=4_000, window=0.0,
            check_events=2_000, check_rate=1500.0,
            rules=lambda first_seq: _tick_rules(ticker_rules, TICKER_VENUES),
            event=lambda seed, n: _ticker_event(
                _event_rng(seed, n), n, ticker_rules, TICKER_VENUES),
            probe_rule=_dyn_probe, must_react=frozenset({"tick"}),
            constants={"rules": ticker_rules, "venues": TICKER_VENUES,
                       "heartbeat_share": HEARTBEAT_SHARE}),
        Workload(
            name="composite-cep",
            why="40 key-joined families of sequence/conjunction/absence "
                "rules plus COUNT, AGG and a priority group: evaluator joins "
                "and the matcher dominate, store idle",
            rate=600.0, burst_events=2_800, window=2.003,
            check_events=200, check_rate=40.0,
            rules=_cep_rules, event=_cep_event, probe_rule=_cep_probe,
            deferred=frozenset({"quiet"}),
            constants={"families": CEP_FAMILIES, "keys": CEP_KEYS,
                       "label_mix_a:b:c:d": "8:4:1:2"}),
        Workload(
            name="durable-orders",
            why="WAL store with fsync, condition reads beside atomic writes "
                "of the same store: the commit dominates",
            rate=400.0, burst_events=1_300, window=0.2503, durable=True,
            check_events=200, check_rate=100.0,
            rules=_order_rules, event=_order_event, preload=_order_preload,
            probe_rule=_order_probe, must_react=frozenset({"order"}),
            constants={"customers": ORDER_CUSTOMERS, "order_share": ORDER_SHARE,
                       "pay_lag_events": list(_PAY_LAG)}),
        Workload(
            name="churn-sharded",
            why="4 shards, 2 000 atom rules, one deploy+retire pair on the "
                "wire per 250 events: trie and partition writes beside "
                "reads, the only workload through ShardRouter",
            rate=600.0, burst_events=5 * (CHURN_CYCLE + 2), window=0.0, shards=CHURN_SHARDS,
            check_events=1_050, check_rate=600.0,
            rules=lambda first_seq: _churn_rules(churn_rules, first_seq),
            event=lambda seed, n: _churn_event(seed, n, churn_rules),
            probe_rule=_dyn_probe, must_react=frozenset({"tick"}),
            period=CHURN_CYCLE + 2,
            constants={"rules": churn_rules, "venues": CHURN_VENUES,
                       "shards": CHURN_SHARDS, "swap_every": CHURN_CYCLE,
                       "heartbeat_share": HEARTBEAT_SHARE}),
    )}

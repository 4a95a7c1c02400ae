"""The per-layer ledger: a traced in-process replay, measured from outside.

``--trace 1`` replays a slice of the paced input in this process, under
the same logical clock as the socket run but with no socket, three times:

1. **plain** — ``FrameDecoder.feed`` → ``gateway.offer_payload`` →
   ``sim.run_until``: the in-process cost of one event, untraced;
2. **traced** — the same calls made one by one with a span around each:
   ``feed`` + ``decode_payload`` (wire), ``gateway.offer`` (admission),
   ``run_until`` (the drain), and inside the drain every evaluator call
   (a wrapping factory passed as ``EngineConfig(evaluator=...)``) and
   every WAL commit (a wrapping backend added with ``register_backend``);
3. **bare** — the traced replay against a node with *no rules*: its
   drain span is what the pump, the inbox and an empty dispatch cost
   (``node.deliver_us``).

Spans are ``(name, start, end, parent, seq)`` tuples kept in memory; the
parent of an evaluator or commit span is the drain that caused it, and
``seq`` is the event's.  A layer's self time is its spans' time minus
its children's, so::

    engine.self_us = drain - evaluators - commits - node.deliver_us

is what dispatch, matching, conditions and actions cost.  Nothing inside
``src/`` is instrumented or patched: every span wraps a call the
benchmark itself makes or an object it itself supplied.

Every probe is guarded on its own (:func:`guarded`): a seam that a later
change removes reads ``None`` with the reason, and the run goes on.
"""

from __future__ import annotations

import copy
import json
import os
import statistics
import time
import weakref
from dataclasses import replace

from repro.events.factory import resolve_evaluator
from repro.ingest import wire
from repro.store.backend import (
    DurableResourceStore,
    encode_commit,
    register_backend,
)
from repro.store.wal import WalBackend
from repro.terms.parser import parse_data, to_text
from repro.terms.simulation import compile_pattern

from driver import Effects, counters
from workloads import Workload

TRACED_WAL = "e23-traced-wal"
_clock = time.perf_counter


class Tracer:
    """Spans and the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: "list[tuple[str, float, float, int, int]]" = []
        self.parent = -1      # index of the drain span being run
        self.seq = -1         # seq of the event being replayed
        self.answers = 0
        self.commits = 0
        self.commit_ops: list = []   # sampled (seq, ops) for the text probe
        self.pairs: list = []        # sampled (query, event term) candidates
        self._calls = 0
        self.evaluators: "weakref.WeakSet" = weakref.WeakSet()

    def reset(self) -> None:
        """Forget what set-up recorded (preload commits are not traffic)."""
        self.spans.clear()
        self.commit_ops.clear()
        self.pairs.clear()
        self.answers = self.commits = self._calls = 0

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        self.spans.append((name, start, end, parent, self.seq))
        return len(self.spans) - 1

    def factory(self, query, rates=None):
        """``EngineConfig(evaluator=tracer.factory)``: the default
        mechanism, each evaluator wrapped in spans."""
        inner = resolve_evaluator("incremental").build(query, rates)
        return TracedEvaluator(inner, query, self)

    def open_store(self, config):
        """The ``register_backend`` factory: the WAL backend, wrapped."""
        backend = TracedBackend(WalBackend(config.path, fsync=config.fsync), self)
        return DurableResourceStore(backend, snapshot_every=config.snapshot_every)

    def totals(self) -> "dict[str, float]":
        """Seconds spent in spans, by span name."""
        out: "dict[str, float]" = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for k, (name, start, end, parent, seq) in enumerate(self.spans):
                out.write(json.dumps({"id": k, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "seq": seq}) + "\n")


class TracedEvaluator:
    """An evaluator with a span around ``on_event`` / ``advance_time``;
    everything else (``interest``, ``next_deadline``, …) passes through."""

    def __init__(self, inner, query, tracer: Tracer) -> None:
        self.inner = inner
        self.query = query
        self.tracer = tracer
        tracer.evaluators.add(self)

    def on_event(self, event):
        tracer = self.tracer
        start = _clock()
        out = self.inner.on_event(event)
        tracer.add("events.on_event", start, _clock(), tracer.parent)
        tracer.answers += len(out)
        tracer._calls += 1
        if tracer._calls % 16 == 0 and len(tracer.pairs) < 2_000:
            tracer.pairs.append((self.query, event.term))
        return out

    def advance_time(self, now):
        tracer = self.tracer
        start = _clock()
        out = self.inner.advance_time(now)
        tracer.add("events.advance_time", start, _clock(), tracer.parent)
        tracer.answers += len(out)
        return out

    def __getattr__(self, name):
        if name.startswith("__") or name in ("inner", "query", "tracer"):
            raise AttributeError(name)  # mid-copy: no state to delegate to yet
        return getattr(self.inner, name)

    def __deepcopy__(self, memo):
        # The router deep-copies evaluators it replicates; the tracer (and
        # its spans) must stay shared, not be copied along.
        return TracedEvaluator(copy.deepcopy(self.inner, memo), self.query,
                               self.tracer)


class TracedBackend:
    """A store backend with a span around every commit."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def append_commit(self, seq, ops) -> None:
        tracer = self.tracer
        start = _clock()
        self.inner.append_commit(seq, ops)
        tracer.add("store.commit", start, _clock(), tracer.parent)
        tracer.commits += 1
        if tracer.commits % 8 == 0 and len(tracer.commit_ops) < 500:
            tracer.commit_ops.append((seq, ops))

    def load(self):
        return self.inner.load()

    def checkpoint(self, documents, floors, seq) -> None:
        self.inner.checkpoint(documents, floors, seq)

    def close(self) -> None:
        self.inner.close()


# ---------------------------------------------------------------------------
# The three replays
# ---------------------------------------------------------------------------


class Replay:
    """What one replay left behind."""

    def __init__(self, node, effects: Effects, seconds: float, events: int,
                 *, state_peak: int = 0, labels: "dict[int, str] | None" = None,
                 wal_bytes: int = 0) -> None:
        self.node = node
        self.effects = effects
        self.us_per_event = seconds / events * 1e6
        self.counters = counters(node)
        self.state_peak = state_peak
        self.labels = labels or {}      # event label by seq
        self.wal_bytes = wal_bytes      # the WAL's growth over the replay


def _ticks(workload: Workload, count: int, base: float):
    """The logical clock after each frame, as ``driver.LogicalClock``
    reads it: one tick per frame seen."""
    return [base + (k + 1) / workload.rate for k in range(count)]


def replay_plain(workload: Workload, frames, first_seq: int, base: float,
                 store_path) -> Replay:
    """Replay 1: the in-process cost of one event, untraced."""
    sim, node, sink = workload.build(workload.config(store_path),
                                     first_seq=first_seq)
    effects = Effects(node, sink)
    decoder = wire.FrameDecoder()
    offer_payload = node.ingest.offer_payload
    run_until = sim.run_until
    sim.run_until(base)
    started = _clock()
    for frame, at in zip(frames, _ticks(workload, len(frames), base)):
        for payload in decoder.feed(frame):
            offer_payload(payload)
        run_until(at)
    seconds = _clock() - started
    sim.run_until(base + len(frames) / workload.rate + workload.window)
    return Replay(node, effects, seconds, len(frames))


def replay_traced(workload: Workload, frames, seqs, base: float, store_path,
                  tracer: Tracer, *, install: bool = True) -> Replay:
    """Replay 2 — and, with ``install=False``, replay 3 — the same calls,
    one span each."""
    config = workload.config(store_path, evaluator=tracer.factory)
    if workload.durable:
        register_backend(TRACED_WAL, tracer.open_store)
        config = replace(config, store=replace(config.store, backend=TRACED_WAL))
    sim, node, sink = workload.build(config, install=install,
                                     first_seq=seqs[0])
    tracer.reset()
    wal_before = wal_bytes(store_path) if workload.durable else 0
    effects = Effects(node, sink)
    decoder = wire.FrameDecoder()
    gateway = node.ingest
    add = tracer.add
    sim.run_until(base)
    busy = 0.0
    state_peak = 0
    labels = {}
    for k, (frame, at) in enumerate(zip(frames, _ticks(workload, len(frames), base))):
        tracer.seq = seqs[k]
        t0 = _clock()
        payloads = decoder.feed(frame)
        envelopes = [wire.decode_payload(payload) for payload in payloads]
        t1 = _clock()
        for envelope in envelopes:
            gateway.offer(envelope.body, sender=envelope.sender,
                          sent_at=envelope.sent_at)
        t2 = _clock()
        tracer.parent = len(tracer.spans)  # the drain span's index-to-be
        tracer.spans.append(None)
        sim.run_until(at)
        t3 = _clock()
        tracer.spans[tracer.parent] = ("drain", t2, t3, -1, tracer.seq)
        add("wire.decode", t0, t1, -1)
        add("admission.offer", t1, t2, -1)
        busy += t3 - t0
        labels[seqs[k]] = envelopes[0].body.label
        if k % 500 == 0:
            state_peak = max(state_peak, sum(
                evaluator.state_size() for evaluator in tracer.evaluators))
    tracer.parent, tracer.seq = -1, -1
    sim.run_until(base + len(frames) / workload.rate + workload.window)
    grown = wal_bytes(store_path) - wal_before if workload.durable else 0
    return Replay(node, effects, busy, len(frames), state_peak=state_peak,
                  labels=labels, wal_bytes=grown)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def guarded(metrics: dict, reasons: dict, name: str, probe) -> None:
    """Run one probe; a failure costs its metric only, never the run."""
    try:
        metrics[name] = probe()
    except Exception as exc:  # noqa: BLE001 - the probe boundary
        metrics[name] = None
        reasons[name] = f"{type(exc).__name__}: {exc}"[:200]


def _patterns(query):
    """The term patterns inside an event query (duck-typed traversal)."""
    if hasattr(query, "pattern"):
        yield query.pattern
    for member in getattr(query, "members", ()):
        yield from _patterns(member)
    if hasattr(query, "query"):
        yield from _patterns(query.query)


def match_us(pairs) -> float:
    """``compile_pattern(q)(term)`` on candidate pairs the trie actually
    dispatched (sampled by the traced evaluators)."""
    calls = []
    for query, term in pairs:
        for pattern in _patterns(query):
            if getattr(pattern, "label", term.label) == term.label:
                calls.append((compile_pattern(pattern), term))
    started = _clock()
    for matcher, term in calls:
        for _ in matcher(term):
            pass
    return (_clock() - started) / len(calls) * 1e6


def parse_us(payloads) -> float:
    texts = [payload.decode("utf-8") for payload in payloads]
    started = _clock()
    for text in texts:
        parse_data(text)
    return (_clock() - started) / len(texts) * 1e6


def to_text_us(payloads, commit_ops, commits_per_event: float) -> float:
    """Per event: the envelope text the sender builds, plus the commit
    record text the store builds."""
    terms = [parse_data(payload.decode("utf-8")) for payload in payloads]
    started = _clock()
    for term in terms:
        to_text(term)
    per_event = (_clock() - started) / len(terms)
    if commit_ops:
        started = _clock()
        for seq, ops in commit_ops:
            encode_commit(seq, ops)
        per_event += (_clock() - started) / len(commit_ops) * commits_per_event
    return per_event * 1e6


def install_probe(workload: Workload, node, repeats: int):
    """p50 µs of installing, then uninstalling, one rule at full base."""
    installs, uninstalls = [], []
    for k in range(repeats):
        name, text = workload.probe_rule(k)
        t0 = _clock()
        node.install(text)
        t1 = _clock()
        node.uninstall(name)
        t2 = _clock()
        installs.append(t1 - t0)
        uninstalls.append(t2 - t1)
    return (statistics.median(installs) * 1e6,
            statistics.median(uninstalls) * 1e6)


def wal_bytes(store_path: str) -> int:
    return os.path.getsize(os.path.join(store_path, "store.wal"))

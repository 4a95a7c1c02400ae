"""Admission control: the gate between the transport and the node inbox.

The existing delivery path hands events straight to
:meth:`repro.web.node.WebNode.deliver` — fine for hand-built scenarios,
hopeless as a front door: one hot sender can bury the inbox, a burst has
no ceiling, and nobody can say how long an accepted event waited before
its rules ran.  The :class:`IngestGateway` puts a measured queueing stage
in front of the inbox:

1. **Admission** (:meth:`IngestGateway.offer`): the event passes the
   sender's token bucket (per-sender rate limiting), then the backlog
   check against the configured high-water mark.  At the mark, the
   configured overflow policy decides: ``reject`` refuses the new event,
   ``drop-oldest`` evicts the oldest queued event to make room, and
   ``spill`` writes the new event to a disk file to be replayed when the
   backlog drains.  Every outcome is counted in
   :class:`~repro.ingest.stats.IngestStats`.
2. **Service** (the *pump*): a scheduler callback dequeues admitted
   events in weighted-fair order — deficit round robin over the
   per-sender queues, each round moving at most ``pump_batch`` events
   (defaulting to the node's ``inbox_batch`` budget) into the node inbox
   every ``drain_interval`` simulated seconds.  The pair models a bounded
   service rate, which is what makes overflow policies *mean* something:
   arrival above capacity grows the backlog until the high-water mark
   engages the policy.
3. **Accounting**: each event is stamped at admission; when the node's
   handlers (the rule engine) process it, the gateway records the
   enqueue-to-fire latency in simulated seconds (see
   :mod:`repro.ingest.stats` for why immediate firings coincide with the
   handler instant, sharded or not).

Nothing here changes the node's delivery contract — the pump uses the
same :meth:`~repro.web.node.WebNode.stamp_event` /
:meth:`~repro.web.node.WebNode.deliver` seam the network path uses, and a
node without a gateway (``EngineConfig(ingest=None)``, the default) is
bit-for-bit the pre-ingestion code path.

Housekeeping rides the scheduler: token buckets refill lazily from the
simulated clock, and an optional recurring sweep
(:meth:`repro.web.scheduler.Scheduler.recur`) expires per-sender state
idle longer than ``idle_expiry`` — the sweep stops itself when no state
remains, so it never keeps ``Simulation.run`` alive artificially.
"""

from __future__ import annotations

import os
import tempfile
from collections import deque
from dataclasses import dataclass

from repro.errors import IngestError
from repro.ingest import wire
from repro.ingest.stats import IngestStats, LatencyRecorder
from repro.terms.ast import Data
from repro.terms.parser import to_text

_POLICIES = ("drop-oldest", "reject", "spill")


@dataclass(frozen=True)
class IngestConfig:
    """Everything configurable about one node's ingestion gateway.

    Passed as ``EngineConfig(ingest=IngestConfig(...))`` — the facade
    builds the :class:`IngestGateway` and exposes it as
    ``ReactiveNode.ingest``.

    **Backpressure**

    - ``high_water`` — in-memory admission backlog at which the overflow
      policy engages (events queued at the front door, not yet pumped
      into the node inbox).
    - ``policy`` — what happens to an arrival at the mark:
      ``"reject"`` (refuse it; the sender is told), ``"drop-oldest"``
      (evict the oldest queued event, admit the new one), or ``"spill"``
      (append it to a disk file; replayed in arrival order once the
      backlog drains — note that while spilled events are pending, *all*
      new arrivals spill too, so disk never reorders the stream).
    - ``spill_dir`` — directory for the spill file.  ``None`` (default):
      an anonymous file in the platform temp dir that vanishes with the
      gateway — spilled events are *deferred*, not durable.  A directory
      makes the spill **durable**: the file is named
      (``<spill_dir>/ingest-spill.wal``), every record is fsync'd as it
      is written, and a gateway constructed over the same directory
      *recovers* whatever backlog was on disk when the last process
      died — records are counted in ``stats.spill_recovered``, a torn
      trailing record (a crash mid-append) is truncated away, and the
      recovered events replay through the normal pump in arrival order.
      Replay is at-least-once: the file is only truncated once fully
      drained, so a crash mid-replay recovers already-redelivered
      records again.

    **Rate limiting and fairness**

    - ``rate`` — per-sender token refill rate in events per simulated
      second (``None``: unlimited).  Buckets refill lazily from the
      clock; an empty bucket refuses the event (``rate_limited``).
    - ``burst`` — bucket capacity: how many events a quiet sender may
      land at one instant before its rate applies.
    - ``weights`` — per-sender service weights for the fair dequeue
      (missing senders get ``1.0``).  A sender with weight 2 is served
      two events for every one of a weight-1 sender while both are
      backlogged; no sender starves.

    **Service rate**

    - ``pump_batch`` — events one pump round moves into the node inbox
      (``None``: the node's ``inbox_batch``, or the whole backlog if
      that is unset too).
    - ``drain_interval`` — simulated seconds between pump rounds.  ``0.0``
      pumps at the same instant (control still returns to the scheduler
      first, like an inbox drain); together with ``pump_batch`` a
      positive interval models a bounded service rate — the knob
      benchmarks turn to create overload.

    **Housekeeping and wire limits**

    - ``idle_expiry`` — reclaim a sender's state (queue slot, token
      bucket) after this many simulated seconds without traffic
      (``None``: keep state forever).  Runs on a self-stopping
      recurring scheduler sweep.
    - ``max_frame`` — wire-level ceiling on one frame's payload bytes.
    - ``latency_samples`` — cap the latency reservoir (``None``: keep
      every sample; exact percentiles).
    """

    high_water: int = 1024
    policy: str = "reject"
    spill_dir: "str | None" = None
    rate: "float | None" = None
    burst: float = 16.0
    weights: "dict[str, float] | None" = None
    pump_batch: "int | None" = None
    drain_interval: float = 0.0
    idle_expiry: "float | None" = None
    max_frame: int = wire.MAX_FRAME
    latency_samples: "int | None" = None

    def __post_init__(self) -> None:
        if self.high_water < 1:
            raise IngestError(f"high_water must be >= 1, got {self.high_water}")
        if self.policy not in _POLICIES:
            raise IngestError(
                f"unknown overflow policy {self.policy!r} (expected one of "
                f"{', '.join(_POLICIES)})"
            )
        if self.rate is not None and self.rate <= 0:
            raise IngestError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise IngestError(f"burst must be >= 1, got {self.burst}")
        for sender, weight in (self.weights or {}).items():
            if weight <= 0:
                raise IngestError(
                    f"weight for {sender!r} must be positive, got {weight}"
                )
        if self.pump_batch is not None and self.pump_batch < 1:
            raise IngestError(f"pump_batch must be >= 1, got {self.pump_batch}")
        if self.drain_interval < 0:
            raise IngestError(
                f"drain_interval must be >= 0, got {self.drain_interval}"
            )
        if self.idle_expiry is not None and self.idle_expiry <= 0:
            raise IngestError(
                f"idle_expiry must be positive, got {self.idle_expiry}"
            )
        if self.max_frame < 8:
            raise IngestError(f"max_frame must be >= 8, got {self.max_frame}")
        if self.latency_samples is not None and self.latency_samples < 1:
            raise IngestError(
                f"latency_samples must be >= 1, got {self.latency_samples}"
            )


# Pending lifecycle markers (plain ints: cheap, and tombstones let
# drop-oldest evict via the global arrival deque without O(n) queue scans).
_QUEUED, _DELIVERED, _DROPPED = 0, 1, 2


class _Pending:
    """One admitted event waiting at the front door."""

    __slots__ = ("term", "sender", "sent_at", "admitted_at", "state")

    def __init__(self, term, sender, sent_at, admitted_at) -> None:
        self.term = term
        self.sender = sender
        self.sent_at = sent_at
        self.admitted_at = admitted_at
        self.state = _QUEUED


class _SenderState:
    """Per-sender queue, token bucket, and fairness bookkeeping."""

    __slots__ = ("queue", "tokens", "refilled_at", "last_seen", "credit")

    def __init__(self, now: float, burst: float) -> None:
        self.queue: deque[_Pending] = deque()
        self.tokens = burst
        self.refilled_at = now
        self.last_seen = now
        self.credit = 0.0


class IngestGateway:
    """The admission controller of one node (see the module docstring).

    Construct via ``EngineConfig(ingest=IngestConfig(...))`` — or
    directly, ``IngestGateway(node, config)``, for a bare
    :class:`~repro.web.node.WebNode`.
    """

    def __init__(self, node, config: "IngestConfig | None" = None) -> None:
        self.node = node
        self.config = config if config is not None else IngestConfig()
        self.stats = IngestStats(
            latency=LatencyRecorder(self.config.latency_samples))
        self._senders: dict[str, _SenderState] = {}
        self._active: deque[str] = deque()  # senders with queued events
        self._arrivals: deque[_Pending] = deque()  # global FIFO (drop-oldest)
        self._backlog = 0
        self._pump_scheduled = False
        self._expiry_armed = False
        self._inflight: dict[int, float] = {}  # event id -> admitted_at
        self._spill_file = None
        self._spill_backlog = 0
        self._spill_read = 0
        self._spill_write = 0
        # A configured spill_dir names the spill file and makes it durable
        # (fsync per record) — so a backlog left by a dead process is
        # recoverable.  Recover it before the first offer.
        self._spill_path = (
            os.path.join(self.config.spill_dir, "ingest-spill.wal")
            if self.config.spill_dir is not None else None)
        if self._spill_path is not None:
            self._recover_spill()
        # Registered after the engine (the facade builds the gateway last),
        # so by the time this hook sees an event its immediate answers have
        # fired — the enqueue-to-fire instant.
        node.on_event(self._record_fire)

    # -- admission ------------------------------------------------------------

    def offer(self, term: Data, *, sender: str = "",
              sent_at: "float | None" = None) -> bool:
        """Offer one event to the front door; True iff it was admitted.

        ``False`` means load management turned it away (rate-limited or
        rejected at the high-water mark) — the counters say which.  A
        spilled event returns ``True``: it is deferred to disk, not shed.
        """
        now = self.node.now
        state = self._sender_state(sender, now)
        state.last_seen = now
        if not self._take_token(state, now):
            self.stats.rate_limited += 1
            return False
        config = self.config
        if config.policy == "spill" and (
                self._spill_backlog or self._backlog >= config.high_water):
            self._spill(term, sender, sent_at, now)
            self._schedule_pump()
            return True
        if self._backlog >= config.high_water:
            if config.policy == "reject":
                self.stats.rejected += 1
                return False
            self._drop_oldest()
        pending = _Pending(term, sender, sent_at, now)
        if not state.queue:
            self._active.append(sender)
        state.queue.append(pending)
        self._arrivals.append(pending)
        self._backlog += 1
        self.stats.admitted += 1
        self.stats.backlog = self._backlog
        if self._backlog > self.stats.backlog_peak:
            self.stats.backlog_peak = self._backlog
        self._schedule_pump()
        return True

    def offer_payload(self, payload: bytes) -> bool:
        """Wire-level admission: decode one frame payload, then offer.

        Malformed payloads are counted and re-raised as
        :class:`~repro.errors.FrameError`; the transport answers the
        client and keeps the server alive.
        """
        try:
            envelope = wire.decode_payload(payload)
        except IngestError:
            self.stats.malformed += 1
            raise
        return self.offer(envelope.body, sender=envelope.sender,
                          sent_at=envelope.sent_at)

    def count_malformed(self) -> None:
        """Account one wire-level reject detected by the transport
        (framing errors surface in the reader loop, before a payload
        exists for :meth:`offer_payload` to see)."""
        self.stats.malformed += 1

    @property
    def backlog(self) -> int:
        """Events queued in memory at the front door (spill excluded)."""
        return self._backlog

    @property
    def spill_backlog(self) -> int:
        """Events parked in the spill file, not yet replayed."""
        return self._spill_backlog

    # -- sender state ---------------------------------------------------------

    def _sender_state(self, sender: str, now: float) -> _SenderState:
        state = self._senders.get(sender)
        if state is None:
            state = _SenderState(now, self.config.burst)
            self._senders[sender] = state
            self.stats.senders_tracked = len(self._senders)
            self._arm_expiry()
        return state

    def _take_token(self, state: _SenderState, now: float) -> bool:
        rate = self.config.rate
        if rate is None:
            return True
        elapsed = now - state.refilled_at
        if elapsed > 0:
            state.tokens = min(self.config.burst, state.tokens + elapsed * rate)
            state.refilled_at = now
        if state.tokens >= 1.0:
            state.tokens -= 1.0
            return True
        return False

    def _arm_expiry(self) -> None:
        expiry = self.config.idle_expiry
        if expiry is None or self._expiry_armed:
            return
        self._expiry_armed = True
        self.node.clock.recur(expiry, self._expire_idle)

    def _expire_idle(self) -> bool:
        """The recurring sweep: reclaim idle sender state; keep ticking
        only while any state remains (so an idle gateway goes quiet)."""
        horizon = self.node.now - self.config.idle_expiry
        idle = [sender for sender, state in self._senders.items()
                if not state.queue and state.last_seen <= horizon]
        for sender in idle:
            del self._senders[sender]
        self.stats.senders_expired += len(idle)
        self.stats.senders_tracked = len(self._senders)
        if self._senders:
            return True
        self._expiry_armed = False
        return False

    # -- overflow policies ----------------------------------------------------

    def _drop_oldest(self) -> None:
        arrivals = self._arrivals
        while arrivals and arrivals[0].state != _QUEUED:
            arrivals.popleft()  # tombstones of delivered/dropped events
        if not arrivals:  # backlog accounting says this cannot happen
            raise IngestError("drop-oldest found no queued event to evict")
        oldest = arrivals.popleft()
        oldest.state = _DROPPED
        self._backlog -= 1
        self.stats.dropped += 1
        self.stats.backlog = self._backlog

    def _recover_spill(self) -> None:
        """Adopt the spill file a dead process left in ``spill_dir``.

        Counts the complete framed records on disk (a torn trailing
        record — the append a crash interrupted — is truncated away; it
        was never fsync'd, so its event was never acknowledged) and
        queues them for replay through the normal pump path.
        """
        try:
            size = os.path.getsize(self._spill_path)
        except OSError:
            return  # no file: nothing spilled, or a clean full drain
        if size == 0:
            return
        file = open(self._spill_path, "r+b")
        data = file.read()
        records, valid_end = 0, 0
        while True:
            remaining = len(data) - valid_end
            if remaining < 4:
                break
            length = int.from_bytes(data[valid_end:valid_end + 4], "big")
            if length > self.config.max_frame or remaining < 4 + length:
                break
            valid_end += 4 + length
            records += 1
        if valid_end < len(data):
            file.truncate(valid_end)
            file.flush()
            os.fsync(file.fileno())
        if records == 0:
            file.close()
            return
        self._spill_file = file
        self._spill_backlog = records
        self._spill_read = 0
        self._spill_write = valid_end
        self.stats.spill_recovered = records
        self._schedule_pump()

    def _spill(self, term, sender, sent_at, admitted_at) -> None:
        if self._spill_file is None:
            if self._spill_path is not None:
                self._spill_file = open(self._spill_path, "w+b")
            else:
                self._spill_file = tempfile.TemporaryFile(
                    dir=self.config.spill_dir, prefix="repro-ingest-")
        children = [Data("sender", (sender,)),
                    Data("admitted-at", (admitted_at,))]
        if sent_at is not None:
            children.append(Data("sent-at", (sent_at,)))
        children.append(Data("body", (term,), True))
        record = wire.frame(
            to_text(Data("spill", tuple(children), False)).encode("utf-8"),
            self.config.max_frame,
        )
        self._spill_file.seek(self._spill_write)
        self._spill_file.write(record)
        self._spill_write = self._spill_file.tell()
        if self._spill_path is not None:
            # Durable spill: the event is only "deferred, not shed" if it
            # survives a crash — fsync before the offer() acknowledges.
            self._spill_file.flush()
            os.fsync(self._spill_file.fileno())
        self._spill_backlog += 1
        self.stats.spilled += 1

    def _replay_spill(self, budget: int) -> None:
        """Read up to *budget* spilled records back into the queues."""
        from repro.terms.parser import parse_data

        file = self._spill_file
        replayed = 0
        while replayed < budget and self._spill_backlog:
            file.seek(self._spill_read)
            prefix = file.read(4)
            length = int.from_bytes(prefix, "big")
            record = parse_data(file.read(length).decode("utf-8"))
            self._spill_read = file.tell()
            self._spill_backlog -= 1
            replayed += 1
            sender_term = record.first("sender")
            sent_term = record.first("sent-at")
            sender = str(sender_term.value) if sender_term is not None else ""
            sent_at = float(sent_term.value) if sent_term is not None else None
            admitted_term = record.first("admitted-at")
            pending = _Pending(record.first("body").children[0], sender,
                               sent_at, float(admitted_term.value))
            state = self._sender_state(sender, self.node.now)
            if not state.queue:
                self._active.append(sender)
            state.queue.append(pending)
            self._arrivals.append(pending)
            self._backlog += 1
            self.stats.spill_replayed += 1
        self.stats.backlog = self._backlog
        if self._backlog > self.stats.backlog_peak:
            self.stats.backlog_peak = self._backlog
        if not self._spill_backlog:
            # Fully drained: release the file (a fresh one is created on
            # the next overload episode) so a long run neither grows the
            # file without bound nor leaks the descriptor.  The named
            # (durable) spill is truncated first — every record was
            # redelivered, so leaving them would make the *next* gateway
            # recover a backlog that no longer exists.
            if self._spill_path is not None:
                file.truncate(0)
                file.flush()
                os.fsync(file.fileno())
            file.close()
            self._spill_file = None
            self._spill_read = self._spill_write = 0

    # -- the pump -------------------------------------------------------------

    def _schedule_pump(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        if self.config.drain_interval == 0:
            self.node.clock.soon(self._pump)
        else:
            self.node.clock.after(self.config.drain_interval, self._pump)

    def _effective_batch(self) -> int:
        if self.config.pump_batch is not None:
            return self.config.pump_batch
        if self.node.inbox_batch is not None:
            return self.node.inbox_batch
        return max(1, self._backlog + self._spill_backlog)

    def _pump(self) -> None:
        """One weighted-fair service round (deficit round robin).

        Each backlogged sender in rotation earns its weight in credit and
        dequeues one event per credit point, until the round's budget is
        spent.  Heavier senders drain faster; nobody starves — every
        rotation visits every backlogged sender.
        """
        self._pump_scheduled = False
        self.stats.pump_rounds += 1
        budget = self._effective_batch()
        weights = self.config.weights or {}
        active = self._active
        while budget > 0 and active:
            sender = active[0]
            state = self._senders.get(sender)
            if state is None or not state.queue:
                active.popleft()
                continue
            state.credit += weights.get(sender, 1.0)
            while budget > 0 and state.queue and state.credit >= 1.0:
                pending = state.queue.popleft()
                if pending.state != _QUEUED:
                    continue  # tombstone of a drop-oldest eviction
                state.credit -= 1.0
                budget -= 1
                self._backlog -= 1
                self._deliver(pending)
            if state.queue:
                active.rotate(-1)  # next sender's turn
            else:
                state.credit = 0.0  # classic DRR: empty queue resets deficit
                active.popleft()
        # Trim delivered/dropped tombstones so the global FIFO stays O(backlog).
        arrivals = self._arrivals
        while arrivals and arrivals[0].state != _QUEUED:
            arrivals.popleft()
        if not self._backlog and self._spill_backlog:
            self._replay_spill(self._effective_batch())
        self.stats.backlog = self._backlog
        if self._backlog or self._spill_backlog:
            self._schedule_pump()

    def _deliver(self, pending: _Pending) -> None:
        pending.state = _DELIVERED
        event = self.node.stamp_event(pending.term, source=pending.sender,
                                      sent_at=pending.sent_at)
        # Register before deliver, so the latency hook always finds the
        # entry when the inbox drain fires the event.
        self._inflight[event.id] = pending.admitted_at
        self.stats.delivered += 1
        self.node.deliver(event)

    # -- latency accounting ---------------------------------------------------

    def _record_fire(self, event) -> None:
        admitted_at = self._inflight.pop(event.id, None)
        if admitted_at is None:
            return  # an event that did not come through this gateway
        self.stats.fired += 1
        self.stats.latency.record(self.node.now - admitted_at)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the spill file (safe to call twice; GC also gets it)."""
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None

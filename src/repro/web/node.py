"""Web nodes: sites that hold resources and process rules locally.

Thesis 2: reactive rules are processed *locally* at each Web site — each
node owns its rule base and decides which rules fire; global behaviour
emerges from event messages between nodes (choreography), never from a
central coordinator.  A :class:`WebNode` therefore bundles:

- a :class:`~repro.web.resources.ResourceStore` of persistent documents,
- an inbox for event messages (SOAP envelopes), dispatched to locally
  registered handlers (the rule engine attaches here),
- helpers to query local and remote resources (GET) and to push events to
  other nodes (the reactive counterpart of POST).

The ECA rule engine lives in :mod:`repro.core.engine` and attaches to a
node via :meth:`WebNode.on_event`; this module has no dependency on it.

Delivery model
--------------

Events are delivered through a per-node FIFO inbox, *not* on the sender's
stack.  :meth:`WebNode.receive` and :meth:`WebNode.raise_local` stamp the
event at the arrival instant, append it to the inbox, and schedule a
single *drain* callback at the current simulated instant; the drain pops
queued events in arrival order and runs every registered handler on each.
Consequences:

- a slow rule on one node can no longer stall the sender (or the whole
  network) mid-``raise``: the sender's action completes, and the
  receiver's handlers run when the scheduler reaches the drain;
- same-instant events on one node are processed strictly in arrival
  order, and simulated timestamps are identical to inline dispatch (the
  drain runs at the enqueue instant), so runs remain deterministic;
- events raised from inside a handler are processed *after* the current
  event's handlers finish (breadth-first), not recursively inside them;
- work outside the scheduler (installing rules, reading stats) observes
  events only after the next :meth:`Simulation.run` / ``run_until``.

``inbox_batch`` bounds how many events one drain processes (the remainder
is re-scheduled at the same instant — fairness between same-instant
callbacks, never a delay), and ``inbox_depth`` / ``inbox_peak`` expose
queue depth for backpressure accounting.  ``sync_delivery=True`` restores
the old inline dispatch; the engine keeps it available as the
:class:`~repro.core.engine.EngineConfig` ablation for experiment E14.

On a *sharded* node (``EngineConfig(shards=N)``) this inbox is the first
of two queue layers: the node's registered handler is a
:class:`~repro.sharding.ShardRouter`, which fans each drained event out
to per-shard FIFO inboxes and merge-drains those in global arrival order.
The node-level contract above is unchanged — arrival stamping, FIFO
order, and backpressure accounting happen here; the router only adds the
partitioning.  (Sharding requires this queued model:
``EngineConfig(sync_delivery=True, shards>1)`` is rejected at
construction.)
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import ResourceNotFound, WebError
from repro.events.model import Event, make_event
from repro.terms.ast import Data
from repro.web import http
from repro.web.http import Request, Response
from repro.web.network import Message, Network, authority
from repro.web.resources import ResourceStore
from repro.web.scheduler import Scheduler
from repro.web.soap import Envelope

_UNSET = object()  # configure_delivery: "parameter omitted" (None is a value)


class WebNode:
    """One Web site in the simulation."""

    def __init__(self, uri: str, network: Network, *,
                 sync_delivery: bool = False,
                 inbox_batch: int | None = None) -> None:
        self.uri = authority(uri)
        self.network = network
        self.resources = ResourceStore()
        self._event_handlers: list[Callable[[Event], None]] = []
        self._get_guard: Callable[[str, str], None] | None = None
        self.events_received = 0
        self.events_sent = 0
        self._inbox: deque[Event] = deque()
        self._drain_scheduled = False
        self.inbox_peak = 0
        self.inbox_drains = 0
        self.configure_delivery(sync_delivery=sync_delivery,
                                inbox_batch=inbox_batch)
        network.register(self)

    @property
    def clock(self) -> Scheduler:
        return self.network.scheduler

    @property
    def now(self) -> float:
        return self.network.scheduler.now

    # -- handlers ---------------------------------------------------------------

    def on_event(self, handler: Callable[[Event], None]) -> None:
        """Register an inbox handler (the rule engine's entry point)."""
        self._event_handlers.append(handler)

    def guard_gets(self, guard: Callable[[str, str], None]) -> None:
        """Install an access guard for GETs: ``guard(uri, requester)``
        raises to deny (used by the AAA layer, Thesis 12)."""
        self._get_guard = guard

    # -- messaging ----------------------------------------------------------------

    def configure_delivery(self, *, sync_delivery: bool | None = None,
                           inbox_batch: "int | None | object" = _UNSET) -> None:
        """Tune event delivery: inline dispatch and/or per-drain batch size.

        Omitted parameters are left unchanged.  ``sync_delivery=True``
        dispatches events on the sender's stack (the pre-inbox behaviour,
        kept as an ablation); ``inbox_batch`` caps how many queued events
        one drain processes before yielding back to the scheduler
        (``None`` = drain the whole backlog)."""
        if sync_delivery is not None:
            self.sync_delivery = sync_delivery
        if inbox_batch is not _UNSET:
            if inbox_batch is not None and inbox_batch < 1:
                raise WebError(f"inbox_batch must be >= 1, got {inbox_batch}")
            self.inbox_batch = inbox_batch

    @property
    def inbox_depth(self) -> int:
        """Events queued but not yet dispatched (backpressure signal)."""
        return len(self._inbox)

    def receive(self, message: Message) -> None:
        """Network delivery callback: unwrap the envelope, enqueue the event."""
        if message.kind != "event":
            raise WebError(f"unexpected message kind {message.kind!r} in inbox")
        envelope = Envelope.from_term(message.payload)
        self.deliver(self.stamp_event(
            envelope.body,
            source=envelope.sender or message.src,
            sent_at=envelope.sent_at,
        ))

    def stamp_event(self, term: Data, *, source: str = "",
                    sent_at: "float | None" = None) -> Event:
        """Stamp *term* as an event arriving at this node *now*.

        The first half of the delivery seam the ingestion tier's admission
        controller builds on (:mod:`repro.ingest`): stamping and enqueueing
        are separate steps so a gateway can note the event's identity (for
        enqueue-to-fire latency accounting) before :meth:`deliver` hands it
        to the inbox.  ``sent_at`` is the sender's clock reading;
        `is not None`, not truthiness: an event sent at t=0.0 still
        occurred when it was sent, not when it arrived.
        """
        return make_event(
            term,
            self.now,
            source=source or self.uri,
            occurrence=(min(sent_at, self.now)
                        if sent_at is not None else self.now),
        )

    def deliver(self, event: Event) -> None:
        """Enqueue an already-stamped event (second half of the seam)."""
        self._deliver(event)

    def raise_event(self, to: str, term: Data) -> None:
        """Push an event message to another node (or to this node itself)."""
        envelope = Envelope(term, sender=self.uri, sent_at=self.now,
                            message_id=self.network.next_message_id())
        self.events_sent += 1
        self.network.send(self.uri, to, envelope.to_term(), "event")

    def raise_local(self, term: Data) -> None:
        """Enqueue an event for local handlers without network traffic.

        Used for events that originate at this node (resource changes,
        internal service-request events for accounting)."""
        self._deliver(make_event(term, self.now, source=self.uri))

    def _deliver(self, event: Event) -> None:
        self.events_received += 1
        # Inline dispatch never jumps a backlog: if queued events are still
        # waiting (delivery was switched to sync mid-run), this event lines
        # up behind them so arrival order survives the mode switch.
        if self.sync_delivery and not self._inbox:
            self._handle(event)
            return
        self._inbox.append(event)
        if len(self._inbox) > self.inbox_peak:
            self.inbox_peak = len(self._inbox)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.clock.soon(self._drain)

    def _drain(self) -> None:
        # Clear the flag first: handlers may enqueue further events, which
        # then schedule their own same-instant drain rather than being lost.
        self._drain_scheduled = False
        self.inbox_drains += 1
        budget = self.inbox_batch if self.inbox_batch is not None else len(self._inbox)
        try:
            while budget > 0 and self._inbox:
                budget -= 1
                self._handle(self._inbox.popleft())
        finally:
            # Re-schedule on the batch limit AND on a handler exception:
            # a failing rule must not strand the rest of the backlog.
            if self._inbox and not self._drain_scheduled:
                self._drain_scheduled = True
                self.clock.soon(self._drain)

    def _handle(self, event: Event) -> None:
        for handler in list(self._event_handlers):
            handler(event)

    # -- resource access ---------------------------------------------------------

    def serve_get(self, uri: str, requester: str) -> Data:
        """Serve a GET from another node (access-guarded)."""
        if self._get_guard is not None:
            self._get_guard(uri, requester)
        return self.resources.get(uri)

    def get(self, uri: str) -> Data:
        """Read a resource: local directly, remote over the network."""
        if authority(uri) == self.uri:
            return self.resources.get(uri)
        return self.network.fetch(self.uri, uri)

    def put(self, uri: str, root: Data) -> None:
        """Write a local resource (remote writes go through events)."""
        if authority(uri) != self.uri:
            raise WebError(
                f"{self.uri} cannot write {uri} directly; "
                "remote updates are requested via events (Thesis 2)"
            )
        self.resources.put(uri, root)

    def delete(self, uri: str) -> None:
        """Delete a local resource (remote deletes go through events)."""
        if authority(uri) != self.uri:
            raise WebError(
                f"{self.uri} cannot delete {uri} directly; "
                "remote updates are requested via events (Thesis 2)"
            )
        self.resources.delete(uri)

    def post(self, uri: str, body: Data) -> None:
        """POST *body* to the resource's owning node, as an event message.

        Thesis 1's reading of POST — "send data to a resource" — is
        exactly the reactive push: the body travels as an event envelope
        to the node owning *uri* and lands in its inbox like any other
        event (rules there decide what the data means for the resource).
        """
        self.raise_event(authority(uri), body)

    def handle_request(self, request: Request) -> Response:
        """Serve one simulated HTTP request against this node.

        The full method set of :class:`repro.web.http.Request`, mapped
        onto the node's primitives — the entry point the ingestion tier
        and examples use to exercise GET/POST/PUT/DELETE end to end:

        - ``GET`` reads the resource (access-guarded like
          :meth:`serve_get`); 404 when absent;
        - ``PUT`` creates (201) or replaces (204) the resource;
        - ``DELETE`` removes it (204); 404 when absent;
        - ``POST`` enqueues the body as a local event (204; 400 without a
          body — there is nothing to deliver).

        PUT/DELETE against a URI this node does not own are refused with
        403: remote updates travel as events (Thesis 2), never as direct
        writes.
        """
        if request.method == "GET":
            try:
                return Response(http.OK, self.serve_get(request.uri, self.uri))
            except ResourceNotFound:
                return Response(http.NOT_FOUND)
        if request.method == "POST":
            if request.body is None:
                return Response(http.BAD_REQUEST)
            self.deliver(self.stamp_event(request.body))
            return Response(http.NO_CONTENT)
        if authority(request.uri) != self.uri:
            return Response(http.FORBIDDEN)
        if request.method == "PUT":
            if request.body is None:
                return Response(http.BAD_REQUEST)
            created = request.uri not in self.resources
            self.resources.put(request.uri, request.body)
            return Response(http.CREATED if created else http.NO_CONTENT)
        # DELETE (Request.__post_init__ admits no other method)
        try:
            self.resources.delete(request.uri)
        except ResourceNotFound:
            return Response(http.NOT_FOUND)
        return Response(http.NO_CONTENT)


class Simulation:
    """Facade bundling a scheduler and a network; entry point of the library.

    >>> sim = Simulation()
    >>> shop = sim.node("http://shop.example")
    >>> customer = sim.node("http://customer.example")
    >>> customer_uri = customer.uri
    """

    def __init__(self, latency: float = 0.05, broker: str | None = None) -> None:
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, latency=latency, broker=broker)

    @property
    def now(self) -> float:
        return self.scheduler.now

    def node(self, uri: str) -> WebNode:
        """Create and register a node for the given URI authority."""
        return WebNode(uri, self.network)

    def reactive_node(self, uri: str, config=None):
        """Create a node with an attached rule engine, behind one facade.

        *config* is an optional :class:`~repro.core.engine.EngineConfig`.
        Returns a :class:`~repro.api.ReactiveNode`; the bare parts remain
        available as its ``node`` and ``engine`` attributes.
        """
        from repro.api import ReactiveNode  # deferred: keeps this module engine-free

        return ReactiveNode(self.node(uri), config)

    def run_until(self, end: float) -> None:
        self.scheduler.run_until(end)

    def run(self, max_callbacks: int = 1_000_000) -> None:
        self.scheduler.run(max_callbacks)

    @property
    def stats(self):
        return self.network.stats

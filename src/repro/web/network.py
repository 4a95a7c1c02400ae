"""Point-to-point message delivery with traffic accounting (Thesis 3).

Events are exchanged *directly* between Web sites in a push manner — no
central servers or super-peers.  The optional ``broker`` parameter models
the centralised architecture the paper argues against (every message is
relayed through one node), used by experiment E2 to measure the difference.

All traffic is accounted: message counts and payload bytes, per sender and
per receiver, so benchmarks can report exactly what the theses predict.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from urllib.parse import urlparse

from repro.errors import NodeNotFound, WebError
from repro.terms.ast import Data
from repro.terms.parser import to_text
from repro.web.scheduler import Scheduler


def authority(uri: str) -> str:
    """The scheme+authority part of a URI, identifying the owning node."""
    parsed = urlparse(uri)
    if not parsed.scheme or not parsed.netloc:
        raise WebError(f"not an absolute URI: {uri!r}")
    return f"{parsed.scheme}://{parsed.netloc}"


@dataclass(frozen=True)
class Message:
    """One network message: a term payload between two nodes."""

    src: str
    dst: str
    payload: Data
    kind: str = "event"  # event | request | response
    size: int = 0

    @staticmethod
    def of(src: str, dst: str, payload: Data, kind: str = "event") -> "Message":
        return Message(src, dst, payload, kind, len(to_text(payload)))


@dataclass
class TrafficStats:
    """Counters the push-vs-poll and choreography experiments report.

    ``rtt_charged`` accounts the simulated request/response latency of
    synchronous GETs (two latencies per fetch) — surfaced here (and thus
    via ``Simulation.stats``) instead of living as an ad-hoc attribute on
    the network.  Mutation is serialised by an internal lock: actions
    normally run on the scheduler thread, but the traffic ledger is
    shared by every node and layer, so it keeps its own counters coherent.
    """

    messages: int = 0
    bytes: int = 0
    rtt_charged: float = 0.0
    sent_by: dict = field(default_factory=dict)
    received_by: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, message: Message) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += message.size
            self.sent_by[message.src] = self.sent_by.get(message.src, 0) + 1
            self.received_by[message.dst] = \
                self.received_by.get(message.dst, 0) + 1

    def charge_rtt(self, latency: float) -> None:
        """Account one request/response round trip of simulated latency."""
        with self._lock:
            self.rtt_charged += 2 * latency

    def hotspot(self) -> tuple[str, int]:
        """The busiest node (by messages handled) — the E2 bottleneck metric."""
        load: dict[str, int] = {}
        for uri, count in self.sent_by.items():
            load[uri] = load.get(uri, 0) + count
        for uri, count in self.received_by.items():
            load[uri] = load.get(uri, 0) + count
        if not load:
            return ("", 0)
        uri = max(load, key=lambda u: (load[u], u))
        return (uri, load[uri])


class Network:
    """Delivers messages between registered nodes on the scheduler.

    Parameters
    ----------
    scheduler:
        The simulation clock.
    latency:
        One-way delivery latency in simulated seconds.
    broker:
        If set (a node URI), *all* event messages between distinct other
        nodes are relayed through this node: two hops, double latency, and
        the broker appears in the traffic stats of every exchange.
    """

    def __init__(self, scheduler: Scheduler, latency: float = 0.05,
                 broker: str | None = None) -> None:
        self.scheduler = scheduler
        self.latency = latency
        self.broker = broker
        self.stats = TrafficStats()
        self._nodes: dict[str, "object"] = {}
        # Per-simulation SOAP message ids: every envelope a node of this
        # network sends draws from here, so ids are dense and start at 1
        # for each fresh Simulation instead of leaking a process-global
        # count across instances (see repro.web.soap).
        self._message_ids = itertools.count(1)

    def next_message_id(self) -> int:
        """Allocate the next envelope message id of this simulation."""
        return next(self._message_ids)

    def register(self, node) -> None:
        """Attach a node; it becomes addressable by its URI authority."""
        key = authority(node.uri)
        if key in self._nodes:
            raise WebError(f"a node is already registered for {key}")
        self._nodes[key] = node

    def node_for(self, uri: str):
        """The node owning *uri* (by authority)."""
        node = self._nodes.get(authority(uri))
        if node is None:
            raise NodeNotFound(uri)
        return node

    def nodes(self) -> list:
        return list(self._nodes.values())

    def inbox_backlog(self) -> int:
        """Events queued across all registered nodes' inboxes but not yet
        dispatched — the network-wide backpressure signal (0 when every
        drain has caught up)."""
        return sum(node.inbox_depth for node in self._nodes.values())

    # -- delivery ---------------------------------------------------------------

    def send(self, src: str, dst: str, payload: Data, kind: str = "event") -> None:
        """Send a message; delivery is scheduled after the latency."""
        if (
            self.broker is not None
            and kind == "event"
            and authority(src) != authority(self.broker)
            and authority(dst) != authority(self.broker)
        ):
            self._hop(src, self.broker, payload, kind,
                      lambda: self._hop(self.broker, dst, payload, kind, None))
            return
        self._hop(src, dst, payload, kind, None)

    def _hop(self, src: str, dst: str, payload: Data, kind: str,
             then) -> None:
        message = Message.of(src, dst, payload, kind)
        self.stats.record(message)
        target = self.node_for(dst)

        def deliver() -> None:
            target.receive(message)
            if then is not None:
                then()

        self.scheduler.after(self.latency, deliver)

    # -- synchronous request/response (documented simplification) ---------------

    def fetch(self, src: str, uri: str) -> Data:
        """Synchronous GET of a remote resource.

        Executes immediately in Python but is *accounted* as a request and a
        response message, and charges two latencies of simulated time to the
        pending reaction (see DESIGN.md).  Raises ``ResourceNotFound``
        through the remote node.
        """
        target = self.node_for(uri)
        content = target.serve_get(uri, requester=src)
        request = Message.of(src, uri, Data("get", (uri,)), "request")
        response = Message.of(uri, src, content, "response")
        self.stats.record(request)
        self.stats.record(response)
        self.charge_rtt()
        return content

    def charge_rtt(self) -> None:
        """Account one request/response round trip of simulated latency."""
        self.stats.charge_rtt(self.latency)

    @property
    def rtt_charged(self) -> float:
        """Total simulated round-trip latency charged (mirrors
        ``stats.rtt_charged``; kept for callers of the old attribute)."""
        return self.stats.rtt_charged

"""Discrete-event simulation scheduler.

Every clock in the library reads from a :class:`Scheduler`: event
timestamps, message latencies, polling intervals, and absence deadlines.
Callbacks scheduled for the same instant run in scheduling order, which
makes whole-system runs fully deterministic and reproducible — a
prerequisite for the benchmark harness.

Two layers lean on the same-instant FIFO guarantee of :meth:`Scheduler.soon`:
node inbox drains (queued delivery processes a backlog at the enqueue
instant, so timestamps never shift) and the shard router's merge drains
(:mod:`repro.sharding`), whose re-yields between fairness batches must
land *after* everything already queued for the instant — that ordering is
what keeps batched sharded runs identical to unbatched ones.

The scheduler itself is **single-threaded by contract**: everything that
touches the clock — firing, wake-up registration, message delivery —
happens on the one thread driving the simulation.  :meth:`Scheduler.at`
enforces the contract (it raises when called from a foreign thread) so
an application that feeds a node from its own threads gets a loud error
instead of a heap race.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Callable

from repro.errors import WebError


class Scheduler:
    """A priority-queue event loop over simulated time."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.executed = 0
        # The thread that owns this clock: bound lazily at the first
        # schedule and re-bound to whichever thread drives
        # run()/run_until() — so serial construct-here-drive-there use
        # stays legal, while a second thread scheduling *during* a run
        # (the heap race this guard exists for) is caught.
        self._owner: "int | None" = None

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* at absolute simulated time *time*."""
        ident = threading.get_ident()
        if self._owner is None:
            self._owner = ident
        elif ident != self._owner:
            raise WebError(
                "scheduler is single-threaded: schedule from the owning "
                "(simulation) thread"
            )
        if time < self.now:
            raise WebError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._queue, (time, next(self._sequence), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* after *delay* simulated seconds."""
        if delay < 0:
            raise WebError(f"negative delay: {delay}")
        self.at(self.now + delay, callback)

    def soon(self, callback: Callable[[], None]) -> None:
        """Schedule *callback* at the current instant, after everything
        already queued for this instant (used for inbox drains: time never
        advances, but control returns to the scheduler first)."""
        self.at(self.now, callback)

    def every(self, interval: float, callback: Callable[[], None],
              until: float | None = None) -> None:
        """Schedule *callback* periodically (first call after one interval)."""
        if interval <= 0:
            raise WebError(f"interval must be positive: {interval}")

        def tick() -> None:
            if until is not None and self.now > until:
                return
            callback()
            self.after(interval, tick)

        self.after(interval, tick)

    def recur(self, interval: float, callback: Callable[[], bool]) -> None:
        """Schedule *callback* periodically while it returns truthy.

        Unlike :meth:`every` (which reschedules unconditionally until an
        absolute ``until`` instant), a recurring task stops itself: the
        first tick whose callback returns falsy is the last, so a
        housekeeping timer — the ingestion tier's token-bucket expiry
        sweep is the canonical user — cannot keep :meth:`run` alive
        forever once the state it maintains is gone.  Re-arm by calling
        :meth:`recur` again when there is new state to maintain.
        """
        if interval <= 0:
            raise WebError(f"interval must be positive: {interval}")

        def tick() -> None:
            if callback():
                self.after(interval, tick)

        self.after(interval, tick)

    def pending(self) -> int:
        """Number of callbacks still queued."""
        return len(self._queue)

    def run_until(self, end: float) -> None:
        """Run all callbacks scheduled up to and including time *end*."""
        self._owner = threading.get_ident()  # the driving thread owns the clock
        while self._queue and self._queue[0][0] <= end:
            time, _, callback = heapq.heappop(self._queue)
            self.now = time
            self.executed += 1
            callback()
        self.now = max(self.now, end)

    def run(self, max_callbacks: int = 1_000_000) -> None:
        """Run until the queue drains (bounded against runaway loops)."""
        self._owner = threading.get_ident()  # the driving thread owns the clock
        remaining = max_callbacks
        while self._queue:
            if remaining <= 0:
                raise WebError(f"simulation exceeded {max_callbacks} callbacks")
            time, _, callback = heapq.heappop(self._queue)
            self.now = time
            self.executed += 1
            remaining -= 1
            callback()

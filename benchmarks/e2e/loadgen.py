"""The load-generator side of E23: the server process handle and the sender.

The generator is its own process (the one that runs ``run.py``), single
threaded, and talks to the server over :data:`~workloads.CONNECTIONS`
TCP connections.  It is a ``select`` loop rather than asyncio: it sleeps
with microsecond timeouts until shortly before a frame is due and polls
from there, so the open-loop schedule is kept to well under a tenth of a
millisecond, and how late each frame was written is reported, so a number
never silently measures the generator instead of the program.

- **burst** (closed by TCP backpressure): every frame is due at once;
  the sockets take them as fast as the server reads.
- **paced** (open loop): frame *i* is due at ``start + i / rate`` whatever
  the server does; latency is later timed from the *due* time.

Every frame is answered with one ack byte (``+`` admitted); the k-th ack
on a connection belongs to the k-th frame written on it.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.ingest import wire

from workloads import CONNECTIONS, Workload, connection_of

SPIN_S = 0.0003  # poll, rather than sleep, this close to the next due time

DRIVER = str(Path(__file__).resolve().with_name("driver.py"))


class PhaseTimeout(Exception):
    """A phase overran its hard deadline (a hang, not a slow run)."""


class ServerProcess:
    """The server process, spoken to in JSON lines; always reaped."""

    def __init__(self, workload: Workload, store_dir: str, builds: int,
                 core: "int | None", smoke: bool) -> None:
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._proc = subprocess.Popen(
            [sys.executable, DRIVER, workload.name, store_dir, str(builds),
             "-" if core is None else str(core),
             "smoke" if smoke else "full"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self._buffer = bytearray()

    def read(self, timeout: float) -> dict:
        """The server's next JSON line, or :class:`PhaseTimeout`."""
        deadline = time.monotonic() + timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise PhaseTimeout(f"server silent for {timeout:.0f} s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise PhaseTimeout("server process ended unexpectedly")
            self._buffer.extend(chunk)
        line, _, rest = bytes(self._buffer).partition(b"\n")
        self._buffer[:] = rest
        return json.loads(line)

    def request(self, command: dict, timeout: float) -> dict:
        self._proc.stdin.write(json.dumps(command).encode() + b"\n")
        self._proc.stdin.flush()
        return self.read(timeout)

    def close(self) -> None:
        """Stop the process and wait for it (idempotent)."""
        proc = self._proc
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        if proc.poll() is None:
            try:
                proc.wait(timeout=5.0)  # stdin EOF ends a healthy server
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()


def encode(events, base: float, rate: float):
    """Frame ``[(seq, sender, term)]``; ``sent-at`` is the logical due
    time.  Returns ``(frames, connection per frame, µs per encode)``."""
    started = time.perf_counter()
    frames = [wire.encode_event(term, sender=sender,
                                sent_at=base + k / rate, message_id=seq)
              for k, (seq, sender, term) in enumerate(events)]
    per_event_us = (time.perf_counter() - started) / max(1, len(events)) * 1e6
    return frames, [connection_of(sender) for _, sender, _ in events], per_event_us


class Sent:
    """What one phase's sending observed (all times ``time.monotonic()``)."""

    def __init__(self, n: int) -> None:
        self.start = 0.0            # burst: first byte; paced: schedule origin
        self.written = [0.0] * n    # frame fully handed to the kernel
        self.acked = [0.0] * n      # its ack byte read
        self.acks = bytearray(n)    # the ack bytes, by frame
        self.late: "list[float]" = []  # paced: written - due, per frame
        self.out_of_order = 0       # frames queued behind a higher seq


def send(address, frames, connections, seqs, *, rate: "float | None",
         timeout: float) -> Sent:
    """Write *frames* (burst when ``rate`` is None, else paced at *rate*)
    and collect every ack; raises :class:`PhaseTimeout` on a hang."""
    n = len(frames)
    sent = Sent(n)
    socks = []
    try:
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            socks.append(sock)
        _send(socks, frames, connections, seqs, rate, timeout, sent)
    finally:
        for sock in socks:
            sock.close()
    return sent


def _send(socks, frames, connections, seqs, rate, timeout, sent) -> None:
    n = len(frames)
    fds = {sock.fileno(): c for c, sock in enumerate(socks)}
    pending = [bytearray() for _ in socks]          # bytes not yet written
    inflight = [[] for _ in socks]                  # frames inside `pending`
    order = [[] for _ in socks]                     # frames by write order
    acks_seen = [0] * len(socks)
    last_seq = [-1] * len(socks)
    queued = acked = 0
    clock = time.monotonic
    deadline = clock() + timeout
    sent.start = start = clock() + (0.05 if rate is not None else 0.0)
    interval = 1.0 / rate if rate is not None else 0.0
    while acked < n:
        now = clock()
        if now > deadline:
            raise PhaseTimeout(f"{n - acked} of {n} frames unacked after "
                               f"{timeout:.0f} s")
        # Queue what is due (burst: 256 frames a round, so acks are read
        # between writes and neither side's buffers fill up).
        budget = 256
        while queued < n and budget and now >= start + queued * interval:
            c = connections[queued]
            if seqs[queued] < last_seq[c]:
                sent.out_of_order += 1
            last_seq[c] = seqs[queued]
            pending[c].extend(frames[queued])
            inflight[c].append(queued)
            order[c].append(queued)
            queued += 1
            budget -= 1
        for c, sock in enumerate(socks):
            if not pending[c]:
                continue
            try:
                wrote = sock.send(pending[c])
            except BlockingIOError:
                continue
            del pending[c][:wrote]
            if not pending[c]:  # whole frames only leave together
                stamp = clock()
                for i in inflight[c]:
                    sent.written[i] = stamp
                    if rate is not None:
                        sent.late.append(stamp - (start + i * interval))
                inflight[c].clear()
        blocked = [sock for c, sock in enumerate(socks) if pending[c]]
        # Sleep only until SPIN_S before the next frame is due, then poll:
        # an idle (virtual) core takes 0.1 ms and more to wake, which would
        # be charged to the program as reaction time — while a generator
        # that polls all the time keeps both cores busy, and the host then
        # throttles the server's.
        if queued < n and not blocked:
            wait = max(0.0, start + queued * interval - clock() - SPIN_S)
        else:
            wait = min(0.5, max(0.0, deadline - clock()))
        readable, _, _ = select.select(socks, blocked, [], wait)
        for sock in readable:
            c = fds[sock.fileno()]
            try:
                data = sock.recv(65536)
            except BlockingIOError:
                continue
            if not data:
                raise PhaseTimeout("server closed a connection mid-phase")
            stamp = clock()
            for byte in data:
                i = order[c][acks_seen[c]]
                acks_seen[c] += 1
                sent.acks[i] = byte
                sent.acked[i] = stamp
            acked += len(data)

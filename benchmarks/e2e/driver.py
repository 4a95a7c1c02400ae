"""The server side of E23: effect observers, the serve loop, the process.

The repo has an asyncio socket front door (``AsyncIngestServer``) and a
simulated-time scheduler, but no loop that runs the two together.  This
module supplies the minimal one a deployment would write, and nothing
else: the program under test is used through its public API only.

**Logical clock.**  The node's clock is ``base + frames_seen / rate``:
it advances with the frames the gateway has seen, never with wall time.
Windows, deadlines and therefore the windowed work per event are then
the same on a fast and on a slow machine, on the parent commit and on a
change.

**Completion signal.**  An event's reaction is complete when its
*effect* is observable: a transactional ``store.watch`` watcher (runs
after the commit is persisted — for the WAL backend, after the fsync) or
the sink node's ``on_event`` for ``RAISE``d events.  Both stamp
``time.monotonic()``, which on Linux is system-wide and so comparable
with the generator process's due times.

Run as a script this is the **server process**: one thread, one node,
driven over stdin/stdout with one JSON object per line (see
:func:`serve`).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # started as a script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.ingest.transport import AsyncIngestServer

from workloads import Workload, catalog


SETUP_BUDGET_S = 1.5
MAX_BUILDS = 9


def seq_of(term) -> int:
    """The completing event's ``seq`` copied into an effect (-1: none).

    A conjunction copies the ``seq`` of both members; the later one
    completed it.
    """
    if term is None:
        return -1
    return max((sub.value for sub in term.subterms() if sub.label == "seq"),
               default=-1)


class Effects:
    """Every observable effect of one node: ``(seq, label, monotonic)``."""

    def __init__(self, node, sink) -> None:
        self.rows: "list[tuple[int, str, float]]" = []
        node.store.watch(self._stored)
        sink.on_event(self._raised)

    def _stored(self, uri, old, new, version) -> None:
        self.rows.append((seq_of(new), new.label if new is not None else "",
                          time.monotonic()))

    def _raised(self, event) -> None:
        self.rows.append((seq_of(event.term), event.term.label,
                          time.monotonic()))


class LogicalClock:
    """``base + (frames seen since the phase began) / rate``."""

    def __init__(self, gateway, rate: float) -> None:
        self._stats = gateway.stats
        self.rate = rate
        self.base = 0.0
        self._seen0 = 0

    def seen(self) -> int:
        stats = self._stats  # every offered frame lands in exactly one
        return (stats.admitted + stats.rejected + stats.rate_limited
                + stats.spilled + stats.malformed)

    def restart(self, base: float) -> None:
        self.base = base
        self._seen0 = self.seen()

    def now(self) -> float:
        return self.base + (self.seen() - self._seen0) / self.rate


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``).  Not ``ru_maxrss``:
    that starts from the *parent's* size at fork, so it would report the
    load generator's heap whenever that is the larger one."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def counters(node) -> dict:
    """The count-valued stats the ledger reads, from the stats tree only
    (``stats.engine`` / ``.shards`` / ``.ingest``)."""
    stats = node.stats
    engine, ingest = stats.engine, stats.ingest
    out = {name: getattr(engine, name) for name in (
        "events_processed", "rule_firings", "candidates_considered",
        "index_probes", "matcher_calls", "firings_suppressed",
        "firings_deduped", "wakeups", "evaluator_advances", "inbox_peak")}
    out.update({name: getattr(ingest, name) for name in (
        "admitted", "rejected", "malformed", "delivered", "fired",
        "pump_rounds", "backlog_peak")})
    out["shard_events"] = [shard.events_processed for shard in stats.shards]
    return out


class Server:
    """One served node: build, serve loop, control commands."""

    def __init__(self, workload: Workload, store_dir: str) -> None:
        self.workload = workload
        self.store_dir = store_dir
        self.setup_s: "list[float]" = []
        self.frames = 0  # frames the current phase will carry
        self.serving = False

    async def build(self, builds: int) -> int:
        """Build at least *builds* times — and, when a build is quick,
        until :data:`SETUP_BUDGET_S` is spent or :data:`MAX_BUILDS` are
        done, so a 50 ms set-up is a median of nine, not of three.  Each
        build is timed until the socket accepts and starts from a
        collected heap; the last one is kept.  Returns the bound port."""
        sink = None
        while len(self.setup_s) < builds or (
                builds > 1 and len(self.setup_s) < MAX_BUILDS
                and sum(self.setup_s) < SETUP_BUDGET_S):
            if self.setup_s:
                await self.transport.stop()
                self.node.close()
                self.sim = self.node = self.transport = sink = None
            gc.collect()
            path = os.path.join(self.store_dir, f"build{len(self.setup_s)}")
            started = time.monotonic()
            self.sim, self.node, sink = self.workload.build(
                self.workload.config(path))
            self.transport = AsyncIngestServer(self.node.ingest)
            _, port = await self.transport.start()
            self.setup_s.append(time.monotonic() - started)
        self.store_path = path
        self.effects = Effects(self.node, sink)
        self.clock = LogicalClock(self.node.ingest, self.workload.rate)
        return port

    async def pump(self) -> None:
        """The serve loop: whenever the gateway saw frames or holds a
        backlog, run the scheduler up to the logical clock; else yield."""
        gateway, sim, clock = self.node.ingest, self.sim, self.clock
        seen = clock.seen()
        while True:
            if not self.serving:
                await asyncio.sleep(0.001)
                continue
            now_seen = clock.seen()
            if now_seen != seen or gateway.backlog:
                seen = now_seen
                sim.run_until(max(sim.now, clock.now()))
            await asyncio.sleep(0)

    # -- control commands ---------------------------------------------------

    def phase(self, frames: int) -> dict:
        self.frames = frames
        self.effects.rows.clear()
        self.clock.restart(self.sim.now)
        self.serving = True
        return {"base": self.clock.base}

    def flush(self) -> dict:
        """End of phase: every frame was acked, so every frame was
        offered; run the logical clock past the longest window."""
        self.serving = False
        end = self.clock.base + self.frames / self.clock.rate
        self.sim.run_until(max(self.sim.now, end + self.workload.window))
        return {"done": time.monotonic(), "effects": self.effects.rows,
                "counters": counters(self.node)}

    def finish(self) -> dict:
        """Peak memory; for a durable store also close → reopen (recover)
        → ``deliver_replayed`` → ``checkpoint``, each timed."""
        out = {"rss_peak_mb": peak_rss_mb()}
        if not self.workload.durable:
            return out
        before = {doc.uri: doc.version for doc in self.node.store}
        commits = self.node.store.commits
        self.node.close()
        started = time.monotonic()
        _, node, _ = self.workload.build(
            self.workload.config(self.store_path), install=False)
        heard = []
        node.store.watch(lambda *op: heard.append(op))
        replayed = node.deliver_replayed()
        out["recover_s"] = time.monotonic() - started
        started = time.monotonic()
        node.checkpoint()
        out["checkpoint_ms"] = (time.monotonic() - started) * 1e3
        after = {doc.uri: doc.version for doc in node.store}
        node.close()
        out["recovered"] = (after == before and replayed >= commits
                            and len(heard) >= replayed)
        return out


async def serve(workload: Workload, store_dir: str, builds: int) -> None:
    """The server process's main: answer one JSON command per stdin line.

    ``{"cmd": "phase", "frames": n}`` starts a phase, ``{"cmd": "flush"}``
    ends it and returns its effects, ``{"cmd": "finish"}`` reports memory
    and recovery and ends the process.  EOF on stdin (the parent died)
    ends it too.
    """
    server = Server(workload, store_dir)
    port = await server.build(builds)
    pump = asyncio.ensure_future(server.pump())
    commands: asyncio.Queue = asyncio.Queue()
    loop = asyncio.get_running_loop()
    pending = bytearray()

    def on_stdin() -> None:
        chunk = os.read(0, 65536)
        if not chunk:
            loop.remove_reader(0)
            commands.put_nowait(None)
            return
        pending.extend(chunk)
        while b"\n" in pending:
            line, _, rest = bytes(pending).partition(b"\n")
            pending[:] = rest
            commands.put_nowait(json.loads(line))

    loop.add_reader(0, on_stdin)
    reply({"port": port, "setup_s": server.setup_s})
    try:
        while True:
            command = await commands.get()
            if command is None:
                break
            if command["cmd"] == "phase":
                reply(server.phase(command["frames"]))
            elif command["cmd"] == "flush":
                reply(server.flush())
            elif command["cmd"] == "finish":
                await server.transport.stop()
                reply(server.finish())
                break
    finally:
        pump.cancel()
        await server.transport.stop()
        server.node.close()


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv: "list[str]") -> int:
    name, store_dir, builds, core, smoke = argv
    if core != "-":
        os.sched_setaffinity(0, {int(core)})
    try:
        asyncio.run(serve(catalog(smoke == "smoke")[name], store_dir,
                          int(builds)))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""E23 — one event's whole path, socket bytes to durable reaction.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--smoke] [--out FILE]

One run of one workload is ``setup`` → ``check`` → ``burst`` → ``paced``
(→ traced replay with ``--trace 1``); see README.md for what each phase
and metric means.  Every metric is printed by name with its unit and
sample count, then — as the last line — one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  Without ``--workload`` all four
run and the last line holds one such object per workload.

Exit code 0: measured and correct.  1: an output was wrong, an event
failed, or a phase hung.  3: *unreliable* — the numbers are printed, but
the load generator ran late or out of order, so they measure the
generator rather than the program.

This process is the load generator; the server is a child process
(``driver.py``).  Nothing is written outside a scratch directory under
the current directory (removed on exit) unless ``--out`` names a file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # run as a script without PYTHONPATH=src
    sys.path.insert(0, str(HERE.parents[1] / "src"))

import ledger
import oracle
from loadgen import PhaseTimeout, ServerProcess, encode, send
from workloads import Workload, catalog

RUN_SECONDS = 18          # BENCHMARK.json's run_seconds: sizes are frozen at it
PACED_SHARE = 5 / 9       # of --seconds; the bursts are sized to fill the rest
REPLAY_SECONDS = 4.0      # logical seconds of paced input the ledger replays
BUILDS = 3                # setup_s is the median of this many builds
LATE_LIMIT_MS = 5.0       # generator lateness p99 beyond this: unreliable
LATE_EFFECT_S = 0.25      # node.late_share counts effects later than this
BURSTS = 7                # events_per_s is the median of this many bursts
SEGMENTS = 5              # react_p* are medians over this many paced slices
SCRATCH = ".e23_tmp"      # under the current directory; removed on exit

EXIT_OK, EXIT_FAILED, EXIT_UNRELIABLE = 0, 1, 3

END_TO_END = {
    "setup_s": "s", "events_per_s": "1/s", "react_p50_ms": "ms",
    "react_p90_ms": "ms", "rss_peak_mb": "MB",
}
PER_LAYER = {
    "wire.encode_us": "us", "wire.decode_us": "us", "wire.bytes_per_event": "B",
    "parser.parse_us": "us", "parser.to_text_us": "us",
    "transport.ack_rtt_p50_us": "us", "transport.gen_late_p99_ms": "ms",
    "transport.self_us": "us",
    "admission.offer_us": "us", "admission.backlog_peak": "count",
    "admission.pump_rounds_per_event": "count",
    "node.deliver_us": "us", "node.inbox_peak": "count",
    "node.late_share": "ratio", "node.react_p99_ms": "ms",
    "engine.self_us": "us", "engine.candidates_per_event": "count",
    "engine.index_probes_per_event": "count",
    "engine.matcher_calls_per_event": "count",
    "engine.firings_per_event": "count", "engine.suppressed_per_event": "count",
    "engine.wakeups_per_event": "count", "engine.advances_per_event": "count",
    "engine.install_us": "us", "engine.uninstall_us": "us",
    "matcher.match_us": "us",
    "events.on_event_us": "us", "events.state_peak": "count",
    "events.answers_per_event": "count",
    "store.commit_us": "us", "store.commits_per_event": "count",
    "store.bytes_per_commit": "B", "store.recover_s": "s",
    "store.checkpoint_ms": "ms",
    "sharding.max_shard_share": "ratio", "sharding.deduped_per_event": "count",
    "sharding.repartition_ms": "ms",
    "ledger.total_us": "us", "ledger.residual_share": "ratio",
    "trace.overhead_share": "ratio",
}


def percentile(ordered: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_stamp(seed: int) -> dict:
    """Who measured: interpreter, cores, platform, commit — and a fixed
    pure-Python spin loop, so rows from different machines can be
    normalised later."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    spins = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k * k % 7
        spins.append((time.perf_counter() - started) * 1e3)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "git_sha": sha, "seed": seed, "calib.spin_ms": min(spins),
    }


def pin_cores() -> "tuple[int, int] | None":
    """Generator on the first allowed core, server on the last (sized for
    two): ``(generator core, server core)``, or None with only one."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None
    os.sched_setaffinity(0, {cores[0]})
    return cores[0], cores[-1]


class Sizes:
    """How much one run measures, from ``--seconds`` (frozen constants at
    ``RUN_SECONDS``; other values scale burst and paced alike)."""

    def __init__(self, workload: Workload, seconds: float, trace: bool,
                 smoke: bool) -> None:
        scale = seconds / RUN_SECONDS

        def whole(events: float, periods: int) -> int:
            step = workload.period * periods
            return max(1, round(events / step)) * step if step > 1 \
                else max(100, round(events))

        self.burst = whole(workload.burst_events * scale, 1)
        self.bursts = 1 if smoke else (3 if trace else BURSTS)
        # The traced run is there for the ledger; half the paced phase is
        # enough for its transport and tail numbers.
        paced_seconds = seconds * PACED_SHARE * (0.5 if trace else 1.0)
        self.paced = whole(workload.rate * paced_seconds, SEGMENTS)
        self.replay = min(self.paced, round(
            workload.rate * (0.5 if smoke else REPLAY_SECONDS)))
        self.check = min(workload.check_events, 600) if smoke \
            else workload.check_events
        self.builds = 1 if smoke or trace else BUILDS
        self.probe_repeats = 3 if smoke else 7
        self.paced_seconds = self.paced / workload.rate


# ---------------------------------------------------------------------------
# The socket run: setup, check, burst, paced
# ---------------------------------------------------------------------------


def reactions(workload: Workload, rows, due: "dict[int, float]"):
    """Per completing event: ``(due time, due time → its last prompt
    effect)``, seconds, in due order.

    Effects that are late by the rule's semantics (absence deadlines) or
    name no event are counted, never sampled.
    """
    last: "dict[int, float]" = {}
    for seq, label, stamp in rows:
        if seq in due and label not in workload.deferred:
            if stamp > last.get(seq, 0.0):
                last[seq] = stamp
    return sorted((due[seq], stamp - due[seq]) for seq, stamp in last.items())


def segment_percentiles(samples, start: float, seconds: float,
                        q: float) -> "list[float]":
    """The *q*-th percentile of each of ``SEGMENTS`` equal slices of the
    paced phase (by due time); their median is what gets reported, so a
    transient stall moves one slice, not the run's number."""
    slices: "list[list[float]]" = [[] for _ in range(SEGMENTS)]
    for at, latency in samples:
        k = int((at - start) / seconds * SEGMENTS)
        slices[min(SEGMENTS - 1, max(0, k))].append(latency)
    return [percentile(sorted(part), q) for part in slices if part]


def failures(workload: Workload, events, sent, rows, before, after) -> int:
    """Frames not acked ``+``, admitted events never handled, and missing
    effects of single-event rules."""
    unacked = sum(1 for byte in sent.acks if byte != ord("+"))
    unhandled = ((after["admitted"] - before["admitted"])
                 - (after["fired"] - before["fired"]))
    reacted = {seq for seq, _, _ in rows}
    missing = sum(1 for seq, _, term in events
                  if term.label in workload.must_react and seq not in reacted)
    return unacked + max(0, unhandled) + missing


class Feed:
    """The run's input stream, cut into phases: each call takes the next
    *count* events and frames them at the phase's logical base time."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.next_seq = 0
        self.base = 0.0

    def take(self, count: int) -> dict:
        workload = self.workload
        events = workload.events(self.seed, self.next_seq, count)
        frames, conns, encode_us = encode(events, self.base, workload.rate)
        phase = {"events": events, "frames": frames, "conns": conns,
                 "seqs": [seq for seq, _, _ in events], "base": self.base,
                 "encode_us": encode_us}
        self.next_seq += count
        self.base += count / workload.rate + workload.window  # the flush
        return phase


def play(server: ServerProcess, address, phase: dict, rate: "float | None",
         timeout: float):
    """One phase over the sockets: ``(what was sent, the server's flush)``."""
    server.request({"cmd": "phase", "frames": len(phase["frames"])}, 30.0)
    gc.disable()  # the generator's own pauses must not show as lateness
    try:
        sent = send(address, phase["frames"], phase["conns"], phase["seqs"],
                    rate=rate, timeout=timeout)
    finally:
        gc.enable()
    return sent, server.request({"cmd": "flush"}, 60.0)


def socket_run(workload: Workload, seed: int, sizes: Sizes, scratch: str,
               cores: "tuple[int, int] | None", smoke: bool) -> dict:
    """Everything measured over the sockets, plus the check's verdict."""
    out: dict = {"attempted": 0, "failed": 0, "check": [], "notes": [],
                 "out_of_order": 0}
    server = ServerProcess(workload, os.path.join(scratch, "server"),
                           sizes.builds, cores[1] if cores else None, smoke)
    try:
        # While the server builds: inputs, then the check, in this process.
        feed = Feed(workload, seed)
        bursts = [feed.take(sizes.burst) for _ in range(sizes.bursts)]
        paced = feed.take(sizes.paced)
        out["paced_input"] = paced
        out["check"] = oracle.check(workload, seed,
                                    os.path.join(scratch, "check"), sizes.check)
        ready = server.read(timeout=150.0)
        address = ("127.0.0.1", ready["port"])
        out["setup_s"] = ready["setup_s"]
        counters = None

        def account(phase, sent, flushed):
            nonlocal counters
            before = counters or dict.fromkeys(flushed["counters"], 0)
            counters = flushed["counters"]
            out["attempted"] += len(phase["frames"])
            out["failed"] += failures(workload, phase["events"], sent,
                                      flushed["effects"], before, counters)
            out["out_of_order"] += sent.out_of_order

        # burst: closed by TCP backpressure, several times over.
        out["burst_rates"] = []
        for burst in bursts:
            sent, flushed = play(server, address, burst, None, 90.0)
            account(burst, sent, flushed)
            out["burst_rates"].append(
                sizes.burst / (flushed["done"] - sent.start))
        out["burst_counters"] = counters

        # paced: open loop, timed from the due time.  A generator that ran
        # late gets one more try before the run is called unreliable.
        for attempt in range(2):
            sent, flushed = play(server, address, paced, workload.rate,
                                 sizes.paced_seconds + 60.0)
            account(paced, sent, flushed)
            out["late"] = sorted(sent.late)
            if percentile(out["late"], 0.99) * 1e3 <= LATE_LIMIT_MS or attempt:
                break
            out["notes"].append(
                f"paced phase repeated: generator late p99 "
                f"{percentile(out['late'], 0.99) * 1e3:.1f} ms")
            paced = feed.take(sizes.paced)
        due = {seq: sent.start + k / workload.rate
               for k, seq in enumerate(paced["seqs"])}
        out["reactions"] = reactions(workload, flushed["effects"], due)
        out["paced_span"] = (sent.start, sizes.paced / workload.rate)
        out["effects"] = len(flushed["effects"])
        out["ack_rtt"] = sorted(a - w for a, w in zip(sent.acked, sent.written))
        out["paced_counters"] = counters

        out.update(server.request({"cmd": "finish"}, 120.0))
        if workload.durable and not out.get("recovered", False):
            out["check"].append("reopened store differs from the store at close")
    except PhaseTimeout as exc:
        # A hang is a failure of the whole workload, not a stuck run.
        out["attempted"] = out["failed"] = max(out["attempted"], 1)
        out["notes"].append(f"timeout: {exc}")
    finally:
        server.close()
    return out


def end_to_end(run: dict) -> dict:
    """The five gated metrics (failures travel as ``failed``/``attempted``)."""
    metrics = dict.fromkeys(END_TO_END)
    samples = dict.fromkeys(END_TO_END, 0)
    if "setup_s" in run:
        metrics["setup_s"] = statistics.median(run["setup_s"])
        samples["setup_s"] = len(run["setup_s"])
    if run.get("burst_rates"):
        metrics["events_per_s"] = statistics.median(run["burst_rates"])
        samples["events_per_s"] = len(run["burst_rates"])
    if run.get("reactions"):
        for name, q in (("react_p50_ms", 0.50), ("react_p90_ms", 0.90)):
            metrics[name] = statistics.median(segment_percentiles(
                run["reactions"], *run["paced_span"], q)) * 1e3
            samples[name] = len(run["reactions"])
    if "rss_peak_mb" in run:
        metrics["rss_peak_mb"] = run["rss_peak_mb"]
        samples["rss_peak_mb"] = 1
    return {name: {"value": metrics[name], "unit": unit, "samples": samples[name]}
            for name, unit in END_TO_END.items()}


# ---------------------------------------------------------------------------
# The traced replay: per-layer metrics
# ---------------------------------------------------------------------------


def per_layer(workload: Workload, run: dict, sizes: Sizes, scratch: str,
              spans_path: "str | None") -> "tuple[dict, dict]":
    """The 40 per-layer metrics; ``(metrics, reasons for the None ones)``."""
    values: dict = {}
    reasons: dict = {}

    def probe(name, fn):
        ledger.guarded(values, reasons, name, fn)

    paced = run["paced_input"]
    frames, seqs = paced["frames"][:sizes.replay], paced["seqs"][:sizes.replay]
    base, encode_us = paced["base"], paced["encode_us"]
    n = len(frames)
    tracer, bare_tracer = ledger.Tracer(), ledger.Tracer()
    # The generator's own heap (inputs, effects of the socket run) must not
    # be charged to the program: park it where the collector never looks.
    gc.collect()
    gc.freeze()
    try:
        plain = ledger.replay_plain(workload, frames, seqs[0], base,
                                    os.path.join(scratch, "plain"))
        traced = ledger.replay_traced(workload, frames, seqs, base,
                                      os.path.join(scratch, "traced"), tracer)
        bare = ledger.replay_traced(workload, frames, seqs, base,
                                    os.path.join(scratch, "bare"), bare_tracer,
                                    install=False)
    except Exception as exc:  # noqa: BLE001 - a removed seam, not a failed run
        reason = f"replay failed: {type(exc).__name__}: {exc}"[:200]
        return dict.fromkeys(PER_LAYER), dict.fromkeys(PER_LAYER, reason)
    finally:
        gc.unfreeze()
    if spans_path is not None:
        tracer.dump(spans_path)
    if sorted(row[:2] for row in plain.effects.rows) != \
            sorted(row[:2] for row in traced.effects.rows):
        run["check"].append("traced replay's effects differ from the plain replay's")

    payloads = [frame[4:] for frame in frames[:2_000]]
    totals = tracer.totals()
    per_event = lambda name: totals.get(name, 0.0) / n * 1e6  # noqa: E731
    drain_us = per_event("drain")
    evaluators_us = per_event("events.on_event") + per_event("events.advance_time")
    commit_us = per_event("store.commit")
    counts = traced.counters
    commits_per_event = tracer.commits / n

    # wire, parser
    probe("wire.encode_us", lambda: encode_us)
    probe("wire.decode_us", lambda: per_event("wire.decode"))
    probe("wire.bytes_per_event", lambda: sum(map(len, frames)) / n)
    probe("parser.parse_us", lambda: ledger.parse_us(payloads))
    probe("parser.to_text_us", lambda: ledger.to_text_us(
        payloads, tracer.commit_ops, commits_per_event))
    # admission, node
    probe("admission.offer_us", lambda: per_event("admission.offer"))
    probe("admission.backlog_peak", lambda: run["burst_counters"]["backlog_peak"])
    probe("admission.pump_rounds_per_event",
          lambda: run["burst_counters"]["pump_rounds"]
          / (sizes.burst * sizes.bursts))
    probe("node.deliver_us", lambda: bare_tracer.totals()["drain"] / n * 1e6)
    probe("node.inbox_peak", lambda: run["paced_counters"]["inbox_peak"])
    latencies = sorted(latency for _, latency in run["reactions"])
    probe("node.late_share", lambda: sum(
        1 for latency in latencies if latency > LATE_EFFECT_S) / len(latencies))
    probe("node.react_p99_ms", lambda: percentile(latencies, 0.99) * 1e3)
    # engine, matcher, events
    probe("engine.self_us", lambda: drain_us - evaluators_us - commit_us
          - values["node.deliver_us"])
    for metric, counter in (
            ("engine.candidates_per_event", "candidates_considered"),
            ("engine.index_probes_per_event", "index_probes"),
            ("engine.matcher_calls_per_event", "matcher_calls"),
            ("engine.firings_per_event", "rule_firings"),
            ("engine.suppressed_per_event", "firings_suppressed"),
            ("engine.wakeups_per_event", "wakeups"),
            ("engine.advances_per_event", "evaluator_advances"),
            ("sharding.deduped_per_event", "firings_deduped")):
        probe(metric, lambda counter=counter: counts[counter] / n)
    installs: list = []  # (install p50, uninstall p50), measured once

    def install_p50(which: int) -> float:
        if not installs:
            installs.append(ledger.install_probe(workload, plain.node,
                                                 sizes.probe_repeats))
        return installs[0][which]

    probe("engine.install_us", lambda: install_p50(0))
    probe("engine.uninstall_us", lambda: install_p50(1))
    probe("matcher.match_us", lambda: ledger.match_us(tracer.pairs))
    probe("events.on_event_us", lambda: evaluators_us)
    probe("events.state_peak", lambda: traced.state_peak)
    probe("events.answers_per_event", lambda: tracer.answers / n)
    # store, sharding
    probe("store.commit_us", lambda: commit_us)
    probe("store.commits_per_event", lambda: commits_per_event)
    probe("store.bytes_per_commit", lambda: (
        traced.wal_bytes / tracer.commits if tracer.commits else 0.0))
    probe("store.recover_s", lambda: run.get("recover_s", 0.0))
    probe("store.checkpoint_ms", lambda: run.get("checkpoint_ms", 0.0))
    probe("sharding.max_shard_share", lambda: (
        max(counts["shard_events"]) / max(1, sum(counts["shard_events"]))))
    swaps = sorted(end - start for name, start, end, _, seq in tracer.spans
                   if name == "drain"
                   and traced.labels.get(seq) in ("deploy", "retire"))
    probe("sharding.repartition_ms", lambda: (
        statistics.median(swaps) * 1e3 if swaps else 0.0))
    # transport, ledger
    probe("transport.ack_rtt_p50_us", lambda: percentile(run["ack_rtt"], 0.5) * 1e6)
    probe("transport.gen_late_p99_ms", lambda: percentile(run["late"], 0.99) * 1e3)
    probe("ledger.total_us",
          lambda: 1e6 / statistics.median(run["burst_rates"]))
    probe("transport.self_us",
          lambda: values["ledger.total_us"] - plain.us_per_event)
    probe("ledger.residual_share", lambda: 1.0 - sum(values[name] for name in (
        "wire.decode_us", "admission.offer_us", "node.deliver_us",
        "engine.self_us", "events.on_event_us", "store.commit_us",
        "transport.self_us")) / values["ledger.total_us"])
    probe("trace.overhead_share",
          lambda: traced.us_per_event / plain.us_per_event - 1.0)
    for replay in (plain, traced, bare):
        replay.node.close()
    return values, reasons


# ---------------------------------------------------------------------------
# One workload, start to finish
# ---------------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, cores: "tuple[int, int] | None",
                 spans_path: "str | None" = None) -> dict:
    """Run one workload; the full result document."""
    sizes = Sizes(workload, seconds, trace, smoke)
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=workload.name + "-", dir=SCRATCH)
    try:
        run = socket_run(workload, seed, sizes, scratch, cores, smoke)
        result = {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "end_to_end": end_to_end(run),
        }
        if trace and "paced_counters" in run:
            # Replay on the core the server ran on (it has exited): the
            # same fsync costs a third more from the generator's core.
            if cores:
                os.sched_setaffinity(0, {cores[1]})
            values, reasons = per_layer(workload, run, sizes, scratch, spans_path)
            if cores:
                os.sched_setaffinity(0, {cores[0]})
            result["per_layer"] = {
                name: {"value": values[name], "unit": unit,
                       **({"reason": reasons[name]} if name in reasons else {})}
                for name, unit in PER_LAYER.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's scratch is still in there
    late_p99 = percentile(run["late"], 0.99) * 1e3 if run.get("late") else 0.0
    unreliable = late_p99 > LATE_LIMIT_MS or run.get("out_of_order", 0) > 0
    missing = [name for name, m in result["end_to_end"].items()
               if m["value"] is None]
    result.update({
        "correct": not run["check"] and not missing,
        "unreliable": unreliable,
        "attempted": run["attempted"], "failed": run["failed"],
        "failed_share": run["failed"] / run["attempted"],
        "check": run["check"], "notes": run["notes"],
        "generator": {"late_p99_ms": late_p99,
                      "out_of_order": run.get("out_of_order", 0)},
        "sizes": {"bursts": sizes.bursts, "burst_events": sizes.burst,
                  "paced_events": sizes.paced,
                  "replay_events": sizes.replay, "check_events": sizes.check,
                  "builds": sizes.builds, "effects": run.get("effects", 0)},
        "constants": {"rate": workload.rate, "window": workload.window,
                      "shards": workload.shards, "durable": workload.durable,
                      **workload.constants},
    })
    return result


def report(result: dict, out=sys.stdout) -> None:
    """Every metric by name, with unit and sample count."""
    print(f"== {result['workload']}  seed={result['seed']} "
          f"seconds={result['seconds']}  {result['sizes']}", file=out)
    for group in ("end_to_end", "per_layer"):
        for name, metric in result.get(group, {}).items():
            value = metric["value"]
            shown = "null" if value is None else f"{value:.6g}"
            extra = f"  (n={metric['samples']})" if "samples" in metric else ""
            extra += f"  [{metric['reason']}]" if "reason" in metric else ""
            print(f"  {name:34s} {shown:>12s} {metric['unit']}{extra}", file=out)
    print(f"  {'failed_share':34s} {result['failed_share']:>12.6g} ratio  "
          f"({result['failed']} of {result['attempted']})", file=out)
    print(f"  generator late p99 {result['generator']['late_p99_ms']:.3f} ms; "
          f"check {'passed' if not result['check'] else 'FAILED'}"
          + ("; UNRELIABLE" if result["unreliable"] else ""), file=out)
    for line in result["check"] + result["notes"]:
        print(f"  ! {line}", file=out)


def contract_line(result: dict, trace: bool) -> dict:
    """The object the benchmark contract asks for on the last line."""
    group = result.get("per_layer" if trace else "end_to_end", {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in group.items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(catalog()))
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="all mechanisms, tiny sizes; numbers mean nothing")
    parser.add_argument("--out", help="write the full result document here "
                        "(spans, when traced, beside it as FILE.spans.jsonl)")
    args = parser.parse_args(argv)
    # A terminated run cleans up like an interrupted one: the server is
    # reaped and the scratch directory removed by the `finally` clauses.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(EXIT_FAILED))
    trace = bool(args.trace) or args.smoke
    seconds = args.seconds if args.seconds is not None \
        else (1.8 if args.smoke else RUN_SECONDS)
    workloads = catalog(args.smoke)
    names = [args.workload] if args.workload else list(workloads)
    stamp = machine_stamp(args.seed)
    cores = pin_cores()
    results = []
    for name in names:
        spans = f"{args.out}.{name}.spans.jsonl" if args.out and trace else None
        result = run_workload(workloads[name], args.seed, seconds, trace,
                              args.smoke, cores, spans)
        result["machine"] = stamp
        report(result)
        results.append(result)
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"results": results}, out, indent=1)
    lines = [contract_line(result, bool(args.trace)) for result in results]
    if args.workload:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "workloads": dict(zip(names, lines))}))
    if not all(r["correct"] for r in results) or any(r["failed"] for r in results):
        return EXIT_FAILED
    if any(r["unreliable"] for r in results):
        return EXIT_UNRELIABLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

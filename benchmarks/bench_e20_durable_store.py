"""E20: what durability costs — volatile vs WAL resource stores.

A pluggable persistence layer sits behind the resource store
(:mod:`repro.store`): committed outermost transactions become durable as
one CRC-framed WAL record (group commit: one fsync per transaction), and
reopening a store recovers the committed state by replaying the log onto
the latest snapshot.  E20 measures the costs that layer introduces:

- **Commit throughput** — the same put workload against ``memory`` (the
  volatile baseline every node always had), ``wal``, ``wal-nofsync``
  (``fsync=False``: the OS-page-cache ablation that isolates the fsync
  cost from the append/serialisation cost).
- **Group commit** — the ``tx5`` workload packs 5 puts per transaction:
  the ops/s of a durable backend should *rise* relative to singles,
  because five ops share one record and one fsync.
- **Store size** — ``tx5`` runs again on a store preloaded with
  10 000 other documents.  A transaction rolls back from its own op
  buffer, never from a copy of the store, so its cost must not grow
  with the store: the memory backend's preloaded row stays within 15 %
  of the empty one.
- **Recovery** — wall time to reopen each durable store and replay its
  retained commits, at two checkpoint cadences (``snapshot_every`` high:
  replay everything; low: replay almost nothing — the knob trades write
  amplification for recovery time).

Emits ``BENCH_e20.json`` (skipped under ``--smoke``); the backend
ablation columns are guarded by ``require_columns``.
"""

import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, "benchmarks")
from _harness import (
    parse_cli,
    pick,
    print_table,
    require_columns,
    smoke_mode,
    write_json,
)

from repro import d
from repro.store import StoreConfig, open_store
from repro.updates import Transaction

URI_POOL = 64
TX_SIZE = 5
PRELOAD = 10_000  # documents beside the URI pool in the store-size rows

BACKENDS = (
    ("memory", dict(backend="memory")),
    ("wal", dict(backend="wal", fsync=True)),
    ("wal-nofsync", dict(backend="wal", fsync=False)),
)


def make_config(name: str, spec: dict, root: str,
                snapshot_every=None) -> StoreConfig:
    path = None
    if spec["backend"] == "wal":
        path = os.path.join(root, name, "store")
    return StoreConfig(path=path, snapshot_every=snapshot_every,
                       **{k: v for k, v in spec.items()})


def body(i: int):
    return d("doc", d("n", i), d("tag", f"payload-{i % 7}"))


def run_singles(store, ops: int) -> None:
    for i in range(ops):
        store.put(f"http://bench.example/r{i % URI_POOL}", body(i))


def run_tx5(store, ops: int) -> None:
    for start in range(0, ops, TX_SIZE):
        with Transaction(store):
            for i in range(start, start + TX_SIZE):
                store.put(f"http://bench.example/r{i % URI_POOL}", body(i))


def preload(store, docs: int) -> None:
    """Fill *store* with *docs* documents outside the URI pool, in one
    commit (one record, one fsync on a durable backend)."""
    if docs:
        with Transaction(store):
            for i in range(docs):
                store.put(f"http://bench.example/pre{i}", body(i))


def timed(fn, *args, repeats: int = 3) -> float:
    """Best of *repeats* runs: the memory backend's whole stream takes
    milliseconds, so one run mostly measures the warm-up."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def throughput_rows(ops: int, root: str) -> list[dict]:
    rows = []
    for workload_name, workload, docs in (
            ("singles", run_singles, 0),
            ("tx5", run_tx5, 0),
            ("tx5", run_tx5, pick(PRELOAD, 500))):
        row = {"workload": workload_name, "preload": docs, "ops": ops}
        for name, spec in BACKENDS:
            config = make_config(f"tp-{workload_name}-{docs}-{name}", spec,
                                 root)
            store = open_store(config)
            preload(store, docs)
            elapsed = timed(workload, store, ops)
            row[f"{name} ops/s"] = ops / elapsed
            getattr(store, "close", lambda: None)()
        rows.append(row)
    return rows


def recovery_rows(ops: int, root: str) -> list[dict]:
    rows = []
    for cadence_name, snapshot_every in (("replay-all", None),
                                         ("checkpointed", 64)):
        row = {"cadence": cadence_name, "commits": ops}
        for name, spec in BACKENDS:
            if spec["backend"] == "memory":
                continue
            config = make_config(f"rec-{cadence_name}-{name}", spec, root,
                                 snapshot_every=snapshot_every)
            store = open_store(config)
            run_singles(store, ops)
            store.close()
            t0 = time.perf_counter()
            reopened = open_store(config)
            elapsed = time.perf_counter() - t0
            row[f"{name} recovery ms"] = elapsed * 1e3
            row[f"{name} replayed"] = reopened.replay_pending
            reopened.close()
        rows.append(row)
    return rows


def table() -> "tuple[list[dict], list[dict]]":
    ops = pick(2_000, 60)
    root = tempfile.mkdtemp(prefix="bench-e20-")
    try:
        throughput = require_columns(
            "e20", throughput_rows(ops, root),
            tuple(f"{name} ops/s" for name, _spec in BACKENDS))
        recovery = require_columns(
            "e20", recovery_rows(ops, root),
            ("wal recovery ms", "wal replayed"))
        return throughput, recovery
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- pytest-benchmark hooks ---------------------------------------------------


def test_e20_wal_commit_throughput(benchmark, tmp_path):
    counter = [0]

    def run():
        counter[0] += 1
        config = StoreConfig(backend="wal",
                             path=str(tmp_path / f"b{counter[0]}"),
                             snapshot_every=None)
        store = open_store(config)
        run_singles(store, 200)
        store.close()
        return store.commits

    assert benchmark(run) == 200


def test_e20_recovery_replays_the_log(tmp_path):
    config = StoreConfig(backend="wal", path=str(tmp_path / "store"),
                         snapshot_every=None)
    store = open_store(config)
    run_singles(store, 100)
    store.close()
    reopened = open_store(config)
    assert reopened.replay_pending == 100
    assert reopened.get("http://bench.example/r0") is not None
    reopened.close()


def test_e20_group_commit_amortises_the_fsync(tmp_path):
    """5-op transactions must not cost 5x a single-op commit's records."""
    config = StoreConfig(backend="wal", path=str(tmp_path / "store"),
                         snapshot_every=None)
    store = open_store(config)
    run_tx5(store, 100)
    assert store.commits == 100 // TX_SIZE
    store.close()


def main() -> None:
    parse_cli()
    throughput, recovery = table()
    print_table(
        "E20 — commit throughput by backend (ops/s; higher is better)",
        throughput,
        "durability is opt-in: memory stays the volatile baseline; "
        "group commit amortises the fsync across a transaction",
    )
    print_table(
        "E20 — recovery time by checkpoint cadence",
        recovery,
        "snapshot_every bounds replay length: checkpointed recovery "
        "replays (almost) nothing",
    )
    path = write_json("BENCH_e20.json", {
        "experiment": "e20_durable_store",
        "ops": pick(2_000, 60),
        "uri_pool": URI_POOL,
        "tx_size": TX_SIZE,
        "preload": pick(PRELOAD, 500),
        "throughput_rows": throughput,
        "recovery_rows": recovery,
    })
    print(f"\nwrote {path}" if path else "\n(smoke mode: no JSON written)")
    if not smoke_mode():
        for row in throughput:
            assert row["memory ops/s"] > row["wal ops/s"], \
                "durability cannot be free"
        singles, tx5, tx5_preloaded = throughput
        # Group commit: packing 5 ops per fsync must beat 1 op per fsync.
        assert tx5["wal ops/s"] > singles["wal ops/s"] * 1.5, (
            singles["wal ops/s"], tx5["wal ops/s"])
        # Flat in store size: a transaction costs O(its ops).
        assert tx5_preloaded["memory ops/s"] > tx5["memory ops/s"] * 0.85, (
            tx5["memory ops/s"], tx5_preloaded["memory ops/s"])
        checkpointed = recovery[1]
        assert checkpointed["wal replayed"] <= 64


if __name__ == "__main__":
    main()

"""Durable resource-store persistence (a pluggable write-ahead-log backend).

The paper's persistent resources (Thesis 4) and transactional updates
(Thesis 8) meet reality here: a :class:`DurableResourceStore` is a
drop-in :class:`~repro.web.resources.ResourceStore` whose *committed*
state survives process death, recovered on reopen with the per-URI
version floors intact and the replayed commits re-notified exactly once.

Pick a backend with :class:`StoreConfig` and open it through the facade
(``ReactiveNode(EngineConfig(store=StoreConfig(backend="wal",
path=...)))``) or directly via :func:`open_store`.  ``backend="memory"``
(the default) is bit-for-bit the store every node always had.

Layout:

- :mod:`repro.store.backend` — the commit codec, recovery replay, the
  :class:`StoreBackend` contract, :class:`DurableResourceStore`, and the
  :data:`BACKENDS` registry;
- :mod:`repro.store.wal` — CRC-framed append-only log + atomically
  swapped snapshot, torn-tail repair;
- :mod:`repro.store.fault` — the fault-injection harness
  (:class:`~repro.store.fault.FaultPlan`,
  :class:`~repro.store.fault.FaultyFile`,
  :func:`~repro.store.fault.crash_outcomes`) that *proves* the
  crash-at-any-point recovery property instead of asserting it.
"""

from repro.store.backend import (
    BACKENDS,
    DurableResourceStore,
    Recovery,
    StoreBackend,
    StoreConfig,
    decode_commit,
    encode_commit,
    open_store,
    register_backend,
)

__all__ = [
    "BACKENDS",
    "DurableResourceStore",
    "Recovery",
    "StoreBackend",
    "StoreConfig",
    "decode_commit",
    "encode_commit",
    "open_store",
    "register_backend",
]

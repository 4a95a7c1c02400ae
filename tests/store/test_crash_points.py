"""The crash-at-any-point recovery property, enumerated and fuzzed.

``crash_outcomes`` runs a fixed workload once to learn its fault points,
then for every ``(crash point, tear mode)`` pair: runs it on a fresh
target, injects the crash, reopens the store, and checks that the
recovered state equals the state after *k* committed steps for some
``acked <= k <= acked + 1`` — floors included, replay notifications
exactly-once.  The hypothesis test does the same over *random* op
sequences, which is what makes this a property rather than a handful of
anecdotes.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import d
from repro.store import DurableResourceStore
from repro.store.fault import TEARS, FaultPlan, SimulatedCrash, crash_outcomes
from repro.store.wal import WalBackend
from repro.updates import Transaction

URIS = ["http://a.example/x", "http://a.example/y", "http://a.example/z"]


def wal_opener(snapshot_every=None, fsync=True):
    def open_wal(target, plan):
        return DurableResourceStore(
            WalBackend(os.path.join(target, "store"), fsync=fsync,
                       fault=plan),
            snapshot_every=snapshot_every)
    return open_wal


def make_target_factory(tmp_path):
    os.makedirs(tmp_path, exist_ok=True)

    def make_target():
        return tempfile.mkdtemp(prefix="run-", dir=str(tmp_path))
    return make_target


def put(uri, n):
    return lambda store: store.put(uri, d("doc", d("n", n)))


def delete(uri):
    return lambda store: store.delete(uri)


def tx(*mutations):
    def step(store):
        with Transaction(store):
            for mutation in mutations:
                mutation(store)
    return step


WORKLOAD = [
    put(URIS[0], 1),
    put(URIS[1], 2),
    tx(put(URIS[0], 3), put(URIS[2], 4)),   # a multi-op group commit
    delete(URIS[1]),
    put(URIS[1], 5),                        # recreate over the floor
]


class TestEnumeratedCrashes:
    def test_wal_every_point_every_tear(self, tmp_path):
        checked = 0
        for outcome in crash_outcomes(make_target_factory(tmp_path),
                                      wal_opener(), WORKLOAD):
            outcome.check()
            checked += 1
        assert checked > 3 * len(WORKLOAD)  # the enumeration really ran

    def test_wal_with_compaction_in_the_window(self, tmp_path):
        """snapshot_every=2 puts checkpoints (snapshot write, swap rename,
        log truncate) inside the crash window — the orchestration the
        WAL's write ordering exists for."""
        names = set()
        for outcome in crash_outcomes(make_target_factory(tmp_path),
                                      wal_opener(snapshot_every=2),
                                      WORKLOAD):
            outcome.check()
            names.add(outcome.point_name)
        assert {"write", "fsync", "fsync-return",
                "snapshot-swap", "truncate"} <= names

    def test_acked_commits_survive_fsync_crashes(self, tmp_path):
        """Stronger than check(): any commit whose mutation call *returned*
        is durable under every tear mode — that is what fsync buys."""
        for outcome in crash_outcomes(make_target_factory(tmp_path),
                                      wal_opener(), WORKLOAD):
            outcome.check()
            assert outcome.matched >= outcome.acked_steps


class TestFaultPlanMechanics:
    def test_counting_mode_records_points(self, tmp_path):
        plan = FaultPlan()
        store = wal_opener()(str(tmp_path), plan)
        store.put(URIS[0], d("doc"))
        store.close()
        assert plan.points[:2] == ["write", "fsync"]
        assert not plan.crashed

    def test_crash_is_sticky(self, tmp_path):
        plan = FaultPlan(crash_at=0)
        store = wal_opener()(str(tmp_path), plan)
        with pytest.raises(SimulatedCrash):
            store.put(URIS[0], d("doc"))
        # The "dead process" must not quietly do more I/O.
        with pytest.raises(SimulatedCrash):
            plan.point("anything")

    def test_unknown_tear_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_at=0, tear="shred")

    @pytest.mark.parametrize("tear", TEARS)
    def test_torn_unsynced_bytes_follow_the_mode(self, tmp_path, tear):
        plan = FaultPlan(crash_at=3, tear=tear)  # second commit's "write"
        store = wal_opener()(str(tmp_path), plan)
        store.put(URIS[0], d("doc", d("n", 1)))
        with pytest.raises(SimulatedCrash):
            store.put(URIS[0], d("doc", d("n", 2)))
        wal = os.path.join(str(tmp_path), "store", "store.wal")
        assert os.path.getsize(wal) > 0  # commit 1 is durable
        recovered = wal_opener()(str(tmp_path), None)
        assert recovered.get(URIS[0]) == d("doc", d("n", 1))
        recovered.close()


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(URIS),
                  st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("delete"), st.sampled_from(URIS)),
        st.tuples(st.just("tx"), st.sampled_from(URIS),
                  st.sampled_from(URIS), st.integers(0, 99)),
        st.tuples(st.just("rollback"), st.sampled_from(URIS),
                  st.integers(0, 99)),
    ),
    min_size=1, max_size=6,
)


def compile_steps(ops):
    steps = []
    for op in ops:
        if op[0] == "put":
            steps.append(put(op[1], op[2]))
        elif op[0] == "delete":
            uri = op[1]

            def safe_delete(store, uri=uri):
                if uri in store:
                    store.delete(uri)
            steps.append(safe_delete)
        elif op[0] == "tx":
            steps.append(tx(put(op[1], op[3]), put(op[2], op[3] + 1)))
        else:   # a rolled-back transaction: commits nothing, burns versions
            uri, n = op[1], op[2]

            def rolled_back(store, uri=uri, n=n):
                try:
                    with Transaction(store):
                        store.put(uri, d("doc", d("n", n)))
                        raise _Abort
                except _Abort:
                    pass
            steps.append(rolled_back)
    return steps


class _Abort(Exception):
    pass


class TestCrashProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=OPS, data=st.data())
    def test_random_workloads_recover_to_a_committed_prefix(
            self, tmp_path, ops, data):
        steps = compile_steps(ops)
        make_target = make_target_factory(
            tmp_path / f"ex-{data.draw(st.integers(0, 10**9))}")
        # A workload that commits nothing (only missing-URI deletes or
        # rollbacks) has zero fault points — the enumeration is rightly
        # empty then, and the property holds vacuously.
        for outcome in crash_outcomes(
                make_target, wal_opener(snapshot_every=3), steps,
                tears=(data.draw(st.sampled_from(TEARS)),)):
            outcome.check()

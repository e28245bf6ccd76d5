"""Degraded-mode acceptance: one card dies mid-burst, nothing is lost.

The headline chaos scenario from the failure-domain design: a 4-shard
store ingests a burst while one shard's SCPU trips tamper response and
every shard drops a fraction of its requests.  The invariants:

* **zero accepted records lost** — every receipt the store issued reads
  back and client-verifies;
* **writes continue** — healthy shards keep committing after the trip;
* **degraded shard serves reads** — its committed records stay readable
  and verifiable forever (proofs are stored artifacts);
* **fail loud at total loss** — all cards gone raises ``TamperedError``.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import TamperedError
from repro.core.health import BreakerState
from repro.core.sharded import ShardedWormStore
from repro.core.worm import StrongWormStore
from repro.crypto.keys import CertificateAuthority
from repro.faults import FaultPlan, FaultyScpu
from repro.hardware.scpu import ScpuKeyring, SecureCoprocessor
from repro.sim.manual_clock import ManualClock

pytestmark = pytest.mark.chaos


def build_faulty_sharded(plans, group_commit_size=4, journal=None,
                         keyring=None):
    """A sharded store whose per-shard SCPUs run under *plans*."""
    keyring = keyring if keyring is not None else demo_keyring()
    clock = ManualClock()
    template = StoreConfig(group_commit_size=group_commit_size).per_shard()
    stores = []
    for plan in plans:
        scpu = SecureCoprocessor(keyring=keyring, clock=clock)
        if plan is not None:
            scpu = FaultyScpu(scpu, plan)
        stores.append(StrongWormStore(config=template.replace(scpu=scpu)))
    return ShardedWormStore(
        stores,
        config=StoreConfig(shard_count=len(plans),
                           group_commit_size=group_commit_size),
        journal=journal)


@pytest.fixture
def chaotic_store():
    """4 shards, >=5% transient faults everywhere, shard 1 dies mid-burst."""
    plans = [FaultPlan(seed=40 + i, transient_rate=0.08) for i in range(4)]
    plans[1].tamper(after_ops=10)
    return build_faulty_sharded(plans)


class TestZeroLossUnderFaults:
    def test_no_accepted_record_is_lost(self, chaotic_store, ca):
        store = chaotic_store
        receipts = []
        for i in range(60):
            flushed = store.submit(b"payload-%03d" % i,
                                   retention_seconds=3600.0)
            if flushed:
                receipts.extend(flushed)
        receipts.extend(store.flush())

        # Every submitted record was accepted and got a receipt.
        assert len(receipts) == 60
        assert store.pending_count == 0
        # The dead shard really died, and work failed over around it.
        assert store.degraded_shards == (1,)
        assert store.failover_count >= 1
        # Zero loss: every receipt reads back and client-verifies,
        # including the ones committed on the now-dead shard.
        client = store.make_client(ca)
        on_dead_shard = 0
        for receipt in receipts:
            result = store.read(receipt.locator)
            verified = client.verify_read(result, receipt.locator)
            assert verified.status == "active"
            if receipt.shard_id == 1:
                on_dead_shard += 1
        assert on_dead_shard > 0  # the trip happened mid-burst, not before

    def test_writes_continue_on_healthy_shards(self, chaotic_store):
        store = chaotic_store
        for i in range(60):
            store.submit(b"payload-%03d" % i, retention_seconds=3600.0)
        store.flush()
        assert store.degraded_shards == (1,)
        # The store still ingests: new writes land on healthy shards only.
        after = [store.write([b"after-death-%d" % i]) for i in range(8)]
        assert all(r.shard_id != 1 for r in after)
        assert set(store.writable_shards) == {0, 2, 3}

    def test_health_report_covers_dead_shards(self, chaotic_store):
        store = chaotic_store
        for i in range(60):
            store.submit(b"payload-%03d" % i, retention_seconds=3600.0)
        store.flush()
        report = store.health_report()
        by_id = {s["shard_id"]: s for s in report["shards"]}
        assert by_id[1]["state"] == BreakerState.DEGRADED
        assert by_id[1]["tamper_tripped"] is True
        assert report["degraded_shards"] == [1]
        assert report["retry_total"]["retries"] > 0
        assert report["failovers"] >= 1


class TestTotalLoss:
    def test_all_cards_dead_fails_loud(self):
        # Store construction itself costs 2 SCPU ops per shard; trip on
        # the first post-construction call of each card.
        plans = [FaultPlan().tamper(after_ops=3) for _ in range(3)]
        store = build_faulty_sharded(plans, group_commit_size=1)
        with pytest.raises(TamperedError):
            for i in range(10):
                store.submit(b"payload-%d" % i)

    def test_certificates_require_a_live_card(self, ca):
        plans = [FaultPlan().tamper(after_ops=3) for _ in range(2)]
        store = build_faulty_sharded(plans, group_commit_size=1)
        with pytest.raises(TamperedError):
            for i in range(10):
                store.submit(b"payload-%d" % i)
        with pytest.raises(TamperedError):
            store.certificates(ca)


class TestBreakerRouting:
    def test_transient_storm_opens_breaker_and_routes_away(self):
        # Shard 0 drops every witness_write for a while: its breaker
        # opens and round-robin skips it without any record loss.
        plans = [FaultPlan() for _ in range(3)]
        plans[0].transient(op="witness_write_batch", after_ops=1, count=50)
        store = build_faulty_sharded(plans, group_commit_size=1)
        receipts = []
        for i in range(12):
            flushed = store.submit(b"payload-%d" % i)
            if flushed:
                receipts.extend(flushed)
        receipts.extend(store.flush())
        assert len(receipts) == 12
        assert store.degraded_shards == ()
        assert store.breaker(0).snapshot(store.now).transient_failures > 0
        # Everything that shard 0 bounced landed elsewhere.
        for receipt in receipts:
            assert store.read_record(receipt.locator).startswith(b"payload-")

    def test_single_write_fails_over_mid_call(self):
        plans = [FaultPlan() for _ in range(2)]
        # Shard 0's card dies on its first post-construction service call.
        plans[0].tamper(after_ops=3)
        store = build_faulty_sharded(plans, group_commit_size=1)
        receipt = store.write([b"must-land"])  # round-robin starts at 0
        assert receipt.shard_id == 1
        assert store.degraded_shards == (0,)
        assert store.read_record(receipt.locator) == b"must-land"

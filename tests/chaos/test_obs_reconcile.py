"""Telemetry under fault injection: the bus reads every count's one home.

A count a component already keeps — meter totals, ``RetryStats``, the
deferred queues' tallies, a breaker's degraded flag, the failover count,
a tenant's request counters — is registered on the bus as a view, not
mirrored.  Under a chaotic burst (transient faults on every shard, one
card tripping tamper mid-burst) the snapshot must therefore agree
exactly with ``health_report``, ``cost_summary`` and the queue
``report()``s: backlog depths, failover and degradation counts, retry
totals, and per-device virtual seconds.  The view test below also
catches a view wired to the wrong component, such as a loop variable
captured late by a provider.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import ScpuUnavailableError
from repro.core.sharded import ShardedWormStore
from repro.core.worm import StrongWormStore
from repro.faults import FaultPlan, FaultyScpu
from repro.hardware.scpu import SecureCoprocessor, Strength
from repro.obs import TelemetryBus
from repro.service import (
    TENANT_COUNTERS,
    ServiceRequest,
    TenantConfig,
    WormService,
)
from repro.sim.manual_clock import ManualClock

pytestmark = pytest.mark.chaos


def build_observed_sharded(plans, bus, group_commit_size=4):
    """A fault-injected sharded store with *bus* observing every shard."""
    keyring = demo_keyring()
    clock = ManualClock()
    template = StoreConfig(group_commit_size=group_commit_size,
                           observe=bus).per_shard()
    stores = []
    for plan in plans:
        scpu = SecureCoprocessor(keyring=keyring, clock=clock)
        if plan is not None:
            scpu = FaultyScpu(scpu, plan)
        stores.append(StrongWormStore(config=template.replace(scpu=scpu)))
    return ShardedWormStore(
        stores,
        config=StoreConfig(shard_count=len(plans),
                           group_commit_size=group_commit_size,
                           observe=bus))


def chaotic_burst(store, records=60):
    """Weak-strength group-commit ingest (builds a strengthening backlog)."""
    receipts = []
    for i in range(records):
        flushed = store.submit(b"payload-%03d" % i, retention_seconds=3600.0,
                               strength=Strength.WEAK)
        if flushed:
            receipts.extend(flushed)
    receipts.extend(store.flush())
    return receipts


class TestSnapshotAgreesWithHealthReport:
    @pytest.fixture
    def observed(self):
        """4 shards, 8% transient faults everywhere, shard 1 dies."""
        bus = TelemetryBus()
        plans = [FaultPlan(seed=40 + i, transient_rate=0.08)
                 for i in range(4)]
        plans[1].tamper(after_ops=10)
        return build_observed_sharded(plans, bus), bus

    def test_snapshot_reconciles_after_chaotic_burst(self, observed):
        store, _ = observed
        receipts = chaotic_burst(store)
        assert len(receipts) == 60
        assert store.degraded_shards == (1,)

    def test_backlog_depth_agrees(self, observed):
        """The headline: both accountings see the same strengthening debt."""
        store, bus = observed
        chaotic_burst(store)
        legacy = sum(
            store.shard(i).strengthening.report(store.now)["backlog"]
            for i in range(4))
        assert legacy > 0  # weak burst + dead card: debt must exist
        assert bus.gauge_value("strengthen.backlog") == legacy
        snapshot = store.telemetry_snapshot()
        assert snapshot["gauges"]["strengthen.backlog"] == legacy

    def test_pending_records_gauge_matches_health(self, observed):
        store, bus = observed
        for i in range(7):  # a partial group stays pending, un-flushed
            store.submit(b"pending-%d" % i, strength=Strength.WEAK)
        health = store.health_report()
        assert health["pending_records"] > 0
        assert (bus.gauge_value("sharded.pending_records")
                == health["pending_records"])

    def test_failure_accounting_agrees(self, observed):
        store, bus = observed
        chaotic_burst(store)
        health = store.health_report()
        assert bus.counter("breaker.degraded") == len(
            health["degraded_shards"]) == 1
        assert bus.counter("sharded.failovers") == health["failovers"] >= 1
        retry = health["retry_total"]
        assert bus.counter("retry.retries") == retry["retries"] > 0
        assert bus.counter("retry.calls") == retry["calls"]

    def test_device_seconds_match_cost_summary(self, observed):
        store, bus = observed
        chaotic_burst(store)
        costs = store.cost_summary()
        for device in ("scpu", "host", "disk"):
            assert (bus.counter(f"device.{device}.seconds")
                    == pytest.approx(costs[device]))


class TestCountersReadTheirHomes:
    """Each counter view equals its home, summed over shards or tenants."""

    @staticmethod
    def homes(store, service):
        shards = store.shards
        expected = {}
        for device in ("scpu", "host", "disk"):
            meters = [getattr(shard, device).meter for shard in shards]
            expected[f"device.{device}.ops"] = sum(
                meter.operation_count for meter in meters)
            expected[f"device.{device}.seconds"] = sum(
                meter.total_seconds for meter in meters)
        for name in ("calls", "retries", "exhausted", "backoff_seconds"):
            expected[f"retry.{name}"] = sum(
                getattr(shard.retry.stats, name) for shard in shards)
        expected["breaker.degraded"] = len(store.degraded_shards)
        expected["sharded.failovers"] = store.failover_count
        for name, field in (("completed", "strengthened_count"),
                            ("lifetime_violations", "lifetime_violations"),
                            ("skipped_deleted", "skipped_deleted")):
            expected[f"strengthen.{name}"] = sum(
                getattr(shard.strengthening, field) for shard in shards)
        queues = [shard.hash_verification for shard in shards]
        expected["hashverify.verified"] = sum(q.verified_count for q in queues)
        expected["hashverify.mismatches"] = sum(
            len(q.mismatches) for q in queues)
        expected["hashverify.skipped_deleted"] = sum(
            q.skipped_deleted for q in queues)
        for tenant, state in service.tenants.items():
            for suffix in TENANT_COUNTERS:
                expected[f"service.tenant.{tenant}.{suffix}"] = getattr(
                    state, suffix)
        return expected

    def test_every_view_family_equals_its_home(self):
        bus = TelemetryBus()
        plans = [FaultPlan(seed=40 + i, transient_rate=0.08)
                 for i in range(4)]
        plans[1].tamper(after_ops=10)
        store = build_observed_sharded(plans, bus)
        chaotic_burst(store)
        # Two short-lived weak, host-hashed writes expire before idle
        # time, so both queues skip them; of four long-lived host-hashed
        # writes one is corrupted on disk (a mismatch) and three verify.
        for i in range(2):
            store.write([b"short-%d" % i], retention_seconds=5.0,
                        strength=Strength.WEAK, defer_data_hash=True)
        hashed = [store.write([b"hashed-%d" % i], retention_seconds=3600.0,
                              defer_data_hash=True) for i in range(4)]
        vrd = store.shard(hashed[0].shard_id).vrdt.get_active(hashed[0].sn)
        store.shard(hashed[0].shard_id).blocks.unchecked_overwrite(
            vrd.rdl[0].key, b"forged")
        store.advance_clocks(10.0)
        store.maintenance()

        service = WormService(store, tenants=[
            TenantConfig("acme", rate=0.01, burst=2, max_deferred=8),
            TenantConfig("globex", rate=0.01, burst=4, max_deferred=8)])
        for tenant, writes in (("acme", 4), ("globex", 1)):
            for i in range(writes):
                service.handle(ServiceRequest(
                    operation="write", tenant=tenant,
                    params={"payload": b"%s-%d" % (tenant.encode(), i),
                            "retention_seconds": 3600.0}))
        service.handle(ServiceRequest(operation="read", tenant="globex",
                                      params={"locator": "acme/0:1:0"}))
        service.flush()

        expected = self.homes(store, service)
        counters = bus.snapshot()["counters"]
        assert {name: counters[name] for name in expected} == expected
        assert all(bus.counter(name) == value
                   for name, value in expected.items())
        # Each family did real work, so a view reading the wrong home
        # (another shard, tenant, field or device) cannot pass by zeros.
        for name in ("device.scpu.ops", "device.host.ops", "device.disk.ops",
                     "retry.calls", "retry.retries", "retry.backoff_seconds",
                     "breaker.degraded", "sharded.failovers",
                     "strengthen.completed", "strengthen.skipped_deleted",
                     "hashverify.verified", "hashverify.mismatches",
                     "hashverify.skipped_deleted",
                     "service.tenant.acme.deferred",
                     "service.tenant.acme.redeemed",
                     "service.tenant.globex.rejected"):
            assert expected[name] > 0, name
        assert (expected["service.tenant.acme.requests"]
                != expected["service.tenant.globex.requests"])


class TestViolationAccountingUnderFaults:
    def test_no_double_count_when_strengthen_fails_mid_drain(self):
        """The PR 5 fix, end to end: an overdue entry whose strengthen
        keeps failing is one violation, however many retries it takes."""
        bus = TelemetryBus()
        plans = [FaultPlan(), FaultPlan()]
        plans[0].transient(op="strengthen_batch", after_ops=1, count=99)
        store = build_observed_sharded(plans, bus, group_commit_size=1)
        receipt = store.write([b"burst"], strength=Strength.WEAK)
        shard = store.shard(receipt.shard_id)
        # Outlive the 512-bit lifetime before strengthening gets a turn.
        shard.scpu.clock.advance(60 * 60.0 + 100.0)

        for _ in range(3):  # three exhausted-retry drain attempts
            with pytest.raises(ScpuUnavailableError):
                shard.strengthening.drain(shard.now)

        assert shard.strengthening.lifetime_violations == 1
        assert bus.counter("strengthen.lifetime_violations") == 1
        # The backlog survived every failure — reported, not lost.
        assert shard.strengthening.report(shard.now)["backlog"] == 1

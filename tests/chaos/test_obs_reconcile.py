"""Telemetry under fault injection: one story, told twice, no drift.

The bus's snapshot and the legacy reports (``health_report``,
``cost_summary``, the queue ``report()``s) are two accountings of the
same run.  Under a chaotic burst — transient faults on every shard, one
card tripping tamper mid-burst — they must agree exactly: backlog
depths, failover and degradation counts, retry totals, and per-device
virtual seconds.  Divergence would mean the new telemetry invents or
loses events, which is exactly the failure mode the reconciliation in
:mod:`repro.obs.reconcile` exists to catch.
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
from repro.obs import TelemetryBus, reconcile_sharded
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
        assert reconcile_sharded(store, store.telemetry_snapshot()) == []

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

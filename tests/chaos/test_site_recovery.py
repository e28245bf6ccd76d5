"""The site-loss drill: kill a whole site mid-burst, rebuild, lose nothing.

The scenario the replication subsystem exists for: a multi-tenant
workload (Zipf tenants, diurnal arrivals, an end-of-day burst) is
pouring ≥100k records into the primary when the entire site — hosts,
disks, SCPU cards — is destroyed with no warning, catalog tail
unshipped and deferred tickets outstanding.  The drill then rebuilds a
fresh site from the untrusted standby (crashing the recovery process
once mid-way for good measure) and proves the compliance story end to
end: every acknowledged write is readable *and verifiable* on the
rebuilt site, every window authenticator re-verified, tickets redeem,
the books reconcile, and the recovery-time objective stays bounded in
virtual time.  A corrupted-replica variant proves the other half: a
standby that lies is detected, never laundered into the new store.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import TamperedError
from repro.faults import FaultPlan
from repro.obs import TelemetryBus
from repro.recovery import RecoveryStage, SiteRecovery
from repro.recovery.drill import (audit_zero_loss, build_primary,
                                  build_standby, catch_up,
                                  flip_replicated_byte)
from repro.service import ServiceRequest, TenantConfig, WormService
from repro.sim.workload import FixedSize, MultiTenantArrivals

pytestmark = pytest.mark.chaos

#: Virtual-time recovery bound the drill enforces (half an hour).
RTO_BOUND_SECONDS = 1800.0

TENANTS = ("tenant0", "tenant1", "tenant2")
BATCH = 250            # records per service write_batch call
KILL_AT = 101_000      # offered records before the site dies; up to one
                       # unflushed batch per tenant is never acknowledged,
                       # so this leaves >=100k acknowledged writes
PUMP_EVERY = 4         # batches between replication cycles (leaves a tail)


SITE = StoreConfig(shard_count=2, group_commit_size=64)


def build_service(store, ca):
    tenants = [TenantConfig(name, rate=5_000.0, burst=150_000,
                            max_deferred=64)
               for name in TENANTS]
    # One tiny tenant whose burst bucket exhausts immediately: its
    # extra writes defer, leaving live tickets outstanding when the
    # site dies (rate stays low enough that nothing refills mid-setup,
    # but the survivors can still redeem after failback).
    tenants.append(TenantConfig("smallco", rate=0.5, burst=4,
                                max_deferred=8))
    return WormService(store, ca=ca, tenants=tenants)


def run_workload(service, store, pump, ledger, kill_at=KILL_AT):
    """Drive the generator, batching per tenant; returns offered count."""
    workload = MultiTenantArrivals(
        TENANTS, FixedSize(32), days=1, night_rate=0.5, day_rate=300.0,
        burst_rate=3_000.0, burst_seconds=60.0, skew=1.1,
        users_per_tenant=10_000, hour_seconds=4.0, seed=42)
    buffers = {name: [] for name in TENANTS}
    current = store.now
    offered = batches = 0

    def flush_tenant(name):
        nonlocal batches
        payloads = buffers[name]
        if not payloads:
            return
        buffers[name] = []
        response = service.handle(ServiceRequest(
            operation="write_batch", tenant=name,
            params={"payloads": list(payloads),
                    "retention_seconds": 10 * 365 * 24 * 3600.0}))
        assert response.status == 201, response.problem
        for locator, payload in zip(response.body["locators"], payloads):
            ledger[locator] = payload
        batches += 1
        if batches % PUMP_EVERY == 0:
            pump.pump()

    for item in workload:
        if item.request.arrival > current:
            store.advance_clocks(item.request.arrival - current)
            current = item.request.arrival
        offered += 1
        buffers[item.tenant].append(
            b"%s|u%d|%d|" % (item.tenant.encode(), item.user, offered)
            + b"." * 8)
        if len(buffers[item.tenant]) >= BATCH:
            flush_tenant(item.tenant)
        if offered >= kill_at:
            break  # the site dies here: buffers and catalog tail lost
    return offered


class TestSiteLossDrill:
    def test_full_site_kill_mid_burst_loses_nothing(self, ca):
        plan = FaultPlan(transient_rate=0.02, seed=11)  # flaky WAN
        bus = TelemetryBus()
        store, transport, replica, pump = build_primary(
            SITE.replace(observe=bus), ca=ca, plan=plan)
        service = build_service(store, ca)

        # Outstanding deferred tickets: smallco's bucket dies after 4.
        tickets = {}
        smallco_durable = {}
        for i in range(6):
            response = service.handle(ServiceRequest(
                operation="write", tenant="smallco",
                params={"payload": b"smallco-%d" % i,
                        "retention_seconds": 10 * 365 * 24 * 3600.0}))
            if response.status == 201:
                smallco_durable[response.body["locator"]] = b"smallco-%d" % i
            else:
                assert response.status == 202
                tickets[response.body["ticket"]] = b"smallco-%d" % i
        assert len(tickets) == 2

        ledger = dict(smallco_durable)
        offered = run_workload(service, store, pump, ledger)
        assert offered >= KILL_AT
        assert len(ledger) >= 100_000  # acknowledged writes to account for

        # --- the disaster: the whole site is gone, mid-burst, with a
        # catalog tail unshipped and artifacts still in flight.
        assert pump.unacked_count > 0 or transport.in_flight > 0
        del store, pump, transport

        # --- rebuild from the untrusted replica, crashing the recovery
        # process once after VERIFY and resuming from its checkpoint.
        standby = build_standby(SITE)
        first = SiteRecovery(replica, standby, ca, obs=bus)
        while first.stage != RecoveryStage.REPLAY:
            first.step()
        saved = json.loads(json.dumps(first.checkpoint()))  # crash here
        recovery = SiteRecovery(replica, standby, ca, obs=bus,
                                checkpoint=saved)
        report = recovery.run()

        assert report.complete
        assert report.records_verified == report.records_replayed > 0
        assert report.windows_verified >= 2 * len(standby.shards)
        assert report.journal_requeued > 0  # the unshipped tail
        assert not report.unverifiable
        assert report.rto_seconds <= RTO_BOUND_SECONDS
        assert standby.site_state == "active"

        # --- zero acknowledged-write loss: every 201 locator resolves
        # on the rebuilt site to its original payload, and every VR it
        # landed in verifies against the *standby's* own proofs.
        service.promote(standby, report)
        audit = audit_zero_loss(
            standby, ca, {scoped.split("/", 1)[1]: payload
                          for scoped, payload in ledger.items()}, report)
        assert audit.lost == ()
        assert audit.vrs_verified >= report.records_replayed

        # --- the dead site's deferred tickets redeem on the new one.
        standby.advance_clocks(10.0)
        for ticket, payload in tickets.items():
            response = service.handle(ServiceRequest(
                operation="redeem", tenant="smallco",
                params={"ticket": ticket}))
            assert response.status == 200
            assert response.body["state"] == "durable"
            packed = response.body["locator"].split("/", 1)[1]
            assert standby.read_record(packed) == payload

        # --- accounting reconciles clean after failback, and the
        # replication/recovery telemetry tells the story.
        assert service.reconcile() == []
        counters = bus.snapshot()["counters"]
        assert counters["replication.journal_ops"] >= len(ledger)
        assert counters["replication.artifacts_shipped"] > 0
        assert counters["recovery.records_replayed"] > 0
        assert counters["recovery.journal_requeued"] > 0
        assert counters["recovery.stages_completed"] >= 5


class TestCorruptedReplicaVariant:
    def test_lying_standby_is_terminal_not_laundered(self, ca):
        store, transport, replica, pump = build_primary(SITE, ca=ca)
        service = build_service(store, ca)
        ledger = {}
        run_workload(service, store, pump, ledger, kill_at=2_000)
        # Let the standby catch up fully, then have its disk start lying.
        catch_up(pump, cycles=60)
        assert replica.source_certificates
        # Flip one byte of one replicated payload block at the standby.
        flip_replicated_byte(replica)
        standby = build_standby(SITE)
        recovery = SiteRecovery(replica, standby, ca)
        with pytest.raises(TamperedError):
            recovery.run()
        # VERIFY never completed, so nothing was imported: the rebuilt
        # site holds zero records rather than one forged one.
        assert RecoveryStage.VERIFY not in recovery.checkpoint()["completed"]
        assert all(len(s.vrdt.active_sns) == 0 for s in standby.shards)

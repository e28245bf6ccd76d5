"""Service-layer failback: 503 gating while recovering, then promote().

The service front-end must (a) refuse mutating traffic with a stable,
retryable problem while its site is being rebuilt, (b) keep serving
reads the whole time, and (c) fail over to the recovered store without
tenants noticing anything worse than a pause: old locators keep
resolving (aliases), deferred tickets issued by the dead site redeem
on the new one, and the accounting reconciles clean.
"""

from __future__ import annotations

import pytest

from repro.recovery import SiteRecovery
from repro.recovery.drill import (SMALL_SITE, build_primary, build_standby,
                                  catch_up)
from repro.service import ServiceRequest, TenantConfig, WormService

#: Recovery rebuilds onto a site provisioned apart from the dead one:
#: the default group size of eight, not the primary's four.
STANDBY = SMALL_SITE.replace(group_commit_size=8)


def _request(operation, tenant="acme", **params):
    return ServiceRequest(operation=operation, tenant=tenant, params=params)


def _write(service, tenant="acme", payload=b"ledger", **params):
    params.setdefault("retention_seconds", 3600.0)
    return service.handle(_request("write", tenant=tenant,
                                   payload=payload, **params))


def make_service(store, ca):
    return WormService(store, ca=ca, tenants=[
        TenantConfig("acme", rate=2.0, burst=4, max_deferred=8)])


class TestRecoveryGate:
    def test_writes_refused_503_while_recovering(self, ca):
        store, transport, replica, pump = build_primary(ca=ca)
        service = make_service(store, ca)
        written = _write(service, payload=b"before the disaster")
        assert written.status == 201

        store.begin_recovery()
        refused = _write(service, payload=b"during recovery")
        assert refused.status == 503
        assert refused.problem.code == "site-recovering"
        assert float(refused.headers["Retry-After"]) >= 1.0

        # Reads keep serving: recovered records are verifiable as soon
        # as VERIFY passed; refusing reads would only add downtime.
        store.advance_clocks(5.0)  # refill the read token
        read = service.handle(_request(
            "read", locator=written.body["locator"]))
        assert read.status == 200
        assert read.body["payload"] == b"before the disaster"

        store.resume_service()
        store.advance_clocks(5.0)
        accepted = _write(service, payload=b"after recovery")
        assert accepted.status == 201

    def test_expire_and_hold_also_gated(self, ca):
        store, transport, replica, pump = build_primary(ca=ca)
        service = make_service(store, ca)
        written = _write(service)
        store.begin_recovery()
        store.advance_clocks(5.0)
        for operation, params in (
                ("expire", {"locator": written.body["locator"]}),
                ("hold", {"locator": written.body["locator"],
                          "authorization": b"x"})):
            response = service.handle(_request(operation, **params))
            assert response.status == 503
            assert response.problem.code == "site-recovering"


class TestPromote:
    def test_failback_preserves_tenant_state(self, ca):
        store, transport, replica, pump = build_primary(ca=ca)
        service = make_service(store, ca)

        # Four accepted writes drain the burst; the fifth defers.  The
        # deferred submit is journalled (and mirrored) but its group
        # never flushes: the site dies with the ticket pending.
        old_locators = {}
        for i in range(4):
            response = _write(service, payload=b"acme-%d" % i)
            assert response.status == 201
            old_locators[response.body["locator"]] = b"acme-%d" % i
        deferred = _write(service, payload=b"deferred-write")
        assert deferred.status == 202
        ticket = deferred.body["ticket"]
        assert catch_up(pump)  # catalog + journal fully replicated

        standby = build_standby(STANDBY)
        report = SiteRecovery(replica, standby, ca).run()
        service.promote(standby, report)
        standby.advance_clocks(300.0)  # refill buckets on the new clock

        # Old (pre-disaster) locators keep resolving through aliases.
        for locator, payload in old_locators.items():
            read = service.handle(_request("read", locator=locator))
            assert read.status == 200, read.body
            assert read.body["payload"] == payload
            standby.advance_clocks(2.0)

        # The deferred ticket issued by the dead site redeems here.
        redeemed = service.handle(_request("redeem", ticket=ticket))
        assert redeemed.status == 200
        assert redeemed.body["state"] == "durable"
        durable = service.handle(_request(
            "read", locator=redeemed.body["locator"]))
        assert durable.body["payload"] == b"deferred-write"

        # Writes flow again, and the books balance.
        standby.advance_clocks(5.0)
        accepted = _write(service, payload=b"post-failback")
        assert accepted.status == 201
        assert service.reconcile() == []

    def test_promote_ignores_recovery_internal_tags(self, ca):
        # Journal entries with no caller tag re-commit under the
        # recovery pass's own handle; promote() must skip them rather
        # than crash unpacking an unknown tag shape.
        store, transport, replica, pump = build_primary(ca=ca)
        service = make_service(store, ca)
        _write(service, payload=b"anchor")
        store.submit(b"untagged-out-of-band")  # journalled, unflushed
        assert catch_up(pump)

        standby = build_standby(STANDBY)
        report = SiteRecovery(replica, standby, ca).run()
        assert report.journal_requeued >= 1
        service.promote(standby, report)  # must not raise
        assert service.reconcile() == []

"""End-to-end behaviour of :class:`repro.service.WormService`.

The contract gates (RC-1..RC-3) lock wire shapes; this file exercises
the semantics behind them: the write/defer/redeem lifecycle, tenant
isolation, quotas, policy allow-lists, the regulator surface, and the
``reconcile`` accounting cross-check.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import TamperedError
from repro.core.sharded import ShardedWormStore
from repro.crypto.envelope import Envelope, Purpose
from repro.service import ServiceRequest, TenantConfig, WormService


def _request(operation, tenant="acme", **params):
    return ServiceRequest(operation=operation, tenant=tenant, params=params)


def _write(service, tenant="acme", payload=b"ledger", **params):
    params.setdefault("retention_seconds", 60.0)
    return service.handle(_request("write", tenant=tenant,
                                   payload=payload, **params))


class TestWriteReadLifecycle:
    def test_accepted_write_is_immediately_readable(self, service):
        written = _write(service, payload=b"board minutes")
        assert written.status == 201
        assert written.body["locator"].startswith("acme/")
        read = service.handle(_request(
            "read", locator=written.body["locator"]))
        assert read.status == 200
        assert read.body["payload"] == b"board minutes"
        assert read.body["status"] == "active"

    def test_read_verified_returns_proof_metadata(self, service, sharded):
        written = _write(service, payload=b"attested")
        sharded.advance_clocks(5.0)  # refill for the read token
        verified = service.handle(_request(
            "read_verified", locator=written.body["locator"]))
        assert verified.status == 200
        assert verified.body["payload"] == b"attested"
        assert verified.body["proof_kind"] == "active"

    def test_deferred_write_redeems_after_flush(self, service, sharded):
        for _ in range(4):
            _write(service)  # drain the burst
        deferred = _write(service, payload=b"deferred-record")
        assert deferred.status == 202
        ticket = deferred.body["ticket"]

        sharded.advance_clocks(2.0)  # a token for the redeem poll
        pending = service.handle(_request("redeem", ticket=ticket))
        assert pending.status == 202
        assert pending.body["state"] == "pending"

        service.flush()
        sharded.advance_clocks(2.0)
        durable = service.handle(_request("redeem", ticket=ticket))
        assert durable.status == 200
        assert durable.body["state"] == "durable"

        sharded.advance_clocks(2.0)
        read = service.handle(_request(
            "read", locator=durable.body["locator"]))
        assert read.body["payload"] == b"deferred-record"

    def test_unknown_ticket_is_a_404(self, service):
        response = service.handle(_request("redeem", ticket="acme-t999"))
        assert response.status == 404
        assert response.problem.code == "unknown-ticket"

    def test_batch_write_returns_locators_in_order(self, service, sharded):
        payloads = [b"a", b"b", b"c"]
        response = service.handle(_request(
            "write_batch", payloads=payloads, retention_seconds=60.0))
        assert response.status == 201
        sharded.advance_clocks(10.0)
        for locator, expected in zip(response.body["locators"], payloads):
            read = service.handle(_request("read", locator=locator))
            assert read.body["payload"] == expected


class TestTenantIsolation:
    def test_cross_tenant_read_is_a_404(self, service):
        written = _write(service, tenant="acme")
        probe = service.handle(_request(
            "read", tenant="globex", locator=written.body["locator"]))
        # Deliberately 404, not 403: whether the record exists is
        # itself confidential across the tenant boundary.
        assert probe.status == 404
        assert probe.problem.code == "tenant-isolation"

    def test_unscoped_probe_of_raw_locator_is_refused(self, service):
        _write(service, tenant="acme")
        probe = service.handle(_request(
            "read", tenant="globex", locator="globex/0:1:0"))
        assert probe.status == 404
        assert probe.problem.code == "tenant-isolation"

    def test_cross_tenant_expire_is_refused(self, service, sharded):
        written = _write(service, tenant="acme")
        sharded.advance_clocks(120.0)
        probe = service.handle(_request(
            "expire", tenant="globex", locator=written.body["locator"]))
        assert probe.status == 404
        assert probe.problem.code == "tenant-isolation"


class TestQuotasAndPolicies:
    @pytest.fixture
    def strict_service(self, sharded, ca):
        return WormService(sharded, ca=ca, tenants=[
            TenantConfig("acme", rate=100.0, burst=200, quota_records=2,
                         allowed_policies=frozenset({"default", "sox"})),
        ])

    def test_quota_counts_durable_plus_inflight(self, strict_service):
        assert _write(strict_service).status == 201
        assert _write(strict_service).status == 201
        refused = _write(strict_service)
        assert refused.status == 403
        assert refused.problem.code == "quota-exceeded"

    def test_policy_allow_list(self, strict_service):
        seven_years = 7 * 365.25 * 86400.0
        assert _write(strict_service, policy="sox",
                      retention_seconds=seven_years).status == 201
        refused = _write(strict_service, policy="hipaa")
        assert refused.status == 403
        assert refused.problem.code == "policy-forbidden"

    def test_expired_records_free_quota(self, strict_service, sharded):
        first = _write(strict_service, retention_seconds=10.0)
        _write(strict_service)
        sharded.advance_clocks(30.0)
        expired = strict_service.handle(_request(
            "expire", locator=first.body["locator"]))
        assert expired.body["outcome"] == "deleted"
        # The slot is NOT reclaimed: WORM quota is write-once too —
        # deletion proofs still occupy the tenant's allocation.
        refused = _write(strict_service)
        assert refused.problem.code == "quota-exceeded"


class TestRegulatorSurface:
    @staticmethod
    def _credential(regulator_key, sn, now):
        return regulator_key.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": sn}, timestamp=now))

    def test_hold_blocks_expiry_until_release(self, service, sharded,
                                              regulator_key):
        written = _write(service, retention_seconds=10.0)
        sn = written.body["sn"]
        sharded.advance_clocks(30.0)

        held = service.handle(_request(
            "hold", locator=written.body["locator"],
            credential=self._credential(regulator_key, sn, service.now),
            hold_until=service.now + 1000.0))
        assert held.status == 200 and held.body["held"]

        blocked = service.handle(_request(
            "expire", locator=written.body["locator"]))
        assert blocked.body["outcome"] == "held"

        released = service.handle(_request(
            "hold", locator=written.body["locator"], release=True,
            credential=self._credential(regulator_key, sn, service.now)))
        assert released.body["released"]

        expired = service.handle(_request(
            "expire", locator=written.body["locator"]))
        assert expired.body["outcome"] == "deleted"

    def test_hold_without_credential_is_bad_request(self, service):
        written = _write(service)
        response = service.handle(_request(
            "hold", locator=written.body["locator"],
            hold_until=service.now + 100.0))
        assert response.status == 400
        assert response.problem.code == "bad-request"

    def test_audit_sweep_reports_clean(self, service, sharded):
        _write(service)
        service.handle(_request(
            "write_batch", tenant="globex", payloads=[b"g1", b"g2"],
            retention_seconds=60.0))
        sharded.advance_clocks(10.0)
        report = service.handle(_request("audit"))
        assert report.status == 200
        assert report.body["clean"] is True
        assert len(report.body["shards"]) == 2


class TestAccounting:
    def test_reconcile_is_clean_after_mixed_traffic(self, service, sharded):
        for i in range(10):
            _write(service, payload=b"r%d" % i)
            sharded.advance_clocks(0.2)
        service.flush()
        assert service.reconcile() == []

    def test_stats_and_bus_agree(self, service, bus, sharded):
        for _ in range(6):
            _write(service)
        service.flush()
        stats = service.stats()["acme"]
        counters = bus.snapshot()["counters"]
        assert counters["service.tenant.acme.requests"] == stats["requests"]
        assert counters["service.tenant.acme.accepted"] == stats["accepted"]
        assert counters["service.tenant.acme.deferred"] == stats["deferred"]
        assert (stats["accepted"] + stats["redeemed"]
                == stats["durable_records"])

    def test_tampering_is_never_a_problem_payload(self, service, sharded,
                                                  monkeypatch):
        # TamperedError is the one alarm that must not be swallowed
        # into a tidy 500 for the caller — it propagates raw so the
        # transport layer can page, not respond.
        written = _write(service)
        sharded.advance_clocks(5.0)
        monkeypatch.setattr(
            sharded, "read",
            lambda *a, **k: (_ for _ in ()).throw(
                TamperedError("witness mismatch")))
        with pytest.raises(TamperedError):
            service.handle(_request(
                "read", locator=written.body["locator"]))


class TestTenantConfigValidation:
    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            TenantConfig("")
        with pytest.raises(ValueError):
            TenantConfig("a/b")
        for name in ("café", "a-b", "a.b"):
            with pytest.raises(ValueError):
                TenantConfig(name)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            TenantConfig("t", rate=0.0)
        with pytest.raises(ValueError):
            TenantConfig("t", burst=0)
        with pytest.raises(ValueError):
            TenantConfig("t", max_deferred=-1)

    def test_duplicate_tenants_rejected(self, sharded, ca):
        with pytest.raises(ValueError):
            WormService(sharded, ca=ca, tenants=[
                TenantConfig("dup"), TenantConfig("dup")])

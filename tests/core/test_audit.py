"""Tests for the store auditor."""

import pytest

from repro.core.audit import StoreAuditor
from repro.hardware.scpu import Strength


@pytest.fixture
def auditor(store, client):
    return StoreAuditor(store, client)


class TestCleanSweep:
    def test_empty_store_audits_clean(self, auditor):
        report = auditor.sweep()
        assert report.clean
        assert report.total == 1  # the beyond-frontier probe
        assert report.findings[0].verdict == "never-allocated"

    def test_mixed_store_audits_clean(self, store, auditor):
        store.write([b"active"], policy="sox")
        store.write([b"brief"], retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.maintenance()
        store.auth.windows.refresh_current(force=True)
        report = auditor.sweep()
        assert report.clean
        assert report.active_count == 1
        assert report.deleted_count == 1
        assert report.frontier_sn == 2

    def test_weakly_signed_records_counted(self, store, auditor):
        store.write([b"w"], strength=Strength.WEAK, retention_seconds=1e6)
        store.write([b"s"], policy="sox")
        report = auditor.sweep()
        assert report.clean
        assert report.weakly_signed_count == 1

    def test_partial_range_sweep(self, store, auditor):
        for i in range(5):
            store.write([bytes([i])], policy="sox")
        report = auditor.sweep(start_sn=2, end_sn=3)
        # 2 requested + 1 frontier probe.
        assert report.total == 3
        assert {f.sn for f in report.findings} == {2, 3, 6}


class TestViolations:
    def test_tampered_payload_is_a_violation(self, store, auditor):
        receipt = store.write([b"original"], policy="sox")
        store.blocks.unchecked_overwrite(receipt.vrd.rdl[0].key, b"doctored")
        report = auditor.sweep()
        assert not report.clean
        assert report.violations[0].sn == receipt.sn
        assert "datasig" in report.violations[0].detail

    def test_destroyed_vrdt_slot_is_a_violation(self, store, auditor):
        receipt = store.write([b"x"], policy="sox")
        del store.vrdt._active[receipt.sn]
        report = auditor.sweep()
        assert not report.clean
        assert "cannot answer" in report.violations[0].detail

    def test_one_violation_does_not_mask_others(self, store, auditor):
        good = store.write([b"good"], policy="sox")
        bad = store.write([b"bad"], policy="sox")
        store.blocks.unchecked_overwrite(bad.vrd.rdl[0].key, b"!!!")
        report = auditor.sweep()
        assert len(report.violations) == 1
        verdicts = {f.sn: f.verdict for f in report.findings}
        assert verdicts[good.sn] == "active"
        assert verdicts[bad.sn] == "violation"

    def test_summary_counts(self, store, auditor):
        store.write([b"a"], policy="sox")
        receipt = store.write([b"b"], policy="sox")
        store.blocks.unchecked_overwrite(receipt.vrd.rdl[0].key, b"!")
        summary = auditor.sweep().summary()
        assert summary["active"] == 1
        assert summary["violations"] == 1
        assert summary["total"] == 3


class TestComplianceOverview:
    def test_overview_fields(self, store, auditor, regulator_key):
        from repro.crypto.envelope import Envelope, Purpose
        store.write([b"expiring"], retention_seconds=15 * 24 * 3600.0)
        store.write([b"stable"], policy="ferpa")
        held = store.write([b"held"], policy="sox")
        cred = regulator_key.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": held.sn}, timestamp=store.now))
        store.lit_hold(held.sn, cred, hold_timeout=store.now + 1e9)
        store.write([b"weak"], strength=Strength.WEAK, retention_seconds=1e9)

        overview = auditor.compliance_overview()
        assert overview["active_records"] == 4
        assert overview["expiring_within_horizon"] == [1]
        assert overview["litigation_holds"] == [held.sn]
        assert overview["strengthening_backlog"] == 1
        assert overview["hash_mismatches_found"] == []

"""Tests for compliant migration (§1)."""

import pytest

from repro import demo_keyring
from repro.core.errors import MigrationError
from repro.core.migration import export_package, import_package
from repro.core.worm import StrongWormStore
from repro.hardware.scpu import SecureCoprocessor, Strength


@pytest.fixture
def source(store):
    """The obsolete store being migrated away from."""
    return store


@pytest.fixture
def dest():
    """The new-media store (its own SCPU, its own keys)."""
    return StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))


class TestCleanMigration:
    def test_all_records_move_and_verify(self, source, dest, ca):
        receipts = [source.write([f"record-{i}".encode()], policy="sox")
                    for i in range(4)]
        package = export_package(source, ca)
        report = import_package(dest, package, ca)
        assert report.clean
        assert report.migrated == 4
        client = dest.make_client(ca)
        for receipt in receipts:
            new_sn = report.sn_mapping[receipt.sn]
            verified = client.verify_read(dest.read(new_sn), new_sn)
            assert verified.status == "active"

    def test_retention_clock_preserved(self, source, dest, ca):
        receipt = source.write([b"old"], retention_seconds=1000.0)
        source.scpu.clock.advance(400.0)
        package = export_package(source, ca)
        report = import_package(dest, package, ca)
        new_vrd = dest.vrdt.get_active(report.sn_mapping[receipt.sn])
        # created_at survived: 600 seconds of retention remain, not 1000.
        assert new_vrd.attr.created_at == receipt.vrd.attr.created_at
        assert new_vrd.attr.expires_at == receipt.vrd.attr.expires_at

    def test_expired_records_archived_not_migrated(self, source, dest, ca):
        source.write([b"gone"], retention_seconds=5.0)
        survivor = source.write([b"stays"], policy="sox")
        source.scpu.clock.advance(10.0)
        source.retention.tick(source.now)
        package = export_package(source, ca)
        report = import_package(dest, package, ca)
        assert report.migrated == 1
        assert report.archived_deletion_proofs == 1
        assert survivor.sn in report.sn_mapping

    def test_weak_records_must_be_strengthened_first(self, source, dest, ca):
        source.write([b"hmac-weak"], strength=Strength.HMAC)
        package = export_package(source, ca)
        report = import_package(dest, package, ca)
        assert not report.clean
        assert "HMAC" in report.rejected[0][1]

    def test_multi_record_vrs_migrate(self, source, dest, ca):
        receipt = source.write([b"a", b"b"], policy="sox")
        package = export_package(source, ca)
        report = import_package(dest, package, ca)
        new_sn = report.sn_mapping[receipt.sn]
        assert dest.read(new_sn).data == b"ab"


class TestTamperedMigration:
    def test_tampered_payload_rejected_per_record(self, source, dest, ca):
        bad = source.write([b"original"], policy="sox")
        good = source.write([b"untouched"], policy="sox")
        package = export_package(source, ca)
        package.blocks[bad.vrd.rdl[0].key] = b"doctored"
        # Package hash now disagrees with the manifest — wholesale reject.
        with pytest.raises(MigrationError, match="manifest"):
            import_package(dest, package, ca)

    def test_in_transit_record_swap_detected(self, source, dest, ca):
        """Mallory re-exports after doctoring the source store itself."""
        bad = source.write([b"original"], policy="sox")
        good = source.write([b"untouched"], policy="sox")
        # Insider rewrites the source payload, then the migration runs.
        source.blocks.unchecked_overwrite(bad.vrd.rdl[0].key, b"doctored")
        package = export_package(source, ca)
        report = import_package(dest, package, ca)
        assert report.migrated == 1
        assert report.sn_mapping.get(good.sn) is not None
        assert report.rejected[0][0] == bad.sn
        assert "data does not match" in report.rejected[0][1]

    def test_foreign_manifest_rejected(self, source, dest, ca):
        import dataclasses
        from repro.crypto.keys import SigningKey
        source.write([b"x"])
        package = export_package(source, ca)
        mallory = SigningKey.generate(512, role="s")
        forged = mallory.sign_envelope(package.manifest.envelope)
        with pytest.raises(MigrationError):
            import_package(
                dest, dataclasses.replace(package, manifest=forged), ca)

    def test_certificates_from_wrong_ca_rejected(self, source, dest, ca):
        from repro.crypto.keys import CertificateAuthority
        source.write([b"x"])
        package = export_package(source, ca)
        other_ca = CertificateAuthority(bits=512)
        with pytest.raises(MigrationError, match="CA"):
            import_package(dest, package, other_ca)

    def test_truncated_package_rejected(self, source, dest, ca):
        r1 = source.write([b"one"], policy="sox")
        source.write([b"two"], policy="sox")
        package = export_package(source, ca)
        # Drop one record's snapshot entry (hide it from the new store).
        package.vrdt_snapshot["active"] = [
            e for e in package.vrdt_snapshot["active"] if e["sn"] == r1.sn]
        with pytest.raises(MigrationError, match="manifest"):
            import_package(dest, package, ca)


class TestBatchedImport:
    @staticmethod
    def _import_crossings(ca, records):
        source = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        for i in range(records):
            source.write([b"record-%d" % i, b"sibling-%d" % i], policy="sox")
        dest = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        before = dest.scpu.meter.crossings
        report = import_package(dest, export_package(source, ca), ca)
        assert report.clean and report.migrated == records
        return dest.scpu.meter.crossings - before

    def test_card_crossings_do_not_grow_with_the_record_count(self, ca):
        # Manifest, one batched signature check, then hashing, SN issue
        # and witnessing once each for the whole package.
        assert self._import_crossings(ca, 3) == self._import_crossings(ca, 12)

"""Integration-level tests for the StrongWormStore operations."""

import pytest

from repro.core.errors import (
    CredentialError,
    LitigationHoldError,
    RetentionViolationError,
    UnknownSerialNumberError,
    VerificationError,
    WormError,
)
from repro.crypto.envelope import Envelope, Purpose
from repro.hardware.scpu import Strength
from repro.storage.record import RecordDescriptor


def _credential(regulator_key, sn, now):
    return regulator_key.sign_envelope(Envelope(
        purpose=Purpose.LITIGATION_CREDENTIAL,
        fields={"sn": sn}, timestamp=now))


class TestWrite:
    def test_sns_are_consecutive(self, store):
        sns = [store.write([b"r"]).sn for _ in range(5)]
        assert sns == [1, 2, 3, 4, 5]

    def test_raw_bytes_rejected(self, store):
        with pytest.raises(TypeError):
            store.write(b"not a list")

    def test_empty_vr_rejected(self, store):
        with pytest.raises(WormError):
            store.write([])

    def test_policy_floor_enforced(self, store):
        with pytest.raises(RetentionViolationError):
            store.write([b"x"], policy="sox", retention_seconds=60.0)

    def test_attr_fields_recorded(self, store):
        receipt = store.write([b"x"], policy="hipaa", mac_label="phi",
                              dac_owner="dr-alice", f_flag=3)
        attr = receipt.vrd.attr
        assert attr.policy == "hipaa"
        assert attr.shredding_algorithm == "dod-5220-3pass"
        assert attr.mac_label == "phi"
        assert attr.dac_owner == "dr-alice"
        assert attr.f_flag == 3

    def test_costs_reported_per_device(self, store):
        receipt = store.write([b"x" * 4096])
        assert set(receipt.costs) == {"scpu", "host", "disk"}
        assert receipt.costs["scpu"] > 0
        assert receipt.total_cost > 0

    def test_shared_records_between_vrs(self, store, client):
        attachment = store.write([b"big attachment"], policy="sec17a-4")
        shared_rd = attachment.vrd.rdl[0]
        email = store.write([b"mail body"], policy="sec17a-4",
                            shared_rds=[shared_rd])
        assert email.vrd.record_count == 2
        verified = client.verify_read(store.read(email.sn), email.sn)
        assert verified.data == b"big attachment" + b"mail body"

    def test_deferred_hash_matches_scpu_hash(self, store):
        a = store.write([b"same data"], defer_data_hash=False)
        b = store.write([b"same data"], defer_data_hash=True)
        assert a.vrd.data_hash == b.vrd.data_hash

    def test_scpu_hash_mode_charges_more_scpu_time(self, store):
        direct = store.write([b"x" * (256 * 1024)], defer_data_hash=False)
        deferred = store.write([b"x" * (256 * 1024)], defer_data_hash=True)
        assert direct.costs["scpu"] > 5 * deferred.costs["scpu"]
        assert deferred.costs["host"] > direct.costs["host"]


class TestRead:
    def test_read_active_returns_data_and_proof(self, store):
        receipt = store.write([b"payload"])
        result = store.read(receipt.sn)
        assert result.status == "active"
        assert result.data == b"payload"

    def test_read_charges_no_scpu_time(self, store):
        receipt = store.write([b"payload"])
        mark = store.scpu.meter.checkpoint()
        store.read(receipt.sn)
        assert store.scpu.meter.delta(mark) == 0.0

    def test_read_invalid_sn(self, store):
        with pytest.raises(UnknownSerialNumberError):
            store.read(0)

    def test_read_corrupted_vrdt_raises(self, store):
        receipt = store.write([b"x"])
        del store.vrdt._active[receipt.sn]
        with pytest.raises(UnknownSerialNumberError, match="corrupted"):
            store.read(receipt.sn)

    def test_read_future_sn_never_allocated(self, store):
        result = store.read(1000)
        assert result.status == "never-allocated"


class TestExpiry:
    def test_expired_record_shredded(self, store):
        receipt = store.write([b"SECRET" * 100], retention_seconds=10.0)
        key = receipt.vrd.rdl[0].key
        store.scpu.clock.advance(20.0)
        store.retention.tick(store.now)
        assert key not in store.blocks  # payload gone entirely

    def test_shared_record_survives_one_vr_expiry(self, store):
        keeper = store.write([b"shared blob"], retention_seconds=1e9)
        shared_rd = keeper.vrd.rdl[0]
        brief = store.write([b"own record"], retention_seconds=5.0,
                            shared_rds=[shared_rd])
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        # The brief VR is gone but the shared payload must survive.
        assert shared_rd.key in store.blocks
        assert store.blocks.get(shared_rd.key) == b"shared blob"

    def test_expire_record_states(self, store):
        receipt = store.write([b"x"], retention_seconds=100.0)
        assert store.expire_record(receipt.sn, store.now) == "premature"
        assert store.expire_record(9999, store.now) == "already"
        store.scpu.clock.advance(200.0)
        assert store.expire_record(receipt.sn, store.now) == "deleted"
        assert store.expire_record(receipt.sn, store.now) == "already"


class TestLitigation:
    def test_hold_blocks_expiry(self, store, regulator_key, client):
        receipt = store.write([b"evidence"], retention_seconds=10.0)
        cred = _credential(regulator_key, receipt.sn, store.now)
        store.lit_hold(receipt.sn, cred, hold_timeout=store.now + 1000.0)
        store.scpu.clock.advance(20.0)
        assert store.expire_record(receipt.sn, store.now) == "held"
        # And the held record still verifies for clients.
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"

    def test_release_allows_expiry(self, store, regulator_key):
        receipt = store.write([b"evidence"], retention_seconds=10.0)
        hold_cred = _credential(regulator_key, receipt.sn, store.now)
        store.lit_hold(receipt.sn, hold_cred, hold_timeout=store.now + 1000.0)
        store.scpu.clock.advance(20.0)
        release_cred = _credential(regulator_key, receipt.sn, store.now)
        store.lit_release(receipt.sn, release_cred)
        assert store.expire_record(receipt.sn, store.now) == "deleted"

    def test_hold_without_credential_authority(self, scpu):
        from repro.core.worm import StrongWormStore
        bare = StrongWormStore(scpu=scpu)  # no regulator provisioned
        receipt = bare.write([b"x"])
        from repro.crypto.keys import SigningKey
        rogue = SigningKey.generate(512, role="regulator")
        cred = _credential(rogue, receipt.sn, bare.now)
        with pytest.raises(CredentialError):
            bare.lit_hold(receipt.sn, cred, hold_timeout=1e9)

    def test_forged_credential_rejected(self, store):
        from repro.crypto.keys import SigningKey
        receipt = store.write([b"x"])
        rogue = SigningKey.generate(512, role="regulator")
        cred = _credential(rogue, receipt.sn, store.now)
        with pytest.raises(CredentialError):
            store.lit_hold(receipt.sn, cred, hold_timeout=1e9)

    def test_release_without_hold_rejected(self, store, regulator_key):
        receipt = store.write([b"x"])
        cred = _credential(regulator_key, receipt.sn, store.now)
        with pytest.raises(LitigationHoldError):
            store.lit_release(receipt.sn, cred)

    def test_hold_resigns_metasig(self, store, regulator_key, client):
        receipt = store.write([b"x"])
        old_sig = receipt.vrd.metasig.signature
        cred = _credential(regulator_key, receipt.sn, store.now)
        updated = store.lit_hold(receipt.sn, cred, hold_timeout=store.now + 10.0)
        assert updated.metasig.signature != old_sig
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"

    def test_hold_on_expired_record_fails(self, store, regulator_key):
        receipt = store.write([b"x"], retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        cred = _credential(regulator_key, receipt.sn, store.now)
        with pytest.raises(UnknownSerialNumberError):
            store.lit_hold(receipt.sn, cred, hold_timeout=1e9)


class TestMaintenance:
    def test_summary_shape(self, store):
        store.write([b"w"], strength=Strength.WEAK, defer_data_hash=True,
                    retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        summary = store.maintenance()
        assert summary["expired"] == 1
        assert summary["hashes_verified"] in (0, 1)
        assert set(summary) == {"expired", "strengthened", "hashes_verified",
                                "windows_compacted", "base_advanced",
                                "night_scanned"}

    def test_full_cycle_compacts_and_advances(self, store):
        for _ in range(5):
            store.write([b"t"], retention_seconds=5.0)
        survivor = store.write([b"keep"], retention_seconds=1e9)
        store.scpu.clock.advance(10.0)
        summary = store.maintenance()
        assert summary["expired"] == 5
        assert summary["base_advanced"] == 1
        assert store.scpu.sn_base == survivor.sn

    def test_budgets_respected(self, store):
        for _ in range(6):
            store.write([b"w"], strength=Strength.WEAK,
                        retention_seconds=1e6)
        summary = store.maintenance(strengthen_budget=2)
        assert summary["strengthened"] == 2
        assert len(store.strengthening) == 4


class TestWriteHashesInHand:
    """A write hashes the payloads its caller passed; only shared records
    are read back from the block store."""

    @staticmethod
    def _count_gets(store, monkeypatch):
        gets = []
        real = store.blocks.get

        def counting(key):
            gets.append(key)
            return real(key)

        monkeypatch.setattr(store.blocks, "get", counting)
        return gets

    def test_new_payloads_are_never_read_back(self, store, monkeypatch):
        gets = self._count_gets(store, monkeypatch)
        store.write([b"a", b"b", b"c"])
        store.write([b"d"], defer_data_hash=True)
        assert gets == []

    def test_a_shared_descriptor_is_read_once(self, store, monkeypatch):
        shared = store.write([b"shared blob"]).vrd.rdl[0]
        gets = self._count_gets(store, monkeypatch)
        store.write([b"own record"], shared_rds=[shared])
        assert gets == [shared.key]

    def test_a_put_the_block_store_corrupts_fails_verification(
            self, store, client, monkeypatch):
        real = store.blocks.put
        monkeypatch.setattr(store.blocks, "put",
                            lambda data: real(bytes(data)[:-1] + b"?"))
        receipt = store.write([b"what the caller sent"])
        with pytest.raises(VerificationError):
            client.verify_read(store.read(receipt.sn), receipt.sn)


class TestWriteEdgeCases:
    def test_zero_byte_record(self, store, client):
        receipt = store.write([b""], retention_seconds=1e9)
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"
        assert verified.data == b""

    def test_many_records_in_one_vr(self, store, client):
        payloads = [bytes([i]) * (i + 1) for i in range(50)]
        receipt = store.write(payloads, retention_seconds=1e9)
        assert receipt.vrd.record_count == 50
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.data == b"".join(payloads)

    def test_inline_shared_descriptor_ordering(self, store, client):
        """RecordDescriptors inline in `records` preserve position."""
        base = store.write([b"MIDDLE"], retention_seconds=1e9)
        shared = base.vrd.rdl[0]
        receipt = store.write([b"HEAD-", shared, b"-TAIL"],
                              retention_seconds=1e9)
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.data == b"HEAD-MIDDLE-TAIL"

    def test_unknown_shared_descriptor_rejected(self, store):
        from repro.storage.record import RecordDescriptor
        ghost = RecordDescriptor(key="rec-does-not-exist", length=4)
        with pytest.raises(WormError, match="not in the store"):
            store.write([b"x"], shared_rds=[ghost])

    def test_foreign_store_descriptor_rejected(self, store):
        """An RD naming a record in a *different* store's blocks fails."""
        from repro import demo_keyring
        from repro.core.worm import StrongWormStore
        from repro.hardware.scpu import SecureCoprocessor
        other = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        foreign = other.write([b"elsewhere"], retention_seconds=1e9)
        with pytest.raises(WormError):
            store.write([b"x"], shared_rds=[foreign.vrd.rdl[0]])

    def test_hmac_plus_deferred_hash_combo(self, store, client):
        """The fastest §4.3 combination still converges to fully strong."""
        receipt = store.write([b"extreme burst"], strength=Strength.HMAC,
                              defer_data_hash=True, retention_seconds=1e9)
        store.maintenance()
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"
        assert not verified.weakly_signed
        assert store.hash_verification.mismatches == []

    def test_write_costs_monotone_in_size(self, store):
        small = store.write([b"x" * 1024], retention_seconds=1e9)
        large = store.write([b"x" * (512 * 1024)], retention_seconds=1e9)
        assert large.costs["scpu"] > small.costs["scpu"]
        assert large.costs["host"] > small.costs["host"]


class TestImportRecord:
    def test_preserves_creation_time(self, store):
        from repro.storage.record import RecordAttributes
        attr = RecordAttributes(created_at=123.0, retention_seconds=1e6,
                                policy="sox")
        store.scpu.clock.advance(5000.0)
        receipt = store.import_record(attr, [b"migrated payload"])
        assert receipt.vrd.attr.created_at == 123.0
        assert receipt.vrd.attr.policy == "sox"
        result = store.read(receipt.sn)
        assert result.data == b"migrated payload"

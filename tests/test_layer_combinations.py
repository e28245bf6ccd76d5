"""Cross-layer integration: the extensions compose, not just coexist.

Each test stacks two or more layers (pool + encryption, encryption +
replicas, blockdev + migration, catalog + audit) and drives a real
scenario through the combined stack — the configurations a deployment
would actually run.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.worm import StrongWormStore
from repro.hardware.pool import ScpuPool
from repro.hardware.scpu import SecureCoprocessor, Strength
from repro.sim.manual_clock import ManualClock


class TestPoolBackedEncryption:
    def test_crypto_shredding_over_scpu_pool(self, ca):
        # The epoch and key-transport ops are card ops too: the pool
        # serves them from its authority card.
        from repro.core.encryption import EncryptedWormStore
        pool = ScpuPool.build(2, keyring=demo_keyring(), clock=ManualClock())
        store = StrongWormStore(scpu=pool)
        client = store.make_client(ca)
        encrypted = EncryptedWormStore(store)
        receipt = encrypted.write(b"pooled secret")
        read = encrypted.read_verified(client, receipt.sn)
        assert read.plaintext == b"pooled secret"
        assert encrypted.shred_epoch() == 0
        assert encrypted.current_epoch == 2
        read = encrypted.read_verified(client, receipt.sn)
        assert read.plaintext == b"pooled secret"


class TestEncryptedReplication:
    def test_mirrored_encrypted_stores(self, ca):
        from repro.core.encryption import EncryptedWormStore
        clock = ManualClock()
        stores = [StrongWormStore(scpu=SecureCoprocessor(
            keyring=demo_keyring(), clock=clock)) for _ in range(2)]
        encrypted = [EncryptedWormStore(s) for s in stores]
        clients = [s.make_client(ca) for s in stores]

        # Write the same plaintext to both replicas (independent DEKs).
        receipts = [e.write(b"mirrored secret", policy="sox")
                    for e in encrypted]
        ct0 = stores[0].blocks.get(receipts[0].vrd.rdl[0].key)
        ct1 = stores[1].blocks.get(receipts[1].vrd.rdl[0].key)
        assert ct0 != ct1  # different DEKs per replica

        # Replica 0's media is imaged + tampered; replica 1 still serves.
        stores[0].blocks.unchecked_overwrite(receipts[0].vrd.rdl[0].key,
                                             b"x" * len(ct0))
        from repro.core.errors import VerificationError
        with pytest.raises(VerificationError):
            encrypted[0].read_verified(clients[0], receipts[0].sn)
        read = encrypted[1].read_verified(clients[1], receipts[1].sn)
        assert read.plaintext == b"mirrored secret"

        # Epoch rotations are per-replica and independent.
        assert encrypted[1].shred_epoch() == 0
        read = encrypted[1].read_verified(clients[1], receipts[1].sn)
        assert read.plaintext == b"mirrored secret"


class TestBlockDeviceMigration:
    def test_block_device_contents_survive_migration(self, ca):
        from repro.blockdev import WormBlockDevice
        from repro.core.migration import export_package, import_package

        old = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        dev = WormBlockDevice(old, block_size=128, capacity_blocks=32,
                              retention_seconds=1e9)
        dev.write_range(0, b"telemetry " * 30)  # several blocks

        package = export_package(old, ca)
        new = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        report = import_package(new, package, ca)
        assert report.clean

        # Remount the device on the new store via the SN mapping.
        new_dev = WormBlockDevice(new, block_size=128, capacity_blocks=32,
                                  retention_seconds=1e9)
        from repro.blockdev.device import _BlockEntry
        for lba in dev.written_lbas():
            new_dev._lba_map[lba] = _BlockEntry(
                sn=report.sn_mapping[dev.sn_of(lba)], written_at=0.0)
        nblocks = len(list(dev.written_lbas()))
        assert new_dev.read_range(0, nblocks) == dev.read_range(0, nblocks)
        # LBA binding survived re-witnessing (payload framing intact).
        client = new.make_client(ca)
        assert new_dev.read_block_verified(client, 0).startswith(b"telemetry")


class TestCatalogDrivenAudit:
    def test_targeted_sweep_from_catalog_query(self, store, client):
        """The examiner's flow: query the catalog, audit just those SNs."""
        from repro.core.audit import StoreAuditor
        from repro.core.catalog import RecordCatalog

        sox = [store.write([bytes([i])], policy="sox") for i in range(3)]
        store.write([b"other"], policy="ferpa")
        catalog = RecordCatalog(store)
        catalog.index_all()
        targets = catalog.by_policy("sox")
        assert len(targets) == 3

        # Tamper with one SOX record; the targeted sweep finds exactly it.
        victim = sox[1]
        store.blocks.unchecked_overwrite(victim.vrd.rdl[0].key, b"!")
        auditor = StoreAuditor(store, client)
        verdicts = {sn: auditor._audit_one(sn).verdict for sn in targets}
        assert verdicts[victim.sn] == "violation"
        assert [v for v in verdicts.values()].count("active") == 2

"""SiteRecovery: staged, verified, resumable rebuild of a dead site.

The primary dies after (or mid-way through) replicating to the
standby; these tests rebuild a fresh site from the untrusted replica
and check the paper's guarantee survives the disaster: everything the
rebuilt site serves verifies against the dead site's CA-certified SCPU
keys, a lying replica trips :class:`TamperedError` terminally, and no
acknowledged write is lost (the journal mirror re-ingests whatever the
catalog had not shipped).
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import RecoveryError, TamperedError
from repro.core.locator import RecordLocator
from repro.crypto.keys import CertificateAuthority
from repro.recovery import RecoveryStage, SiteRecovery
from repro.recovery.drill import (SMALL_SITE, build_primary, build_standby,
                                  catch_up, flip_replicated_byte)

#: Recovery rebuilds onto a site provisioned apart from the dead one:
#: the default group size of eight, not the primary's four.
STANDBY = SMALL_SITE.replace(group_commit_size=8)


def _populated_site(ca, records=8, pending=0, tags=()):
    """A primary with *records* flushed + *pending* unflushed writes,
    fully replicated, then killed (we simply stop using it)."""
    store, transport, replica, pump = build_primary(ca=ca)
    for i in range(records):
        store.submit(b"durable-%d" % i)
    for tag in tags:
        store.submit(b"tagged:" + repr(tag).encode(), tag=tag)
    receipts = store.flush()
    for i in range(pending):
        store.submit(b"pending-%d" % i)
    assert catch_up(pump)
    return store, replica, receipts


class TestHappyPath:
    def test_full_recovery_rebuilds_a_verifiable_site(self, ca):
        primary, replica, receipts = _populated_site(ca, records=8)
        standby = build_standby(STANDBY)
        recovery = SiteRecovery(replica, standby, ca)
        report = recovery.run()

        assert report.complete
        assert report.stages_completed == list(RecoveryStage.ORDER)
        # Counters are per VR (group commit packs records into VRs);
        # the locator mapping is per record and must cover all eight.
        assert report.records_verified == report.records_replayed > 0
        assert len(report.locator_mapping) == 8
        assert report.windows_verified >= 2  # SN_current + SN_base
        assert report.rto_seconds > 0
        assert standby.site_state == "active"

        # Every pre-disaster locator maps to a record the *standby's*
        # verifying client accepts — nothing was laundered in.
        client = standby.make_client(ca)
        for receipt in receipts:
            old = receipt.locator.pack()
            new = RecordLocator.unpack(report.locator_mapping[old])
            verified = client.verify_read(standby.read(new), new)
            assert verified.status == "active"
            payload = standby.read_record(report.locator_mapping[old])
            assert payload == primary.read_record(old)

    def test_a_snapshot_carrying_deletion_proofs_recovers(self, ca):
        # Each shard expires its middle VR before the first pump, so the
        # snapshot itself carries a deletion proof above SN_base.
        store, _, replica, pump = build_primary(ca=ca)
        store.write_batch([b"kept-%d" % i for i in range(8)], policy="sox")
        store.write_batch([b"brief-%d" % i for i in range(8)],
                          retention_seconds=5.0)
        store.write_batch([b"later-%d" % i for i in range(8)], policy="sox")
        store.advance_clocks(10.0)
        for shard in store.shards:
            shard.retention.tick(store.now)
        assert catch_up(pump)
        report = SiteRecovery(replica, build_standby(STANDBY), ca).run()
        assert report.complete
        assert report.skipped_expired == 2
        assert report.records_replayed == 4

    def test_rto_includes_the_wan_transfer(self, ca):
        _, replica, _ = _populated_site(ca, records=4)
        standby = build_standby(STANDBY)
        slow = SiteRecovery(replica, standby, ca, link_bandwidth=1e3)
        report = slow.run()
        assert report.transfer_seconds > 0
        assert report.rto_seconds >= report.transfer_seconds


class TestZeroAcknowledgedLoss:
    def test_unflushed_tail_is_reingested_from_the_journal(self, ca):
        # Three writes were admitted (journalled + mirrored) but the
        # site died before their group commit: the catalog never saw
        # them, the mirrored journal did.
        primary, replica, _ = _populated_site(ca, records=5, pending=3)
        standby = build_standby(STANDBY)
        report = SiteRecovery(replica, standby, ca).run()
        assert report.journal_requeued == 3
        payloads = set()
        for shard in standby.shards:
            for sn in shard.vrdt.active_sns:
                result = shard.read(sn)
                payloads.update(result.records)
        for i in range(3):
            assert b"pending-%d" % i in payloads

    def test_deferred_tickets_survive_under_their_tags(self, ca):
        tag = ("acme", "t-42")
        store, transport, replica, pump = build_primary(ca=ca)
        store.submit(b"anchor")
        store.flush()
        store.submit(b"deferred", tag=tag)  # admitted, never flushed
        assert catch_up(pump)
        standby = build_standby(STANDBY)
        report = SiteRecovery(replica, standby, ca).run()
        assert tag in report.tagged_receipts
        locator = report.tagged_receipts[tag].locator
        assert standby.read_record(locator) == b"deferred"


class TestTamperDetection:
    def test_corrupted_replica_block_is_terminal(self, ca):
        # The standby's disk lies: one payload byte differs from what
        # the dead SCPU signed.  VERIFY must refuse the whole recovery,
        # not import around it.
        _, replica, _ = _populated_site(ca, records=6)
        assert flip_replicated_byte(replica) is not None
        standby = build_standby(STANDBY)
        recovery = SiteRecovery(replica, standby, ca)
        with pytest.raises(TamperedError):
            recovery.run()
        assert RecoveryStage.VERIFY not in recovery.checkpoint()["completed"]

    def test_in_flight_corruption_targets_the_payload(self, ca):
        # The transport's tamper fault flips a block byte, which is
        # exactly the damage VERIFY's data-hash check catches.
        _, replica, _ = _populated_site(ca, records=2)
        shard_id = replica.shard_ids[0]
        from repro.recovery import ReplicationArtifact
        history = replica._shards[shard_id].history
        payload = next(p for p in history if p.get("blocks"))
        artifact = ReplicationArtifact(
            stream="catalog:0", seq=99, kind="delta", created_at=0.0,
            payload=payload, size_bytes=1)
        corrupted = artifact.corrupted()
        key = sorted(payload["blocks"])[0]
        assert corrupted.payload["blocks"][key] != payload["blocks"][key]

    def test_forged_certificates_are_terminal(self, ca):
        _, replica, _ = _populated_site(ca, records=2)
        impostor_ca = CertificateAuthority(bits=512)
        standby = build_standby(STANDBY)
        with pytest.raises(TamperedError):
            SiteRecovery(replica, standby, impostor_ca).run()

    def test_missing_certificates_are_a_recovery_error(self, ca):
        # Pump wired without a CA: the meta stream never ships, so the
        # dead site's keys cannot be trusted -- refuse, don't guess.
        store, transport, replica, pump = build_primary(ca=None)
        store.submit(b"record")
        store.flush()
        assert catch_up(pump)
        standby = build_standby(STANDBY)
        with pytest.raises(RecoveryError):
            SiteRecovery(replica, standby, ca).run()


class TestResumability:
    def test_checkpoint_round_trips_through_json(self, ca):
        _, replica, _ = _populated_site(ca, records=4)
        standby = build_standby(STANDBY)
        first = SiteRecovery(replica, standby, ca)
        for _ in range(3):  # DISCOVER, DOWNLOAD, VERIFY
            first.step()
        saved = json.loads(json.dumps(first.checkpoint()))
        resumed = SiteRecovery(replica, standby, ca, checkpoint=saved)
        assert resumed.stage == RecoveryStage.REPLAY
        report = resumed.run()
        assert report.complete
        assert len(report.locator_mapping) == 4  # every record landed
        assert standby.site_state == "active"

    def test_resume_skips_already_replayed_shards(self, ca):
        _, replica, _ = _populated_site(ca, records=6)
        standby = build_standby(STANDBY)
        first = SiteRecovery(replica, standby, ca)
        for _ in range(4):  # ...through REPLAY
            first.step()
        replayed = first.checkpoint()["counts"]["records_replayed"]
        saved = json.loads(json.dumps(first.checkpoint()))
        resumed = SiteRecovery(replica, standby, ca, checkpoint=saved)
        report = resumed.run()
        # No double imports: the resumed pass only ran RESUME, and the
        # journal had nothing left to cover.
        assert report.records_replayed == replayed
        assert report.journal_requeued == 0

    def test_recovering_state_is_reported_while_rebuilding(self, ca):
        _, replica, _ = _populated_site(ca, records=2)
        standby = build_standby(STANDBY)
        recovery = SiteRecovery(replica, standby, ca)
        recovery.step()  # DISCOVER flips the site into recovery
        assert standby.recovering
        assert standby.health_report()["site_state"] == "recovering"
        recovery.run()
        assert not standby.recovering
        assert standby.health_report()["site_state"] == "active"
